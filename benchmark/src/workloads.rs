//! The seven workloads, as they run inside one child process.
//!
//! Every EventWorld workload uses the paper's measurement loop (§V), one
//! sample per broadcast: inside one `EventWorld::run` every rank allocates
//! its buffer once; per sample the root refills it from that sample's
//! payload (untimed), all ranks `barrier`, rank 0 reads the clock, one
//! broadcast, `barrier`, rank 0 reads the clock, then every rank compares
//! its buffer byte-for-byte with the payload (untimed). The reactor is
//! single-threaded, so rank 0 leaving the closing barrier means every rank
//! finished. All loops are closed, one caller, back to back.
//!
//! The first world of a workload is an untimed warm-up that runs exactly
//! one broadcast with no barriers: the count metrics come from it and are
//! reconciled against `bcast_core::traffic::bcast_volume`. Worlds with
//! fault plans take their counts under the canonical plan
//! ([`inputs::CANONICAL_FAULT_SEED`]) and their timings under seeded ones.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bcast_bench::measure_sim;
use bcast_core::traffic::bcast_volume;
use bcast_core::{
    bcast_opt_async, bcast_with, bcast_with_async, check_recovery_outcome, self_healing_rank_task,
    Algorithm, RankRun, RecoveryDrill, RecoverySpec,
};
use mpsim::{
    AsyncCommunicator, Communicator, EventComm, EventWorld, PoolStats, Rank, ReactorStats,
    ReliableComm, ThreadWorld, WorldOutcome, WorldTraffic,
};
use netsim::{presets, FaultPlan, FaultyComm, LinkFaults, SimWorld};

use crate::inputs::{self, CANONICAL_FAULT_SEED};
use crate::spec::{self, Workload};
use crate::trace::Tracer;

/// What one child process measured, before it is written as JSON.
#[derive(Debug, Default)]
pub struct Report {
    pub setup_s: f64,
    /// Rank-broadcasts attempted and, of those, the ones that returned an
    /// unexpected error or a payload that was not byte-identical.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness guards that tripped; any entry fails the run.
    pub guards: Vec<String>,
    /// Scalars by name: per-broadcast counts from the warm-up world and
    /// totals over the timed worlds.
    pub nums: BTreeMap<String, f64>,
    /// Sample lists by name; `bcast_wall_us` is the one every workload has.
    pub series: BTreeMap<String, Vec<f64>>,
}

impl Report {
    fn set(&mut self, key: &str, value: f64) {
        self.nums.insert(key.into(), value);
    }

    fn add(&mut self, key: &str, value: f64) {
        *self.nums.entry(key.into()).or_insert(0.0) += value;
    }

    fn push(&mut self, key: &str, value: f64) {
        self.series.entry(key.into()).or_default().push(value);
    }

    fn guard(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.guards.push(why());
        }
    }

    /// Per-broadcast counts of the warm-up world — the count metrics.
    fn set_counts(&mut self, traffic: &WorldTraffic) {
        self.set("msgs_per_bcast", traffic.total_msgs() as f64);
        self.set("wire_bytes_per_bcast", traffic.total_bytes() as f64);
        self.set("envelopes_per_bcast", traffic.total_envelopes() as f64);
        self.set("bytes_copied_per_bcast", traffic.total_bytes_copied() as f64);
    }

    /// Fold one timed world's counters into the totals.
    fn add_world(&mut self, bcasts: usize, traffic: &WorldTraffic, pool: &PoolStats) {
        self.add("timed_worlds", 1.0);
        self.add("timed_bcasts", bcasts as f64);
        self.add("timed_msgs", traffic.total_msgs() as f64);
        self.add("timed_wire_bytes", traffic.total_bytes() as f64);
        self.add("timed_envelopes", traffic.total_envelopes() as f64);
        self.add("timed_bytes_copied", traffic.total_bytes_copied() as f64);
        self.add("pool_hits", pool.hits as f64);
        self.add("pool_misses", pool.misses as f64);
        self.add("pool_outstanding", pool.outstanding as f64);
    }

    /// Fold one timed EventWorld run of the sample loop: its samples, its
    /// verdicts and its counters.
    fn add_event_world(&mut self, p: usize, run: WorldRun) {
        let bcasts = run.times_us.len();
        self.attempted += (p * bcasts) as u64;
        self.failed += run.failed;
        self.add_world(bcasts, &run.outcome.traffic, &run.outcome.pool);
        self.add_reactor(&run.outcome.reactor);
        self.series.entry("bcast_wall_us".into()).or_default().extend(run.times_us);
    }

    fn add_reactor(&mut self, reactor: &ReactorStats) {
        self.add("reactor_wakeups", reactor.wakeups as f64);
        self.add("reactor_spurious_polls", reactor.spurious_polls as f64);
        self.add("reactor_timer_cancels", reactor.timer_cancels as f64);
        self.add("reactor_mailbox_spills", reactor.mailbox_spills as f64);
    }

    /// The warm-up world's message and byte totals must equal the closed
    /// forms of `bcast_core::traffic` (51 = 44 + 7 messages at `P = 8`).
    fn reconcile_with_closed_form(&mut self, algorithm: Algorithm, nbytes: usize, p: usize) {
        let vol = bcast_volume(algorithm, nbytes, p);
        let (msgs, bytes) = (self.nums["msgs_per_bcast"], self.nums["wire_bytes_per_bcast"]);
        self.guard(msgs == vol.msgs as f64 && bytes == vol.bytes as f64, || {
            format!(
                "warm-up moved {msgs} msgs / {bytes} B, closed form says {} msgs / {} B",
                vol.msgs, vol.bytes
            )
        });
    }

    /// A fault-free workload sends the same thing every time: the timed
    /// worlds' totals must be the warm-up's counts times the broadcasts.
    fn reconcile_timed_with_warmup(&mut self) {
        let bcasts = self.nums.get("timed_bcasts").copied().unwrap_or(0.0);
        for key in ["msgs", "wire_bytes", "envelopes", "bytes_copied"] {
            let (timed, per) =
                (self.nums[&format!("timed_{key}")], self.nums[&format!("{key}_per_bcast")]);
            self.guard(timed == per * bcasts, || {
                format!("timed worlds moved {timed} {key} over {bcasts} broadcasts, warm-up says {per} each")
            });
        }
    }
}

/// What a workload needs from the process around it.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Wall time the timed worlds may take once set-up is done.
    pub budget: Duration,
    pub tracer: &'a Tracer,
    /// The `workload` span every other span descends from.
    pub root_span: Option<usize>,
    /// When the process started; set-up time counts from here.
    pub started: Instant,
}

impl Ctx<'_> {
    /// Close the set-up phase: everything from process start to now.
    fn setup_done(&self, report: &mut Report, setup_span: Option<usize>) {
        self.tracer.close(setup_span);
        report.setup_s = self.started.elapsed().as_secs_f64();
    }

    /// Run timed worlds until the budget is spent — at least one.
    fn timed_worlds(&self, mut world: impl FnMut(u64)) {
        let deadline = Instant::now() + self.budget;
        let mut index = 0u64;
        loop {
            world(index);
            index += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

pub fn run(workload: &Workload, ctx: &Ctx<'_>) -> Report {
    match workload.name {
        spec::RING_MSGS | spec::RING_BYTES => plain_ring(workload, ctx),
        spec::HEAL_CLEAN => heal(workload, ctx, 0, 3),
        spec::HEAL_CRASH => heal(workload, ctx, 2, 5),
        spec::LOSSY_RING => lossy_ring(workload, ctx),
        spec::PAPER_SIM => paper_sim(workload, ctx),
        spec::THREAD_PAIR => thread_pair(workload, ctx),
        other => unreachable!("workload {other} is not in the table"),
    }
}

// ---------------------------------------------------------------------------
// The EventWorld sample loop.

/// One world's worth of the measurement loop, shared by every rank task.
pub struct SampleLoop<'a> {
    /// One payload per sample; rank 0 is the root of every broadcast.
    pub payloads: &'a [Vec<u8>],
    /// Barriers and clock reads; `false` is the warm-up broadcast.
    pub timed: bool,
    /// Rank 0 pushes one broadcast time per sample, in microseconds.
    pub times_us: &'a RefCell<Vec<f64>>,
    pub tracer: &'a Tracer,
    pub world_span: Option<usize>,
    /// When `EventWorld::run` was entered, for the `world_build` span.
    pub entered: Instant,
}

impl SampleLoop<'_> {
    /// The per-rank body. `raw` carries the barriers; `via` is the stack
    /// the broadcast goes through (the same communicator unless the
    /// workload decorates it). Returns this rank's failed broadcasts.
    pub async fn rank_task<C, Op>(&self, raw: &EventComm, via: &C, bcast: Op) -> u64
    where
        C: AsyncCommunicator,
        Op: AsyncFn(&C, &mut [u8]) -> mpsim::Result<()>,
    {
        let me = raw.rank();
        let clock = me == 0;
        if clock {
            if let Some(now) = self.tracer.now() {
                self.tracer.record("world_build", self.world_span, self.entered, now);
            }
        }
        let nbytes = self.payloads.first().map_or(0, Vec::len);
        let mut buf = vec![0u8; nbytes];
        let mut failed = 0;
        for (i, payload) in self.payloads.iter().enumerate() {
            let t_in = if clock { self.tracer.now() } else { None };
            if me == 0 {
                buf.copy_from_slice(payload);
            }
            if self.timed {
                raw.barrier().await.expect("opening barrier");
            }
            let t0 = clock.then(Instant::now);
            let outcome = bcast(via, &mut buf).await;
            let t_done = if clock { self.tracer.now() } else { None };
            if self.timed {
                raw.barrier().await.expect("closing barrier");
            }
            let t1 = clock.then(Instant::now);
            if outcome.is_err() || buf != *payload {
                failed += 1;
            }
            if let (Some(t0), Some(t1)) = (t0, t1) {
                if self.timed {
                    self.times_us.borrow_mut().push((t1 - t0).as_secs_f64() * 1e6);
                }
                if let (Some(t_in), Some(t_done)) = (t_in, t_done) {
                    let sample = self.tracer.record(
                        format!("sample[{i}]"),
                        self.world_span,
                        t_in,
                        Instant::now(),
                    );
                    // `barrier_in` also covers the other ranks' untimed
                    // work: their verify of the previous sample, the refill.
                    self.tracer.record("barrier_in", sample, t_in, t0);
                    self.tracer.record("bcast", sample, t0, t_done);
                    self.tracer.record("barrier_out", sample, t_done, t1);
                    self.tracer.record("verify", sample, t1, Instant::now());
                }
            }
        }
        failed
    }
}

/// Timings and counters of one EventWorld run of the sample loop.
pub struct WorldRun {
    pub times_us: Vec<f64>,
    pub failed: u64,
    pub outcome: WorldOutcome<u64>,
}

/// Run one world of the sample loop. `rank` is each rank's task: it builds
/// whatever stack the broadcast goes through on top of its `EventComm` and
/// hands it to [`SampleLoop::rank_task`].
fn sample_world<R>(
    p: usize,
    payloads: &[Vec<u8>],
    timed: bool,
    tracer: &Tracer,
    parent: Option<usize>,
    rank: R,
) -> WorldRun
where
    R: AsyncFn(&SampleLoop<'_>, &EventComm) -> u64,
{
    let times_us = RefCell::new(Vec::with_capacity(payloads.len()));
    let world_span = tracer.open(if timed { "world" } else { "warmup" }, parent);
    let lp = SampleLoop {
        payloads,
        timed,
        times_us: &times_us,
        tracer,
        world_span,
        entered: Instant::now(),
    };
    let (lp, rank) = (&lp, &rank);
    let outcome = EventWorld::run(p, |comm| async move { rank(lp, &comm).await });
    tracer.close(world_span);
    let failed = outcome.results.iter().sum();
    WorldRun { times_us: times_us.into_inner(), failed, outcome }
}

/// The sample loop on a bare `EventComm` world of `p` ranks, root 0.
pub fn event_world<Op>(
    p: usize,
    payloads: &[Vec<u8>],
    timed: bool,
    tracer: &Tracer,
    parent: Option<usize>,
    bcast: Op,
) -> WorldRun
where
    Op: AsyncFn(&EventComm, &mut [u8]) -> mpsim::Result<()>,
{
    let bcast = &bcast;
    sample_world(p, payloads, timed, tracer, parent, async |lp, comm| {
        lp.rank_task(comm, comm, bcast).await
    })
}

/// `count` payloads starting at global sample index `first`.
fn payloads(
    ctx: &Ctx<'_>,
    parent: Option<usize>,
    nbytes: usize,
    first: u64,
    count: usize,
) -> Vec<Vec<u8>> {
    ctx.tracer.scope("payload_gen", parent, |_| {
        (0..count as u64).map(|i| inputs::payload(nbytes, ctx.seed, first + i)).collect()
    })
}

/// Global sample index of the warm-up broadcast, clear of any timed one.
const WARMUP_SAMPLE: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// ring-msgs, ring-bytes

fn plain_ring(w: &Workload, ctx: &Ctx<'_>) -> Report {
    let algorithm = Algorithm::ScatterRingTuned;
    let bcast = async |c: &EventComm, buf: &mut [u8]| bcast_with_async(c, buf, 0, algorithm).await;
    let mut report = Report::default();

    let setup = ctx.tracer.open("setup", ctx.root_span);
    let warm_payload = payloads(ctx, setup, w.nbytes, WARMUP_SAMPLE, 1);
    let warm = event_world(w.p, &warm_payload, false, ctx.tracer, setup, bcast);
    report.set_counts(&warm.outcome.traffic);
    report.reconcile_with_closed_form(algorithm, w.nbytes, w.p);
    report.attempted += w.p as u64;
    report.failed += warm.failed;
    ctx.setup_done(&mut report, setup);

    ctx.timed_worlds(|world| {
        let first = world * w.per_world as u64;
        let payloads = payloads(ctx, ctx.root_span, w.nbytes, first, w.per_world);
        let run = event_world(w.p, &payloads, true, ctx.tracer, ctx.root_span, bcast);
        report.add_event_world(w.p, run);
    });
    report.reconcile_timed_with_warmup();
    let spills = report.nums["reactor_mailbox_spills"];
    report.guard(spills == 0.0, || format!("{spills} envelopes spilled a mailbox lane"));
    report
}

// ---------------------------------------------------------------------------
// lossy-ring

/// The sample loop with the broadcast going through
/// `ReliableComm(FaultyComm(EventComm))` under `plan`; the decorators live
/// as long as the rank task, so sequence numbers and per-link drop ordinals
/// carry over from sample to sample like they would in a long-lived job.
fn lossy_world(
    p: usize,
    payloads: &[Vec<u8>],
    timed: bool,
    plan: &FaultPlan,
    tracer: &Tracer,
    parent: Option<usize>,
) -> WorldRun {
    sample_world(p, payloads, timed, tracer, parent, async |lp, comm| {
        let faulty = FaultyComm::new(comm, plan.clone());
        let reliable = ReliableComm::with_config(&faulty, inputs::LOSSY_RETRY);
        lp.rank_task(comm, &reliable, async |c, buf: &mut [u8]| bcast_opt_async(c, buf, 0).await)
            .await
    })
}

fn lossy_ring(w: &Workload, ctx: &Ctx<'_>) -> Report {
    let mut report = Report::default();
    let setup = ctx.tracer.open("setup", ctx.root_span);
    let warm_payload = payloads(ctx, setup, w.nbytes, WARMUP_SAMPLE, 1);
    let canonical = inputs::lossy_plan(CANONICAL_FAULT_SEED, inputs::LOSSY_LINKS);
    let warm = lossy_world(w.p, &warm_payload, false, &canonical, ctx.tracer, setup);
    report.set_counts(&warm.outcome.traffic);
    report.attempted += w.p as u64;
    report.failed += warm.failed;
    if ctx.tracer.enabled() {
        // The drop-free twin of the warm-up: same stack, same payload, no
        // drops — what `reliable.retransmit_frac` is a fraction of.
        let clean = inputs::lossy_plan(CANONICAL_FAULT_SEED, LinkFaults::NONE);
        let twin = lossy_world(w.p, &warm_payload, false, &clean, ctx.tracer, setup);
        report.set("drop_free_envelopes_per_bcast", twin.outcome.traffic.total_envelopes() as f64);
        report.failed += twin.failed;
        report.attempted += w.p as u64;
    }
    // Acks and retransmits only ever add to what the bare algorithm sends.
    let floor = bcast_volume(Algorithm::ScatterRingTuned, w.nbytes, w.p);
    let (msgs, bytes) = (report.nums["msgs_per_bcast"], report.nums["wire_bytes_per_bcast"]);
    report.guard(msgs >= floor.msgs as f64 && bytes >= floor.bytes as f64, || {
        format!("lossy warm-up moved {msgs} msgs / {bytes} B, below the loss-free closed form")
    });
    ctx.setup_done(&mut report, setup);

    ctx.timed_worlds(|world| {
        let first = world * w.per_world as u64;
        let payloads = payloads(ctx, ctx.root_span, w.nbytes, first, w.per_world);
        let plan = inputs::lossy_plan(inputs::mix(ctx.seed, world), inputs::LOSSY_LINKS);
        let run = lossy_world(w.p, &payloads, true, &plan, ctx.tracer, ctx.root_span);
        report.add_event_world(w.p, run);
    });
    let (timed, bcasts) = (report.nums["timed_envelopes"], report.nums["timed_bcasts"]);
    report.guard(timed >= floor.msgs as f64 * bcasts, || {
        format!("{timed} envelopes over {bcasts} lossy broadcasts is below the loss-free floor")
    });
    report
}

// ---------------------------------------------------------------------------
// heal-clean, heal-crash

/// One self-healing launch: a fresh world, one broadcast, every rank's
/// [`RankRun`] handed back. With a plan the stack is `FaultyComm` over the
/// bare `EventComm`; without one the recovery loop sits on `EventComm`
/// directly.
fn heal_launch(
    p: usize,
    src: &[u8],
    plan: Option<&FaultPlan>,
    cfg: &bcast_core::RecoveryConfig,
) -> WorldOutcome<RankRun> {
    let algorithm = Algorithm::ScatterRingTuned;
    EventWorld::run(p, |comm| async move {
        match plan {
            Some(plan) => {
                let faulty = FaultyComm::new(&comm, plan.clone());
                self_healing_rank_task(&faulty, src, 0, algorithm, cfg, &RecoveryDrill::NONE).await
            }
            None => {
                self_healing_rank_task(&comm, src, 0, algorithm, cfg, &RecoveryDrill::NONE).await
            }
        }
    })
}

/// Deepest epoch count among the ranks that healed.
fn cascade_depth(results: &[RankRun]) -> u32 {
    results.iter().filter_map(|r| r.result.as_ref().ok().map(|h| h.epochs)).max().unwrap_or(0)
}

fn heal(w: &Workload, ctx: &Ctx<'_>, casualties: usize, max_epochs: u32) -> Report {
    let cfg = inputs::heal_cfg(max_epochs);
    let mut report = Report::default();
    // Every launch is judged by the invariant oracle; a rejection fails the
    // whole launch, a planned victim naming itself fails nothing.
    let launch = |report: &mut Report, fault_seed: u64, sample: u64, parent: Option<usize>| {
        let src = ctx
            .tracer
            .scope("payload_gen", parent, |_| inputs::payload(w.nbytes, ctx.seed, sample));
        let victims = inputs::victims(fault_seed, w.p, 0, casualties);
        let plan = (casualties > 0).then(|| inputs::crash_plan(fault_seed, w.p, &victims));
        let span = ctx.tracer.open("launch", parent);
        let t0 = Instant::now();
        let out = heal_launch(w.p, &src, plan.as_ref(), &cfg);
        let t_done = Instant::now();
        let spec =
            RecoverySpec { src: &src, root: 0, cfg, planned_victims: &victims, lossy_links: false };
        let verdict = check_recovery_outcome(&spec, &out.results, &out.traffic, out.elapsed);
        let wall = t0.elapsed();
        if let Some(span) = span {
            ctx.tracer.record("bcast", Some(span), t0, t_done);
            ctx.tracer.record("verify", Some(span), t_done, Instant::now());
        }
        ctx.tracer.close(span);

        report.attempted += w.p as u64;
        match verdict {
            Ok(()) => {}
            Err(why) => {
                report.failed += w.p as u64;
                report
                    .guards
                    .push(format!("check_recovery_outcome rejected sample {sample}: {why}"));
            }
        }
        let depth = cascade_depth(&out.results);
        let floor = if casualties == 0 { 1 } else { 2 };
        report.guard(depth >= floor && (casualties > 0 || depth == 1), || {
            format!("sample {sample}: cascade depth {depth} with {casualties} casualties (victims {victims:?})")
        });
        (out, wall, depth)
    };

    let setup = ctx.tracer.open("setup", ctx.root_span);
    let (warm, _, _) = launch(&mut report, CANONICAL_FAULT_SEED, WARMUP_SAMPLE, setup);
    report.set_counts(&warm.traffic);
    drop(warm);
    ctx.setup_done(&mut report, setup);

    ctx.timed_worlds(|world| {
        let (out, wall, depth) =
            launch(&mut report, inputs::mix(ctx.seed, world), world, ctx.root_span);
        report.add_world(1, &out.traffic, &out.pool);
        report.add_reactor(&out.reactor);
        report.push("bcast_wall_us", wall.as_secs_f64() * 1e6);
        report.push("epochs", f64::from(depth));
        report.push("heal_ms_per_epoch", wall.as_secs_f64() * 1e3 / f64::from(depth.max(1)));
    });
    if casualties == 0 {
        report.reconcile_timed_with_warmup();
    }
    report
}

// ---------------------------------------------------------------------------
// paper-sim

fn paper_sim(w: &Workload, ctx: &Ctx<'_>) -> Report {
    let preset = presets::hornet();
    let (np, nbytes, iterations) = (w.p, w.nbytes, w.per_world);
    let mut report = Report::default();

    let setup = ctx.tracer.open("setup", ctx.root_span);
    let src = ctx
        .tracer
        .scope("payload_gen", setup, |_| inputs::payload(nbytes, ctx.seed, WARMUP_SAMPLE));
    let warm = ctx.tracer.scope("warmup", setup, |_| {
        SimWorld::run(preset.model_for(nbytes, np), preset.placement(), np, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            let outcome = bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned);
            u64::from(outcome.is_err() || buf != src)
        })
    });
    report.set_counts(&warm.traffic);
    report.reconcile_with_closed_form(Algorithm::ScatterRingTuned, nbytes, np);
    report.attempted += np as u64;
    report.failed += warm.results.iter().sum::<u64>();
    report.guard(warm.pool.outstanding == 0, || "SimWorld pool buffers never returned".into());
    let busy = warm
        .breakdown
        .iter()
        .fold((0.0, 0.0), |(c, t), b| (c + b.comm_ns, t + b.comm_ns + b.compute_ns));
    report.set("sim_comm_fraction", if busy.1 > 0.0 { busy.0 / busy.1 } else { 0.0 });
    ctx.setup_done(&mut report, setup);

    // `measure_sim` verifies every rank's buffer itself and panics on a
    // corrupted one, which fails this process and so the run.
    let volumes = [Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned]
        .map(|a| bcast_volume(a, nbytes, np).msgs as f64);
    ctx.timed_worlds(|repeat| {
        let span = ctx.tracer.open(format!("sample[{repeat}]"), ctx.root_span);
        let native = ctx.tracer.scope("native", span, |_| {
            measure_sim(&preset, Algorithm::ScatterRingNative, np, nbytes, iterations)
        });
        let t0 = Instant::now();
        let tuned = ctx.tracer.scope("bcast", span, |_| {
            measure_sim(&preset, Algorithm::ScatterRingTuned, np, nbytes, iterations)
        });
        let host = t0.elapsed();
        ctx.tracer.close(span);
        report.attempted += (2 * np * iterations) as u64;
        report.add("timed_worlds", 1.0);
        report.add("timed_bcasts", iterations as f64);
        report.guard(native.msgs_per_bcast == volumes[0] && tuned.msgs_per_bcast == volumes[1], || {
            format!(
                "repeat {repeat}: simulated {} native / {} tuned msgs per broadcast, closed forms say {volumes:?}",
                native.msgs_per_bcast, tuned.msgs_per_bcast
            )
        });
        report.push("bcast_wall_us", tuned.mean_ns / 1e3);
        report.push("sim_native_us", native.mean_ns / 1e3);
        report.push("sim_bw_mib_s", tuned.bandwidth_mbps);
        report.push("sim_gain_pct", (tuned.bandwidth_mbps / native.bandwidth_mbps - 1.0) * 100.0);
        report.push("sim_host_ms_per_bcast", host.as_secs_f64() * 1e3 / iterations as f64);
    });
    report
}

// ---------------------------------------------------------------------------
// thread-pair

/// Stamp broadcast `i` into both halves of the buffer, so each of the two
/// chunks the tuned ring moves carries proof of which broadcast it is from
/// without refilling 64 KiB inside the timed loop.
fn stamp(buf: &mut [u8], i: u64) {
    let n = buf.len();
    buf[..8].copy_from_slice(&i.to_le_bytes());
    buf[n - 8..].copy_from_slice(&i.to_le_bytes());
}

fn stamped(buf: &[u8], i: u64) -> bool {
    buf[..8] == i.to_le_bytes() && buf[buf.len() - 8..] == i.to_le_bytes()
}

/// What one two-rank ThreadWorld produced.
struct PairRun {
    /// Rank 0's barrier-to-barrier time over all the world's broadcasts.
    elapsed: Duration,
    failed: u64,
    traffic: WorldTraffic,
    pool: PoolStats,
}

/// One ThreadWorld of `iterations` blocking tuned broadcasts with the root
/// alternating 0/1.
fn pair_world(payload: &[u8], iterations: u64, timed: bool) -> PairRun {
    let out = ThreadWorld::run(2, |comm| {
        let me = comm.rank();
        let mut buf = if me == 0 { payload.to_vec() } else { vec![0u8; payload.len()] };
        let mut failed = 0u64;
        if timed {
            comm.barrier().expect("opening barrier");
        }
        let t0 = Instant::now();
        for i in 0..iterations {
            let root = (i % 2) as Rank;
            if me == root {
                stamp(&mut buf, i);
            }
            let outcome = bcast_with(comm, &mut buf, root, Algorithm::ScatterRingTuned);
            failed += u64::from(outcome.is_err() || !stamped(&buf, i));
        }
        if timed {
            comm.barrier().expect("closing barrier");
        }
        let elapsed = t0.elapsed();
        let mut expected = payload.to_vec();
        stamp(&mut expected, iterations - 1);
        // A diverged buffer at the end poisons every broadcast of the world.
        if buf != expected {
            failed = iterations;
        }
        (elapsed, failed)
    });
    PairRun {
        elapsed: out.results[0].0,
        failed: out.results.iter().map(|r| r.1).sum(),
        traffic: out.traffic,
        pool: out.pool,
    }
}

fn thread_pair(w: &Workload, ctx: &Ctx<'_>) -> Report {
    let mut report = Report::default();
    let iterations = w.per_world as u64;

    let setup = ctx.tracer.open("setup", ctx.root_span);
    let payload = ctx
        .tracer
        .scope("payload_gen", setup, |_| inputs::payload(w.nbytes, ctx.seed, WARMUP_SAMPLE));
    let warm = ctx.tracer.scope("warmup", setup, |_| pair_world(&payload, 1, false));
    report.set_counts(&warm.traffic);
    report.reconcile_with_closed_form(Algorithm::ScatterRingTuned, w.nbytes, w.p);
    report.attempted += 2;
    report.failed += warm.failed;
    // One full-length untimed world, so the first timed one does not pay
    // the page faults and pool misses of a cold process.
    let steady =
        ctx.tracer.scope("warmup_steady", setup, |_| pair_world(&payload, iterations, true));
    report.attempted += 2 * iterations;
    report.failed += steady.failed;
    ctx.setup_done(&mut report, setup);

    ctx.timed_worlds(|world| {
        let payload = ctx
            .tracer
            .scope("payload_gen", ctx.root_span, |_| inputs::payload(w.nbytes, ctx.seed, world));
        let span = ctx.tracer.open(format!("sample[{world}]"), ctx.root_span);
        let run = pair_world(&payload, iterations, true);
        ctx.tracer.close(span);
        report.attempted += 2 * iterations;
        report.failed += run.failed;
        report.add_world(w.per_world, &run.traffic, &run.pool);
        report.push("bcast_wall_us", run.elapsed.as_secs_f64() * 1e6 / iterations as f64);
    });
    report.reconcile_timed_with_warmup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_ctx(tracer: &Tracer, seed: u64) -> Ctx<'_> {
        Ctx { seed, budget: Duration::ZERO, tracer, root_span: None, started: Instant::now() }
    }

    /// The paper's table entry, through the harness: 44 ring + 7 scatter
    /// messages at P = 8, reconciled against the closed form.
    #[test]
    fn warm_up_counts_are_the_papers_51_messages_at_p8() {
        let tracer = Tracer::new(false);
        let ctx = quiet_ctx(&tracer, 1);
        let w = Workload {
            name: spec::RING_MSGS,
            why: "",
            p: 8,
            nbytes: 4096,
            per_world: 3,
            children: 1,
        };
        let report = plain_ring(&w, &ctx);
        assert_eq!(report.nums["msgs_per_bcast"], 51.0);
        assert_eq!(report.nums["timed_msgs"], 3.0 * 51.0);
        assert_eq!(report.series["bcast_wall_us"].len(), 3);
        assert_eq!((report.attempted, report.failed), (8 + 8 * 3, 0));
        assert!(report.guards.is_empty(), "{:?}", report.guards);
    }

    #[test]
    fn closed_form_guard_trips_on_a_wrong_count() {
        let mut report = Report::default();
        report.set("msgs_per_bcast", 56.0);
        report.set("wire_bytes_per_bcast", 0.0);
        report.reconcile_with_closed_form(Algorithm::ScatterRingTuned, 4096, 8);
        assert_eq!(report.guards.len(), 1);
        assert!(report.guards[0].contains("51 msgs"), "{:?}", report.guards);
    }

    #[test]
    fn a_corrupting_broadcast_is_counted_as_failed() {
        let tracer = Tracer::new(false);
        let payloads = vec![inputs::payload(512, 3, 0), inputs::payload(512, 3, 1)];
        let run = event_world(
            4,
            &payloads,
            true,
            &tracer,
            None,
            async |c: &EventComm, buf: &mut [u8]| {
                bcast_with_async(c, buf, 0, Algorithm::Binomial).await?;
                if c.rank() == 2 {
                    buf[17] ^= 0xFF;
                }
                Ok(())
            },
        );
        assert_eq!(run.failed, 2, "rank 2 diverges on both samples");
        assert_eq!(run.times_us.len(), 2);
    }

    #[test]
    fn same_seed_gives_identical_counts_and_other_seed_other_victims() {
        let w = Workload {
            name: spec::HEAL_CRASH,
            why: "",
            p: 32,
            nbytes: 512,
            per_world: 1,
            children: 1,
        };
        let counts = |seed: u64| {
            let tracer = Tracer::new(false);
            let report = heal(&w, &quiet_ctx(&tracer, seed), 2, 5);
            assert!(report.guards.is_empty(), "{:?}", report.guards);
            assert_eq!(report.failed, 0);
            (report.nums["envelopes_per_bcast"], report.nums["timed_envelopes"])
        };
        let (canonical_a, seeded_a) = counts(11);
        let (canonical_b, seeded_b) = counts(11);
        assert_eq!((canonical_a, seeded_a), (canonical_b, seeded_b), "same seed, same counts");
        let (canonical_c, _) = counts(12);
        assert_eq!(canonical_a, canonical_c, "count metrics come from the canonical plan");
        assert_ne!(
            inputs::victims(inputs::mix(11, 0), 32, 0, 2),
            inputs::victims(inputs::mix(12, 0), 32, 0, 2)
        );
    }

    #[test]
    fn traced_sample_spans_nest_under_their_world() {
        let tracer = Tracer::new(true);
        let payloads = vec![inputs::payload(256, 5, 0)];
        let bcast = async |c: &EventComm, buf: &mut [u8]| {
            bcast_with_async(c, buf, 0, Algorithm::Binomial).await
        };
        event_world(4, &payloads, true, &tracer, None, bcast);
        let spans = tracer.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["world", "world_build", "sample[0]", "barrier_in", "bcast", "barrier_out", "verify"]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[3..].iter().all(|s| s.parent == Some(2)));
        assert!(spans[0].end_ns >= spans[6].end_ns);
    }

    #[test]
    fn thread_pair_stamps_catch_a_stale_buffer() {
        let mut buf = vec![0u8; 64];
        stamp(&mut buf, 7);
        assert!(stamped(&buf, 7));
        assert!(!stamped(&buf, 8));
        buf[60] ^= 1;
        assert!(!stamped(&buf, 7));
    }
}
