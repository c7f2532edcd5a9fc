//! Per-layer micro-timings, each taken from outside the library by timing
//! calls into one module's `pub` items.
//!
//! A micro-timing is at least 100 samples of a batched loop, reported as
//! the median time per operation, interleaved with half as many samples at
//! twice the batch: `black_box` is a hint, so a loop the compiler deleted
//! or a probe dominated by a fixed cost shows as a doubled batch that does
//! not take 1.8–2.2× the time, and is flagged rather than trusted.
//! Collective timings reuse the workloads' sample loop at a fixed shape.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bcast_bench::compare_sim;
use bcast_bench::predict::predict_makespan_ns;
use bcast_core::{
    bcast_binomial_async, bcast_binomial_copy_async, bcast_opt_coalesced_async, bcast_with,
    bcast_with_async, binomial_scatter_shared_async, degraded_bcast_schedule, membership_digest,
    step_flag, Algorithm, CoalescePolicy, EpochComm, GuardedComm,
};
use mpsim::mailbox::{Envelope, Mailbox};
use mpsim::{
    complete_now, AsyncCommunicator, BufferPool, Communicator, EventComm, EventWorld, LaneMailbox,
    Payload, Rank, ReliableComm, SharedBuf, SubComm, SyncComm, Tag, ThreadWorld, TimerWheel,
};
use netsim::{presets, FaultPlan, FaultyComm, SimWorld, Timeline};

use crate::inputs;
use crate::spec;
use crate::stats::{median, quartiles};
use crate::trace::Tracer;
use crate::workloads::event_world;

/// One layer number with what backs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub name: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
    /// `Some(false)`: twice the batch did not take about twice the time.
    pub linear: Option<bool>,
}

impl Timing {
    /// The same timing under another name and unit: `f` converts the median
    /// and both quartiles (which swap when the conversion inverts).
    fn map(self, name: &'static str, f: impl Fn(f64) -> f64) -> Timing {
        let (a, b) = (f(self.q1), f(self.q3));
        Timing { name, value: f(self.value), q1: a.min(b), q3: a.max(b), ..self }
    }
}

const SAMPLES: usize = 100;

/// The batch sizes of one micro-timing: [`SAMPLES`] at `batch` with half
/// as many at `2·batch` interleaved among them, so a slow minute on a
/// shared host falls on both sides of the linearity check alike.
fn batches(batch: usize) -> Vec<usize> {
    (0..SAMPLES).flat_map(|i| [batch, 2 * batch].into_iter().take(1 + i % 2)).collect()
}

/// Whether doubling the batch about doubled the time (1.8–2.2×).
pub fn is_linear(base_total: f64, doubled_total: f64) -> bool {
    let ratio = doubled_total / base_total;
    (1.8..=2.2).contains(&ratio)
}

/// Fold the per-sample elapsed times of a [`batches`] plan into a timing:
/// median nanoseconds per operation over the base samples, `ops` operations
/// per loop iteration.
fn fold(name: &'static str, plan: &[usize], elapsed_ns: &[f64], ops: f64) -> Timing {
    assert_eq!(plan.len(), elapsed_ns.len(), "{name}: one elapsed time per planned batch");
    let base_batch = plan[0];
    let (mut base, mut doubled) = (Vec::new(), Vec::new());
    for (&batch, &ns) in plan.iter().zip(elapsed_ns) {
        if batch == base_batch { &mut base } else { &mut doubled }.push(ns);
    }
    let per_op: Vec<f64> = base.iter().map(|ns| ns / (base_batch as f64 * ops)).collect();
    let (q1, q3) = quartiles(&per_op);
    let linear = (!doubled.is_empty()).then(|| is_linear(median(&base), median(&doubled)));
    Timing { name, value: median(&per_op), q1, q3, samples: per_op.len(), linear }
}

/// Time `op` in place: the plain micro-timing.
fn micro(name: &'static str, batch: usize, mut op: impl FnMut()) -> Timing {
    let plan = batches(batch);
    let elapsed: Vec<f64> = plan
        .iter()
        .map(|&n| {
            let t0 = Instant::now();
            for _ in 0..n {
                op();
            }
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    fold(name, &plan, &elapsed, 1.0)
}

/// A timing that is a handful of whole-collective samples, in microseconds.
fn from_samples_us(name: &'static str, samples_us: &[f64]) -> Timing {
    let (q1, q3) = quartiles(samples_us);
    Timing { name, value: median(samples_us), q1, q3, samples: samples_us.len(), linear: None }
}

fn scalar(name: &'static str, value: f64) -> Timing {
    Timing { name, value, q1: value, q3: value, samples: 1, linear: None }
}

// ---------------------------------------------------------------------------
// Ping-pongs: the per-message cost of a communicator stack.

const PING_BYTES: usize = 64;
const PING_TAG: Tag = Tag(3);

/// Rank 0 times each planned batch of round trips; rank 1 mirrors them.
/// Returns the elapsed nanoseconds per batch on rank 0, nothing on rank 1.
async fn pingpong<C: AsyncCommunicator + ?Sized>(c: &C, plan: &[usize], nbytes: usize) -> Vec<f64> {
    let (me, peer) = (c.rank(), 1 - c.rank());
    let out = vec![0xA5u8; nbytes];
    let mut inb = vec![0u8; nbytes];
    let mut elapsed = Vec::new();
    for &batch in plan {
        let t0 = Instant::now();
        for _ in 0..batch {
            if me == 0 {
                c.send(&out, peer, PING_TAG).await.expect("ping");
                c.recv(&mut inb, peer, PING_TAG).await.expect("pong");
            } else {
                c.recv(&mut inb, peer, PING_TAG).await.expect("ping");
                c.send(&out, peer, PING_TAG).await.expect("pong");
            }
        }
        if me == 0 {
            elapsed.push(t0.elapsed().as_nanos() as f64);
        }
    }
    black_box(inb);
    elapsed
}

/// A two-rank EventWorld ping-pong through whatever `wrap` builds on top of
/// each rank's `EventComm`; nanoseconds per message (two per round trip).
fn event_pingpong<W>(name: &'static str, wrap: W) -> Timing
where
    W: AsyncFn(&EventComm, &[usize]) -> Vec<f64>,
{
    let plan = batches(500);
    let (plan_ref, wrap) = (&plan[..], &wrap);
    let out = EventWorld::run(2, |comm| async move { wrap(&comm, plan_ref).await });
    fold(name, &plan, &out.results[0], 2.0)
}

fn blocking_pingpong(name: &'static str, ranks: usize, nbytes: usize, batch: usize) -> Timing {
    let plan = batches(batch);
    let out = ThreadWorld::run(ranks, |comm| {
        // One rank: send to self then receive, the software path alone.
        let (me, peer) = (comm.rank(), (comm.rank() + 1) % ranks);
        let msg = vec![0x5Au8; nbytes];
        let mut inb = vec![0u8; nbytes];
        let mut elapsed = Vec::new();
        for &n in &plan {
            let t0 = Instant::now();
            for _ in 0..n {
                if me == 0 {
                    comm.send(&msg, peer, PING_TAG).expect("ping");
                    comm.recv(&mut inb, peer, PING_TAG).expect("pong");
                } else {
                    comm.recv(&mut inb, peer, PING_TAG).expect("ping");
                    comm.send(&msg, peer, PING_TAG).expect("pong");
                }
            }
            elapsed.push(t0.elapsed().as_nanos() as f64);
        }
        black_box(inb);
        elapsed
    });
    // A self ping is one message per iteration, a pair's round trip two.
    fold(name, &plan, &out.results[0], ranks as f64)
}

// ---------------------------------------------------------------------------
// The probes, layer by layer.

fn pool(out: &mut Vec<Timing>) {
    let pool = BufferPool::new();
    out.push(micro("pool.rent_return_1k_ns", 10_000, || {
        drop(black_box(pool.rent(black_box(1024))))
    }));
    out.push(micro("pool.rent_return_1m_ns", 32, || {
        drop(black_box(pool.rent(black_box(1 << 20))))
    }));
    let shared = SharedBuf::from(pool.rent(1024));
    out.push(micro("pool.shared_clone_ns", 10_000, || drop(black_box(shared.clone()))));
    let src = inputs::payload(1 << 20, 0, 0);
    let copy = micro("pool.copy_ns", 8, || drop(black_box(pool.rent_copy(black_box(&src)))));
    // ns per MiB → GiB/s.
    out.push(copy.map("pool.copy_gib_s", |ns| (1.0 / 1024.0) / (ns * 1e-9)));
}

fn event_mailbox(out: &mut Vec<Timing>) {
    let pool = BufferPool::new();
    let envelope = || Envelope { src: 7, data: Payload::from(pool.rent(2)) };
    let mut mailbox = LaneMailbox::new(1024);
    let mut slot = Some(envelope());
    out.push(micro("event_mailbox.push_pop_ns", 10_000, || {
        mailbox.push(7, Tag(1), slot.take().expect("envelope in hand"));
        slot = mailbox.pop(7, Tag(1));
    }));
    // Four tags own the lane's inline buckets; the fifth is a wild tag.
    for tag in 1..=4 {
        mailbox.push(7, Tag(tag), envelope());
    }
    let wild = Tag(0xA100);
    out.push(micro("event_mailbox.spill_push_pop_ns", 10_000, || {
        mailbox.push(7, wild, slot.take().expect("envelope in hand"));
        slot = mailbox.pop(7, wild);
    }));
    assert!(mailbox.spills() > 0, "the wild tag never left the inline buckets");
}

fn event_timer(out: &mut Vec<Timing>) {
    let step = Duration::from_millis(40).as_nanos() as u64;
    let mut wheel = TimerWheel::new();
    let mut now = 0u64;
    out.push(micro("event_timer.arm_cancel_ns", 10_000, || {
        now += 1000;
        let handle = wheel.arm(now, now + step, 3);
        black_box(wheel.cancel(handle));
    }));
    out.push(micro("event_timer.arm_pop_ns", 10_000, || {
        wheel.arm(now, now + step, 3);
        let (deadline, _) = wheel.pop_next(now).expect("the timer just armed");
        now = black_box(deadline);
    }));
}

fn event_comm(out: &mut Vec<Timing>) {
    out.push(event_pingpong("event_comm.p2p_ns", async |c, plan| {
        pingpong(c, plan, PING_BYTES).await
    }));

    const P: usize = 1024;
    let spawn =
        micro("event_comm.spawn_ns", 1, || drop(black_box(EventWorld::run(P, |_| async {}))));
    out.push(spawn.map("event_comm.spawn_ns_per_rank", |ns| ns / P as f64));

    let plan = batches(16);
    let plan_ref = &plan[..];
    let world = EventWorld::run(P, |comm| async move {
        let mut elapsed = Vec::new();
        for &n in plan_ref {
            comm.barrier().await.expect("aligning barrier");
            let t0 = Instant::now();
            for _ in 0..n {
                comm.barrier().await.expect("barrier");
            }
            elapsed.push(t0.elapsed().as_nanos() as f64);
        }
        elapsed
    });
    out.push(fold("event_comm.barrier_ns_per_rank", &plan, &world.results[0], P as f64));
}

fn threads(out: &mut Vec<Timing>) {
    let pool = BufferPool::new();
    let mailbox = Mailbox::new();
    let mut data = Some(Payload::from(pool.rent(2)));
    out.push(micro("mailbox.push_pop_ns", 10_000, || {
        mailbox.push(1, Tag(1), data.take().expect("payload in hand"));
        data = mailbox.try_pop(1, Tag(1)).map(|env| env.data);
    }));
    out.push(blocking_pingpong("thread_comm.self_p2p_ns", 1, PING_BYTES, 1000));
    if crate::host_cores() >= 2 {
        out.push(blocking_pingpong("thread_comm.p2p_64b_ns", 2, PING_BYTES, 100));
        out.push(blocking_pingpong("thread_comm.p2p_64k_ns", 2, 64 << 10, 50));
    }
    let spawn =
        micro("thread_comm.spawn_join_ns", 4, || drop(black_box(ThreadWorld::run(2, |_| ()))));
    out.push(spawn.map("thread_comm.spawn_join_us", |ns| ns / 1e3));

    let plan = batches(1000);
    let bridge = ThreadWorld::run(1, |comm| {
        let sync = SyncComm::new(comm);
        let msg = [0x5Au8; PING_BYTES];
        let mut inb = [0u8; PING_BYTES];
        plan.iter()
            .map(|&n| {
                let t0 = Instant::now();
                for _ in 0..n {
                    complete_now(sync.send(&msg, 0, PING_TAG)).expect("self send");
                    complete_now(sync.recv(&mut inb, 0, PING_TAG)).expect("self recv");
                }
                black_box(inb);
                t0.elapsed().as_nanos() as f64
            })
            .collect::<Vec<f64>>()
    });
    out.push(fold("acomm.sync_bridge_self_p2p_ns", &plan, &bridge.results[0], 1.0));
}

fn decorators(out: &mut Vec<Timing>) {
    let timeout = inputs::heal_cfg(1).step_timeout;
    let pair = || vec![0 as Rank, 1];
    out.push(event_pingpong("sub_comm.p2p_ns", async |c, plan| {
        let sub = SubComm::new_async(c, pair()).expect("both ranks are members");
        pingpong(&sub, plan, PING_BYTES).await
    }));
    out.push(event_pingpong("reliable.p2p_ns", async |c, plan| {
        pingpong(&ReliableComm::with_config(c, inputs::LOSSY_RETRY), plan, PING_BYTES).await
    }));
    out.push(event_pingpong("fault.p2p_ns", async |c, plan| {
        pingpong(&FaultyComm::new(c, FaultPlan::new(1)), plan, PING_BYTES).await
    }));
    out.push(event_pingpong("recovery.epoch_p2p_ns", async |c, plan| {
        pingpong(&EpochComm::isolated(c, 1, membership_digest(&pair())), plan, PING_BYTES).await
    }));
    out.push(event_pingpong("recovery.guarded_p2p_ns", async |c, plan| {
        pingpong(&GuardedComm::new(c, timeout), plan, PING_BYTES).await
    }));
    // The stack one epoch of the recovery loop runs a broadcast through.
    out.push(event_pingpong("recovery.stack_p2p_ns", async |c, plan| {
        let faulty = FaultyComm::new(c, FaultPlan::new(1));
        let sub = SubComm::new_async(&faulty, pair()).expect("both ranks are members");
        let epoch = EpochComm::isolated(&sub, 1, membership_digest(&pair()));
        pingpong(&GuardedComm::new(&epoch, timeout), plan, PING_BYTES).await
    }));
}

/// Median broadcast time over `samples` barrier-to-barrier samples of
/// `bcast` in one EventWorld of shape `(p, nbytes)`, plus the envelopes of
/// one broadcast. Payloads are checked like a workload's unless the probe
/// is a phase that does not deliver the whole buffer.
fn collective<Op>(
    name: &'static str,
    (p, nbytes): (usize, usize),
    samples: usize,
    delivers: bool,
    tracer: &Tracer,
    bcast: Op,
) -> (Timing, u64)
where
    Op: AsyncFn(&EventComm, &mut [u8]) -> mpsim::Result<()>,
{
    let payloads: Vec<Vec<u8>> =
        (0..samples as u64).map(|i| inputs::payload(nbytes, 0x1A7E, i)).collect();
    let run = tracer.scope(&format!("layer.{name}"), None, |span| {
        event_world(p, &payloads, true, tracer, span, bcast)
    });
    assert!(
        !delivers || run.failed == 0,
        "{name}: {} rank-broadcasts delivered a wrong payload",
        run.failed
    );
    let envelopes = run.outcome.traffic.total_envelopes() / samples as u64;
    (from_samples_us(name, &run.times_us), envelopes)
}

fn collectives(out: &mut Vec<Timing>, tracer: &Tracer) {
    let step = micro("ring_tuned.step_flag_ns", 1024, {
        let mut rel = 0;
        move || {
            rel = (rel + 1) % 1024;
            black_box(step_flag(black_box(rel), 1024));
        }
    });
    out.push(step);

    let with = |algorithm| {
        async move |c: &EventComm, buf: &mut [u8]| bcast_with_async(c, buf, 0, algorithm).await
    };
    let shape_of =
        |name| spec::workload(name).map(|w| (w.p, w.nbytes)).expect("workload in the table");
    let arms = [
        (
            spec::RING_MSGS,
            4,
            "ring_tuned.wall_us.msgs",
            "ring.native_wall_us.msgs",
            "ring_tuned.host_speedup_vs_native.msgs",
        ),
        (
            spec::RING_BYTES,
            8,
            "ring_tuned.wall_us.bytes",
            "ring.native_wall_us.bytes",
            "ring_tuned.host_speedup_vs_native.bytes",
        ),
    ];
    for (workload, samples, tuned_name, native_name, speedup_name) in arms {
        let shape = shape_of(workload);
        let (tuned, envelopes) =
            collective(tuned_name, shape, samples, true, tracer, with(Algorithm::ScatterRingTuned));
        let (native, _) = collective(
            native_name,
            shape,
            samples,
            true,
            tracer,
            with(Algorithm::ScatterRingNative),
        );
        out.push(scalar(speedup_name, native.value / tuned.value));
        if workload == spec::RING_MSGS {
            out.push(scalar("ring_tuned.ns_per_msg", tuned.value * 1e3 / envelopes as f64));
        }
        out.extend([tuned, native]);
    }

    let scatter = collective(
        "scatter.wall_us",
        shape_of(spec::RING_BYTES),
        8,
        false,
        tracer,
        async |c, buf| {
            if c.rank() == 0 {
                let staged = c.make_shared(buf);
                binomial_scatter_shared_async(c, &staged, 0).await.map(drop)
            } else {
                bcast_core::scatter::binomial_scatter_async(c, buf, 0).await.map(drop)
            }
        },
    );
    out.push(scatter.0);

    let tree = (256, 1 << 20);
    let (zero_copy, _) = collective("binomial.wall_us", tree, 3, true, tracer, async |c, buf| {
        bcast_binomial_async(c, buf, 0).await
    });
    let (copying, _) =
        collective("binomial.copy_wall_us", tree, 3, true, tracer, async |c, buf| {
            bcast_binomial_copy_async(c, buf, 0).await
        });
    out.push(scalar("binomial.zero_copy_speedup", copying.value / zero_copy.value));
    out.extend([zero_copy, copying]);

    out.push(
        collective(
            "rd_allgather.wall_us",
            (256, 64 << 10),
            6,
            true,
            tracer,
            with(Algorithm::ScatterRdAllgather),
        )
        .0,
    );

    let policy = CoalescePolicy::new(4096, usize::MAX);
    let (coalesced, envelopes) = collective(
        "coalesce.wall_us",
        shape_of(spec::RING_BYTES),
        4,
        true,
        tracer,
        async |c, buf| bcast_opt_coalesced_async(c, buf, 0, &policy).await,
    );
    out.push(coalesced);
    out.push(scalar("coalesce.envelopes", envelopes as f64));

    let survivors: Vec<Rank> = (0..1024).filter(|r| ![100, 400, 700, 1000].contains(r)).collect();
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(degraded_bcast_schedule(
                Algorithm::ScatterRingTuned,
                1024,
                2048,
                black_box(&survivors),
                0,
            ));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(from_samples_us("schedule.degraded_build_us", &builds));
}

fn simulator(out: &mut Vec<Timing>) {
    let lmsg = compare_sim(&presets::hornet(), 16, 1 << 20, 4);
    out.push(scalar("sim_comm.gain_pct.np16x1m", lmsg.improvement_pct()));

    let mut timeline = Timeline::new();
    let mut ready = 0.0;
    out.push(micro("resources.timeline_claim_ns", 10_000, || {
        ready = black_box(timeline.claim(ready, 10.0)) + 10.0;
    }));

    // Rendezvous, contention-free, zero overheads: the regime in which the
    // predictor is exact and must agree with the simulator.
    let ideal = presets::ideal(24);
    let (np, nbytes) = (48, 1 << 16);
    let mut model = ideal.model_for(nbytes, np);
    model.eager_threshold = 0;
    let predicted =
        predict_makespan_ns(Algorithm::ScatterRingTuned, nbytes, np, &model, ideal.placement());
    let src = inputs::payload(nbytes, 0, 0);
    let simulated = SimWorld::run(model, ideal.placement(), np, |comm| {
        let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
        bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).expect("simulated broadcast");
        assert!(buf == src, "simulated broadcast delivered a wrong payload");
    })
    .makespan_ns;
    out.push(scalar("predict.vs_sim_rel_err", ((predicted - simulated) / simulated).abs()));

    // The evaluator is quadratic in P: 4096 ranks take ~14 s on a 2-core
    // host, more than a whole run may; 512 is the same code in 0.2 s.
    let mut big = ideal.model_for(1 << 20, 512);
    big.eager_threshold = 0;
    let t0 = Instant::now();
    black_box(predict_makespan_ns(
        Algorithm::ScatterRingTuned,
        1 << 20,
        512,
        &big,
        ideal.placement(),
    ));
    out.push(scalar("predict.makespan_eval_us", t0.elapsed().as_secs_f64() * 1e6));
}

/// Run every probe, each under a `layer.<metric>` span.
pub fn run_all(tracer: &Tracer) -> Vec<Timing> {
    let mut out = Vec::new();
    let mut group = |name: &str, probe: &mut dyn FnMut(&mut Vec<Timing>)| {
        tracer.scope(&format!("layer.{name}"), None, |_| probe(&mut out));
    };
    group("pool", &mut pool);
    group("event_mailbox", &mut event_mailbox);
    group("event_timer", &mut event_timer);
    group("event_comm", &mut event_comm);
    group("threads", &mut threads);
    group("decorators", &mut decorators);
    group("collectives", &mut |out| collectives(out, tracer));
    group("simulator", &mut simulator);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearity_window_is_1_8_to_2_2() {
        assert!(is_linear(100.0, 200.0));
        assert!(is_linear(100.0, 181.0));
        assert!(is_linear(100.0, 219.0));
        assert!(!is_linear(100.0, 100.0), "a deleted loop costs the same at any batch");
        assert!(!is_linear(100.0, 150.0), "a fixed cost hides the per-op cost");
        assert!(!is_linear(100.0, 260.0));
    }

    #[test]
    fn fold_reports_per_op_medians_and_flags_nonlinear_plans() {
        let plan = [10, 10, 10, 20, 20];
        let linear = fold("x", &plan, &[1000.0, 1100.0, 900.0, 2000.0, 2100.0], 2.0);
        assert_eq!((linear.value, linear.samples, linear.linear), (50.0, 3, Some(true)));
        let flat = fold("x", &plan, &[1000.0, 1100.0, 900.0, 1000.0, 1050.0], 1.0);
        assert_eq!((flat.value, flat.linear), (100.0, Some(false)));
    }

    #[test]
    fn a_real_probe_grows_linearly_with_its_batch() {
        let mut acc = 0u64;
        let t = micro("spin", 20_000, || acc = black_box(acc.wrapping_mul(31).wrapping_add(7)));
        assert_eq!(t.samples, SAMPLES);
        assert_eq!(t.linear, Some(true), "{t:?}");
        assert!(t.value > 0.0 && t.q1 <= t.value && t.value <= t.q3);
    }

    #[test]
    fn pingpong_counts_two_messages_per_round_trip() {
        let t = event_pingpong("probe", async |c, plan| pingpong(c, plan, 8).await);
        assert_eq!(t.samples, SAMPLES);
        assert!(t.value > 0.0);
    }
}
