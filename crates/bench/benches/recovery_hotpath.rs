//! `recovery_hotpath` — time-to-recover of the self-healing broadcast as a
//! function of casualty count, on the discrete-event executor.
//!
//! Each measured world is one complete self-healing launch under a seeded
//! crash plan: the initial attempt, every agreement, the root-succession
//! bookkeeping, and the degraded-schedule re-derivation for every epoch the
//! cascade forces. Crash timestamps are staggered so each
//! additional casualty lands *after* the previous epoch started — the
//! cascade depth (and so the number of re-derived schedules) grows with the
//! casualty count, which is exactly the axis the bench sweeps:
//!
//! * `p8/c{0,1,3}` — the paper's world size; c3 kills three of eight ranks
//!   in three separate epochs;
//! * `p1024/c{0,1,4}` — the megascale leg; past the full-world first
//!   attempt, each failed epoch costs two `⌈log₂P⌉`-round quorums, the
//!   leader's proposal and a rerun over the ranks still missing the payload,
//!   not the payload copies.
//!
//! Everything runs on EventWorld's virtual clock, so the wall-clock medians
//! measure the *machinery* (reactor scheduling, agreement traffic, schedule
//! recomputation), not the simulated timeouts — a step timeout is a virtual
//! event, advanced for free. Before timing, every configuration is run once
//! through [`check_recovery_outcome`] and its cascade depth is asserted, so
//! a plan drift that silently stops cascading fails the bench instead of
//! quietly measuring the wrong thing.

use std::hint::black_box;
use std::time::Duration;

use bcast_core::{
    check_recovery_outcome, self_healing_rank_task, Algorithm, RankRun, RecoveryConfig,
    RecoveryDrill, RecoverySpec,
};
use mpsim::{EventWorld, WorldOutcome};
use netsim::{FaultPlan, FaultyComm};
use testkit::bench::Harness;

/// Payload per launch — small enough that agreement and re-derivation
/// dominate over payload copies, which is the hot path under test.
const NBYTES: usize = 2048;

/// Fault-plan seed; the plan is pure crashes, so the seed only feeds the
/// (unused) link-fault lanes, but it keeps replay exact.
const PLAN_SEED: u64 = 0x5EED_C0DE;

fn payload() -> Vec<u8> {
    (0..NBYTES).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect()
}

/// `k` victims, none of them the root, each dying later than the previous
/// one so the crashes land in distinct epochs and force a cascade of depth
/// ≈ `k`.
fn crash_plan(p: usize, k: usize) -> (FaultPlan, Vec<usize>) {
    let mut plan = FaultPlan::new(PLAN_SEED);
    // A survivor that holds the payload sits out the next rerun and ticks
    // only on agreement ops, so every victim must be a runner of the rerun
    // it dies in: ring neighbours `v, v + 1, …` with `v = P − P/6 − k`. The
    // first dies at op 4, inside epoch 0's ring, and stalls the ≈ P/6 ranks
    // downstream of it, so the rerun is a ring of ≈ P/6 ranks plus the
    // root (≈ P/3 ops for a rank in it). Each later victim stalls right
    // behind the previous one and then reruns right behind the root; a
    // failed epoch costs it about `6·⌈log₂P⌉` agreement ops on top of its
    // share of the rerun, so spacing the crashes `P/12 + 6·⌈log₂P⌉` ops
    // apart lands each a fraction into the next rerun at both world sizes
    // (measured depths are asserted in `verify`, so drift cannot pass
    // silently).
    let stagger = p as u64 / 12 + 6 * u64::from(mpsim::ceil_log2(p));
    let victims: Vec<usize> = (0..k).map(|i| p - p / 6 - k + i).collect();
    for (i, &victim) in victims.iter().enumerate() {
        plan = plan.with_crash(victim, 4 + i as u64 * stagger);
    }
    (plan, victims)
}

fn cfg(k: usize) -> RecoveryConfig {
    RecoveryConfig {
        // Virtual-clock deadline: expiring it costs one timer event, not
        // real milliseconds, so it can stay comfortably conservative.
        step_timeout: Duration::from_millis(40),
        // Liveness headroom: with a never-crashing root, 2k+1 epochs always
        // suffice (each casualty can spoil at most two attempts).
        max_epochs: (2 * k + 1) as u32,
        bounded_sendrecv: false,
    }
}

fn healing_world(p: usize, k: usize) -> WorldOutcome<RankRun> {
    let (plan, _) = crash_plan(p, k);
    let cfg = cfg(k);
    let src = payload();
    EventWorld::run(p, move |comm| {
        let plan = plan.clone();
        let src = src.clone();
        async move {
            let faulty = FaultyComm::new(&comm, plan);
            self_healing_rank_task(
                &faulty,
                &src,
                0,
                Algorithm::ScatterRingTuned,
                &cfg,
                &RecoveryDrill::NONE,
            )
            .await
        }
    })
}

/// Pre-flight one configuration: full invariant check plus a cascade-depth
/// floor, returning the deepest epoch count for the summary line.
fn verify(p: usize, k: usize) -> u32 {
    let out = healing_world(p, k);
    let (_, victims) = crash_plan(p, k);
    let src = payload();
    let spec = RecoverySpec {
        src: &src,
        root: 0,
        cfg: cfg(k),
        planned_victims: &victims,
        lossy_links: false,
    };
    if let Err(why) = check_recovery_outcome(&spec, &out.results, &out.traffic, out.elapsed) {
        panic!("recovery_hotpath p{p}/c{k}: invariants violated before timing: {why}");
    }
    let deepest =
        out.results.iter().filter_map(|r| r.result.as_ref().ok().map(|h| h.epochs)).max().unwrap();
    let floor = if k == 0 { 1 } else { (k as u32).max(2) };
    assert!(
        deepest >= floor,
        "recovery_hotpath p{p}/c{k}: cascade collapsed to {deepest} epoch(s) (floor {floor}) — \
         the crash plan no longer staggers across epochs"
    );
    deepest
}

fn bench_recovery_hotpath(h: &mut Harness) {
    let mut group = h.group("recovery_hotpath");
    let mut depths = Vec::new();
    for &(p, casualties, samples) in &[
        (8usize, 0usize, 15usize),
        (8, 1, 15),
        (8, 3, 10),
        (1024, 0, 5),
        (1024, 1, 3),
        (1024, 4, 3),
    ] {
        depths.push((p, casualties, verify(p, casualties)));
        group.sample_size(samples);
        group.bench(&format!("p{p}/c{casualties}"), |b| {
            b.iter(|| {
                let out = healing_world(black_box(p), casualties);
                out.results.iter().filter(|r| r.result.is_ok()).count()
            })
        });
    }
    drop(group);
    for (p, casualties, deepest) in depths {
        println!("    recovery_hotpath/p{p}/c{casualties}: cascade depth {deepest} epoch(s)");
    }
}

testkit::bench_main!(bench_recovery_hotpath);
