//! Chaos sweep: the self-healing broadcast under seeded drop, duplication,
//! and crash faults, at P ∈ {4, 8, 10, 16}, plus the cross-executor
//! acceptance scenario (one non-root rank crashing mid-ring at P = 8 must
//! leave all 7 survivors with the payload, identically on the threaded
//! runtime and the simulator).
//!
//! Every fault decision comes from a [`FaultPlan`] seeded via
//! `TESTKIT_SEED` (or a fixed default), so a failing run replays
//! bit-identically: same seed → same drops, same crash point, same
//! survivor set.
//!
//! Stacking follows the fault model's division of labor: message loss and
//! duplication between *live* ranks are masked by [`ReliableComm`];
//! crashes are healed by the self-healing broadcast, the same attempt and
//! agreement whether or not `ReliableComm` sits underneath. The decorators
//! are written against `AsyncCommunicator`, so the blocking executors build
//! the stack over `SyncComm` and drive it with `complete_now`.

// No verdict here may hang on the host's timing: these tests read no wall
// clock and never sleep (the calls `clippy.toml` lists).
#![deny(clippy::disallowed_methods)]

use std::time::Duration;

use bcast_core::traffic::{agreement_volume, bcast_volume};
use bcast_core::verify::pattern as pattern_of;
use bcast_core::{
    check_recovery_outcome, recovery::branch, self_healing_bcast_async,
    self_healing_bcast_event_world, self_healing_rank_task, Algorithm, RankRun, RecoveryConfig,
    RecoveryDrill, RecoverySpec, EVENT_LAUNCH_SEED,
};
use mpsim::{
    complete_now, CommError, Communicator, EventWorld, Rank, ReliableComm, RetryConfig, SyncComm,
    ThreadWorld, WorldTraffic,
};
use netsim::{FaultPlan, FaultyComm, LinkFaults, NetworkModel, Placement, SimWorld};

const PS: [usize; 4] = [4, 8, 10, 16];

/// `TESTKIT_SEED` (decimal or 0x-hex) when set, a fixed default otherwise.
fn battery_seed() -> u64 {
    let Ok(raw) = std::env::var("TESTKIT_SEED") else {
        return 0xC4A0_5BAD_5EED_0002;
    };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("TESTKIT_SEED={raw:?} is not a decimal or 0x-hex u64"))
}

fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n).map(|i| (i as u64).wrapping_mul(131).wrapping_add(salt) as u8).collect()
}

fn quick_retry() -> RetryConfig {
    RetryConfig {
        base_timeout: Duration::from_millis(5),
        max_timeout: Duration::from_millis(40),
        max_attempts: 12,
    }
}

fn recovery_cfg() -> RecoveryConfig {
    RecoveryConfig { step_timeout: Duration::from_millis(60), max_epochs: 4, ..Default::default() }
}

/// Drop / duplication sweep: `ReliableComm` over `FaultyComm`, healed
/// broadcast on top. No rank dies, so every rank must finish in agreement
/// with the full world as survivors and the exact payload.
fn lossy_sweep(faults: LinkFaults, seed_salt: u64) {
    let seed = battery_seed() ^ seed_salt;
    for p in PS {
        let n = 64 * p + 13;
        let src = pattern(n, seed);
        let root = p / 3;
        let out = ThreadWorld::run(p, {
            let src = src.clone();
            move |comm| {
                let plan = FaultPlan::new(seed ^ p as u64).with_default(faults);
                let acomm = SyncComm::new(comm);
                let faulty = FaultyComm::new(&acomm, plan);
                let rel = ReliableComm::with_config(&faulty, quick_retry());
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; n] };
                let cfg = recovery_cfg();
                let healed = complete_now(self_healing_bcast_async(&rel, &mut buf, root, &cfg))
                    .unwrap_or_else(|e| panic!("p={p} rank {}: {e:?}", comm.rank()));
                assert_eq!(buf, src, "p={p} rank {} got a corrupted payload", comm.rank());
                healed
            }
        });
        for h in &out.results {
            assert_eq!(h.survivors, (0..p).collect::<Vec<_>>(), "p={p}: no rank died here");
        }
    }
}

#[test]
fn dropped_messages_are_masked_at_every_world_size() {
    lossy_sweep(LinkFaults { drop_ppm: 100_000, dup_ppm: 0, delay_ppm: 0 }, 0xD809);
}

#[test]
fn duplicated_messages_are_masked_at_every_world_size() {
    lossy_sweep(LinkFaults { drop_ppm: 0, dup_ppm: 400_000, delay_ppm: 0 }, 0xD0B1);
}

#[test]
fn mixed_link_chaos_is_masked_at_every_world_size() {
    lossy_sweep(LinkFaults { drop_ppm: 60_000, dup_ppm: 150_000, delay_ppm: 150_000 }, 0x3417);
}

/// Loss and a crash together: `ReliableComm` over `FaultyComm` on the event
/// executor, one mid-ring rank of P = 8 fail-stopping at each of several
/// points of its attempt, on a drop-free link and with 1 % and 5 % of the
/// payload frames dropped, four plan seeds each. Survivors then hold frames
/// in flight to the victim and to ranks that left the failed attempt; each
/// such frame fails its channel once (or is given up with the attempt).
/// Every survivor must heal with the payload and the same seven-rank
/// survivor set, and the victim must see itself fail. Fixed seeds: the
/// grid replays exactly.
#[test]
fn loss_plus_a_mid_ring_crash_heals_every_survivor() {
    const P: usize = 8;
    const VICTIM: usize = 5;
    let expected: Vec<Rank> = (0..P).filter(|&r| r != VICTIM).collect();
    for drop_ppm in [0, 10_000, 50_000] {
        let faults = LinkFaults { drop_ppm, dup_ppm: 0, delay_ppm: 0 };
        for after in [2, 4, 7, 10, 13, 16] {
            for seed in 0x10_55C8..0x10_55CC {
                let src = pattern(P * 512 + 3, seed);
                let plan = FaultPlan::new(seed).with_default(faults).with_crash(VICTIM, after);
                let out = EventWorld::run(P, |comm| {
                    let (src, plan) = (src.clone(), plan.clone());
                    async move {
                        let faulty = FaultyComm::new(&comm, plan);
                        let reliable = ReliableComm::with_config(&faulty, quick_retry());
                        let cfg = recovery_cfg();
                        let drill = &RecoveryDrill::NONE;
                        let algorithm = Algorithm::ScatterRingTuned;
                        self_healing_rank_task(&reliable, &src, 0, algorithm, &cfg, drill).await
                    }
                });
                for (rank, run) in out.results.iter().enumerate() {
                    let case = format!("drop {drop_ppm} ppm, crash after {after}, seed {seed:#x}");
                    match &run.result {
                        Ok(h) => {
                            assert_ne!(rank, VICTIM, "{case}: the victim must see itself fail");
                            assert_eq!(h.survivors, expected, "{case}, rank {rank}: survivors");
                            assert_eq!(run.buf, src, "{case}, rank {rank}: corrupted payload");
                        }
                        Err(CommError::PeerFailed { rank: r }) if *r == rank && rank == VICTIM => {}
                        Err(e) => panic!("{case}: survivor {rank} failed with {e:?}"),
                    }
                }
            }
        }
    }
}

/// One launch of the prescribed fault stack, `recovery(ReliableComm(
/// FaultyComm))`, on the event executor: `drop_ppm` of the frames dropped
/// and `victim` fail-stopping after `after` ops, judged by
/// `check_recovery_outcome` with the victim as the only planned victim and
/// no lossy-link waivers — the reliable layer masks every drop, so a
/// survivor that fails, a split-brain or a ghost survivor is a violation.
fn prescribed_stack_launch(
    p: usize,
    victim: Rank,
    after: u64,
    drop_ppm: u32,
    seed: u64,
    algorithm: Algorithm,
) -> Result<(), String> {
    let cfg = RecoveryConfig {
        step_timeout: Duration::from_millis(60),
        max_epochs: 3,
        ..Default::default()
    };
    let src = pattern(p * 512 + 3, seed);
    let faults = LinkFaults { drop_ppm, dup_ppm: 0, delay_ppm: 0 };
    let plan = FaultPlan::new(seed).with_default(faults).with_crash(victim, after);
    let out = EventWorld::run(p, |comm| {
        let (src, plan) = (src.clone(), plan.clone());
        async move {
            let faulty = FaultyComm::new(&comm, plan);
            let reliable = ReliableComm::with_config(&faulty, quick_retry());
            self_healing_rank_task(&reliable, &src, 0, algorithm, &cfg, &RecoveryDrill::NONE).await
        }
    });
    let spec =
        RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[victim], lossy_links: false };
    check_recovery_outcome(&spec, &out.results, &out.traffic, out.elapsed)
}

/// The prescribed fault stack on a grid of one crash each: P ∈ {6, 8, 13,
/// 16} × victim ∈ {1, P/2, P−1} × crash after ops 1, 4, …, 37 × 0, 1 and
/// 5 % dropped frames × two plan seeds × the tuned ring and the binomial
/// tree, 1 872 launches ([`prescribed_stack_launch`]). Some frames are
/// never taken — a false conjunction's dropped receive half, a frame to a
/// rank that left — and each must cost its sender at most one step, or
/// survivors run out of epochs.
#[test]
fn the_prescribed_fault_stack_heals_every_crash_of_the_grid() {
    let mut launches = 0;
    let mut rejected = Vec::new();
    for p in [6, 8, 13, 16] {
        for victim in [1, p / 2, p - 1] {
            for after in (1..=37).step_by(3) {
                for drop_ppm in [0, 10_000, 50_000] {
                    for seed in [0x10_55C8, 0x10_55C9] {
                        for algorithm in [Algorithm::ScatterRingTuned, Algorithm::Binomial] {
                            launches += 1;
                            if let Err(why) =
                                prescribed_stack_launch(p, victim, after, drop_ppm, seed, algorithm)
                            {
                                rejected.push(format!(
                                    "P={p} victim {victim} after {after} drop {drop_ppm} ppm \
                                     seed {seed:#x} {algorithm:?}: {why}"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(launches, 1872);
    assert!(
        rejected.is_empty(),
        "{} of {launches} launches rejected, first: {:#?}",
        rejected.len(),
        &rejected[..rejected.len().min(5)]
    );
}

/// Crash sweep: a planned fail-stop of one non-root rank mid-broadcast at
/// every world size. The victim must learn it is the casualty; every
/// survivor must finish with the payload and the same survivor set.
#[test]
fn one_rank_crash_heals_at_every_world_size() {
    let seed = battery_seed() ^ 0xC8A5;
    for p in PS {
        let n = 48 * p + 7;
        let src = pattern(n, seed);
        let victim = p - 2; // never the root (root is 0 here)
        let out = ThreadWorld::run(p, {
            let src = src.clone();
            move |comm| {
                let plan = FaultPlan::new(seed ^ p as u64).with_crash(victim, 5);
                let acomm = SyncComm::new(comm);
                let faulty = FaultyComm::new(&acomm, plan);
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
                let cfg = recovery_cfg();
                match complete_now(self_healing_bcast_async(&faulty, &mut buf, 0, &cfg)) {
                    Ok(healed) => {
                        assert_eq!(buf, src, "p={p} rank {} corrupted", comm.rank());
                        Some(healed.survivors.to_vec())
                    }
                    Err(CommError::PeerFailed { rank }) if rank == comm.rank() => None,
                    Err(e) => panic!("p={p} rank {}: unexpected {e:?}", comm.rank()),
                }
            }
        });
        let expected: Vec<Rank> = (0..p).filter(|&r| r != victim).collect();
        for (rank, res) in out.results.iter().enumerate() {
            if rank == victim {
                assert!(res.is_none(), "p={p}: the victim must see itself fail");
            } else {
                assert_eq!(
                    res.as_deref(),
                    Some(&expected[..]),
                    "p={p} rank {rank}: wrong survivor set"
                );
            }
        }
    }
}

/// The acceptance scenario: P = 8, the same seeded plan crashes one
/// non-root rank mid-ring on *both* executors. Both worlds must converge
/// to the identical 7-rank survivor set with correct payloads.
#[test]
fn p8_crash_replays_identically_on_both_executors() {
    const P: usize = 8;
    const VICTIM: usize = 3;
    let seed = battery_seed() ^ 0xACCE;
    let n = 1024;
    let src = pattern(n, seed);
    // crash after 5 communicator ops: past the scatter recv, inside the ring
    let plan = FaultPlan::new(seed).with_crash(VICTIM, 5);

    fn run<C: Communicator>(comm: &C, src: &[u8], plan: &FaultPlan) -> Option<Vec<Rank>> {
        let acomm = SyncComm::new(comm);
        let faulty = FaultyComm::new(&acomm, plan.clone());
        let mut buf = if comm.rank() == 0 { src.to_vec() } else { vec![0u8; src.len()] };
        let cfg = recovery_cfg();
        match complete_now(self_healing_bcast_async(&faulty, &mut buf, 0, &cfg)) {
            Ok(healed) => {
                assert_eq!(buf, src, "rank {} corrupted", comm.rank());
                Some(healed.survivors.to_vec())
            }
            Err(CommError::PeerFailed { rank }) if rank == comm.rank() => None,
            Err(e) => panic!("rank {}: unexpected {e:?}", comm.rank()),
        }
    }

    let threaded = ThreadWorld::run(P, {
        let src = src.clone();
        let plan = plan.clone();
        move |comm| run(comm, &src, &plan)
    });

    let mut model = NetworkModel::uniform(50.0, 1.0);
    model.eager_threshold = usize::MAX; // GuardedComm decomposition needs eager sends
    let simulated = SimWorld::run(model, Placement::new(4), P, {
        let src = src.clone();
        let plan = plan.clone();
        move |comm| run(comm, &src, &plan)
    });

    let expected: Vec<Rank> = (0..P).filter(|&r| r != VICTIM).collect();
    for (label, results) in [("threaded", &threaded.results), ("simulated", &simulated.results)] {
        for (rank, res) in results.iter().enumerate() {
            if rank == VICTIM {
                assert!(res.is_none(), "{label}: victim must see itself fail");
            } else {
                assert_eq!(res.as_deref(), Some(&expected[..]), "{label} rank {rank}");
            }
        }
    }
    // identical failure + recovery outcome on both executors, same seed
    assert_eq!(threaded.results, simulated.results);
}

/// Run one seeded self-healing launch on the event executor: every rank's
/// `EventComm` is wrapped in a `FaultyComm` under the shared plan, the
/// per-rank recovery task from `bcast_core::event_launch` does the rest.
fn event_cascade(
    p: usize,
    nbytes: usize,
    root: Rank,
    algorithm: Algorithm,
    crashes: &[(Rank, u64)],
    cfg: RecoveryConfig,
    seed: u64,
) -> (Vec<RankRun>, WorldTraffic, Duration, Vec<u8>) {
    let src = pattern(nbytes, seed);
    let mut plan = FaultPlan::new(seed);
    for &(v, after) in crashes {
        plan = plan.with_crash(v, after);
    }
    let out = EventWorld::run(p, |comm| {
        let src = src.clone();
        let plan = plan.clone();
        async move {
            let faulty = FaultyComm::new(&comm, plan);
            self_healing_rank_task(&faulty, &src, root, algorithm, &cfg, &RecoveryDrill::NONE).await
        }
    });
    (out.results, out.traffic, out.elapsed, src)
}

/// EventWorld leg of the acceptance scenario, plus the three-way replay:
/// the same seeded crash plan must land on the identical per-rank outcome
/// on the threaded runtime, the latency simulator, and the event executor —
/// the fault clock counts the same operation sequence on all three.
#[test]
fn p8_crash_replays_identically_on_the_event_executor() {
    const P: usize = 8;
    const VICTIM: usize = 3;
    let seed = battery_seed() ^ 0xACCE; // same plan as the two-executor test
    let n = 1024;
    let src = pattern(n, seed);
    let plan = FaultPlan::new(seed).with_crash(VICTIM, 5);

    let threaded = ThreadWorld::run(P, {
        let src = src.clone();
        let plan = plan.clone();
        move |comm| {
            let acomm = SyncComm::new(comm);
            let faulty = FaultyComm::new(&acomm, plan.clone());
            let mut buf = if comm.rank() == 0 { src.to_vec() } else { vec![0u8; src.len()] };
            let cfg = recovery_cfg();
            match complete_now(self_healing_bcast_async(&faulty, &mut buf, 0, &cfg)) {
                Ok(healed) => {
                    assert_eq!(buf, src, "rank {} corrupted", comm.rank());
                    Some(healed.survivors.to_vec())
                }
                Err(CommError::PeerFailed { rank }) if rank == comm.rank() => None,
                Err(e) => panic!("rank {}: unexpected {e:?}", comm.rank()),
            }
        }
    });

    let (event_runs, traffic, elapsed, _) =
        event_cascade(P, n, 0, Algorithm::ScatterRingTuned, &[(VICTIM, 5)], recovery_cfg(), seed);
    let event: Vec<Option<Vec<Rank>>> = event_runs
        .iter()
        .enumerate()
        .map(|(rank, run)| match &run.result {
            Ok(h) => {
                assert_eq!(run.buf, src, "event rank {rank} corrupted");
                Some(h.survivors.to_vec())
            }
            Err(CommError::PeerFailed { rank: r }) if *r == rank => None,
            Err(e) => panic!("event rank {rank}: unexpected {e:?}"),
        })
        .collect();

    assert_eq!(threaded.results, event, "executors diverged under one seed");

    let spec = RecoverySpec {
        src: &src,
        root: 0,
        cfg: recovery_cfg(),
        planned_victims: &[VICTIM],
        lossy_links: false,
    };
    check_recovery_outcome(&spec, &event_runs, &traffic, elapsed).unwrap();
}

/// Cascading multi-epoch recovery with a root-succession chain of depth 3:
/// the root and its first two successors die one epoch apart, the payload
/// is re-sourced down the chain `0 → 4 → 5 → 2`, and the survivors converge
/// with byte-identical payloads. Crash thresholds are tuned to the binomial
/// attempt's op counts (see each victim's comment; the tree is 0→{4,2,1},
/// 4→{6,5}, 2→3, 6→7).
#[test]
fn root_succession_chain_depth3_heals_at_p8() {
    let seed = battery_seed() ^ 0x5CC3;
    let cfg = RecoveryConfig {
        step_timeout: Duration::from_millis(60),
        max_epochs: 12, // ≥ 2·victims + 1 = 7: liveness guaranteed
        ..RecoveryConfig::default()
    };
    let crashes = [
        (0usize, 1u64), // root dies after one send: only subtree {4,5,6,7} completes
        // First successor dies entering epoch 1, before re-sourcing: epoch 0
        // costs it 3 attempt ops + 7 quorum ops (6 sends, 1 failed receive)
        // + its report to the dead leader 0 + the failed wait for a
        // proposal + 14 pairwise ops = 26.
        (4, 26),
        // Second successor dies one send into epoch 2's rerun: epoch 0 costs
        // it 1 + 8 + 2 + 14 = 25 ops; in epoch 1 it holds the payload, so it
        // sits out the rerun and ticks only on agreement ops (7 quorum + a
        // report + a proposal + 12 confirm, 3 rounds × 2 passes over the 6
        // live members) = 21. Op 46 is its first send as root, to rank 2
        // (whose subtree {2, 3} completes), and op 47 kills it before rank 1
        // is served — so the role passes to 2, the lowest full survivor.
        (5, 47),
    ];
    let (results, traffic, elapsed, src) =
        event_cascade(8, 512, 0, Algorithm::Binomial, &crashes, cfg, seed);

    let spec =
        RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[0, 4, 5], lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    for (rank, run) in results.iter().enumerate() {
        if [0, 4, 5].contains(&rank) {
            assert!(run.result.is_err(), "victim {rank} must see itself fail");
            assert!(run.trace.saw(branch::SELF_CRASH) || run.trace.branches == 0);
            continue;
        }
        let h = run.result.as_ref().unwrap();
        assert!(h.epochs >= 3, "rank {rank} healed in only {} epochs", h.epochs);
        assert!(
            run.trace.succession_depth >= 3,
            "rank {rank}: chain {:?} too shallow",
            run.trace.root_chain
        );
        assert_eq!(run.trace.root_chain, vec![0, 4, 5, 2], "rank {rank} followed another chain");
        assert!(run.trace.saw(branch::ROOT_SUCCESSION));
        assert!(run.trace.saw(branch::DEATH_OBSERVED));
    }
}

/// The megascale acceptance run: P ∈ {256, 1024, 4096} on the event
/// executor's virtual clock, three non-root ranks crashing one epoch apart.
/// Survivors must converge with ≥ 3 cascading epochs, byte-identical
/// payloads, reconciled traffic, and a bounded virtual recovery time.
///
/// A survivor that holds the payload sits out the next rerun and ticks only
/// on agreement ops, so each victim must be a *runner* of the rerun it dies
/// in: the victims are three ring neighbours `v, v+1, v+2` (`v = P/3`). `v`
/// dies at op 5, inside epoch 0's ring, and stalls everyone downstream of
/// it, so epoch 1 reruns over the root and ≈ 2P/3 ranks with `v+1` right
/// behind the root. Epoch 0 costs `v+1` under 100 ops (it stalls at once,
/// then sends ≈ 6·⌈log₂P⌉ agreement ops) and the rerun ≈ 4P/3, so its op
/// `P/2` lands a fifth to a third into the rerun; dying there leaves
/// ≈ 5P/12 ranks behind it without the payload. `v+2` stalls right after
/// `v+1` dies and leaves epoch 1 near op `P/2 + 6·⌈log₂P⌉`, so its op `P`
/// lands inside epoch 2's ≈ 5P/6-op rerun, which it again runs right behind
/// the root.
fn megascale_cascade(p: usize) {
    let seed = battery_seed() ^ 0x3CA1E ^ p as u64;
    let cfg = RecoveryConfig {
        step_timeout: Duration::from_millis(60),
        max_epochs: 8, // ≥ 2·victims + 1 = 7: liveness guaranteed
        ..RecoveryConfig::default()
    };
    let victims = [p / 3, p / 3 + 1, p / 3 + 2];
    let crashes = [(victims[0], 5), (victims[1], p as u64 / 2), (victims[2], p as u64)];
    let (results, traffic, elapsed, src) =
        event_cascade(p, 8 * p, 0, Algorithm::ScatterRingTuned, &crashes, cfg, seed);

    let spec =
        RecoverySpec { src: &src, root: 0, cfg, planned_victims: &victims, lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    let mut max_epochs_seen = 0;
    let mut healed = 0;
    for run in &results {
        if let Ok(h) = &run.result {
            healed += 1;
            max_epochs_seen = max_epochs_seen.max(h.epochs);
        }
    }
    assert!(healed >= p - victims.len(), "only {healed} of {p} ranks healed");
    assert!(
        max_epochs_seen >= 3,
        "P={p}: expected a ≥3-epoch cascade, saw at most {max_epochs_seen}"
    );
    print_peak_rss(&format!("megascale_cascade_p{p}"));
}

/// Print this process's peak resident memory as `<test> VmHWM: <n> kB`
/// (Linux only). `scripts/ci.sh recovery_megascale` runs each P = 4096
/// launch alone in its own process with `--nocapture` and reads the line.
fn print_peak_rss(test: &str) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(line) = status.lines().find(|l| l.starts_with("VmHWM:")) {
        println!("{test} {line}");
    }
}

#[test]
fn megascale_cascade_p256() {
    megascale_cascade(256);
}

#[test]
#[ignore = "release-mode CI phase: debug builds are too slow at P >= 1024"]
fn megascale_cascade_p1024() {
    megascale_cascade(1024);
}

#[test]
#[ignore = "release-mode CI phase: debug builds are too slow at P >= 1024"]
fn megascale_cascade_p4096() {
    megascale_cascade(4096);
}

/// The fault-free counterpart at P = 4096, on the bare event communicator
/// like the `heal-clean` workload: one epoch, `HEALED_ALL` on every rank,
/// exactly the broadcast plus the `2·P·⌈log₂P⌉`-frame quorum on the wire
/// (the unit tests pin that closed form up to P = 1024), and the oracle
/// passes.
#[test]
#[ignore = "release-mode CI phase: debug builds are too slow at P >= 1024"]
fn megascale_clean_p4096() {
    const P: usize = 4096;
    let (nbytes, algorithm, cfg) = (2048, Algorithm::ScatterRingTuned, RecoveryConfig::default());
    let out = self_healing_bcast_event_world(P, nbytes, 0, algorithm, &cfg);

    let src = pattern_of(nbytes, EVENT_LAUNCH_SEED);
    let spec = RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[], lossy_links: false };
    check_recovery_outcome(&spec, &out.results, &out.traffic, out.elapsed).unwrap();
    for (rank, run) in out.results.iter().enumerate() {
        let h = run.result.as_ref().unwrap();
        assert_eq!((h.epochs, h.survivors.len()), (1, P), "rank {rank}");
        assert!(run.trace.saw(branch::HEALED_ALL), "rank {rank}");
    }
    let vol = bcast_volume(algorithm, nbytes, P).plus(agreement_volume(P));
    assert_eq!(out.traffic.total_msgs(), vol.msgs);
    assert_eq!(out.traffic.total_bytes(), vol.bytes);
    // The ring's wavefront plus the quorum's frames: queue memory follows
    // the envelopes in flight, not the P·(P−1) the broadcast sends.
    let queued = out.reactor.queued_peak;
    assert!(queued <= 3 * P as u64, "{queued} envelopes queued at once, above 3P");
    print_peak_rss("megascale_clean_p4096");
}

/// A crash *between a rank's two pass-2 quorum sends* splits the quorum:
/// at P = 4 rank 1 (one attempt op, four pass-1 ops, one pass-2 send = 6 ops)
/// reaches rank 2 but never rank 3, so ranks 0 and 2 commit and leave while
/// rank 3 skips the leader stages and falls through to the pairwise round
/// alone. Rank 3 knows every member reported a full payload, so it must heal
/// with the very same verdict instead of counting the ranks that already
/// left as dead.
#[test]
fn mid_quorum_crash_heals_committed_and_fallen_through_ranks_alike() {
    let seed = battery_seed() ^ 0x0A55;
    let cfg = recovery_cfg();
    let (results, traffic, elapsed, src) =
        event_cascade(4, 203, 0, Algorithm::Binomial, &[(1, 6)], cfg, seed);

    let spec = RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[1], lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    assert_eq!(results[1].result, Err(CommError::PeerFailed { rank: 1 }));
    for rank in [0, 2, 3] {
        let h = results[rank].result.as_ref().unwrap();
        assert_eq!((&h.survivors.to_vec()[..], h.epochs), (&[0, 1, 2, 3][..], 1), "rank {rank}");
    }
    // Sends per rank = binomial sends + 4 quorum frames, and only the rank
    // that fell through adds its 3 pairwise reports.
    let sent: Vec<u64> = traffic.per_rank.iter().map(|s| s.msgs_sent).collect();
    assert_eq!((sent[0], sent[2], sent[3]), (2 + 4, 1 + 4, 4 + 3));
}

/// The leader exits while it sends the proposal. At P = 5 with root 1 the
/// binomial tree is 1→{0, 3, 2}, 3→4; rank 4 exits at once, so epoch 0's
/// membership quorum fails and leader 0 — one attempt receive, 7 quorum ops
/// (three pass-1 sends, the failed receive from 4, three pass-2 sends) and
/// 4 report reads later — sends `V` to rank 1 at op 12 and dies at op 13,
/// before ranks 2 and 3 get theirs. Rank 1 runs the confirm quorum alone and
/// it stays open; ranks 2 and 3 see the leader gone. Everyone falls back to
/// the pairwise round and heals with one survivor set.
#[test]
fn leader_exit_mid_proposal_falls_back_to_one_survivor_set() {
    let seed = battery_seed() ^ 0x1EAD;
    let cfg = recovery_cfg();
    let (results, traffic, elapsed, src) =
        event_cascade(5, 203, 1, Algorithm::Binomial, &[(4, 0), (0, 13)], cfg, seed);

    let spec =
        RecoverySpec { src: &src, root: 1, cfg, planned_victims: &[0, 4], lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    for rank in [0, 4] {
        assert_eq!(results[rank].result, Err(CommError::PeerFailed { rank }));
    }
    for rank in [1, 2, 3] {
        let h = results[rank].result.as_ref().unwrap();
        assert_eq!((&h.survivors.to_vec()[..], h.epochs), (&[1, 2, 3][..], 1), "rank {rank}");
    }
    // The leader's sends: six quorum frames and exactly one proposal.
    assert_eq!(traffic.per_rank[0].msgs_sent, 6 + 1);
}

/// A crash *between a rank's two pass-2 confirm sends* splits the confirm
/// quorum, and the proposal does not heal. At P = 4 rank 2 exits at once,
/// so its leaf 3 lacks the payload and `V` is `live {0, 1, 3}`, `full
/// {0, 1}`. Rank 1 then spends 1 attempt op, 6 membership-quorum ops (its
/// conjunction turns false in pass 1's second round), a report, the
/// proposal read and 5 confirm ops over `{0, 1, 3}` (two pass-1 rounds of
/// send + receive, then the pass-2 send to 3) before op 14 kills it. Rank 3
/// commits; leader 0 only learns that everyone holds `V`, sends its report
/// to 1 and 3, and adopts `V` without waiting. Both must enter epoch 1
/// together, rerun over the root and rank 3, and heal with the same list.
#[test]
fn mid_confirm_crash_keeps_committed_and_known_ranks_together() {
    let seed = battery_seed() ^ 0xC0F1;
    let cfg = recovery_cfg();
    let (results, traffic, elapsed, src) =
        event_cascade(4, 203, 0, Algorithm::Binomial, &[(2, 0), (1, 14)], cfg, seed);

    let spec =
        RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[1, 2], lossy_links: false };
    check_recovery_outcome(&spec, &results, &traffic, elapsed).unwrap();

    for rank in [1, 2] {
        assert_eq!(results[rank].result, Err(CommError::PeerFailed { rank }));
    }
    for rank in [0, 3] {
        let h = results[rank].result.as_ref().unwrap();
        assert_eq!((&h.survivors.to_vec()[..], h.epochs), (&[0, 3][..], 2), "rank {rank}");
    }
    // Leader 0, epoch 0: 2 tree sends, 4 quorum frames, 2 proposals, 4
    // confirm frames and the 2 reports of a Known confirmer; epoch 1: the
    // rerun's one send, 4 quorum frames, 1 proposal, 2 confirm frames.
    // Committed rank 3: 4 quorum frames, 1 report, 4 confirm frames, then
    // 4 + 1 + 2.
    let sent: Vec<u64> = traffic.per_rank.iter().map(|s| s.msgs_sent).collect();
    assert_eq!((sent[0], sent[3]), (2 + 4 + 2 + 4 + 2 + 1 + 4 + 1 + 2, 4 + 1 + 4 + 4 + 1 + 2));
}

/// Every crash plan of `plans(p)` at every `p`, on the tuned ring and the
/// binomial tree, each launch judged by `check_recovery_outcome`. Returns
/// the launches made.
fn crash_point_sweep(ps: &[usize], plans: impl Fn(usize) -> Vec<Vec<(Rank, u64)>>) -> usize {
    let seed = battery_seed() ^ 0x5EE9;
    let cfg = RecoveryConfig {
        step_timeout: Duration::from_millis(60),
        max_epochs: 6, // > 2·victims for up to two victims: liveness guaranteed
        ..RecoveryConfig::default()
    };
    let mut launches = 0;
    for &p in ps {
        for algorithm in [Algorithm::ScatterRingTuned, Algorithm::Binomial] {
            for crashes in plans(p) {
                let victims: Vec<Rank> = crashes.iter().map(|&(v, _)| v).collect();
                let (results, traffic, elapsed, src) =
                    event_cascade(p, 16 * p + 3, 0, algorithm, &crashes, cfg, seed);
                let spec = RecoverySpec {
                    src: &src,
                    root: 0,
                    cfg,
                    planned_victims: &victims,
                    lossy_links: false,
                };
                if let Err(why) = check_recovery_outcome(&spec, &results, &traffic, elapsed) {
                    panic!("P={p} {algorithm:?} crashes {crashes:?}: {why}");
                }
                launches += 1;
            }
        }
    }
    launches
}

/// Last crash tick of a sweep at world size `p`: past the second epoch of
/// any rank, so a crash lands in every attempt step, every quorum round of
/// both passes and every pairwise exchange.
fn last_tick(p: usize) -> u64 {
    8 * p as u64 + 40
}

/// Every single victim at every tick.
fn single_crash_plans(p: usize) -> Vec<Vec<(Rank, u64)>> {
    (0..p).flat_map(|v| (0..=last_tick(p)).map(move |t| vec![(v, t)])).collect()
}

#[test]
fn crash_point_sweep_small_worlds() {
    let launches = crash_point_sweep(&[2, 3, 4, 5, 7, 8], single_crash_plans);
    assert_eq!(launches, 5050);
}

#[test]
#[ignore = "release-mode CI phase: ~130k launches"]
fn crash_point_sweep_full() {
    let singles = crash_point_sweep(&[2, 3, 4, 5, 7, 8, 9, 13, 16], single_crash_plans);
    // Every pair of victims, the first on every 3rd tick and the second on
    // every 5th.
    let pairs = crash_point_sweep(&[5, 8, 9], |p| {
        let mut plans = Vec::new();
        for a in 0..p {
            for b in a + 1..p {
                for ta in (0..=last_tick(p)).step_by(3) {
                    for tb in (0..=last_tick(p)).step_by(5) {
                        plans.push(vec![(a, ta), (b, tb)]);
                    }
                }
            }
        }
        plans
    });
    println!("crash-point sweep: {singles} single-victim + {pairs} two-victim launches");
}
