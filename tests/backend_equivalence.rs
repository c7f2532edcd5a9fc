//! The same collective code must behave identically on every executor:
//! identical payload delivery and identical traffic counters on the real
//! threaded runtime, on the virtual-time cluster simulator, and on the
//! discrete-event async executor — and a seeded fault plan must replay the
//! same observable history on all of them.

// No verdict here may hang on the host's timing: these tests read no wall
// clock and never sleep (the calls `clippy.toml` lists).
#![deny(clippy::disallowed_methods)]

use bcast_core::traffic::bcast_volume;
use bcast_core::verify::pattern;
use bcast_core::{bcast_with, bcast_with_async, Algorithm};
use mpsim::{
    complete_now, AsyncCommunicator, CommError, Communicator, EventWorld, Rank, SyncComm, Tag,
    ThreadWorld,
};
use netsim::{presets, FaultPlan, FaultyComm, NetworkModel, Placement, SimWorld};

fn sim_run(
    algorithm: Algorithm,
    np: usize,
    nbytes: usize,
    root: usize,
) -> (Vec<Vec<u8>>, mpsim::WorldTraffic) {
    let preset = presets::hornet();
    let model = preset.model_for(nbytes, np);
    let src = pattern(nbytes, 5);
    let out = SimWorld::run(model, preset.placement(), np, |comm| {
        let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
        bcast_with(comm, &mut buf, root, algorithm).unwrap();
        buf
    });
    (out.results, out.traffic)
}

fn thread_run(
    algorithm: Algorithm,
    np: usize,
    nbytes: usize,
    root: usize,
) -> (Vec<Vec<u8>>, mpsim::WorldTraffic) {
    let src = pattern(nbytes, 5);
    let out = ThreadWorld::run(np, |comm| {
        let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
        bcast_with(comm, &mut buf, root, algorithm).unwrap();
        buf
    });
    (out.results, out.traffic)
}

fn event_run(
    algorithm: Algorithm,
    np: usize,
    nbytes: usize,
    root: usize,
) -> (Vec<Vec<u8>>, mpsim::WorldTraffic) {
    let src = pattern(nbytes, 5);
    let out = EventWorld::run(np, |comm| {
        let src = src.clone();
        async move {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_with_async(&comm, &mut buf, root, algorithm).await.unwrap();
            buf
        }
    });
    assert_reactor_invariants(&out.reactor, np, out.traffic.total_msgs());
    (out.results, out.traffic)
}

/// The reactor-accounting invariants schedcheck's protocol models verify in
/// the abstract (run-queue dedup, lane-mailbox routing), asserted here on
/// the concrete executor's counters — in the tests themselves, not just the
/// launch helpers:
///
/// * collective traffic never leaves the mailbox lanes' inline buckets;
/// * every rank task completes on exactly one `Ready` poll, so the dedup
///   wake accounting satisfies `wakeups == spurious_polls + P` — a drifted
///   counter or a double-enqueue breaks the identity from either side;
/// * every `Pending` poll is attributable to a delivered message (a budget
///   self-requeue) or a rank's startup poll: `spurious_polls ≤ msgs + P`.
///   The targeted wake paths exist to hold this line — a reactor that
///   ping-pongs tasks would blow through it while still delivering.
fn assert_reactor_invariants(reactor: &mpsim::ReactorStats, p: usize, msgs: u64) {
    assert_eq!(reactor.mailbox_spills, 0, "P={p}: collective traffic spilled a mailbox lane");
    assert_eq!(
        reactor.wakeups,
        reactor.spurious_polls + p as u64,
        "P={p}: wakeup/poll accounting identity broken"
    );
    assert!(
        reactor.spurious_polls <= msgs + p as u64,
        "P={p}: {} spurious polls exceed the {} messages + {p} startup polls that could \
         legitimately cause them",
        reactor.spurious_polls,
        msgs
    );
}

#[test]
fn same_payloads_and_traffic_on_both_backends() {
    for &algorithm in
        &[Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned]
    {
        for &(np, nbytes, root) in &[(10usize, 997usize, 3usize), (24, 4096, 0), (9, 10, 8)] {
            let (tb, tt) = thread_run(algorithm, np, nbytes, root);
            let (sb, st) = sim_run(algorithm, np, nbytes, root);
            assert_eq!(tb, sb, "{algorithm:?} np={np}");
            assert_eq!(tt, st, "{algorithm:?} np={np} traffic differs");
            let model = bcast_volume(algorithm, nbytes, np);
            assert_eq!(tt.total_msgs(), model.msgs);
            assert_eq!(tt.total_bytes(), model.bytes);
        }
    }
}

#[test]
fn rd_path_matches_on_pof2_worlds() {
    for &(np, nbytes, root) in &[(8usize, 2048usize, 2usize), (16, 999, 15)] {
        let (tb, tt) = thread_run(Algorithm::ScatterRdAllgather, np, nbytes, root);
        let (sb, st) = sim_run(Algorithm::ScatterRdAllgather, np, nbytes, root);
        assert_eq!(tb, sb);
        assert_eq!(tt, st);
    }
}

#[test]
fn simulator_protocols_do_not_change_delivered_bytes() {
    // eager vs rendezvous is a timing matter only: force each protocol and
    // check payloads are identical.
    let np = 12;
    let nbytes = 50_000;
    let src = pattern(nbytes, 9);
    let mut results = Vec::new();
    for eager_threshold in [0usize, usize::MAX] {
        let mut model = NetworkModel::uniform(100.0, 0.5);
        model.eager_threshold = eager_threshold;
        let out = SimWorld::run(model, Placement::new(4), np, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            bcast_core::bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).unwrap();
            buf
        });
        assert!(out.results.iter().all(|b| b == &src));
        results.push(out.traffic);
    }
    assert_eq!(results[0], results[1], "traffic must not depend on protocol");
}

#[test]
fn flow_control_credits_preserve_semantics() {
    // Tight credits change timing, never results.
    let np = 16;
    let nbytes = 16 * 512;
    let src = pattern(nbytes, 11);
    for credits in [1usize, 2, 7, usize::MAX] {
        let mut model = NetworkModel::uniform(10.0, 1.0);
        model.eager_threshold = usize::MAX; // everything eager
        model.eager_credits = credits;
        let out = SimWorld::run(model, Placement::new(4), np, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            bcast_core::bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).unwrap();
            assert_eq!(buf, src, "credits={credits}");
        });
        assert!(out.traffic.is_balanced());
        assert!(out.makespan_ns > 0.0);
    }
}

#[test]
fn event_world_matches_thread_world() {
    for &algorithm in
        &[Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned]
    {
        for &(np, nbytes, root) in &[(10usize, 997usize, 3usize), (24, 4096, 0), (9, 10, 8)] {
            let (tb, tt) = thread_run(algorithm, np, nbytes, root);
            let (eb, et) = event_run(algorithm, np, nbytes, root);
            assert_eq!(tb, eb, "{algorithm:?} np={np}: payloads differ across executors");
            assert_eq!(tt, et, "{algorithm:?} np={np}: traffic differs across executors");
        }
    }
    for &(np, nbytes, root) in &[(8usize, 2048usize, 2usize), (16, 999, 15)] {
        let (tb, tt) = thread_run(Algorithm::ScatterRdAllgather, np, nbytes, root);
        let (eb, et) = event_run(Algorithm::ScatterRdAllgather, np, nbytes, root);
        assert_eq!(tb, eb);
        assert_eq!(tt, et);
    }
}

/// Deterministic crash workload for the cross-executor fault test: rank 5
/// attempts six sends to rank 0 and fail-stops mid-sequence per the plan,
/// rank 0 consumes exactly the pre-crash messages, and three bystander
/// pairs exchange four rounds over the same decorated channel. Everything
/// observable — which sends succeed, the crash error, every counter — is a
/// pure function of the plan, never of scheduling.
async fn crash_workload<C: AsyncCommunicator>(comm: &C, plan: FaultPlan) -> (u64, bool) {
    const CRASH_RANK: Rank = 5;
    const CRASH_AFTER: u64 = 4;
    let faulty = FaultyComm::new(comm, plan);
    let me = comm.rank();
    let mut sends_ok = 0u64;
    match me {
        5 => {
            for round in 0..6u32 {
                match faulty.send(&[me as u8, round as u8], 0, Tag(round)).await {
                    Ok(()) => sends_ok += 1,
                    Err(e) => {
                        assert_eq!(e, CommError::PeerFailed { rank: CRASH_RANK });
                        break;
                    }
                }
            }
            assert_eq!(sends_ok, CRASH_AFTER, "crash clock fired at the wrong op");
        }
        0 => {
            // The test owns the plan, so it knows exactly which messages
            // exist: the CRASH_AFTER sends before the fail-stop.
            let mut buf = [0u8; 2];
            for round in 0..CRASH_AFTER as u32 {
                let n = faulty.recv(&mut buf, CRASH_RANK, Tag(round)).await.unwrap();
                assert_eq!((n, buf), (2, [CRASH_RANK as u8, round as u8]));
            }
        }
        _ => {
            // Bystander pairs (1,2), (3,4), (6,7) keep independent traffic
            // flowing through the same fault layer.
            let partner = match me {
                1 => 2,
                2 => 1,
                3 => 4,
                4 => 3,
                6 => 7,
                _ => 6,
            };
            for round in 0..4u8 {
                let out = [me as u8, round];
                let mut inb = [0u8; 2];
                let n = faulty
                    .sendrecv(&out, partner, Tag(9), &mut inb, partner, Tag(9))
                    .await
                    .unwrap();
                assert_eq!((n, inb), (2, [partner as u8, round]));
            }
        }
    }
    (sends_ok, faulty.crashed())
}

#[test]
fn fault_plan_replays_identically_on_event_world() {
    let seed = 0xFA17_5EED;
    let plan = || FaultPlan::new(seed).with_crash(5, 4);

    let tplan = plan();
    let tout = ThreadWorld::run(8, move |comm| {
        complete_now(crash_workload(&SyncComm::new(comm), tplan.clone()))
    });
    let eplan = plan();
    let eout = EventWorld::run(8, move |comm| {
        let eplan = eplan.clone();
        async move { crash_workload(&comm, eplan).await }
    });

    assert_eq!(tout.results, eout.results, "crash workload outcomes differ across executors");
    assert_eq!(tout.traffic, eout.traffic, "crash workload traffic differs across executors");
    // Only the planned rank crashed, exactly after its fourth send.
    assert_eq!(tout.results[5], (4, true));
    assert!(tout.results.iter().enumerate().all(|(r, &(_, dead))| dead == (r == 5)));
}

#[test]
fn virtual_time_is_deterministic_without_contention() {
    let run = || {
        let model = NetworkModel::uniform(123.0, 0.75);
        let out = SimWorld::run(model, Placement::new(6), 18, |comm| {
            let mut buf = if comm.rank() == 4 { pattern(3000, 1) } else { vec![0u8; 3000] };
            bcast_with(comm, &mut buf, 4, Algorithm::ScatterRingNative).unwrap();
            comm.now_ns()
        });
        out.results
    };
    assert_eq!(run(), run());
}
