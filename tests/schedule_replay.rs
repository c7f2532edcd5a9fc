//! Schedule-IR replay: the symbolic schedules emitted by every
//! [`ScheduleSource`] must reproduce, rank by rank and byte by byte, the
//! traffic counters of the *executed* collectives — on the threaded
//! runtime, the virtual-time simulator and the discrete-event executor.
//!
//! The expected counters come from the schedcheck abstract executor (which
//! resolves each receive to its matched message, so received bytes are
//! exact, not capacities); the observed counters come from the instrumented
//! worlds. The schedule and the executed program are the same op streams,
//! so this pins "the interpreter executes exactly what the stream plans".

use bcast_core::allgather::{allgather_async, AllgatherAlgorithm};
use bcast_core::pipeline::bcast_pipeline_async;
use bcast_core::{
    all_sources, bcast_event_world, bcast_opt_coalesced_async, bcast_smp_async, bcast_with_async,
    Algorithm, CoalescePolicy, NodeMap, Schedule,
};
use mpsim::{
    complete_now, AsyncCommunicator, Communicator, EventWorld, Rank, SyncComm, ThreadWorld,
    WorldTraffic,
};
use netsim::{presets, SimWorld};
use schedcheck::{check, Semantics};

/// The flat broadcast a schedule-source name stands for, if it is one.
fn flat_algorithm(name: &str) -> Option<Algorithm> {
    use Algorithm::*;
    [Binomial, ScatterRdAllgather, ScatterRingNative, ScatterRingTuned]
        .into_iter()
        .find(|alg| alg.schedule_name() == name)
}

/// The inter-node algorithm of an SMP schedule-source name, if it is one.
fn smp_inter(name: &str) -> Option<Algorithm> {
    match name {
        "bcast/smp_native" => Some(Algorithm::ScatterRingNative),
        "bcast/smp_tuned" => Some(Algorithm::ScatterRingTuned),
        _ => None,
    }
}

/// The allgather a schedule-source name stands for, if it is one.
fn allgather_algorithm(name: &str) -> Option<AllgatherAlgorithm> {
    use AllgatherAlgorithm::*;
    [Ring, RecursiveDoubling, Bruck].into_iter().find(|alg| alg.schedule_name() == name)
}

/// Execute the collective named by its schedule source on one rank.
/// Parameters mirror `ScheduleSource::schedule` exactly: `nbytes` is the
/// total buffer for the bcast family and the per-rank block for the
/// allgathers.
async fn run_collective_async<C: AsyncCommunicator>(
    name: &str,
    comm: &C,
    nbytes: usize,
    root: Rank,
) {
    let rank = comm.rank();
    let seed = |i: usize| (i as u8).wrapping_mul(31).wrapping_add(rank as u8);
    let mut buf: Vec<u8> = (0..nbytes).map(seed).collect();
    let mut recv = vec![0u8; nbytes * comm.size()];
    if let Some(alg) = flat_algorithm(name) {
        bcast_with_async(comm, &mut buf, root, alg).await
    } else if let Some(inter) = smp_inter(name) {
        // Same 4-cores-per-node map as SmpSource::schedule.
        bcast_smp_async(comm, &mut buf, root, &NodeMap::new(4), inter).await
    } else if let Some(algorithm) = allgather_algorithm(name) {
        allgather_async(comm, &buf, &mut recv, algorithm).await
    } else if name == "bcast/scatter_ring_coalesced" {
        // Same policy as the registered source.
        bcast_opt_coalesced_async(comm, &mut buf, root, &CoalescePolicy::unlimited()).await
    } else {
        assert_eq!(name, "bcast/pipeline", "no replay wired for this schedule source");
        // Same ragged cut as PipelineSource::schedule.
        bcast_pipeline_async(comm, &mut buf, root, nbytes.div_ceil(3).max(1)).await
    }
    .unwrap()
}

/// [`run_collective_async`] on a blocking executor.
fn run_collective(name: &str, comm: &impl Communicator, nbytes: usize, root: Rank) {
    complete_now(run_collective_async(name, &SyncComm::new(comm), nbytes, root))
}

/// Run the named collective on the event executor.
fn run_on_event_world(name: &'static str, p: usize, nbytes: usize, root: Rank) -> WorldTraffic {
    if let Some(alg) = flat_algorithm(name) {
        // Verifies every rank's payload, and routes the tuned root through
        // the send-only shared-envelope interpreter.
        return bcast_event_world(p, nbytes, root, alg).traffic;
    }
    EventWorld::run(
        p,
        move |comm| async move { run_collective_async(name, &comm, nbytes, root).await },
    )
    .traffic
}

/// Compare the abstract executor's per-rank counters against an
/// instrumented world's, for one (source, p, nbytes, root) instance.
fn assert_traffic_matches(
    sched: &Schedule,
    observed: &WorldTraffic,
    backend: &str,
    nbytes: usize,
    root: Rank,
) {
    let report = check(sched, Semantics::Rendezvous);
    assert!(report.is_clean(), "{} p={} is not clean: {:?}", sched.name, sched.p, report.errors);
    for (rank, (want, got)) in report.traffic.iter().zip(&observed.per_rank).enumerate() {
        let ctx = format!(
            "{} p={} nbytes={nbytes} root={root} rank={rank} on {backend}",
            sched.name, sched.p
        );
        assert_eq!(want.msgs_sent, got.msgs_sent, "sent msgs diverge: {ctx}");
        assert_eq!(want.bytes_sent, got.bytes_sent, "sent bytes diverge: {ctx}");
        assert_eq!(want.msgs_recvd, got.msgs_recvd, "recvd msgs diverge: {ctx}");
        assert_eq!(want.bytes_recvd, got.bytes_recvd, "recvd bytes diverge: {ctx}");
    }
}

/// Replay every source at every `p`, every size `sizes(p)` yields, and
/// every root (worlds above five ranks: the first and the last).
fn replay_all(ps: &[usize], sizes: impl Fn(usize) -> Vec<usize>, backend: &str) {
    for src in all_sources() {
        for &p in ps {
            if !src.supports(p) {
                continue;
            }
            let roots: Vec<Rank> = if p <= 5 { (0..p).collect() } else { vec![0, p - 1] };
            for nbytes in sizes(p) {
                for &root in &roots {
                    let sched = src.schedule(p, nbytes, root);
                    let name = src.name();
                    let traffic = match backend {
                        "threads" => {
                            ThreadWorld::run(p, |comm| run_collective(name, comm, nbytes, root))
                                .traffic
                        }
                        "netsim" => {
                            let preset = presets::hornet();
                            SimWorld::run(
                                preset.model_for(nbytes, p),
                                preset.placement(),
                                p,
                                |comm| run_collective(name, comm, nbytes, root),
                            )
                            .traffic
                        }
                        "event" => run_on_event_world(name, p, nbytes, root),
                        other => panic!("unknown backend {other}"),
                    };
                    assert_traffic_matches(&sched, &traffic, backend, nbytes, root);
                }
            }
        }
    }
}

#[test]
fn ir_matches_executed_traffic_on_threads() {
    replay_all(&[2, 3, 4, 8], |_| vec![5, 64], "threads");
}

#[test]
fn ir_matches_executed_traffic_on_netsim() {
    replay_all(&[2, 3, 4, 8], |_| vec![5, 64], "netsim");
}

#[test]
fn ir_matches_executed_traffic_on_event_world() {
    replay_all(&[2, 3, 4, 8], |_| vec![5, 64], "event");
}

#[test]
fn ir_matches_executed_traffic_at_awkward_sizes() {
    // Non-power-of-two world with a payload smaller than the world: empty
    // scatter chunks, ragged blocks — the streams' guards (no receive for an
    // exhausted displacement, no send for an empty subtree) must hold.
    replay_all(&[5, 6], |_| vec![1, 17], "threads");
    // The hostile shapes: degenerate worlds, payloads straddling the world
    // size (the empty-chunk boundary), the empty payload, every root — on
    // all three executors.
    for backend in ["threads", "netsim", "event"] {
        replay_all(&[1, 2, 3, 5], |p| vec![0, 1, p.saturating_sub(1), p, p + 1], backend);
    }
}
