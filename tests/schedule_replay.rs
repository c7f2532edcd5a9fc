//! Schedule-IR replay: the symbolic schedule of every [`Collective`] of the
//! sweep must reproduce, rank by rank and byte by byte, the traffic
//! counters of the *executed* collective — on the threaded runtime, the
//! virtual-time simulator and the discrete-event executor.
//!
//! The expected counters come from the schedcheck abstract executor (which
//! resolves each receive to its matched message, so received bytes are
//! exact, not capacities); the observed counters come from the instrumented
//! worlds. The schedule and the executed program are the same op streams,
//! so this pins "the interpreter executes exactly what the stream plans".

use bcast_core::{Collective, Schedule};
use mpsim::{
    complete_now, AsyncCommunicator, Communicator, EventWorld, Rank, SyncComm, ThreadWorld,
    WorldTraffic,
};
use netsim::{presets, SimWorld};
use schedcheck::{check, Semantics};

/// Run `collective` on one rank over `len` bytes — its schedule's tracked
/// buffer — that start as a rank-dependent pattern, and return what the
/// rank ends with.
async fn run_collective_async<C: AsyncCommunicator>(
    collective: Collective,
    comm: &C,
    len: usize,
    root: Rank,
) -> Vec<u8> {
    let rank = comm.rank();
    let mut buf: Vec<u8> =
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(rank as u8)).collect();
    collective.run(comm, &mut buf, root).await.unwrap();
    buf
}

/// [`run_collective_async`] on a blocking executor.
fn run_collective(
    collective: Collective,
    comm: &impl Communicator,
    len: usize,
    root: Rank,
) -> Vec<u8> {
    complete_now(run_collective_async(collective, &SyncComm::new(comm), len, root))
}

/// Compare the abstract executor's per-rank counters against an
/// instrumented world's, for one (collective, p, nbytes, root) instance.
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

/// Replay every collective of the sweep at every `p`, every size `sizes(p)`
/// yields, and every root (worlds above five ranks: the first and the
/// last). Every rank must end with the same buffer.
fn replay_all(ps: &[usize], sizes: impl Fn(usize) -> Vec<usize>, backend: &str) {
    for collective in Collective::SWEEP {
        for &p in ps {
            if !collective.supports(p) {
                continue;
            }
            let roots: Vec<Rank> = if p <= 5 { (0..p).collect() } else { vec![0, p - 1] };
            for nbytes in sizes(p) {
                for &root in &roots {
                    let sched = collective.schedule(p, nbytes, root);
                    let len = sched.ranks[0].buf_len;
                    let (ends, traffic) = match backend {
                        "threads" => {
                            let out = ThreadWorld::run(p, |comm| {
                                run_collective(collective, comm, len, root)
                            });
                            (out.results, out.traffic)
                        }
                        "netsim" => {
                            let preset = presets::hornet();
                            let out = SimWorld::run(
                                preset.model_for(nbytes, p),
                                preset.placement(),
                                p,
                                |comm| run_collective(collective, comm, len, root),
                            );
                            (out.results, out.traffic)
                        }
                        "event" => {
                            let out = EventWorld::run(p, move |comm| async move {
                                run_collective_async(collective, &comm, len, root).await
                            });
                            // A handful of tags per peer pair: every one
                            // stays in the mailbox lanes' inline buckets.
                            assert_eq!(out.reactor.mailbox_spills, 0, "{}", sched.name);
                            (out.results, out.traffic)
                        }
                        other => panic!("unknown backend {other}"),
                    };
                    assert!(
                        ends.iter().all(|b| b == &ends[0]),
                        "{} p={p} nbytes={nbytes} root={root} on {backend}: ranks disagree",
                        sched.name
                    );
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
