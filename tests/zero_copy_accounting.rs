//! Closed-form bytes-copied accounting for the zero-copy broadcast paths.
//!
//! The wire counters (messages, bytes) pin *what moves between
//! ranks*; `bytes_copied` pins *what moves through RAM on each rank*. The
//! shared-envelope fabric makes the latter a closed form too:
//!
//! * **Binomial, zero-copy**: the root stages its buffer into a pool rental
//!   once (`make_shared`, `nbytes`); every forward is a refcount clone; a
//!   non-root receives the envelope itself and pays exactly one landing
//!   copy into the user buffer. Every rank's bill is *exactly* `nbytes` —
//!   independent of its depth or fan-out in the tree.
//! * **Binomial, copy baseline** (`bcast_binomial_copy_async`): every hop pays a
//!   sender copy-in plus a receiver copy-out, so the world bill is
//!   `2·(P−1)·nbytes` and grows with the tree instead of the payload.
//! * **Pipeline chain**: the root stages each segment once and every other
//!   rank lands it once, then forwards the landed envelope by reference —
//!   the same `P·nbytes` world bill as the zero-copy binomial, where a
//!   `recv` + `send` per segment would pay the per-hop `2·(P−1)·nbytes`.
//! * **Scatter + tuned ring**: exactly `nbytes` per rank, like binomial. The
//!   root stages each scatter child's subtree and its own chunk once, and
//!   every ring send is a sub-view of one of those stagings; a non-root lands
//!   its subtree and the ring chunks it lacks, each byte once, and sends its
//!   scatter-owned chunks as sub-views of the subtree it keeps. The world
//!   bill is `P·nbytes` (`traffic::bcast_bytes_copied`), on every executor.
//! * **Scatter + native or coalesced ring**: at most `2·nbytes` per rank.
//!   The native root stages `nbytes` and lands the chunks the enclosed ring
//!   sends back to it; its world bill is `nbytes` plus every wire byte. A
//!   coalesced tail run that spans two kept envelopes is staged again.
//! * **Scatter + recursive doubling**: ≤ `3·nbytes` per rank (each round's
//!   block is staged once and the partner's landed once, on top of the
//!   scatter's landing copy).
//!
//! * **Through `ReliableComm`**: the sequence number rides beside the
//!   payload and a frame is a refcount clone of what the algorithm staged, so
//!   the layer's whole bill is its numbers and its acks —
//!   `traffic::reliable_volume` on the wire, the bare algorithm's
//!   `bytes_copied` plus 8 bytes per ack. Acks are cumulative: at least one
//!   per channel, at most one per frame.
//!
//! The same ceilings are enforced a second way through
//! `schedcheck::reconcile_traffic`, here driven by real `ThreadWorld` and
//! `EventWorld` outcomes — so a copy regression fails both the direct
//! assertions and the schedule reconciliation, on every executor.

// No verdict here may hang on the host's timing: these tests read no wall
// clock and never sleep (the calls `clippy.toml` lists).
#![deny(clippy::disallowed_methods)]

use std::collections::BTreeSet;

use bcast_core::bcast::bcast_schedule;
use bcast_core::pipeline::bcast_pipeline_async;
use bcast_core::traffic::{bcast_bytes_copied, bcast_volume, reliable_volume};
use bcast_core::{
    bcast_binomial_copy_async, bcast_event_world, bcast_with, bcast_with_async, Algorithm,
    Collective,
};
use mpsim::{
    complete_now, AsyncCommunicator, Communicator, EventWorld, ReliableComm, SyncComm, ThreadWorld,
    WorldTraffic,
};
use netsim::{FaultPlan, FaultyComm, NetworkModel, Placement, SimWorld};
use schedcheck::reconcile_traffic;

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 + 7) as u8).collect()
}

/// Run a broadcast on a `ThreadWorld` of `size` ranks and return the
/// traffic, with every delivered buffer verified first.
fn run_thread(
    size: usize,
    nbytes: usize,
    root: usize,
    collective: impl Into<Collective>,
) -> WorldTraffic {
    let collective = collective.into();
    let src = pattern(nbytes);
    let out = ThreadWorld::run(size, |comm| {
        let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
        complete_now(collective.run(&SyncComm::new(comm), &mut buf, root)).unwrap();
        assert_eq!(buf, src, "rank {} diverged", comm.rank());
    });
    out.traffic
}

#[test]
fn binomial_zero_copy_bill_is_exactly_nbytes_per_rank() {
    for &(size, root) in &[(8usize, 0usize), (8, 5), (11, 4)] {
        let nbytes = 512;
        let traffic = run_thread(size, nbytes, root, Algorithm::Binomial);
        for (rank, st) in traffic.per_rank.iter().enumerate() {
            assert_eq!(
                st.bytes_copied, nbytes as u64,
                "P={size} root={root} rank={rank}: binomial must pay exactly one \
                 staging (root) or landing (non-root) copy"
            );
        }
    }
}

#[test]
fn binomial_copy_baseline_pays_per_hop() {
    let (size, nbytes) = (8usize, 512usize);
    let src = pattern(nbytes);
    let out = ThreadWorld::run(size, |comm| {
        let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
        complete_now(bcast_binomial_copy_async(&SyncComm::new(comm), &mut buf, 0)).unwrap();
        assert_eq!(buf, src, "rank {} diverged", comm.rank());
    });
    // P−1 transfers, each paying a sender copy-in and a receiver copy-out.
    let per_hop = (2 * (size - 1) * nbytes) as u64;
    assert_eq!(out.traffic.total_bytes_copied(), per_hop);

    // The zero-copy walk's world bill is P·nbytes — strictly below the
    // per-hop baseline for every P ≥ 3, and the gap is what the zero_copy
    // bench group measures as wall-clock.
    let src = pattern(nbytes);
    let zc = ThreadWorld::run(size, |comm| {
        let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
        bcast_with(comm, &mut buf, 0, Algorithm::Binomial).unwrap();
    });
    assert_eq!(zc.traffic.total_bytes_copied(), (size * nbytes) as u64);
    assert!(zc.traffic.total_bytes_copied() < per_hop);

    // So is the pipeline chain's, at any segmentation (here a ragged cut):
    // an interior rank forwards the envelope it just landed.
    let src = pattern(nbytes);
    let pipe = ThreadWorld::run(size, |comm| {
        let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
        complete_now(bcast_pipeline_async(&SyncComm::new(comm), &mut buf, 0, 100)).unwrap();
        assert_eq!(buf, src, "rank {} diverged", comm.rank());
    });
    assert_eq!(pipe.traffic.total_bytes_copied(), (size * nbytes) as u64);
}

#[test]
fn scatter_ring_paths_stay_under_the_copy_ceiling_threadworld() {
    // Each ceiling's value, as a multiple of nbytes, pinned per entry:
    // `reconcile_traffic` enforces these, so a raised budget would hide a
    // copy regression there.
    let nbytes = 1024;
    for collective in Collective::SWEEP {
        let per_rank = match collective {
            Collective::Bcast(Algorithm::Binomial | Algorithm::ScatterRingTuned)
            | Collective::Pipeline => Some(1),
            Collective::Bcast(Algorithm::ScatterRingNative) | Collective::Coalesced(_) => Some(2),
            Collective::Bcast(Algorithm::ScatterRdAllgather) => Some(3),
            Collective::Smp(_) | Collective::Allgather(_) => None,
        };
        assert_eq!(
            collective.copy_ceiling(nbytes as u64),
            per_rank.map(|k| k * nbytes as u64),
            "{}",
            collective.name()
        );
    }
    // Every collective of the sweep that publishes a per-rank ceiling stays
    // under it, at every world size here it supports (recursive doubling:
    // P = 8 only).
    let mut checked = 0;
    for collective in Collective::SWEEP {
        let Some(ceiling) = collective.copy_ceiling(nbytes as u64) else { continue };
        let name = collective.name();
        for size in [6usize, 8].into_iter().filter(|&p| collective.supports(p)) {
            let traffic = run_thread(size, nbytes, 0, collective);
            for (rank, st) in traffic.per_rank.iter().enumerate() {
                assert!(
                    st.bytes_copied <= ceiling,
                    "{name} P={size} rank={rank}: {}B copied, ceiling {ceiling}B",
                    st.bytes_copied
                );
            }
            checked += 1;
        }
    }
    // Four flat broadcasts, the coalesced ring and the pipeline.
    assert_eq!(checked, 11, "a collective lost its copy ceiling");
    // The world bill, exactly: every non-root lands each of its P chunks
    // once, (P−1)·nbytes, and the root stages each chunk once, nbytes. An
    // interpreter that retained one envelope would stage ring sends afresh:
    // P−2 more chunks on the root (all but its own and the one it still
    // holds) and two on rank 4's SendOnly tail, 9 216 bytes in all.
    let traffic = run_thread(8, nbytes, 0, Algorithm::ScatterRingTuned);
    assert_eq!(
        traffic.total_bytes_copied(),
        8 * nbytes as u64,
        "tuned P=8: a ring send staged afresh copies a chunk twice"
    );
}

#[test]
fn event_world_copy_ceiling_and_shared_root_pin() {
    let (p, nbytes) = (64usize, 1024usize);

    // Binomial and tuned on the event executor: exactly nbytes per rank,
    // like the threaded run — the accounting layer is executor-agnostic.
    // Every rank, the root included, runs the general `bcast_with_async`:
    // the root's scatter stagings feed its whole ring.
    for algorithm in [Algorithm::Binomial, Algorithm::ScatterRingTuned] {
        let out = bcast_event_world(p, nbytes, 0, algorithm);
        for (rank, st) in out.traffic.per_rank.iter().enumerate() {
            assert_eq!(st.bytes_copied, nbytes as u64, "{algorithm:?} rank={rank}");
        }
    }

    // Every collective of the sweep with a ceiling, on the event executor.
    for collective in Collective::SWEEP.into_iter().filter(|c| c.supports(p)) {
        let Some(ceiling) = collective.copy_ceiling(nbytes as u64) else { continue };
        let out = bcast_event_world(p, nbytes, 0, collective);
        for (rank, st) in out.traffic.per_rank.iter().enumerate() {
            assert!(
                st.bytes_copied <= ceiling,
                "{} rank={rank}: {}B copied, ceiling {ceiling}B",
                collective.name(),
                st.bytes_copied
            );
        }
    }
}

#[test]
fn reconciliation_enforces_copy_ceilings_on_both_executors() {
    let (p, nbytes) = (8usize, 256usize);
    for algorithm in [
        Algorithm::Binomial,
        Algorithm::ScatterRingNative,
        Algorithm::ScatterRingTuned,
        Algorithm::ScatterRdAllgather,
    ] {
        let sched = bcast_schedule(algorithm, p, nbytes, 0);
        let traffic = run_thread(p, nbytes, 0, algorithm);
        let rec = reconcile_traffic(&sched, &traffic);
        assert!(rec.is_clean(), "{algorithm:?} on ThreadWorld: {:?}", rec.errors);
        assert!(rec.executed_bytes_copied > 0, "{algorithm:?}: copies must be visible");

        let out = bcast_event_world(p, nbytes, 0, algorithm);
        let rec = reconcile_traffic(&sched, &out.traffic);
        assert!(rec.is_clean(), "{algorithm:?} on EventWorld: {:?}", rec.errors);
    }
}

/// `algorithm` from root 0 on an event world, every rank through the general
/// entry point — over the bare executor, or over `ReliableComm` on a
/// `FaultyComm` that injects nothing.
fn run_event(p: usize, nbytes: usize, algorithm: Algorithm, reliable: bool) -> WorldTraffic {
    let src = pattern(nbytes);
    let out = EventWorld::run(p, |comm| {
        let src = src.clone();
        async move {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            if reliable {
                let faulty = FaultyComm::new(&comm, FaultPlan::new(0));
                let stack = ReliableComm::new(&faulty);
                bcast_with_async(&stack, &mut buf, 0, algorithm).await.unwrap();
            } else {
                bcast_with_async(&comm, &mut buf, 0, algorithm).await.unwrap();
            }
            assert_eq!(buf, src, "rank {} diverged", comm.rank());
        }
    });
    out.traffic
}

/// Distinct `(src, dest, tag)` channels `algorithm` sends on: the fewest
/// cumulative acks that can settle its frames.
fn channels(algorithm: Algorithm, p: usize, nbytes: usize) -> u64 {
    let schedule = bcast_schedule(algorithm, p, nbytes, 0);
    let sends = schedule.ranks.iter().enumerate().flat_map(|(rank, rs)| {
        rs.ops.iter().filter_map(move |op| op.send.as_ref().map(|s| (rank, s.peer, s.tag)))
    });
    sends.collect::<BTreeSet<_>>().len() as u64
}

#[test]
fn reliable_delivery_bills_the_bare_algorithm_plus_its_acks() {
    let shapes = [8usize, 10, 16].map(|p| (p, 1000)).into_iter().chain([(128, 128 << 10)]);
    for (p, nbytes) in shapes {
        for algorithm in [Algorithm::ScatterRingTuned, Algorithm::Binomial] {
            let v = bcast_volume(algorithm, nbytes, p);
            let bare = run_event(p, nbytes, algorithm, false);
            assert_eq!((bare.total_msgs(), bare.total_bytes()), (v.msgs, v.bytes));

            let framed = run_event(p, nbytes, algorithm, true);
            let acks = framed.total_msgs() - v.msgs;
            let what = format!("{algorithm:?} P={p} n={nbytes}");
            assert!(framed.is_balanced(), "{what}");
            let fewest = channels(algorithm, p, nbytes);
            assert!(
                (fewest..=v.msgs).contains(&acks),
                "{what}: {acks} acks for {fewest} channels and {} frames",
                v.msgs
            );
            let wire = reliable_volume(v, acks);
            assert_eq!(framed.total_bytes(), wire.bytes, "{what}: 4 B per number, 4 B per ack");
            // No payload byte is copied between the sender's `make_shared`
            // and the receiver's landing copy: what is left is an ack's four
            // bytes staged at one end and copied out at the other.
            assert_eq!(
                framed.total_bytes_copied(),
                bare.total_bytes_copied() + 8 * acks,
                "{what}: the stack copied payload bytes of its own"
            );
        }
    }
    // The lossy-ring workload's shape, drop-free, in absolute numbers: the
    // event executor's schedule is deterministic, and so is every ack.
    let framed = run_event(128, 128 << 10, Algorithm::ScatterRingTuned, true);
    // 15 935 frames and 4 286 acks.
    assert_eq!(framed.total_msgs(), 20_221);
    assert_eq!(framed.total_bytes(), 16_727_028);
    // P·nbytes, plus an ack's 8 bytes per ack.
    assert_eq!(framed.total_bytes_copied(), 16_811_504);
}

/// The closed-form world bill, on every executor: every world size up to 40
/// on the event executor, at three roots and at sizes that leave chunks
/// empty or ragged; a few shapes on threads; one on the simulator.
#[test]
fn bytes_copied_matches_the_closed_form_on_every_executor() {
    let algorithms =
        [Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned];
    let closed = |algorithm, nbytes, p| bcast_bytes_copied(algorithm, nbytes, p).unwrap();
    for p in 1..=40usize {
        for root in [0, p / 2, p - 1] {
            for nbytes in [0, 1, p - 1, 4 * p - 1, 4 * p, 1000] {
                for algorithm in algorithms {
                    let copied = bcast_event_world(p, nbytes, root, algorithm).traffic;
                    assert_eq!(
                        copied.total_bytes_copied(),
                        closed(algorithm, nbytes, p),
                        "{algorithm:?} P={p} root={root} n={nbytes} on EventWorld"
                    );
                }
            }
        }
    }
    for (p, root, nbytes) in [(1usize, 0usize, 100usize), (2, 1, 7), (7, 3, 6), (10, 9, 1000)] {
        for algorithm in algorithms {
            assert_eq!(
                run_thread(p, nbytes, root, algorithm).total_bytes_copied(),
                closed(algorithm, nbytes, p),
                "{algorithm:?} P={p} root={root} n={nbytes} on ThreadWorld"
            );
        }
    }
    let (p, nbytes) = (12, 50_000);
    let src = pattern(nbytes);
    for algorithm in algorithms {
        let out = SimWorld::run(NetworkModel::uniform(100.0, 0.5), Placement::new(4), p, |comm| {
            let mut buf = if comm.rank() == 5 { src.clone() } else { vec![0u8; nbytes] };
            bcast_with(comm, &mut buf, 5, algorithm).unwrap();
            assert_eq!(buf, src, "rank {} diverged", comm.rank());
        });
        assert_eq!(
            out.traffic.total_bytes_copied(),
            closed(algorithm, nbytes, p),
            "{algorithm:?} on SimWorld"
        );
    }
}
