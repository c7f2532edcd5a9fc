//! The *native* enclosed ring allgather — phase two of MPICH3's
//! scatter-ring-allgather broadcast (Figure 3 of the paper) and the baseline
//! the tuned algorithm improves on.
//!
//! Every rank runs `P − 1` steps of `MPI_Sendrecv`: at step `i` it forwards
//! chunk `(rank − i + 1) mod P` (in root-relative numbering) to its right
//! neighbour while receiving chunk `(rank − i) mod P` from its left
//! neighbour. The ring is *enclosed*: each rank behaves as if it owned only
//! its own chunk after the scatter, so chunks a rank already holds (its
//! binomial subtree) are transmitted to it anyway — `P·(P−1)` transfers in
//! total, the paper's "verbose data transmissions".
//!
//! Both rings walk their chunks rather than compute them: the chunk a rank
//! sends at step `i` is the one it received at step `i − 1`, so
//! `ring_walk` steps the index down by one and wraps at 0, with no
//! division per step. [`ring_step_chunks`] is the closed form of the same
//! walk, for the traffic model and the tests.

use mpsim::{relative_rank, ring_left, ring_right, Rank, Tag};

use crate::chunks::ChunkLayout;
use crate::schedule::SchedOp;

/// One step of the ring walk: which chunk is sent right and which is
/// received from the left at step `i` (1-based), for a rank at root-relative
/// position `rel` in a ring of `size`.
///
/// The closed form the traffic model and the coalescing ring use, and the
/// one the streams' `ring_walk` is tested against.
#[inline]
pub fn ring_step_chunks(rel: Rank, size: usize, i: usize) -> (usize, usize) {
    debug_assert!((1..size).contains(&i));
    // j (sent) = rel − (i−1) mod size ; jnext (received) = rel − i mod size
    let send = (rel + size - ((i - 1) % size)) % size;
    let recv = (rel + size - (i % size)) % size;
    (send, recv)
}

/// Every step of the ring walk in order, as `(i, sent, received)`: the
/// chunk sent at step `i` is the one received at step `i − 1`, so each
/// step is the previous one moved down by one chunk, wrapping at 0 — the
/// same pairs as [`ring_step_chunks`] without a division per step.
pub(crate) fn ring_walk(rel: Rank, size: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut send = rel;
    (1..size).map(move |i| {
        let recv = if send == 0 { size - 1 } else { send - 1 };
        let step = (i, send, recv);
        send = recv;
        step
    })
}

/// Rank `rank`'s ops of the enclosed (native) ring allgather over a buffer
/// binomial-scattered from `root`: the final loop of the paper's Listing 1
/// *without* the tuned `step`/`flag` short-circuit — a full `sendrecv` at
/// every one of the `P − 1` steps, forwarding right the chunk that arrived
/// from the left one step earlier.
///
/// Lazy on purpose: a rank's `P − 1` ops are never materialised, so a
/// `P = 1024` world of live rank tasks holds no per-rank op list.
pub fn native_ring_ops(
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
) -> impl Iterator<Item = SchedOp> {
    let layout = ChunkLayout::new(nbytes, p);
    let (left, right) = (ring_left(rank, p), ring_right(rank, p));
    let rel = relative_rank(rank, root, p);
    ring_walk(rel, p).map(move |(_, send_chunk, recv_chunk)| {
        SchedOp::sendrecv(
            "ring",
            right,
            Tag::ALLGATHER,
            layout.range(send_chunk),
            left,
            Tag::ALLGATHER,
            layout.range(recv_chunk),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::{bcast_with, Algorithm};
    use mpsim::{Communicator, ThreadWorld};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 197 + 13) as u8).collect()
    }

    /// scatter + native ring = complete broadcast; returns traffic.
    fn run(size: usize, nbytes: usize, root: Rank) -> mpsim::WorldTraffic {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_with(comm, &mut buf, root, Algorithm::ScatterRingNative).unwrap();
            assert_eq!(buf, src, "rank {} incomplete", comm.rank());
        });
        out.traffic
    }

    #[test]
    fn step_chunks_walk_the_ring() {
        // Figure 3 for 8 processes: p_rel sends its own chunk first.
        let (send, recv) = ring_step_chunks(5, 8, 1);
        assert_eq!((send, recv), (5, 4));
        let (send, recv) = ring_step_chunks(5, 8, 2);
        assert_eq!((send, recv), (4, 3));
        // wrap-around
        let (send, recv) = ring_step_chunks(0, 8, 1);
        assert_eq!((send, recv), (0, 7));
        let (send, recv) = ring_step_chunks(0, 8, 7);
        assert_eq!((send, recv), (2, 1));
    }

    #[test]
    fn streams_walk_the_closed_form() {
        use crate::ring_tuned::{step_flag, tuned_ring_ops, Endpoint};
        let t = Tag::ALLGATHER;
        for p in 1..=64usize {
            for root in 0..p {
                for nbytes in [0, p - 1, 4 * p - 1, 4 * p] {
                    let layout = ChunkLayout::new(nbytes, p);
                    for rank in 0..p {
                        let rel = relative_rank(rank, root, p);
                        let (left, right) = (ring_left(rank, p), ring_right(rank, p));
                        let (step, flag) =
                            if p > 1 { step_flag(rel, p) } else { (0, Endpoint::SendOnly) };
                        let steps = (1..p).map(|i| {
                            let (s, r) = ring_step_chunks(rel, p, i);
                            (i, layout.range(s), layout.range(r))
                        });
                        let native = steps
                            .clone()
                            .map(|(_, s, r)| SchedOp::sendrecv("ring", right, t, s, left, t, r));
                        let tuned = steps.map(|(i, s, r)| match flag {
                            _ if step <= p - i => {
                                SchedOp::sendrecv("ring_tuned", right, t, s, left, t, r)
                            }
                            Endpoint::RecvOnly => SchedOp::recv("ring_tuned", left, t, r),
                            Endpoint::SendOnly => SchedOp::send("ring_tuned", right, t, s),
                        });
                        let case = (p, root, nbytes, rank);
                        assert!(native_ring_ops(rank, p, nbytes, root).eq(native), "{case:?}");
                        assert!(tuned_ring_ops(rank, p, nbytes, root).eq(tuned), "{case:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn each_rank_receives_every_foreign_chunk_exactly_once() {
        // Over P−1 steps the received chunk indices are all chunks except rel.
        for size in 2..12 {
            for rel in 0..size {
                let mut seen: Vec<usize> =
                    (1..size).map(|i| ring_step_chunks(rel, size, i).1).collect();
                seen.sort_unstable();
                let expected: Vec<usize> = (0..size).filter(|&c| c != rel).collect();
                assert_eq!(seen, expected);
            }
        }
    }

    #[test]
    fn completes_broadcast_pof2() {
        run(8, 64, 0);
        run(8, 61, 3);
        run(16, 257, 15);
    }

    #[test]
    fn completes_broadcast_npof2() {
        run(10, 100, 0);
        run(10, 97, 7);
        run(9, 50, 4);
        run(3, 2, 1);
    }

    #[test]
    fn transfer_count_is_p_times_p_minus_1() {
        // Ring phase alone moves P·(P−1) messages; scatter adds P−1.
        for size in [4usize, 8, 10, 13] {
            let traffic = run(size, 16 * size, 0);
            let expected = (size * (size - 1) + (size - 1)) as u64;
            assert_eq!(traffic.total_msgs(), expected, "size={size}");
        }
    }

    #[test]
    fn paper_counts_8_and_10() {
        // Paper §IV: "The number of message transfers in the original ring
        // allgather algorithm is 8 × (8 − 1) = 56 for 8 processes" and
        // "10 × (10 − 1) = 90".
        let t8 = run(8, 80, 0);
        assert_eq!(t8.total_msgs() - 7, 56); // minus the 7 scatter messages
        let t10 = run(10, 100, 0);
        assert_eq!(t10.total_msgs() - 9, 90);
    }

    #[test]
    fn tiny_and_zero_messages() {
        run(8, 3, 0); // empty trailing chunks → zero-byte sendrecvs
        run(5, 0, 2); // all chunks empty
        run(2, 1, 0);
    }

    #[test]
    fn single_rank_is_noop() {
        let t = run(1, 10, 0);
        assert_eq!(t.total_msgs(), 0);
    }
}
