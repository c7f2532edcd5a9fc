//! The **tuned, non-enclosed ring allgather** — the paper's contribution
//! (Section IV, Figures 4 and 5, Listing 1).
//!
//! After the binomial scatter, rank `rel` (root-relative) already holds the
//! contiguous chunk interval `[rel, rel + own(rel))` — not just its own
//! chunk. The native ring ignores this and re-delivers those chunks. The
//! tuned ring computes, per rank, a `(step, flag)` pair from the same
//! power-of-two mask walk the scatter used:
//!
//! * a rank whose *right neighbour* is a subtree root of `step` chunks stops
//!   **sending** after `P − step` steps (`flag = RecvOnly`): everything it
//!   would forward later is already in the neighbour's buffer;
//! * a rank that *is* a subtree root of `step` chunks stops **receiving**
//!   after `P − step` steps (`flag = SendOnly`): the remaining chunks on the
//!   ring are exactly the ones it already owns.
//!
//! Both members of each ring edge compute the same `step`, so every posted
//! receive is matched by a send — the algorithm stays deadlock-free while
//! skipping exactly the redundant transfers. Step count stays `P − 1`;
//! transfers drop from `P(P−1)` to `P² − Σ own(rel)` (56 → 44 for `P = 8`,
//! 90 → 75 for `P = 10`).
//!
//! The stream walks the same chunks as the native ring (`ring::ring_walk`,
//! one index step per op) and folds `step <= P − i` into one bound, fixed
//! before the first op: per op it only compares the step number.

use mpsim::{ceil_pof2, relative_rank, ring_left, ring_right, Rank, Tag};

use crate::chunks::ChunkLayout;
use crate::ring::ring_walk;
use crate::schedule::SchedOp;

/// What a rank degrades to once the redundant phase of the ring is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `flag = 0` in the paper: keep sending, stop receiving — this rank is a
    /// scatter-subtree root and already owns the remaining chunks.
    SendOnly,
    /// `flag = 1` in the paper: keep receiving, stop sending — this rank's
    /// right neighbour is a subtree root and needs nothing more from us.
    RecvOnly,
}

/// The paper's added pseudo-code: compute `(step, flag)` for a rank at
/// root-relative position `rel` in a ring of `size ≥ 2`.
///
/// `step` is the chunk-count of the relevant subtree (this rank's for
/// [`Endpoint::SendOnly`], the right neighbour's for [`Endpoint::RecvOnly`]),
/// capped at `size − subtree_root` for non-power-of-two sizes. During ring
/// step `i` (1-based), the rank does a full `sendrecv` while
/// `step <= size − i` and degrades to its endpoint role afterwards.
pub fn step_flag(rel: Rank, size: usize) -> (usize, Endpoint) {
    assert!(size >= 2, "step_flag needs a ring of at least 2");
    assert!(rel < size);
    let mut mask = ceil_pof2(size);
    while mask > 1 {
        let right_rel = if rel + 1 < size { rel + 1 } else { rel + 1 - size };
        if right_rel % mask == 0 {
            let step = if right_rel + mask > size { size - right_rel } else { mask };
            return (step, Endpoint::RecvOnly);
        }
        if rel.is_multiple_of(mask) {
            let step = if rel + mask > size { size - rel } else { mask };
            return (step, Endpoint::SendOnly);
        }
        mask >>= 1;
    }
    unreachable!("every rank matches by mask 2: rel or rel+1 is even");
}

/// Whether the rank `(step, flag)` sends at ring step `i` (1-based).
#[inline]
pub fn sends_at(step: usize, flag: Endpoint, size: usize, i: usize) -> bool {
    step <= size - i || flag == Endpoint::SendOnly
}

/// Whether the rank `(step, flag)` receives at ring step `i` (1-based).
#[inline]
pub fn receives_at(step: usize, flag: Endpoint, size: usize, i: usize) -> bool {
    step <= size - i || flag == Endpoint::RecvOnly
}

/// Rank `rank`'s ops of the tuned (non-enclosed) ring allgather over a
/// buffer binomial-scattered from `root` — the allgather phase of
/// `MPI_Bcast_opt`: a full `sendrecv` while `step <= P − i`, then the lone
/// half [`step_flag`] leaves this rank (`SendOnly` keeps sending chunks its
/// scatter subtree already owns, `RecvOnly` keeps receiving).
pub fn tuned_ring_ops(
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
) -> impl Iterator<Item = SchedOp> {
    tuned_ring_ops_with(rank, p, nbytes, root, step_flag)
}

/// [`tuned_ring_ops`] with an injectable `(step, flag)` function — the
/// mutation hook of the `schedcheck` negative suite: a corrupted
/// `step_flag` (e.g. off by one) must produce a schedule the static
/// analyses reject, and a run that does not complete cleanly.
///
/// Lazy like [`crate::ring::native_ring_ops`]; `step_flag_fn` is evaluated
/// once, up front.
pub fn tuned_ring_ops_with(
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
    step_flag_fn: impl Fn(Rank, usize) -> (usize, Endpoint),
) -> impl Iterator<Item = SchedOp> {
    let layout = ChunkLayout::new(nbytes, p);
    let (left, right) = (ring_left(rank, p), ring_right(rank, p));
    let rel = relative_rank(rank, root, p);
    // A ring of one has no steps (and `step_flag` no answer).
    let (step, flag) = if p > 1 { step_flag_fn(rel, p) } else { (0, Endpoint::SendOnly) };
    // `step <= p − i` as one bound on `i`, so the closure keeps neither
    // `step` nor `p` and the rank's future does not grow with the walk.
    let last_full = p.saturating_sub(step);
    ring_walk(rel, p).map(move |(i, send_chunk, recv_chunk)| {
        let send = layout.range(send_chunk);
        let recv = layout.range(recv_chunk);
        if i <= last_full {
            SchedOp::sendrecv("ring_tuned", right, Tag::ALLGATHER, send, left, Tag::ALLGATHER, recv)
        } else {
            match flag {
                Endpoint::RecvOnly => SchedOp::recv("ring_tuned", left, Tag::ALLGATHER, recv),
                Endpoint::SendOnly => SchedOp::send("ring_tuned", right, Tag::ALLGATHER, send),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::{bcast_with, Algorithm};
    use crate::ring::ring_step_chunks;
    use crate::scatter::owned_chunks;
    use mpsim::{Communicator, ThreadWorld, WorldTraffic};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 61 + 5) as u8).collect()
    }

    fn run(size: usize, nbytes: usize, root: Rank) -> WorldTraffic {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_with(comm, &mut buf, root, Algorithm::ScatterRingTuned).unwrap();
            assert_eq!(buf, src, "rank {} incomplete", comm.rank());
        });
        out.traffic
    }

    #[test]
    fn step_flag_paper_example_p8() {
        // Hand-derived from Figure 4 (verified against the paper's narrative).
        use Endpoint::*;
        let expect = [
            (8, SendOnly), // root: sends all 7 steps, never receives
            (2, RecvOnly),
            (2, SendOnly),
            (4, RecvOnly),
            (4, SendOnly), // "from the fifth step on process 4 stops receiving"
            (2, RecvOnly),
            (2, SendOnly),
            (8, RecvOnly), // left neighbour of root: receives all, never sends
        ];
        for (rel, &e) in expect.iter().enumerate() {
            assert_eq!(step_flag(rel, 8), e, "rel={rel}");
        }
    }

    #[test]
    fn step_flag_paper_example_p10() {
        use Endpoint::*;
        let expect = [
            (10, SendOnly), // root
            (2, RecvOnly),
            (2, SendOnly),
            (4, RecvOnly),
            (4, SendOnly), // stops receiving after step 6 (10−4)
            (2, RecvOnly),
            (2, SendOnly),
            (2, RecvOnly),  // right neighbour p8 owns {8,9} → step 2
            (2, SendOnly),  // p8 owns {8,9}: 2^3 capped to 10−8 = 2
            (10, RecvOnly), // left neighbour of root
        ];
        for (rel, &e) in expect.iter().enumerate() {
            assert_eq!(step_flag(rel, 10), e, "rel={rel}");
        }
    }

    #[test]
    fn send_only_step_equals_scatter_ownership() {
        // The SendOnly rank's `step` must equal the number of chunks the
        // binomial scatter left in its buffer — that is what makes skipping
        // receives safe.
        for size in 2..130 {
            for rel in 0..size {
                let (step, flag) = step_flag(rel, size);
                if flag == Endpoint::SendOnly {
                    assert_eq!(step, owned_chunks(rel, size), "size={size} rel={rel}");
                }
            }
        }
    }

    #[test]
    fn recv_only_step_describes_right_neighbours_ownership() {
        // A RecvOnly rank stops sending because its right neighbour already
        // owns the tail of the ring: its `step` must equal the neighbour's
        // scatter ownership. (The neighbour itself may be classified
        // RecvOnly-with-full-step when it sits just left of the root — e.g.
        // rel = size−2 for odd sizes — but its ownership is still what
        // bounds our sends.)
        for size in 2..130 {
            for rel in 0..size {
                let (step, flag) = step_flag(rel, size);
                if flag == Endpoint::RecvOnly {
                    let right = (rel + 1) % size;
                    assert_eq!(step, owned_chunks(right, size), "size={size} rel={rel}");
                }
            }
        }
    }

    #[test]
    fn every_edge_send_matched_by_receive() {
        for size in 2..64 {
            for rel in 0..size {
                let (s_step, s_flag) = step_flag(rel, size);
                let right = (rel + 1) % size;
                let (r_step, r_flag) = step_flag(right, size);
                for i in 1..size {
                    assert_eq!(
                        sends_at(s_step, s_flag, size, i),
                        receives_at(r_step, r_flag, size, i),
                        "mismatched edge {rel}→{right} at step {i}, size={size}"
                    );
                }
            }
        }
    }

    #[test]
    fn received_chunks_are_exactly_the_missing_ones() {
        // A rank receives chunks rel−1, rel−2, … while it still receives;
        // the union with its scatter ownership must cover all chunks with no
        // chunk received twice and no owned chunk re-received.
        for size in 2..80 {
            for rel in 0..size {
                let (step, flag) = step_flag(rel, size);
                let mut have: Vec<bool> = (0..size)
                    .map(|c| {
                        let own = owned_chunks(rel, size);
                        // owned interval [rel, rel+own) — never wraps
                        (rel..rel + own).contains(&c)
                    })
                    .collect();
                for i in 1..size {
                    if receives_at(step, flag, size, i) {
                        let (_, recv_chunk) = ring_step_chunks(rel, size, i);
                        assert!(
                            !have[recv_chunk],
                            "size={size} rel={rel} re-received {recv_chunk}"
                        );
                        have[recv_chunk] = true;
                    }
                }
                assert!(have.iter().all(|&h| h), "size={size} rel={rel} incomplete");
            }
        }
    }

    #[test]
    fn completes_broadcast_many_shapes() {
        for &(size, nbytes, root) in &[
            (8usize, 64usize, 0usize),
            (8, 61, 3),
            (10, 100, 0),
            (10, 97, 7),
            (9, 50, 4),
            (16, 1024, 9),
            (3, 2, 1),
            (2, 10, 1),
            (12, 7, 0), // nbytes < P
            (6, 0, 5),  // zero bytes
        ] {
            run(size, nbytes, root);
        }
    }

    #[test]
    fn paper_transfer_counts() {
        // §IV: tuned ring = 44 transfers for P=8 (56 − 12) and 75 for P=10
        // (90 − 15). The scatter adds P−1 on top.
        let t8 = run(8, 80, 0);
        assert_eq!(t8.total_msgs(), 44 + 7);
        let t10 = run(10, 100, 0);
        assert_eq!(t10.total_msgs(), 75 + 9);
    }

    #[test]
    fn transfer_counts_independent_of_root() {
        for root in 0..10 {
            let t = run(10, 100, root);
            assert_eq!(t.total_msgs(), 75 + 9, "root={root}");
        }
    }

    #[test]
    fn never_more_traffic_than_native() {
        for size in 2..24 {
            let tuned = run(size, size * 8, 0).total_msgs();
            let native = (size * (size - 1) + size - 1) as u64;
            assert!(tuned <= native, "size={size}: tuned {tuned} > native {native}");
        }
    }

    #[test]
    fn single_rank_is_noop() {
        let t = run(1, 16, 0);
        assert_eq!(t.total_msgs(), 0);
    }
}
