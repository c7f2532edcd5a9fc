//! Binomial-tree scatter — phase one of the scatter-(ring|rd)-allgather
//! broadcasts (Figures 1 and 2 of the paper; `scatter_for_bcast` in MPICH).
//!
//! The root divides its `nbytes` buffer into `P` chunks and disseminates them
//! down a binomial tree rooted at itself: in the first step the root sends
//! the upper half of the chunks to the rank `P/2` (rounded to a power of two)
//! positions away, spawning a subtree, and so on. After `ceil(log2 P)` steps
//! every rank `r` (in root-relative numbering) holds the contiguous chunk
//! interval `[r, r + own(r))` where `own(r) = min(2^tz(r), P − r)` and
//! `tz` is the number of trailing zero bits (`own(0) = P` for the root).
//!
//! That ownership interval is exactly what the tuned ring allgather's
//! `(step, flag)` computation relies on — see [`crate::ring_tuned`].

use mpsim::{
    absolute_rank, complete_now, relative_rank, AsyncCommunicator, Communicator, Rank, Result,
    SharedBuf, SyncComm, Tag,
};

use crate::chunks::ChunkLayout;
use crate::interp::Interp;
use crate::schedule::SchedOp;

/// Number of chunks rank `relative` (root-relative) holds after the scatter:
/// `min(2^trailing_zeros(relative), P − relative)`, with the root holding all
/// `P`.
///
/// This is the closed form of the binomial-tree delivery; it is validated
/// against the executed scatter in this module's tests and drives the
/// analytic traffic model.
pub fn owned_chunks(relative: Rank, size: usize) -> usize {
    debug_assert!(relative < size);
    if relative == 0 {
        size
    } else {
        let pow = 1usize << relative.trailing_zeros().min(usize::BITS - 1);
        pow.min(size - relative)
    }
}

/// Rank `rank`'s ops of the binomial scatter of `nbytes` from `root` over `p`
/// ranks: at most one receive — the rank's whole subtree span, from the
/// parent that differs in its lowest set bit — then one send per child,
/// highest distance first (Figure 1's order: 0→4, 0→2, 0→1), each peeling
/// the upper half off what is still held.
///
/// No receive is posted when the rank's displacement already exhausts the
/// buffer (`nbytes < P` chunks) and no send for an empty subtree. The
/// received length is the closed-form subtree span
/// `span(rel .. rel + own(rel))`, so a rank derives its own list without any
/// cross-rank message lengths. At most `⌈log₂P⌉ + 1` ops, hence a `Vec`.
pub fn scatter_ops(rank: Rank, p: usize, nbytes: usize, root: Rank) -> Vec<SchedOp> {
    let layout = ChunkLayout::new(nbytes, p);
    let scatter_size = layout.scatter_size();
    let relative = relative_rank(rank, root, p);
    let mut ops = Vec::new();
    let mut curr_size = if relative == 0 { nbytes } else { 0 };
    let mut mask = 1usize;
    while mask < p {
        if relative & mask != 0 {
            let disp = layout.disp(relative);
            if disp < nbytes {
                let src = absolute_rank(relative - mask, root, p);
                ops.push(SchedOp::recv("scatter", src, Tag::SCATTER, disp..nbytes));
                let own = owned_chunks(relative, p);
                curr_size = layout.span_bytes(relative..relative + own);
            }
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if relative + mask < p {
            let send_size = curr_size.saturating_sub(scatter_size * mask);
            if send_size > 0 {
                let dst = absolute_rank(relative + mask, root, p);
                let disp = layout.disp(relative + mask);
                let loc = disp..disp + send_size;
                ops.push(SchedOp::send("scatter", dst, Tag::SCATTER, loc));
                curr_size -= send_size;
            }
        }
        mask >>= 1;
    }
    ops
}

/// Run the binomial scatter phase of a scatter-based broadcast.
///
/// `buf` is the full `nbytes` broadcast buffer on every rank; on entry only
/// the root's contents are meaningful. On return, rank `r` holds chunks
/// `[rel(r), rel(r) + owned_chunks(rel(r), P))` of the root's data in place.
///
/// Returns the number of payload bytes *present in this rank's buffer* (its
/// ownership in bytes): the full subtree span it received — forwarding to
/// children copies bytes onward but does not remove them.
pub fn binomial_scatter(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
) -> Result<usize> {
    complete_now(binomial_scatter_async(&SyncComm::new(comm), buf, root))
}

/// Async core of [`binomial_scatter`]: [`scatter_ops`] through the
/// interpreter. Every child's subtree is a refcounted sub-view of the
/// arriving envelope, so a non-root rank's only copy is landing its own
/// subtree span in its user buffer; the root stages each child's span once.
pub async fn binomial_scatter_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
) -> Result<usize> {
    comm.check_rank(root)?;
    let (rank, p, nbytes) = (comm.rank(), comm.size(), buf.len());
    let received = Interp::new(comm, buf).run(scatter_ops(rank, p, nbytes, root)).await?;
    Ok(if rank == root { nbytes } else { received })
}

/// Root-side scatter from an **already-shared** envelope: every child's
/// subtree is a refcounted sub-view ([`SharedBuf::slice`]) of `src`, so
/// this path copies nothing at all. Must run on the root — a non-root's
/// stream starts with a receive, which this send-only entry point rejects
/// with [`mpsim::CommError::OutOfBounds`]. Returns `src.len()`, the root's
/// retained bytes, matching [`binomial_scatter_async`].
pub async fn binomial_scatter_shared_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    src: &SharedBuf,
    root: Rank,
) -> Result<usize> {
    comm.check_rank(root)?;
    let ops = scatter_ops(comm.rank(), comm.size(), src.len(), root);
    Interp::from_shared(comm, src).run(ops).await?;
    Ok(src.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    /// Fill a reference pattern that makes positions distinguishable.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// Run the scatter on a thread world and return each rank's buffer and
    /// retained byte count.
    fn run_scatter(size: usize, nbytes: usize, root: Rank) -> (Vec<Vec<u8>>, Vec<usize>) {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            let kept = binomial_scatter(comm, &mut buf, root).unwrap();
            (buf, kept)
        });
        let (bufs, kept) = out.results.into_iter().unzip();
        (bufs, kept)
    }

    #[test]
    fn shared_root_traffic_matches_mutable_scatter() {
        for &(size, nbytes, root) in &[(8usize, 64usize, 0usize), (10, 97, 7), (13, 77, 3)] {
            let src = pattern(nbytes);
            let immutably = ThreadWorld::run(size, |comm| {
                if comm.rank() == root {
                    let acomm = SyncComm::new(comm);
                    let shared = acomm.make_shared(&src);
                    complete_now(binomial_scatter_shared_async(&acomm, &shared, root)).unwrap();
                } else {
                    let mut buf = vec![0u8; nbytes];
                    binomial_scatter(comm, &mut buf, root).unwrap();
                }
            })
            .traffic;
            let mutably = ThreadWorld::run(size, |comm| {
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                binomial_scatter(comm, &mut buf, root).unwrap();
            })
            .traffic;
            assert_eq!(immutably.total_msgs(), mutably.total_msgs(), "size={size}");
            assert_eq!(immutably.total_bytes(), mutably.total_bytes(), "size={size}");
        }
    }

    #[test]
    fn shared_entry_point_rejects_a_non_root_instead_of_panicking() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            if comm.rank() == 0 {
                let mut buf = vec![7u8; 8];
                binomial_scatter(comm, &mut buf, 0).map(drop)
            } else {
                let shared = acomm.make_shared(&[0u8; 8]);
                complete_now(binomial_scatter_shared_async(&acomm, &shared, 0)).map(drop)
            }
        });
        assert_eq!(out.results[0], Ok(()));
        assert!(matches!(out.results[1], Err(mpsim::CommError::OutOfBounds { .. })));
    }

    #[test]
    fn every_rank_gets_its_ownership_interval() {
        for &(size, nbytes) in
            &[(8usize, 64usize), (8, 61), (10, 100), (10, 97), (9, 55), (5, 3), (16, 1), (7, 0)]
        {
            let src = pattern(nbytes);
            let (bufs, kept) = run_scatter(size, nbytes, 0);
            let layout = ChunkLayout::new(nbytes, size);
            for rel in 0..size {
                let own = owned_chunks(rel, size);
                let span = layout.span(rel..(rel + own).min(size));
                assert_eq!(
                    &bufs[rel][span.clone()],
                    &src[span.clone()],
                    "size={size} nbytes={nbytes} rel={rel}"
                );
                assert_eq!(
                    kept[rel],
                    span.end - span.start,
                    "curr_size mismatch size={size} nbytes={nbytes} rel={rel}"
                );
            }
        }
    }

    #[test]
    fn nonzero_root_rotates_ownership() {
        let size = 10;
        let nbytes = 100;
        let root = 7;
        let src = pattern(nbytes);
        let (bufs, _) = run_scatter(size, nbytes, root);
        let layout = ChunkLayout::new(nbytes, size);
        for (rank, buf) in bufs.iter().enumerate() {
            let rel = mpsim::relative_rank(rank, root, size);
            let own = owned_chunks(rel, size);
            let span = layout.span(rel..(rel + own).min(size));
            assert_eq!(&buf[span.clone()], &src[span], "rank={rank} rel={rel}");
        }
    }

    #[test]
    fn owned_chunks_matches_paper_figure_1() {
        // P = 8 (Figure 4 top row): {all}, {1}, {2,3}, {3}, {4..7}, {5}, {6,7}, {7}
        let own: Vec<_> = (0..8).map(|r| owned_chunks(r, 8)).collect();
        assert_eq!(own, vec![8, 1, 2, 1, 4, 1, 2, 1]);
    }

    #[test]
    fn owned_chunks_matches_paper_figure_2() {
        // P = 10 (Figure 5 top row): root all, p4 gets {4..7}, p8 gets {8,9}
        let own: Vec<_> = (0..10).map(|r| owned_chunks(r, 10)).collect();
        assert_eq!(own, vec![10, 1, 2, 1, 4, 1, 2, 1, 2, 1]);
    }

    #[test]
    fn owned_chunks_covers_everything_exactly_via_tree() {
        // The union of [r, r+own(r)) over odd-level... simply: every chunk c
        // is owned by its scatter-tree ancestors only; the *sum* of owned
        // equals the total bytes retained, and every chunk is owned by at
        // least one rank (its own index).
        for size in 1..70 {
            for rel in 0..size {
                let own = owned_chunks(rel, size);
                assert!(own >= 1);
                assert!(rel + own <= size, "interval escapes: rel={rel} size={size}");
            }
        }
    }

    #[test]
    fn scatter_message_count_is_p_minus_1() {
        // Binomial scatter delivers exactly one message to every non-root rank.
        for &(size, nbytes) in &[(8usize, 64usize), (10, 100), (13, 77)] {
            let src = pattern(nbytes);
            let out = ThreadWorld::run(size, |comm| {
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                binomial_scatter(comm, &mut buf, 0).unwrap();
            });
            assert_eq!(out.traffic.total_msgs(), (size - 1) as u64);
            assert!(out.traffic.is_balanced());
        }
    }

    #[test]
    fn scatter_bytes_on_wire_match_subtree_sizes() {
        // Each rank receives exactly its subtree's bytes: total wire bytes =
        // sum over non-root ranks of span(rel..rel+own).
        let (size, nbytes) = (10, 97);
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            binomial_scatter(comm, &mut buf, 0).unwrap();
        });
        let layout = ChunkLayout::new(nbytes, size);
        let expected: usize =
            (1..size).map(|rel| layout.span_bytes(rel..rel + owned_chunks(rel, size))).sum();
        assert_eq!(out.traffic.total_bytes(), expected as u64);
    }

    #[test]
    fn tiny_message_smaller_than_p() {
        // nbytes < P: trailing ranks receive nothing but must not hang.
        let (bufs, kept) = run_scatter(8, 3, 0);
        let src = pattern(3);
        assert_eq!(&bufs[0][..], &src[..]);
        assert_eq!(kept[0], 3);
        for rel in 1..3 {
            assert_eq!(bufs[rel][rel], src[rel]);
            assert_eq!(kept[rel], 1);
        }
        for &k in &kept[3..8] {
            assert_eq!(k, 0);
        }
    }

    #[test]
    fn single_rank_scatter_is_identity() {
        let (bufs, kept) = run_scatter(1, 10, 0);
        assert_eq!(bufs[0], pattern(10));
        assert_eq!(kept[0], 10);
    }

    #[test]
    fn zero_byte_scatter() {
        let (_, kept) = run_scatter(6, 0, 2);
        assert!(kept.iter().all(|&k| k == 0));
    }
}
