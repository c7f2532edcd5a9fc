//! Recursive-doubling allgather — phase two of MPICH3's broadcast for
//! *medium* messages with a *power-of-two* process count (`mmsg-pof2`).
//!
//! After the binomial scatter, round `k` (mask `2^k`) has every rank exchange
//! its accumulated aligned block of `2^k` chunks with the partner `rel ^ 2^k`,
//! doubling the block each round: `log2 P` rounds, one message per rank per
//! round (`P·log2 P` transfers), each rank receiving `nbytes·(P−1)/P` bytes in
//! total.
//!
//! MPICH only selects this path when `P` is a power of two (the
//! non-power-of-two fixup rounds are never exercised by broadcast, which
//! falls back to the ring); we mirror that contract:
//! [`crate::bcast::Algorithm::supports`] is `false` for other worlds and
//! `bcast_with` returns [`mpsim::CommError::Unsupported`] before posting
//! anything.

use mpsim::{absolute_rank, relative_rank, Rank, Tag};

use crate::chunks::ChunkLayout;
use crate::schedule::SchedOp;

/// Rank `rank`'s ops of the recursive-doubling allgather over a buffer
/// binomial-scattered from `root`, for a power-of-two `p` (callers go through
/// [`crate::bcast::bcast_ops`] or `bcast_with`, which enforce it): `log₂P` rounds,
/// round `k` exchanging this rank's aligned block of `2ᵏ` chunks with
/// partner `rel ^ 2ᵏ`'s.
///
/// What a rank has accumulated after `k` rounds is exactly the byte span of
/// its aligned `2ᵏ`-chunk block, so both halves of every round are closed
/// forms of `(rel, k)` — no cross-rank table of received lengths.
pub fn rd_ops(rank: Rank, p: usize, nbytes: usize, root: Rank) -> impl Iterator<Item = SchedOp> {
    let layout = ChunkLayout::new(nbytes, p);
    let rel = relative_rank(rank, root, p);
    (0..p.trailing_zeros()).map(move |round| {
        let mask = 1usize << round;
        let partner_rel = rel ^ mask;
        let partner = absolute_rank(partner_rel, root, p);
        let block = |r: Rank| {
            let first = (r >> round) << round;
            layout.span(first..first + mask)
        };
        SchedOp::sendrecv(
            "rd",
            partner,
            Tag::ALLGATHER,
            block(rel),
            partner,
            Tag::ALLGATHER,
            block(partner_rel),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::{bcast_with, Algorithm};
    use crate::interp::Interp;
    use crate::scatter::scatter_ops;
    use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 151 + 11) as u8).collect()
    }

    fn run(size: usize, nbytes: usize, root: Rank) -> mpsim::WorldTraffic {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_with(comm, &mut buf, root, Algorithm::ScatterRdAllgather).unwrap();
            assert_eq!(buf, src, "rank {} incomplete", comm.rank());
        });
        out.traffic
    }

    #[test]
    fn completes_broadcast_pof2() {
        for &(size, nbytes, root) in &[
            (2usize, 16usize, 0usize),
            (4, 64, 1),
            (8, 100, 0),
            (8, 97, 5),
            (16, 12288, 3),
            (32, 1000, 31),
            (1, 8, 0),
        ] {
            run(size, nbytes, root);
        }
    }

    #[test]
    fn handles_tiny_and_zero_messages() {
        run(8, 3, 0); // empty trailing chunks
        run(8, 0, 2);
        run(16, 15, 0);
    }

    #[test]
    fn transfer_count_is_p_log2_p() {
        for size in [2usize, 4, 8, 16] {
            let t = run(size, size * 16, 0);
            let scatter = (size - 1) as u64;
            let expected = (size as u64) * u64::from(size.trailing_zeros());
            assert_eq!(t.total_msgs() - scatter, expected, "size={size}");
        }
    }

    #[test]
    fn allgather_bytes_per_rank() {
        // Each rank receives nbytes − its own chunk during the allgather.
        let (size, nbytes) = (8usize, 80usize);
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            let acomm = SyncComm::new(comm);
            let mut it = Interp::new(&acomm, &mut buf);
            complete_now(it.run(scatter_ops(comm.rank(), size, nbytes, 0))).unwrap();
            complete_now(it.run(rd_ops(comm.rank(), size, nbytes, 0))).unwrap() as u64
        });
        let layout = ChunkLayout::new(nbytes, size);
        for (rel, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (nbytes - layout.count(rel)) as u64, "rel={rel}");
        }
    }
}
