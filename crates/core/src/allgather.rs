//! Standalone `MPI_Allgather` — the collective whose *ring* variant MPICH
//! reuses inside the broadcast studied by the paper.
//!
//! In a true allgather every rank starts with exactly one block, so the
//! enclosed ring is *not* wasteful here: the redundancy the paper removes
//! only exists in the broadcast context, where the preceding binomial
//! scatter leaves subtree roots holding more than their own block
//! (`schedcheck` checks both halves of that sentence on the same stream).
//!
//! One entry point, [`allgather_async`], runs an [`AllgatherAlgorithm`] as a
//! per-rank op stream through the interpreter; the variants mirror MPICH's
//! repertoire:
//!
//! * `Ring` — `P − 1` steps of neighbour exchange; bandwidth optimal
//!   (`(P−1)/P · n` bytes per rank), latency `O(P)`. It *is* the broadcast's
//!   [`native_ring_ops`] with `root = 0` over the gathered buffer.
//! * `RecursiveDoubling` — `log2 P` steps, power-of-two worlds only; the
//!   broadcast's [`rd_ops`] with `root = 0`.
//! * `Bruck` — [`bruck_ops`], `ceil(log2 P)` steps for *any* `P`, at the
//!   cost of a local re-rotation.

use mpsim::{ceil_log2, is_pof2, AsyncCommunicator, CommError, Rank, Result, Tag};

use crate::interp::Interp;
use crate::rd_allgather::rd_ops;
use crate::ring::native_ring_ops;
use crate::schedule::{SchedOp, Schedule, ScheduleSource};

/// An allgather algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgorithm {
    /// Neighbour-exchange ring.
    Ring,
    /// Recursive doubling (power-of-two worlds).
    RecursiveDoubling,
    /// Bruck's dissemination algorithm.
    Bruck,
}

impl AllgatherAlgorithm {
    /// Stable schedule-source name of this algorithm.
    pub fn schedule_name(self) -> &'static str {
        match self {
            AllgatherAlgorithm::Ring => "allgather/ring",
            AllgatherAlgorithm::RecursiveDoubling => "allgather/rd",
            AllgatherAlgorithm::Bruck => "allgather/bruck",
        }
    }

    /// Whether the algorithm is defined for a world of `p` ranks: recursive
    /// doubling needs a power of two, the others run anywhere.
    pub fn supports(self, p: usize) -> bool {
        self != AllgatherAlgorithm::RecursiveDoubling || is_pof2(p)
    }
}

/// Rank `rank`'s ops of Bruck's allgather of `block` bytes per rank, over a
/// *rotated* staging buffer (slot `k` = block of rank `(rank + k) % P`, so
/// the own block sits in slot 0): round `k` holds `have = 2ᵏ` contiguous
/// slots, sends the first `min(have, P − have)` of them `have` ranks down and
/// receives as many from `have` ranks up, appended after its own.
pub fn bruck_ops(rank: Rank, p: usize, block: usize) -> impl Iterator<Item = SchedOp> {
    (0..ceil_log2(p)).map(move |k| {
        let have = 1usize << k;
        let count = have.min(p - have);
        let tag = Tag(Tag::ALLGATHER.0 + 1 + k);
        SchedOp::sendrecv(
            "bruck",
            (rank + p - have) % p,
            tag,
            0..count * block,
            (rank + have) % p,
            tag,
            have * block..(have + count) * block,
        )
    })
}

/// Gather every rank's `sendbuf` (equal lengths) into `recvbuf`, in rank
/// order, with the given algorithm: place the own block, then interpret this
/// rank's stream over the gathered buffer.
///
/// Fails before anything is posted with [`CommError::Unsupported`] when the
/// world size is one the algorithm is not defined for
/// ([`AllgatherAlgorithm::supports`]), and with [`CommError::OutOfBounds`]
/// when `recvbuf` is not exactly `size × sendbuf.len()` bytes.
pub async fn allgather_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    sendbuf: &[u8],
    recvbuf: &mut [u8],
    algorithm: AllgatherAlgorithm,
) -> Result<()> {
    let (rank, p, block) = (comm.rank(), comm.size(), sendbuf.len());
    if !algorithm.supports(p) {
        return Err(CommError::Unsupported { what: algorithm.schedule_name(), size: p });
    }
    let total = block * p;
    if recvbuf.len() != total {
        return Err(CommError::OutOfBounds { disp: 0, count: total, len: recvbuf.len() });
    }
    let own = rank * block;
    match algorithm {
        AllgatherAlgorithm::Bruck => {
            let mut rotated = vec![0u8; total];
            rotated[..block].copy_from_slice(sendbuf);
            Interp::new(comm, &mut rotated).run(bruck_ops(rank, p, block)).await?;
            // Rotate back: slot 0 is this rank's block, the wrap is at P − rank.
            let (high, low) = rotated.split_at(total - own);
            recvbuf[own..].copy_from_slice(high);
            recvbuf[..own].copy_from_slice(low);
        }
        AllgatherAlgorithm::Ring => {
            recvbuf[own..own + block].copy_from_slice(sendbuf);
            Interp::new(comm, recvbuf).run(native_ring_ops(rank, p, total, 0)).await?;
        }
        AllgatherAlgorithm::RecursiveDoubling => {
            recvbuf[own..own + block].copy_from_slice(sendbuf);
            Interp::new(comm, recvbuf).run(rd_ops(rank, p, total, 0)).await?;
        }
    }
    Ok(())
}

/// The full symbolic schedule of [`allgather_async`] for `block` bytes per rank:
/// the own block (slot 0 of the rotated space for Bruck) is the entry
/// validity, then the stream [`allgather_async`] runs.
///
/// # Panics
///
/// Panics if `p` is a world size the algorithm does not support — a
/// precondition here; [`allgather_async`] returns an error instead.
pub fn allgather_schedule(algorithm: AllgatherAlgorithm, p: usize, block: usize) -> Schedule {
    let name = algorithm.schedule_name();
    assert!(algorithm.supports(p), "{name} is not defined for P = {p}");
    let total = block * p;
    let mut s = Schedule::new(name, p, total);
    for (rank, rs) in s.ranks.iter_mut().enumerate() {
        rs.require(0..total);
        let own = if algorithm == AllgatherAlgorithm::Bruck { 0 } else { rank * block };
        rs.mark_valid(own..own + block);
        match algorithm {
            AllgatherAlgorithm::Bruck => rs.ops.extend(bruck_ops(rank, p, block)),
            AllgatherAlgorithm::Ring => rs.ops.extend(native_ring_ops(rank, p, total, 0)),
            AllgatherAlgorithm::RecursiveDoubling => rs.ops.extend(rd_ops(rank, p, total, 0)),
        }
    }
    s
}

struct AllgatherSource(AllgatherAlgorithm);

impl ScheduleSource for AllgatherSource {
    fn name(&self) -> &'static str {
        self.0.schedule_name()
    }

    fn supports(&self, p: usize) -> bool {
        self.0.supports(p)
    }

    fn schedule(&self, p: usize, nbytes: usize, _root: usize) -> Schedule {
        allgather_schedule(self.0, p, nbytes)
    }
}

pub(crate) fn schedule_sources() -> Vec<Box<dyn ScheduleSource>> {
    vec![
        Box::new(AllgatherSource(AllgatherAlgorithm::Ring)),
        Box::new(AllgatherSource(AllgatherAlgorithm::RecursiveDoubling)),
        Box::new(AllgatherSource(AllgatherAlgorithm::Bruck)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{complete_now, Communicator, EventWorld, SyncComm, ThreadWorld};

    /// Run one variant and return every rank's gathered buffer + traffic.
    fn run(
        algo: AllgatherAlgorithm,
        size: usize,
        block: usize,
    ) -> (Vec<Vec<u8>>, mpsim::WorldTraffic) {
        let out = ThreadWorld::run(size, |comm| {
            let me = comm.rank() as u8;
            let sendbuf: Vec<u8> = (0..block).map(|i| me ^ (i as u8)).collect();
            let mut recvbuf = vec![0u8; block * comm.size()];
            complete_now(allgather_async(&SyncComm::new(comm), &sendbuf, &mut recvbuf, algo))
                .unwrap();
            recvbuf
        });
        (out.results, out.traffic)
    }

    fn expected(size: usize, block: usize) -> Vec<u8> {
        (0..size).flat_map(|r| (0..block).map(move |i| (r as u8) ^ (i as u8))).collect()
    }

    #[test]
    fn ring_gathers_everything() {
        for &(size, block) in &[(1usize, 4usize), (2, 8), (8, 16), (10, 3), (13, 1), (7, 0)] {
            let (bufs, traffic) = run(AllgatherAlgorithm::Ring, size, block);
            let want = expected(size, block);
            for (rank, buf) in bufs.iter().enumerate() {
                assert_eq!(buf, &want, "ring size={size} block={block} rank={rank}");
            }
            assert!(traffic.is_balanced());
            // true allgather ring: exactly P(P−1) messages — here that IS optimal
            if size > 1 {
                assert_eq!(traffic.total_msgs(), (size * (size - 1)) as u64);
            }
        }
    }

    #[test]
    fn rd_gathers_everything_pof2() {
        for &(size, block) in &[(1usize, 5usize), (2, 7), (4, 4), (8, 9), (16, 2)] {
            let (bufs, traffic) = run(AllgatherAlgorithm::RecursiveDoubling, size, block);
            let want = expected(size, block);
            for buf in &bufs {
                assert_eq!(buf, &want, "rd size={size} block={block}");
            }
            if size > 1 {
                assert_eq!(traffic.total_msgs(), (size as u64) * u64::from(size.trailing_zeros()));
            }
        }
    }

    #[test]
    fn rd_rejects_npof2() {
        use AllgatherAlgorithm::RecursiveDoubling;
        for size in [3usize, 6] {
            let want = Err(CommError::Unsupported { what: "allgather/rd", size });
            let threads = ThreadWorld::run(size, |comm| {
                complete_now(allgather_async(
                    &SyncComm::new(comm),
                    &[1; 4],
                    &mut vec![0; 4 * size],
                    RecursiveDoubling,
                ))
            });
            let events = EventWorld::run(size, move |comm| async move {
                allgather_async(&comm, &[1; 4], &mut vec![0; 4 * size], RecursiveDoubling).await
            });
            for (results, traffic) in
                [(threads.results, threads.traffic), (events.results, events.traffic)]
            {
                assert!(results.iter().all(|r| *r == want), "size={size}: {results:?}");
                assert_eq!(traffic.total_msgs(), 0, "size={size}");
            }
        }
        // A mis-sized receive buffer is the caller's error too, not a panic.
        let out = ThreadWorld::run(2, |comm| {
            complete_now(allgather_async(
                &SyncComm::new(comm),
                &[1; 4],
                &mut [0; 7],
                AllgatherAlgorithm::Ring,
            ))
        });
        assert_eq!(out.results[0], Err(CommError::OutOfBounds { disp: 0, count: 8, len: 7 }));
        assert_eq!(out.traffic.total_msgs(), 0);
    }

    #[test]
    fn bruck_gathers_everything_any_p() {
        for &(size, block) in
            &[(1usize, 4usize), (2, 3), (3, 5), (5, 8), (8, 2), (10, 7), (13, 1), (9, 0)]
        {
            let (bufs, traffic) = run(AllgatherAlgorithm::Bruck, size, block);
            let want = expected(size, block);
            for (rank, buf) in bufs.iter().enumerate() {
                assert_eq!(buf, &want, "bruck size={size} block={block} rank={rank}");
            }
            // ceil(log2 P) steps, one message per rank per step
            if size > 1 {
                assert_eq!(traffic.total_msgs(), (size as u64) * u64::from(mpsim::ceil_log2(size)));
            }
        }
    }

    #[test]
    fn bruck_uses_fewer_messages_than_ring_for_npof2() {
        let (_, ring) = run(AllgatherAlgorithm::Ring, 10, 4);
        let (_, bruck) = run(AllgatherAlgorithm::Bruck, 10, 4);
        assert!(bruck.total_msgs() < ring.total_msgs());
    }
}
