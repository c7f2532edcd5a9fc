//! Binomial-tree broadcast — MPICH3's short-message (`smsg`) algorithm.
//!
//! The whole buffer travels down the same binomial tree the scatter uses,
//! but undivided: `ceil(log2 P)` latency steps, `P − 1` transfers of the full
//! `nbytes`. Optimal for small messages where latency dominates; wasteful in
//! bandwidth for large ones (every transfer carries all `nbytes`), which is
//! why MPICH switches to scatter-based algorithms past 12 KiB.

use mpsim::{
    absolute_rank, complete_now, relative_rank, AsyncCommunicator, Communicator, Rank, Result,
    SyncComm, Tag,
};

use crate::interp::Interp;
use crate::schedule::SchedOp;

/// Rank `rank`'s ops of the binomial-tree broadcast: one receive of the
/// whole buffer from the parent (the rank differing in the lowest set bit of
/// the root-relative position), then one send of it per child, farthest
/// first. At most `⌈log₂P⌉ + 1` ops, hence a `Vec`.
pub fn binomial_ops(rank: Rank, p: usize, nbytes: usize, root: Rank) -> Vec<SchedOp> {
    let relative = relative_rank(rank, root, p);
    let mut ops = Vec::new();
    let mut mask = 1usize;
    while mask < p {
        if relative & mask != 0 {
            let src = absolute_rank(relative - mask, root, p);
            ops.push(SchedOp::recv("binomial", src, Tag::BCAST, 0..nbytes));
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if relative + mask < p {
            let dst = absolute_rank(relative + mask, root, p);
            ops.push(SchedOp::send("binomial", dst, Tag::BCAST, 0..nbytes));
        }
        mask >>= 1;
    }
    ops
}

/// Broadcast `buf` from `root` to every rank via a binomial tree.
pub fn bcast_binomial(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
) -> Result<()> {
    complete_now(bcast_binomial_async(&SyncComm::new(comm), buf, root))
}

/// Async core of [`bcast_binomial`]: [`binomial_ops`] through the
/// interpreter.
///
/// The payload rides one shared envelope: the root stages `buf` once, a
/// non-root receives the envelope itself and pays exactly one copy into the
/// user buffer, and every forward re-sends that same envelope by reference.
/// Per rank that is `nbytes` copied, versus `nbytes` per *hop* (sender
/// copy-in + receiver copy-out on every level) for the copy path kept in
/// [`bcast_binomial_copy_async`]. Wire traffic is identical.
pub async fn bcast_binomial_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
) -> Result<()> {
    comm.check_rank(root)?;
    let ops = binomial_ops(comm.rank(), comm.size(), buf.len(), root);
    Interp::new(comm, buf).run(ops).await.map(drop)
}

/// The pre-zero-copy binomial walk: plain `send`/`recv`, so every hop pays
/// a sender-side copy-in and a receiver-side copy-out. Kept as the
/// differential baseline for the `zero_copy` bench group and the
/// bytes-copied regression tests — deliberately a hand loop, not a stream:
/// it is the reference the interpreter's copy bill is compared against.
pub fn bcast_binomial_copy(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
) -> Result<()> {
    complete_now(bcast_binomial_copy_async(&SyncComm::new(comm), buf, root))
}

/// Async core of [`bcast_binomial_copy`]; see that function.
pub async fn bcast_binomial_copy_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    if size == 1 {
        return Ok(());
    }
    let relative = relative_rank(comm.rank(), root, size);

    let mut mask = 1usize;
    while mask < size {
        if relative & mask != 0 {
            let src = absolute_rank(relative - mask, root, size);
            comm.recv(buf, src, Tag::BCAST).await?;
            break;
        }
        mask <<= 1;
    }

    mask >>= 1;
    while mask > 0 {
        if relative + mask < size {
            let dst = absolute_rank(relative + mask, root, size);
            comm.send(buf, dst, Tag::BCAST).await?;
        }
        mask >>= 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 89 + 3) as u8).collect()
    }

    fn run(size: usize, nbytes: usize, root: Rank) -> mpsim::WorldTraffic {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_binomial(comm, &mut buf, root).unwrap();
            assert_eq!(buf, src, "rank {}", comm.rank());
        });
        out.traffic
    }

    #[test]
    fn completes_for_many_shapes() {
        for &(size, nbytes, root) in &[
            (2usize, 16usize, 0usize),
            (8, 100, 0),
            (8, 100, 5),
            (10, 1, 9),
            (13, 12288, 6),
            (1, 8, 0),
            (7, 0, 3),
        ] {
            run(size, nbytes, root);
        }
    }

    #[test]
    fn exactly_p_minus_1_full_size_transfers() {
        for &(size, nbytes) in &[(8usize, 64usize), (10, 100), (13, 33)] {
            let t = run(size, nbytes, 0);
            assert_eq!(t.total_msgs(), (size - 1) as u64);
            assert_eq!(t.total_bytes(), ((size - 1) * nbytes) as u64);
        }
    }

    #[test]
    fn root_sends_ceil_log2_p_messages() {
        // The root has one child per bit level: ceil(log2 P) sends.
        for size in 2..40usize {
            let t = run(size, 8, 0);
            assert_eq!(t.per_rank[0].msgs_sent, u64::from(mpsim::ceil_log2(size)), "size={size}");
            assert_eq!(t.per_rank[0].msgs_recvd, 0);
        }
    }

    #[test]
    fn every_non_root_receives_exactly_once() {
        let t = run(11, 64, 4);
        for (rank, st) in t.per_rank.iter().enumerate() {
            assert_eq!(st.msgs_recvd, u64::from(rank != 4), "rank={rank}");
        }
    }
}
