//! Segmented pipeline (chain) broadcast — a classic long-message alternative
//! to scatter-ring-allgather (used by e.g. Open MPI's `chain`/`pipeline`
//! components) implemented as an *extension baseline* for the ablation
//! benches. Not part of the paper's MPICH3 dispatch, but the natural "what
//! else could you do for lmsg" comparison.
//!
//! The buffer is cut into segments of `segment` bytes and ranks form a chain
//! in root-relative order. Like every other broadcast here it is one per-rank
//! op stream ([`pipeline_ops`]) run by the interpreter: a chain rank forwards
//! segment `s − 1` *while* receiving segment `s`, as one fused `sendrecv`,
//! so after the `P−1`-hop fill every link of the chain streams at full
//! bandwidth.

use mpsim::{absolute_rank, relative_rank, AsyncCommunicator, Rank, Result, Tag};

use crate::interp::Interp;
use crate::schedule::{RecvHalf, SchedOp, SendHalf};

/// Rank `rank`'s ops of the pipeline broadcast: a software pipeline of
/// `nseg + 1` slots for `nseg = ⌈nbytes / segment⌉` segments. In slot `s` a
/// rank receives segment `s` from its chain predecessor (if `s < nseg`) and
/// forwards segment `s − 1` to its successor (if `s > 0`) as ONE op — the
/// root's slots are lone sends, the tail's lone receives.
///
/// The fusion is the point. The interpreter forwards the envelope it landed
/// one slot earlier by reference (an exact range match), and the concurrent
/// halves keep the forward of `s − 1` overlapped with the arrival of `s`
/// under rendezvous; the plainer `recv(s); send(s)` per segment serialises
/// them and simulates 46–53 % slower (DESIGN §5b).
///
/// `segment == 0` means "one segment" (plain chain).
pub fn pipeline_ops(
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
    segment: usize,
) -> impl Iterator<Item = SchedOp> {
    let segment = if segment == 0 { nbytes.max(1) } else { segment };
    let nseg = nbytes.div_ceil(segment);
    let rel = relative_rank(rank, root, p);
    let prev = (rel > 0).then(|| absolute_rank(rel - 1, root, p));
    let next = (rel + 1 < p).then(|| absolute_rank(rel + 1, root, p));
    let seg = move |s: usize| s * segment..((s + 1) * segment).min(nbytes);
    (0..=nseg).filter_map(move |s| {
        let send =
            next.filter(|_| s > 0).map(|peer| SendHalf { peer, tag: Tag::BCAST, loc: seg(s - 1) });
        let recv =
            prev.filter(|_| s < nseg).map(|peer| RecvHalf { peer, tag: Tag::BCAST, dst: seg(s) });
        (send.is_some() || recv.is_some()).then_some(SchedOp { phase: "pipeline", send, recv })
    })
}

/// Pipeline broadcast of `buf` from `root` with the given `segment` size:
/// [`pipeline_ops`] through the interpreter.
///
/// Message count is `(P−1) · ceil(n / segment)`; every byte crosses every
/// link exactly once (total `(P−1) · n` bytes, the same as binomial — the win
/// is pipelining, not volume). The root stages each segment once and every
/// other rank lands it once, so the world copies exactly `P · n` bytes.
pub async fn bcast_pipeline_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    segment: usize,
) -> Result<()> {
    comm.check_rank(root)?;
    let (rank, p, nbytes) = (comm.rank(), comm.size(), buf.len());
    Interp::new(comm, buf).run(pipeline_ops(rank, p, nbytes, root, segment)).await.map(drop)
}

/// Analytic message count of the pipeline broadcast.
pub fn pipeline_msgs(nbytes: usize, segment: usize, p: usize) -> u64 {
    if p <= 1 || nbytes == 0 {
        return 0;
    }
    let segment = if segment == 0 { nbytes } else { segment };
    (p as u64 - 1) * (nbytes.div_ceil(segment) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::pattern;
    use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld};

    fn run(size: usize, nbytes: usize, root: usize, segment: usize) -> mpsim::WorldTraffic {
        let src = pattern(nbytes, 77);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            complete_now(bcast_pipeline_async(&SyncComm::new(comm), &mut buf, root, segment))
                .unwrap();
            assert_eq!(buf, src, "rank {}", comm.rank());
        });
        out.traffic
    }

    #[test]
    fn completes_for_many_shapes() {
        for &(size, nbytes, root, segment) in &[
            (2usize, 64usize, 0usize, 16usize),
            (8, 100, 0, 7),   // ragged last segment
            (8, 100, 5, 100), // single segment
            (10, 1000, 9, 0), // segment=0 → whole buffer
            (5, 3, 2, 1),     // one byte per segment
            (7, 0, 3, 16),    // empty buffer
            (1, 64, 0, 8),    // single rank
        ] {
            run(size, nbytes, root, segment);
        }
    }

    #[test]
    fn message_count_matches_model() {
        for &(size, nbytes, segment) in
            &[(8usize, 100usize, 7usize), (4, 64, 16), (10, 1000, 128), (3, 50, 0)]
        {
            let traffic = run(size, nbytes, 0, segment);
            assert_eq!(
                traffic.total_msgs(),
                pipeline_msgs(nbytes, segment, size),
                "size={size} nbytes={nbytes} segment={segment}"
            );
            // every byte crosses every link once
            assert_eq!(traffic.total_bytes(), ((size - 1) * nbytes) as u64);
        }
    }

    #[test]
    fn pipelining_beats_whole_message_chain_on_the_simulator() {
        use netsim::{NetworkModel, Placement, SimWorld};
        let nbytes = 1 << 16;
        let time_with_segment = |segment: usize| {
            let mut model = NetworkModel::uniform(500.0, 1.0);
            model.eager_threshold = usize::MAX; // eager so forwards overlap
            let src = pattern(nbytes, 78);
            SimWorld::run(model, Placement::new(4), 8, move |comm| {
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                complete_now(bcast_pipeline_async(&SyncComm::new(comm), &mut buf, 0, segment))
                    .unwrap();
            })
            .makespan_ns
        };
        let chunked = time_with_segment(4096);
        let whole = time_with_segment(0);
        assert!(
            chunked < whole * 0.6,
            "pipelining should cut the chain time substantially: {chunked} vs {whole}"
        );
    }
}
