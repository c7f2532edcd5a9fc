//! Chunk-coalescing variant of the tuned ring allgather: the tuned ring's op
//! stream ([`crate::ring_tuned::tuned_ring_ops`]) with two local rewrites,
//! run by the same [`Interp`]reter as every other phase.
//!
//! 1. **Degraded-tail merging** — a [`Endpoint::SendOnly`] rank stops
//!    receiving precisely because everything it will send for the rest of
//!    the ring is already in its buffer: chunks `(rel + step) mod P`,
//!    `rel + step − 1`, …, `rel + 2`. That tail departs at the first
//!    degraded step as one `send` per address-contiguous run of chunks —
//!    one run, or two when the tail wraps through chunk 0 (the root, and
//!    e.g. `rel = 4` at `P = 8`). The right neighbour's matching receives
//!    merge the same way.
//! 2. **Segmenting** — a transfer larger than `max_envelope` is split into
//!    `chunk_bytes` segments; within one ring step the segments of the two
//!    directions pair as `sendrecv` up to the shorter side and the rest post
//!    as lone ops.
//!
//! Both rewrites are pure functions of the *sender's* root-relative
//! position, the chunk geometry and the [`CoalescePolicy`], all of which the
//! receiver also knows, so both ends of every ring edge derive the same
//! plan and per-`(source, tag)` FIFO order does the rest. Every op is one
//! contiguous byte range, so a merged send is a sub-view of the retained
//! envelope or one counted staging copy — never a gather — and `schedcheck`
//! checks the coalesced schedule like any other stream.
//!
//! The `sendrecv` phase has a data dependency that forbids cross-step
//! merging — the chunk sent at step `i + 1` only arrives at step `i` — so
//! only degraded tails merge.

use std::ops::Range;

use mpsim::{relative_rank, ring_left, ring_right, AsyncCommunicator, Rank, Result, Tag};

use crate::chunks::ChunkLayout;
use crate::interp::{Interp, PhaseSink};
use crate::ring::ring_step_chunks;
use crate::ring_tuned::{step_flag, Endpoint};
use crate::scatter::scatter_ops;
use crate::schedule::SchedOp;

/// Tuning knobs of the coalescing ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Segment size in bytes of a transfer larger than `max_envelope`.
    /// `0` or `usize::MAX` (or any value ≥ the chunk size) keeps whole
    /// chunks as single messages.
    pub chunk_bytes: usize,
    /// Largest transfer, in bytes, allowed to travel as one message: a
    /// degraded tail merges only when its total fits, and a larger transfer
    /// is split into `chunk_bytes` segments. `0` segments every transfer
    /// and merges no tail that carries a byte; `usize::MAX` merges every
    /// tail.
    pub max_envelope: usize,
}

impl CoalescePolicy {
    /// Merge every degraded tail, split nothing — the fewest messages
    /// (38 for `P = 8`, 66 for `P = 10`; see [`coalesced_envelope_count`]).
    pub const fn unlimited() -> Self {
        CoalescePolicy { chunk_bytes: usize::MAX, max_envelope: usize::MAX }
    }

    /// One message per `chunk_bytes` segment, no merging — the baseline a
    /// segmented per-chunk transport would produce.
    pub const fn per_chunk(chunk_bytes: usize) -> Self {
        CoalescePolicy { chunk_bytes, max_envelope: 0 }
    }

    /// Segments of `chunk_bytes` for transfers above `max_envelope` bytes,
    /// and tails merged up to that size.
    pub const fn new(chunk_bytes: usize, max_envelope: usize) -> Self {
        CoalescePolicy { chunk_bytes, max_envelope }
    }

    /// The message ranges of one transfer of `range`: whole when it fits
    /// `max_envelope` (a zero-byte chunk is one empty message, like the
    /// plain ring's), else `chunk_bytes` segments.
    fn segments(&self, range: Range<usize>) -> Vec<Range<usize>> {
        let unit = if self.chunk_bytes == 0 { usize::MAX } else { self.chunk_bytes };
        if range.len() <= self.max_envelope || range.len() <= unit {
            return vec![range];
        }
        range.clone().step_by(unit).map(|start| start..range.end.min(start + unit)).collect()
    }
}

/// One directed ring edge, planned from its sender's root-relative position
/// `rel` alone — the sender plans its outbound edge and the receiver plans
/// its inbound one from its left neighbour's `rel`, and the two agree.
struct Edge {
    rel: Rank,
    step: usize,
    flag: Endpoint,
    /// The merged degraded tail, if the sender is [`Endpoint::SendOnly`]
    /// and the policy admits it: the first degraded step and one byte range
    /// per chunk run, in step order (chunk 0 first when the tail wraps).
    tail: Option<(usize, Vec<Range<usize>>)>,
}

impl Edge {
    fn new(layout: &ChunkLayout, rel: Rank, p: usize, policy: &CoalescePolicy) -> Self {
        let (step, flag) = step_flag(rel, p);
        let first = p - step + 1; // first step with `step > P − i`
        let mut edge = Edge { rel, step, flag, tail: None };
        if flag != Endpoint::SendOnly || first >= p {
            return edge;
        }
        // Chunk intervals: the tail walks down one chunk per step, so a run
        // breaks only where it wraps from chunk 0 to chunk P − 1.
        let mut runs: Vec<Range<usize>> = Vec::new();
        for i in first..p {
            let chunk = ring_step_chunks(rel, p, i).0;
            match runs.last_mut() {
                Some(run) if run.start == chunk + 1 => run.start = chunk,
                _ => runs.push(chunk..chunk + 1),
            }
        }
        let runs: Vec<Range<usize>> = runs.into_iter().map(|run| layout.span(run)).collect();
        let total: usize = runs.iter().map(Range::len).sum();
        if total <= policy.max_envelope {
            edge.tail = Some((first, runs));
        }
        edge
    }

    /// The messages crossing this edge at ring step `i`.
    fn msgs(
        &self,
        layout: &ChunkLayout,
        p: usize,
        i: usize,
        policy: &CoalescePolicy,
    ) -> Vec<Range<usize>> {
        let chunk = layout.range(ring_step_chunks(self.rel, p, i).0);
        if self.step <= p - i {
            return policy.segments(chunk);
        }
        match (self.flag, &self.tail) {
            (Endpoint::RecvOnly, _) => Vec::new(),
            (Endpoint::SendOnly, Some((first, runs))) if i == *first => runs.clone(),
            (Endpoint::SendOnly, Some(_)) => Vec::new(),
            (Endpoint::SendOnly, None) => policy.segments(chunk),
        }
    }
}

/// Rank `rank`'s ops of the coalescing tuned ring allgather over a buffer
/// binomial-scattered from `root`: [`crate::ring_tuned::tuned_ring_ops`]
/// with degraded tails merged and oversized transfers segmented under
/// `policy` (see the module docs).
///
/// Lazy like the plain ring; each step's ops are planned when reached.
/// Rendezvous-safe under every policy: the root's left neighbour never
/// sends, so the ring is a chain and the lone ops a rewrite leaves cannot
/// wait in a cycle (`schedcheck` checks both semantics for `P ≤ 64`).
pub fn coalesced_ring_ops(
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
    policy: &CoalescePolicy,
) -> impl Iterator<Item = SchedOp> {
    let policy = *policy;
    let layout = ChunkLayout::new(nbytes, p);
    let (left, right) = (ring_left(rank, p), ring_right(rank, p));
    let rel = relative_rank(rank, root, p);
    // No edges in a ring of one (and `step_flag` has no answer there).
    let edges = (p > 1).then(|| {
        (Edge::new(&layout, rel, p, &policy), Edge::new(&layout, (rel + p - 1) % p, p, &policy))
    });
    let tag = Tag::ALLGATHER;
    (1..p).flat_map(move |i| {
        let Some((out, inbound)) = &edges else { return Vec::new() };
        let mut sends = out.msgs(&layout, p, i, &policy).into_iter();
        let mut recvs = inbound.msgs(&layout, p, i, &policy).into_iter();
        // Pairs first, then whichever side has messages left, as lone ops.
        let mut ops = Vec::new();
        loop {
            ops.push(match (sends.next(), recvs.next()) {
                (Some(s), Some(r)) => SchedOp::sendrecv("coalesce", right, tag, s, left, tag, r),
                (Some(s), None) => SchedOp::send("coalesce", right, tag, s),
                (None, Some(r)) => SchedOp::recv("coalesce", left, tag, r),
                (None, None) => return ops,
            });
        }
    })
}

/// `MPI_Bcast_opt` with a coalescing allgather phase: [`scatter_ops`] then
/// [`coalesced_ring_ops`] through one interpreter, settled once after the
/// ring, like every phase table.
pub async fn bcast_opt_coalesced_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    policy: &CoalescePolicy,
) -> Result<()> {
    comm.check_rank(root)?;
    let (rank, p, nbytes) = (comm.rank(), comm.size(), buf.len());
    let mut interp = Interp::new(comm, buf);
    interp.phase(scatter_ops(rank, p, nbytes, root).into_iter()).await?;
    interp.phase(coalesced_ring_ops(rank, p, nbytes, root, policy)).await?;
    interp.settle().await
}

/// Closed-form message count of the coalescing ring under
/// [`CoalescePolicy::unlimited`]: the tuned ring's transfer count minus what
/// each SendOnly rank's merged tail saves — its `step − 1` lone sends become
/// one send per chunk run, two when the tail wraps through chunk 0
/// (`rel + step = P`, which a tail of at least two chunks then spans).
///
/// `44 → 38` for `P = 8`, `75 → 66` for `P = 10`; pinned against the
/// planned volume of [`Collective::Coalesced`](crate::Collective)'s schedule
/// and against executed runs.
pub fn coalesced_envelope_count(size: usize) -> u64 {
    if size <= 1 {
        return 0;
    }
    let mut saved = 0u64;
    for rel in 0..size {
        let (step, flag) = step_flag(rel, size);
        if flag == Endpoint::SendOnly {
            let tail = (step - 1) as u64;
            let runs = if rel + step == size && tail >= 2 { 2 } else { 1 };
            saved += tail.saturating_sub(runs);
        }
    }
    crate::traffic::tuned_ring_msgs(size) - saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::{bcast_schedule, Algorithm};
    use crate::schedule::{Collective, Schedule};
    use crate::traffic::{bcast_volume, scatter_msgs};
    use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld, WorldTraffic};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 97 + 13) as u8).collect()
    }

    fn run(size: usize, nbytes: usize, root: Rank, policy: CoalescePolicy) -> WorldTraffic {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            complete_now(bcast_opt_coalesced_async(&SyncComm::new(comm), &mut buf, root, &policy))
                .unwrap();
            assert_eq!(buf, src, "rank {} incomplete", comm.rank());
        });
        out.traffic
    }

    #[test]
    fn broadcasts_correctly_many_shapes_and_policies() {
        let policies = [
            CoalescePolicy::unlimited(),
            CoalescePolicy::per_chunk(usize::MAX),
            CoalescePolicy::per_chunk(4),
            CoalescePolicy::new(4, 16),
            CoalescePolicy::new(3, 7),
            CoalescePolicy::new(1, 2),
            CoalescePolicy { chunk_bytes: 0, max_envelope: 0 },
        ];
        for &(size, nbytes, root) in &[
            (8usize, 64usize, 0usize),
            (8, 61, 3),
            (10, 100, 0),
            (10, 97, 7),
            (9, 50, 4),
            (16, 257, 9),
            (3, 2, 1),
            (2, 10, 1),
            (12, 7, 0),
            (6, 0, 5),
            (1, 9, 0),
        ] {
            for policy in policies {
                let t = run(size, nbytes, root, policy);
                let planned =
                    Collective::Coalesced(policy).schedule(size, nbytes, root).planned_volume();
                assert_eq!(
                    (t.total_msgs(), t.total_bytes()),
                    planned,
                    "{size} {nbytes} {policy:?}"
                );
            }
        }
    }

    #[test]
    fn paper_shapes_merge_tails_into_runs() {
        // The logical transfers are the paper's 44 and 75; merging each
        // SendOnly tail into one send per chunk run leaves 38 and 66 — the
        // root's and rel 4's wrapping tails (P = 8) take two runs each.
        let t8 = run(8, 80, 0, CoalescePolicy::unlimited());
        assert_eq!(t8.total_msgs(), 38 + 7);
        assert_eq!(t8.total_bytes(), bcast_volume(Algorithm::ScatterRingTuned, 80, 8).bytes);
        let t10 = run(10, 100, 0, CoalescePolicy::unlimited());
        assert_eq!(t10.total_msgs(), 66 + 9);
        assert_eq!(coalesced_envelope_count(8), 38);
        assert_eq!(coalesced_envelope_count(10), 66);
        let tail =
            |rel| Edge::new(&ChunkLayout::new(80, 8), rel, 8, &CoalescePolicy::unlimited()).tail;
        assert_eq!(tail(0), Some((1, vec![0..10, 20..80])));
        assert_eq!(tail(4), Some((5, vec![0..10, 60..80])));
        let (first, runs) = tail(2).unwrap();
        assert_eq!((first, runs.len(), runs[0].clone()), (7, 1, 40..50));
    }

    #[test]
    fn per_chunk_whole_chunks_is_the_tuned_ring() {
        // No merging, no splitting: the rewrite is the identity.
        for &(p, nbytes, root) in &[(8usize, 80usize, 0usize), (10, 100, 3), (9, 55, 1)] {
            let coalesced =
                Collective::Coalesced(CoalescePolicy::per_chunk(0)).schedule(p, nbytes, root);
            let tuned = bcast_schedule(Algorithm::ScatterRingTuned, p, nbytes, root);
            let halves = |s: &Schedule| -> Vec<Vec<_>> {
                s.ranks
                    .iter()
                    .map(|r| r.ops.iter().map(|op| (op.send.clone(), op.recv.clone())).collect())
                    .collect()
            };
            assert_eq!(halves(&coalesced), halves(&tuned), "P={p}");
        }
    }

    #[test]
    fn segments_split_oversized_transfers() {
        // 8 ranks × 32-byte chunks, 4-byte segments: 8 messages per
        // transfer, bytes untouched.
        let t = run(8, 256, 0, CoalescePolicy::per_chunk(4));
        assert_eq!(t.total_msgs(), 44 * 8 + 7);
        assert_eq!(t.total_bytes(), bcast_volume(Algorithm::ScatterRingTuned, 256, 8).bytes);
        // A 16-byte cap rejects whole chunks and every tail.
        let t = run(8, 256, 0, CoalescePolicy::new(8, 16));
        assert_eq!(t.total_msgs(), 44 * 4 + 7);
        // A one-chunk cap keeps chunks whole and merges only the tails that
        // fit: rel 2 and rel 6 have one-chunk tails anyway; the root's
        // (7 chunks) and rel 4's (3 chunks) stay per step.
        let t = run(8, 256, 0, CoalescePolicy::new(8, 32));
        assert_eq!(t.total_msgs(), 44 + 7);
        // Uncapped with segments: whole chunks never split, tails merge.
        let t = run(8, 256, 0, CoalescePolicy::new(4, usize::MAX));
        assert_eq!(t.total_msgs(), 38 + 7);
    }

    #[test]
    fn closed_form_matches_the_schedule_and_execution() {
        for p in 2..=64 {
            for root in [0, p / 3] {
                let sched =
                    Collective::Coalesced(CoalescePolicy::unlimited()).schedule(p, 4 * p, root);
                let (msgs, bytes) = sched.planned_volume();
                let scatter = scatter_msgs(4 * p, p);
                assert_eq!(msgs, coalesced_envelope_count(p) + scatter, "P={p} root={root}");
                assert_eq!(bytes, bcast_volume(Algorithm::ScatterRingTuned, 4 * p, p).bytes);
            }
        }
        for p in 2..20 {
            let t = run(p, p * 8, 0, CoalescePolicy::unlimited());
            assert_eq!(t.total_msgs(), coalesced_envelope_count(p) + (p - 1) as u64, "P={p}");
        }
    }
}
