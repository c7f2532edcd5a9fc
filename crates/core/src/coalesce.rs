//! Chunk-coalescing variant of the tuned ring allgather: same transfer
//! *schedule* as [`crate::ring_tuned`], fewer physical envelopes.
//!
//! The tuned ring moves one message per chunk transfer. Two observations let
//! several of those logical messages ride one wire envelope without changing
//! a byte of what moves:
//!
//! 1. **Sub-chunk pipelining** — each rank-chunk can be subdivided into
//!    `chunk_bytes`-sized sub-chunks (the unit a segmented transport would
//!    pipeline). Sent one-by-one they cost one envelope each; gathered
//!    through [`mpsim::Communicator::send_vectored`] they cost *one* envelope
//!    while still being accounted as `k` logical messages.
//! 2. **Degraded-tail merging** — a [`Endpoint::SendOnly`] rank stops
//!    receiving precisely because everything it will send for the rest of
//!    the ring is already in its buffer. Its remaining per-step lone sends
//!    (chunks `rel−i+1` for the degraded steps `i`) can therefore depart as
//!    a single vectored envelope at the first degraded step. The merged
//!    chunk set wraps around the buffer end for the root, which is exactly
//!    the case that needs a genuine multi-span (iovec) descriptor.
//!
//! The `sendrecv` phase has a data dependency that forbids cross-step
//! merging — the chunk sent at step `i+1` only arrives at step `i` — so
//! coalescing there is limited to the sub-chunks of one chunk.
//!
//! Every coalescing decision is **pairwise consistent**: a directed ring
//! edge's envelope structure is a pure function of the *sender's*
//! root-relative position, the chunk geometry and the [`CoalescePolicy`],
//! all of which the receiver also knows. Sender and receiver therefore
//! always agree on how many envelopes cross the edge and which spans each
//! carries; per-`(source, tag)` FIFO ordering does the rest.
//!
//! With `max_envelope = 0` nothing ever coalesces and the executed traffic
//! degenerates to one envelope per sub-chunk — the per-chunk baseline the
//! `ring_coalesce` benchmark compares against.

use mpsim::{
    complete_now, relative_rank, ring_left, ring_right, AsyncCommunicator, Communicator, IoSpan,
    Rank, Result, SyncComm, Tag,
};

use crate::chunks::ChunkLayout;
use crate::ring::ring_step_chunks;
use crate::ring_tuned::{step_flag, Endpoint};
use crate::scatter::binomial_scatter_async;

/// Tuning knobs of the coalescing ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Sub-chunk granularity in bytes: every rank-chunk is split into
    /// `ceil(len / chunk_bytes)` logical messages. `usize::MAX` (or any
    /// value ≥ the chunk size) keeps whole chunks as single messages.
    pub chunk_bytes: usize,
    /// Largest payload, in bytes, allowed to travel as one coalesced
    /// envelope. A transfer whose total exceeds this falls back to one
    /// envelope per sub-chunk; `0` disables coalescing entirely and
    /// `usize::MAX` coalesces everything.
    pub max_envelope: usize,
}

impl CoalescePolicy {
    /// Coalesce whole chunks and merged tails without limit — the fewest
    /// possible envelopes (36 for `P = 8`, 65 for `P = 10`).
    pub const fn unlimited() -> Self {
        CoalescePolicy { chunk_bytes: usize::MAX, max_envelope: usize::MAX }
    }

    /// One envelope per `chunk_bytes` sub-chunk, no coalescing — the
    /// baseline a segmented per-chunk transport would produce.
    pub const fn per_chunk(chunk_bytes: usize) -> Self {
        CoalescePolicy { chunk_bytes, max_envelope: 0 }
    }

    /// Sub-chunk pipelining at `chunk_bytes` with coalescing capped at
    /// `max_envelope` bytes per wire envelope.
    pub const fn new(chunk_bytes: usize, max_envelope: usize) -> Self {
        CoalescePolicy { chunk_bytes, max_envelope }
    }

    fn unit(&self) -> usize {
        if self.chunk_bytes == 0 {
            usize::MAX
        } else {
            self.chunk_bytes
        }
    }
}

/// Append the sub-chunk spans of one byte range, in address order.
fn push_sub_spans(spans: &mut Vec<IoSpan>, range: std::ops::Range<usize>, unit: usize) {
    let mut start = range.start;
    while start < range.end {
        let len = unit.min(range.end - start);
        spans.push(IoSpan::new(start, len));
        start += len;
    }
}

/// The envelopes of one chunk transfer: one envelope carrying all sub-chunk
/// spans when the chunk fits `max_envelope`, else one per sub-chunk. A
/// zero-byte chunk is one empty envelope, mirroring the plain ring's empty
/// message.
fn chunk_units(layout: &ChunkLayout, chunk: usize, policy: &CoalescePolicy) -> Vec<Vec<IoSpan>> {
    let range = layout.range(chunk);
    let total = range.len();
    let mut spans = Vec::new();
    push_sub_spans(&mut spans, range, policy.unit());
    if spans.len() <= 1 || total <= policy.max_envelope {
        vec![spans]
    } else {
        spans.into_iter().map(|s| vec![s]).collect()
    }
}

/// The merged degraded-tail envelope of a [`Endpoint::SendOnly`] sender, if
/// the policy admits it: `Some((first_degraded_step, spans))` with one span
/// per sub-chunk of every tail chunk, listed in step order (which wraps
/// through chunk 0 for large subtrees — the genuinely non-contiguous case).
fn tail_merge(
    layout: &ChunkLayout,
    rel: Rank,
    size: usize,
    step: usize,
    flag: Endpoint,
    policy: &CoalescePolicy,
) -> Option<(usize, Vec<IoSpan>)> {
    if flag != Endpoint::SendOnly {
        return None;
    }
    let first = size - step + 1; // first step with `step > size − i`
    if first >= size {
        return None; // no degraded step (step ≤ 1 never happens, but be safe)
    }
    let mut spans = Vec::new();
    let mut total = 0usize;
    for i in first..size {
        let (send_chunk, _) = ring_step_chunks(rel, size, i);
        let range = layout.range(send_chunk);
        total += range.len();
        push_sub_spans(&mut spans, range, policy.unit());
    }
    (total <= policy.max_envelope).then_some((first, spans))
}

/// Receive one envelope's spans from `src`.
async fn recv_unit<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    unit: &[IoSpan],
    src: Rank,
) -> Result<()> {
    comm.recv_scattered(buf, unit, src, Tag::ALLGATHER).await?;
    Ok(())
}

/// Run the tuned ring allgather with chunk coalescing over a buffer that has
/// been binomial-scattered from `root`.
///
/// Moves exactly the bytes and logical messages of the plain tuned ring
/// ([`crate::ring_tuned::tuned_ring_ops`], when `chunk_bytes` spans whole
/// chunks) in at most as many wire envelopes; the fused-exchange fallback
/// paths assume an eager-ish transport for their unpaired sends, like the
/// fault decorator (rendezvous-everywhere models should keep `max_envelope`
/// at 0 or `usize::MAX` so every step stays fully paired).
///
/// A hand loop, not an op stream: one envelope here carries several planned
/// transfers (vectored spans), which the schedule IR cannot express.
pub async fn ring_allgather_tuned_coalesced_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    policy: &CoalescePolicy,
) -> Result<()> {
    comm.check_rank(root)?;
    let size = comm.size();
    if size == 1 {
        return Ok(());
    }
    let rank = comm.rank();
    let layout = ChunkLayout::new(buf.len(), size);
    let left = ring_left(rank, size);
    let right = ring_right(rank, size);
    let rel = relative_rank(rank, root, size);
    let (step, flag) = step_flag(rel, size);
    // The structure of the inbound edge is the *left neighbour's* outbound
    // structure; recompute its plan so both ends agree without any handshake.
    let rel_in = (rel + size - 1) % size;
    let (step_in, flag_in) = step_flag(rel_in, size);
    let out_tail = tail_merge(&layout, rel, size, step, flag, policy);
    let in_tail = tail_merge(&layout, rel_in, size, step_in, flag_in, policy);

    for i in 1..size {
        let (send_chunk, recv_chunk) = ring_step_chunks(rel, size, i);

        // Outbound envelopes this step (to `right`), from MY (step, flag).
        let out_units: Option<Vec<Vec<IoSpan>>> = if step <= size - i {
            Some(chunk_units(&layout, send_chunk, policy))
        } else if flag == Endpoint::SendOnly {
            match &out_tail {
                Some((first, spans)) => (i == *first).then(|| vec![spans.clone()]),
                None => Some(chunk_units(&layout, send_chunk, policy)),
            }
        } else {
            None
        };

        // Inbound envelopes this step (from `left`), from the SENDER's plan.
        let in_units: Option<Vec<Vec<IoSpan>>> = if step_in <= size - i {
            Some(chunk_units(&layout, recv_chunk, policy))
        } else if flag_in == Endpoint::SendOnly {
            match &in_tail {
                Some((first, spans)) => (i == *first).then(|| vec![spans.clone()]),
                None => Some(chunk_units(&layout, recv_chunk, policy)),
            }
        } else {
            None
        };

        match (out_units, in_units) {
            (Some(su), Some(ru)) => {
                let paired = su.len().min(ru.len());
                for j in 0..paired {
                    comm.sendrecv_vectored(
                        buf,
                        &su[j],
                        right,
                        Tag::ALLGATHER,
                        &ru[j],
                        left,
                        Tag::ALLGATHER,
                    )
                    .await?;
                }
                for unit in &su[paired..] {
                    comm.send_vectored(buf, unit, right, Tag::ALLGATHER).await?;
                }
                for unit in &ru[paired..] {
                    recv_unit(comm, buf, unit, left).await?;
                }
            }
            (Some(su), None) => {
                for unit in &su {
                    comm.send_vectored(buf, unit, right, Tag::ALLGATHER).await?;
                }
            }
            (None, Some(ru)) => {
                for unit in &ru {
                    recv_unit(comm, buf, unit, left).await?;
                }
            }
            (None, None) => {}
        }
    }
    Ok(())
}

/// `MPI_Bcast_opt` with a coalescing allgather phase: binomial scatter
/// followed by [`ring_allgather_tuned_coalesced_async`].
pub fn bcast_opt_coalesced(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
    policy: &CoalescePolicy,
) -> Result<()> {
    complete_now(bcast_opt_coalesced_async(&SyncComm::new(comm), buf, root, policy))
}

/// Async core of [`bcast_opt_coalesced`] — see
/// [`ring_allgather_tuned_coalesced_async`].
pub async fn bcast_opt_coalesced_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    policy: &CoalescePolicy,
) -> Result<()> {
    binomial_scatter_async(comm, buf, root).await?;
    ring_allgather_tuned_coalesced_async(comm, buf, root, policy).await
}

/// Closed-form envelope count of the coalescing ring under
/// [`CoalescePolicy::unlimited`]: the tuned ring's transfer count minus the
/// lone sends each SendOnly rank's merged tail saves.
///
/// `44 → 36` for `P = 8`, `75 → 65` for `P = 10`; validated against executed
/// runs in this module's tests and used by the `schedcheck` reconciliation.
pub fn coalesced_envelope_count(size: usize) -> u64 {
    if size <= 1 {
        return 0;
    }
    let tuned: u64 = crate::traffic::tuned_ring_msgs(size);
    let mut saved = 0u64;
    for rel in 0..size {
        let (step, flag) = step_flag(rel, size);
        if flag == Endpoint::SendOnly {
            let tail = (step - 1) as u64; // lone sends at steps size−step+1 ..= size−1
            saved += tail.saturating_sub(1); // merged into one envelope
        }
    }
    tuned - saved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast::bcast_opt;
    use mpsim::{ThreadWorld, WorldTraffic};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 97 + 13) as u8).collect()
    }

    fn run(size: usize, nbytes: usize, root: Rank, policy: CoalescePolicy) -> WorldTraffic {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_opt_coalesced(comm, &mut buf, root, &policy).unwrap();
            assert_eq!(buf, src, "rank {} incomplete", comm.rank());
        });
        out.traffic
    }

    fn run_plain(size: usize, nbytes: usize, root: Rank) -> WorldTraffic {
        let src = pattern(nbytes);
        let out = ThreadWorld::run(size, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            bcast_opt(comm, &mut buf, root).unwrap();
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
                run(size, nbytes, root, policy);
            }
        }
    }

    #[test]
    fn paper_envelope_counts_whole_chunks() {
        // With whole-chunk messages the logical message counts stay the
        // paper's 44 (+7 scatter) and 75 (+9), while the merged SendOnly
        // tails shrink the wire envelopes to 36 and 65.
        let t8 = run(8, 80, 0, CoalescePolicy::unlimited());
        assert_eq!(t8.total_msgs(), 44 + 7);
        assert_eq!(t8.total_envelopes(), 36 + 7);
        let t10 = run(10, 100, 0, CoalescePolicy::unlimited());
        assert_eq!(t10.total_msgs(), 75 + 9);
        assert_eq!(t10.total_envelopes(), 65 + 9);
        assert_eq!(coalesced_envelope_count(8), 36);
        assert_eq!(coalesced_envelope_count(10), 65);
    }

    #[test]
    fn per_chunk_baseline_matches_plain_tuned_ring() {
        for &(size, nbytes, root) in &[(8usize, 80usize, 0usize), (10, 100, 3), (9, 55, 1)] {
            let base = run(size, nbytes, root, CoalescePolicy::per_chunk(usize::MAX));
            let plain = run_plain(size, nbytes, root);
            assert_eq!(base.total_msgs(), plain.total_msgs());
            assert_eq!(base.total_envelopes(), plain.total_msgs());
            assert_eq!(base.total_bytes(), plain.total_bytes());
        }
    }

    #[test]
    fn coalescing_preserves_bytes_and_messages() {
        // Sub-chunked: 8 ranks × 32-byte chunks, 4-byte sub-chunks → 8
        // logical messages per transfer. Coalescing drops envelopes ~10×
        // while bytes and logical messages are untouched.
        let per_chunk = run(8, 256, 0, CoalescePolicy::per_chunk(4));
        let coalesced = run(8, 256, 0, CoalescePolicy::new(4, usize::MAX));
        assert_eq!(per_chunk.total_bytes(), coalesced.total_bytes());
        assert_eq!(per_chunk.total_msgs(), coalesced.total_msgs());
        assert_eq!(per_chunk.total_msgs(), 44 * 8 + 7);
        assert_eq!(per_chunk.total_envelopes(), 44 * 8 + 7);
        assert_eq!(coalesced.total_envelopes(), 36 + 7);
        assert!(per_chunk.is_balanced() && coalesced.is_balanced());
    }

    #[test]
    fn threshold_falls_back_per_sub_chunk() {
        // 8 ranks × 32-byte chunks, 8-byte sub-chunks. max_envelope = 16
        // rejects both whole chunks (32) and merged tails, so every
        // envelope carries exactly one sub-chunk.
        let t = run(8, 256, 0, CoalescePolicy::new(8, 16));
        assert_eq!(t.total_msgs(), 44 * 4 + 7);
        assert_eq!(t.total_envelopes(), 44 * 4 + 7);
        // Raising the cap to one chunk (32) coalesces steps but not tails
        // larger than one chunk.
        let t = run(8, 256, 0, CoalescePolicy::new(8, 32));
        assert_eq!(t.total_msgs(), 44 * 4 + 7);
        // tails of >1 chunk (rel 0: 7 chunks, rel 4: 3) stay per-step but
        // each step's chunk still coalesces its 4 sub-chunks.
        assert_eq!(t.total_envelopes(), 44 + 7);
    }

    #[test]
    fn envelope_closed_form_matches_execution() {
        for size in 2..20 {
            let t = run(size, size * 8, 0, CoalescePolicy::unlimited());
            let scatter = (size - 1) as u64;
            assert_eq!(
                t.total_envelopes(),
                coalesced_envelope_count(size) + scatter,
                "size={size}"
            );
        }
    }
}
