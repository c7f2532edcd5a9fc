//! The [`Communicator`] trait — what the two *blocking* executors
//! ([`ThreadComm`](crate::ThreadComm), `netsim::SimComm`) implement and what
//! the blocking entry points of the collectives accept.
//!
//! Nothing above the executors implements this trait: decorators and
//! collectives are written once against
//! [`AsyncCommunicator`](crate::AsyncCommunicator), and a blocking backend
//! enters that code through [`SyncComm`](crate::SyncComm) +
//! [`complete_now`](crate::complete_now) (`acomm.rs` is the only module that
//! knows a blocking backend exists).

use crate::error::{CommError, Result};
use crate::pool::SharedBuf;
use crate::rank::{Rank, Tag};

/// Blocking, tag-matched point-to-point communication within a fixed world.
///
/// The contract mirrors the slice of MPI used by MPICH's broadcast code:
///
/// * Messages between a given `(sender, receiver, tag)` triple are
///   **non-overtaking**: they are received in the order they were sent.
/// * [`recv`](Communicator::recv) blocks until a matching message arrives and
///   returns the actual payload length; the payload must fit in the provided
///   buffer or [`CommError::Truncation`] is returned.
/// * [`send`](Communicator::send) may be buffered (eager) or synchronous
///   (rendezvous) depending on the backend and message size — exactly the
///   freedom MPI gives implementations. Algorithms must not rely on either.
/// * [`sendrecv`](Communicator::sendrecv) behaves like a send and a receive
///   executing *concurrently*, so rings of `sendrecv` cannot deadlock
///   (MPI_Sendrecv semantics).
///
/// Self-messaging (`dest == rank`) is permitted and loops back locally.
pub trait Communicator {
    /// This process's rank, in `0..size()`.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Blocking tagged send of `buf` to `dest`.
    fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()>;

    /// Blocking tagged receive from `src` into `buf`.
    ///
    /// Returns the number of payload bytes written (which may be smaller than
    /// `buf.len()`, like an MPI receive with a larger count).
    fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize>;

    /// Deadline-bounded receive: like [`recv`](Communicator::recv), but
    /// failing with [`CommError::Timeout`] if no matching message arrives
    /// within `timeout`.
    ///
    /// On expiry nothing has been consumed: a message that arrives later
    /// stays queued for the next matching receive. Backends that know the
    /// peer can no longer send (it exited or crashed) may fail early with
    /// [`CommError::PeerFailed`] instead of waiting out the deadline — this
    /// is the failure detector the self-healing collectives in `bcast-core`
    /// are built on.
    fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: std::time::Duration,
    ) -> Result<usize>;

    /// Combined concurrent send+receive (MPI_Sendrecv).
    ///
    /// The default implementation is only correct for backends whose `send`
    /// never blocks on the receiver (eager/buffered); synchronous backends
    /// must override it with a genuinely concurrent implementation.
    fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        self.send(sendbuf, dest, sendtag)?;
        self.recv(recvbuf, src, recvtag)
    }

    /// Block until every rank in the world has entered the barrier.
    fn barrier(&self) -> Result<()>;

    /// Current time in nanoseconds on this backend's clock.
    ///
    /// Wall-clock backends return real elapsed time since world start;
    /// simulator backends return this rank's *virtual* time. Benchmarks use
    /// differences of `now_ns` around an operation uniformly on both.
    fn now_ns(&self) -> u64;

    /// Validate that `rank` names a member of this world.
    fn check_rank(&self, rank: Rank) -> Result<()> {
        if rank < self.size() {
            Ok(())
        } else {
            Err(CommError::InvalidRank { rank, size: self.size() })
        }
    }

    /// Gathering send: transmit the concatenation of `spans` of `buf` as
    /// **one** message (a `writev`-style iovec send).
    ///
    /// The wire format is the plain byte concatenation of the segments in
    /// list order — no header — so a single-span vectored send is
    /// indistinguishable from [`send`](Communicator::send) of that slice,
    /// and the two sides of a transfer may freely mix plain and vectored
    /// calls as long as byte counts line up. An empty span list is a
    /// zero-byte message.
    ///
    /// Spans must lie inside `buf` and be pairwise disjoint
    /// ([`CommError::OutOfBounds`] / [`CommError::SpanOverlap`]).
    ///
    /// The default implementation assembles the payload in a temporary
    /// `Vec` and forwards to `send` (so traffic accounting degrades to one
    /// logical message per envelope); backends override it to gather
    /// straight into their transmit envelope and record one logical message
    /// per span but a single envelope (see `TrafficStats::envelopes_sent`).
    fn send_vectored(&self, buf: &[u8], spans: &[IoSpan], dest: Rank, tag: Tag) -> Result<()> {
        let total = validate_spans(buf.len(), spans)?;
        let mut tmp = Vec::with_capacity(total);
        for s in spans {
            tmp.extend_from_slice(&buf[s.range()]);
        }
        self.send(&tmp, dest, tag)
    }

    /// Scattering receive: receive **one** message and split its bytes into
    /// `spans` of `buf` in list order (a `readv`-style iovec receive).
    ///
    /// Returns the number of payload bytes scattered. A message shorter
    /// than the span total fills a prefix of the span list, exactly as a
    /// short plain receive fills a prefix of the buffer; a longer one fails
    /// with [`CommError::Truncation`] against the span total.
    ///
    /// The default implementation receives into a temporary and scatters;
    /// backends override it to copy each segment directly out of the
    /// matched envelope.
    fn recv_scattered(
        &self,
        buf: &mut [u8],
        spans: &[IoSpan],
        src: Rank,
        tag: Tag,
    ) -> Result<usize> {
        let total = validate_spans(buf.len(), spans)?;
        let mut tmp = vec![0u8; total];
        let n = self.recv(&mut tmp, src, tag)?;
        Ok(scatter_spans(buf, spans, &tmp[..n]))
    }

    /// Combined concurrent vectored send + scattering receive over disjoint
    /// span lists of the *same* user buffer — the coalescing ring's inner
    /// step, where a rank forwards one set of chunks while absorbing
    /// another.
    ///
    /// Exactly one envelope moves in each direction. The send and receive
    /// lists must each validate and must not overlap each other
    /// ([`CommError::SpanOverlap`]).
    ///
    /// Like [`sendrecv`](Communicator::sendrecv), the default send-then-
    /// receive implementation is only correct on eager backends;
    /// synchronous backends must override it with a genuinely concurrent
    /// implementation.
    #[allow(clippy::too_many_arguments)]
    fn sendrecv_vectored(
        &self,
        buf: &mut [u8],
        send_spans: &[IoSpan],
        dest: Rank,
        sendtag: Tag,
        recv_spans: &[IoSpan],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        validate_spans(buf.len(), send_spans)?;
        validate_spans(buf.len(), recv_spans)?;
        disjoint_span_lists(send_spans, recv_spans)?;
        self.send_vectored(buf, send_spans, dest, sendtag)?;
        self.recv_scattered(buf, recv_spans, src, recvtag)
    }

    /// Stage `data` into a pooled, shareable envelope payload — **one** copy,
    /// recorded against this rank's `bytes_copied`. Everything sent from the
    /// returned [`SharedBuf`] (or its [`slice`](SharedBuf::slice) sub-views)
    /// afterwards moves refcounts, not bytes.
    ///
    /// The default stages into a plain allocation; pooled backends override
    /// it to rent from their buffer pool.
    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.note_copy(data.len());
        SharedBuf::from(data.to_vec())
    }

    /// Record `bytes` of payload this rank memcpy'd *outside* the
    /// communicator — the collectives' final copy-out of a received
    /// [`SharedBuf`] into the user buffer. Counting backends override this
    /// to feed `TrafficStats::bytes_copied`; the default is a no-op.
    fn note_copy(&self, _bytes: usize) {}

    /// Zero-copy send: enqueue a refcount clone of `buf` for `dest` instead
    /// of staging the bytes into a fresh envelope.
    ///
    /// Wire accounting is identical to [`send`](Communicator::send) of the
    /// same bytes — only `bytes_copied` differs. The default falls back to
    /// copy semantics so decorators (retransmission, fault injection, rank
    /// translation) keep working unchanged.
    fn send_shared(&self, buf: &SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.send(buf, dest, tag)
    }

    /// Owned receive: take the arriving envelope itself instead of copying
    /// its bytes out into a caller buffer.
    ///
    /// `capacity` plays the role of the receive buffer length: a longer
    /// message fails with [`CommError::Truncation`], exactly like
    /// [`recv`](Communicator::recv) into a `capacity`-byte buffer. The
    /// returned view is immutable and may alias the sender's `SharedBuf`
    /// (that is the point); it returns to the owning pool when dropped.
    fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<SharedBuf> {
        let mut tmp = vec![0u8; capacity];
        let n = self.recv(&mut tmp, src, tag)?;
        tmp.truncate(n);
        Ok(SharedBuf::from(tmp))
    }

    /// Combined concurrent zero-copy exchange: forward `sendbuf` to `dest`
    /// while taking ownership of the envelope arriving from `src` — the
    /// ring allgather's inner step, where each received chunk becomes the
    /// next step's outgoing chunk without touching RAM in between.
    ///
    /// Deadlock-freedom contract is that of
    /// [`sendrecv`](Communicator::sendrecv): both directions progress
    /// concurrently, so rings of rendezvous-sized exchanges cannot deadlock.
    /// The default falls back to copy semantics via `sendrecv`.
    #[allow(clippy::too_many_arguments)]
    fn sendrecv_shared(
        &self,
        sendbuf: &SharedBuf,
        dest: Rank,
        sendtag: Tag,
        recv_capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<SharedBuf> {
        let mut tmp = vec![0u8; recv_capacity];
        let n = self.sendrecv(sendbuf, dest, sendtag, &mut tmp, src, recvtag)?;
        tmp.truncate(n);
        Ok(SharedBuf::from(tmp))
    }
}

/// One segment of a vectored operation: `count` bytes starting at byte
/// offset `disp` in the caller's buffer.
///
/// Spans are expressed as displacements rather than slices (like MPI
/// derived datatypes, unlike `IoSlice`) so the same descriptor list can
/// drive the gather side, the scatter side, and traffic reconciliation
/// without borrowing the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoSpan {
    /// Byte offset of the segment within the user buffer.
    pub disp: usize,
    /// Length of the segment in bytes.
    pub count: usize,
}

impl IoSpan {
    /// Span of `count` bytes at offset `disp`.
    pub const fn new(disp: usize, count: usize) -> Self {
        Self { disp, count }
    }

    /// The half-open byte range `[disp, disp + count)` this span covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.disp..self.disp + self.count
    }
}

impl From<std::ops::Range<usize>> for IoSpan {
    fn from(r: std::ops::Range<usize>) -> Self {
        Self { disp: r.start, count: r.end.saturating_sub(r.start) }
    }
}

/// Total payload bytes named by a span list (no validation).
pub fn spans_len(spans: &[IoSpan]) -> usize {
    spans.iter().map(|s| s.count).sum()
}

/// Validate a vectored segment list against a buffer of length `len`:
/// every span must lie in bounds and the spans must be pairwise disjoint
/// (zero-length spans are never considered overlapping). Returns the total
/// payload size.
pub fn validate_spans(len: usize, spans: &[IoSpan]) -> Result<usize> {
    let mut total = 0usize;
    for s in spans {
        if s.disp.checked_add(s.count).is_none_or(|end| end > len) {
            return Err(CommError::OutOfBounds { disp: s.disp, count: s.count, len });
        }
        // In-bounds disjoint spans can never sum past `len`, so a checked
        // add only fires on inputs the overlap check below would reject.
        total = total.checked_add(s.count).ok_or(CommError::OutOfBounds {
            disp: s.disp,
            count: s.count,
            len,
        })?;
    }
    // O(k²) pairwise check: k is a handful of chunk spans in practice, and
    // this avoids allocating a sorted copy on the hot path.
    for (i, a) in spans.iter().enumerate() {
        if a.count == 0 {
            continue;
        }
        for b in &spans[i + 1..] {
            if b.count != 0 && a.disp < b.disp + b.count && b.disp < a.disp + a.count {
                return Err(CommError::SpanOverlap { a: (a.disp, a.count), b: (b.disp, b.count) });
            }
        }
    }
    Ok(total)
}

/// Reject any overlap between two individually-validated span lists (the
/// send and receive halves of a combined vectored operation must name
/// disjoint regions of the shared buffer).
pub fn disjoint_span_lists(a: &[IoSpan], b: &[IoSpan]) -> Result<()> {
    for x in a {
        if x.count == 0 {
            continue;
        }
        for y in b {
            if y.count != 0 && x.disp < y.disp + y.count && y.disp < x.disp + x.count {
                return Err(CommError::SpanOverlap { a: (x.disp, x.count), b: (y.disp, y.count) });
            }
        }
    }
    Ok(())
}

/// Copy `data` into `spans` of `buf` in list order, stopping when the
/// payload runs out (a short message fills a prefix of the span list, just
/// as a short plain receive fills a prefix of the buffer). Returns the
/// number of bytes written.
pub fn scatter_spans(buf: &mut [u8], spans: &[IoSpan], data: &[u8]) -> usize {
    let mut off = 0;
    for s in spans {
        if off == data.len() {
            break;
        }
        let take = s.count.min(data.len() - off);
        buf[s.disp..s.disp + take].copy_from_slice(&data[off..off + take]);
        off += take;
    }
    off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_spans_totals_and_ranges() {
        let spans = [IoSpan::new(6, 2), IoSpan::new(0, 3)];
        assert_eq!(validate_spans(8, &spans), Ok(5));
        assert_eq!(spans_len(&spans), 5);
        assert_eq!(IoSpan::from(4..7), IoSpan::new(4, 3));
        assert_eq!(IoSpan::new(4, 3).range(), 4..7);
        assert_eq!(validate_spans(8, &[]), Ok(0));
    }

    #[test]
    fn validate_spans_rejects_out_of_bounds() {
        assert!(matches!(
            validate_spans(8, &[IoSpan::new(6, 4)]),
            Err(CommError::OutOfBounds { disp: 6, count: 4, len: 8 })
        ));
        assert!(matches!(
            validate_spans(8, &[IoSpan::new(usize::MAX, 2)]),
            Err(CommError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn validate_spans_rejects_overlap_but_allows_adjacency() {
        assert!(matches!(
            validate_spans(16, &[IoSpan::new(0, 4), IoSpan::new(3, 4)]),
            Err(CommError::SpanOverlap { a: (0, 4), b: (3, 4) })
        ));
        // Adjacent spans and zero-length spans sharing a displacement are fine.
        assert!(validate_spans(16, &[IoSpan::new(0, 4), IoSpan::new(4, 4)]).is_ok());
        assert!(validate_spans(16, &[IoSpan::new(2, 0), IoSpan::new(0, 8)]).is_ok());
    }

    #[test]
    fn disjoint_span_lists_crosses_lists_only() {
        let a = [IoSpan::new(0, 4)];
        let b = [IoSpan::new(4, 4)];
        assert!(disjoint_span_lists(&a, &b).is_ok());
        assert!(matches!(
            disjoint_span_lists(&a, &[IoSpan::new(2, 4)]),
            Err(CommError::SpanOverlap { .. })
        ));
    }

    #[test]
    fn scatter_spans_fills_prefix_on_short_payload() {
        let mut buf = [0u8; 10];
        let spans = [IoSpan::new(7, 3), IoSpan::new(1, 4)];
        let n = scatter_spans(&mut buf, &spans, &[9, 8, 7, 6, 5]);
        assert_eq!(n, 5);
        assert_eq!(buf, [0, 6, 5, 0, 0, 0, 0, 9, 8, 7]);
        // Short payload stops mid-list.
        let mut buf = [0u8; 10];
        let n = scatter_spans(&mut buf, &spans, &[1, 2]);
        assert_eq!(n, 2);
        assert_eq!(buf[7..9], [1, 2]);
        assert_eq!(buf[1..5], [0, 0, 0, 0]);
    }
}
