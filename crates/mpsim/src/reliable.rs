//! Reliable delivery over a lossy communicator.
//!
//! [`ReliableComm`] wraps any [`AsyncCommunicator`] with a stop-and-wait
//! acknowledgement protocol: every payload is framed with a per-`(peer,
//! tag)` sequence number, the receiver acknowledges each frame, and the
//! sender retransmits on an exponential backoff until acknowledged or out
//! of attempts. Duplicates (retransmissions whose original did arrive, or
//! messages duplicated by the link itself) are detected by their stale
//! sequence number, re-acknowledged, and discarded, so the application sees
//! exactly-once delivery in order — over a link that drops, duplicates, or
//! reorders (boundedly) its messages.
//!
//! The protocol runs on shifted tags: a user message on `Tag(t)` travels as
//! a data frame on `Tag(DATA_TAG_BASE + t)` and is acknowledged on
//! `Tag(ACK_TAG_BASE + t)`, leaving the user's own tag space untouched.
//! Collectives can therefore run *unmodified* over `ReliableComm`. On the
//! event executor this doubles the live tag count per source (data + ack
//! per user tag), which still sits inside the lane mailbox's inline tag
//! buckets for the collectives' single-tag phases; workloads juggling many
//! concurrent user tags per peer land on the mailbox's wild-tag spill map
//! instead — correct, hash-matched, and counted in
//! `ReactorStats::mailbox_spills` rather than silent.
//!
//! Every wait is arithmetic on [`AsyncCommunicator::now_ns`], so on the event
//! executor the retransmission timers are virtual-clock timer events
//! (deterministic, no real sleeping), while through the
//! [`SyncComm`](crate::acomm::SyncComm) bridge the same arithmetic tracks
//! wall-clock time on the blocking backends.
//!
//! ## Transport requirements
//!
//! The wrapped transport must deliver eagerly (sends complete without the
//! receiver participating): a retransmission only helps if the original
//! send itself could not block forever. The threaded backend is always
//! eager; simulated worlds need a model with a sufficiently high
//! `eager_threshold`. Messages must also arrive *uncorrupted* — the
//! protocol handles loss, duplication, and bounded reordering, not bit rot.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Duration;

use crate::acomm::AsyncCommunicator;
use crate::comm::{disjoint_span_lists, scatter_spans, spans_len, validate_spans, IoSpan};
use crate::error::{CommError, Result};
use crate::rank::{Rank, Tag};

/// Absolute deadline on a backend clock: `now_ns` plus `timeout`, saturating.
fn deadline_after(now_ns: u64, timeout: Duration) -> u64 {
    now_ns.saturating_add(u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX))
}

/// Base of the tag range carrying acknowledged data frames.
pub const DATA_TAG_BASE: u32 = 0xE000_0000;
/// Base of the tag range carrying acknowledgements.
pub const ACK_TAG_BASE: u32 = 0xF000_0000;

/// Retransmission policy for [`ReliableComm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// How long to wait for an acknowledgement before retransmitting.
    pub base_timeout: Duration,
    /// Backoff cap: the per-attempt timeout doubles up to this value.
    pub max_timeout: Duration,
    /// Total transmission attempts (first try included) before giving up
    /// with [`CommError::Timeout`].
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            base_timeout: Duration::from_millis(25),
            max_timeout: Duration::from_millis(200),
            max_attempts: 10,
        }
    }
}

impl RetryConfig {
    /// The ack-wait timeout for 0-based attempt `i`: doubling, capped.
    fn timeout_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.base_timeout.saturating_mul(factor).min(self.max_timeout)
    }
}

/// Per-`(peer, tag)` sequence counters.
#[derive(Default)]
struct ChannelSeq {
    /// Next sequence number to assign to an outgoing frame.
    tx_next: u32,
    /// Sequence number the receiver expects next.
    rx_expected: u32,
    /// Largest payload delivered on this channel so far. A stale
    /// retransmitted duplicate can be a copy of *any* already-delivered
    /// frame, so receive-side frame buffers must accommodate the largest
    /// one regardless of the size of the currently posted receive —
    /// otherwise the inner transport reports a truncation before
    /// `accept_frame` can read the sequence number and discard the dup.
    rx_high_water: usize,
}

/// Acknowledged, deduplicated delivery over a lossy [`AsyncCommunicator`].
///
/// See the [module docs](self) for the protocol and its requirements.
pub struct ReliableComm<'a, C: ?Sized> {
    inner: &'a C,
    cfg: RetryConfig,
    seq: RefCell<HashMap<(Rank, u32), ChannelSeq>>,
}

impl<'a, C: ?Sized> ReliableComm<'a, C> {
    /// Wrap `inner` with the default [`RetryConfig`].
    pub fn new(inner: &'a C) -> Self {
        Self::with_config(inner, RetryConfig::default())
    }

    /// Wrap `inner` with an explicit retransmission policy.
    pub fn with_config(inner: &'a C, cfg: RetryConfig) -> Self {
        assert!(cfg.max_attempts >= 1, "at least one attempt is required");
        ReliableComm { inner, cfg, seq: RefCell::new(HashMap::new()) }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        self.inner
    }

    fn data_tag(tag: Tag) -> Tag {
        debug_assert!(tag.0 < DATA_TAG_BASE, "user tag collides with the reliable-protocol range");
        Tag(DATA_TAG_BASE.wrapping_add(tag.0))
    }

    fn ack_tag(tag: Tag) -> Tag {
        Tag(ACK_TAG_BASE.wrapping_add(tag.0))
    }

    fn next_tx_seq(&self, peer: Rank, tag: Tag) -> u32 {
        let mut seqs = self.seq.borrow_mut();
        let ch = seqs.entry((peer, tag.0)).or_default();
        let s = ch.tx_next;
        ch.tx_next += 1;
        s
    }

    fn rx_expected(&self, peer: Rank, tag: Tag) -> u32 {
        self.seq.borrow_mut().entry((peer, tag.0)).or_default().rx_expected
    }

    fn advance_rx(&self, peer: Rank, tag: Tag, payload_len: usize) {
        let mut seqs = self.seq.borrow_mut();
        let ch = seqs.entry((peer, tag.0)).or_default();
        ch.rx_expected += 1;
        ch.rx_high_water = ch.rx_high_water.max(payload_len);
    }

    /// Frame-buffer size for a receive posting `buf_len` payload bytes:
    /// large enough for the expected frame *and* for a stale duplicate of
    /// any frame already delivered on this channel (see
    /// [`ChannelSeq::rx_high_water`]).
    fn rx_frame_len(&self, peer: Rank, tag: Tag, buf_len: usize) -> usize {
        let hw = self.seq.borrow_mut().entry((peer, tag.0)).or_default().rx_high_water;
        buf_len.max(hw) + 4
    }

    /// Rewrite an inner-transport truncation on a *framed* channel into the
    /// user's payload terms: the 4-byte sequence header is protocol, not
    /// payload, and the frame buffer may be larger than the posted receive
    /// (it also accommodates stale oversized duplicates), so the reported
    /// capacity is the caller's, not the frame buffer's.
    fn unframe_truncation(e: CommError, user_capacity: usize) -> CommError {
        match e {
            CommError::Truncation { incoming, .. } if incoming >= 4 => {
                CommError::Truncation { capacity: user_capacity, incoming: incoming - 4 }
            }
            other => other,
        }
    }
}

impl<C: AsyncCommunicator + ?Sized> ReliableComm<'_, C> {
    async fn send_ack(&self, peer: Rank, tag: Tag, seq: u32) -> Result<()> {
        match self.inner.send(&seq.to_le_bytes(), peer, Self::ack_tag(tag)).await {
            // A dead peer cannot retransmit, so the lost ack is moot; the
            // delivered payload is still good.
            Err(CommError::PeerFailed { .. }) => Ok(()),
            r => r,
        }
    }

    /// Handle one received data frame: deliver it if it is the expected
    /// sequence number, re-acknowledge and discard stale duplicates.
    /// Returns the payload length when the frame was the expected one.
    async fn accept_frame(
        &self,
        frame: &[u8],
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
    ) -> Result<Option<usize>> {
        self.accept_frame_with(frame, buf.len(), src, tag, |payload| {
            buf[..payload.len()].copy_from_slice(payload);
        })
        .await
    }

    /// [`accept_frame`](Self::accept_frame) with the delivery copy abstracted
    /// out, so the scattered receive can fan the payload into spans instead
    /// of a contiguous buffer. `deliver` runs only for the expected frame,
    /// after the truncation check against `capacity`.
    async fn accept_frame_with(
        &self,
        frame: &[u8],
        capacity: usize,
        src: Rank,
        tag: Tag,
        deliver: impl FnOnce(&[u8]),
    ) -> Result<Option<usize>> {
        if frame.len() < 4 {
            // Not a protocol frame; nothing sane to do but drop it.
            return Ok(None);
        }
        let mut seq_bytes = [0u8; 4];
        seq_bytes.copy_from_slice(&frame[..4]);
        let seq = u32::from_le_bytes(seq_bytes);
        let expected = self.rx_expected(src, tag);
        if seq == expected {
            let payload = &frame[4..];
            if payload.len() > capacity {
                return Err(CommError::Truncation { capacity, incoming: payload.len() });
            }
            self.advance_rx(src, tag, payload.len());
            self.send_ack(src, tag, seq).await?;
            deliver(payload);
            Ok(Some(payload.len()))
        } else if seq < expected {
            // Duplicate of an already-delivered frame: the first ack was
            // lost (or the link duplicated the frame). Re-ack so the sender
            // stops retransmitting, and drop the payload.
            self.send_ack(src, tag, seq).await?;
            Ok(None)
        } else {
            // Ahead of the expected sequence. Stop-and-wait never legally
            // produces this; it can only be a reordered duplicate. Drop it
            // without acking — the sender will retransmit in order.
            Ok(None)
        }
    }

    /// Transmit an assembled frame with retry-until-acked (the shared tail
    /// of the plain and vectored send paths).
    async fn send_framed(&self, frame: &[u8], dest: Rank, tag: Tag, seq: u32) -> Result<()> {
        for attempt in 0..self.cfg.max_attempts {
            self.inner.send(frame, dest, Self::data_tag(tag)).await?;
            if self.await_ack(dest, tag, seq, self.cfg.timeout_for(attempt)).await? {
                return Ok(());
            }
        }
        Err(CommError::Timeout { peer: dest })
    }

    /// Wait up to `timeout` for an acknowledgement of `seq` from `peer`.
    async fn await_ack(&self, peer: Rank, tag: Tag, seq: u32, timeout: Duration) -> Result<bool> {
        let deadline = deadline_after(self.inner.now_ns(), timeout);
        loop {
            let now = self.inner.now_ns();
            if now >= deadline {
                return Ok(false);
            }
            let mut ack = [0u8; 4];
            let remaining = Duration::from_nanos(deadline - now);
            match self.inner.recv_timeout(&mut ack, peer, Self::ack_tag(tag), remaining).await {
                Ok(4) => {
                    // Acks for older frames may arrive late; only the ack
                    // for this frame (or beyond, defensively) completes the
                    // send.
                    if u32::from_le_bytes(ack) >= seq {
                        return Ok(true);
                    }
                }
                Ok(_) => {} // malformed ack: ignore
                Err(CommError::Timeout { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }
}

impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for ReliableComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn check_rank(&self, rank: Rank) -> Result<()> {
        self.inner.check_rank(rank)
    }

    async fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        if dest == self.rank() {
            // Loopback cannot lose messages; skip the protocol.
            return self.inner.send(buf, dest, tag).await;
        }
        let seq = self.next_tx_seq(dest, tag);
        let mut frame = Vec::with_capacity(buf.len() + 4);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(buf);
        self.send_framed(&frame, dest, tag, seq).await
    }

    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        self.check_rank(src)?;
        if src == self.rank() {
            return self.inner.recv(buf, src, tag).await;
        }
        let mut frame = vec![0u8; self.rx_frame_len(src, tag, buf.len())];
        loop {
            // An unbounded wait is fine: as long as the sender retries, some
            // copy of the expected frame eventually arrives; if the sender
            // died the backend's failure detector surfaces `PeerFailed` here.
            let n = self
                .inner
                .recv(&mut frame, src, Self::data_tag(tag))
                .await
                .map_err(|e| Self::unframe_truncation(e, buf.len()))?;
            if let Some(len) = self.accept_frame(&frame[..n], buf, src, tag).await? {
                return Ok(len);
            }
        }
    }

    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        self.check_rank(src)?;
        if src == self.rank() {
            return self.inner.recv_timeout(buf, src, tag, timeout).await;
        }
        let deadline = deadline_after(self.inner.now_ns(), timeout);
        let mut frame = vec![0u8; self.rx_frame_len(src, tag, buf.len())];
        loop {
            let now = self.inner.now_ns();
            if now >= deadline {
                return Err(CommError::Timeout { peer: src });
            }
            let remaining = Duration::from_nanos(deadline - now);
            let n = self
                .inner
                .recv_timeout(&mut frame, src, Self::data_tag(tag), remaining)
                .await
                .map_err(|e| Self::unframe_truncation(e, buf.len()))?;
            if let Some(len) = self.accept_frame(&frame[..n], buf, src, tag).await? {
                return Ok(len);
            }
        }
    }

    /// Concurrent send+receive over the reliable protocol.
    ///
    /// A naive send-then-receive deadlocks when two ranks `sendrecv` each
    /// other: both would block awaiting an ack that only the other side's
    /// *receive* produces. This implementation pumps both directions — it
    /// transmits its frame, then alternates between draining the incoming
    /// data channel and watching for its ack, retransmitting on backoff.
    async fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        self.check_rank(dest)?;
        self.check_rank(src)?;
        if dest == self.rank() && src == self.rank() {
            return self.inner.sendrecv(sendbuf, dest, sendtag, recvbuf, src, recvtag).await;
        }

        let seq = self.next_tx_seq(dest, sendtag);
        let mut frame = Vec::with_capacity(sendbuf.len() + 4);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(sendbuf);
        let mut in_frame = vec![0u8; self.rx_frame_len(src, recvtag, recvbuf.len())];

        // Short slices keep the pump responsive in both directions.
        let slice = (self.cfg.base_timeout / 4).max(Duration::from_millis(1));
        let mut acked = dest == self.rank();
        let mut received: Option<usize> = None;
        if dest != self.rank() {
            self.inner.send(&frame, dest, Self::data_tag(sendtag)).await?;
        } else {
            self.inner.send(sendbuf, dest, sendtag).await?;
        }
        let mut attempt = 0u32;
        let mut next_retransmit = deadline_after(self.inner.now_ns(), self.cfg.timeout_for(0));
        loop {
            if acked {
                if let Some(len) = received {
                    return Ok(len);
                }
            }
            if received.is_none() {
                if src == self.rank() {
                    // Loopback receive: the message is already queued.
                    received = Some(self.inner.recv(recvbuf, src, recvtag).await?);
                } else {
                    match self
                        .inner
                        .recv_timeout(&mut in_frame, src, Self::data_tag(recvtag), slice)
                        .await
                        .map_err(|e| Self::unframe_truncation(e, recvbuf.len()))
                    {
                        Ok(n) => {
                            if let Some(len) =
                                self.accept_frame(&in_frame[..n], recvbuf, src, recvtag).await?
                            {
                                received = Some(len);
                            }
                        }
                        Err(CommError::Timeout { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            if !acked {
                match self
                    .inner
                    .recv_timeout(&mut in_frame[..4], dest, Self::ack_tag(sendtag), slice)
                    .await
                {
                    Ok(4) => {
                        let mut b = [0u8; 4];
                        b.copy_from_slice(&in_frame[..4]);
                        if u32::from_le_bytes(b) >= seq {
                            acked = true;
                        }
                    }
                    Ok(_) => {}
                    Err(CommError::Timeout { .. }) => {}
                    Err(e) => return Err(e),
                }
                if !acked && self.inner.now_ns() >= next_retransmit {
                    attempt += 1;
                    if attempt >= self.cfg.max_attempts {
                        return Err(CommError::Timeout { peer: dest });
                    }
                    self.inner.send(&frame, dest, Self::data_tag(sendtag)).await?;
                    next_retransmit =
                        deadline_after(self.inner.now_ns(), self.cfg.timeout_for(attempt));
                }
            }
        }
    }

    async fn barrier(&self) -> Result<()> {
        self.inner.barrier().await
    }

    /// Vectored send over the reliable protocol: the segments are gathered
    /// directly behind the 4-byte sequence header, so the protocol frame
    /// doubles as the staging buffer and the whole payload still travels —
    /// and is retransmitted — as one frame.
    async fn send_vectored(
        &self,
        buf: &[u8],
        spans: &[IoSpan],
        dest: Rank,
        tag: Tag,
    ) -> Result<()> {
        self.check_rank(dest)?;
        let total = validate_spans(buf.len(), spans)?;
        if dest == self.rank() {
            // Loopback cannot lose messages; skip the protocol.
            return self.inner.send_vectored(buf, spans, dest, tag).await;
        }
        let seq = self.next_tx_seq(dest, tag);
        let mut frame = Vec::with_capacity(total + 4);
        frame.extend_from_slice(&seq.to_le_bytes());
        for s in spans {
            frame.extend_from_slice(&buf[s.range()]);
        }
        self.send_framed(&frame, dest, tag, seq).await
    }

    /// Scattered receive over the reliable protocol: the expected frame's
    /// payload is fanned out into the spans straight from the frame buffer;
    /// stale duplicates are re-acked and dropped without touching `buf`.
    async fn recv_scattered(
        &self,
        buf: &mut [u8],
        spans: &[IoSpan],
        src: Rank,
        tag: Tag,
    ) -> Result<usize> {
        self.check_rank(src)?;
        let total = validate_spans(buf.len(), spans)?;
        if src == self.rank() {
            return self.inner.recv_scattered(buf, spans, src, tag).await;
        }
        let mut frame = vec![0u8; self.rx_frame_len(src, tag, total)];
        loop {
            let n = self
                .inner
                .recv(&mut frame, src, Self::data_tag(tag))
                .await
                .map_err(|e| Self::unframe_truncation(e, total))?;
            let accepted = self
                .accept_frame_with(&frame[..n], total, src, tag, |payload| {
                    scatter_spans(buf, spans, payload);
                })
                .await?;
            if let Some(len) = accepted {
                return Ok(len);
            }
        }
    }

    /// Combined vectored exchange over the reliable protocol.
    ///
    /// Stages both directions contiguously and delegates to the pumping
    /// [`sendrecv`](Self::sendrecv) — a naive vectored-send-then-receive
    /// would deadlock for mutual exchanges exactly like the plain one.
    async fn sendrecv_vectored(
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
        let rtotal = validate_spans(buf.len(), recv_spans)?;
        disjoint_span_lists(send_spans, recv_spans)?;
        let mut sendbuf = Vec::with_capacity(spans_len(send_spans));
        for s in send_spans {
            sendbuf.extend_from_slice(&buf[s.range()]);
        }
        let mut recvbuf = vec![0u8; rtotal];
        let n = self.sendrecv(&sendbuf, dest, sendtag, &mut recvbuf, src, recvtag).await?;
        Ok(scatter_spans(buf, recv_spans, &recvbuf[..n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acomm::{complete_now, SyncComm};
    use crate::comm::Communicator;
    use crate::thread_comm::ThreadWorld;

    fn fast_cfg() -> RetryConfig {
        RetryConfig {
            base_timeout: Duration::from_millis(10),
            max_timeout: Duration::from_millis(80),
            max_attempts: 6,
        }
    }

    #[test]
    fn plain_send_recv_roundtrip() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let rc = ReliableComm::new(&acomm);
            if comm.rank() == 0 {
                complete_now(rc.send(&[7u8; 100], 1, Tag(3))).unwrap();
                0
            } else {
                let mut buf = [0u8; 100];
                let n = complete_now(rc.recv(&mut buf, 0, Tag(3))).unwrap();
                assert_eq!(&buf[..n], &[7u8; 100]);
                n
            }
        });
        assert_eq!(out.results, vec![0, 100]);
    }

    #[test]
    fn many_messages_stay_in_order() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let rc = ReliableComm::new(&acomm);
            if comm.rank() == 0 {
                for i in 0..50u8 {
                    complete_now(rc.send(&[i], 1, Tag(0))).unwrap();
                }
                vec![]
            } else {
                let mut got = vec![];
                let mut buf = [0u8; 1];
                for _ in 0..50 {
                    complete_now(rc.recv(&mut buf, 0, Tag(0))).unwrap();
                    got.push(buf[0]);
                }
                got
            }
        });
        assert_eq!(out.results[1], (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn sendrecv_exchange_does_not_deadlock() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let rc = ReliableComm::with_config(&acomm, fast_cfg());
            let me = comm.rank();
            let peer = 1 - me;
            let sbuf = [me as u8 + 10; 16];
            let mut rbuf = [0u8; 16];
            let n =
                complete_now(rc.sendrecv(&sbuf, peer, Tag(1), &mut rbuf, peer, Tag(1))).unwrap();
            (n, rbuf[0])
        });
        assert_eq!(out.results[0], (16, 11));
        assert_eq!(out.results[1], (16, 10));
    }

    #[test]
    fn send_times_out_when_never_acked() {
        let out = ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                let acomm = SyncComm::new(comm);
                let rc = ReliableComm::with_config(
                    &acomm,
                    RetryConfig {
                        base_timeout: Duration::from_millis(5),
                        max_timeout: Duration::from_millis(10),
                        max_attempts: 3,
                    },
                );
                // rank 1 never runs the protocol, so no ack ever comes
                let err = complete_now(rc.send(&[1u8; 8], 1, Tag(0))).unwrap_err();
                // release rank 1
                comm.send(&[0], 1, Tag(9)).unwrap();
                Some(err)
            } else {
                let mut buf = [0u8; 1];
                comm.recv(&mut buf, 0, Tag(9)).unwrap();
                None
            }
        });
        assert_eq!(out.results[0], Some(CommError::Timeout { peer: 1 }));
    }

    #[test]
    fn loopback_skips_protocol() {
        let out = ThreadWorld::run(1, |comm| {
            let acomm = SyncComm::new(comm);
            let rc = ReliableComm::new(&acomm);
            complete_now(rc.send(&[9u8; 4], 0, Tag(0))).unwrap();
            let mut buf = [0u8; 4];
            complete_now(rc.recv(&mut buf, 0, Tag(0))).unwrap();
            buf[0]
        });
        assert_eq!(out.results[0], 9);
    }

    #[test]
    fn recv_timeout_passes_through() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let rc = ReliableComm::with_config(&acomm, fast_cfg());
            if comm.rank() == 0 {
                let mut buf = [0u8; 4];
                let err =
                    complete_now(rc.recv_timeout(&mut buf, 1, Tag(5), Duration::from_millis(30)))
                        .unwrap_err();
                comm.send(&[0], 1, Tag(9)).unwrap();
                Some(err)
            } else {
                let mut buf = [0u8; 1];
                comm.recv(&mut buf, 0, Tag(9)).unwrap();
                None
            }
        });
        assert_eq!(out.results[0], Some(CommError::Timeout { peer: 1 }));
    }

    #[test]
    fn truncation_surfaces_like_plain_recv() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let rc = ReliableComm::with_config(&acomm, fast_cfg());
            if comm.rank() == 0 {
                // the ack never comes back (receiver errors out first), so
                // tolerate either outcome of the send
                let _ = complete_now(rc.send(&[1u8; 64], 1, Tag(0)));
                let mut buf = [0u8; 1];
                comm.recv(&mut buf, 1, Tag(9)).unwrap();
                None
            } else {
                let mut small = [0u8; 8];
                let err = complete_now(rc.recv(&mut small, 0, Tag(0))).unwrap_err();
                comm.send(&[0], 0, Tag(9)).unwrap();
                Some(err)
            }
        });
        assert_eq!(out.results[1], Some(CommError::Truncation { capacity: 8, incoming: 64 }));
    }
}
