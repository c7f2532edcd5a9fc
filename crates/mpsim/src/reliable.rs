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
//! A frame's wire image is `sequence number (4 bytes, LE) ‖ payload`, but the
//! two are never packed together here: the number is handed to the wrapped
//! transport *beside* the payload ([`AsyncCommunicator::send_prefixed`] /
//! [`recv_prefixed`](AsyncCommunicator::recv_prefixed)). Over a transport
//! that queues envelopes, a frame is a refcount clone of what the caller
//! staged, a retransmission is another clone of the same rental, and a
//! duplicate is told by its number and dropped without a byte moving. The
//! protocol is the envelope core (`post`, `take`, `exchange`); every other
//! call is the trait's own, built on it.
//!
//! The protocol runs on shifted tags: a user message on `Tag(t)` travels as
//! a data frame on `Tag(DATA_TAG_BASE + t)` and is acknowledged on
//! `Tag(ACK_TAG_BASE + t)`, leaving the user's own tag space untouched.
//! Collectives can therefore run *unmodified* over `ReliableComm`. On the
//! event executor this doubles the live tag count per source (data + ack
//! per user tag); [`event_mailbox`](crate::event_mailbox) says what that
//! costs a workload juggling many concurrent user tags per peer.
//!
//! Every wait is arithmetic on [`AsyncCommunicator::now_ns`], so on the event
//! executor the retransmission timers are virtual-clock timer events
//! (deterministic, no real sleeping), while through the
//! [`SyncComm`](crate::acomm::SyncComm) bridge, which forwards the core
//! one-for-one, each bounded take is the blocking backend's own wall-clock
//! wait. Every executor queues the framed envelope as posted, so a frame is
//! a clone of the caller's rental on all three, with the same copy bill.
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

use crate::acomm::{deadline_after, AsyncCommunicator};
use crate::error::{CommError, Result};
use crate::pool::{Payload, SharedBuf};
use crate::rank::{Rank, Tag};

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
    /// with [`CommError::Timeout`]. Zero attempts transmit nothing: every
    /// send to another rank times out on the spot.
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

/// Whether sequence number `a` is `b` or comes after it. The counters wrap
/// (serial-number arithmetic, RFC 1982); stop-and-wait keeps the two ends of
/// a channel within one frame of each other, far inside the half circle.
fn at_or_after(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) < 1 << 31
}

/// Per-`(peer, tag)` sequence counters.
#[derive(Default)]
struct ChannelSeq {
    /// Next sequence number to assign to an outgoing frame.
    tx_next: u32,
    /// Sequence number the receiver expects next.
    rx_expected: u32,
    /// Largest payload delivered on this channel so far. A stale duplicate
    /// can be a copy of *any* delivered frame, so frames are asked for at
    /// this capacity at least — or one larger than the currently posted
    /// receive would be a truncation before its number could be read.
    rx_high_water: usize,
}

/// One outgoing frame: the payload, where it goes, and the sequence number
/// that rides beside it. A retransmission transmits the same frame again.
struct Frame<'p> {
    payload: &'p SharedBuf,
    dest: Rank,
    data_tag: Tag,
    ack_tag: Tag,
    seq: u32,
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
        ReliableComm { inner, cfg, seq: RefCell::new(HashMap::new()) }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        self.inner
    }

    /// Read or update the counters of channel `(peer, tag)`.
    fn channel<R>(&self, peer: Rank, tag: Tag, f: impl FnOnce(&mut ChannelSeq) -> R) -> R {
        f(self.seq.borrow_mut().entry((peer, tag.0)).or_default())
    }
}

impl<C: AsyncCommunicator + ?Sized> ReliableComm<'_, C> {
    /// The `(data, ack)` tags user tag `tag` travels on. A tag the two
    /// protocol ranges have no room for is refused here, before anything is
    /// posted: shifted, it would land a data frame among the acks.
    fn protocol_tags(&self, tag: Tag) -> Result<(Tag, Tag)> {
        if tag.0 < ACK_TAG_BASE - DATA_TAG_BASE {
            Ok((Tag(DATA_TAG_BASE + tag.0), Tag(ACK_TAG_BASE + tag.0)))
        } else {
            Err(CommError::Unsupported { what: "reliable/tag", size: self.inner.size() })
        }
    }

    /// Open the next frame on channel `(dest, tag)` around `payload`.
    fn frame<'p>(&self, payload: &'p SharedBuf, dest: Rank, tag: Tag) -> Result<Frame<'p>> {
        let (data_tag, ack_tag) = self.protocol_tags(tag)?;
        let seq = self.channel(dest, tag, |ch| {
            let seq = ch.tx_next;
            ch.tx_next = seq.wrapping_add(1);
            seq
        });
        Ok(Frame { payload, dest, data_tag, ack_tag, seq })
    }

    /// Put `frame` on the wire once — the only place a frame is built, and
    /// it is built from references.
    async fn transmit(&self, frame: &Frame<'_>) -> Result<()> {
        let prefix = frame.seq.to_le_bytes();
        self.inner.send_prefixed(prefix, frame.payload, frame.dest, frame.data_tag).await
    }

    /// One bounded look at `frame`'s ack channel: whether an acknowledgement
    /// covering it arrived within `wait` ([`CommError::Timeout`] if none
    /// did). Acks for older frames may arrive late; only the ack for this
    /// frame (or beyond, defensively) counts, and a malformed one is ignored.
    /// The number is read straight off the envelope (see [`Self::send_ack`]).
    async fn poll_ack(&self, frame: &Frame<'_>, wait: Duration) -> Result<bool> {
        let ack = self.inner.take(4, frame.dest, frame.ack_tag, Some(wait)).await?;
        self.inner.note_copy(ack.len());
        let seq = <[u8; 4]>::try_from(&ack.bytes()[..]).map(u32::from_le_bytes);
        Ok(seq.is_ok_and(|seq| at_or_after(seq, frame.seq)))
    }

    /// Wait up to `timeout` for an acknowledgement of `frame`.
    async fn await_ack(&self, frame: &Frame<'_>, timeout: Duration) -> Result<bool> {
        let deadline = deadline_after(self.inner.now_ns(), timeout);
        while let Some(left) = self.time_left(deadline) {
            match self.poll_ack(frame, left).await {
                Ok(true) => return Ok(true),
                Ok(false) => {}
                Err(CommError::Timeout { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Time left until `deadline` on the backend clock, `None` once it passed.
    fn time_left(&self, deadline: u64) -> Option<Duration> {
        let left = deadline.saturating_sub(self.inner.now_ns());
        (left > 0).then(|| Duration::from_nanos(left))
    }

    /// Acknowledge `seq` to `peer`. An ack is half of every exchange, so it
    /// is posted as a plain four-byte payload and read straight off the
    /// envelope by [`Self::poll_ack`] — no pool rental or refcount, which
    /// `send`/`recv_timeout` would pay — with both copies still counted.
    async fn send_ack(&self, peer: Rank, ack_tag: Tag, seq: u32) -> Result<()> {
        let ack = Payload::from(seq.to_le_bytes().to_vec());
        self.inner.note_copy(ack.len());
        match self.inner.post(ack, peer, ack_tag).await {
            // A dead peer cannot retransmit, so the lost ack is moot; the
            // delivered payload is still good.
            Err(CommError::PeerFailed { .. }) => Ok(()),
            r => r,
        }
    }

    /// Take one frame off channel `(src, tag)`, waiting at most `wait`: the
    /// payload if it carries the expected number (acknowledged, and held to
    /// `capacity` like a posted receive), `None` after a stale duplicate was
    /// re-acknowledged and dropped or anything else discarded.
    async fn recv_frame(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        wait: Option<Duration>,
    ) -> Result<Option<SharedBuf>> {
        let (data_tag, ack_tag) = self.protocol_tags(tag)?;
        let (expected, high_water) =
            self.channel(src, tag, |ch| (ch.rx_expected, ch.rx_high_water));
        let frame = self.inner.recv_prefixed(capacity.max(high_water), src, data_tag, wait).await;
        let (prefix, payload) = match frame {
            Ok(Some(parts)) => parts,
            // Not a protocol frame; nothing sane to do but drop it.
            Ok(None) => return Ok(None),
            // Longer than anything delivered so far, so not a duplicate:
            // it overran the caller's capacity, not the one asked for here.
            Err(CommError::Truncation { incoming, .. }) => {
                return Err(CommError::Truncation { capacity, incoming });
            }
            Err(e) => return Err(e),
        };
        let seq = u32::from_le_bytes(prefix);
        if seq == expected {
            if payload.len() > capacity {
                return Err(CommError::Truncation { capacity, incoming: payload.len() });
            }
            self.channel(src, tag, |ch| {
                ch.rx_expected = expected.wrapping_add(1);
                ch.rx_high_water = high_water.max(payload.len());
            });
            self.send_ack(src, ack_tag, seq).await?;
            Ok(Some(payload))
        } else {
            // Behind the expected number: a duplicate of a delivered frame
            // (its ack was lost, or the link duplicated it); re-ack so the
            // sender stops retransmitting. Ahead of it: stop-and-wait never
            // legally produces that, so a reordered duplicate; unacked, the
            // sender retransmits in order. Either way the payload is dropped.
            if at_or_after(expected, seq) {
                self.send_ack(src, ack_tag, seq).await?;
            }
            Ok(None)
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

    async fn barrier(&self) -> Result<()> {
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes);
    }

    /// Transmit one frame around `payload` and retransmit it until
    /// acknowledged.
    async fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        let body = payload.into_shared();
        let frame = self.frame(&body, dest, tag)?;
        if dest == self.rank() {
            // Loopback cannot lose messages; skip the protocol.
            return self.inner.post(Payload::Shared(body), dest, tag).await;
        }
        for attempt in 0..self.cfg.max_attempts {
            self.transmit(&frame).await?;
            if self.await_ack(&frame, self.cfg.timeout_for(attempt)).await? {
                return Ok(());
            }
        }
        Err(CommError::Timeout { peer: dest })
    }

    /// The next in-order payload on channel `(src, tag)`, within `timeout`
    /// if one is given. An unbounded wait is fine: as long as the sender
    /// retries, some copy of the expected frame eventually arrives; if the
    /// sender died the backend's failure detector surfaces `PeerFailed`.
    async fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload> {
        self.check_rank(src)?;
        self.protocol_tags(tag)?;
        if src == self.rank() {
            // Loopback cannot lose messages; skip the protocol.
            return self.inner.take(capacity, src, tag, timeout).await;
        }
        let deadline = timeout.map(|t| deadline_after(self.inner.now_ns(), t));
        loop {
            let expired = CommError::Timeout { peer: src };
            let wait = deadline.map(|d| self.time_left(d).ok_or(expired)).transpose()?;
            if let Some(payload) = self.recv_frame(capacity, src, tag, wait).await? {
                return Ok(Payload::Shared(payload));
            }
        }
    }

    /// Concurrent send+receive over the reliable protocol.
    ///
    /// A naive post-then-take deadlocks when two ranks exchange with each
    /// other: both would block awaiting an ack that only the other side's
    /// *receive* produces. This implementation pumps both directions — it
    /// transmits its frame, then alternates between draining the incoming
    /// data channel and watching for its ack, retransmitting on backoff.
    async fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<Payload> {
        self.check_rank(dest)?;
        self.check_rank(src)?;
        self.protocol_tags(recvtag)?;
        let body = payload.into_shared();
        let frame = self.frame(&body, dest, sendtag)?;
        let me = self.rank();
        if dest == me && src == me {
            let body = Payload::Shared(body);
            return self.inner.exchange(body, dest, sendtag, capacity, src, recvtag).await;
        }

        // Short slices keep the pump responsive in both directions.
        let slice = (self.cfg.base_timeout / 4).max(Duration::from_millis(1));
        let mut acked = dest == me;
        let mut received: Option<Payload> = None;
        if acked {
            self.inner.send_shared(&body, dest, sendtag).await?;
        } else if self.cfg.max_attempts == 0 {
            return Err(CommError::Timeout { peer: dest });
        } else {
            self.transmit(&frame).await?;
        }
        let mut attempt = 0u32;
        let mut next_retransmit = deadline_after(self.inner.now_ns(), self.cfg.timeout_for(0));
        loop {
            match received {
                Some(payload) if acked => return Ok(payload),
                Some(_) => {}
                // Loopback receive: the message is already queued.
                None if src == me => {
                    received = Some(self.inner.take(capacity, src, recvtag, None).await?);
                }
                None => match self.recv_frame(capacity, src, recvtag, Some(slice)).await {
                    Ok(payload) => received = payload.map(Payload::Shared),
                    Err(CommError::Timeout { .. }) => {}
                    Err(e) => return Err(e),
                },
            }
            if !acked {
                match self.poll_ack(&frame, slice).await {
                    Ok(covered) => acked = covered,
                    Err(CommError::Timeout { .. }) => {}
                    Err(e) => return Err(e),
                }
                if !acked && self.inner.now_ns() >= next_retransmit {
                    attempt += 1;
                    if attempt >= self.cfg.max_attempts {
                        return Err(CommError::Timeout { peer: dest });
                    }
                    self.transmit(&frame).await?;
                    next_retransmit =
                        deadline_after(self.inner.now_ns(), self.cfg.timeout_for(attempt));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acomm::{complete_now, SyncComm};
    use crate::comm::Communicator;
    use crate::thread_comm::{ThreadComm, ThreadWorld};
    use crate::WorldOutcome;

    type Rc<'a> = ReliableComm<'a, SyncComm<'a, ThreadComm>>;

    /// `f` on every rank of an `n`-rank threaded world, each behind its own
    /// `ReliableComm`; the bare communicator comes along for out-of-protocol
    /// handshakes.
    fn world<R: Send>(
        n: usize,
        cfg: RetryConfig,
        f: impl Fn(&Rc<'_>, &ThreadComm) -> R + Sync,
    ) -> WorldOutcome<R> {
        ThreadWorld::run(n, |comm| f(&ReliableComm::with_config(&SyncComm::new(comm), cfg), comm))
    }

    fn fast(max_attempts: u32) -> RetryConfig {
        RetryConfig {
            base_timeout: Duration::from_millis(5),
            max_timeout: Duration::from_millis(20),
            max_attempts,
        }
    }

    /// Rank 0 runs `f`, then releases rank 1, which only waits for that.
    fn rank0_alone<R: Send>(
        cfg: RetryConfig,
        f: impl Fn(&Rc<'_>) -> R + Sync,
    ) -> WorldOutcome<Option<R>> {
        world(2, cfg, |rc, comm| {
            if comm.rank() == 0 {
                let r = f(rc);
                comm.send(&[0], 1, Tag(9)).unwrap();
                Some(r)
            } else {
                comm.recv(&mut [0u8; 1], 0, Tag(9)).unwrap();
                None
            }
        })
    }

    #[test]
    fn many_messages_stay_in_order() {
        let out = world(2, RetryConfig::default(), |rc, comm| {
            let mut got = vec![];
            for i in 0..50u8 {
                if comm.rank() == 0 {
                    complete_now(rc.send(&[i; 100], 1, Tag(3))).unwrap();
                } else {
                    let mut buf = [0u8; 100];
                    assert_eq!(complete_now(rc.recv(&mut buf, 0, Tag(3))), Ok(100));
                    assert_eq!(buf, [i; 100]);
                    got.push(buf[0]);
                }
            }
            got
        });
        assert_eq!(out.results[1], (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn sendrecv_exchange_does_not_deadlock() {
        let out = world(2, fast(6), |rc, comm| {
            let peer = 1 - comm.rank();
            let mut rbuf = [0u8; 16];
            let sbuf = [comm.rank() as u8 + 10; 16];
            let n = complete_now(rc.sendrecv(&sbuf, peer, Tag(1), &mut rbuf, peer, Tag(1)));
            (n, rbuf[0])
        });
        assert_eq!(out.results, vec![(Ok(16), 11), (Ok(16), 10)]);
    }

    #[test]
    fn send_times_out_when_never_acked() {
        // rank 1 never runs the protocol, so no ack ever comes
        let out = rank0_alone(fast(3), |rc| complete_now(rc.send(&[1u8; 8], 1, Tag(0))));
        assert_eq!(out.results[0], Some(Err(CommError::Timeout { peer: 1 })));
        assert_eq!(out.traffic.total_msgs(), 3 + 1, "three attempts and the release");
    }

    #[test]
    fn sequence_numbers_wrap() {
        assert!(at_or_after(7, 7) && at_or_after(0, u32::MAX) && !at_or_after(u32::MAX, 0));
        let out = world(2, fast(6), |rc, comm| {
            let peer = 1 - comm.rank();
            let near = u32::MAX - 1;
            rc.channel(peer, Tag(0), |ch| (ch.tx_next, ch.rx_expected) = (near, near));
            let mut got = vec![];
            for i in 0..4u8 {
                let mut buf = [0u8; 1];
                complete_now(rc.sendrecv(&[i], peer, Tag(0), &mut buf, peer, Tag(0))).unwrap();
                got.push(buf[0]);
            }
            (got, rc.channel(peer, Tag(0), |ch| (ch.tx_next, ch.rx_expected)))
        });
        assert_eq!(out.results[0], (vec![0, 1, 2, 3], (2, 2)));
        assert_eq!(out.results[0], out.results[1]);
    }

    #[test]
    fn loopback_skips_protocol() {
        let out = world(1, RetryConfig::default(), |rc, _| {
            complete_now(rc.send(&[9u8; 4], 0, Tag(0))).unwrap();
            let mut buf = [0u8; 4];
            complete_now(rc.recv(&mut buf, 0, Tag(0))).unwrap();
            buf[0]
        });
        assert_eq!(out.results[0], 9);
        assert_eq!(out.traffic.total_msgs(), 1, "no ack for a loopback message");
    }

    #[test]
    fn recv_timeout_passes_through() {
        let out = rank0_alone(fast(6), |rc| {
            complete_now(rc.recv_timeout(&mut [0u8; 4], 1, Tag(5), Duration::from_millis(30)))
        });
        assert_eq!(out.results[0], Some(Err(CommError::Timeout { peer: 1 })));
    }

    #[test]
    fn truncation_surfaces_like_plain_recv() {
        let out = world(2, fast(6), |rc, comm| {
            if comm.rank() == 0 {
                // the ack never comes back (receiver errors out first), so
                // tolerate either outcome of the send
                let _ = complete_now(rc.send(&[1u8; 64], 1, Tag(0)));
                comm.recv(&mut [0u8; 1], 1, Tag(9)).unwrap();
                None
            } else {
                let err = complete_now(rc.recv(&mut [0u8; 8], 0, Tag(0))).unwrap_err();
                comm.send(&[0], 0, Tag(9)).unwrap();
                Some(err)
            }
        });
        assert_eq!(out.results[1], Some(CommError::Truncation { capacity: 8, incoming: 64 }));
    }
}
