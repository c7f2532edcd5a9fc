//! Reliable delivery over a lossy communicator.
//!
//! [`ReliableComm`] wraps any [`AsyncCommunicator`] with a windowed,
//! selective-repeat acknowledgement protocol. Every payload is framed with a
//! per-`(peer, tag)` sequence number and transmitted at once; the frame then
//! stays in flight, a refcount clone of what the caller staged, until an
//! acknowledgement covers it. An ack carries the receiver's next expected
//! number and covers every frame below it, so one ack settles a whole run of
//! frames. Each channel keeps one retransmission timer, on its oldest
//! unacknowledged frame (the *head*), and retransmits only that frame, on an
//! exponential backoff, until it is acknowledged or out of attempts. The
//! receiver delivers in order, stashes frames that arrive ahead of order, and
//! drops stale duplicates (retransmissions whose original did arrive, or
//! messages duplicated by the link itself) after re-acknowledging them, so
//! the application sees exactly-once delivery in order — over a link that
//! drops, duplicates, or reorders (boundedly) its messages.
//!
//! ## Settling
//!
//! `post` transmits and returns; [`AsyncCommunicator::flush`] settles. It
//! sends the acks this rank owes, then waits until every frame it has in
//! flight is acknowledged, retransmitting on the way (for at most the
//! patience it is given, after which the rest is given up on as timed out).
//! A collective flushes once, after its last op: the schedule interpreter
//! settles a broadcast's scatter and allgather together, so a scatter
//! parent starts its ring without waiting for its children's acks, and
//! drop-free each channel is acknowledged exactly once.
//! `send` and `send_shared` end with a flush, so a returned `send` is an
//! acknowledged one; `recv`, `recv_timeout` and `recv_owned` end with
//! [`AsyncCommunicator::acknowledge`], which sends the owed acks and waits
//! for nothing, so a returned `recv` has sent its ack; `sendrecv` and
//! `sendrecv_shared` flush before and after their exchange.
//!
//! A channel fails when its peer exits with frames of ours unacknowledged
//! ([`CommError::PeerFailed`]) or its head runs out of attempts
//! ([`CommError::Timeout`]). It then drops every frame in flight, and the
//! next flush reports the failure, once. A `take` that meets the failure
//! while pumping keeps going — a receive never fails for a send it did
//! not make — except inside `exchange`, for the frame the exchange posted.
//!
//! A receiver owes an ack after any delivery or stale duplicate, and sends
//! what it owes only when it is about to block, when it flushes, and before
//! it returns an error: a rank that takes a run of frames without waiting
//! acknowledges them all with one envelope. A `take` first probes without
//! blocking; before it blocks it sends its owed acks, drains the acks that
//! have arrived for its own frames and retransmits every head whose timer
//! fired, then waits until the earlier of the caller's deadline and the next
//! timer. `exchange` is a post and a take.
//!
//! A frame's wire image is `sequence number (4 bytes, LE) ‖ payload`, but the
//! two are never packed together here: the number is handed to the wrapped
//! transport *beside* the payload ([`AsyncCommunicator::send_prefixed`] /
//! [`recv_prefixed`](AsyncCommunicator::recv_prefixed)). Over a transport
//! that queues envelopes, a frame is a refcount clone of what the caller
//! staged, a retransmission is another clone of the same rental, and a
//! duplicate is told by its number and dropped without a byte moving. The
//! protocol is the envelope core (`post`, `take`, `exchange`, `flush`,
//! `acknowledge`); every other call is the trait's own, built on it.
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
//! Acks must not be lost: a receiver may leave once its own flush has sent
//! them, and nothing would re-acknowledge a retransmission after that.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::ops::Bound::{Excluded, Unbounded};
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
/// (serial-number arithmetic, RFC 1982); the two ends of a channel stay
/// within one run's frames of each other, far inside the half circle.
fn at_or_after(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) < 1 << 31
}

/// A channel: a peer and a user tag.
type Key = (Rank, u32);

/// The tag carrying channel `key`'s data frames (its user tag was checked
/// by [`ReliableComm::check_tag`] before the channel was opened).
fn data_tag((_, tag): Key) -> Tag {
    Tag(DATA_TAG_BASE + tag)
}

/// The tag carrying channel `key`'s acknowledgements.
fn ack_tag((_, tag): Key) -> Tag {
    Tag(ACK_TAG_BASE + tag)
}

/// Per-`(peer, tag)` protocol state: the sending half toward the peer and
/// the receiving half from it.
#[derive(Default)]
struct Channel {
    /// Sequence number of the next outgoing frame.
    tx_next: u32,
    /// Frames transmitted and not yet acknowledged, oldest first; the last
    /// carries `tx_next - 1`.
    unacked: VecDeque<SharedBuf>,
    /// Transmissions of the head so far.
    attempts: u32,
    /// When the head's retransmission timer fires, on the backend clock.
    due: u64,
    /// Sequence number the receiver delivers next.
    rx_expected: u32,
    /// Frames that arrived ahead of `rx_expected`, with their numbers.
    stash: Vec<(u32, SharedBuf)>,
    /// Whether a delivery or a stale duplicate is still unacknowledged.
    owes_ack: bool,
    /// Why the sending half last gave up on its frames, until a flush
    /// reports it.
    failed: Option<CommError>,
}

impl Channel {
    /// Sequence number of the head.
    fn head_seq(&self) -> u32 {
        self.tx_next.wrapping_sub(self.unacked.len() as u32)
    }

    /// Give up on every frame in flight, so that their failure is met once
    /// and the next frame starts afresh. The numbers are not reused: a live
    /// receiver that takes the dropped frames late still sees them in order.
    fn abandon(&mut self) {
        self.unacked.clear();
    }

    /// Deliver `body` as frame `rx_expected`: the number advances and an ack
    /// is owed even when `body` overruns `capacity`, since a truncated
    /// receive consumes its message like any other.
    fn deliver(&mut self, body: SharedBuf, capacity: usize) -> Result<SharedBuf> {
        self.rx_expected = self.rx_expected.wrapping_add(1);
        self.owes_ack = true;
        if body.len() > capacity {
            return Err(CommError::Truncation { capacity, incoming: body.len() });
        }
        Ok(body)
    }
}

/// Acknowledged, deduplicated delivery over a lossy [`AsyncCommunicator`].
///
/// See the [module docs](self) for the protocol and its requirements.
pub struct ReliableComm<'a, C: ?Sized> {
    inner: &'a C,
    cfg: RetryConfig,
    /// Every channel this rank has used, ordered so that walking them (to
    /// send owed acks or pump frames in flight) replays identically.
    channels: RefCell<BTreeMap<Key, Channel>>,
}

impl<'a, C: ?Sized> ReliableComm<'a, C> {
    /// Wrap `inner` with the default [`RetryConfig`].
    pub fn new(inner: &'a C) -> Self {
        Self::with_config(inner, RetryConfig::default())
    }

    /// Wrap `inner` with an explicit retransmission policy.
    pub fn with_config(inner: &'a C, cfg: RetryConfig) -> Self {
        ReliableComm { inner, cfg, channels: RefCell::new(BTreeMap::new()) }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        self.inner
    }

    /// Read or update the state of channel `key`. The borrow ends with `f`,
    /// so it is never held across an `.await`.
    fn channel<R>(&self, key: Key, f: impl FnOnce(&mut Channel) -> R) -> R {
        f(self.channels.borrow_mut().entry(key).or_default())
    }

    /// The first channel after `after` (from the first with `None`) that
    /// `pick` selects.
    fn next_channel(&self, after: Option<Key>, pick: impl Fn(&Channel) -> bool) -> Option<Key> {
        let from = after.map_or(Unbounded, Excluded);
        let channels = self.channels.borrow();
        channels.range((from, Unbounded)).find(|(_, ch)| pick(ch)).map(|(&key, _)| key)
    }
}

impl<C: AsyncCommunicator + ?Sized> ReliableComm<'_, C> {
    /// Refuse a user tag the two protocol ranges have no room for, before
    /// anything is posted: shifted, it would land a data frame among the
    /// acks.
    fn check_tag(&self, tag: Tag) -> Result<()> {
        if tag.0 < ACK_TAG_BASE - DATA_TAG_BASE {
            Ok(())
        } else {
            Err(CommError::Unsupported { what: "reliable/tag", size: self.inner.size() })
        }
    }

    /// When a retransmission timer for 0-based attempt `attempt`, started
    /// now, fires.
    fn arm(&self, attempt: u32) -> u64 {
        deadline_after(self.inner.now_ns(), self.cfg.timeout_for(attempt))
    }

    /// Put frame `seq` of channel `key` on the wire once — the only place a
    /// frame is built, and it is built from references.
    async fn transmit(&self, key: Key, seq: u32, body: &SharedBuf) -> Result<()> {
        self.inner.send_prefixed(seq.to_le_bytes(), body, key.0, data_tag(key)).await
    }

    /// Acknowledge every frame below `next` on channel `key`. An ack is
    /// posted as a plain four-byte payload and read straight off the
    /// envelope by [`Self::on_ack`] — no pool rental or refcount, which
    /// `send`/`recv_timeout` would pay — with both copies still counted.
    async fn send_ack(&self, key: Key, next: u32) -> Result<()> {
        let ack = Payload::from(next.to_le_bytes().to_vec());
        self.inner.note_copy(ack.len());
        match self.inner.post(ack, key.0, ack_tag(key)).await {
            // A dead peer cannot retransmit, so the lost ack is moot; the
            // delivered payloads are still good.
            Err(CommError::PeerFailed { .. }) => Ok(()),
            r => r,
        }
    }

    /// Send every ack this rank owes, one envelope per channel.
    async fn send_owed_acks(&self) -> Result<()> {
        let mut at = None;
        while let Some(key) = self.next_channel(at, |ch| ch.owes_ack) {
            let next = self.channel(key, |ch| {
                ch.owes_ack = false;
                ch.rx_expected
            });
            self.send_ack(key, next).await?;
            at = Some(key);
        }
        Ok(())
    }

    /// Apply an arrived ack to channel `key`: every frame below the number it
    /// carries is settled, and a new head's timer starts now. A stale or
    /// malformed ack changes nothing.
    fn on_ack(&self, key: Key, ack: &Payload) {
        self.inner.note_copy(ack.len());
        let Ok(next) = <[u8; 4]>::try_from(&ack.bytes()[..]).map(u32::from_le_bytes) else {
            return;
        };
        let settled = self.channel(key, |ch| {
            let covered = next.wrapping_sub(ch.head_seq()) as usize;
            let fresh = (1..=ch.unacked.len()).contains(&covered);
            if fresh {
                ch.unacked.drain(..covered);
            }
            fresh
        });
        if settled {
            let due = self.arm(0);
            self.channel(key, |ch| (ch.attempts, ch.due) = (1, due));
        }
    }

    /// Take the ack channel of `key` within `wait` and apply what arrived:
    /// whether an ack did. The peer's exit fails the channel only while
    /// frames of ours are unacknowledged (see [`Self::fail`]).
    async fn await_ack(&self, key: Key, wait: Duration) -> Result<bool> {
        match self.inner.take(4, key.0, ack_tag(key), Some(wait)).await {
            Ok(ack) => {
                self.on_ack(key, &ack);
                Ok(true)
            }
            Err(CommError::Timeout { .. }) => Ok(false),
            Err(CommError::PeerFailed { rank }) if rank == key.0 => {
                match self.channel(key, |ch| ch.unacked.is_empty()) {
                    true => Ok(false),
                    false => Err(CommError::PeerFailed { rank }),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Retransmit channel `key`'s head if its timer has fired, or fail with
    /// [`CommError::Timeout`] once the head has used up its attempts (see
    /// [`Self::fail`]).
    async fn retransmit_if_due(&self, key: Key) -> Result<()> {
        let now = self.inner.now_ns();
        let head = self.channel(key, |ch| match ch.unacked.front() {
            Some(body) if ch.due <= now => Some((ch.head_seq(), ch.attempts, body.clone())),
            _ => None,
        });
        let Some((seq, attempts, body)) = head else {
            return Ok(());
        };
        if attempts >= self.cfg.max_attempts {
            return Err(CommError::Timeout { peer: key.0 });
        }
        self.transmit(key, seq, &body).await?;
        let due = self.arm(attempts);
        self.channel(key, |ch| (ch.attempts, ch.due) = (attempts + 1, due));
        Ok(())
    }

    /// Meet error `e` on channel `key`'s sending half. A failure of the
    /// channel itself — its peer exited with frames of ours unacknowledged,
    /// or its head ran out of attempts — drops the frames in flight; it is
    /// returned if `key` is the `watch`ed channel (an exchange's own send)
    /// and otherwise kept for the next flush to report, so a receive never
    /// fails for a send it did not make. Anything else (this rank's own
    /// crash, say) is returned as it is.
    fn fail(&self, key: Key, e: CommError, watch: Option<Key>) -> Result<()> {
        let channel_failed = match e {
            CommError::Timeout { peer } | CommError::PeerFailed { rank: peer } => peer == key.0,
            _ => false,
        };
        if !channel_failed {
            return Err(e);
        }
        self.channel(key, |ch| {
            ch.abandon();
            if watch == Some(key) {
                return Err(e);
            }
            ch.failed.get_or_insert(e);
            Ok(())
        })
    }

    /// Give up on every frame in flight, each channel's as timed out.
    fn give_up(&self) {
        for (&(peer, _), ch) in self.channels.borrow_mut().iter_mut() {
            if !ch.unacked.is_empty() {
                ch.abandon();
                ch.failed.get_or_insert(CommError::Timeout { peer });
            }
        }
    }

    /// The first failure kept for a flush to report, every kept one cleared.
    fn take_failure(&self) -> Result<()> {
        let mut first = None;
        for ch in self.channels.borrow_mut().values_mut() {
            first = first.or(ch.failed.take());
        }
        first.map_or(Ok(()), Err)
    }

    /// Progress every frame in flight: drain the acks that have arrived
    /// and, if the wait that led here ran out (`expired`), retransmit each
    /// head whose timer is due; a channel that fails on the way is met by
    /// [`Self::fail`] with `watch`. Resolves to the channel whose timer
    /// fires next and the instant to wait until, `None` once nothing is in
    /// flight.
    ///
    /// A head is retransmitted only once a wait has run out, and a timer
    /// due now is waited for one nanosecond more. With a zero timeout the
    /// timer is due the instant it is armed, and retransmitting on it at
    /// once would spend every attempt before the receiver ever ran; the
    /// nanosecond lets it run and ack. It also keeps a rank that a message
    /// woke at the instant its timer is due from resending: another rank's
    /// timer, due at the same instant, may be about to retransmit the very
    /// frame this head's receiver is stuck on, after which it acks this
    /// one too.
    async fn pump(&self, expired: bool, watch: Option<Key>) -> Result<Option<(Key, u64)>> {
        let mut at = None;
        let mut next: Option<(Key, u64)> = None;
        while let Some(key) = self.next_channel(at, |ch| !ch.unacked.is_empty()) {
            if let Err(e) = self.progress(key, expired).await {
                self.fail(key, e, watch)?;
            }
            let due = self.channel(key, |ch| (!ch.unacked.is_empty()).then_some(ch.due));
            if let Some(due) = due.filter(|&t| next.is_none_or(|(_, first)| t < first)) {
                next = Some((key, due));
            }
            at = Some(key);
        }
        let now = self.inner.now_ns();
        Ok(next.map(|(key, due)| (key, due.max(now.saturating_add(1)))))
    }

    /// Drain channel `key`'s arrived acks, then retransmit its head if
    /// `expired` and due.
    async fn progress(&self, key: Key, expired: bool) -> Result<()> {
        while self.await_ack(key, Duration::ZERO).await? {}
        if expired {
            self.retransmit_if_due(key).await?;
        }
        Ok(())
    }

    /// The next in-order payload on channel `key`, waiting until `deadline`
    /// (for ever with `None`); a failure of the `watch`ed channel's sending
    /// half fails the wait too. Owed acks are the caller's to send on error.
    async fn take_in_order(
        &self,
        capacity: usize,
        key: Key,
        deadline: Option<u64>,
        watch: Option<Key>,
    ) -> Result<SharedBuf> {
        let src = key.0;
        let mut expired = false;
        loop {
            let stashed = self.channel(key, |ch| {
                let at = ch.stash.iter().position(|&(seq, _)| seq == ch.rx_expected)?;
                let (_, body) = ch.stash.swap_remove(at);
                Some(ch.deliver(body, capacity))
            });
            if let Some(delivered) = stashed {
                return delivered;
            }
            let probe =
                self.inner.recv_prefixed(usize::MAX, src, data_tag(key), Some(Duration::ZERO));
            let frame = match probe.await {
                Err(CommError::Timeout { .. }) => {
                    // Nothing queued: settle what can be settled, then wait
                    // for the frame or the next timer, whichever is first.
                    self.send_owed_acks().await?;
                    let timer = self.pump(std::mem::take(&mut expired), watch).await?;
                    let timer = timer.map(|(_, until)| until);
                    let now = self.inner.now_ns();
                    if deadline.is_some_and(|deadline| deadline <= now) {
                        return Err(CommError::Timeout { peer: src });
                    }
                    let until = deadline.into_iter().chain(timer).min();
                    let wait = until.map(|until| Duration::from_nanos(until.saturating_sub(now)));
                    let frame =
                        self.inner.recv_prefixed(usize::MAX, src, data_tag(key), wait).await;
                    expired = matches!(frame, Err(CommError::Timeout { .. }));
                    if expired {
                        continue;
                    }
                    frame
                }
                other => other,
            };
            // An envelope too short to carry a number is not a protocol
            // frame; nothing sane to do but drop it.
            let Some((prefix, body)) = frame? else { continue };
            let seq = u32::from_le_bytes(prefix);
            let delivered = self.channel(key, |ch| {
                if seq == ch.rx_expected {
                    Some(ch.deliver(body, capacity))
                } else if at_or_after(seq, ch.rx_expected) {
                    // Ahead of order: a predecessor was lost or held back.
                    if ch.stash.iter().all(|&(stashed, _)| stashed != seq) {
                        ch.stash.push((seq, body));
                    }
                    None
                } else {
                    // A duplicate of a delivered frame: re-ack it so the
                    // sender stops retransmitting, and drop it.
                    ch.owes_ack = true;
                    None
                }
            });
            if let Some(delivered) = delivered {
                return delivered;
            }
        }
    }

    /// [`AsyncCommunicator::take`], failing also if the sending half of
    /// `watch` does (see [`Self::fail`]).
    async fn take_watching(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
        watch: Option<Key>,
    ) -> Result<Payload> {
        self.check_rank(src)?;
        self.check_tag(tag)?;
        if src == self.rank() {
            // Loopback cannot lose messages; skip the protocol.
            return self.inner.take(capacity, src, tag, timeout).await;
        }
        let deadline = timeout.map(|t| deadline_after(self.inner.now_ns(), t));
        match self.take_in_order(capacity, (src, tag.0), deadline, watch).await {
            Ok(body) => Ok(Payload::Shared(body)),
            Err(e) => {
                self.send_owed_acks().await?;
                Err(e)
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

    /// Settle first: a frame still in flight at a synchronization point
    /// would otherwise be retransmitted across it.
    async fn barrier(&self) -> Result<()> {
        self.flush(None).await?;
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes);
    }

    /// Transmit one frame around `payload` and keep it in flight until an
    /// ack covers it.
    async fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        self.check_tag(tag)?;
        if dest == self.rank() {
            // Loopback cannot lose messages; skip the protocol.
            return self.inner.post(payload, dest, tag).await;
        }
        if self.cfg.max_attempts == 0 {
            return Err(CommError::Timeout { peer: dest });
        }
        let key = (dest, tag.0);
        let body = payload.into_shared();
        let (seq, head) = self.channel(key, |ch| (ch.tx_next, ch.unacked.is_empty()));
        if let Err(e) = self.transmit(key, seq, &body).await {
            // This post reports the failure; nothing is left to settle.
            return self.fail(key, e, Some(key));
        }
        let due = head.then(|| self.arm(0));
        self.channel(key, |ch| {
            if let Some(due) = due {
                (ch.attempts, ch.due) = (1, due);
            }
            ch.tx_next = seq.wrapping_add(1);
            ch.unacked.push_back(body);
        });
        Ok(())
    }

    /// The next in-order payload on channel `(src, tag)`, within `timeout`
    /// if one is given. An unbounded wait is fine: as long as the sender
    /// retries, some copy of the expected frame eventually arrives; if the
    /// sender died the backend's failure detector surfaces `PeerFailed`.
    /// A frame of this rank's own that fails meanwhile does not fail the
    /// take: the next flush reports it.
    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> impl Future<Output = Result<Payload>> {
        self.take_watching(capacity, src, tag, timeout, None)
    }

    /// A post and a take, with both ranks and both tags checked before
    /// anything is posted. The take also fails if the frame just posted
    /// does, so the exchange is bounded by the retry budget even when `src`
    /// never sends.
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
        self.check_tag(sendtag)?;
        self.check_tag(recvtag)?;
        self.post(payload, dest, sendtag).await?;
        let watch = (dest != self.rank()).then_some((dest, sendtag.0));
        self.take_watching(capacity, src, recvtag, None, watch).await
    }

    /// Send the owed acks, then wait until every frame in flight is
    /// acknowledged or given up on, retransmitting each head on its timer,
    /// and report the first failure kept since the last flush. The wait is
    /// on the channel whose timer fires first; acks arriving on the others
    /// are drained when it ends. Past `within`, every frame still in flight
    /// is given up on as timed out.
    async fn flush(&self, within: Option<Duration>) -> Result<()> {
        self.send_owed_acks().await?;
        let deadline = within.map(|t| deadline_after(self.inner.now_ns(), t));
        let mut expired = false;
        while let Some((key, until)) = self.pump(expired, None).await? {
            let now = self.inner.now_ns();
            if deadline.is_some_and(|deadline| deadline <= now) {
                self.give_up();
                break;
            }
            let until = deadline.map_or(until, |deadline| deadline.min(until));
            let wait = Duration::from_nanos(until.saturating_sub(now));
            expired = match self.await_ack(key, wait).await {
                Ok(acked) => !acked,
                Err(e) => self.fail(key, e, None).map(|()| false)?,
            };
        }
        self.take_failure()
    }

    fn acknowledge(&self) -> impl Future<Output = Result<()>> {
        self.send_owed_acks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acomm::{complete_now, SyncComm};
    use crate::comm::Communicator;
    use crate::event_comm::EventWorld;
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
    fn one_ack_settles_a_run_of_frames() {
        let out = EventWorld::run(2, |comm| async move {
            let rc = ReliableComm::with_config(&comm, fast(3));
            for i in 0..5u8 {
                if comm.rank() == 0 {
                    rc.post(Payload::from(vec![i; 8]), 1, Tag(2)).await?;
                } else {
                    let got = rc.take(8, 0, Tag(2), None).await?;
                    assert_eq!(&got.bytes()[..], &[i; 8]);
                }
            }
            rc.flush(None).await
        });
        assert_eq!(out.results, vec![Ok(()), Ok(())]);
        let sent: Vec<u64> = out.traffic.per_rank.iter().map(|st| st.msgs_sent).collect();
        assert_eq!(sent, vec![5, 1], "five frames, one cumulative ack");
    }

    /// Rank 0 leaves a frame in flight to rank 2, which never takes it. Its
    /// receives from rank 1 neither wait for that frame nor fail with it: a
    /// bounded one times out on its own deadline, and one that succeeds
    /// after the frame ran out of attempts keeps its message. The next flush
    /// reports the failure, once.
    #[test]
    fn a_receive_neither_waits_for_nor_fails_with_another_send() {
        let ms = Duration::from_millis;
        let out = EventWorld::run(3, |comm| async move {
            let rc = ReliableComm::with_config(&comm, fast(3));
            let idle = |t| comm.take(1, 0, Tag(9), Some(ms(t)));
            match comm.rank() {
                0 => {
                    rc.post(Payload::from(vec![1; 4]), 2, Tag(1)).await?;
                    let mut buf = [0u8; 4];
                    let t0 = comm.now_ns();
                    let early = rc.recv_timeout(&mut buf, 1, Tag(2), ms(20)).await;
                    let waited = Duration::from_nanos(comm.now_ns() - t0);
                    let got = rc.recv_timeout(&mut buf, 1, Tag(2), ms(200)).await;
                    let flushes = [rc.flush(None).await, rc.flush(None).await];
                    Ok(format!("{early:?} {waited:?} {got:?} {buf:?} {flushes:?}"))
                }
                1 => {
                    assert!(idle(100).await.is_err());
                    rc.send(&[7; 4], 0, Tag(2)).await.map(|()| String::new())
                }
                _ => {
                    assert!(idle(300).await.is_err());
                    Ok(String::new())
                }
            }
        });
        assert_eq!(
            out.results[0],
            Ok("Err(Timeout { peer: 1 }) 20ms Ok(4) [7, 7, 7, 7] \
                [Err(Timeout { peer: 2 }), Ok(())]"
                .to_string())
        );
        assert_eq!(out.results[1], Ok(String::new()));
    }

    /// A frame in flight to a rank that exits without taking it fails its
    /// channel once: the next flush reports it, the one after has nothing
    /// left to settle.
    #[test]
    fn a_peer_that_exits_is_reported_once() {
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 1 {
                let _ = comm.take(1, 0, Tag(9), Some(Duration::from_millis(10))).await;
                return vec![];
            }
            let rc = ReliableComm::with_config(&comm, RetryConfig::default());
            let posted = rc.post(Payload::from(vec![1; 4]), 1, Tag(1)).await;
            vec![posted, rc.flush(None).await, rc.flush(None).await]
        });
        assert_eq!(out.results[0], vec![Ok(()), Err(CommError::PeerFailed { rank: 1 }), Ok(())]);
    }

    #[test]
    fn frames_ahead_of_order_wait_in_the_stash() {
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 0 {
                // Frame 1 overtakes frame 0, as after a lost first attempt.
                for seq in [1u32, 0] {
                    let body = SharedBuf::from(vec![seq as u8; 4]);
                    comm.send_prefixed(seq.to_le_bytes(), &body, 1, Tag(DATA_TAG_BASE + 4)).await?;
                }
                let ack = comm.take(4, 1, Tag(ACK_TAG_BASE + 4), None).await?;
                let next = <[u8; 4]>::try_from(&ack.bytes()[..]).map(u32::from_le_bytes);
                Ok::<_, CommError>(vec![next.unwrap()])
            } else {
                let rc = ReliableComm::new(&comm);
                let mut got = vec![];
                for _ in 0..2 {
                    got.push(u32::from(rc.take(4, 0, Tag(4), None).await?.bytes()[0]));
                }
                rc.flush(None).await?;
                Ok(got)
            }
        });
        assert_eq!(out.results[1], Ok(vec![0, 1]), "delivered in order");
        assert_eq!(out.results[0], Ok(vec![2]), "one ack covering both");
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
            rc.channel((peer, 0), |ch| (ch.tx_next, ch.rx_expected) = (near, near));
            let mut got = vec![];
            for i in 0..4u8 {
                let mut buf = [0u8; 1];
                complete_now(rc.sendrecv(&[i], peer, Tag(0), &mut buf, peer, Tag(0))).unwrap();
                got.push(buf[0]);
            }
            (got, rc.channel((peer, 0), |ch| (ch.tx_next, ch.rx_expected, ch.unacked.len())))
        });
        assert_eq!(out.results[0], (vec![0, 1, 2, 3], (2, 2, 0)));
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
