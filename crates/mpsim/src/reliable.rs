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
//! two are never packed together here: the number is posted to the wrapped
//! transport *beside* the payload, as a [`Payload::Prefixed`], and a frame
//! taken off it is split the same way ([`Payload::split_prefix`]). Over a
//! transport that queues envelopes, a frame is a refcount clone of what the
//! caller staged, a retransmission is another clone of the same rental, and
//! a duplicate is told by its number and dropped without a byte moving. The
//! protocol is the envelope core (`post`, `take`, `exchange`, `flush`,
//! `acknowledge`); every other call is the trait's own, built on it.
//!
//! ## The channel table
//!
//! A frame costs a fixed number of steps, however many channels a rank has
//! used. Channels live in a dense table: a slot per channel, found through
//! an index paged by peer rank (`pages[peer / 64][peer % 64]`, the way
//! [`LaneMailbox`](crate::event_mailbox::LaneMailbox) pages its lanes) that
//! leads to the peer's channels, one tag comparison each. `post` finds its
//! channel and queues the frame there in one step, then posts it (a post
//! that fails takes the frame back; only a head's timer, which starts once
//! it is on the wire, needs the channel again); a `take` whose frame is
//! already queued in order finds its channel once, takes the frame without
//! blocking and delivers it. Both call the wrapped core directly, and
//! `exchange` is the two written out, not two nested futures.
//!
//! The walks (sending owed acks, pumping frames in flight, giving up,
//! collecting failures) visit only the channels that have work for them:
//! three short rosters, kept in `(peer, tag)` order as channels start and
//! stop owing an ack, holding frames or holding a failure. The order is the
//! one a walk over every channel would take, so a seeded run sends the same
//! acks and retransmissions at the same virtual instants as it always has.

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
use std::collections::VecDeque;
use std::future::Future;
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

/// Frame `seq` of a channel as the wrapped transport carries it: the number
/// beside a refcount clone of the body — the only place a frame is built.
fn frame(seq: u32, body: SharedBuf) -> Payload {
    Payload::Prefixed(seq.to_le_bytes(), body)
}

/// A channel's key and its slot in the [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chan {
    key: Key,
    slot: usize,
}

/// Per-`(peer, tag)` protocol state: the sending half toward the peer and
/// the receiving half from it.
#[derive(Default)]
struct Channel {
    /// Slot + 1 of the next channel to the same peer, 0 at the end.
    sibling: u32,
    /// The user tag (the peer is the index page's).
    tag: u32,
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
}

/// The channels that have something for a walk to do, in `(peer, tag)`
/// order: a handful at a time, so a sorted `Vec` beats any tree.
#[derive(Default)]
struct Roster(Vec<Chan>);

impl Roster {
    fn position(&self, key: Key) -> std::result::Result<usize, usize> {
        self.0.binary_search_by_key(&key, |chan| chan.key)
    }

    fn insert(&mut self, chan: Chan) {
        if let Err(at) = self.position(chan.key) {
            self.0.insert(at, chan);
        }
    }

    fn remove(&mut self, key: Key) {
        if let Ok(at) = self.position(key) {
            self.0.remove(at);
        }
    }

    /// The first member after `after` (from the first with `None`).
    fn after(&self, after: Option<Key>) -> Option<Chan> {
        let at = after.map_or(0, |key| self.0.partition_point(|chan| chan.key <= key));
        self.0.get(at).copied()
    }
}

/// Peers per index page.
const PAGE: usize = 64;

/// Every channel this rank has used, and the three rosters the walks
/// visit. A state change that moves a channel into or out of a roster goes
/// through a method here, so the rosters always match the channels.
#[derive(Default)]
struct Table {
    /// `pages[peer / PAGE][peer % PAGE]` is 1 + the slot of the peer's
    /// first channel, 0 for none. A page is allocated when one of its peers
    /// is first used, so the index of a rank that talks to a few peers of a
    /// large world stays small.
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    /// The channels, by slot; a slot is never reused.
    channels: Vec<Channel>,
    /// Channels with frames in flight.
    in_flight: Roster,
    /// Channels that owe an ack.
    owing: Roster,
    /// Channels with a failure for the next flush to report.
    failed: Roster,
}

impl Table {
    /// Channel `key`, opened on first use: two loads to the peer's chain,
    /// then a tag comparison per channel of that peer (one to three for
    /// every collective).
    fn chan(&mut self, key: Key) -> Chan {
        let (peer, tag) = key;
        if self.pages.len() <= peer / PAGE {
            self.pages.resize_with(peer / PAGE + 1, || None);
        }
        let first =
            &mut self.pages[peer / PAGE].get_or_insert_with(|| Box::new([0; PAGE]))[peer % PAGE];
        let mut link = *first;
        while let Some(slot) = (link as usize).checked_sub(1) {
            if self.channels[slot].tag == tag {
                return Chan { key, slot };
            }
            link = self.channels[slot].sibling;
        }
        let slot = self.channels.len();
        self.channels.push(Channel { sibling: *first, tag, ..Channel::default() });
        *first = slot as u32 + 1;
        Chan { key, slot }
    }

    /// Number `body` as the next frame of channel `key` and queue it behind
    /// the frames in flight there: the channel, the frame's number, and
    /// whether it is the head.
    fn queue_frame(&mut self, key: Key, body: SharedBuf) -> (Chan, u32, bool) {
        let chan = self.chan(key);
        let ch = &mut self.channels[chan.slot];
        let (seq, head) = (ch.tx_next, ch.unacked.is_empty());
        ch.tx_next = seq.wrapping_add(1);
        ch.unacked.push_back(body);
        if head {
            self.in_flight.insert(chan);
        }
        (chan, seq, head)
    }

    /// Take back the frame [`Self::queue_frame`] queued last on `chan`, which
    /// never went out; its number is reused.
    fn unqueue_frame(&mut self, chan: Chan) {
        let ch = &mut self.channels[chan.slot];
        ch.unacked.pop_back();
        ch.tx_next = ch.tx_next.wrapping_sub(1);
        if ch.unacked.is_empty() {
            self.in_flight.remove(chan.key);
        }
    }

    /// Settle every frame of `chan` below `next`: whether the number
    /// covered any frame in flight (a stale or future one changes nothing).
    fn settle(&mut self, chan: Chan, next: u32) -> bool {
        let ch = &mut self.channels[chan.slot];
        let covered = next.wrapping_sub(ch.head_seq()) as usize;
        let fresh = (1..=ch.unacked.len()).contains(&covered);
        if fresh {
            ch.unacked.drain(..covered);
            if ch.unacked.is_empty() {
                self.in_flight.remove(chan.key);
            }
        }
        fresh
    }

    /// Give up on every frame in flight on `chan`, so that their failure is
    /// met once and the next frame starts afresh. The numbers are not
    /// reused: a live receiver that takes the dropped frames late still
    /// sees them in order.
    fn abandon(&mut self, chan: Chan) {
        self.channels[chan.slot].unacked.clear();
        self.in_flight.remove(chan.key);
    }

    /// Keep `e` for the next flush to report, unless an earlier failure of
    /// `chan` is already kept.
    fn keep_failure(&mut self, chan: Chan, e: CommError) {
        self.channels[chan.slot].failed.get_or_insert(e);
        self.failed.insert(chan);
    }

    fn owe_ack(&mut self, chan: Chan) {
        let ch = &mut self.channels[chan.slot];
        if !ch.owes_ack {
            ch.owes_ack = true;
            self.owing.insert(chan);
        }
    }

    /// The first channel that owes an ack, no longer owing, with the number
    /// its ack carries.
    fn pop_owed(&mut self) -> Option<(Chan, u32)> {
        let chan = self.owing.after(None)?;
        self.owing.0.remove(0);
        let ch = &mut self.channels[chan.slot];
        ch.owes_ack = false;
        Some((chan, ch.rx_expected))
    }

    /// Deliver `body` as `chan`'s frame `rx_expected`: the number advances
    /// and an ack is owed even when `body` overruns `capacity`, since a
    /// truncated receive consumes its message like any other.
    fn deliver(&mut self, chan: Chan, body: SharedBuf, capacity: usize) -> Result<SharedBuf> {
        let ch = &mut self.channels[chan.slot];
        ch.rx_expected = ch.rx_expected.wrapping_add(1);
        self.owe_ack(chan);
        if body.len() > capacity {
            return Err(CommError::Truncation { capacity, incoming: body.len() });
        }
        Ok(body)
    }

    /// The stashed frame `chan` delivers next, if it arrived ahead of order.
    fn unstash(&mut self, chan: Chan, capacity: usize) -> Option<Result<SharedBuf>> {
        let ch = &mut self.channels[chan.slot];
        let at = ch.stash.iter().position(|&(seq, _)| seq == ch.rx_expected)?;
        let (_, body) = ch.stash.swap_remove(at);
        Some(self.deliver(chan, body, capacity))
    }

    /// Frame `seq` arrived on `chan`: delivered if it is the next in order,
    /// otherwise stashed (ahead of order: a predecessor was lost or held
    /// back) or, a duplicate of a delivered frame, dropped with its re-ack
    /// owed so that the sender stops retransmitting.
    fn accept(
        &mut self,
        chan: Chan,
        seq: u32,
        body: SharedBuf,
        capacity: usize,
    ) -> Option<Result<SharedBuf>> {
        let ch = &mut self.channels[chan.slot];
        if seq == ch.rx_expected {
            Some(self.deliver(chan, body, capacity))
        } else if at_or_after(seq, ch.rx_expected) {
            if ch.stash.iter().all(|&(stashed, _)| stashed != seq) {
                ch.stash.push((seq, body));
            }
            None
        } else {
            self.owe_ack(chan);
            None
        }
    }
}

/// Acknowledged, deduplicated delivery over a lossy [`AsyncCommunicator`].
///
/// See the [module docs](self) for the protocol and its requirements.
pub struct ReliableComm<'a, C: ?Sized> {
    inner: &'a C,
    cfg: RetryConfig,
    /// Every channel this rank has used and the rosters the walks visit.
    table: RefCell<Table>,
}

impl<'a, C: ?Sized> ReliableComm<'a, C> {
    /// Wrap `inner` with the default [`RetryConfig`].
    pub fn new(inner: &'a C) -> Self {
        Self::with_config(inner, RetryConfig::default())
    }

    /// Wrap `inner` with an explicit retransmission policy.
    pub fn with_config(inner: &'a C, cfg: RetryConfig) -> Self {
        ReliableComm { inner, cfg, table: RefCell::new(Table::default()) }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        self.inner
    }

    /// Read or update the channel table. The borrow ends with `f`, so it is
    /// never held across an `.await`. Always inlined: called, it passed the
    /// closure's captures through memory on every frame.
    #[inline(always)]
    fn table<R>(&self, f: impl FnOnce(&mut Table) -> R) -> R {
        f(&mut self.table.borrow_mut())
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

    /// The first half of a post, up to the envelope that goes on the wire:
    /// `payload` itself to this rank (loopback cannot lose messages, so it
    /// skips the protocol), otherwise a frame queued on its channel, with
    /// the channel and whether the frame is its head.
    fn stage_post(
        &self,
        payload: Payload,
        dest: Rank,
        tag: Tag,
    ) -> Result<(Payload, Option<(Chan, bool)>)> {
        self.check_rank(dest)?;
        self.check_tag(tag)?;
        if dest == self.rank() {
            return Ok((payload, None));
        }
        if self.cfg.max_attempts == 0 {
            return Err(CommError::Timeout { peer: dest });
        }
        let body = payload.into_shared();
        let (chan, seq, head) = self.table(|t| t.queue_frame((dest, tag.0), body.clone()));
        Ok((frame(seq, body), Some((chan, head))))
    }

    /// The second half of a post, given what posting the envelope
    /// [`Self::stage_post`] staged returned. A frame that did not go out
    /// leaves its channel as it was, and the post reports the failure; a
    /// head that did starts its timer now.
    fn posted(&self, framed: Option<(Chan, bool)>, sent: Result<()>) -> Result<()> {
        let Some((chan, head)) = framed else {
            return sent;
        };
        if let Err(e) = sent {
            self.table(|t| t.unqueue_frame(chan));
            return self.fail(chan, e, Some(chan.key));
        }
        if head {
            let due = self.arm(0);
            self.table(|t| {
                let ch = &mut t.channels[chan.slot];
                (ch.attempts, ch.due) = (1, due);
            });
        }
        Ok(())
    }

    /// Send every ack this rank owes, one envelope per channel.
    async fn send_owed_acks(&self) -> Result<()> {
        while let Some((chan, next)) = self.table(Table::pop_owed) {
            self.send_ack(chan.key, next).await?;
        }
        Ok(())
    }

    /// Apply an arrived ack to `chan`: every frame below the number it
    /// carries is settled, and a new head's timer starts now. A stale or
    /// malformed ack changes nothing.
    fn on_ack(&self, chan: Chan, ack: &Payload) {
        self.inner.note_copy(ack.len());
        let Ok(next) = <[u8; 4]>::try_from(&ack.bytes()[..]).map(u32::from_le_bytes) else {
            return;
        };
        let due = self.arm(0);
        self.table(|t| {
            if t.settle(chan, next) {
                let ch = &mut t.channels[chan.slot];
                (ch.attempts, ch.due) = (1, due);
            }
        });
    }

    /// Apply what taking `chan`'s ack channel returned: whether an ack
    /// arrived. The peer's exit fails the channel only while frames of ours
    /// are unacknowledged (see [`Self::fail`]).
    fn ack_taken(&self, chan: Chan, taken: Result<Payload>) -> Result<bool> {
        let peer = chan.key.0;
        match taken {
            Ok(ack) => {
                self.on_ack(chan, &ack);
                Ok(true)
            }
            Err(CommError::Timeout { .. }) => Ok(false),
            Err(CommError::PeerFailed { rank }) if rank == peer => {
                match self.table(|t| t.channels[chan.slot].unacked.is_empty()) {
                    true => Ok(false),
                    false => Err(CommError::PeerFailed { rank }),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Take `chan`'s ack channel, within `wait`.
    fn take_ack(&self, chan: Chan, wait: Duration) -> impl Future<Output = Result<Payload>> + '_ {
        self.inner.take(4, chan.key.0, ack_tag(chan.key), Some(wait))
    }

    /// Retransmit `chan`'s head if its timer has fired, or fail with
    /// [`CommError::Timeout`] once the head has used up its attempts (see
    /// [`Self::fail`]).
    async fn retransmit_if_due(&self, chan: Chan) -> Result<()> {
        let now = self.inner.now_ns();
        let head = self.table(|t| {
            let ch = &t.channels[chan.slot];
            match ch.unacked.front() {
                Some(body) if ch.due <= now => Some((ch.head_seq(), ch.attempts, body.clone())),
                _ => None,
            }
        });
        let Some((seq, attempts, body)) = head else {
            return Ok(());
        };
        if attempts >= self.cfg.max_attempts {
            return Err(CommError::Timeout { peer: chan.key.0 });
        }
        self.inner.post(frame(seq, body), chan.key.0, data_tag(chan.key)).await?;
        let due = self.arm(attempts);
        self.table(|t| {
            let ch = &mut t.channels[chan.slot];
            (ch.attempts, ch.due) = (attempts + 1, due);
        });
        Ok(())
    }

    /// Meet error `e` on `chan`'s sending half. A failure of the channel
    /// itself — its peer exited with frames of ours unacknowledged, or its
    /// head ran out of attempts — drops the frames in flight; it is returned
    /// if `chan` is the `watch`ed channel (an exchange's own send) and
    /// otherwise kept for the next flush to report, so a receive never fails
    /// for a send it did not make. Anything else (this rank's own crash,
    /// say) is returned as it is.
    fn fail(&self, chan: Chan, e: CommError, watch: Option<Key>) -> Result<()> {
        let channel_failed = match e {
            CommError::Timeout { peer } | CommError::PeerFailed { rank: peer } => {
                peer == chan.key.0
            }
            _ => false,
        };
        if !channel_failed {
            return Err(e);
        }
        self.table(|t| {
            t.abandon(chan);
            if watch == Some(chan.key) {
                return Err(e);
            }
            t.keep_failure(chan, e);
            Ok(())
        })
    }

    /// Give up on every frame in flight, each channel's as timed out.
    fn give_up(&self) {
        self.table(|t| {
            for chan in std::mem::take(&mut t.in_flight).0 {
                t.channels[chan.slot].unacked.clear();
                t.keep_failure(chan, CommError::Timeout { peer: chan.key.0 });
            }
        });
    }

    /// The first failure kept for a flush to report, every kept one cleared.
    fn take_failure(&self) -> Result<()> {
        self.table(|t| {
            let mut first = None;
            for chan in std::mem::take(&mut t.failed).0 {
                first = first.or(t.channels[chan.slot].failed.take());
            }
            first.map_or(Ok(()), Err)
        })
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
    async fn pump(&self, expired: bool, watch: Option<Key>) -> Result<Option<(Chan, u64)>> {
        let mut at = None;
        let mut next: Option<(Chan, u64)> = None;
        while let Some(chan) = self.table(|t| t.in_flight.after(at)) {
            if let Err(e) = self.progress(chan, expired).await {
                self.fail(chan, e, watch)?;
            }
            let due = self.table(|t| {
                let ch = &t.channels[chan.slot];
                (!ch.unacked.is_empty()).then_some(ch.due)
            });
            if let Some(due) = due.filter(|&t| next.is_none_or(|(_, first)| t < first)) {
                next = Some((chan, due));
            }
            at = Some(chan.key);
        }
        let now = self.inner.now_ns();
        Ok(next.map(|(chan, due)| (chan, due.max(now.saturating_add(1)))))
    }

    /// Drain `chan`'s arrived acks, then retransmit its head if `expired`
    /// and due.
    async fn progress(&self, chan: Chan, expired: bool) -> Result<()> {
        while self.ack_taken(chan, self.take_ack(chan, Duration::ZERO).await)? {}
        if expired {
            self.retransmit_if_due(chan).await?;
        }
        Ok(())
    }

    /// Settle what can be settled, then wait for `chan`'s next frame or the
    /// next retransmission timer, whichever is first: the frame, or `None`
    /// once the wait ran out. `expired` says whether the wait before this
    /// one ran out (see [`Self::pump`]).
    async fn wait_for_frame(
        &self,
        chan: Chan,
        deadline: Option<u64>,
        watch: Option<Key>,
        expired: bool,
    ) -> Result<Option<Payload>> {
        let src = chan.key.0;
        self.send_owed_acks().await?;
        let timer = self.pump(expired, watch).await?;
        let timer = timer.map(|(_, until)| until);
        let now = self.inner.now_ns();
        if deadline.is_some_and(|deadline| deadline <= now) {
            return Err(CommError::Timeout { peer: src });
        }
        let until = deadline.into_iter().chain(timer).min();
        let wait = until.map(|until| Duration::from_nanos(until.saturating_sub(now)));
        match self.inner.take(usize::MAX, src, data_tag(chan.key), wait).await {
            Err(CommError::Timeout { .. }) => Ok(None),
            frame => frame.map(Some),
        }
    }

    /// [`AsyncCommunicator::take`], failing also if the sending half of
    /// `watch` does (see [`Self::fail`]): the next in-order payload on
    /// `(src, tag)`, waiting until the deadline `timeout` sets (for ever
    /// with `None`).
    ///
    /// A frame that is already queued in order costs one lookup of its
    /// channel (which also looks in its stash), one non-blocking take and
    /// one delivery. Owed acks are sent before an error is returned.
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
        // Only a frame stashed before this take can be the one it delivers:
        // the loop below stashes nothing that is next in order.
        let (chan, stashed) = self.table(|t| {
            let chan = t.chan((src, tag.0));
            (chan, t.unstash(chan, capacity))
        });
        let data = data_tag(chan.key);
        let mut expired = false;
        let taken = match stashed {
            Some(delivered) => delivered,
            None => loop {
                let probe = self.inner.take(usize::MAX, src, data, Some(Duration::ZERO)).await;
                let frame = match probe {
                    // Nothing queued: settle, then wait.
                    Err(CommError::Timeout { .. }) => {
                        let waited = self.wait_for_frame(chan, deadline, watch, expired).await;
                        expired = matches!(waited, Ok(None));
                        match waited {
                            Ok(Some(frame)) => frame,
                            Ok(None) => continue,
                            Err(e) => break Err(e),
                        }
                    }
                    Ok(frame) => frame,
                    Err(e) => break Err(e),
                };
                // An envelope too short to carry a number is not a protocol
                // frame; nothing sane to do but drop it.
                let Some((prefix, body)) = frame.split_prefix() else { continue };
                let seq = u32::from_le_bytes(prefix);
                if let Some(delivered) = self.table(|t| t.accept(chan, seq, body, capacity)) {
                    break delivered;
                }
            },
        };
        if taken.is_err() {
            self.send_owed_acks().await?;
        }
        taken.map(Payload::Shared)
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
        let (envelope, framed) = self.stage_post(payload, dest, tag)?;
        let wire_tag = framed.map_or(tag, |(chan, _)| data_tag(chan.key));
        let sent = self.inner.post(envelope, dest, wire_tag).await;
        self.posted(framed, sent)
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
        // `post`, written out: one future fewer on every ring step.
        let (envelope, framed) = self.stage_post(payload, dest, sendtag)?;
        let wire_tag = framed.map_or(sendtag, |(chan, _)| data_tag(chan.key));
        let sent = self.inner.post(envelope, dest, wire_tag).await;
        self.posted(framed, sent)?;
        let watch = framed.map(|(chan, _)| chan.key);
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
        while let Some((chan, until)) = self.pump(expired, None).await? {
            let now = self.inner.now_ns();
            if deadline.is_some_and(|deadline| deadline <= now) {
                self.give_up();
                break;
            }
            let until = deadline.map_or(until, |deadline| deadline.min(until));
            let wait = Duration::from_nanos(until.saturating_sub(now));
            expired = match self.ack_taken(chan, self.take_ack(chan, wait).await) {
                Ok(acked) => !acked,
                Err(e) => self.fail(chan, e, None).map(|()| false)?,
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

    /// Read or update channel `key` of `rc`, opening it if it is new.
    fn channel<R>(rc: &Rc<'_>, key: Key, f: impl FnOnce(&mut Channel) -> R) -> R {
        rc.table(|t| {
            let chan = t.chan(key);
            f(&mut t.channels[chan.slot])
        })
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
            channel(rc, (peer, 0), |ch| (ch.tx_next, ch.rx_expected) = (near, near));
            let mut got = vec![];
            for i in 0..4u8 {
                let mut buf = [0u8; 1];
                complete_now(rc.sendrecv(&[i], peer, Tag(0), &mut buf, peer, Tag(0))).unwrap();
                got.push(buf[0]);
            }
            (got, channel(rc, (peer, 0), |ch| (ch.tx_next, ch.rx_expected, ch.unacked.len())))
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
