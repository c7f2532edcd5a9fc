//! Per-rank sharded mailbox with MPI-style `(source, tag)` matching.
//!
//! Each rank owns one [`Mailbox`]. Senders push envelopes; the owning rank
//! blocks in [`Mailbox::pop_blocking`] until a message matching the requested
//! `(source, tag)` pair is present. Messages for a given pair are delivered
//! strictly in push order (MPI's non-overtaking guarantee), implemented as a
//! FIFO queue per pair.
//!
//! ## Sharding
//!
//! The mailbox used to be one `Mutex<HashMap>` with a single condvar, so
//! every sender in a fan-in serialized on the receiver's lock and every push
//! paid a `notify_all` that woke *every* blocked receiver regardless of
//! which `(src, tag)` it was waiting for. The state is now split into
//! [`SHARDS`] independently locked slots, each with its own condvar:
//!
//! * slot selection is a **flat array indexed by `src`** while `src <
//!   SHARDS` — the common case for collectives, where sources are small
//!   rank numbers and a pair's traffic always lands in "its" slot with no
//!   hashing at all — and an FxHash-style mix of `(src, tag)` beyond that;
//! * a push locks only its slot and wakes only receivers blocked **on that
//!   slot**, and only when the slot's waiter count is nonzero, so the
//!   uncontended send path performs no wakeup syscall at all (see
//!   [`Mailbox::wakeup_stats`] for the counters that prove it).
//!
//! Since a `(src, tag)` pair maps to exactly one slot on both the push and
//! pop side, per-pair FIFO order is preserved unchanged.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::counters::WakeupStats;
use crate::pool::Payload;
use crate::proto::push_should_notify;
use crate::sync::{Condvar, Mutex};

use crate::error::{CommError, Result};
use crate::rank::{Rank, Tag};

/// Number of independently locked slots per mailbox. Power of two so the
/// overflow hash can mask instead of divide.
pub const SHARDS: usize = 16;

/// A delivered message payload.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank (kept for diagnostics; matching already fixed it).
    pub src: Rank,
    /// The payload (pool-backed on the hot path; its drop recycles the
    /// buffer after the receiver copies out). Shared payloads are refcount
    /// clones of one rental fanned out to many mailboxes.
    pub data: Payload,
}

#[derive(Default)]
struct SlotState {
    /// FIFO of pending messages per (source, tag) mapping to this slot.
    queues: HashMap<(Rank, Tag), VecDeque<Envelope>>,
    /// Receivers currently blocked on this slot's condvar.
    waiters: usize,
    /// Set when the world is tearing down; wakes all blocked receivers.
    stopped: bool,
}

#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    available: Condvar,
}

/// Mailbox owned by a single receiving rank.
///
/// `push` may be called from any thread; `pop_blocking` is called by the
/// owning rank's thread.
pub struct Mailbox {
    slots: Box<[Slot]>,
    /// Total pushes (delivered envelopes).
    pushes: AtomicU64,
    /// Pushes that found a blocked receiver and issued a condvar notify.
    notifies: AtomicU64,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

/// Slot index for a `(src, tag)` pair: direct for small sources, hashed
/// beyond. Both sides of a pair compute the same index — public so the
/// schedule verifier can reason about slot sharing.
pub fn slot_index(src: Rank, tag: Tag) -> usize {
    if src < SHARDS {
        src
    } else {
        // FxHash-style multiply-xor mix; cheap and adequate for spreading
        // (src, tag) pairs of large worlds across slots.
        let h = (src as u64 ^ ((tag.0 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (SHARDS - 1)
    }
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Self {
            slots: (0..SHARDS).map(|_| Slot::default()).collect(),
            pushes: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
        }
    }

    fn slot(&self, src: Rank, tag: Tag) -> &Slot {
        &self.slots[slot_index(src, tag)]
    }

    /// Deliver a message from `src` with `tag`.
    pub fn push(&self, src: Rank, tag: Tag, data: Payload) {
        let slot = self.slot(src, tag);
        let mut st = slot.state.lock();
        st.queues.entry((src, tag)).or_default().push_back(Envelope { src, data });
        // Wake the slot's waiters only when someone is actually blocked:
        // the owning rank may be waiting on a *different* (src, tag) that
        // shares this slot (spurious but benign — it rechecks and sleeps
        // again); with zero waiters the notify would be pure overhead.
        let wake = push_should_notify(st.waiters);
        drop(st);
        self.pushes.fetch_add(1, Ordering::Relaxed);
        if wake {
            self.notifies.fetch_add(1, Ordering::Relaxed);
            slot.available.notify_all();
        }
    }

    /// Block until a message from `src` with `tag` is available and return it.
    pub fn pop_blocking(&self, src: Rank, tag: Tag) -> Result<Envelope> {
        self.pop_watch(src, tag, None, || None)
    }

    /// Blocking pop with an optional deadline and a liveness watch.
    ///
    /// The `watch` closure is evaluated (under the slot lock) whenever the
    /// queue for `(src, tag)` is empty; returning `Some(err)` fails the pop
    /// with that error — the hook [`ThreadComm`](crate::ThreadComm) uses to
    /// turn "blocked on a rank that already exited" into
    /// [`CommError::PeerFailed`] instead of a silent hang. Queued messages
    /// are always drained first, so data sent before a peer exited is still
    /// delivered.
    ///
    /// With `deadline: Some(d)`, the pop fails with [`CommError::Timeout`]
    /// once `d` passes without a matching message.
    pub fn pop_watch(
        &self,
        src: Rank,
        tag: Tag,
        deadline: Option<std::time::Instant>,
        watch: impl Fn() -> Option<CommError>,
    ) -> Result<Envelope> {
        let slot = self.slot(src, tag);
        let mut st = slot.state.lock();
        loop {
            if let Some(q) = st.queues.get_mut(&(src, tag)) {
                if let Some(env) = q.pop_front() {
                    return Ok(env);
                }
            }
            if st.stopped {
                return Err(CommError::WorldStopped);
            }
            if let Some(err) = watch() {
                return Err(err);
            }
            let wait_bound = match deadline {
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        return Err(CommError::Timeout { peer: src });
                    }
                    Some(d - now)
                }
                None => None,
            };
            st.waiters += 1;
            match wait_bound {
                // Expiry is re-checked at the top of the loop, so the
                // timed-out flag itself is not needed here.
                Some(remaining) => {
                    slot.available.wait_timeout(&mut st, remaining);
                }
                None => slot.available.wait(&mut st),
            }
            st.waiters -= 1;
        }
    }

    /// Non-blocking variant: returns `None` when no matching message is
    /// queued (an `MPI_Iprobe`-with-receive convenience for tests).
    pub fn try_pop(&self, src: Rank, tag: Tag) -> Option<Envelope> {
        let mut st = self.slot(src, tag).state.lock();
        st.queues.get_mut(&(src, tag)).and_then(VecDeque::pop_front)
    }

    /// Number of queued messages matching `(src, tag)`.
    pub fn pending(&self, src: Rank, tag: Tag) -> usize {
        let st = self.slot(src, tag).state.lock();
        st.queues.get(&(src, tag)).map_or(0, VecDeque::len)
    }

    /// Total queued messages across all pairs (diagnostics; a clean run
    /// should end with 0 everywhere).
    pub fn pending_total(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| slot.state.lock().queues.values().map(VecDeque::len).sum::<usize>())
            .sum()
    }

    /// Push/notify counters: how many deliveries actually had to wake a
    /// blocked receiver. `pushes - notifies` sends skipped the wakeup.
    pub fn wakeup_stats(&self) -> WakeupStats {
        WakeupStats {
            pushes: self.pushes.load(Ordering::Relaxed),
            notifies: self.notifies.load(Ordering::Relaxed),
        }
    }

    /// Mark the world as stopped, failing all current and future blocking
    /// receives with [`CommError::WorldStopped`].
    pub fn stop(&self) {
        for slot in &self.slots {
            let mut st = slot.state.lock();
            st.stopped = true;
            drop(st);
            slot.available.notify_all();
        }
    }

    /// Wake every blocked receiver so it re-evaluates its `watch` predicate
    /// (see [`pop_watch`](Self::pop_watch)). State is unchanged; receivers
    /// whose condition still holds simply go back to sleep.
    ///
    /// Taking each slot lock before notifying orders the caller's preceding
    /// writes (e.g. an exited-rank flag) before any waiter's re-check.
    pub fn wake_all(&self) {
        for slot in &self.slots {
            let st = slot.state.lock();
            let wake = st.waiters > 0;
            drop(st);
            if wake {
                slot.available.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_per_pair() {
        let mb = Mailbox::new();
        mb.push(1, Tag(5), vec![1].into());
        mb.push(1, Tag(5), vec![2].into());
        mb.push(1, Tag(5), vec![3].into());
        assert_eq!(&*mb.pop_blocking(1, Tag(5)).unwrap().data.bytes(), &[1]);
        assert_eq!(&*mb.pop_blocking(1, Tag(5)).unwrap().data.bytes(), &[2]);
        assert_eq!(&*mb.pop_blocking(1, Tag(5)).unwrap().data.bytes(), &[3]);
    }

    #[test]
    fn matching_is_exact_on_src_and_tag() {
        let mb = Mailbox::new();
        mb.push(1, Tag(5), vec![10].into());
        mb.push(2, Tag(5), vec![20].into());
        mb.push(1, Tag(6), vec![30].into());
        assert_eq!(&*mb.pop_blocking(2, Tag(5)).unwrap().data.bytes(), &[20]);
        assert_eq!(&*mb.pop_blocking(1, Tag(6)).unwrap().data.bytes(), &[30]);
        assert_eq!(&*mb.pop_blocking(1, Tag(5)).unwrap().data.bytes(), &[10]);
    }

    #[test]
    fn matching_is_exact_for_sources_beyond_the_flat_slots() {
        // sources >= SHARDS take the hashed path; make sure distinct pairs
        // that may share a slot still match exactly and in order.
        let mb = Mailbox::new();
        let (a, b) = (SHARDS + 3, 5 * SHARDS + 3);
        mb.push(a, Tag(1), vec![1].into());
        mb.push(b, Tag(1), vec![2].into());
        mb.push(a, Tag(2), vec![3].into());
        mb.push(a, Tag(1), vec![4].into());
        assert_eq!(&*mb.pop_blocking(b, Tag(1)).unwrap().data.bytes(), &[2]);
        assert_eq!(&*mb.pop_blocking(a, Tag(1)).unwrap().data.bytes(), &[1]);
        assert_eq!(&*mb.pop_blocking(a, Tag(1)).unwrap().data.bytes(), &[4]);
        assert_eq!(&*mb.pop_blocking(a, Tag(2)).unwrap().data.bytes(), &[3]);
    }

    #[test]
    fn try_pop_does_not_block() {
        let mb = Mailbox::new();
        assert!(mb.try_pop(0, Tag(0)).is_none());
        mb.push(0, Tag(0), vec![].into());
        assert!(mb.try_pop(0, Tag(0)).is_some());
        assert!(mb.try_pop(0, Tag(0)).is_none());
    }

    #[test]
    fn pending_counts() {
        let mb = Mailbox::new();
        assert_eq!(mb.pending(3, Tag(1)), 0);
        mb.push(3, Tag(1), vec![].into());
        mb.push(3, Tag(1), vec![].into());
        mb.push(4, Tag(1), vec![].into());
        assert_eq!(mb.pending(3, Tag(1)), 2);
        assert_eq!(mb.pending_total(), 3);
    }

    #[test]
    fn blocking_receiver_woken_by_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.pop_blocking(7, Tag(9)).unwrap());
        // Give the receiver a moment to block, then deliver.
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.push(7, Tag(9), vec![42].into());
        assert_eq!(&*h.join().unwrap().data.bytes(), &[42]);
    }

    #[test]
    fn stop_unblocks_with_error() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.pop_blocking(0, Tag(0)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.stop();
        assert_eq!(h.join().unwrap().unwrap_err(), CommError::WorldStopped);
        // and future receives fail immediately
        assert_eq!(mb.pop_blocking(0, Tag(0)).unwrap_err(), CommError::WorldStopped);
    }

    #[test]
    fn pop_deadline_times_out() {
        let mb = Mailbox::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(20);
        let err = mb.pop_watch(0, Tag(0), Some(deadline), || None).unwrap_err();
        assert_eq!(err, CommError::Timeout { peer: 0 });
    }

    #[test]
    fn pop_deadline_delivers_message_arriving_in_time() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            mb2.pop_watch(1, Tag(0), Some(deadline), || None)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.push(1, Tag(0), vec![7].into());
        assert_eq!(&*h.join().unwrap().unwrap().data.bytes(), &[7]);
    }

    #[test]
    fn pop_watch_fails_when_watch_fires() {
        let mb = Mailbox::new();
        let err =
            mb.pop_watch(4, Tag(0), None, || Some(CommError::PeerFailed { rank: 4 })).unwrap_err();
        assert_eq!(err, CommError::PeerFailed { rank: 4 });
    }

    #[test]
    fn pop_watch_drains_queued_messages_before_consulting_watch() {
        // A message sent before the peer exited must still be delivered.
        let mb = Mailbox::new();
        mb.push(4, Tag(0), vec![1].into());
        let env =
            mb.pop_watch(4, Tag(0), None, || Some(CommError::PeerFailed { rank: 4 })).unwrap();
        assert_eq!(&*env.data.bytes(), &[1]);
    }

    #[test]
    fn wake_all_forces_watch_reevaluation() {
        use std::sync::atomic::AtomicBool;
        let mb = Arc::new(Mailbox::new());
        let gone = Arc::new(AtomicBool::new(false));
        let (mb2, gone2) = (Arc::clone(&mb), Arc::clone(&gone));
        let h = std::thread::spawn(move || {
            mb2.pop_watch(3, Tag(0), None, || {
                gone2.load(Ordering::SeqCst).then_some(CommError::PeerFailed { rank: 3 })
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        gone.store(true, Ordering::SeqCst);
        mb.wake_all();
        assert_eq!(h.join().unwrap().unwrap_err(), CommError::PeerFailed { rank: 3 });
    }

    #[test]
    fn zero_byte_messages_are_real_messages() {
        let mb = Mailbox::new();
        mb.push(0, Tag(0), Box::<[u8]>::from([]).into());
        let env = mb.pop_blocking(0, Tag(0)).unwrap();
        assert_eq!(env.data.len(), 0);
    }

    #[test]
    fn uncontended_pushes_skip_the_notify() {
        // No receiver is ever blocked: every push must take the no-wakeup
        // fast path. This is the regression test for the old unconditional
        // `notify_all` on the send path.
        let mb = Mailbox::new();
        for i in 0..50 {
            mb.push(i % 4, Tag(0), vec![i as u8].into());
        }
        let stats = mb.wakeup_stats();
        assert_eq!(stats.pushes, 50);
        assert_eq!(stats.notifies, 0, "uncontended sends must not notify");
        assert_eq!(stats.skipped(), 50);
        // drain; popping ready messages never blocks, so still no notifies
        for i in 0..50 {
            mb.pop_blocking(i % 4, Tag(0)).unwrap();
        }
        assert_eq!(mb.wakeup_stats().notifies, 0);
    }

    #[test]
    fn contended_push_notifies_exactly_when_a_waiter_is_blocked() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.pop_blocking(2, Tag(0)).unwrap());
        // Wait until the receiver is actually parked in the slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.push(2, Tag(0), vec![1].into());
        h.join().unwrap();
        let stats = mb.wakeup_stats();
        assert_eq!(stats.pushes, 1);
        assert_eq!(stats.notifies, 1, "a blocked waiter requires a notify");
    }

    #[test]
    fn pushes_to_other_slots_do_not_wake_a_blocked_receiver() {
        // A receiver blocked on slot(src=2) must not be notified by pushes
        // to different slots — that was the cost of the single condvar.
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.pop_blocking(2, Tag(0)).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        for _ in 0..10 {
            mb.push(3, Tag(0), vec![0].into()); // different slot: no waiters
        }
        assert_eq!(mb.wakeup_stats().notifies, 0);
        mb.push(2, Tag(0), vec![9].into());
        assert_eq!(&*h.join().unwrap().data.bytes(), &[9]);
        assert_eq!(mb.wakeup_stats().notifies, 1);
    }
}
