//! Per-rank blocking mailbox with MPI-style `(source, tag)` matching.
//!
//! Each rank owns one [`Mailbox`]. Senders push envelopes; the owning rank
//! blocks in [`Mailbox::pop_watch`] until a message matching the requested
//! `(source, tag)` pair is present. Messages for a given pair are delivered
//! strictly in push order (MPI's non-overtaking guarantee).
//!
//! Matching is the event reactor's [`LaneMailbox`] — radix-paged source
//! lanes, inline tag buckets, a counted spill map and a node slab that
//! recycles queue storage (this mailbox owns its own) — so both executors
//! find a queue the same way, and `LaneMailboxModel`'s proof and the
//! `mailbox_spills` counter cover this mailbox too. What this file adds is
//! blocking: one [`Mutex`] over the lanes, the waiter count and the stop
//! flag, and one [`Condvar`]. A push notifies only when a receiver is
//! counted as blocked ([`push_should_notify`]), so an uncontended send
//! performs no wakeup syscall ([`Mailbox::wakeup_stats`] counts both);
//! schedcheck's `MailboxModel` explores exactly this protocol.

use crate::counters::WakeupStats;
use crate::event_mailbox::LaneMailbox;
use crate::pool::Payload;
use crate::proto::push_should_notify;
use crate::sync::{Condvar, Mutex};

use crate::error::{CommError, Result};
use crate::rank::{Rank, Tag};

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

struct State {
    lanes: LaneMailbox,
    /// Receivers currently blocked on the condvar.
    waiters: usize,
    /// Set when the world is tearing down; wakes all blocked receivers.
    stopped: bool,
    wakeups: WakeupStats,
}

/// Mailbox owned by a single receiving rank.
///
/// `push` may be called from any thread; `pop_watch` is called by the
/// owning rank's thread.
pub struct Mailbox {
    state: Mutex<State>,
    available: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// An empty mailbox for sources `0..256` (one radix page of lanes).
    pub fn new() -> Self {
        Self::for_world(1)
    }

    /// An empty mailbox for a world of `size` ranks.
    pub fn for_world(size: usize) -> Self {
        let lanes = LaneMailbox::new(size);
        let state = State { lanes, waiters: 0, stopped: false, wakeups: WakeupStats::default() };
        Self { state: Mutex::new(state), available: Condvar::new() }
    }

    /// Deliver a message from `src` with `tag`.
    pub fn push(&self, src: Rank, tag: Tag, data: Payload) {
        let mut st = self.state.lock();
        st.lanes.push_to(0, src, tag, data);
        // Wake only when the owner is actually blocked (it may be waiting
        // on a different pair: spurious but benign, it rechecks and sleeps
        // again); with zero waiters the notify would be pure overhead.
        let wake = push_should_notify(st.waiters);
        st.wakeups.pushes += 1;
        st.wakeups.notifies += u64::from(wake);
        drop(st);
        if wake {
            self.available.notify_all();
        }
    }

    /// Blocking pop with an optional deadline and a liveness watch.
    ///
    /// The `watch` closure is evaluated (under the mailbox lock) whenever
    /// no message matches `(src, tag)`; returning `Some(err)` fails the pop
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
        let mut st = self.state.lock();
        loop {
            if let Some(env) = st.lanes.pop(src, tag) {
                return Ok(env);
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
                    self.available.wait_timeout(&mut st, remaining);
                }
                None => self.available.wait(&mut st),
            }
            st.waiters -= 1;
        }
    }

    /// Non-blocking variant: returns `None` when no matching message is
    /// queued (an `MPI_Iprobe`-with-receive convenience for tests).
    pub fn try_pop(&self, src: Rank, tag: Tag) -> Option<Envelope> {
        self.state.lock().lanes.pop(src, tag)
    }

    /// Envelopes that overflowed a lane's inline tag buckets (see
    /// [`LaneMailbox::spills`]).
    pub fn spills(&self) -> u64 {
        self.state.lock().lanes.spills()
    }

    /// Most envelopes ever queued here at once (see `ReactorStats::queued_peak`).
    pub(crate) fn queued_peak(&self) -> u64 {
        self.state.lock().lanes.queued_peak()
    }

    /// Push/notify counters: how many deliveries actually had to wake a
    /// blocked receiver. `pushes - notifies` sends skipped the wakeup.
    pub fn wakeup_stats(&self) -> WakeupStats {
        self.state.lock().wakeups
    }

    /// Mark the world as stopped, failing all current and future blocking
    /// receives with [`CommError::WorldStopped`].
    pub fn stop(&self) {
        self.state.lock().stopped = true;
        self.available.notify_all();
    }

    /// Wake the blocked receiver, if any, so it re-evaluates its `watch`
    /// predicate (see [`pop_watch`](Self::pop_watch)). State is unchanged;
    /// a receiver whose condition still holds simply goes back to sleep.
    ///
    /// Taking the lock before notifying orders the caller's preceding
    /// writes (e.g. an exited-rank flag) before the waiter's re-check.
    pub fn wake_all(&self) {
        let wake = self.state.lock().waiters > 0;
        if wake {
            self.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn pop(mb: &Mailbox, src: Rank, tag: Tag) -> Result<Envelope> {
        mb.pop_watch(src, tag, None, || None)
    }

    #[test]
    fn fifo_per_pair() {
        let mb = Mailbox::new();
        mb.push(1, Tag(5), vec![1].into());
        mb.push(1, Tag(5), vec![2].into());
        mb.push(1, Tag(5), vec![3].into());
        assert_eq!(&*pop(&mb, 1, Tag(5)).unwrap().data.bytes(), &[1]);
        assert_eq!(&*pop(&mb, 1, Tag(5)).unwrap().data.bytes(), &[2]);
        assert_eq!(&*pop(&mb, 1, Tag(5)).unwrap().data.bytes(), &[3]);
    }

    #[test]
    fn matching_is_exact_on_src_and_tag() {
        let mb = Mailbox::new();
        mb.push(1, Tag(5), vec![10].into());
        mb.push(2, Tag(5), vec![20].into());
        mb.push(1, Tag(6), vec![30].into());
        assert_eq!(&*pop(&mb, 2, Tag(5)).unwrap().data.bytes(), &[20]);
        assert_eq!(&*pop(&mb, 1, Tag(6)).unwrap().data.bytes(), &[30]);
        assert_eq!(&*pop(&mb, 1, Tag(5)).unwrap().data.bytes(), &[10]);
    }

    #[test]
    fn matching_is_exact_for_sources_beyond_the_flat_slots() {
        // Sources on both sides of the first radix-page boundary (256) and
        // one in a later page: each lands in its own lane, matched exactly
        // and in order.
        let mb = Mailbox::for_world(1024);
        let (a, b, c) = (255, 256, 1023);
        mb.push(a, Tag(1), vec![1].into());
        mb.push(b, Tag(1), vec![2].into());
        mb.push(a, Tag(2), vec![3].into());
        mb.push(a, Tag(1), vec![4].into());
        mb.push(c, Tag(1), vec![5].into());
        assert!(mb.try_pop(b, Tag(2)).is_none());
        assert_eq!(&*pop(&mb, c, Tag(1)).unwrap().data.bytes(), &[5]);
        assert_eq!(&*pop(&mb, b, Tag(1)).unwrap().data.bytes(), &[2]);
        assert_eq!(&*pop(&mb, a, Tag(1)).unwrap().data.bytes(), &[1]);
        assert_eq!(&*pop(&mb, a, Tag(1)).unwrap().data.bytes(), &[4]);
        assert_eq!(&*pop(&mb, a, Tag(2)).unwrap().data.bytes(), &[3]);
        assert!(mb.try_pop(a, Tag(1)).is_none());
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
    fn wild_tags_spill_and_are_counted() {
        let mb = Mailbox::new();
        let tags = crate::event_mailbox::INLINE_TAGS as u32 + 2;
        for t in 0..tags {
            mb.push(3, Tag(t), vec![t as u8].into());
        }
        assert_eq!(mb.spills(), 2);
        for t in (0..tags).rev() {
            assert_eq!(&*mb.try_pop(3, Tag(t)).unwrap().data.bytes(), &[t as u8]);
        }
    }

    #[test]
    fn blocking_receiver_woken_by_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || pop(&mb2, 7, Tag(9)).unwrap());
        // Give the receiver a moment to block, then deliver.
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.push(7, Tag(9), vec![42].into());
        assert_eq!(&*h.join().unwrap().data.bytes(), &[42]);
    }

    #[test]
    fn stop_unblocks_with_error() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || pop(&mb2, 0, Tag(0)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.stop();
        assert_eq!(h.join().unwrap().unwrap_err(), CommError::WorldStopped);
        // and future receives fail immediately
        assert_eq!(pop(&mb, 0, Tag(0)).unwrap_err(), CommError::WorldStopped);
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
        let env = pop(&mb, 0, Tag(0)).unwrap();
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
        // drain; popping ready messages never blocks, so still no notifies
        for i in 0..50 {
            pop(&mb, i % 4, Tag(0)).unwrap();
        }
        assert_eq!(mb.wakeup_stats().notifies, 0);
    }

    #[test]
    fn contended_push_notifies_exactly_when_a_waiter_is_blocked() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || pop(&mb2, 2, Tag(0)).unwrap());
        // Wait until the receiver is actually parked.
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.push(2, Tag(0), vec![1].into());
        h.join().unwrap();
        let stats = mb.wakeup_stats();
        assert_eq!(stats.pushes, 1);
        assert_eq!(stats.notifies, 1, "a blocked waiter requires a notify");
    }
}
