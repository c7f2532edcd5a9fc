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
//! find a queue the same way, and the `lane_prop` property test and the
//! `mailbox_spills` counter cover this mailbox too. What this file adds is
//! blocking: one [`Mutex`] over the lanes, the waiter count and the stop
//! flag, and one [`Condvar`].
//!
//! # The wait protocol
//!
//! A receive that finds no match (and is not stopped, failed by its
//! `watch` or past its deadline) waits in two stages:
//!
//! 1. *Spin.* It reads the push sequence number under the lock, releases
//!    the lock and watches that number with `spin_loop` until it moves or
//!    the spin bound runs out. `push`, [`stop`](Mailbox::stop) and
//!    [`wake_all`](Mailbox::wake_all) bump it with one plain `Release`
//!    store under the lock they already hold, so the send path gains no
//!    locked read-modify-write. Either way the receiver re-locks and
//!    re-checks the lanes, `stopped`, its `watch` and its deadline; while
//!    bound remains it spins again.
//! 2. *Park.* Once the bound is spent it counts itself in `waiters`, under
//!    the lock, and waits on the condvar. A push notifies only when a
//!    receiver is counted ([`push_should_notify`]).
//!
//! No wakeup is lost: a spinning receiver is not counted, so a push that
//! lands during the spin skips the notify and the receiver sees the
//! sequence move; a push after the re-lock finds it counted. schedcheck's
//! `MailboxModel` explores exactly this protocol, spin included.
//! [`Mailbox::wakeup_stats`] counts pushes, notifies and receives the spin
//! caught.
//!
//! # When and how long it spins
//!
//! Spinning pays only when the sender runs while the receiver spins, so
//! [`Mailbox::for_world`] spins iff the world's rank threads fit the
//! host's cores (`size ≤ available_parallelism`): a one-core host never
//! spins, nor does a world of more ranks than cores. That rule was
//! measured: `fig6_threaded` on a 2-core host, 16 alternating runs (40
//! samples each) of the rule against a spin in every world, median µs of
//! the medians. In the oversubscribed 8- and 16-rank worlds a spin slows
//! the rings, whose ranks wait on each other in turn: native np16 512 KiB
//! 2 712 → 4 362 (+61 %, faster in 1 of 16 runs), tuned np16 512 KiB
//! 2 291 → 2 848 (+24 %, 1/16), native np8 512 KiB 1 438 → 2 046 (+42 %,
//! 3/16), tuned np16 2 MiB 8 863 → 10 329 (+17 %, 3/16); binomial stays
//! within −3 % to +4 %. The bound is wall
//! time, `SPIN_BOUND` = 50 µs, and never outlasts the caller's deadline.
//! A sweep of spin counts on the 2-core thread-pair shape (two ranks,
//! 64 KiB tuned broadcasts, µs per broadcast) placed the knee at about
//! 1 000 `spin_loop`s of about 22 ns, i.e. 22 µs: 0 and 200 spins ≈ 22,
//! 500 → 18, 1 000 → 13.4–14.3, 2 000 → 13.0–14.0, 20 000 → 13.2–13.9. The
//! bound leaves twice that as margin; a receive that waits longer than it
//! parks as before.

#![allow(
    clippy::disallowed_methods,
    reason = "ThreadWorld blocks on a real condvar: a receive timeout is a wall-clock deadline"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::counters::WakeupStats;
use crate::event_mailbox::LaneMailbox;
use crate::pool::Payload;
use crate::proto::push_should_notify;
use crate::sync::{Condvar, Mutex};

use crate::error::{CommError, Result};
use crate::rank::{Rank, Tag};

/// How long a receive spins for a push before it parks (see the module
/// doc's sweep).
const SPIN_BOUND: Duration = Duration::from_micros(50);

/// `spin_loop`s between two clock reads while spinning.
const SPINS_PER_CLOCK_READ: u32 = 16;

/// The host's core count, read once per process.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

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
    /// Receivers currently blocked on the condvar (a spinning receiver is
    /// not counted).
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
    /// Bumped by every push, stop and wake; written only under `state`'s
    /// lock, read without it by a spinning receiver. The `Release` store
    /// pairs with the spin's `Acquire` load, but the number publishes no
    /// data: the receiver re-locks before it reads the lanes.
    seq: AtomicU64,
    /// How long a receive spins before it parks; zero never spins.
    spin: Duration,
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

    /// An empty mailbox for a world of `size` ranks. Its receives spin for
    /// `SPIN_BOUND` before parking iff the world's rank threads fit the
    /// host's cores.
    pub fn for_world(size: usize) -> Self {
        let spin = if size <= host_cores() { SPIN_BOUND } else { Duration::ZERO };
        Self::with_spin(size, spin)
    }

    /// [`for_world`](Self::for_world) with the spin bound chosen by the
    /// caller, so both wait paths run on any host.
    pub(crate) fn with_spin(size: usize, spin: Duration) -> Self {
        let lanes = LaneMailbox::new(size);
        let state = State { lanes, waiters: 0, stopped: false, wakeups: WakeupStats::default() };
        Self { state: Mutex::new(state), available: Condvar::new(), seq: AtomicU64::new(0), spin }
    }

    /// Publish a state change to a spinning receiver. The caller holds the
    /// lock, so no other writer races the plain load-and-store.
    fn bump(&self) {
        self.seq.store(self.seq.load(Ordering::Relaxed).wrapping_add(1), Ordering::Release);
    }

    /// Deliver a message from `src` with `tag`.
    pub fn push(&self, src: Rank, tag: Tag, data: Payload) {
        let mut st = self.state.lock();
        st.lanes.push_to(0, src, tag, data);
        self.bump();
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
    /// once `d` passes without a matching message. The module doc gives
    /// the wait protocol: spin, then park.
    pub fn pop_watch(
        &self,
        src: Rank,
        tag: Tag,
        deadline: Option<Instant>,
        watch: impl Fn() -> Option<CommError>,
    ) -> Result<Envelope> {
        let mut st = self.state.lock();
        // Set at the first miss: when the spin stage ends.
        let mut spin_until: Option<Instant> = None;
        let mut parked = false;
        loop {
            if let Some(env) = st.lanes.pop(src, tag) {
                if spin_until.is_some() && !parked {
                    st.wakeups.spin_hits += 1;
                }
                return Ok(env);
            }
            if st.stopped {
                return Err(CommError::WorldStopped);
            }
            if let Some(err) = watch() {
                return Err(err);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return Err(CommError::Timeout { peer: src });
            }
            if spin_until.is_none() && !self.spin.is_zero() {
                let bound = now + self.spin;
                spin_until = Some(deadline.map_or(bound, |d| d.min(bound)));
            }
            if let Some(until) = spin_until.filter(|&until| now < until) {
                let seen = self.seq.load(Ordering::Relaxed);
                drop(st);
                self.spin_while_unchanged(seen, until);
                st = self.state.lock();
                continue;
            }
            parked = true;
            st.waiters += 1;
            match deadline {
                // Expiry is re-checked at the top of the loop, so the
                // timed-out flag itself is not needed here.
                Some(d) => {
                    self.available.wait_timeout(&mut st, d - now);
                }
                None => self.available.wait(&mut st),
            }
            st.waiters -= 1;
        }
    }

    /// Spin without the lock until the push sequence leaves `seen` or
    /// `until` passes.
    fn spin_while_unchanged(&self, seen: u64, until: Instant) {
        loop {
            for _ in 0..SPINS_PER_CLOCK_READ {
                if self.seq.load(Ordering::Acquire) != seen {
                    return;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= until {
                return;
            }
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
        let mut st = self.state.lock();
        st.stopped = true;
        self.bump();
        drop(st);
        self.available.notify_all();
    }

    /// Wake the blocked or spinning receiver, if any, so it re-evaluates
    /// its `watch` predicate (see [`pop_watch`](Self::pop_watch)). State is
    /// unchanged; a receiver whose condition still holds simply waits again.
    ///
    /// Taking the lock before notifying orders the caller's preceding
    /// writes (e.g. an exited-rank flag) before the waiter's re-check.
    pub fn wake_all(&self) {
        let st = self.state.lock();
        self.bump();
        let wake = st.waiters > 0;
        drop(st);
        if wake {
            self.available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    fn pop(mb: &Mailbox, src: Rank, tag: Tag) -> Result<Envelope> {
        mb.pop_watch(src, tag, None, || None)
    }

    /// A spin far longer than any test waits: a receiver that spins is
    /// still spinning when the test acts.
    const LONG_SPIN: Duration = Duration::from_secs(10);

    /// Spawn a blocking receive from `src` on `mb` and return once it has
    /// missed. The miss runs `watch` under the lock, and the receive keeps
    /// the lock until it has begun to wait, so whatever the test does next
    /// lands during that wait: mid-spin, when the spin is long.
    fn spawn_missed_pop(
        mb: &Arc<Mailbox>,
        src: Rank,
        watch: impl Fn() -> Option<CommError> + Send + 'static,
    ) -> JoinHandle<Result<Envelope>> {
        let missed = Arc::new(AtomicBool::new(false));
        let (mb2, missed2) = (Arc::clone(mb), Arc::clone(&missed));
        let h = std::thread::spawn(move || {
            mb2.pop_watch(src, Tag(0), None, || {
                missed2.store(true, Ordering::SeqCst);
                watch()
            })
        });
        while !missed.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        h
    }

    /// Return once `mb`'s receiver is counted as parked on the condvar.
    fn wait_until_parked(mb: &Mailbox) {
        while mb.state.lock().waiters == 0 {
            std::thread::yield_now();
        }
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
    fn stop_ends_a_spin_at_once() {
        let mb = Arc::new(Mailbox::with_spin(1, LONG_SPIN));
        let h = spawn_missed_pop(&mb, 0, || None);
        let t0 = Instant::now();
        mb.stop();
        assert_eq!(h.join().unwrap().unwrap_err(), CommError::WorldStopped);
        assert!(t0.elapsed() < LONG_SPIN / 4, "the receiver spun on past the stop");
    }

    #[test]
    fn pop_deadline_times_out() {
        let mb = Mailbox::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(20);
        let err = mb.pop_watch(0, Tag(0), Some(deadline), || None).unwrap_err();
        assert_eq!(err, CommError::Timeout { peer: 0 });
    }

    #[test]
    fn a_deadline_shorter_than_the_spin_times_out_on_time() {
        let mb = Mailbox::with_spin(1, LONG_SPIN);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(5);
        let err = mb.pop_watch(0, Tag(0), Some(deadline), || None).unwrap_err();
        let waited = t0.elapsed();
        assert_eq!(err, CommError::Timeout { peer: 0 });
        assert!(waited >= Duration::from_millis(5), "timed out early, after {waited:?}");
        assert!(waited < LONG_SPIN / 4, "spun past the deadline: {waited:?}");
        assert_eq!(mb.wakeup_stats().spin_hits, 0);
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
        // Parked (no spin; after a 50 µs spin) and mid-spin.
        for spin in [Duration::ZERO, SPIN_BOUND, LONG_SPIN] {
            let mb = Arc::new(Mailbox::with_spin(1, spin));
            let gone = Arc::new(AtomicBool::new(false));
            let gone2 = Arc::clone(&gone);
            let h = spawn_missed_pop(&mb, 3, move || {
                gone2.load(Ordering::SeqCst).then_some(CommError::PeerFailed { rank: 3 })
            });
            if spin != LONG_SPIN {
                wait_until_parked(&mb);
            }
            let t0 = Instant::now();
            gone.store(true, Ordering::SeqCst);
            mb.wake_all();
            assert_eq!(h.join().unwrap().unwrap_err(), CommError::PeerFailed { rank: 3 });
            assert!(t0.elapsed() < LONG_SPIN / 4, "spin {spin:?}: the wake was missed");
        }
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
        // Without a spin, and after a 50 µs spin that ran out.
        for spin in [Duration::ZERO, SPIN_BOUND] {
            let mb = Arc::new(Mailbox::with_spin(1, spin));
            let mb2 = Arc::clone(&mb);
            let h = std::thread::spawn(move || pop(&mb2, 2, Tag(0)).unwrap());
            wait_until_parked(&mb);
            mb.push(2, Tag(0), vec![1].into());
            h.join().unwrap();
            let stats = mb.wakeup_stats();
            assert_eq!(stats.pushes, 1);
            assert_eq!(stats.notifies, 1, "spin {spin:?}: a blocked waiter requires a notify");
            assert_eq!(stats.spin_hits, 0, "spin {spin:?}: a parked receive is no spin hit");
        }
    }

    #[test]
    fn a_push_during_the_spin_is_delivered_without_a_notify() {
        let mb = Arc::new(Mailbox::with_spin(1, LONG_SPIN));
        let h = spawn_missed_pop(&mb, 2, || None);
        let t0 = Instant::now();
        mb.push(2, Tag(0), vec![9].into());
        assert_eq!(&*h.join().unwrap().unwrap().data.bytes(), &[9]);
        assert!(t0.elapsed() < LONG_SPIN / 4, "the spinning receiver missed the push");
        let stats = mb.wakeup_stats();
        assert_eq!(stats, WakeupStats { pushes: 1, notifies: 0, spin_hits: 1 });
    }

    #[test]
    fn a_world_of_more_ranks_than_cores_never_spins() {
        let cores = host_cores();
        assert_eq!(Mailbox::for_world(cores).spin, SPIN_BOUND);
        let mb = Arc::new(Mailbox::for_world(cores + 1));
        assert_eq!(mb.spin, Duration::ZERO);
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || pop(&mb2, 0, Tag(0)).unwrap());
        wait_until_parked(&mb);
        mb.push(0, Tag(0), vec![1].into());
        h.join().unwrap();
        let stats = mb.wakeup_stats();
        assert_eq!(stats, WakeupStats { pushes: 1, notifies: 1, spin_hits: 0 });
    }
}
