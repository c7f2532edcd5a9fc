//! Interleaving models of the runtime's mailbox and reactor protocols.
//!
//! Each model drives the *deployed* decision functions from [`mpsim::proto`]
//! at its decision points, so exploring the model exercises the very
//! predicates compiled into the runtime. The locks themselves are
//! `std::sync` (through `mpsim::sync`) and are not modeled: a lock
//! acquire/release is one atomic step.
//!
//! * [`MailboxModel`] — ThreadWorld's mailbox push/notify-skip protocol,
//!   one lock and one condvar per rank: the receiver counts itself in
//!   `waiters` under the lock before sleeping, senders consult
//!   [`mpsim::proto::push_should_notify`] to skip the wakeup syscall on
//!   uncontended pushes. With `spin`, a receiver that finds nothing first
//!   releases the lock, watches the push sequence number without it and
//!   re-locks to re-check before it parks. Matching is abstracted to one
//!   FIFO counter; the mailbox matches with [`mpsim::LaneMailbox`], which
//!   mpsim's `lane_prop` property test covers. The `broken_skip` knob makes
//!   the sender require *two* waiters, reintroducing the lost wakeup the
//!   under-lock counting prevents; `skip_recheck` parks after the spin
//!   without re-checking the queue, losing a push that landed during the
//!   spin.
//! * [`RunQueueModel`] — the event reactor's (`mpsim::event_comm`)
//!   `Cell`-dedup run queue plus targeted exit wakes, driving
//!   [`mpsim::proto::wake_should_enqueue`] and
//!   [`mpsim::proto::exit_wakes_watch`]. Its `clear_after_poll` knob moves
//!   the dedup-flag clear from pop time to after the poll (losing
//!   budget-exhausted self-requeues) and `skip_exit_wake` drops the exit
//!   notification to a parked watcher; both deadlock under the explorer.
//!
//! The reactor's lane matcher and timer wheel have no model here: they are
//! plain single-threaded structures, and mpsim's `lane_prop` and
//! `timer_wheel_prop` property tests drive the deployed `LaneMailbox` and
//! `TimerWheel` through random operation streams instead.

use mpsim::proto::{exit_wakes_watch, push_should_notify, wake_should_enqueue, WATCH_NONE};

use crate::explore::{Model, Step};

// ---------------------------------------------------------------------------
// Mailbox push / notify-skip
// ---------------------------------------------------------------------------

/// Per-thread location in the mailbox model. Threads `0..senders` push one
/// message each; thread `senders` is the receiving rank popping `senders`
/// messages.
#[derive(Clone, Copy, Hash, PartialEq, Eq, Debug)]
enum BLoc {
    /// Acquiring the mailbox lock.
    Lock,
    /// Sender: holding the lock, about to push + read `waiters`.
    Push,
    /// Sender: released the lock, about to notify (wake decision made).
    MaybeNotify,
    /// Receiver: holding the lock, checking the queue.
    CheckQueue,
    /// Receiver: lock released, watching the push sequence number.
    Spin,
    /// Receiver: spin over; reacquiring the lock to re-check.
    SpinRelock,
    /// Receiver: counted in `waiters`, registered; about to release.
    Unlock,
    /// Receiver: sleeping on its flag.
    WaitFlag,
    /// Receiver: woke up; reacquiring the lock to decrement `waiters`.
    Relock,
    /// Finished.
    Done,
}

/// State of [`MailboxModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct MailboxState {
    /// Abstract mailbox lock: holder tid or `None`.
    holder: Option<u8>,
    /// Queued messages in the mailbox.
    queue: u8,
    /// Receivers counted as blocked (the notify-skip predicate's input).
    waiters: u8,
    /// Condvar registry (receiver tids).
    registered: Vec<u8>,
    /// Per-thread notified flag.
    flag: Vec<bool>,
    /// Sender's wake decision, made under the lock, applied after release.
    wake: Vec<bool>,
    /// Per-thread location.
    loc: Vec<BLoc>,
    /// Messages the receiver still has to pop.
    to_pop: u8,
    /// Push sequence number (bumped under the lock by every push).
    seq: u8,
    /// The sequence number the spinning receiver read before unlocking.
    seen: u8,
    /// Whether the receiver's current pop may still spin.
    spin_left: bool,
}

/// ThreadWorld's mailbox push/notify-skip protocol: `senders` one-shot
/// pushers against the owning receiver popping `senders` messages.
pub struct MailboxModel {
    /// Number of sender threads (the receiver is thread `senders`).
    pub senders: usize,
    /// A receive that finds nothing spins once before it parks, as a
    /// mailbox does when its world fits the host's cores. The spin's end
    /// by its bound is the scheduler running `Spin` before any push.
    pub spin: bool,
    /// Mutation: the sender skips the notify unless *two* waiters are
    /// counted — reintroducing the lost wakeup that counting `waiters`
    /// under the mailbox lock prevents. The explorer must find the deadlock.
    pub broken_skip: bool,
    /// Mutation: after its spin the receiver re-locks and parks without
    /// re-checking the queue, so a push that landed during the spin (and,
    /// finding no waiter, skipped the notify) is never seen.
    pub skip_recheck: bool,
}

impl MailboxModel {
    /// The deployed protocol, spinning or not.
    pub fn clean(senders: usize, spin: bool) -> Self {
        MailboxModel { senders, spin, broken_skip: false, skip_recheck: false }
    }
}

impl MailboxModel {
    fn receiver(&self) -> usize {
        self.senders
    }
}

impl Model for MailboxModel {
    type State = MailboxState;

    fn initial(&self) -> MailboxState {
        let n = self.senders + 1;
        MailboxState {
            holder: None,
            queue: 0,
            waiters: 0,
            registered: Vec::new(),
            flag: vec![false; n],
            wake: vec![false; n],
            loc: vec![BLoc::Lock; n],
            to_pop: self.senders as u8,
            seq: 0,
            seen: 0,
            spin_left: self.spin,
        }
    }

    fn threads(&self) -> usize {
        self.senders + 1
    }

    fn is_done(&self, s: &MailboxState, tid: usize) -> bool {
        s.loc[tid] == BLoc::Done
    }

    fn step(&self, s: &MailboxState, tid: usize) -> Step<MailboxState> {
        let mut n = s.clone();
        let receiver = self.receiver();
        match s.loc[tid] {
            BLoc::Lock => {
                if s.holder.is_some() {
                    return Step::Blocked;
                }
                n.holder = Some(tid as u8);
                n.loc[tid] = if tid == receiver { BLoc::CheckQueue } else { BLoc::Push };
            }
            BLoc::Push => {
                // push(): enqueue, then read the waiter count under the lock
                // — the decision the runtime delegates to proto::push_should_notify.
                n.queue += 1;
                n.seq += 1;
                n.wake[tid] = if self.broken_skip {
                    s.waiters > 1
                } else {
                    push_should_notify(s.waiters as usize)
                };
                n.holder = None;
                n.loc[tid] = BLoc::MaybeNotify;
            }
            BLoc::MaybeNotify => {
                // notify_all() after releasing the lock, only if the
                // under-lock read said someone was blocked.
                if s.wake[tid] {
                    for w in n.registered.drain(..) {
                        n.flag[w as usize] = true;
                    }
                }
                n.loc[tid] = BLoc::Done;
            }
            BLoc::CheckQueue => {
                if s.queue > 0 {
                    n.queue -= 1;
                    n.to_pop -= 1;
                    n.holder = None;
                    n.spin_left = self.spin;
                    n.loc[tid] = if n.to_pop == 0 { BLoc::Done } else { BLoc::Lock };
                } else if s.spin_left {
                    // pop_watch()'s spin: read the sequence number under
                    // the lock, then release it uncounted.
                    n.seen = s.seq;
                    n.holder = None;
                    n.loc[tid] = BLoc::Spin;
                } else {
                    // pop_watch(): count ourselves, register, and only
                    // then release — all under the mailbox lock.
                    n.waiters += 1;
                    n.registered.push(tid as u8);
                    n.flag[tid] = false;
                    n.loc[tid] = BLoc::Unlock;
                }
            }
            BLoc::Spin => {
                // One look at the sequence number without the lock: a
                // move ends the spin with bound to spare; no move means
                // the bound ran out first.
                n.spin_left = s.seq != s.seen;
                n.loc[tid] = BLoc::SpinRelock;
            }
            BLoc::SpinRelock => {
                if s.holder.is_some() {
                    return Step::Blocked;
                }
                n.holder = Some(tid as u8);
                if self.skip_recheck {
                    n.waiters += 1;
                    n.registered.push(tid as u8);
                    n.flag[tid] = false;
                    n.loc[tid] = BLoc::Unlock;
                } else {
                    n.loc[tid] = BLoc::CheckQueue;
                }
            }
            BLoc::Unlock => {
                n.holder = None;
                n.loc[tid] = BLoc::WaitFlag;
            }
            BLoc::WaitFlag => {
                if !s.flag[tid] {
                    return Step::Blocked;
                }
                n.loc[tid] = BLoc::Relock;
            }
            BLoc::Relock => {
                if s.holder.is_some() {
                    return Step::Blocked;
                }
                n.holder = Some(tid as u8);
                n.waiters -= 1;
                n.loc[tid] = BLoc::CheckQueue;
            }
            BLoc::Done => unreachable!("done threads are never stepped"),
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &MailboxState) -> Result<(), String> {
        if s.queue as usize > self.senders {
            return Err(format!("queue overflow: {}", s.queue));
        }
        if s.waiters > 1 {
            return Err(format!("waiter count {} with a single receiver", s.waiters));
        }
        Ok(())
    }

    fn accept(&self, s: &MailboxState) -> Result<(), String> {
        if s.queue != 0 {
            return Err(format!("{} messages left undelivered", s.queue));
        }
        if s.waiters != 0 {
            return Err(format!("waiter count {} at termination", s.waiters));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Event reactor: run queue dedup + targeted exit wakes
// ---------------------------------------------------------------------------

/// State of [`RunQueueModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct RunQueueState {
    /// The receiver task's dedup flag ≡ run-queue membership (the queue
    /// only ever holds this one task).
    queued: bool,
    /// Delivered, unconsumed messages in the receiver's mailbox.
    msgs: u8,
    /// Messages the receiver has consumed.
    consumed: u8,
    /// The receiver's targeted-wake registration (`WATCH_NONE` or the
    /// crasher's rank).
    watching: usize,
    /// Whether the crasher rank has exited.
    crasher_exited: bool,
    /// Receiver ran to completion.
    r_done: bool,
    /// Per-sender completion.
    sender_done: Vec<bool>,
    /// Crasher thread completion.
    crasher_done: bool,
}

/// The event reactor's run-queue protocol: `senders` threads deliver one
/// message each to a single receiver task (mailbox push + dedup-flagged
/// wake), a reactor thread pops and polls it with a 1-message poll budget
/// (so a poll with backlog must self-requeue), and optionally a crasher
/// rank exits that the receiver — once its messages are in — parks a
/// targeted watch on. Wake decisions are the deployed
/// [`mpsim::proto::wake_should_enqueue`] / [`mpsim::proto::exit_wakes_watch`].
pub struct RunQueueModel {
    /// Message-delivering threads.
    pub senders: usize,
    /// Add a crasher rank the receiver must observe exiting (via a
    /// targeted watch) after consuming all messages.
    pub crasher: bool,
    /// Mutation: clear the dedup flag after the poll returns instead of at
    /// pop time. A budget-exhausted self-requeue during the poll then sees
    /// the flag still set, is deduplicated away, and the clear erases the
    /// task's last wake — the reactor idles over a non-empty mailbox.
    pub clear_after_poll: bool,
    /// Mutation: `rank_exited` skips waking watchers — a receiver parked on
    /// the crasher waits forever.
    pub skip_exit_wake: bool,
}

impl RunQueueModel {
    /// Thread id of the crasher (when enabled); doubles as its rank.
    fn crasher_tid(&self) -> usize {
        self.senders
    }
}

impl Model for RunQueueModel {
    type State = RunQueueState;

    fn initial(&self) -> RunQueueState {
        RunQueueState {
            // The reactor seeds every task into the run queue at startup.
            queued: true,
            msgs: 0,
            consumed: 0,
            watching: WATCH_NONE,
            crasher_exited: false,
            r_done: false,
            sender_done: vec![false; self.senders],
            crasher_done: !self.crasher,
        }
    }

    fn threads(&self) -> usize {
        self.senders + usize::from(self.crasher) + 1
    }

    fn is_done(&self, s: &RunQueueState, tid: usize) -> bool {
        if tid < self.senders {
            s.sender_done[tid]
        } else if self.crasher && tid == self.crasher_tid() {
            s.crasher_done
        } else {
            s.r_done
        }
    }

    fn step(&self, s: &RunQueueState, tid: usize) -> Step<RunQueueState> {
        let mut n = s.clone();
        if tid < self.senders {
            // push_envelope: mailbox push, then a dedup-flagged direct wake.
            n.msgs += 1;
            if wake_should_enqueue(s.queued) {
                n.queued = true;
            }
            n.sender_done[tid] = true;
            return Step::Next(n);
        }
        if self.crasher && tid == self.crasher_tid() {
            // rank_exited: record the exit, wake tasks watching this rank.
            n.crasher_exited = true;
            n.crasher_done = true;
            if !self.skip_exit_wake
                && exit_wakes_watch(s.watching, self.crasher_tid())
                && wake_should_enqueue(s.queued)
            {
                n.queued = true;
            }
            return Step::Next(n);
        }
        // Reactor turn: pop + poll, one atomic transition (the reactor is
        // single-threaded; wakes racing a poll come from other transitions).
        if !s.queued {
            return Step::Blocked;
        }
        n.queued = false; // deployed behavior: flag cleared at pop
        if s.msgs > 0 {
            n.msgs -= 1;
            n.consumed += 1;
        }
        if n.consumed as usize == self.senders && (!self.crasher || s.crasher_exited) {
            n.r_done = true;
        } else if n.msgs > 0 {
            // Poll budget exhausted with backlog: self-requeue through the
            // same wake path. Under the mutation the flag is still set here
            // (cleared only after the poll), so the wake deduplicates away.
            let flag_seen = self.clear_after_poll;
            if wake_should_enqueue(flag_seen) {
                n.queued = true;
            }
        } else if n.consumed as usize == self.senders && self.crasher && !s.crasher_exited {
            // All messages in; park a targeted watch on the crasher.
            n.watching = self.crasher_tid();
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &RunQueueState) -> Result<(), String> {
        let pushed = s.sender_done.iter().filter(|d| **d).count();
        if s.msgs as usize + s.consumed as usize != pushed {
            return Err(format!(
                "message conservation broken: {} pending + {} consumed != {pushed} pushed",
                s.msgs, s.consumed
            ));
        }
        Ok(())
    }

    fn accept(&self, s: &RunQueueState) -> Result<(), String> {
        if s.msgs != 0 {
            return Err(format!("{} messages left undelivered", s.msgs));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, explore_dpor, DEFAULT_MAX_STATES};

    #[test]
    fn mailbox_notify_skip_is_sound() {
        for senders in 1..=2 {
            for spin in [false, true] {
                explore(&MailboxModel::clean(senders, spin), DEFAULT_MAX_STATES).unwrap();
            }
        }
    }

    #[test]
    fn mailbox_broken_skip_deadlocks() {
        let broken = MailboxModel { broken_skip: true, ..MailboxModel::clean(1, false) };
        let err = explore(&broken, DEFAULT_MAX_STATES).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn mailbox_parking_after_the_spin_without_a_recheck_deadlocks() {
        let broken = MailboxModel { skip_recheck: true, ..MailboxModel::clean(1, true) };
        for res in [explore(&broken, DEFAULT_MAX_STATES), explore_dpor(&broken, DEFAULT_MAX_STATES)]
        {
            let err = res.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }

    // -- reactor run queue --------------------------------------------------

    fn run_queue(senders: usize, crasher: bool) -> RunQueueModel {
        RunQueueModel { senders, crasher, clear_after_poll: false, skip_exit_wake: false }
    }

    #[test]
    fn run_queue_dedup_is_sound() {
        for senders in 1..=3 {
            for crasher in [false, true] {
                explore(&run_queue(senders, crasher), DEFAULT_MAX_STATES).unwrap();
                explore_dpor(&run_queue(senders, crasher), DEFAULT_MAX_STATES).unwrap();
            }
        }
    }

    #[test]
    fn run_queue_clear_after_poll_loses_the_self_requeue() {
        // Two messages land before the first poll; the poll's budget-
        // exhausted self-requeue is deduplicated against its own stale
        // flag, and the trailing clear erases the task's only wake.
        let m = RunQueueModel {
            senders: 2,
            crasher: false,
            clear_after_poll: true,
            skip_exit_wake: false,
        };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }

    #[test]
    fn run_queue_skip_exit_wake_strands_the_watcher() {
        // The receiver consumes its message, parks a targeted watch on the
        // crasher — and the crasher's exit never wakes it.
        let m = RunQueueModel {
            senders: 1,
            crasher: true,
            clear_after_poll: false,
            skip_exit_wake: true,
        };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }
}
