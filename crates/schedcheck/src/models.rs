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
//!   [`LaneMailboxModel`] covers. The `broken_skip` knob makes the sender
//!   require *two* waiters, reintroducing the lost wakeup the under-lock
//!   counting prevents; `skip_recheck` parks after the spin without
//!   re-checking the queue, losing a push that landed during the spin.
//!
//! The second group models the megascale event reactor (`mpsim::event_*`),
//! one model per protocol the reactor's hot path leans on — the lane
//! matcher among them being ThreadWorld's too:
//!
//! * [`RunQueueModel`] — the `Cell`-dedup run queue plus targeted exit
//!   wakes, driving [`mpsim::proto::wake_should_enqueue`] and
//!   [`mpsim::proto::exit_wakes_watch`]. Its `clear_after_poll` knob moves
//!   the dedup-flag clear from pop time to after the poll (losing
//!   budget-exhausted self-requeues) and `skip_exit_wake` drops the exit
//!   notification to a parked watcher; both deadlock under the explorer.
//! * [`ExternalWakerModel`] — the mutex-protected side queue `Waker`s push
//!   into, drained once per reactor idle transition. Knobs: `skip_drain`
//!   parks without consulting the side queue, `drop_drained` empties it
//!   without scheduling — both are the dropped-wake bugs the drain loop
//!   exists to prevent.
//! * [`LaneMailboxModel`] — the inline-bucket/spill routing of
//!   [`mpsim::LaneMailbox`], driving [`mpsim::event_mailbox::bucket_route`]
//!   over a scripted wild-tag workload. Proves the spill counter accounts
//!   for exactly the envelopes routed past the inline buckets, that no
//!   envelope is lost across the inline/spill boundary and that taking
//!   over a drained bucket keeps per-tag FIFO; knobs `drop_wild` (lose
//!   spilled envelopes) and `skip_spill_count` (mute the counter) are
//!   caught as a deadlock / rejected terminal, `reuse_full` (take over a
//!   bucket that still holds envelopes) and `forget_spilled` (take one
//!   while the tag has envelopes spilled) as a FIFO mismatch.
//! * [`TimerWheelModel`] — arm/fire/cancel over a recycled timer slab with
//!   generation-counted handles, driving
//!   [`mpsim::event_timer::handle_is_live`] and asserting
//!   [`mpsim::TimerWheel::place`]'s slot-distance precondition in every
//!   reachable state. Its `no_generation` knob matches handles on slab
//!   index alone, letting a stale cancel kill a recycled entry — the
//!   deadlock generation counting exists to prevent.

use mpsim::event_mailbox::{bucket_route, BucketRoute};
use mpsim::proto::{exit_wakes_watch, push_should_notify, wake_should_enqueue, WATCH_NONE};
use mpsim::TimerWheel;

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

// ---------------------------------------------------------------------------
// Event reactor: external-waker side queue
// ---------------------------------------------------------------------------

/// State of [`ExternalWakerModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct ExternalWakerState {
    /// Entries in the mutex-protected side queue (all for the one task).
    side: u8,
    /// The task's dedup flag ≡ run-queue membership.
    queued: bool,
    /// Wake-work units published (one per waker thread).
    work: u8,
    /// Work units the task has observed.
    consumed: u8,
    /// Task ran to completion.
    r_done: bool,
    /// Per-waker completion.
    waker_done: Vec<bool>,
}

/// The reactor's external-wake protocol: `Waker`s invoked off the reactor
/// thread append to a mutexed side queue; the reactor, finding its run
/// queue empty, drains the side queue through the dedup-flagged
/// [`mpsim::proto::wake_should_enqueue`] push before it may park. The model
/// proves no wake is dropped between a drain and the idle declaration: the
/// park condition (run queue empty ∧ side queue empty) is re-evaluated
/// against every interleaved external push.
pub struct ExternalWakerModel {
    /// External waker threads, each publishing one work unit + one wake.
    pub wakes: usize,
    /// Mutation: park without consulting the side queue.
    pub skip_drain: bool,
    /// Mutation: drain the side queue but discard the entries instead of
    /// scheduling them.
    pub drop_drained: bool,
}

impl Model for ExternalWakerModel {
    type State = ExternalWakerState;

    fn initial(&self) -> ExternalWakerState {
        ExternalWakerState {
            side: 0,
            queued: true, // startup seed, as in the reactor
            work: 0,
            consumed: 0,
            r_done: false,
            waker_done: vec![false; self.wakes],
        }
    }

    fn threads(&self) -> usize {
        self.wakes + 1
    }

    fn is_done(&self, s: &ExternalWakerState, tid: usize) -> bool {
        if tid < self.wakes {
            s.waker_done[tid]
        } else {
            s.r_done
        }
    }

    fn step(&self, s: &ExternalWakerState, tid: usize) -> Step<ExternalWakerState> {
        let mut n = s.clone();
        if tid < self.wakes {
            // TaskWaker::wake — publish work, then push onto the side
            // queue (never the run queue: wakers run off-thread).
            n.work += 1;
            n.side += 1;
            n.waker_done[tid] = true;
            return Step::Next(n);
        }
        // Reactor turn.
        if s.queued {
            // Poll: consume all published work this turn.
            n.queued = false;
            n.consumed += s.work;
            n.work = 0;
            if n.consumed as usize >= self.wakes {
                n.r_done = true;
            }
            return Step::Next(n);
        }
        if s.side > 0 && !self.skip_drain {
            // drain_external: move every side entry through the dedup push.
            for _ in 0..s.side {
                if !self.drop_drained && wake_should_enqueue(n.queued) {
                    n.queued = true;
                }
            }
            n.side = 0;
            return Step::Next(n);
        }
        // Run queue empty, side queue empty (or unread, under the
        // mutations): the reactor parks. A later external push re-enables
        // the drain transition — unless the mutation never looks.
        Step::Blocked
    }

    fn invariant(&self, s: &ExternalWakerState) -> Result<(), String> {
        if s.consumed as usize > self.wakes {
            return Err(format!("consumed {} of {} wakes", s.consumed, self.wakes));
        }
        Ok(())
    }

    fn accept(&self, s: &ExternalWakerState) -> Result<(), String> {
        // Side entries may outlive the task (a wake for a completed task is
        // drained and skipped in the reactor), but work must not.
        if s.work != 0 {
            return Err(format!("{} published wakes never observed", s.work));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Event reactor: lane-mailbox inline/spill routing
// ---------------------------------------------------------------------------

/// Scripted push tags for [`LaneMailboxModel`]: four distinct tags claim
/// every inline bucket, then a repeated wild tag and a fresh one take over
/// a drained bucket or spill, depending on the interleaving (payload =
/// push index).
const LANE_PUSH_TAGS: [u32; 7] = [0, 1, 2, 3, 9, 9, 5];
/// Scripted pop order, by push index, keeping per-tag FIFO (push 4 before
/// push 5, both tag 9). Popping push 0 first drains bucket 0 while push 4
/// may sit in the spill map: push 5 must then spill behind it, and push 6
/// takes the drained bucket over.
const LANE_POP_ORDER: [usize; 7] = [0, 4, 6, 1, 5, 2, 3];

/// State of [`LaneMailboxModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct LaneMailboxState {
    /// Inline buckets in claim order: `(tag, queued payloads)`. Buckets
    /// fill in first-seen-tag order and never free; a new tag may take
    /// over a drained one, as in the real lane.
    inline: Vec<(u32, Vec<u8>)>,
    /// Spill map in insertion order: `(tag, queued payloads)`.
    spill: Vec<(u32, Vec<u8>)>,
    /// Envelopes routed to the spill map (the `mailbox_spills` counter).
    spills: u8,
    /// Pushes the route actually sent to the spill map.
    routed: u8,
    /// Next push script index.
    s_idx: u8,
    /// Next pop script index.
    r_idx: u8,
    /// A pop returned the wrong payload (FIFO or routing violation).
    mismatch: bool,
}

/// The [`mpsim::LaneMailbox`] inline-bucket/spill protocol: a sender pushes
/// the scripted wild-tag workload while a receiver pops it back in an
/// interleaved order, every routing decision made by the deployed
/// [`mpsim::event_mailbox::bucket_route`]. Explores all push/pop
/// interleavings and proves per-tag FIFO across the inline/spill boundary
/// and across a bucket's change of owner, plus exact spill accounting.
#[derive(Default)]
pub struct LaneMailboxModel {
    /// Mutation: spill-routed envelopes are dropped instead of stored — the
    /// receiver waits for them forever.
    pub drop_wild: bool,
    /// Mutation: spill-routed envelopes skip the spill counter — the
    /// terminal state under-reports and is rejected.
    pub skip_spill_count: bool,
    /// Mutation: a new tag takes over the first bucket whether or not it
    /// has drained — the old tag's envelopes queue under the new one.
    pub reuse_full: bool,
    /// Mutation: a new tag takes over a drained bucket even with its own
    /// envelopes in the spill map — its FIFO splits in two queues.
    pub forget_spilled: bool,
}

impl Model for LaneMailboxModel {
    type State = LaneMailboxState;

    fn initial(&self) -> LaneMailboxState {
        LaneMailboxState {
            inline: Vec::new(),
            spill: Vec::new(),
            spills: 0,
            routed: 0,
            s_idx: 0,
            r_idx: 0,
            mismatch: false,
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn is_done(&self, s: &LaneMailboxState, tid: usize) -> bool {
        if tid == 0 {
            s.s_idx as usize == LANE_PUSH_TAGS.len()
        } else {
            s.r_idx as usize == LANE_POP_ORDER.len()
        }
    }

    fn step(&self, s: &LaneMailboxState, tid: usize) -> Step<LaneMailboxState> {
        let mut n = s.clone();
        let tags: Vec<u32> = s.inline.iter().map(|(t, _)| *t).collect();
        if tid == 0 {
            // LaneMailbox::push with the deployed routing decision.
            let tag = LANE_PUSH_TAGS[s.s_idx as usize];
            let payload = s.s_idx;
            let drained = match self.reuse_full {
                true => Some(0),
                false => s.inline.iter().position(|(_, q)| q.is_empty()),
            };
            let spilled =
                !self.forget_spilled && s.spill.iter().any(|(t, q)| *t == tag && !q.is_empty());
            match bucket_route(&tags, drained, spilled, tag) {
                BucketRoute::Existing(i) => n.inline[i].1.push(payload),
                BucketRoute::NewInline => n.inline.push((tag, vec![payload])),
                BucketRoute::Reuse(i) => {
                    n.inline[i].0 = tag;
                    n.inline[i].1.push(payload);
                }
                BucketRoute::Spill => {
                    n.routed += 1;
                    if !self.skip_spill_count {
                        n.spills += 1;
                    }
                    if !self.drop_wild {
                        match n.spill.iter_mut().find(|(t, _)| *t == tag) {
                            Some((_, q)) => q.push(payload),
                            None => n.spill.push((tag, vec![payload])),
                        }
                    }
                }
            }
            n.s_idx += 1;
            return Step::Next(n);
        }
        // LaneMailbox::pop, blocking until the expected envelope arrives.
        let want = LANE_POP_ORDER[s.r_idx as usize];
        let tag = LANE_PUSH_TAGS[want];
        let got = match bucket_route(&tags, None, false, tag) {
            BucketRoute::Existing(i) => {
                if n.inline[i].1.is_empty() {
                    None
                } else {
                    Some(n.inline[i].1.remove(0))
                }
            }
            // A pop routed NewInline finds nothing inline; only the spill
            // map could hold the tag — mirroring the real pop's fallthrough.
            BucketRoute::NewInline | BucketRoute::Reuse(_) | BucketRoute::Spill => n
                .spill
                .iter_mut()
                .find(|(t, q)| *t == tag && !q.is_empty())
                .map(|(_, q)| q.remove(0)),
        };
        match got {
            None => Step::Blocked,
            Some(payload) => {
                if payload as usize != want {
                    n.mismatch = true;
                }
                n.r_idx += 1;
                Step::Next(n)
            }
        }
    }

    fn invariant(&self, s: &LaneMailboxState) -> Result<(), String> {
        if s.mismatch {
            return Err(
                "FIFO mismatch: a pop returned an out-of-order or misrouted envelope".into()
            );
        }
        for (tag, queue) in &s.inline {
            if let Some(&p) = queue.iter().find(|&&p| LANE_PUSH_TAGS[p as usize] != *tag) {
                return Err(format!("FIFO mismatch: tag {tag}'s bucket holds push {p}"));
            }
            if s.spill.iter().any(|(t, q)| t == tag && !q.is_empty()) && !queue.is_empty() {
                return Err(format!("FIFO mismatch: tag {tag} is queued inline and spilled"));
            }
        }
        if s.inline.len() > mpsim::event_mailbox::INLINE_TAGS {
            return Err(format!("{} inline buckets claimed", s.inline.len()));
        }
        Ok(())
    }

    fn accept(&self, s: &LaneMailboxState) -> Result<(), String> {
        if s.spills != s.routed {
            return Err(format!(
                "spill counter {} does not account for the {} envelopes routed to the spill map",
                s.spills, s.routed
            ));
        }
        if s.inline.iter().any(|(_, q)| !q.is_empty()) || s.spill.iter().any(|(_, q)| !q.is_empty())
        {
            return Err("envelopes left queued at termination".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Event reactor: timer wheel generations
// ---------------------------------------------------------------------------

/// One slab slot in [`TimerWheelModel`]'s abstract wheel.
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct TimerSlot {
    gen: u32,
    armed: bool,
    deadline: u64,
    seq: u8,
    owner: u8,
}

/// Per-thread location in the timer model.
#[derive(Clone, Copy, Hash, PartialEq, Eq, Debug)]
enum TLoc {
    /// About to arm a timer.
    Arm,
    /// Waiting for the armed timer to fire.
    WaitFire,
    /// Task A only: about to cancel its (already fired, hence stale)
    /// handle — the half-polled-future-drop pattern.
    CancelStale,
    /// Finished.
    Done,
}

/// State of [`TimerWheelModel`].
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
pub struct TimerWheelState {
    /// The entry slab; freed slots are recycled lowest-index-first with a
    /// generation bump, as in the real wheel's free list.
    slots: Vec<TimerSlot>,
    /// Task A's handle `(idx, gen)` from its arm, kept past the fire.
    handle_a: Option<(u8, u32)>,
    /// Virtual clock.
    now: u64,
    /// Last popped `(deadline, seq)`, for the ordering invariant.
    last_pop: Option<(u64, u8)>,
    /// Global arming sequence.
    next_seq: u8,
    /// Per-task fired flag (the reactor's wake).
    fired: [bool; 2],
    /// Task program counters: A, B.
    loc: [TLoc; 2],
}

/// The [`mpsim::TimerWheel`] handle-generation protocol: task A arms a
/// short timer, waits for it to fire, then cancels its stale handle (as a
/// dropped receive future does); task B arms a longer timer that may
/// recycle A's freed slab slot; the reactor pops due timers in
/// `(deadline, seq)` order and advances the clock. Cancel liveness is the
/// deployed [`mpsim::event_timer::handle_is_live`], and every reachable
/// state asserts [`mpsim::TimerWheel::place`]'s slot-distance precondition
/// for each armed entry.
pub struct TimerWheelModel {
    /// A's relative deadline.
    pub delta_a: u64,
    /// B's relative deadline.
    pub delta_b: u64,
    /// Mutation: cancel matches on slab index alone (no generation check) —
    /// A's stale cancel can kill B's recycled entry, stranding B.
    pub no_generation: bool,
}

impl TimerWheelModel {
    const REACTOR: usize = 2;

    /// Arm a timer into the slab, recycling the lowest freed slot (free
    /// list order is immaterial with two tasks) with a generation bump at
    /// release time — matching `TimerWheel::release`.
    fn arm(s: &mut TimerWheelState, owner: u8, deadline: u64) -> (u8, u32) {
        let seq = s.next_seq;
        s.next_seq += 1;
        if let Some(i) = s.slots.iter().position(|e| !e.armed) {
            let e = &mut s.slots[i];
            e.armed = true;
            e.deadline = deadline;
            e.seq = seq;
            e.owner = owner;
            (i as u8, e.gen)
        } else {
            s.slots.push(TimerSlot { gen: 0, armed: true, deadline, seq, owner });
            ((s.slots.len() - 1) as u8, 0)
        }
    }
}

impl Model for TimerWheelModel {
    type State = TimerWheelState;

    fn initial(&self) -> TimerWheelState {
        TimerWheelState {
            slots: Vec::new(),
            handle_a: None,
            now: 0,
            last_pop: None,
            next_seq: 0,
            fired: [false, false],
            loc: [TLoc::Arm, TLoc::Arm],
        }
    }

    fn threads(&self) -> usize {
        3
    }

    fn is_done(&self, s: &TimerWheelState, tid: usize) -> bool {
        if tid == Self::REACTOR {
            s.loc == [TLoc::Done, TLoc::Done]
        } else {
            s.loc[tid] == TLoc::Done
        }
    }

    fn step(&self, s: &TimerWheelState, tid: usize) -> Step<TimerWheelState> {
        let mut n = s.clone();
        if tid == Self::REACTOR {
            // pop_next + clock advance + wake, one idle transition.
            let Some(best) = s
                .slots
                .iter()
                .enumerate()
                .filter(|(_, e)| e.armed)
                .min_by_key(|(_, e)| (e.deadline, e.seq))
                .map(|(i, _)| i)
            else {
                return Step::Blocked;
            };
            let (deadline, seq, owner) = {
                let e = &mut n.slots[best];
                e.armed = false;
                e.gen = e.gen.wrapping_add(1); // release: stale out handles
                (e.deadline, e.seq, e.owner)
            };
            n.last_pop = Some((deadline, seq));
            if deadline > n.now {
                n.now = deadline;
            }
            n.fired[owner as usize] = true;
            return Step::Next(n);
        }
        match s.loc[tid] {
            TLoc::Arm => {
                let delta = if tid == 0 { self.delta_a } else { self.delta_b };
                let handle = Self::arm(&mut n, tid as u8, s.now + delta);
                if tid == 0 {
                    n.handle_a = Some(handle);
                }
                n.loc[tid] = TLoc::WaitFire;
            }
            TLoc::WaitFire => {
                if !s.fired[tid] {
                    return Step::Blocked;
                }
                n.loc[tid] = if tid == 0 { TLoc::CancelStale } else { TLoc::Done };
            }
            TLoc::CancelStale => {
                // TimerWheel::cancel with the deployed liveness decision.
                // Loc CancelStale implies A armed.
                let (idx, gen) = s.handle_a.expect("A cancels only after arming");
                let e = &mut n.slots[idx as usize];
                let live = if self.no_generation {
                    e.armed
                } else {
                    mpsim::event_timer::handle_is_live(e.gen, e.armed, gen)
                };
                if live {
                    e.armed = false;
                    e.gen = e.gen.wrapping_add(1);
                }
                n.loc[0] = TLoc::Done;
            }
            TLoc::Done => unreachable!("done threads are never stepped"),
        }
        Step::Next(n)
    }

    fn invariant(&self, s: &TimerWheelState) -> Result<(), String> {
        for e in s.slots.iter().filter(|e| e.armed) {
            if e.deadline < s.now {
                return Err(format!(
                    "clock {} passed armed deadline {} — the wheel's scan precondition",
                    s.now, e.deadline
                ));
            }
            // The deployed placement function must put the entry within 64
            // slots of the clock's digit at its level (module docs theorem).
            let (level, _slot) = TimerWheel::place(s.now, e.deadline);
            let dist = (e.deadline >> (6 * level as u32)) - (s.now >> (6 * level as u32));
            if dist >= 64 {
                return Err(format!(
                    "entry at deadline {} sits {dist} slots past the clock at level {level}",
                    e.deadline
                ));
            }
        }
        if let Some(last) = s.last_pop {
            for e in s.slots.iter().filter(|e| e.armed) {
                if (e.deadline, e.seq) < last {
                    return Err(format!(
                        "armed ({}, {}) sorts before the last pop {last:?}: out-of-order pop",
                        e.deadline, e.seq
                    ));
                }
            }
        }
        Ok(())
    }

    fn accept(&self, s: &TimerWheelState) -> Result<(), String> {
        if s.slots.iter().any(|e| e.armed) {
            return Err("armed timers left at termination".into());
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

    // -- external waker side queue ------------------------------------------

    #[test]
    fn external_waker_drain_is_sound() {
        for wakes in 1..=3 {
            let m = ExternalWakerModel { wakes, skip_drain: false, drop_drained: false };
            explore(&m, DEFAULT_MAX_STATES).unwrap();
            explore_dpor(&m, DEFAULT_MAX_STATES).unwrap();
        }
    }

    #[test]
    fn external_waker_mutants_drop_the_wake() {
        // Either mutation leaves the published work unobserved: the park
        // condition stops seeing (or stops honoring) the side queue.
        for (skip_drain, drop_drained) in [(true, false), (false, true)] {
            let m = ExternalWakerModel { wakes: 1, skip_drain, drop_drained };
            for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
                let err = run.unwrap_err();
                assert!(err.contains("deadlock"), "{err}");
            }
        }
    }

    // -- lane mailbox inline/spill -------------------------------------------

    #[test]
    fn lane_mailbox_routing_is_sound() {
        let m = LaneMailboxModel::default();
        explore(&m, DEFAULT_MAX_STATES).unwrap();
        explore_dpor(&m, DEFAULT_MAX_STATES).unwrap();
    }

    #[test]
    fn lane_mailbox_drop_wild_strands_the_receiver() {
        let m = LaneMailboxModel { drop_wild: true, ..LaneMailboxModel::default() };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }

    #[test]
    fn lane_mailbox_skip_spill_count_rejected_at_terminal() {
        let m = LaneMailboxModel { skip_spill_count: true, ..LaneMailboxModel::default() };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("terminal state rejected") && err.contains("spill"), "{err}");
        }
    }

    #[test]
    fn lane_mailbox_reuse_without_drain_breaks_fifo() {
        for m in [
            LaneMailboxModel { reuse_full: true, ..LaneMailboxModel::default() },
            LaneMailboxModel { forget_spilled: true, ..LaneMailboxModel::default() },
        ] {
            for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
                let err = run.unwrap_err();
                assert!(err.contains("FIFO mismatch"), "{err}");
            }
        }
    }

    // -- timer wheel generations ---------------------------------------------

    #[test]
    fn timer_wheel_generations_are_sound() {
        // Deadlines at different wheel levels (10 < 64 ≤ 100) so the place()
        // precondition is exercised across a level boundary.
        for (delta_a, delta_b) in [(10, 20), (10, 100), (63, 64)] {
            let m = TimerWheelModel { delta_a, delta_b, no_generation: false };
            explore(&m, DEFAULT_MAX_STATES).unwrap();
            explore_dpor(&m, DEFAULT_MAX_STATES).unwrap();
        }
    }

    #[test]
    fn timer_wheel_no_generation_fires_a_stale_handle() {
        // A's fired slot is recycled by B's arm before A's stale cancel
        // lands; without the generation check the cancel kills B's live
        // entry and B waits forever.
        let m = TimerWheelModel { delta_a: 10, delta_b: 20, no_generation: true };
        for run in [explore(&m, DEFAULT_MAX_STATES), explore_dpor(&m, DEFAULT_MAX_STATES)] {
            let err = run.unwrap_err();
            assert!(err.contains("deadlock"), "{err}");
        }
    }
}
