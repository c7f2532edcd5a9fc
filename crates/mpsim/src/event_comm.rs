//! The discrete-event executor: every rank is a cooperatively scheduled
//! task on one OS thread, and time is a virtual counter the reactor owns.
//!
//! The two existing executors map ranks to OS threads, which caps worlds at
//! a few dozen ranks; this one runs the same collectives at P = 16384+
//! because a blocked rank costs one parked future instead of one parked
//! thread. The semantics deliberately mirror
//! [`ThreadComm`](crate::thread_comm::ThreadComm):
//!
//! * posts are *eager* — the payload is queued at the destination
//!   immediately, so the post-then-take `exchange` cannot deadlock;
//! * receives match by `(source, tag)` FIFO (non-overtaking), drain queued
//!   messages from an exited peer before failing with
//!   [`CommError::PeerFailed`], and enforce truncation identically;
//! * `take` deadlines live on the **virtual clock**: when no task is
//!   runnable the reactor advances time straight to the earliest armed
//!   timer, so timeout-driven protocols (retransmission, failure detection)
//!   run deterministically and instantaneously instead of sleeping.
//!
//! The hot path is built from three dense structures (DESIGN.md §6):
//!
//! * [`LaneMailbox`] — radix-indexed `(destination, source)` lanes with
//!   inline tag buckets, replacing a hashed `(source, tag)` map: matching
//!   costs two dependent loads and a 1–2 entry scan, no hashing, and the
//!   queues link payload-only nodes of one world-wide slab, so queue memory
//!   follows the envelopes in flight;
//! * [`TimerWheel`] — a hierarchical timing wheel with O(1) arm *and*
//!   cancel: a satisfied bounded `take` disarms its deadline on the spot
//!   (the receive future cancels in `Drop`, so even abandoning a
//!   half-polled receive leaves no stale timer behind);
//! * a slab task arena plus a `Cell`-based run queue — futures live in one
//!   boxed slice polled in place, and a send that wakes its receiver goes
//!   straight onto the run queue without the `Waker` detour or its lock.
//!   Handed-out `Waker`s stay sound through a mutexed side queue that the
//!   reactor drains before declaring the world idle; nothing on the
//!   message path touches it.
//!
//! Waking is *targeted*: a parked receive registers which source it waits
//! on and a parked barrier flags itself, so a rank's exit wakes exactly the
//! tasks that could observe it instead of the whole world — the difference
//! between O(P) and O(P²) polls per sweep. Every scheduling decision is a
//! deterministic function of the workload, so runs replay bit-identically;
//! [`crate::counters::ReactorStats`] in the outcome reports what the
//! scheduling cost.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::acomm::{deadline_after, AsyncCommunicator};
use crate::counters::{CounterCell, ReactorStats, TrafficStats, WorldTraffic};
use crate::error::{CommError, Result};
use crate::event_mailbox::LaneMailbox;
use crate::event_timer::{TimerHandle, TimerWheel};
use crate::pool::{BufferPool, Payload, PoolStats, SharedBuf};
use crate::rank::{Rank, Tag};
use crate::thread_comm::WorldOutcome;

use crate::proto::{WATCH_ANY, WATCH_NONE};

/// Side queue for wakes arriving through the `Waker` protocol. `Waker` must
/// be `Send + Sync`, so this path keeps a lock — but nothing on the message
/// hot path uses it (deliveries push the destination task straight onto the
/// reactor's `Cell`-based run queue). The reactor drains it exactly once
/// per idle transition, so a user future that stashes its waker and wakes
/// later is still scheduled before the world is declared stuck.
///
/// Model-checked: schedcheck's `ExternalWakerModel` explores every
/// interleaving of external pushes against the drain/park transition and
/// proves no wake is dropped between the drain and the idle declaration
/// (its mutation knobs — skip the drain, drop drained entries — both
/// deadlock under the explorer).
struct ExternalWakes {
    queue: crate::sync::Mutex<Vec<usize>>,
}

struct TaskWaker {
    task: usize,
    external: Arc<ExternalWakes>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.external.queue.lock().push(self.task);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.external.queue.lock().push(self.task);
    }
}

/// The reactor-thread run queue: a plain `VecDeque` of task ids with
/// `Cell` dedup flags — a burst of deliveries to one task costs one poll,
/// and re-waking an already-queued task is two `Cell` accesses, no lock.
///
/// Model-checked: schedcheck's `RunQueueModel` drives the same
/// [`proto::wake_should_enqueue`](crate::proto::wake_should_enqueue) and
/// [`proto::exit_wakes_watch`](crate::proto::exit_wakes_watch) predicates
/// from abstract states and proves the dedup flag never loses a wake —
/// in particular that clearing the flag at *pop* time (below, before the
/// poll runs) is what keeps a budget-exhausted self-requeue alive.
struct Scheduler {
    run: RefCell<VecDeque<usize>>,
    queued: Vec<Cell<bool>>,
    wakeups: Cell<u64>,
    external: Arc<ExternalWakes>,
}

impl Scheduler {
    fn new(n: usize, external: Arc<ExternalWakes>) -> Self {
        Scheduler {
            run: RefCell::new(VecDeque::with_capacity(n)),
            queued: (0..n).map(|_| Cell::new(false)).collect(),
            wakeups: Cell::new(0),
            external,
        }
    }

    fn push(&self, task: usize) {
        if crate::proto::wake_should_enqueue(self.queued[task].replace(true)) {
            self.run.borrow_mut().push_back(task);
            self.wakeups.set(self.wakeups.get() + 1);
        }
    }

    fn pop(&self) -> Option<usize> {
        let task = self.run.borrow_mut().pop_front()?;
        self.queued[task].set(false);
        Some(task)
    }

    /// Move protocol-path wakes onto the run queue; returns whether any
    /// task became runnable. Called only when the run queue is empty.
    fn drain_external(&self) -> bool {
        let drained = std::mem::take(&mut *self.external.queue.lock());
        let mut any = false;
        for task in drained {
            self.push(task);
            any = true;
        }
        any
    }
}

/// Generation-counted barrier state, the single-threaded analogue of
/// [`StopBarrier`](crate::barrier::StopBarrier): the last arrival bumps the
/// generation and wakes everyone waiting; a completed generation is
/// unaffected by a later departure.
struct BarrierState {
    arrived: Cell<usize>,
    generation: Cell<u64>,
    /// First rank that left the world for good; fails current and future
    /// waits with `PeerFailed`, exactly like `StopBarrier::depart`.
    departed: Cell<Option<Rank>>,
}

struct EventShared {
    size: usize,
    /// Every destination's mailbox lanes in one [`LaneMailbox`], so the
    /// world's queued envelopes share one node slab and a push or pop takes
    /// one borrow. Plain `RefCell` state — no locks, no condvars — because
    /// matching and waking all happen on the reactor thread.
    lanes: RefCell<LaneMailbox>,
    exited: Vec<Cell<bool>>,
    /// The engine-owned virtual clock, in nanoseconds since world start.
    clock_ns: Cell<u64>,
    /// Armed deadlines; pops in `(deadline, seq)` order, identical to the
    /// heap it replaced, so replay stays deterministic.
    timers: RefCell<TimerWheel>,
    barrier: BarrierState,
    pool: Arc<BufferPool>,
    counters: Vec<CounterCell>,
    /// Receives the running task may still complete this turn; refilled to
    /// [`recv_poll_budget`] by the reactor before every task poll. Eager
    /// sends never block, so without this a rank whose mailbox is deep
    /// forwards its whole backlog in one poll and the wavefront piles up
    /// O(P²) in-flight envelopes; draining at most `B` per turn keeps the
    /// round-robin fair and the peak footprint at O(P·B).
    recv_budget: Cell<u32>,
    sched: Scheduler,
    /// Per-task targeted-wake registration: the source rank this task's
    /// parked receive waits on, or a `WATCH_*` sentinel.
    watching: Vec<Cell<usize>>,
    /// Per-task flag: parked inside a barrier generation.
    barrier_parked: Vec<Cell<bool>>,
}

/// Payloads up to this size (the pool's smallest class) are staged on the
/// heap instead of rented: on one thread the allocator's cache serves a
/// control frame — an agreement report, a quorum bit — in half the time of
/// the pool's locked freelists and counters (stage and drop: ~45 vs ~97 ns
/// on a 2-core host).
const HEAP_STAGED_BYTES: usize = 64;

/// Worldwide in-flight envelope target that sets the per-turn receive
/// budget: each task may consume up to `max(64, 2^21 / P)` envelopes per
/// reactor turn before it must yield (see [`EventShared::recv_budget`]).
/// The scaling keeps both ends honest — small and mid-size worlds get a
/// budget far above anything a turn consumes, so scheduling order, timer
/// arming order, and replay timestamps are identical with or without it,
/// while megascale worlds are clamped hard enough that the wavefront
/// holds O(2^21) resident envelopes instead of O(P²).
const RECV_INFLIGHT_TARGET: u32 = 1 << 21;

/// Floor of the per-turn receive budget at any world size; keeps the
/// round-robin slices big enough that yield bookkeeping stays amortized.
const MIN_RECV_POLL_BUDGET: u32 = 64;

fn recv_poll_budget(world_size: usize) -> u32 {
    (RECV_INFLIGHT_TARGET / world_size.max(1) as u32).max(MIN_RECV_POLL_BUDGET)
}

impl EventShared {
    fn now(&self) -> u64 {
        self.clock_ns.get()
    }

    fn arm_timer(&self, deadline_ns: u64, task: usize) -> TimerHandle {
        self.timers.borrow_mut().arm(self.now(), deadline_ns, task)
    }

    fn cancel_timer(&self, handle: TimerHandle) {
        self.timers.borrow_mut().cancel(handle);
    }

    /// Deliver one envelope and wake the destination's task directly — the
    /// batched eager-post path: no `Waker`, no lock, and if the receiver is
    /// already queued the dedup flag makes this two `Cell` reads.
    fn push_envelope(&self, dest: Rank, src: Rank, tag: Tag, data: Payload) {
        self.lanes.borrow_mut().push_to(dest, src, tag, data);
        self.sched.push(dest);
    }

    fn try_pop(&self, me: Rank, src: Rank, tag: Tag) -> Option<Payload> {
        self.lanes.borrow_mut().pop_from(me, src, tag)
    }

    /// Register `task` as parked on a receive from `src`; concurrent parks
    /// on different sources degrade to wake-on-any-exit (still correct —
    /// woken tasks re-check their state — just less precise).
    fn watch(&self, task: usize, src: Rank) {
        let cur = self.watching[task].get();
        if cur == WATCH_NONE {
            self.watching[task].set(src);
        } else if cur != src {
            self.watching[task].set(WATCH_ANY);
        }
    }

    fn unwatch(&self, task: usize, src: Rank) {
        if self.watching[task].get() == src {
            self.watching[task].set(WATCH_NONE);
        }
    }

    /// Wake every task parked in the current barrier generation.
    fn wake_barrier_waiters(&self) {
        for task in 0..self.size {
            if self.barrier_parked[task].get() {
                self.sched.push(task);
            }
        }
    }

    /// Record a normal departure of `rank` and wake exactly the tasks that
    /// can observe it: receives parked on `rank` (or on multiple sources)
    /// and barrier waiters. Everyone else stays parked — this is what keeps
    /// a P-rank sweep at O(P) exit work instead of O(P²). The wake decision
    /// is [`proto::exit_wakes_watch`](crate::proto::exit_wakes_watch), the
    /// same predicate schedcheck's `RunQueueModel` proves never strands a
    /// watcher (its `skip_exit_wake` mutation deadlocks under the explorer).
    fn rank_exited(&self, rank: Rank) {
        self.exited[rank].set(true);
        if self.barrier.departed.get().is_none() {
            self.barrier.departed.set(Some(rank));
        }
        for task in 0..self.size {
            if self.exited[task].get() {
                continue;
            }
            let watch = self.watching[task].get();
            if crate::proto::exit_wakes_watch(watch, rank) || self.barrier_parked[task].get() {
                self.sched.push(task);
            }
        }
    }
}

/// Entry point for discrete-event runs.
///
/// See [`EventWorld::run`].
pub struct EventWorld;

impl EventWorld {
    /// Run `f` on `n` ranks as cooperatively scheduled tasks on the calling
    /// thread, and gather results once every task has completed.
    ///
    /// `f` is invoked once per rank and returns that rank's future — write
    /// it as a closure returning an `async move` block:
    ///
    /// ```
    /// use mpsim::{AsyncCommunicator, EventWorld, Tag};
    ///
    /// let out = EventWorld::run(4, |comm| async move {
    ///     if comm.rank() == 0 {
    ///         for peer in 1..comm.size() {
    ///             comm.send(&[42], peer, Tag(7)).await.unwrap();
    ///         }
    ///         42u8
    ///     } else {
    ///         let mut buf = [0u8; 1];
    ///         comm.recv(&mut buf, 0, Tag(7)).await.unwrap();
    ///         buf[0]
    ///     }
    /// });
    /// assert!(out.results.iter().all(|&v| v == 42));
    /// ```
    ///
    /// [`WorldOutcome::elapsed`] reports **virtual** time: the final value
    /// of the world clock, which only advances when every task is blocked
    /// and the reactor jumps to the next armed timer deadline.
    /// [`WorldOutcome::reactor`] reports what the run cost the scheduler.
    ///
    /// # Panics
    ///
    /// A panic in any rank's future propagates out of `run` (the world is
    /// abandoned, mirroring the threaded executor's teardown-and-rethrow).
    /// Additionally, `run` panics if the world deadlocks: no task is
    /// runnable, no timer is armed, and unfinished tasks remain.
    pub fn run<R, F, Fut>(n: usize, f: F) -> WorldOutcome<R>
    where
        F: Fn(EventComm) -> Fut,
        Fut: Future<Output = R>,
    {
        assert!(n >= 1, "world needs at least one rank");
        let external = Arc::new(ExternalWakes { queue: crate::sync::Mutex::new(Vec::new()) });
        let shared = Rc::new(EventShared {
            size: n,
            lanes: RefCell::new(LaneMailbox::for_destinations(n, n)),
            exited: (0..n).map(|_| Cell::new(false)).collect(),
            clock_ns: Cell::new(0),
            timers: RefCell::new(TimerWheel::new()),
            barrier: BarrierState {
                arrived: Cell::new(0),
                generation: Cell::new(0),
                departed: Cell::new(None),
            },
            pool: BufferPool::new(),
            counters: (0..n).map(|_| CounterCell::default()).collect(),
            recv_budget: Cell::new(recv_poll_budget(n)),
            sched: Scheduler::new(n, Arc::clone(&external)),
            watching: (0..n).map(|_| Cell::new(WATCH_NONE)).collect(),
            barrier_parked: (0..n).map(|_| Cell::new(false)).collect(),
        });

        // The slab task arena: every future is created up front (moving a
        // future is fine before its first poll), then lives at a stable
        // address inside one boxed slice until it is dropped in place. The
        // reactor owns the arena directly (not through `shared`), so
        // task → comm → shared never forms a reference cycle.
        let mut tasks: Box<[Option<Fut>]> =
            (0..n).map(|rank| Some(f(EventComm { rank, shared: Rc::clone(&shared) }))).collect();
        let wakers: Vec<Waker> = (0..n)
            .map(|task| Waker::from(Arc::new(TaskWaker { task, external: Arc::clone(&external) })))
            .collect();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut remaining = n;
        let mut spurious_polls = 0u64;
        for task in 0..n {
            shared.sched.push(task);
        }

        while remaining > 0 {
            let Some(task) = shared.sched.pop() else {
                // Nothing runnable on the fast queue: collect any wakes that
                // came through the `Waker` protocol, and only if there are
                // none advance virtual time to the earliest armed timer.
                if shared.sched.drain_external() {
                    continue;
                }
                let next = shared.timers.borrow_mut().pop_next(shared.clock_ns.get());
                match next {
                    Some((deadline_ns, timer_task)) => {
                        if deadline_ns > shared.clock_ns.get() {
                            shared.clock_ns.set(deadline_ns);
                        }
                        shared.sched.push(timer_task);
                    }
                    None => {
                        let stuck: Vec<Rank> = tasks
                            .iter()
                            .enumerate()
                            .filter_map(|(rank, t)| t.is_some().then_some(rank))
                            .take(8)
                            .collect();
                        // A deadlocked world can never produce an outcome;
                        // fail loudly with diagnostics.
                        panic!(
                            "EventWorld deadlock: {remaining} of {n} ranks blocked with no \
                             queued message or armed timer to wake them (stuck ranks, first 8: \
                             {stuck:?})"
                        );
                    }
                }
                continue;
            };
            let Some(fut) = tasks[task].as_mut() else {
                continue; // woken after completion (e.g. a protocol-path wake)
            };
            // SAFETY: the future lives in a boxed slice that never
            // reallocates, and its `Option` is only ever set to `None`
            // (dropping in place) — never moved out — so the pin holds.
            let fut = unsafe { Pin::new_unchecked(fut) };
            let mut cx = Context::from_waker(&wakers[task]);
            shared.recv_budget.set(recv_poll_budget(n));
            match fut.poll(&mut cx) {
                Poll::Ready(value) => {
                    results[task] = Some(value);
                    tasks[task] = None;
                    remaining -= 1;
                    shared.rank_exited(task);
                }
                Poll::Pending => spurious_polls += 1,
            }
        }

        let elapsed = Duration::from_nanos(shared.now());
        let pool = shared.pool.stats();
        let traffic = WorldTraffic::new(shared.counters.iter().map(CounterCell::take).collect());
        let reactor = ReactorStats {
            wakeups: shared.sched.wakeups.get(),
            spurious_polls,
            timer_cancels: shared.timers.borrow().cancelled(),
            mailbox_spills: shared.lanes.borrow().spills(),
            queued_peak: shared.lanes.borrow().queued_peak(),
        };
        #[allow(
            clippy::expect_used,
            reason = "every task completed (remaining == 0), so every slot is filled"
        )]
        let results: Vec<R> = results
            .into_iter()
            .map(|r| r.expect("task finished without storing a result"))
            .collect();
        WorldOutcome { results, traffic, pool, elapsed, reactor }
    }
}

/// Rank-local communicator handle for the event executor.
///
/// One instance is handed to each rank's future; it is `Clone` (a cheap
/// reference-count bump) so helper tasks and decorators can hold their own.
#[derive(Clone)]
pub struct EventComm {
    rank: Rank,
    shared: Rc<EventShared>,
}

impl EventComm {
    /// Snapshot of this rank's traffic so far (final values are returned in
    /// [`WorldOutcome::traffic`]).
    pub fn traffic(&self) -> TrafficStats {
        self.shared.counters[self.rank].snapshot()
    }

    /// Snapshot of the world-shared buffer pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    /// Eager post: count the send, queue the payload at the destination,
    /// wake it. Never suspends, which is what makes post-then-take exchanges
    /// deadlock-free.
    #[inline]
    fn post_now(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.check_rank(dest)?;
        self.shared.counters[self.rank].record_send(dest, payload.len());
        self.shared.push_envelope(dest, self.rank, tag, payload);
        Ok(())
    }

    /// Build the [`Take`] leaf behind `take` and `exchange`. Errors detected
    /// at build time (invalid rank, or a failed eager post for `exchange`)
    /// are carried in `early_err` and surface on first poll.
    #[inline]
    fn take_now(
        &self,
        early_err: Option<CommError>,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Take<'_> {
        let early_err = early_err.or_else(|| self.check_rank(src).err());
        let deadline_ns = timeout.map(|t| deadline_after(self.shared.now(), t));
        Take { inner: RecvEnvelope::new(self, src, tag, deadline_ns), capacity, early_err }
    }
}

/// Leaf future matching one envelope: checks the queue first (messages from
/// before a peer's exit are drained), then the exited flag, then the
/// virtual-clock deadline — the same priority order as the threaded
/// mailbox's `pop_watch`. Wakes arrive from envelope deliveries to this
/// rank, the watched peer's exit, and the armed timer; each poll re-checks.
///
/// Cancel-safety: completing *or dropping* this future disarms its timer
/// (O(1) on the wheel; a handle whose timer already fired is stale and the
/// cancel is a no-op) and deregisters the targeted-wake watch, so an
/// abandoned receive leaves no reactor state behind.
struct RecvEnvelope<'a> {
    comm: &'a EventComm,
    src: Rank,
    tag: Tag,
    deadline_ns: Option<u64>,
    timer: Option<TimerHandle>,
    watching: bool,
}

impl<'a> RecvEnvelope<'a> {
    fn new(comm: &'a EventComm, src: Rank, tag: Tag, deadline_ns: Option<u64>) -> Self {
        RecvEnvelope { comm, src, tag, deadline_ns, timer: None, watching: false }
    }

    /// Release reactor-side registrations (armed timer, watch entry).
    fn disarm(&mut self) {
        let shared = &self.comm.shared;
        if let Some(handle) = self.timer.take() {
            shared.cancel_timer(handle);
        }
        if self.watching {
            shared.unwatch(self.comm.rank, self.src);
            self.watching = false;
        }
    }
}

impl Future for RecvEnvelope<'_> {
    type Output = Result<Payload>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = &this.comm.shared;
        let me = this.comm.rank;
        let budget = shared.recv_budget.get();
        if budget == 0 {
            // Turn budget spent: requeue ourselves and yield so the other
            // ranks get their slice before this one drains more backlog.
            // The envelope (if any) stays queued — FIFO order is untouched,
            // and the next turn's refilled budget consumes it.
            shared.sched.push(me);
            return Poll::Pending;
        }
        if let Some(data) = shared.try_pop(me, this.src, this.tag) {
            shared.recv_budget.set(budget - 1);
            this.disarm();
            return Poll::Ready(Ok(data));
        }
        if this.src != me && shared.exited[this.src].get() {
            this.disarm();
            return Poll::Ready(Err(CommError::PeerFailed { rank: this.src }));
        }
        if let Some(deadline_ns) = this.deadline_ns {
            if shared.now() >= deadline_ns {
                this.disarm();
                return Poll::Ready(Err(CommError::Timeout { peer: this.src }));
            }
            if this.timer.is_none() {
                this.timer = Some(shared.arm_timer(deadline_ns, me));
            }
        }
        if !this.watching {
            shared.watch(me, this.src);
            this.watching = true;
        }
        Poll::Pending
    }
}

impl Drop for RecvEnvelope<'_> {
    fn drop(&mut self) {
        self.disarm();
    }
}

/// A whole `take` (or the receive half of `exchange`) as one future: match
/// the envelope, check truncation against the declared capacity, record the
/// traffic, and hand the payload over as it arrived — all in the same poll
/// frame. `take` and `exchange` return this directly instead of layering
/// `async fn` state machines over [`RecvEnvelope`], so parking and resuming
/// a receive walks one `poll` instead of a nest of generated ones; at
/// megascale the ring wavefront parks nearly every message, which makes
/// that walk the hot path.
struct Take<'a> {
    inner: RecvEnvelope<'a>,
    capacity: usize,
    /// Error determined before the future was built (invalid rank, failed
    /// eager post half of `exchange`); yielded on first poll.
    early_err: Option<CommError>,
}

impl Future for Take<'_> {
    type Output = Result<Payload>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(err) = this.early_err.take() {
            return Poll::Ready(Err(err));
        }
        let data = match Pin::new(&mut this.inner).poll(cx) {
            Poll::Ready(Ok(data)) => data,
            Poll::Ready(Err(err)) => return Poll::Ready(Err(err)),
            Poll::Pending => return Poll::Pending,
        };
        if data.len() > this.capacity {
            return Poll::Ready(Err(CommError::Truncation {
                capacity: this.capacity,
                incoming: data.len(),
            }));
        }
        let comm = this.inner.comm;
        comm.shared.counters[comm.rank].record_recv(this.inner.src, data.len());
        // The matched payload is handed to the caller as-is — no copy; its
        // eventual drop recycles the rental.
        Poll::Ready(Ok(data))
    }
}

/// Barrier future; see [`BarrierState`]. The first poll registers the
/// arrival (completing the generation if this rank is last); later polls
/// resolve once the generation moved on or a peer departed. A parked wait
/// flags itself in `barrier_parked` so completion and departures wake
/// exactly the waiters; the flag is cleared on resolution and on drop.
struct BarrierWait<'a> {
    comm: &'a EventComm,
    joined_generation: Option<u64>,
}

impl Future for BarrierWait<'_> {
    type Output = Result<()>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = &this.comm.shared;
        let me = this.comm.rank;
        let barrier = &shared.barrier;
        match this.joined_generation {
            None => {
                if let Some(rank) = barrier.departed.get() {
                    return Poll::Ready(Err(CommError::PeerFailed { rank }));
                }
                let arrived = barrier.arrived.get() + 1;
                if arrived == shared.size {
                    barrier.arrived.set(0);
                    barrier.generation.set(barrier.generation.get().wrapping_add(1));
                    shared.wake_barrier_waiters();
                    Poll::Ready(Ok(()))
                } else {
                    barrier.arrived.set(arrived);
                    this.joined_generation = Some(barrier.generation.get());
                    shared.barrier_parked[me].set(true);
                    Poll::Pending
                }
            }
            Some(generation) => {
                if barrier.generation.get() != generation {
                    // Released normally; a later departure affects the next
                    // generation, not this completed one.
                    shared.barrier_parked[me].set(false);
                    Poll::Ready(Ok(()))
                } else if let Some(rank) = barrier.departed.get() {
                    shared.barrier_parked[me].set(false);
                    Poll::Ready(Err(CommError::PeerFailed { rank }))
                } else {
                    shared.barrier_parked[me].set(true);
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for BarrierWait<'_> {
    fn drop(&mut self) {
        self.comm.shared.barrier_parked[self.comm.rank].set(false);
    }
}

impl AsyncCommunicator for EventComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn now_ns(&self) -> u64 {
        self.shared.now()
    }

    async fn barrier(&self) -> Result<()> {
        BarrierWait { comm: self, joined_generation: None }.await
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        // One counted copy stages the user bytes; every post of (a slice
        // of) the result is a refcount bump.
        self.shared.counters[self.rank].record_copy(data.len());
        if data.len() <= HEAP_STAGED_BYTES {
            return SharedBuf::from(data.to_vec());
        }
        SharedBuf::new(self.shared.pool.rent_copy(data))
    }

    fn note_copy(&self, bytes: usize) {
        self.shared.counters[self.rank].record_copy(bytes);
    }

    // The core refines the trait's `async fn` signatures: `post` is ready
    // before it is polled (the envelope is queued at call time), and `take`
    // and `exchange` return the [`Take`] leaf directly, keeping every
    // receive one `poll` deep (see that type's docs). The `#[inline]`s here
    // and on `post_now`/`take_now` are measured, not habit: every caller is
    // generic code in another crate (decorators, the interpreter), and
    // without them a `GuardedComm` exchange cost ~20 ns more — `heal-clean`
    // ran ~20 % slower per broadcast on a 2-core host.

    #[inline]
    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> impl Future<Output = Result<()>> {
        std::future::ready(self.post_now(payload, dest, tag))
    }

    #[inline]
    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> impl Future<Output = Result<Payload>> {
        self.take_now(None, capacity, src, tag, timeout)
    }

    #[inline]
    fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> impl Future<Output = Result<Payload>> {
        // Same order as the trait default: the eager post happens at call
        // time; its failure surfaces from the first poll, before any
        // receive state is consulted.
        let early_err = self.post_now(payload, dest, sendtag).err();
        self.take_now(early_err, capacity, src, recvtag, None)
    }

    /// Nothing to settle: a post is queued at its destination when made.
    #[inline]
    fn flush(&self, _: Option<Duration>) -> impl Future<Output = Result<()>> {
        std::future::ready(Ok(()))
    }

    /// Nothing owed: the executor does not acknowledge.
    #[inline]
    fn acknowledge(&self) -> impl Future<Output = Result<()>> {
        std::future::ready(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn world_of_one_runs() {
        let out = EventWorld::run(1, |comm| async move {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier().await.unwrap();
            7u32
        });
        assert_eq!(out.results, vec![7]);
        assert_eq!(out.traffic.total_msgs(), 0);
    }

    #[test]
    fn pingpong_roundtrip() {
        let out = EventWorld::run(2, |comm| async move {
            let mut buf = [0u8; 4];
            if comm.rank() == 0 {
                comm.send(&[1, 2, 3, 4], 1, Tag(1)).await.unwrap();
                comm.recv(&mut buf, 1, Tag(2)).await.unwrap();
            } else {
                comm.recv(&mut buf, 0, Tag(1)).await.unwrap();
                comm.send(&buf, 0, Tag(2)).await.unwrap();
            }
            buf
        });
        assert_eq!(out.results[0], [1, 2, 3, 4]);
        assert_eq!(out.results[1], [1, 2, 3, 4]);
        assert!(out.traffic.is_balanced());
        assert_eq!(out.traffic.total_msgs(), 2);
        assert_eq!(out.traffic.total_bytes(), 8);
    }

    #[test]
    fn nonovertaking_order_per_pair() {
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 0 {
                for i in 0..100u8 {
                    comm.send(&[i], 1, Tag(0)).await.unwrap();
                }
                vec![]
            } else {
                let mut got = Vec::new();
                let mut buf = [0u8; 1];
                for _ in 0..100 {
                    comm.recv(&mut buf, 0, Tag(0)).await.unwrap();
                    got.push(buf[0]);
                }
                got
            }
        });
        assert_eq!(out.results[1], (0..100u8).collect::<Vec<_>>());
    }

    #[test]
    fn tags_demultiplex() {
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 0 {
                comm.send(&[1], 1, Tag(10)).await.unwrap();
                comm.send(&[2], 1, Tag(20)).await.unwrap();
                (0, 0)
            } else {
                let mut a = [0u8; 1];
                let mut b = [0u8; 1];
                comm.recv(&mut a, 0, Tag(20)).await.unwrap();
                comm.recv(&mut b, 0, Tag(10)).await.unwrap();
                (a[0], b[0])
            }
        });
        assert_eq!(out.results[1], (2, 1));
    }

    #[test]
    fn sendrecv_ring_does_not_deadlock() {
        let n = 8;
        let out = EventWorld::run(n, |comm| async move {
            let right = crate::rank::ring_right(comm.rank(), comm.size());
            let left = crate::rank::ring_left(comm.rank(), comm.size());
            let sbuf = [comm.rank() as u8];
            let mut rbuf = [0u8; 1];
            comm.sendrecv(&sbuf, right, Tag(0), &mut rbuf, left, Tag(0)).await.unwrap();
            rbuf[0] as usize
        });
        for (rank, &got) in out.results.iter().enumerate() {
            assert_eq!(got, crate::rank::ring_left(rank, n));
        }
    }

    #[test]
    fn self_send_loops_back() {
        let out = EventWorld::run(1, |comm| async move {
            comm.send(&[9, 9], 0, Tag(3)).await.unwrap();
            let mut buf = [0u8; 2];
            comm.recv(&mut buf, 0, Tag(3)).await.unwrap();
            buf
        });
        assert_eq!(out.results[0], [9, 9]);
    }

    #[test]
    fn truncation_reported() {
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 0 {
                comm.send(&[0; 16], 1, Tag(0)).await.unwrap();
                Ok(0)
            } else {
                let mut small = [0u8; 4];
                comm.recv(&mut small, 0, Tag(0)).await.map(|_| 0)
            }
        });
        assert_eq!(out.results[1], Err(CommError::Truncation { capacity: 4, incoming: 16 }));
    }

    #[test]
    fn invalid_rank_rejected() {
        let out = EventWorld::run(1, |comm| async move { comm.send(&[], 5, Tag(0)).await });
        assert_eq!(out.results[0], Err(CommError::InvalidRank { rank: 5, size: 1 }));
    }

    #[test]
    fn barrier_synchronizes_all() {
        use std::cell::Cell;
        let arrived = Cell::new(0usize);
        EventWorld::run(6, |comm| {
            let arrived = &arrived;
            async move {
                arrived.set(arrived.get() + 1);
                comm.barrier().await.unwrap();
                assert_eq!(arrived.get(), 6);
            }
        });
    }

    #[test]
    fn barriers_are_reusable_across_generations() {
        EventWorld::run(5, |comm| async move {
            for _ in 0..10 {
                comm.barrier().await.unwrap();
            }
        });
    }

    #[test]
    fn recv_timeout_expires_on_virtual_clock() {
        let out = EventWorld::run(2, |comm| async move {
            let mut buf = [0u8; 1];
            if comm.rank() == 0 {
                let t0 = comm.now_ns();
                let err = comm
                    .recv_timeout(&mut buf, 1, Tag(0), Duration::from_millis(40))
                    .await
                    .unwrap_err();
                // The clock jumped straight to the deadline — no real sleep.
                assert!(comm.now_ns() - t0 >= 40_000_000);
                comm.send(&[0], 1, Tag(1)).await.unwrap();
                err
            } else {
                comm.recv(&mut buf, 0, Tag(1)).await.unwrap();
                CommError::Timeout { peer: 99 } // placeholder
            }
        });
        assert_eq!(out.results[0], CommError::Timeout { peer: 1 });
        // The world's elapsed virtual time is exactly the one deadline jump.
        assert_eq!(out.elapsed, Duration::from_millis(40));
        // The timer genuinely fired: nothing was cancelled.
        assert_eq!(out.reactor.timer_cancels, 0);
    }

    #[test]
    fn recv_timeout_delivers_message_arriving_in_time() {
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 0 {
                comm.send(&[42], 1, Tag(7)).await.unwrap();
                0
            } else {
                let mut buf = [0u8; 1];
                comm.recv_timeout(&mut buf, 0, Tag(7), Duration::from_secs(10)).await.unwrap();
                buf[0]
            }
        });
        assert_eq!(out.results[1], 42);
        // Delivery beat the deadline, so the clock never had to move.
        assert_eq!(out.elapsed, Duration::ZERO);
    }

    #[test]
    fn satisfied_recv_timeout_cancels_its_timer() {
        // Rank 0 parks first (arming its deadline), rank 1 then delivers:
        // the completed receive must disarm the wheel entry on the spot,
        // and the cancelled deadline must never advance the clock.
        let out = EventWorld::run(2, |comm| async move {
            let mut buf = [0u8; 1];
            if comm.rank() == 0 {
                comm.recv_timeout(&mut buf, 1, Tag(0), Duration::from_secs(5)).await.unwrap();
            } else {
                comm.send(&[7], 0, Tag(0)).await.unwrap();
            }
        });
        assert_eq!(out.reactor.timer_cancels, 1);
        assert_eq!(out.elapsed, Duration::ZERO);
    }

    #[test]
    fn reactor_counters_track_scheduler_work() {
        let out = EventWorld::run(2, |comm| async move {
            let mut buf = [0u8; 4];
            if comm.rank() == 0 {
                comm.send(&[1, 2, 3, 4], 1, Tag(1)).await.unwrap();
                comm.recv(&mut buf, 1, Tag(2)).await.unwrap();
            } else {
                comm.recv(&mut buf, 0, Tag(1)).await.unwrap();
                comm.send(&buf, 0, Tag(2)).await.unwrap();
            }
        });
        // Initial speculative polls plus delivery wakes, all deduplicated.
        assert!(out.reactor.wakeups >= 2, "wakeups: {}", out.reactor.wakeups);
        // Rank 0 parks once waiting for the reply.
        assert!(out.reactor.spurious_polls >= 1);
        assert_eq!(out.reactor.timer_cancels, 0);
        assert_eq!(out.reactor.mailbox_spills, 0, "collective tags must stay inline");
    }

    #[test]
    fn wild_tags_are_counted_as_spills_and_still_demultiplex() {
        use crate::event_mailbox::INLINE_TAGS;
        let tags = INLINE_TAGS as u32 + 4;
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 0 {
                for t in 0..tags {
                    comm.send(&[t as u8], 1, Tag(t)).await.unwrap();
                }
            } else {
                let mut buf = [0u8; 1];
                for t in (0..tags).rev() {
                    comm.recv(&mut buf, 0, Tag(t)).await.unwrap();
                    assert_eq!(buf[0], t as u8);
                }
            }
        });
        assert_eq!(out.reactor.mailbox_spills, 4, "tags beyond the inline buckets must spill");
    }

    #[test]
    fn recv_from_exited_rank_fails_instead_of_hanging() {
        let out = EventWorld::run(3, |comm| async move {
            if comm.rank() == 1 {
                return Ok(0); // exits immediately, sends nothing
            }
            let mut buf = [0u8; 1];
            comm.recv(&mut buf, 1, Tag(0)).await.map(|_| 1)
        });
        assert_eq!(out.results[0], Err(CommError::PeerFailed { rank: 1 }));
        assert_eq!(out.results[2], Err(CommError::PeerFailed { rank: 1 }));
    }

    #[test]
    fn messages_sent_before_exit_are_still_delivered() {
        let out = EventWorld::run(2, |comm| async move {
            if comm.rank() == 0 {
                comm.send(&[1], 1, Tag(0)).await.unwrap();
                comm.send(&[2], 1, Tag(0)).await.unwrap();
                vec![]
            } else {
                // Yield until rank 0 has exited, so the deliveries genuinely
                // race the exited flag.
                let mut buf = [0u8; 1];
                while comm.recv_timeout(&mut buf, 0, Tag(1), Duration::from_millis(1)).await.is_ok()
                {
                }
                let mut got = Vec::new();
                for _ in 0..2 {
                    comm.recv(&mut buf, 0, Tag(0)).await.unwrap();
                    got.push(buf[0]);
                }
                assert_eq!(
                    comm.recv(&mut buf, 0, Tag(0)).await.unwrap_err(),
                    CommError::PeerFailed { rank: 0 }
                );
                got
            }
        });
        assert_eq!(out.results[1], vec![1, 2]);
    }

    #[test]
    fn barrier_after_peer_exit_fails_instead_of_hanging() {
        let out = EventWorld::run(3, |comm| async move {
            if comm.rank() == 2 {
                return Ok(());
            }
            comm.barrier().await
        });
        assert_eq!(out.results[0], Err(CommError::PeerFailed { rank: 2 }));
        assert_eq!(out.results[1], Err(CommError::PeerFailed { rank: 2 }));
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            EventWorld::run(2, |comm| async move {
                // Both ranks receive a message nobody will ever send.
                let mut buf = [0u8; 1];
                let _ = comm.recv(&mut buf, 1 - comm.rank(), Tag(0)).await;
            })
        }));
        let payload = res.unwrap_err();
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
    }

    #[test]
    fn panic_in_one_rank_propagates() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            EventWorld::run(3, |comm| async move {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                let mut buf = [0u8; 1];
                let _ = comm.recv(&mut buf, 1, Tag(0)).await;
            })
        }));
        assert!(res.is_err());
    }

    #[test]
    fn now_ns_is_monotone_and_runs_are_deterministic() {
        let run = || {
            EventWorld::run(4, |comm| async move {
                let a = comm.now_ns();
                comm.barrier().await.unwrap();
                let mut buf = [0u8; 1];
                let right = crate::rank::ring_right(comm.rank(), comm.size());
                let left = crate::rank::ring_left(comm.rank(), comm.size());
                comm.sendrecv(&[comm.rank() as u8], right, Tag(0), &mut buf, left, Tag(0))
                    .await
                    .unwrap();
                let b = comm.now_ns();
                assert!(b >= a);
                (buf[0], b)
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.results, b.results);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.reactor, b.reactor, "scheduler work must replay identically");
    }

    #[test]
    fn megascale_fanout_world() {
        // A quick structural check that worlds far beyond thread capacity
        // run: a 2048-rank binomial-style relay where every rank forwards to
        // 2·rank+1 and 2·rank+2.
        let n = 2048;
        let out = EventWorld::run(n, |comm| async move {
            let me = comm.rank();
            let mut buf = [0u8; 8];
            if me != 0 {
                comm.recv(&mut buf, (me - 1) / 2, Tag(1)).await.unwrap();
            }
            for child in [2 * me + 1, 2 * me + 2] {
                if child < comm.size() {
                    comm.send(&buf, child, Tag(1)).await.unwrap();
                }
            }
            me
        });
        assert_eq!(out.traffic.total_msgs(), (n - 1) as u64);
        assert!(out.traffic.is_balanced());
        assert_eq!(out.reactor.mailbox_spills, 0);
        // Targeted wakes: exits must not storm the world with spurious
        // polls — the floor is one park per blocked receive, and the
        // ceiling here allows only a small constant factor over it.
        assert!(
            out.reactor.spurious_polls < 4 * n as u64,
            "exit storm: {} spurious polls for {} ranks",
            out.reactor.spurious_polls,
            n
        );
    }
}
