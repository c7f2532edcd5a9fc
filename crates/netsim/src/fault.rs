//! Deterministic fault injection for communicator stacks.
//!
//! A [`FaultPlan`] is a pure function from `(seed, src, dst, k)` — the k-th
//! message ever offered on the directed link `src → dst` — to a
//! [`FaultAction`]. Decisions are derived with the in-tree SplitMix64
//! generator, so a plan is replayed *identically* from its seed on any
//! executor: the decision depends only on per-link message ordinals, which
//! are program-order deterministic on each rank, never on wall-clock timing
//! or thread scheduling.
//!
//! [`FaultyComm`] applies a plan as a decorator over any
//! [`AsyncCommunicator`]: it drops, duplicates, or holds back outgoing messages
//! and fail-stops the rank after a planned number of operations. Stack it
//! under [`mpsim::ReliableComm`] to exercise the retransmission machinery,
//! or alone to exercise the self-healing collectives' crash recovery.
//!
//! Injection happens at the *send side* of the decorated rank, which keeps
//! the fabric/mailbox layers fault-free and identical across executors. The
//! decorator assumes an eager-ish transport (sends complete without the
//! receiver): dropping a rendezvous send would otherwise block the sender
//! forever. The threaded backend is always eager; simulated worlds should
//! use a model with a high `eager_threshold` when injecting drops.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use mpsim::{AsyncCommunicator, CommError, Payload, Rank, Result, SharedBuf, Tag};
use testkit::rng::{Rng, SplitMix64};

/// What happens to one message offered on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message goes through untouched.
    Deliver,
    /// The message silently disappears.
    Drop,
    /// The message is delivered twice.
    Duplicate,
    /// The message is held back and overtaken by the next message on the
    /// same `(destination, tag)` channel — a bounded reorder, which is also
    /// how a latency spike manifests at message granularity.
    Delay,
}

/// Per-link fault probabilities, in parts per million of messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Probability a message is dropped.
    pub drop_ppm: u32,
    /// Probability a message is duplicated.
    pub dup_ppm: u32,
    /// Probability a message is delayed past its successor.
    pub delay_ppm: u32,
}

impl LinkFaults {
    /// A link that never misbehaves.
    pub const NONE: LinkFaults = LinkFaults { drop_ppm: 0, dup_ppm: 0, delay_ppm: 0 };

    /// Combined misbehavior probability — zero means the link is clean.
    pub fn total(&self) -> u32 {
        self.drop_ppm + self.dup_ppm + self.delay_ppm
    }
}

/// A seeded, deterministic schedule of faults for one world.
///
/// Clone-cheap (`Arc` inside); every rank's [`FaultyComm`] shares one plan.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

#[derive(Debug, Clone)]
struct PlanInner {
    seed: u64,
    default: LinkFaults,
    per_link: HashMap<(Rank, Rank), LinkFaults>,
    /// rank → number of communication operations after which it fail-stops.
    crash_after: HashMap<Rank, u64>,
}

impl FaultPlan {
    /// A plan with no faults at all, replayable from `seed` once faults are
    /// added with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                default: LinkFaults::NONE,
                per_link: HashMap::new(),
                crash_after: HashMap::new(),
            }),
        }
    }

    /// The seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    fn make_mut(&mut self) -> &mut PlanInner {
        // Builder-time only; plans are never mutated once shared.
        Arc::make_mut(&mut self.inner)
    }

    /// Apply `faults` to every link without a per-link override.
    pub fn with_default(mut self, faults: LinkFaults) -> Self {
        self.make_mut().default = faults;
        self
    }

    /// Override the fault rates of the directed link `src → dst`.
    pub fn with_link(mut self, src: Rank, dst: Rank, faults: LinkFaults) -> Self {
        self.make_mut().per_link.insert((src, dst), faults);
        self
    }

    /// Fail-stop `rank` after it has performed `after_ops` communication
    /// operations (sends, receives, and barriers all count).
    pub fn with_crash(mut self, rank: Rank, after_ops: u64) -> Self {
        self.make_mut().crash_after.insert(rank, after_ops);
        self
    }

    /// The operation count at which `rank` fail-stops, if planned.
    pub fn crash_after(&self, rank: Rank) -> Option<u64> {
        self.inner.crash_after.get(&rank).copied()
    }

    /// Every planned crash as `(rank, after_ops)`, in rank order — the
    /// read side of [`FaultPlan::with_crash`], used by plan mutators.
    pub fn crashes(&self) -> Vec<(Rank, u64)> {
        let mut all: Vec<(Rank, u64)> =
            self.inner.crash_after.iter().map(|(&r, &a)| (r, a)).collect();
        all.sort_unstable();
        all
    }

    /// The fault rates governing the directed link `src → dst`.
    pub fn link(&self, src: Rank, dst: Rank) -> LinkFaults {
        // A plan without overrides, the common case, costs no hashing.
        let per_link = &self.inner.per_link;
        let custom = (!per_link.is_empty()).then(|| per_link.get(&(src, dst))).flatten();
        custom.copied().unwrap_or(self.inner.default)
    }

    /// Decide the fate of the `k`-th message offered on `src → dst`.
    ///
    /// Pure in `(seed, src, dst, k)`: the same call returns the same action
    /// on every executor and every replay.
    pub fn decide(&self, src: Rank, dst: Rank, k: u64) -> FaultAction {
        let faults = self.link(src, dst);
        if faults.total() == 0 {
            return FaultAction::Deliver;
        }
        let mixed = self.inner.seed
            ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ k.wrapping_mul(0x1656_67B1_9E37_79F9);
        let roll = SplitMix64::new(mixed).gen_index(1_000_000) as u32;
        if roll < faults.drop_ppm {
            FaultAction::Drop
        } else if roll < faults.drop_ppm + faults.dup_ppm {
            FaultAction::Duplicate
        } else if roll < faults.total() {
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }
}

/// A held-back message and its `(dst, tag)` channel.
type Held = ((Rank, u32), Vec<u8>);

/// Destinations per page of a [`LinkTable`].
const LINK_PAGE: usize = 64;

/// Messages offered so far per destination rank: `pages[dst / 64][dst %
/// 64]`, a page allocated when one of its ranks is first sent to. Two loads
/// per message, and a rank that sends to a few peers of a large world keeps
/// a few pages, not a counter per rank of the world.
#[derive(Default)]
struct LinkTable {
    pages: Vec<Option<Box<[u64; LINK_PAGE]>>>,
}

impl LinkTable {
    /// The ordinal of the next message to `dst`, counted.
    fn next(&mut self, dst: Rank) -> u64 {
        if self.pages.len() <= dst / LINK_PAGE {
            self.pages.resize_with(dst / LINK_PAGE + 1, || None);
        }
        let page = self.pages[dst / LINK_PAGE].get_or_insert_with(|| Box::new([0; LINK_PAGE]));
        let k = page[dst % LINK_PAGE];
        page[dst % LINK_PAGE] = k + 1;
        k
    }
}

/// An [`AsyncCommunicator`] decorator that injects the faults of a
/// [`FaultPlan`]. Decisions are drawn from per-link ordinals and the crash
/// clock counts operations, so a plan replays bit-identically on every
/// executor (the blocking ones enter through [`mpsim::SyncComm`]).
///
/// Send-side faults (drop, duplicate, delay) are applied to this rank's
/// outgoing messages; a planned crash makes every operation after the
/// threshold fail with [`CommError::PeerFailed`] naming this rank itself, so
/// the rank's closure can return early — exactly the observable behavior of
/// a fail-stop process. Peers then detect the silence through timeouts or
/// the backend's exited-rank detector.
///
/// Link faults target payload-bearing messages only: sends on the
/// reliability layer's reserved acknowledgement range
/// ([`mpsim::reliable::ACK_TAG_BASE`]) pass through un-faulted, modelling a
/// reliable control plane (see `draw` for why the reliability layer needs
/// this).
///
/// Per-message work is a fixed handful of loads, no hashing: the crash
/// threshold is read from the plan once, at construction, and the link
/// table ([`LinkTable`]) holds the messages offered so far per destination
/// rank in pages of 64 counters. A destination outside the world is on no
/// link: it draws nothing, indexes nothing, and the wrapped communicator
/// refuses it. A delivery with nothing held back posts straight through;
/// the other fates are boxed out of the common path. Held-back messages sit
/// in a list kept in `(dst, tag)` order, which a barrier flushes in, and
/// which is empty unless the plan delays.
pub struct FaultyComm<'a, C: ?Sized> {
    inner: &'a C,
    plan: FaultPlan,
    /// Messages offered so far per outgoing link (the `k` of the plan).
    link_seq: RefCell<LinkTable>,
    /// Held-back message per `(dst, tag)` channel awaiting its successor,
    /// in channel order.
    holdback: RefCell<Vec<Held>>,
    /// Operations after which this rank fail-stops; `u64::MAX` for never.
    crash_at: u64,
    /// Communication operations performed so far (crash clock).
    ops: Cell<u64>,
    /// Whether the planned fail-stop has fired.
    dead: Cell<bool>,
}

impl<'a, C: AsyncCommunicator + ?Sized> FaultyComm<'a, C> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: &'a C, plan: FaultPlan) -> Self {
        FaultyComm {
            inner,
            crash_at: plan.crash_after(inner.rank()).unwrap_or(u64::MAX),
            plan,
            link_seq: RefCell::new(LinkTable::default()),
            holdback: RefCell::new(Vec::new()),
            ops: Cell::new(0),
            dead: Cell::new(false),
        }
    }
}

impl<C: ?Sized> FaultyComm<'_, C> {
    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        self.inner
    }

    /// Whether this rank's planned fail-stop has fired.
    pub fn crashed(&self) -> bool {
        self.dead.get()
    }

    /// Remove and return the held-back message on `(dst, tag)`, if any.
    fn take_holdback(&self, dst: Rank, tag: Tag) -> Option<Vec<u8>> {
        let mut held = self.holdback.borrow_mut();
        let at = held.binary_search_by_key(&(dst, tag.0), |&(key, _)| key).ok()?;
        Some(held.remove(at).1)
    }

    /// Stash a delayed message on `(dst, tag)`, returning the previously
    /// held one (which its overtaker has now released).
    fn stash_holdback(&self, dst: Rank, tag: Tag, data: Vec<u8>) -> Option<Vec<u8>> {
        let mut held = self.holdback.borrow_mut();
        match held.binary_search_by_key(&(dst, tag.0), |&(key, _)| key) {
            Ok(at) => Some(std::mem::replace(&mut held[at].1, data)),
            Err(at) => {
                held.insert(at, ((dst, tag.0), data));
                None
            }
        }
    }

    /// The held-back message of the first channel, removed.
    fn pop_holdback(&self) -> Option<Held> {
        let mut held = self.holdback.borrow_mut();
        (!held.is_empty()).then(|| held.remove(0))
    }
}

impl<C: AsyncCommunicator + ?Sized> FaultyComm<'_, C> {
    /// Count one operation against the crash clock; once the planned
    /// threshold is reached the rank is dead to the world.
    fn tick(&self) -> Result<()> {
        let done = self.ops.get();
        self.ops.set(done + 1);
        if done >= self.crash_at {
            self.dead.set(true);
            return Err(CommError::PeerFailed { rank: self.inner.rank() });
        }
        Ok(())
    }

    /// Deliver a previously held-back message on `(dst, tag)`, if any.
    async fn flush_holdback(&self, dst: Rank, tag: Tag) -> Result<()> {
        match self.take_holdback(dst, tag) {
            Some(data) => self.inner.send(&data, dst, tag).await,
            None => Ok(()),
        }
    }

    /// The plan's decision for the next envelope offered on `(dest, tag)`,
    /// or `None` for an envelope on no link: one to a rank outside the
    /// world, which the wrapped communicator refuses, or one of the
    /// reliability layer's pure acknowledgements. Those ride a reserved
    /// control-tag range and model a tiny, assumed-reliable control plane.
    /// A `ReliableComm` receiver sends what it owes when it flushes and may
    /// then leave, and nothing re-acks a retransmission after that, so a
    /// lost *ack* would strand a sender that the protocol has, in fact,
    /// delivered for. Crash faults (the caller's `tick`) still apply; link
    /// faults target payload-bearing sends.
    fn draw(&self, dest: Rank, tag: Tag) -> Option<FaultAction> {
        if tag.0 >= mpsim::reliable::ACK_TAG_BASE || dest >= self.inner.size() {
            return None;
        }
        let k = self.link_seq.borrow_mut().next(dest);
        Some(self.plan.decide(self.inner.rank(), dest, k))
    }

    /// Apply `action` to an envelope on `(dest, tag)` and release the
    /// message it overtakes, if one is held back. Boxed by its one caller:
    /// a delivery with nothing held back, nearly every envelope, posts
    /// straight through and carries none of this future's state.
    async fn misbehave(
        &self,
        action: FaultAction,
        payload: Payload,
        dest: Rank,
        tag: Tag,
    ) -> Result<()> {
        match action {
            FaultAction::Deliver => self.inner.post(payload, dest, tag).await?,
            // The message vanishes, but an earlier held-back one still
            // becomes deliverable (the "drop" consumed its overtaker).
            FaultAction::Drop => {}
            FaultAction::Duplicate => {
                let (first, second) = twin(payload);
                self.inner.post(first, dest, tag).await?;
                self.inner.post(second, dest, tag).await?;
            }
            // Hold the message until the next send on this channel
            // overtakes it. At most one message per channel is in
            // holdback: a second delay decision flushes the first.
            FaultAction::Delay => {
                return match self.stash_holdback(dest, tag, payload.bytes().into()) {
                    Some(data) => self.inner.send(&data, dest, tag).await,
                    None => Ok(()),
                };
            }
        }
        self.flush_holdback(dest, tag).await
    }
}

/// Two handles on one payload for a duplicated delivery: refcount clones,
/// after a unique rental is made shareable.
fn twin(payload: Payload) -> (Payload, Payload) {
    match payload {
        Payload::Prefixed(prefix, body) => {
            (Payload::Prefixed(prefix, body.clone()), Payload::Prefixed(prefix, body))
        }
        flat => {
            let body = flat.into_shared();
            (Payload::Shared(body.clone()), Payload::Shared(body))
        }
    }
}

/// Send-side faults on `post`, the crash clock on every core call: a
/// provided method costs the crash clock exactly its core calls, so a
/// seeded plan replays identically whichever variant the stack above runs.
impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for FaultyComm<'_, C> {
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
        self.tick()?;
        // A barrier is a synchronization point: anything still held back
        // must arrive before it, or "delayed" would mean "lost across
        // phases", which is a drop, not a delay.
        while let Some(((dst, tag), data)) = self.pop_holdback() {
            self.inner.send(&data, dst, Tag(tag)).await?;
        }
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    /// Deliver, drop, duplicate or hold back the envelope as the plan
    /// draws. A duplicate is a refcount clone of the payload; a held-back
    /// one is snapshotted as its wire image and later re-sent as plain
    /// bytes.
    async fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> Result<()> {
        self.tick()?;
        match self.draw(dest, tag) {
            Some(FaultAction::Deliver) if self.holdback.borrow().is_empty() => {}
            Some(action) => return Box::pin(self.misbehave(action, payload, dest, tag)).await,
            None => {}
        }
        self.inner.post(payload, dest, tag).await
    }

    async fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Payload> {
        self.tick()?;
        self.inner.take(capacity, src, tag, timeout).await
    }

    /// Forwarded without a tick: settling is not an operation of the plan,
    /// so no crash point moves with it.
    async fn flush(&self, within: Option<Duration>) -> Result<()> {
        self.inner.flush(within).await
    }

    /// Forwarded without a tick, like [`flush`](Self::flush).
    async fn acknowledge(&self) -> Result<()> {
        self.inner.acknowledge().await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{complete_now, Communicator, EventWorld, SyncComm, ThreadWorld};

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let faults = LinkFaults { drop_ppm: 200_000, dup_ppm: 100_000, delay_ppm: 100_000 };
        let a = FaultPlan::new(42).with_default(faults);
        let b = FaultPlan::new(42).with_default(faults);
        let c = FaultPlan::new(43).with_default(faults);
        let seq =
            |p: &FaultPlan| -> Vec<FaultAction> { (0..256).map(|k| p.decide(0, 1, k)).collect() };
        assert_eq!(seq(&a), seq(&b), "same seed must replay the same plan");
        assert_ne!(seq(&a), seq(&c), "different seeds must differ");
    }

    #[test]
    fn decision_rates_roughly_match_ppm() {
        let faults = LinkFaults { drop_ppm: 250_000, dup_ppm: 250_000, delay_ppm: 0 };
        let plan = FaultPlan::new(7).with_default(faults);
        let n = 10_000u64;
        let mut drops = 0;
        let mut dups = 0;
        for k in 0..n {
            match plan.decide(3, 5, k) {
                FaultAction::Drop => drops += 1,
                FaultAction::Duplicate => dups += 1,
                _ => {}
            }
        }
        // 25% ± 5% over 10k trials
        assert!((2000..3000).contains(&drops), "drops: {drops}");
        assert!((2000..3000).contains(&dups), "dups: {dups}");
    }

    #[test]
    fn per_link_overrides_beat_default() {
        let plan = FaultPlan::new(1).with_default(LinkFaults::NONE).with_link(
            0,
            1,
            LinkFaults { drop_ppm: 1_000_000, dup_ppm: 0, delay_ppm: 0 },
        );
        assert_eq!(plan.decide(0, 1, 0), FaultAction::Drop);
        assert_eq!(plan.decide(1, 0, 0), FaultAction::Deliver);
        assert_eq!(plan.decide(0, 2, 12), FaultAction::Deliver);
    }

    #[test]
    fn drop_suppresses_delivery() {
        let plan = FaultPlan::new(9).with_link(
            0,
            1,
            LinkFaults { drop_ppm: 1_000_000, dup_ppm: 0, delay_ppm: 0 },
        );
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let faulty = FaultyComm::new(&acomm, plan.clone());
            if comm.rank() == 0 {
                complete_now(faulty.send(&[1u8; 4], 1, Tag(0))).unwrap(); // dropped
                comm.send(&[2u8; 4], 1, Tag(0)).unwrap(); // bypasses the plan
                0
            } else {
                let mut buf = [0u8; 4];
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
                buf[0] as usize
            }
        });
        // the receiver's first (and only) message is the undecorated one
        assert_eq!(out.results[1], 2);
    }

    #[test]
    fn a_send_to_a_rank_outside_the_world_is_the_inner_comms_error() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let faulty = FaultyComm::new(&acomm, FaultPlan::new(9));
            [2, usize::MAX].map(|dest| complete_now(faulty.send(&[1u8; 4], dest, Tag(0))))
        });
        for sent in out.results {
            assert_eq!(
                sent,
                [
                    Err(CommError::InvalidRank { rank: 2, size: 2 }),
                    Err(CommError::InvalidRank { rank: usize::MAX, size: 2 }),
                ]
            );
        }
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan::new(9).with_link(
            0,
            1,
            LinkFaults { drop_ppm: 0, dup_ppm: 1_000_000, delay_ppm: 0 },
        );
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let faulty = FaultyComm::new(&acomm, plan.clone());
            if comm.rank() == 0 {
                complete_now(faulty.send(&[5u8; 4], 1, Tag(0))).unwrap();
                0
            } else {
                let mut buf = [0u8; 4];
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
                let first = buf[0];
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
                (first + buf[0]) as usize
            }
        });
        assert_eq!(out.results[1], 10);
    }

    #[test]
    fn delay_reorders_within_tag_and_barrier_flushes() {
        let plan = FaultPlan::new(9).with_link(
            0,
            1,
            LinkFaults { drop_ppm: 0, dup_ppm: 0, delay_ppm: 1_000_000 },
        );
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let faulty = FaultyComm::new(&acomm, plan.clone());
            if comm.rank() == 0 {
                // every send is "delayed": msg A is held, msg B replaces it
                // in holdback and A goes out, then the barrier flushes B.
                complete_now(faulty.send(&[b'A'; 1], 1, Tag(0))).unwrap();
                complete_now(faulty.send(&[b'B'; 1], 1, Tag(0))).unwrap();
                complete_now(faulty.barrier()).unwrap();
                vec![]
            } else {
                let mut buf = [0u8; 1];
                let mut got = vec![];
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
                got.push(buf[0]);
                comm.barrier().unwrap();
                comm.recv(&mut buf, 0, Tag(0)).unwrap();
                got.push(buf[0]);
                got
            }
        });
        assert_eq!(out.results[1], vec![b'A', b'B']);
    }

    /// Every communication method of the trait, as the crash clock sees it.
    #[derive(Debug, Clone, Copy)]
    enum Method {
        Send,
        Recv,
        RecvTimeout,
        Sendrecv,
        SendShared,
        RecvOwned,
        SendrecvShared,
        SendPrefixed,
        RecvPrefixed,
        Barrier,
    }

    impl Method {
        const ALL: [Method; 10] = [
            Method::Send,
            Method::Recv,
            Method::RecvTimeout,
            Method::Sendrecv,
            Method::SendShared,
            Method::RecvOwned,
            Method::SendrecvShared,
            Method::SendPrefixed,
            Method::RecvPrefixed,
            Method::Barrier,
        ];

        /// The core calls the method is made of: its ticks on the clock.
        fn core_calls(self) -> u64 {
            match self {
                Method::Sendrecv | Method::SendrecvShared => 2,
                _ => 1,
            }
        }

        /// Whether the method takes an envelope rank 0 has to post.
        fn receives(self) -> bool {
            !matches!(
                self,
                Method::Send | Method::SendShared | Method::SendPrefixed | Method::Barrier
            )
        }

        /// Call the method once on `c`, with rank 0 as the peer.
        async fn call<C: AsyncCommunicator + ?Sized>(self, c: &C) -> Result<()> {
            let (mut buf, tag) = ([0u8; 8], Tag(0));
            let staged = c.make_shared(&[1u8; 8]);
            match self {
                Method::Send => c.send(&[1u8; 8], 0, tag).await,
                Method::Recv => c.recv(&mut buf, 0, tag).await.map(drop),
                Method::RecvTimeout => {
                    c.recv_timeout(&mut buf, 0, tag, Duration::from_secs(5)).await.map(drop)
                }
                Method::Sendrecv => c.sendrecv(&[1u8; 8], 0, tag, &mut buf, 0, tag).await.map(drop),
                Method::SendShared => c.send_shared(&staged, 0, tag).await,
                Method::RecvOwned => c.recv_owned(8, 0, tag).await.map(drop),
                Method::SendrecvShared => {
                    c.sendrecv_shared(&staged, 0, tag, 8, 0, tag).await.map(drop)
                }
                Method::SendPrefixed => c.send_prefixed([1; 4], &staged, 0, tag).await,
                Method::RecvPrefixed => c.recv_prefixed(4, 0, tag, None).await.map(drop),
                Method::Barrier => c.barrier().await,
            }
        }
    }

    /// Rank 1 calls `method` through a `FaultyComm` planned to crash after
    /// exactly the method's core calls: the first call succeeds having
    /// advanced the clock by that many ticks, the second fails the rank.
    async fn crash_after_one_call<C: AsyncCommunicator + ?Sized>(comm: &C, method: Method) {
        if comm.rank() == 0 {
            if method.receives() {
                comm.send(&[2u8; 8], 1, Tag(0)).await.unwrap();
            }
            if matches!(method, Method::Barrier) {
                comm.barrier().await.unwrap();
            }
            return;
        }
        let faulty = FaultyComm::new(comm, FaultPlan::new(3).with_crash(1, method.core_calls()));
        method.call(&faulty).await.unwrap();
        assert_eq!(
            (faulty.ops.get(), faulty.crashed()),
            (method.core_calls(), false),
            "{method:?}"
        );
        let err = method.call(&faulty).await.unwrap_err();
        assert_eq!(err, CommError::PeerFailed { rank: 1 }, "{method:?}");
        assert!(faulty.crashed(), "{method:?}");
    }

    #[test]
    fn crash_fails_operations_after_threshold() {
        for method in Method::ALL {
            ThreadWorld::run(2, |comm| {
                complete_now(crash_after_one_call(&SyncComm::new(comm), method))
            });
            EventWorld::run(2, |comm| async move { crash_after_one_call(&comm, method).await });
        }
    }

    #[test]
    fn crash_replays_identically_on_the_simulator() {
        use crate::{NetworkModel, Placement, SimWorld};
        let run = || {
            let plan = FaultPlan::new(11).with_crash(1, 1);
            let mut m = NetworkModel::uniform(10.0, 1.0);
            m.eager_threshold = usize::MAX;
            SimWorld::run(m, Placement::new(4), 2, move |comm| {
                let acomm = SyncComm::new(comm);
                let faulty = FaultyComm::new(&acomm, plan.clone());
                if comm.rank() == 1 {
                    let mut buf = [0u8; 1];
                    complete_now(faulty.recv(&mut buf, 0, Tag(0))).unwrap();
                    complete_now(faulty.recv(&mut buf, 0, Tag(0))).is_err()
                } else {
                    complete_now(faulty.send(&[0], 1, Tag(0))).unwrap();
                    true
                }
            })
            .results
        };
        assert_eq!(run(), vec![true, true]);
        assert_eq!(run(), run());
    }
}
