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
use std::future::Future;
use std::sync::Arc;

use mpsim::{AsyncCommunicator, CommError, Rank, Result, Tag};
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

    /// Remove the planned crash of `rank`, if any — the shrinking
    /// counterpart of [`FaultPlan::with_crash`].
    pub fn without_crash(mut self, rank: Rank) -> Self {
        self.make_mut().crash_after.remove(&rank);
        self
    }

    /// The fault rates applied to links without a per-link override — the
    /// read side of [`FaultPlan::with_default`].
    pub fn default_faults(&self) -> LinkFaults {
        self.inner.default
    }

    /// The fault rates governing the directed link `src → dst`.
    pub fn link(&self, src: Rank, dst: Rank) -> LinkFaults {
        self.inner.per_link.get(&(src, dst)).copied().unwrap_or(self.inner.default)
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
/// reliable control plane (see `inject` for why a synchronous reliability
/// layer needs this).
pub struct FaultyComm<'a, C: ?Sized> {
    inner: &'a C,
    plan: FaultPlan,
    /// Messages offered so far per outgoing link (the `k` of the plan).
    link_seq: RefCell<HashMap<Rank, u64>>,
    /// Held-back message per `(dst, tag)` channel awaiting its successor.
    holdback: RefCell<HashMap<(Rank, u32), Vec<u8>>>,
    /// Communication operations performed so far (crash clock).
    ops: Cell<u64>,
    /// Whether the planned fail-stop has fired.
    dead: Cell<bool>,
}

impl<'a, C: ?Sized> FaultyComm<'a, C> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: &'a C, plan: FaultPlan) -> Self {
        FaultyComm {
            inner,
            plan,
            link_seq: RefCell::new(HashMap::new()),
            holdback: RefCell::new(HashMap::new()),
            ops: Cell::new(0),
            dead: Cell::new(false),
        }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        self.inner
    }

    /// Whether this rank's planned fail-stop has fired.
    pub fn crashed(&self) -> bool {
        self.dead.get()
    }

    fn next_link_seq(&self, dst: Rank) -> u64 {
        let mut seqs = self.link_seq.borrow_mut();
        let k = seqs.entry(dst).or_insert(0);
        let cur = *k;
        *k += 1;
        cur
    }

    /// Remove and return the held-back message on `(dst, tag)`, if any.
    fn take_holdback(&self, dst: Rank, tag: Tag) -> Option<Vec<u8>> {
        self.holdback.borrow_mut().remove(&(dst, tag.0))
    }

    /// Stash a delayed message on `(dst, tag)`, returning the previously
    /// held one (which its overtaker has now released).
    fn stash_holdback(&self, dst: Rank, tag: Tag, data: Vec<u8>) -> Option<Vec<u8>> {
        self.holdback.borrow_mut().insert((dst, tag.0), data)
    }

    /// All channels with a message currently in holdback.
    fn pending_holdbacks(&self) -> Vec<(Rank, u32)> {
        self.holdback.borrow().keys().copied().collect()
    }
}

impl<C: AsyncCommunicator + ?Sized> FaultyComm<'_, C> {
    /// Count one operation against the crash clock; once the planned
    /// threshold is reached the rank is dead to the world.
    fn tick(&self) -> Result<()> {
        let me = self.inner.rank();
        let done = self.ops.get();
        self.ops.set(done + 1);
        match self.plan.crash_after(me) {
            Some(limit) if done >= limit => {
                self.dead.set(true);
                Err(CommError::PeerFailed { rank: me })
            }
            _ => Ok(()),
        }
    }

    /// Deliver a previously held-back message on `(dst, tag)`, if any.
    async fn flush_holdback(&self, dst: Rank, tag: Tag) -> Result<()> {
        match self.take_holdback(dst, tag) {
            Some(data) => self.inner.send(&data, dst, tag).await,
            None => Ok(()),
        }
    }

    /// Apply the plan to one outgoing envelope on `(dest, tag)`, after the
    /// caller has ticked the crash clock: draw the link's next decision and
    /// deliver, drop, duplicate or hold back accordingly. `transmit` puts
    /// the envelope on the wire in the caller's own form (plain, shared,
    /// prefixed); `snapshot` copies its wire image for the holdback buffer and
    /// runs only on a delay decision.
    async fn inject<Fut: Future<Output = Result<()>>>(
        &self,
        dest: Rank,
        tag: Tag,
        transmit: impl Fn() -> Fut,
        snapshot: impl FnOnce() -> Vec<u8>,
    ) -> Result<()> {
        // The reliability layer's pure acknowledgements ride a reserved
        // control-tag range and model a tiny, assumed-reliable control
        // plane: a synchronous `ReliableComm` (no background progress
        // engine) cannot re-ack a retransmission once the receiver has
        // moved on, so a lost *ack* would strand a sender that the
        // protocol has, in fact, delivered for. Crash faults (the caller's
        // `tick`) still apply; link faults target payload-bearing sends.
        if tag.0 >= mpsim::reliable::ACK_TAG_BASE {
            return transmit().await;
        }
        let k = self.next_link_seq(dest);
        match self.plan.decide(self.inner.rank(), dest, k) {
            FaultAction::Deliver => {
                transmit().await?;
                self.flush_holdback(dest, tag).await
            }
            // The message vanishes, but an earlier held-back one still
            // becomes deliverable (the "drop" consumed its overtaker).
            FaultAction::Drop => self.flush_holdback(dest, tag).await,
            FaultAction::Duplicate => {
                transmit().await?;
                transmit().await?;
                self.flush_holdback(dest, tag).await
            }
            // Hold the message until the next send on this channel
            // overtakes it. At most one message per channel is in
            // holdback: a second delay decision flushes the first.
            FaultAction::Delay => match self.stash_holdback(dest, tag, snapshot()) {
                Some(data) => self.inner.send(&data, dest, tag).await,
                None => Ok(()),
            },
        }
    }
}

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

    fn check_rank(&self, rank: Rank) -> Result<()> {
        self.inner.check_rank(rank)
    }

    async fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.tick()?;
        self.inject(dest, tag, || self.inner.send(buf, dest, tag), || buf.to_vec()).await
    }

    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        self.tick()?;
        self.inner.recv(buf, src, tag).await
    }

    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: std::time::Duration,
    ) -> Result<usize> {
        self.tick()?;
        self.inner.recv_timeout(buf, src, tag, timeout).await
    }

    async fn sendrecv(
        &self,
        sendbuf: &[u8],
        dest: Rank,
        sendtag: Tag,
        recvbuf: &mut [u8],
        src: Rank,
        recvtag: Tag,
    ) -> Result<usize> {
        // Counted and fault-injected as one send plus one receive.
        self.send(sendbuf, dest, sendtag).await?;
        self.recv(recvbuf, src, recvtag).await
    }

    async fn barrier(&self) -> Result<()> {
        self.tick()?;
        // A barrier is a synchronization point: anything still held back
        // must arrive before it, or "delayed" would mean "lost across
        // phases", which is a drop, not a delay.
        for (dst, tag) in self.pending_holdbacks() {
            self.flush_holdback(dst, Tag(tag)).await?;
        }
        self.inner.barrier().await
    }

    // The zero-copy surface forwards natively so a fault-decorated stack
    // keeps refcounted envelopes all the way down to the executor. Each
    // method ticks the crash clock and draws per-link decisions exactly
    // like its copying twin, so a seeded plan replays identically whether
    // the collective above runs the copy or the zero-copy path.

    fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    async fn send_shared(&self, buf: &mpsim::SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.tick()?;
        // A delayed envelope degrades to the copying holdback buffer — the
        // sender may mutate its source after send_shared returns, so the
        // held-back bytes must be snapshotted now.
        self.inject(dest, tag, || self.inner.send_shared(buf, dest, tag), || buf.to_vec()).await
    }

    async fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<mpsim::SharedBuf> {
        self.tick()?;
        self.inner.recv_owned(capacity, src, tag).await
    }

    async fn recv_owned_timeout(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: std::time::Duration,
    ) -> Result<mpsim::SharedBuf> {
        self.tick()?;
        self.inner.recv_owned_timeout(capacity, src, tag, timeout).await
    }

    async fn sendrecv_shared(
        &self,
        sendbuf: &mpsim::SharedBuf,
        dest: Rank,
        sendtag: Tag,
        recv_capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<mpsim::SharedBuf> {
        // Counted and fault-injected as one send plus one receive, exactly
        // like `sendrecv`.
        self.send_shared(sendbuf, dest, sendtag).await?;
        self.recv_owned(recv_capacity, src, recvtag).await
    }

    async fn send_prefixed(
        &self,
        prefix: [u8; 4],
        payload: &mpsim::SharedBuf,
        dest: Rank,
        tag: Tag,
    ) -> Result<()> {
        self.tick()?;
        // The hold-back snapshot is the wire image, `prefix ‖ payload`; its
        // plain re-send splits back into the same two parts at the receiver.
        self.inject(
            dest,
            tag,
            || self.inner.send_prefixed(prefix, payload, dest, tag),
            || [&prefix[..], &payload[..]].concat(),
        )
        .await
    }

    async fn recv_prefixed(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<std::time::Duration>,
    ) -> Result<Option<([u8; 4], mpsim::SharedBuf)>> {
        self.tick()?;
        self.inner.recv_prefixed(capacity, src, tag, timeout).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld};

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

    #[test]
    fn crash_fails_operations_after_threshold() {
        let plan = FaultPlan::new(3).with_crash(1, 2);
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let faulty = FaultyComm::new(&acomm, plan.clone());
            if comm.rank() == 1 {
                let mut buf = [0u8; 1];
                complete_now(faulty.recv(&mut buf, 0, Tag(0))).unwrap(); // op 0
                complete_now(faulty.recv(&mut buf, 0, Tag(0))).unwrap(); // op 1
                assert!(!faulty.crashed());
                let err = complete_now(faulty.recv(&mut buf, 0, Tag(0))).unwrap_err(); // op 2: dead
                assert!(faulty.crashed());
                assert_eq!(err, CommError::PeerFailed { rank: 1 });
                1
            } else {
                comm.send(&[0], 1, Tag(0)).unwrap();
                comm.send(&[0], 1, Tag(0)).unwrap();
                // the third message is never consumed; eager send still works
                comm.send(&[0], 1, Tag(0)).unwrap();
                0
            }
        });
        assert_eq!(out.results, vec![0, 1]);
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
