//! Self-healing broadcast: timeout-guarded execution, failure agreement,
//! and degraded-ring recovery on the surviving ranks.
//!
//! The tuned scatter–ring broadcast, like every static-schedule collective,
//! hangs if a participant dies mid-ring: its neighbors wait forever on a
//! `sendrecv` that can never match. This module turns that hang into
//! detection and recovery:
//!
//! 1. **Guarded attempt** — the broadcast runs over a [`GuardedComm`], which
//!    bounds every receive with a deadline, and an [`EpochComm`], which
//!    shifts all tags by the attempt number so retries can never match stale
//!    messages from a failed attempt. A dead neighbor surfaces as
//!    [`CommError::Timeout`] or — when the backend's exited-rank detector
//!    fires first — [`CommError::PeerFailed`].
//! 2. **Agreement** — first a *dissemination quorum*: two passes of
//!    `⌈log₂n⌉` rounds, one two-byte send and one receive per rank per round,
//!    AND-reducing "I hold the full payload" (pass 1) and "my pass 1 came out
//!    true" (pass 2) over the current members. A rank whose pass 2 comes out
//!    true knows everyone is complete *and* that everyone knows it, and heals
//!    on the spot: a fault-free epoch costs `2·n·⌈log₂n⌉` frames, not
//!    `n·(n−1)`. Anything else — a member without the payload, a silent or
//!    late partner, a diverged membership — only ever turns a rank's
//!    conjunction false, and a false conjunction runs the *leader stages*:
//!    every member sends its one-byte report (a "payload complete" bit) to
//!    the lowest member, the leader proposes the verdict `V` (who reported,
//!    who of them is full), and a second quorum over `V`'s live members
//!    confirms that everyone holds the same `V`. The leader may only drop a
//!    member on *exit evidence* (its receive failed with `PeerFailed` naming
//!    that member); any doubt — a timeout, a garbled report — makes it
//!    abstain, and whenever the stages do not settle the epoch, the
//!    *pairwise round* decides: every surviving rank sends its report to
//!    every other current member, then collects the peers' reports under a
//!    generous heartbeat deadline. Membership is decided by exit evidence
//!    or by this exchange *alone*: an attempt-time timeout is only a stall
//!    symptom (a live neighbor of a dead rank stalls too), but a rank that
//!    misses the heartbeat deadline — sized to cover the worst-case attempt
//!    cascade plus every stage in front of it — is dead under the fail-stop
//!    assumption (below), so every live rank computes the same verdict. (A
//!    rank whose pass 1 was true but whose pass 2 was not still runs the
//!    pairwise round for its peers' benefit, then heals with "nobody dead":
//!    every member reported a complete payload, and others may already have
//!    committed and left. The confirm quorum has its own version of the
//!    same case: such a rank sends its report and adopts the proposal.)
//! 3. **Degraded rerun** — the broadcast reruns from the root (or, if it
//!    died, the lowest-ranked survivor holding the full payload), over a
//!    [`SubComm`] of that root plus the survivors the verdict did *not* mark
//!    full: a survivor that already holds the payload sits the rerun out and
//!    rejoins at the agreement (the paper's rule — never send a rank what it
//!    already holds — applied to whole payloads). The binomial-scatter
//!    `(step, flag)` schedule is re-derived over that smaller world simply
//!    by running the same algorithm at the smaller size. The loop repeats
//!    until every survivor holds the payload or the epoch budget is
//!    exhausted. (With [`RecoveryConfig::bounded_sendrecv`] every survivor
//!    reruns, as it always did.)
//!
//! The matching *symbolic* schedule of a degraded rerun is available from
//! [`degraded_bcast_schedule`] for any member list — the rerun's is the
//! root plus the survivors without the payload — so `schedcheck` verifies
//! the regenerated ring exactly like the full-world one.
//!
//! ## Fault model
//!
//! Recovery assumes **fail-stop** processes and a **reliable timeout
//! oracle**: a rank that fails stays silent forever (no Byzantine
//! behavior), and the heartbeat deadline is long enough that a live rank is
//! never mistaken for dead. A false suspicion does not corrupt data — the
//! falsely-excluded rank returns [`CommError::PeerFailed`] naming itself
//! and the survivors still complete — but it does shrink the world more
//! than necessary. Message *loss* between live ranks is the job of
//! [`mpsim::ReliableComm`], stacked underneath; this module only handles
//! silence.
//!
//! Like everything timeout-based, [`GuardedComm`] decomposes `sendrecv`
//! into an eager send followed by a bounded receive, so the transport must
//! deliver eagerly (the threaded backend always does; simulated worlds
//! need a model with a high `eager_threshold`).
//!
//! ## One loop, every executor
//!
//! The whole stack — decorators, agreement round, epoch loop — is written
//! once against [`AsyncCommunicator`], so it runs unchanged on the
//! discrete-event executor at megascale (`P = 256..4096`) under its virtual
//! clock, where every timeout is free: a heartbeat deadline of seconds
//! elapses in zero wall time. The blocking entry points
//! ([`self_healing_bcast`], [`self_healing_bcast_with`]) drive the same
//! futures through [`SyncComm`] + [`complete_now`], so a seeded fault plan
//! replays to the identical survivor set on every executor (asserted by the
//! cross-executor chaos battery).
//!
//! * **Cascading multi-failure recovery.** Crashes that land *during* an
//!   agreement round or mid-degraded-schedule simply surface as the next
//!   epoch's deaths: membership-digest tag isolation ([`membership_digest`])
//!   keeps verdict-split groups from corrupting each other, and agreement
//!   self-crash detection keeps a dying rank from poisoning its own verdict.
//!   Root-succession chains of any depth fall out of iterating the same
//!   succession rule.
//! * **Tracing.** Every run can record a [`RecoveryTrace`] — epochs
//!   entered, succession chain, deaths observed, branch bits — which is the
//!   coverage signal `chaos-search` steers by and the megascale tests
//!   assert on.

use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::time::Duration;

use mpsim::{
    complete_now, deadline_after, AsyncCommunicator, CommError, Communicator, Payload, Rank,
    Result, SharedBuf, SubComm, SyncComm, Tag,
};

use crate::bcast::{bcast_ops, bcast_with_async, Algorithm};
use crate::schedule::{renumber, Schedule};

/// Tag offset between broadcast attempts: epoch `e` runs its collective on
/// `Tag(t + e · EPOCH_TAG_STRIDE)`, so a retry can never match a stale
/// message from an earlier, partially-failed attempt.
pub const EPOCH_TAG_STRIDE: u32 = 0x100;

/// Base tag of the per-epoch agreement (heartbeat/report) round.
pub const AGREEMENT_TAG_BASE: u32 = 0xA100;

/// Shift granularity of the membership digest inside an attempt's tag: the
/// digest occupies bits 12 and up, above every user tag (< `0x100`), the
/// epoch shift of every epoch below [`MAX_EPOCHS`] (`epoch · 0x100`), and
/// the whole agreement range (`0xA100..≈0xB100`), and below
/// [`mpsim::reliable::DATA_TAG_BASE`] so the reliability layer's rebasing
/// can never push an attempt tag into its reserved acknowledgement range.
pub const MEMBERSHIP_DIGEST_SHIFT: u32 = 12;

/// The largest epoch budget whose attempt tags cannot alias: from epoch
/// `MAX_EPOCHS` on, the epoch shift reaches the digest page, and epoch
/// `MAX_EPOCHS` with digest `d` shifts tags exactly like epoch 0 with digest
/// `d + 1` — a rerun could match stale envelopes of the first attempt.
/// [`self_healing_bcast`] refuses a larger [`RecoveryConfig::max_epochs`].
pub const MAX_EPOCHS: u32 = (1 << MEMBERSHIP_DIGEST_SHIFT) / EPOCH_TAG_STRIDE;

/// Digest of a member list, folded into every *attempt* tag (never the
/// agreement tag) by [`EpochComm::isolated`].
///
/// A crash that lands *during* an agreement round can split the verdict:
/// peers the victim already answered believe it alive, later peers see it
/// dead, and the two groups enter the next epoch with member lists that
/// differ by the victim — and therefore with different degraded schedules.
/// Without isolation the groups' same-epoch messages cross-match with
/// mismatched chunk geometry and corrupt payloads. With the digest in the
/// tag, a rank only ever matches attempt traffic from peers that agree on
/// the membership, so a split epoch stalls cleanly into timeouts and the
/// *next* agreement round re-converges (the victim is silent for everyone
/// by then). Agreement tags stay digest-free on purpose — the diverged
/// groups must still heartbeat each other to re-converge.
pub fn membership_digest(members: &[Rank]) -> u32 {
    // FNV-1a over the member ranks, folded to a 12-bit page well clear of
    // the low pages (user + epoch + agreement tags all sit below 0xB2xx).
    0x10 + (fnv1a(members.iter().flat_map(|&m| (m as u32).to_le_bytes())) % 0xFE0)
}

/// 32-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u32 {
    bytes.into_iter().fold(0x811C_9DC5, |h, b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// Tuning knobs for [`self_healing_bcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Deadline for each receive inside a broadcast attempt — the failure
    /// detector's resolution. Too short and slow ranks are suspected; too
    /// long and recovery is sluggish.
    pub step_timeout: Duration,
    /// Maximum number of attempts (first try included) before giving up; at
    /// most [`MAX_EPOCHS`].
    pub max_epochs: u32,
    /// Set when the communicator's own `sendrecv` already returns
    /// [`CommError::Timeout`] on its own (e.g. [`mpsim::ReliableComm`],
    /// whose ack pump has a bounded attempt budget). [`GuardedComm`] then
    /// delegates `sendrecv` instead of decomposing it — decomposition
    /// would wedge the reliability layer's pump, because a blocking
    /// acknowledged send cannot drain incoming data frames.
    pub bounded_sendrecv: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            step_timeout: Duration::from_millis(250),
            max_epochs: 4,
            bounded_sendrecv: false,
        }
    }
}

impl RecoveryConfig {
    /// The heartbeat deadline: the leader's window for reading reports, and
    /// the unit of the other agreement deadlines (a member waits two for
    /// the proposal, the pairwise round four per report). A live member may
    /// still be stuck in the failed attempt when its peers start collecting
    /// heartbeats: with every receive bounded by one step-timeout, a stalled
    /// attempt drains in at most `scatter depth + ring steps` timeouts
    /// (< 2·members), so twice that plus slack covers the entry skew into
    /// the agreement.
    fn heartbeat_timeout(&self, members: usize) -> Duration {
        self.step_timeout.saturating_mul(2 * members as u32 + 6)
    }

    /// The pairwise round's per-report deadline: one heartbeat deadline for
    /// the entry skew it always had to cover, plus the lag the leader stages
    /// can add in front of it. A rank can reach the pairwise round straight
    /// after the first quorum (its pass 1 was true, or its leader is gone)
    /// while a peer first waits out a proposal (≤ 2 heartbeats, see
    /// [`agree`]) and a confirm quorum (`2·⌈log₂n⌉` receives of
    /// `2·step_timeout`, under one more heartbeat for every `n`): four
    /// heartbeats in all.
    fn pairwise_timeout(&self, members: usize) -> Duration {
        self.heartbeat_timeout(members).saturating_mul(4)
    }
}

/// What a successful [`self_healing_bcast`] reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Healed {
    /// The ranks (world numbering) on which the broadcast completed.
    pub survivors: Vec<Rank>,
    /// Number of attempts performed; `1` means no fault was observed.
    pub epochs: u32,
}

/// Tag-shifting decorator: runs an unmodified collective in a private tag
/// epoch so concurrent or stale traffic on other epochs cannot interfere.
pub struct EpochComm<'a, C: ?Sized> {
    inner: &'a C,
    shift: u32,
}

impl<'a, C: ?Sized> EpochComm<'a, C> {
    /// Wrap `inner`, shifting every tag by `epoch · EPOCH_TAG_STRIDE`.
    pub fn new(inner: &'a C, epoch: u32) -> Self {
        EpochComm { inner, shift: epoch.wrapping_mul(EPOCH_TAG_STRIDE) }
    }

    /// Wrap `inner`, shifting every tag by the epoch *and* a membership
    /// digest, so attempts over diverged member lists can never exchange
    /// data (see [`membership_digest`]).
    pub fn isolated(inner: &'a C, epoch: u32, digest: u32) -> Self {
        EpochComm {
            inner,
            shift: epoch
                .wrapping_mul(EPOCH_TAG_STRIDE)
                .wrapping_add(digest << MEMBERSHIP_DIGEST_SHIFT),
        }
    }

    fn shifted(&self, tag: Tag) -> Tag {
        Tag(tag.0.wrapping_add(self.shift))
    }
}

/// Pure forwarding: each call returns the inner communicator's future
/// itself, so the shift costs no state machine of its own per envelope
/// (the recovery stack wraps every envelope of an attempt).
impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for EpochComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn barrier(&self) -> impl Future<Output = Result<()>> {
        self.inner.barrier()
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> impl Future<Output = Result<()>> {
        self.inner.post(payload, dest, self.shifted(tag))
    }

    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> impl Future<Output = Result<Payload>> {
        self.inner.take(capacity, src, self.shifted(tag), timeout)
    }

    fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> impl Future<Output = Result<Payload>> {
        let (sendtag, recvtag) = (self.shifted(sendtag), self.shifted(recvtag));
        self.inner.exchange(payload, dest, sendtag, capacity, src, recvtag)
    }
}

/// Deadline-guarding decorator: every [`AsyncCommunicator::take`] is
/// bounded by a fixed step deadline, so a silent peer surfaces as
/// [`CommError::Timeout`] instead of a hang.
///
/// `exchange` (and with it `sendrecv`) is decomposed into an eager post
/// followed by a bounded take — correct only on eagerly-delivering
/// transports (see the [module docs](self)).
pub struct GuardedComm<'a, C: ?Sized> {
    inner: &'a C,
    step_timeout: Duration,
    passthrough_sendrecv: bool,
}

impl<'a, C: ?Sized> GuardedComm<'a, C> {
    /// Wrap `inner` with a per-receive deadline of `step_timeout`.
    pub fn new(inner: &'a C, step_timeout: Duration) -> Self {
        GuardedComm { inner, step_timeout, passthrough_sendrecv: false }
    }

    /// Delegate `exchange` to the inner communicator instead of
    /// decomposing it. Only sound when the inner `exchange` cannot block
    /// forever on a dead peer — see
    /// [`RecoveryConfig::bounded_sendrecv`].
    pub fn passthrough_sendrecv(mut self) -> Self {
        self.passthrough_sendrecv = true;
        self
    }
}

/// Forwarding like [`EpochComm`]'s, except the decomposed `exchange`.
impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for GuardedComm<'_, C> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn barrier(&self) -> impl Future<Output = Result<()>> {
        self.inner.barrier()
    }

    fn make_shared(&self, data: &[u8]) -> SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    fn post(&self, payload: Payload, dest: Rank, tag: Tag) -> impl Future<Output = Result<()>> {
        self.inner.post(payload, dest, tag)
    }

    /// Every take is bounded: an unbounded one by the step deadline, a
    /// bounded one by the tighter of the two.
    fn take(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> impl Future<Output = Result<Payload>> {
        let bound = timeout.map_or(self.step_timeout, |t| t.min(self.step_timeout));
        self.inner.take(capacity, src, tag, Some(bound))
    }

    async fn exchange(
        &self,
        payload: Payload,
        dest: Rank,
        sendtag: Tag,
        capacity: usize,
        src: Rank,
        recvtag: Tag,
    ) -> Result<Payload> {
        if self.passthrough_sendrecv {
            return self.inner.exchange(payload, dest, sendtag, capacity, src, recvtag).await;
        }
        // Eager post, step-bounded take — sound only on eagerly-delivering
        // transports.
        self.inner.post(payload, dest, sendtag).await?;
        self.inner.take(capacity, src, recvtag, Some(self.step_timeout)).await
    }
}

/// One rank's state after an attempt, exchanged in the agreement round.
#[derive(Clone, Copy)]
struct Report {
    has_full: bool,
}

impl Report {
    fn encode(&self) -> [u8; 1] {
        [u8::from(self.has_full)]
    }

    fn decode(bytes: &[u8]) -> Option<Report> {
        match bytes {
            [b @ (0 | 1)] => Some(Report { has_full: *b == 1 }),
            _ => None,
        }
    }
}

/// Outcome of one agreement round, identical on every live member (unless a
/// crash lands mid-round — see [`membership_digest`] for how that split is
/// contained).
struct Verdict {
    dead: BTreeSet<Rank>,
    have_full: BTreeSet<Rank>,
}

impl Verdict {
    /// "Nobody dead, everybody full" over `members`.
    fn everyone_full(members: &[Rank]) -> Verdict {
        Verdict { dead: BTreeSet::new(), have_full: members.iter().copied().collect() }
    }
}

/// The leader's proposed verdict `V`: the members whose report it read
/// (`live`) and those of them that hold the payload (`full`), kept in its
/// wire form — a `1` byte followed by the two world-rank bitmaps. A lone `0`
/// byte is the abstain frame, which (like anything else that does not
/// decode) sends the receiver to the pairwise round.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Proposal {
    frame: Vec<u8>,
}

impl Proposal {
    /// The abstain frame.
    const ABSTAIN: [u8; 1] = [0];
    /// Which bitmap [`Proposal::has`] reads.
    const LIVE: usize = 0;
    const FULL: usize = 1;

    /// Wire length of a proposal in a world of `world` ranks.
    fn frame_len(world: usize) -> usize {
        1 + 2 * world.div_ceil(8)
    }

    /// `V` in a world of `world` ranks over the `(rank, has_full)` reports
    /// the leader read (its own included).
    fn new(world: usize, reports: impl Iterator<Item = (Rank, bool)>) -> Proposal {
        let words = world.div_ceil(8);
        let mut frame = vec![0u8; Self::frame_len(world)];
        frame[0] = 1;
        for (r, has_full) in reports {
            frame[1 + r / 8] |= 1 << (r % 8);
            if has_full {
                frame[1 + words + r / 8] |= 1 << (r % 8);
            }
        }
        Proposal { frame }
    }

    /// `None` for the abstain frame and for anything garbled: a wrong
    /// length or marker byte, a bit past the world, or a full rank that is
    /// not live.
    fn decode(frame: &[u8], world: usize) -> Option<Proposal> {
        if frame.len() != Self::frame_len(world) || frame[0] != 1 {
            return None;
        }
        let (live, full) = frame[1..].split_at(world.div_ceil(8));
        let spare_bits = 8 * live.len() - world;
        let in_world = live.last().is_none_or(|&b| b.leading_zeros() as usize >= spare_bits);
        let full_is_live = live.iter().zip(full).all(|(l, f)| f & !l == 0);
        (in_world && full_is_live).then(|| Proposal { frame: frame.to_vec() })
    }

    /// Bytes per bitmap.
    fn words(&self) -> usize {
        (self.frame.len() - 1) / 2
    }

    /// Whether bitmap `set` ([`Proposal::LIVE`] or [`Proposal::FULL`])
    /// holds rank `r`.
    fn has(&self, set: usize, r: Rank) -> bool {
        let words = self.words();
        r / 8 < words && self.frame[1 + set * words + r / 8] & (1 << (r % 8)) != 0
    }

    /// The live members, ascending.
    fn live(&self) -> Vec<Rank> {
        (0..8 * self.words()).filter(|&r| self.has(Self::LIVE, r)).collect()
    }

    /// The confirm quorum's seal: every frame carries it, so members
    /// holding different proposals cannot confirm each other.
    fn seal(&self) -> [u8; 4] {
        fnv1a(self.frame.iter().copied()).to_le_bytes()
    }

    /// `V` as this epoch's verdict over `members` (a superset of `live`).
    fn verdict(&self, members: &[Rank]) -> Verdict {
        let dead = members.iter().copied().filter(|&r| !self.has(Self::LIVE, r)).collect();
        let have_full = members.iter().copied().filter(|&r| self.has(Self::FULL, r)).collect();
        Verdict { dead, have_full }
    }
}

/// Recovery branch bits, recorded in [`RecoveryTrace::branches`]. The set of
/// bits a run lights up is part of the chaos-search coverage signal: a fault
/// plan that reaches a new combination is interesting by definition.
pub mod branch {
    /// An attempt completed cleanly on this rank.
    pub const CLEAN_ATTEMPT: u32 = 1 << 0;
    /// An attempt stalled (timeout / peer failure) on this rank.
    pub const STALLED_ATTEMPT: u32 = 1 << 1;
    /// Healed with nobody newly dead and every member holding the payload.
    pub const HEALED_ALL: u32 = 1 << 2;
    /// Healed because every *remaining* member already held the payload.
    pub const HEALED_SURVIVORS: u32 = 1 << 3;
    /// An agreement round declared at least one member dead.
    pub const DEATH_OBSERVED: u32 = 1 << 4;
    /// The root role moved to a successor.
    pub const ROOT_SUCCESSION: u32 = 1 << 5;
    /// No surviving member held a complete payload: unrecoverable.
    pub const PAYLOAD_LOST: u32 = 1 << 6;
    /// The epoch budget ran out before the world converged.
    pub const EPOCH_BUDGET_EXHAUSTED: u32 = 1 << 7;
    /// This rank's own communicator fail-stopped.
    pub const SELF_CRASH: u32 = 1 << 8;
    /// A garbled report was treated as a peer death.
    pub const GARBLED_REPORT: u32 = 1 << 9;
}

/// What one rank's recovery run did, step by step — the coverage signal the
/// chaos search steers by, and the observability surface the megascale
/// tests assert on.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryTrace {
    /// Epochs entered (attempt + agreement pairs), including the first.
    pub epochs_entered: u32,
    /// Number of times the root role moved (`root_chain.len() - 1`).
    pub succession_depth: u32,
    /// The root chain, starting at the caller-supplied root.
    pub root_chain: Vec<Rank>,
    /// Distinct members this rank's verdicts declared dead, cumulatively.
    pub deaths_observed: usize,
    /// Union of [`branch`] bits hit.
    pub branches: u32,
}

impl RecoveryTrace {
    /// Record a [`branch`] bit.
    pub fn hit(&mut self, bit: u32) {
        self.branches |= bit;
    }

    /// Whether a [`branch`] bit was hit.
    pub fn saw(&self, bit: u32) -> bool {
        self.branches & bit != 0
    }
}

/// Deliberate-regression knobs for the chaos-search drill: each knob
/// re-introduces a recovery bug the invariant checker must catch, proving
/// the adversarial search has teeth (the moral equivalent of the schedcheck
/// models' mutation knobs). Production callers pass
/// [`RecoveryDrill::NONE`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryDrill {
    /// Report `has_full = true` regardless of attempt outcome. A rank
    /// without the payload can then win root succession and broadcast
    /// garbage — the byte-identical-payload invariant catches it.
    pub claim_full_payload: bool,
    /// Never move the root role. A dead root then stays the designated
    /// source and the degraded schedule cannot be built — recovery dies
    /// instead of healing.
    pub skip_root_succession: bool,
    /// Cap the epoch budget below the configured one, starving cascades —
    /// the liveness invariant (enough budget ⇒ every live rank heals)
    /// catches it.
    pub clamp_epoch_budget: Option<u32>,
}

impl RecoveryDrill {
    /// No deliberate regression: the production configuration.
    pub const NONE: RecoveryDrill = RecoveryDrill {
        claim_full_payload: false,
        skip_root_succession: false,
        clamp_epoch_budget: None,
    };
}

/// What a dissemination quorum established on this rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Quorum {
    /// Pass 2 came out true: every member's input was true *and* every
    /// member's pass 1 said so. Nothing is left to agree on.
    Committed,
    /// Pass 1 came out true but pass 2 did not: every member's input was
    /// true, yet some peer may not have learned it — and others may already
    /// have committed and left.
    Known,
    /// Pass 1 came out false: somebody's input was false, or somebody is
    /// silent, late, or sealed its frames for another membership/proposal.
    Open,
}

/// Offsets of an epoch's agreement tags from its base. A report travels on
/// `PAIRWISE` whether the leader or the pairwise round reads it, so both
/// read the same per-`(src, tag)` FIFO.
const PAIRWISE: u32 = 0;
/// The first (membership) quorum.
const QUORUM: u32 = 1;
/// The leader's proposal or abstain frame.
const PROPOSAL: u32 = 2;
/// The confirm quorum over a proposal's live members.
const CONFIRM: u32 = 3;

/// Tag `offset` of epoch `epoch`'s agreement traffic.
fn agreement_tag(epoch: u32, offset: u32) -> Tag {
    Tag(AGREEMENT_TAG_BASE.wrapping_add(epoch.wrapping_mul(EPOCH_TAG_STRIDE)).wrapping_add(offset))
}

/// AND-reduce `input` over `members` by Bruck dissemination, twice: pass 1
/// folds `input`, pass 2 folds "my pass 1 came out true". Each pass is
/// `⌈log₂n⌉` rounds of one `[conjunction, seal…]` frame sent to the member
/// `dist` positions ahead and one received from the member `dist` behind,
/// `dist = 1, 2, 4, … < n`, so after a pass the conjunction covers every
/// member. [`agree`] runs it twice per failed epoch: first over the members
/// with "I hold the full payload" sealed by the membership digest's low byte
/// (two-byte frames), then over a proposal's live members with "I hold this
/// proposal" sealed by the proposal's hash (five-byte frames).
///
/// The conjunction can only ever turn *false*: a `0` frame, a timeout, a
/// failed or garbled partner, or a frame carrying another seal all clear
/// it. A rank whose conjunction is false stops receiving but still sends
/// every remaining round of both passes, so the falsehood reaches everyone
/// in at most `2·⌈log₂n⌉` hops and nobody waits on it. Hence on a lossless
/// fabric a `Committed` rank and an `Open` one never coexist among the live
/// members: an `Open` rank's zeros would have reached the committer. All
/// rounds share one tag: a pass's distances are distinct sources, and
/// per-`(src, tag)` FIFO orders pass 1 before pass 2 from the same source.
///
/// Receives are bounded by `2 · step_timeout`, *not* the heartbeat deadline,
/// so a whole quorum takes at most `4·⌈log₂n⌉` step timeouts — under one
/// heartbeat deadline for every `n`. Safety never depends on the bound — a
/// false timeout costs a later stage, never a wrong verdict — so it only
/// has to exceed the entry skew of a clean attempt. It has to stay this
/// small because the later stages are sound only while a live peer lags by
/// less than their deadlines: a rank that fell through at once must not
/// wait them out on a peer still sitting in a quorum timeout.
async fn quorum<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    tag: Tag,
    seal: &[u8],
    input: bool,
    cfg: &RecoveryConfig,
) -> Result<Quorum> {
    let me = comm.rank();
    let n = members.len();
    let Some(idx) = members.iter().position(|&m| m == me) else {
        return Ok(Quorum::Open);
    };
    let bound = cfg.step_timeout.saturating_mul(2);

    // Seals are one or four bytes; a longer frame surfaces as `Truncation`.
    let len = 1 + seal.len();
    let mut out = [0u8; 5];
    out[1..len].copy_from_slice(seal);
    let mut acc = input;
    let mut known = false;
    let mut frame = [0u8; 5];
    for pass in 0..2 {
        let mut dist = 1;
        while dist < n {
            let ahead = members[(idx + dist) % n];
            let behind = members[(idx + n - dist) % n];
            out[0] = u8::from(acc);
            let heard = match comm.send(&out[..len], ahead, tag).await {
                Ok(()) if acc => comm
                    .recv_timeout(&mut frame, behind, tag, bound)
                    .await
                    .map(|got| got == len && frame[0] == 1 && frame[1..len] == *seal),
                Ok(()) => Ok(false),
                Err(e) => Err(e),
            };
            acc = match heard {
                Ok(all_true) => all_true,
                // Our own communicator fail-stopped: same rule as the
                // pairwise round below.
                Err(CommError::PeerFailed { rank }) if rank == me => {
                    return Err(CommError::PeerFailed { rank: me });
                }
                Err(
                    CommError::Timeout { .. }
                    | CommError::PeerFailed { .. }
                    | CommError::Truncation { .. },
                ) => false,
                Err(e) => return Err(e),
            };
            dist <<= 1;
        }
        if pass == 0 {
            known = acc;
        }
    }
    Ok(match (acc, known) {
        (true, _) => Quorum::Committed,
        (false, true) => Quorum::Known,
        (false, false) => Quorum::Open,
    })
}

/// A peer's report as some stage of the agreement read it: a decoded
/// report, `Ok(None)` for a garbled one, or the receive's error.
type Heard = Result<Option<Report>>;

/// Agree on who is alive and who holds the payload after epoch `epoch`'s
/// attempt. Up to four stages, each only when the ones before it did not
/// settle the epoch:
///
/// 1. **Membership quorum** ([`quorum`]) — `2·⌈log₂n⌉` two-byte frames per
///    rank. If it commits, every member holds the payload and knows that
///    everyone does: the verdict is "nobody dead, everybody full" without a
///    single report. A fault-free epoch ends here.
/// 2. **Report and propose** — every member sends its one-byte [`Report`] to
///    the leader, the lowest member, on the pairwise tag. The leader reads
///    them in member order under one heartbeat deadline and sends every
///    member it heard from the [`Proposal`] `V`: who reported (`live`) and
///    who of them is full. The leader drops a member from `live` only on
///    *exit evidence* — the receive failed with `PeerFailed` naming that
///    member, which the backends report only once the rank has left the
///    world with nothing queued. A timeout, a garbled or an overlong report
///    makes it abstain instead (a garbled one also lights
///    [`branch::GARBLED_REPORT`]); the abstain frame sends everyone to the
///    pairwise round, where the garbled peer is counted dead.
/// 3. **Confirm quorum** — the members holding `V` run [`quorum`] again over
///    `V`'s live members, sealed with a hash of `V`. `Committed`: every live
///    member holds this `V`; adopt it. `Known`: every live member holds it,
///    but some may not know that, and others may already have adopted it
///    and left; send this rank's report to every live member (a peer that
///    fell through to the pairwise round needs it) and adopt `V` *without
///    waiting on anyone* — waiting would make this rank lag the adopters
///    into the next epoch by several deadlines, and they would count it
///    dead there. `Open` (or no `V` at all): stage 4.
/// 4. **Pairwise round** — every member exchanges its report with every
///    other member; a member is dead iff it fails this exchange. The
///    fail-stop assumption plus the backends' definitive exited-rank
///    detection make the outcome identical on every live member — a dead
///    rank fails *everyone's* exchange, and the deadline
///    ([`RecoveryConfig::pairwise_timeout`]) is sized so a live rank never
///    does. The leader does not wait for a second report from a peer it
///    already heard from in stage 2: it reuses that outcome.
///
/// Why adopting `V` is safe: a live member missing from `V` is impossible
/// (exit evidence), a `Committed` and an `Open` confirmer never coexist (see
/// [`quorum`]), and a `Known` confirmer's report reaches every `Open` one.
/// So either every live member adopts `V`, or the adopters (`Known`) and the
/// pairwise round differ only by ranks that crashed during the confirm —
/// which the next epoch's agreement removes.
///
/// Deadlines, measured from entering stage 2: the leader reads for one
/// heartbeat; a member waits two heartbeats for `V`, which covers the
/// leader's read plus an entry skew of less than one heartbeat (the skew the
/// heartbeat always had to cover); the confirm quorum takes less than one
/// more. A rank can enter the pairwise round straight after stage 1 while a
/// peer still runs stages 2–3, so its deadline is four heartbeats.
///
/// One case sits between stage 1 and the rest: the membership quorum's
/// pass 1 came out true on this rank but pass 2 did not (a peer crashed or
/// stalled between its pass-2 sends). Pass 2 can only come out true
/// *anywhere* if every member's pass 1 was true, so other members may
/// already have committed and left. This rank skips stages 2–3 (as the
/// leader it sends the abstain frame, so nobody waits on it; otherwise its
/// first pairwise report goes to the leader, the lowest member, and doubles
/// as its stage-2 report, so the leader never drops it) and still runs the
/// pairwise round in full — peers that also fell through need its
/// report — but then returns "nobody dead, everybody full" regardless of who
/// answered: every member reported a complete payload this epoch, so a peer
/// that has gone silent since has either healed and exited or crashed
/// holding the payload. Counting it dead would heal this rank in the same
/// epoch *without* ranks that healed in it — a lossless split-brain.
///
/// The pairwise exchange visits peers in ascending member order, which is
/// deadlock-free for pairwise exchanges: the globally smallest unfinished
/// pair is always each other's current partner (each rank only moves past
/// a peer once that pair is done), so someone always progresses. With
/// [`RecoveryConfig::bounded_sendrecv`] stages 1–3 are skipped and the
/// roundtrip uses the reliable layer's self-bounding `sendrecv` pump — an
/// eager send followed by a bounded receive (which is all the quorum is)
/// would wedge an acknowledged-send layer, whose `send` cannot complete
/// until the peer actively receives.
async fn agree<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    epoch: u32,
    mine: &Report,
    cfg: &RecoveryConfig,
    trace: &mut RecoveryTrace,
) -> Result<Verdict> {
    let digest8 = [membership_digest(members) as u8];
    let known = !cfg.bounded_sendrecv
        && match quorum(comm, members, agreement_tag(epoch, QUORUM), &digest8, mine.has_full, cfg)
            .await?
        {
            Quorum::Committed => return Ok(Verdict::everyone_full(members)),
            Quorum::Known => true,
            Quorum::Open => false,
        };
    // Boxed: a clean epoch never gets here, and keeping the later stages
    // out of this future keeps every rank task of a clean run small.
    Box::pin(settle(comm, members, epoch, mine, known, cfg, trace)).await
}

/// Stages 2–4 of [`agree`]; `known` says the membership quorum came out
/// [`Quorum::Known`] on this rank.
async fn settle<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    epoch: u32,
    mine: &Report,
    known: bool,
    cfg: &RecoveryConfig,
    trace: &mut RecoveryTrace,
) -> Result<Verdict> {
    let me = comm.rank();
    let mut heard = BTreeMap::new();
    if cfg.bounded_sendrecv {
        return pairwise(comm, members, epoch, mine, cfg, &heard, trace).await;
    }
    // `members` is ascending: it starts as `0..size` and only ever shrinks
    // by `retain`.
    let leader = members[0];
    if known {
        if me == leader {
            let peers = members.iter().copied().filter(|&r| r != me);
            tell(comm, peers, &Proposal::ABSTAIN, agreement_tag(epoch, PROPOSAL)).await?;
        }
        pairwise(comm, members, epoch, mine, cfg, &heard, trace).await?;
        return Ok(Verdict::everyone_full(members));
    }
    let proposal = if me == leader {
        propose(comm, members, epoch, mine, cfg, &mut heard, trace).await?
    } else {
        follow(comm, leader, members, epoch, mine, cfg).await?
    };
    if let Some(v) = proposal {
        let live = v.live();
        match quorum(comm, &live, agreement_tag(epoch, CONFIRM), &v.seal(), true, cfg).await? {
            Quorum::Committed => return Ok(v.verdict(members)),
            Quorum::Known => {
                let peers = live.iter().copied().filter(|&r| r != me);
                tell(comm, peers, &mine.encode(), agreement_tag(epoch, PAIRWISE)).await?;
                return Ok(v.verdict(members));
            }
            Quorum::Open => {}
        }
    }
    pairwise(comm, members, epoch, mine, cfg, &heard, trace).await
}

/// Send `frame` to every rank of `peers` on `tag`, best effort: a peer that
/// is gone is simply not told. Only this rank's own crash stops the loop.
async fn tell<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    peers: impl Iterator<Item = Rank>,
    frame: &[u8],
    tag: Tag,
) -> Result<()> {
    let me = comm.rank();
    for peer in peers {
        match comm.send(frame, peer, tag).await {
            Err(CommError::PeerFailed { rank }) if rank == me => {
                return Err(CommError::PeerFailed { rank: me });
            }
            Ok(()) | Err(CommError::PeerFailed { .. } | CommError::Timeout { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The leader's side of stage 2: read every member's report under one
/// heartbeat deadline, recording each outcome in `heard` for the pairwise
/// round, then send `V` to every live member — or, at the first doubt, the
/// abstain frame to every member that has not exited, returning `None`.
async fn propose<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    epoch: u32,
    mine: &Report,
    cfg: &RecoveryConfig,
    heard: &mut BTreeMap<Rank, Heard>,
    trace: &mut RecoveryTrace,
) -> Result<Option<Proposal>> {
    let me = comm.rank();
    let tag = agreement_tag(epoch, PAIRWISE);
    let deadline = deadline_after(comm.now_ns(), cfg.heartbeat_timeout(members.len()));
    let mut frame = [0u8; 2];
    let mut abstain = false;
    for &peer in members.iter().filter(|&&r| r != me) {
        let left = Duration::from_nanos(deadline.saturating_sub(comm.now_ns()));
        let outcome = comm
            .recv_timeout(&mut frame, peer, tag, left)
            .await
            .map(|n| Report::decode(&frame[..n]));
        match outcome {
            Err(CommError::PeerFailed { rank }) if rank == me => {
                return Err(CommError::PeerFailed { rank: me });
            }
            Ok(Some(_)) => {
                heard.insert(peer, outcome);
            }
            // Exit evidence: the peer left the world with nothing queued.
            Err(CommError::PeerFailed { rank }) if rank == peer => {
                heard.insert(peer, outcome);
            }
            Ok(None) | Err(CommError::Truncation { .. }) => {
                trace.hit(branch::GARBLED_REPORT);
                heard.insert(peer, Ok(None));
                abstain = true;
                break;
            }
            Err(CommError::Timeout { .. } | CommError::PeerFailed { .. }) => {
                abstain = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let proposals = agreement_tag(epoch, PROPOSAL);
    if abstain {
        let peers =
            members.iter().copied().filter(|&r| r != me && !matches!(heard.get(&r), Some(Err(_))));
        tell(comm, peers, &Proposal::ABSTAIN, proposals).await?;
        return Ok(None);
    }
    let reports =
        heard.iter().filter_map(|(&r, h)| h.as_ref().ok()?.map(|report| (r, report.has_full)));
    let v = Proposal::new(comm.size(), reports.chain([(me, mine.has_full)]));
    let live = v.live();
    tell(comm, live.into_iter().filter(|&r| r != me), &v.frame, proposals).await?;
    Ok(Some(v))
}

/// A non-leader's side of stage 2: send this rank's report to the leader,
/// then wait two heartbeats for `V`. `None` — fall through to the pairwise
/// round — on the abstain frame, on silence or exit of the leader, and on a
/// `V` that is garbled, leaves this rank out, or names a rank this rank
/// already counts dead.
async fn follow<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    leader: Rank,
    members: &[Rank],
    epoch: u32,
    mine: &Report,
    cfg: &RecoveryConfig,
) -> Result<Option<Proposal>> {
    let me = comm.rank();
    let world = comm.size();
    tell(comm, [leader].into_iter(), &mine.encode(), agreement_tag(epoch, PAIRWISE)).await?;
    // The spare byte lets an overlong frame reach `decode`, which rejects it.
    let mut frame = vec![0u8; Proposal::frame_len(world) + 1];
    let wait = cfg.heartbeat_timeout(members.len()).saturating_mul(2);
    match comm.recv_timeout(&mut frame, leader, agreement_tag(epoch, PROPOSAL), wait).await {
        Ok(n) => Ok(Proposal::decode(&frame[..n], world).filter(|v| {
            let ours = members.iter().filter(|&&m| v.has(Proposal::LIVE, m)).count();
            v.has(Proposal::LIVE, me) && ours == v.live().len()
        })),
        Err(CommError::PeerFailed { rank }) if rank == me => {
            Err(CommError::PeerFailed { rank: me })
        }
        Err(
            CommError::Timeout { .. } | CommError::PeerFailed { .. } | CommError::Truncation { .. },
        ) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Stage 4 of [`agree`]: exchange reports with every other member, reusing
/// an outcome in `heard` (the leader's stage-2 reads) instead of receiving.
async fn pairwise<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    epoch: u32,
    mine: &Report,
    cfg: &RecoveryConfig,
    heard: &BTreeMap<Rank, Heard>,
    trace: &mut RecoveryTrace,
) -> Result<Verdict> {
    let me = comm.rank();
    let tag = agreement_tag(epoch, PAIRWISE);
    let encoded = mine.encode();
    let deadline = cfg.pairwise_timeout(members.len());

    let mut dead = BTreeSet::new();
    let mut have_full = BTreeSet::new();
    if mine.has_full {
        have_full.insert(me);
    }

    // A report is one byte; the spare byte lets a two-byte frame reach
    // `Report::decode`, anything longer surfaces as `Truncation` below.
    let mut frame = [0u8; 2];
    for &peer in members {
        if peer == me {
            continue;
        }
        let outcome = if cfg.bounded_sendrecv {
            comm.sendrecv(&encoded, peer, tag, &mut frame, peer, tag)
                .await
                .map(|n| Report::decode(&frame[..n]))
        } else {
            // Plain backends deliver sends eagerly, so pushing the report
            // first and then waiting (bounded) on the peer's cannot block.
            match (comm.send(&encoded, peer, tag).await, heard.get(&peer)) {
                (Ok(()), Some(outcome)) => outcome.clone(),
                (Ok(()), None) => comm
                    .recv_timeout(&mut frame, peer, tag, deadline)
                    .await
                    .map(|n| Report::decode(&frame[..n])),
                (Err(e), _) => Err(e),
            }
        };
        match outcome {
            Ok(Some(theirs)) => {
                if theirs.has_full {
                    have_full.insert(peer);
                }
            }
            // A garbled report from a live rank — wrong byte, wrong length,
            // or too long for the buffer altogether — violates the fault
            // model; treating the rank as failed keeps us moving.
            Ok(None) | Err(CommError::Truncation { .. }) => {
                trace.hit(branch::GARBLED_REPORT);
                dead.insert(peer);
            }
            // Our *own* communicator fail-stopping mid-round surfaces as a
            // peer failure naming this rank (world numbering — agreement
            // runs on the parent comm). Propagate it instead of wrongly
            // declaring every not-yet-visited peer dead.
            Err(CommError::PeerFailed { rank }) if rank == me => {
                return Err(CommError::PeerFailed { rank: me });
            }
            Err(CommError::Timeout { .. }) | Err(CommError::PeerFailed { .. }) => {
                dead.insert(peer);
            }
            Err(e) => return Err(e),
        }
    }
    have_full.retain(|r| !dead.contains(r));
    Ok(Verdict { dead, have_full })
}

/// Fault-tolerant broadcast of `buf` from `root` using the paper's tuned
/// scatter–ring algorithm, healing around fail-stop crashes.
///
/// On success every *surviving* rank holds the full payload and receives
/// the same [`Healed`] summary. A rank that was declared dead — including
/// one whose own communicator fail-stopped — gets
/// `Err(CommError::PeerFailed)` naming itself. If the payload becomes
/// unrecoverable (no survivor holds a complete copy) every survivor gets
/// `Err(CommError::PeerFailed)` naming the root. A budget above
/// [`MAX_EPOCHS`] is refused on every rank with
/// `Err(CommError::Unsupported)` before anything is sent.
pub fn self_healing_bcast(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
    cfg: &RecoveryConfig,
) -> Result<Healed> {
    self_healing_bcast_with(comm, buf, root, Algorithm::ScatterRingTuned, cfg)
}

/// [`self_healing_bcast`] with an explicit algorithm for the attempts.
pub fn self_healing_bcast_with(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
    algorithm: Algorithm,
    cfg: &RecoveryConfig,
) -> Result<Healed> {
    complete_now(self_healing_bcast_with_async(&SyncComm::new(comm), buf, root, algorithm, cfg))
}

/// The async core of [`self_healing_bcast`], over any [`AsyncCommunicator`].
pub async fn self_healing_bcast_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    cfg: &RecoveryConfig,
) -> Result<Healed> {
    self_healing_bcast_with_async(comm, buf, root, Algorithm::ScatterRingTuned, cfg).await
}

/// [`self_healing_bcast_async`] with an explicit algorithm for the attempts.
pub async fn self_healing_bcast_with_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    algorithm: Algorithm,
    cfg: &RecoveryConfig,
) -> Result<Healed> {
    let mut trace = RecoveryTrace::default();
    self_healing_bcast_traced_async(
        comm,
        buf,
        root,
        algorithm,
        cfg,
        &RecoveryDrill::NONE,
        &mut trace,
    )
    .await
}

/// The fully-instrumented entry point: [`self_healing_bcast_with_async`]
/// plus a [`RecoveryTrace`] filled in as the epoch loop runs (also on the
/// error paths — a crashed or starved rank still reports how far it got)
/// and the [`RecoveryDrill`] regression knobs for the chaos-search drill.
pub async fn self_healing_bcast_traced_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    algorithm: Algorithm,
    cfg: &RecoveryConfig,
    drill: &RecoveryDrill,
    trace: &mut RecoveryTrace,
) -> Result<Healed> {
    comm.check_rank(root)?;
    if cfg.max_epochs > MAX_EPOCHS {
        return Err(CommError::Unsupported { what: "recovery/max_epochs", size: comm.size() });
    }
    // A zero budget is an exhausted budget, not a bug: the loop below runs no
    // attempt and reports it the way it reports running out.
    let max_epochs =
        drill.clamp_epoch_budget.map_or(cfg.max_epochs, |c| c.max(1).min(cfg.max_epochs));
    let me = comm.rank();
    let mut members: Vec<Rank> = (0..comm.size()).collect();
    let mut current_root = root;
    let mut has_full = me == root;
    let mut all_dead: BTreeSet<Rank> = BTreeSet::new();
    // Who the last verdict marked full, by world rank. Resume, don't
    // restart: those members already hold the payload, so only the root and
    // the others rerun the attempt. (Not under `bounded_sendrecv`, whose
    // path stays exactly the restart it always was.)
    let mut full = vec![false; comm.size()];
    trace.root_chain.push(root);

    for epoch in 0..max_epochs {
        trace.epochs_entered = epoch + 1;
        if me == current_root || !full[me] {
            let runners: Vec<Rank> =
                members.iter().copied().filter(|&m| m == current_root || !full[m]).collect();
            // The rerun list, not the member list, fixes the schedule, so it
            // is what the attempt's tags must isolate.
            let digest = membership_digest(&runners);
            let sub = SubComm::new(comm, runners)
                // lint: allow(panic) — `me` is always kept in `members` (checked below)
                .expect("member list lost this rank");
            let local_root = sub
                .from_parent(current_root)
                // lint: allow(panic) — root succession keeps the root a member
                // (unless the drill knob disables succession on purpose)
                .unwrap_or_else(|| panic!("root {current_root} is not a member"));
            let epoch_comm = EpochComm::isolated(&sub, epoch, digest);
            let mut guarded = GuardedComm::new(&epoch_comm, cfg.step_timeout);
            if cfg.bounded_sendrecv {
                guarded = guarded.passthrough_sendrecv();
            }

            let attempt = bcast_with_async(&guarded, buf, local_root, algorithm).await;
            match attempt {
                Ok(()) => {
                    trace.hit(branch::CLEAN_ATTEMPT);
                    has_full = true;
                }
                // Attempt-time stalls only mark the attempt failed; membership
                // is decided by the agreement round. Errors from the sub-world
                // stack name *local* ranks.
                Err(CommError::Timeout { peer }) | Err(CommError::PeerFailed { rank: peer }) => {
                    if sub.members().get(peer) == Some(&me) {
                        trace.hit(branch::SELF_CRASH);
                        return Err(CommError::PeerFailed { rank: me });
                    }
                    trace.hit(branch::STALLED_ATTEMPT);
                }
                Err(e) => return Err(e),
            }
        }

        let report = Report { has_full: has_full || drill.claim_full_payload };
        let verdict = match agree(comm, &members, epoch, &report, cfg, trace).await {
            Ok(v) => v,
            Err(CommError::PeerFailed { rank }) if rank == me => {
                trace.hit(branch::SELF_CRASH);
                return Err(CommError::PeerFailed { rank: me });
            }
            Err(e) => return Err(e),
        };

        if !verdict.dead.is_empty() {
            trace.hit(branch::DEATH_OBSERVED);
            all_dead.extend(verdict.dead.iter().copied());
            trace.deaths_observed = all_dead.len();
        }

        if verdict.dead.is_empty() && verdict.have_full.len() == members.len() {
            trace.hit(branch::HEALED_ALL);
            return Ok(Healed { survivors: members, epochs: epoch + 1 });
        }

        members.retain(|r| !verdict.dead.contains(r));
        match verdict.have_full.iter().next() {
            Some(&lowest) => {
                // `skip_root_succession` is the seeded regression: a dead
                // root keeps the role.
                let keeps_role =
                    verdict.have_full.contains(&current_root) || drill.skip_root_succession;
                let next_root = if keeps_role { current_root } else { lowest };
                if next_root != current_root {
                    trace.hit(branch::ROOT_SUCCESSION);
                    trace.succession_depth += 1;
                    trace.root_chain.push(next_root);
                }
                current_root = next_root;
            }
            None => {
                trace.hit(branch::PAYLOAD_LOST);
                return Err(CommError::PeerFailed { rank: root });
            }
        }
        if members.len() == verdict.have_full.len()
            && members.iter().all(|r| verdict.have_full.contains(r))
        {
            trace.hit(branch::HEALED_SURVIVORS);
            return Ok(Healed { survivors: members, epochs: epoch + 1 });
        }
        if !cfg.bounded_sendrecv {
            full.fill(false);
            for &r in &verdict.have_full {
                full[r] = true;
            }
        }
    }
    trace.hit(branch::EPOCH_BUDGET_EXHAUSTED);
    Err(CommError::Timeout { peer: current_root })
}

/// The symbolic schedule of a degraded rerun: each survivor's op stream for
/// the shrunken world of `members`, renumbered into full-world ranks. `root`
/// is the *world* rank of the rerun's root and must be a member.
/// `schedcheck` analyses (matching, deadlock-freedom, coverage of
/// the survivors) apply to it unchanged.
pub fn degraded_bcast_schedule(
    algorithm: Algorithm,
    p: usize,
    nbytes: usize,
    members: &[Rank],
    root: Rank,
) -> Schedule {
    assert!(!members.is_empty(), "at least one survivor is required");
    assert!(members.iter().all(|&m| m < p), "member outside the world");
    let local_root = members
        .iter()
        .position(|&m| m == root)
        .unwrap_or_else(|| panic!("root {root} is not among the survivors {members:?}"));
    let mut s = Schedule::new(format!("{}@degraded", algorithm.schedule_name()), p, nbytes);
    s.ranks[root].mark_valid(0..nbytes);
    for (local, &m) in members.iter().enumerate() {
        s.ranks[m].require(0..nbytes);
        let ops = bcast_ops(algorithm, local, members.len(), nbytes, local_root);
        s.ranks[m].ops.extend(renumber(ops.into_iter(), |l| members[l]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{agreement_volume, bcast_volume, failed_agreement_volume, Volume};
    use mpsim::{EventWorld, ThreadWorld};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    fn quick_cfg() -> RecoveryConfig {
        RecoveryConfig { step_timeout: Duration::from_millis(100), ..RecoveryConfig::default() }
    }

    #[test]
    fn report_roundtrip() {
        assert!(Report::decode(&Report { has_full: true }.encode()).unwrap().has_full);
        assert!(!Report::decode(&Report { has_full: false }.encode()).unwrap().has_full);
        assert!(Report::decode(&[2]).is_none(), "garbled byte rejected");
        assert!(Report::decode(&[]).is_none(), "empty frame rejected");
        assert!(Report::decode(&[0, 0]).is_none(), "overlong frame rejected");
    }

    #[test]
    fn proposal_roundtrip() {
        let v = Proposal::new(10, [(0, true), (3, false), (9, true)].into_iter());
        assert_eq!(v.frame, [1, 0b1001, 0b10, 0b1, 0b10]);
        assert_eq!(Proposal::decode(&v.frame, 10), Some(v.clone()));
        assert_eq!(v.live(), [0, 3, 9]);
        let verdict = v.verdict(&[0, 1, 3, 9]);
        assert_eq!(
            (verdict.dead, verdict.have_full),
            (BTreeSet::from([1]), BTreeSet::from([0, 9]))
        );
        assert!(Proposal::decode(&Proposal::ABSTAIN, 10).is_none(), "abstain");
        assert!(Proposal::decode(&v.frame[..4], 10).is_none(), "short frame");
        assert!(Proposal::decode(&[1, 0, 0b100, 0, 0], 10).is_none(), "rank 10 is past the world");
        assert!(Proposal::decode(&[1, 0, 0, 0b1, 0], 10).is_none(), "full but not live");
        assert_ne!(v.seal(), Proposal::new(10, [(0, true)].into_iter()).seal());
    }

    #[test]
    fn fault_free_bcast_completes_in_one_epoch() {
        let n = 777;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            let mut buf = if comm.rank() == 2 { src.clone() } else { vec![0u8; n] };
            let healed = self_healing_bcast(comm, &mut buf, 2, &quick_cfg()).unwrap();
            assert_eq!(buf, src);
            healed
        });
        for h in &out.results {
            assert_eq!(h.epochs, 1);
            assert_eq!(h.survivors, (0..8).collect::<Vec<_>>());
        }
        // The quorum's receive bound is real time here: a spurious timeout
        // would fall through to the later agreement stages and show up as
        // extra messages, not merely as a slow test.
        let expect = bcast_volume(Algorithm::ScatterRingTuned, n, 8).plus(agreement_volume(8));
        assert_eq!(out.traffic.total_msgs(), expect.msgs);
    }

    #[test]
    fn survivors_heal_around_a_rank_that_exits_mid_world() {
        // Acceptance shape: P = 8, one non-root rank dies before taking part
        // in the ring; the 7 survivors must all end up with the payload.
        let n = 4096;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            if comm.rank() == 5 {
                // fail-stop: return without ever participating
                return None;
            }
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
            let healed = self_healing_bcast(comm, &mut buf, 0, &quick_cfg()).unwrap();
            assert_eq!(buf, src);
            Some(healed)
        });
        let expected: Vec<Rank> = vec![0, 1, 2, 3, 4, 6, 7];
        for (rank, h) in out.results.iter().enumerate() {
            if rank == 5 {
                assert!(h.is_none());
            } else {
                let h = h.as_ref().unwrap();
                assert_eq!(h.survivors, expected, "rank {rank} saw a different survivor set");
                assert!(h.epochs >= 2, "a healing epoch must have run");
            }
        }
    }

    #[test]
    fn non_root_crash_with_non_default_root_recovers() {
        let n = 1000;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            if comm.rank() == 1 {
                return None;
            }
            let mut buf = if comm.rank() == 3 { src.clone() } else { vec![0u8; n] };
            let healed = self_healing_bcast(comm, &mut buf, 3, &quick_cfg()).unwrap();
            assert_eq!(buf, src);
            Some(healed)
        });
        let expected: Vec<Rank> = vec![0, 2, 3, 4, 5, 6, 7];
        for (rank, h) in out.results.iter().enumerate() {
            if rank != 1 {
                assert_eq!(h.as_ref().unwrap().survivors, expected, "rank {rank} disagreed");
            }
        }
    }

    #[test]
    fn root_crash_is_unrecoverable_when_no_one_has_the_payload() {
        let n = 512;
        let out = ThreadWorld::run(4, |comm| {
            if comm.rank() == 0 {
                return None; // the root dies before sending anything
            }
            let mut buf = vec![0u8; n];
            self_healing_bcast(comm, &mut buf, 0, &quick_cfg()).err()
        });
        for (rank, e) in out.results.iter().enumerate() {
            if rank != 0 {
                assert_eq!(
                    *e,
                    Some(CommError::PeerFailed { rank: 0 }),
                    "rank {rank} must learn the payload is lost"
                );
            }
        }
    }

    #[test]
    fn epoch_comm_shifts_tags() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let e0 = EpochComm::new(&acomm, 0);
            let e1 = EpochComm::new(&acomm, 1);
            if comm.rank() == 0 {
                complete_now(e1.send(&[1], 1, Tag(5))).unwrap();
                complete_now(e0.send(&[0], 1, Tag(5))).unwrap();
                0
            } else {
                let mut buf = [0u8; 1];
                // epoch-0 recv must match the epoch-0 send, not the earlier
                // epoch-1 message on the same user tag
                complete_now(e0.recv(&mut buf, 0, Tag(5))).unwrap();
                buf[0]
            }
        });
        assert_eq!(out.results[1], 0);
    }

    #[test]
    fn guarded_comm_times_out_on_silence() {
        let out = ThreadWorld::run(2, |comm| {
            let acomm = SyncComm::new(comm);
            let g = GuardedComm::new(&acomm, Duration::from_millis(30));
            if comm.rank() == 0 {
                let mut buf = [0u8; 1];
                let err = complete_now(g.recv(&mut buf, 1, Tag(0))).unwrap_err();
                comm.send(&[0], 1, Tag(9)).unwrap();
                Some(err)
            } else {
                let mut buf = [0u8; 1];
                comm.recv(&mut buf, 0, Tag(9)).unwrap();
                None
            }
        });
        assert_eq!(out.results[0], Some(CommError::Timeout { peer: 1 }));
    }

    #[test]
    fn epoch_stack_reports_a_dead_member_in_local_numbering() {
        // The stack a `bounded_sendrecv` epoch runs its attempt on, after an
        // earlier epoch shrank the world to members 4, 2, 0 (local 0, 1, 2).
        // Parent rank 2 is dead: the passthrough `sendrecv` must name local
        // rank 1, because the epoch loop indexes `members` with it — parent
        // rank 4 there would be out of bounds.
        let members = vec![4, 2, 0];
        let out = ThreadWorld::run(5, |comm| {
            let acomm = SyncComm::new(comm);
            let sub = SubComm::new(&acomm, members.clone())?;
            if sub.rank() == 1 {
                return None;
            }
            let epoch_comm = EpochComm::isolated(&sub, 1, membership_digest(&members));
            let guarded =
                GuardedComm::new(&epoch_comm, Duration::from_millis(30)).passthrough_sendrecv();
            let mut b = [0u8; 1];
            Some(complete_now(guarded.sendrecv(&[1], 1, Tag(1), &mut b, 1, Tag(1))).unwrap_err())
        });
        for parent in [4, 0] {
            assert_eq!(out.results[parent], Some(CommError::PeerFailed { rank: 1 }));
        }
    }

    #[test]
    fn degraded_schedule_covers_survivors_only() {
        let members = [0usize, 1, 3, 4, 5, 6, 7]; // rank 2 died
        let s = degraded_bcast_schedule(Algorithm::ScatterRingTuned, 8, 800, &members, 0);
        assert_eq!(s.p, 8);
        assert!(s.ranks[2].ops.is_empty(), "dead rank must have no ops");
        assert!(s.ranks[2].required.is_empty(), "dead rank owes nothing");
        for &m in &members {
            assert_eq!(s.ranks[m].required, vec![0..800]);
            assert!(!s.ranks[m].ops.is_empty());
        }
        // all peers referenced must be survivors
        for rs in &s.ranks {
            for op in &rs.ops {
                if let Some(send) = &op.send {
                    assert!(members.contains(&send.peer));
                }
                if let Some(recv) = &op.recv {
                    assert!(members.contains(&recv.peer));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not among the survivors")]
    fn degraded_schedule_rejects_dead_root() {
        let _ = degraded_bcast_schedule(Algorithm::ScatterRingTuned, 8, 64, &[0, 1, 3], 2);
    }

    #[test]
    fn fault_free_async_bcast_on_event_world() {
        let n = 777;
        let src = pattern(n);
        let out = EventWorld::run(8, |comm| {
            let src = src.clone();
            async move {
                let mut buf = if comm.rank() == 2 { src.clone() } else { vec![0u8; n] };
                let healed =
                    self_healing_bcast_async(&comm, &mut buf, 2, &quick_cfg()).await.unwrap();
                assert_eq!(buf, src);
                healed
            }
        });
        for h in &out.results {
            assert_eq!(h.epochs, 1);
            assert_eq!(h.survivors, (0..8).collect::<Vec<_>>());
        }
        assert!(out.traffic.is_balanced(), "fault-free recovery must reconcile exactly");
    }

    #[test]
    fn survivors_heal_around_an_exiting_rank_on_event_world() {
        let n = 4096;
        let src = pattern(n);
        let out = EventWorld::run(8, |comm| {
            let src = src.clone();
            async move {
                if comm.rank() == 5 {
                    return None; // fail-stop before participating
                }
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
                let mut trace = RecoveryTrace::default();
                let healed = self_healing_bcast_traced_async(
                    &comm,
                    &mut buf,
                    0,
                    Algorithm::ScatterRingTuned,
                    &quick_cfg(),
                    &RecoveryDrill::NONE,
                    &mut trace,
                )
                .await
                .unwrap();
                assert_eq!(buf, src);
                Some((healed, trace))
            }
        });
        let expected: Vec<Rank> = vec![0, 1, 2, 3, 4, 6, 7];
        for (rank, res) in out.results.iter().enumerate() {
            if rank == 5 {
                assert!(res.is_none());
                continue;
            }
            let (h, trace) = res.as_ref().unwrap();
            assert_eq!(h.survivors, expected, "rank {rank} saw a different survivor set");
            assert!(h.epochs >= 2, "a healing epoch must have run");
            assert!(trace.saw(branch::DEATH_OBSERVED));
            assert_eq!(trace.deaths_observed, 1);
            assert_eq!(trace.root_chain, vec![0], "root 0 never moved");
        }
    }

    /// Drive [`quorum`] alone on a 5-rank event world; `role(rank)` is `None`
    /// for a rank that exits without taking part, else its `has_full`.
    /// Returns each participant's outcome and the frames each rank sent.
    fn quorum_world(role: fn(Rank) -> Option<bool>) -> (Vec<Option<Quorum>>, Vec<u64>) {
        let members: Vec<Rank> = (0..5).collect();
        let out = EventWorld::run(5, |comm| {
            let members = members.clone();
            async move {
                let has_full = role(comm.rank())?;
                let (tag, seal) = (agreement_tag(0, QUORUM), [membership_digest(&members) as u8]);
                Some(quorum(&comm, &members, tag, &seal, has_full, &quick_cfg()).await.unwrap())
            }
        });
        let sent = out.traffic.per_rank.iter().map(|s| s.msgs_sent).collect();
        (out.results, sent)
    }

    #[test]
    fn quorum_commits_when_every_member_is_full() {
        let (results, sent) = quorum_world(|_| Some(true));
        assert_eq!(results, vec![Some(Quorum::Committed); 5]);
        assert_eq!(sent, vec![6; 5], "2·⌈log₂5⌉ frames per rank");
    }

    #[test]
    fn quorum_forwards_a_missing_payload_without_waiting_on_it() {
        let (results, sent) = quorum_world(|r| Some(r != 3));
        assert_eq!(results, vec![Some(Quorum::Open); 5], "no rank commits, no rank is known");
        assert_eq!(sent, vec![6; 5], "a false conjunction still sends every round");
    }

    #[test]
    fn quorum_stays_open_around_an_absent_member() {
        let (results, sent) = quorum_world(|r| (r != 2).then_some(true));
        for (rank, q) in results.iter().enumerate() {
            assert_eq!(*q, (rank != 2).then_some(Quorum::Open), "rank {rank}");
        }
        assert_eq!(sent, vec![6, 6, 0, 6, 6]);
    }

    #[test]
    fn overlong_report_marks_the_peer_dead() {
        // Rank 3 skips the quorum and answers the pairwise tag with two
        // bytes. Its peers must count it dead and keep going.
        let members: Vec<Rank> = (0..4).collect();
        let out = EventWorld::run(4, |comm| {
            let members = members.clone();
            async move {
                if comm.rank() == 3 {
                    for peer in 0..3 {
                        comm.send(&[1, 0], peer, Tag(AGREEMENT_TAG_BASE)).await.unwrap();
                    }
                    return None;
                }
                let mut trace = RecoveryTrace::default();
                let mine = Report { has_full: true };
                let verdict = agree(&comm, &members, 0, &mine, &quick_cfg(), &mut trace).await;
                Some((verdict.map(|v| (v.dead, v.have_full)), trace))
            }
        });
        for res in out.results.iter().take(3) {
            let (verdict, trace) = res.as_ref().unwrap();
            let (dead, have_full) = verdict.as_ref().expect("agreement must not abort");
            assert_eq!(*dead, BTreeSet::from([3]));
            assert_eq!(*have_full, BTreeSet::from([0, 1, 2]));
            assert!(trace.saw(branch::GARBLED_REPORT));
        }
    }

    #[test]
    fn failed_epoch_agreement_matches_its_closed_form() {
        // One member exits before the agreement: the membership quorum
        // fails, the leader's proposal is confirmed, and the pairwise round
        // never runs.
        for p in [3usize, 8, 10, 129] {
            let members: Vec<Rank> = (0..p).collect();
            let gone = p / 2;
            let out = EventWorld::run(p, |comm| {
                let members = members.clone();
                async move {
                    if comm.rank() == gone {
                        return None;
                    }
                    let mut trace = RecoveryTrace::default();
                    let mine = Report { has_full: comm.rank() % 2 == 0 };
                    let v = agree(&comm, &members, 0, &mine, &quick_cfg(), &mut trace).await;
                    v.ok().map(|v| (v.dead, v.have_full))
                }
            });
            let full = members.iter().copied().filter(|&r| r != gone && r % 2 == 0).collect();
            let verdict = Some((BTreeSet::from([gone]), full));
            for (rank, got) in out.results.iter().enumerate() {
                if rank != gone {
                    assert_eq!(*got, verdict, "P={p} rank {rank}");
                }
            }
            let vol = failed_agreement_volume(p, p, p - 1);
            assert_eq!(out.traffic.total_msgs(), vol.msgs, "P={p}");
            assert_eq!(out.traffic.total_bytes(), vol.bytes, "P={p}");
        }
    }

    #[test]
    fn rerun_moves_only_the_root_and_the_survivors_without_the_payload() {
        // Binomial from 0 at P = 8 is 0→{4, 2, 1}, 4→{6, 5}, 2→3, 6→7. Rank 4
        // exits before taking part: epoch 0 moves 0→4, 0→2, 0→1 and 2→3, so
        // {0, 1, 2, 3} end full and {5, 6, 7} do not. Epoch 1 reruns over the
        // root and those three only — a 4-rank broadcast — and its
        // membership quorum over the 7 survivors commits.
        let n = 4096;
        let src = pattern(n);
        let out = EventWorld::run(8, |comm| {
            let src = src.clone();
            async move {
                if comm.rank() == 4 {
                    return None;
                }
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; n] };
                let algorithm = Algorithm::Binomial;
                let healed =
                    self_healing_bcast_with_async(&comm, &mut buf, 0, algorithm, &quick_cfg())
                        .await
                        .unwrap();
                assert_eq!(buf, src);
                Some(healed)
            }
        });
        for h in out.results.iter().flatten() {
            assert_eq!((h.epochs, h.survivors.len()), (2, 7));
        }
        let epoch0 = Volume { msgs: 4, bytes: 4 * n as u64 };
        let rerun = bcast_volume(Algorithm::Binomial, n, 4);
        let expect =
            epoch0.plus(failed_agreement_volume(8, 8, 7)).plus(rerun).plus(agreement_volume(7));
        assert_eq!(out.traffic.total_msgs(), expect.msgs);
        assert_eq!(out.traffic.total_bytes(), expect.bytes);
        // The full survivors move no rerun traffic: beyond rank 2's epoch-0
        // send to 3, each sends only its 19 agreement frames (6 quorum, a
        // report and 6 confirm frames in epoch 0, 6 quorum frames in 1).
        let sent: Vec<u64> = out.traffic.per_rank.iter().map(|s| s.msgs_sent).collect();
        assert_eq!(sent[1..4], [19, 1 + 19, 19]);
    }

    #[test]
    fn zero_epoch_budget_is_exhausted_not_a_panic() {
        for drill in [
            RecoveryDrill::NONE,
            RecoveryDrill { clamp_epoch_budget: Some(3), ..RecoveryDrill::NONE },
        ] {
            let cfg = RecoveryConfig { max_epochs: 0, ..quick_cfg() };
            let out = EventWorld::run(3, |comm| async move {
                let mut buf = vec![7u8; 16];
                let mut trace = RecoveryTrace::default();
                let result = self_healing_bcast_traced_async(
                    &comm,
                    &mut buf,
                    1,
                    Algorithm::ScatterRingTuned,
                    &cfg,
                    &drill,
                    &mut trace,
                )
                .await;
                (result, trace)
            });
            for (result, trace) in &out.results {
                assert_eq!(*result, Err(CommError::Timeout { peer: 1 }));
                assert!(trace.saw(branch::EPOCH_BUDGET_EXHAUSTED));
                assert_eq!(trace.epochs_entered, 0);
            }
            assert_eq!(out.traffic.total_msgs(), 0, "no attempt, no traffic");
        }
    }

    #[test]
    fn epoch_budget_that_would_alias_attempt_tags_is_refused() {
        // Epoch 16 with digest d shifts tags like epoch 0 with digest d + 1.
        assert_eq!(MAX_EPOCHS, 16);
        assert_eq!(
            EpochComm::isolated(&(), MAX_EPOCHS, 0x10).shift,
            EpochComm::isolated(&(), 0, 0x11).shift
        );
        for max_epochs in [MAX_EPOCHS + 1, u32::MAX] {
            let cfg = RecoveryConfig { max_epochs, ..quick_cfg() };
            let out = EventWorld::run(4, |comm| async move {
                let mut buf = vec![3u8; 64];
                self_healing_bcast_async(&comm, &mut buf, 0, &cfg).await
            });
            let refused = Err(CommError::Unsupported { what: "recovery/max_epochs", size: 4 });
            assert_eq!(out.results, vec![refused; 4], "max_epochs = {max_epochs}");
            assert_eq!(out.traffic.total_msgs(), 0, "nothing may be posted");
        }
        // The largest budget that cannot alias still runs.
        let cfg = RecoveryConfig { max_epochs: MAX_EPOCHS, ..quick_cfg() };
        let out = EventWorld::run(4, |comm| async move {
            let mut buf = vec![3u8; 64];
            self_healing_bcast_async(&comm, &mut buf, 0, &cfg).await.map(|h| h.epochs)
        });
        assert_eq!(out.results, vec![Ok(1); 4]);
    }

    #[test]
    fn async_sub_comm_exchanges_within_subset() {
        let out = EventWorld::run(5, |comm| async move {
            let Some(sc) = SubComm::new(&comm, vec![4, 2, 0]) else {
                return 0u8;
            };
            sc.barrier().await.unwrap();
            if sc.rank() == 0 {
                sc.send(&[77], 2, Tag(1)).await.unwrap();
                0
            } else if sc.rank() == 2 {
                let mut b = [0u8; 1];
                sc.recv(&mut b, 0, Tag(1)).await.unwrap();
                b[0]
            } else {
                0
            }
        });
        assert_eq!(out.results[0], 77);
    }
}
