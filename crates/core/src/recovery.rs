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
//!    conjunction false, and a false conjunction runs the *pairwise round*:
//!    every surviving rank sends a one-byte report (a "payload complete"
//!    bit) to every other current member, then collects the peers' reports
//!    under a generous heartbeat deadline. Membership is decided by this
//!    exchange *alone*: an attempt-time timeout is only a stall symptom (a
//!    live neighbor of a dead rank stalls too), but a rank that misses the
//!    heartbeat deadline — sized to cover the worst-case attempt cascade —
//!    is dead under the fail-stop assumption (below), so every live rank
//!    computes the same verdict. (A rank whose pass 1 was true but whose
//!    pass 2 was not still runs the pairwise round for its peers' benefit,
//!    then heals with "nobody dead": every member reported a complete
//!    payload, and others may already have committed and left.)
//! 3. **Degraded rerun** — the survivors form a [`SubComm`], the
//!    binomial-scatter `(step, flag)` schedule is re-derived over the
//!    shrunken world (simply by running the same algorithm at the smaller
//!    size), and the broadcast reruns from the lowest-ranked survivor that
//!    holds the full payload. The loop repeats until an attempt completes
//!    on every survivor or the epoch budget is exhausted.
//!
//! The matching *symbolic* schedule of a degraded rerun is available from
//! [`degraded_bcast_schedule`], so `schedcheck` verifies the regenerated
//! ring exactly like the full-world one.
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

use std::collections::BTreeSet;
use std::time::Duration;

use mpsim::{
    complete_now, AsyncCommunicator, CommError, Communicator, Rank, Result, SubComm, SyncComm, Tag,
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
/// digest occupies bits 12 and up, above every user tag (< `0x100`), every
/// epoch shift (`epoch · 0x100`), and the whole agreement range
/// (`0xA100..≈0xB100`), and below [`mpsim::reliable::DATA_TAG_BASE`] so the
/// reliability layer's rebasing can never push an attempt tag into its
/// reserved acknowledgement range.
pub const MEMBERSHIP_DIGEST_SHIFT: u32 = 12;

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
    let mut h: u32 = 0x811C_9DC5;
    for &m in members {
        for b in (m as u32).to_le_bytes() {
            h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
        }
    }
    0x10 + (h % 0xFE0)
}

/// Tuning knobs for [`self_healing_bcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Deadline for each receive inside a broadcast attempt — the failure
    /// detector's resolution. Too short and slow ranks are suspected; too
    /// long and recovery is sluggish.
    pub step_timeout: Duration,
    /// Maximum number of attempts (first try included) before giving up.
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
    /// The agreement-round deadline. A live member may still be stuck in
    /// the failed attempt when its peers start collecting heartbeats: with
    /// every receive bounded by one step-timeout, a stalled attempt drains
    /// in at most `scatter depth + ring steps` timeouts (< 2·members), so
    /// twice that plus slack guarantees a live rank is never mistaken for
    /// dead.
    fn heartbeat_timeout(&self, members: usize) -> Duration {
        self.step_timeout.saturating_mul(2 * members as u32 + 6)
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

    fn check_rank(&self, rank: Rank) -> Result<()> {
        self.inner.check_rank(rank)
    }

    async fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send(buf, dest, self.shifted(tag)).await
    }

    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        self.inner.recv(buf, src, self.shifted(tag)).await
    }

    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        self.inner.recv_timeout(buf, src, self.shifted(tag), timeout).await
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
        self.inner
            .sendrecv(sendbuf, dest, self.shifted(sendtag), recvbuf, src, self.shifted(recvtag))
            .await
    }

    async fn barrier(&self) -> Result<()> {
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    async fn send_shared(&self, buf: &mpsim::SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send_shared(buf, dest, self.shifted(tag)).await
    }

    async fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<mpsim::SharedBuf> {
        self.inner.recv_owned(capacity, src, self.shifted(tag)).await
    }

    async fn recv_owned_timeout(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<mpsim::SharedBuf> {
        self.inner.recv_owned_timeout(capacity, src, self.shifted(tag), timeout).await
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
        self.inner
            .sendrecv_shared(
                sendbuf,
                dest,
                self.shifted(sendtag),
                recv_capacity,
                src,
                self.shifted(recvtag),
            )
            .await
    }
}

/// Deadline-guarding decorator: every unbounded receive becomes an
/// [`AsyncCommunicator::recv_timeout`] with a fixed step deadline, so a
/// silent peer surfaces as [`CommError::Timeout`] instead of a hang.
///
/// `sendrecv` is decomposed into an eager send followed by a bounded
/// receive — correct only on eagerly-delivering transports (see the
/// [module docs](self)).
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

    /// Delegate `sendrecv` to the inner communicator instead of
    /// decomposing it. Only sound when the inner `sendrecv` cannot block
    /// forever on a dead peer — see
    /// [`RecoveryConfig::bounded_sendrecv`].
    pub fn passthrough_sendrecv(mut self) -> Self {
        self.passthrough_sendrecv = true;
        self
    }
}

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

    fn check_rank(&self, rank: Rank) -> Result<()> {
        self.inner.check_rank(rank)
    }

    async fn send(&self, buf: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send(buf, dest, tag).await
    }

    async fn recv(&self, buf: &mut [u8], src: Rank, tag: Tag) -> Result<usize> {
        self.inner.recv_timeout(buf, src, tag, self.step_timeout).await
    }

    async fn recv_timeout(
        &self,
        buf: &mut [u8],
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<usize> {
        self.inner.recv_timeout(buf, src, tag, timeout.min(self.step_timeout)).await
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
        if self.passthrough_sendrecv {
            return self.inner.sendrecv(sendbuf, dest, sendtag, recvbuf, src, recvtag).await;
        }
        // Eager send, bounded receive — sound only on eagerly-delivering
        // transports.
        self.inner.send(sendbuf, dest, sendtag).await?;
        self.inner.recv_timeout(recvbuf, src, recvtag, self.step_timeout).await
    }

    async fn barrier(&self) -> Result<()> {
        self.inner.barrier().await
    }

    fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
        self.inner.make_shared(data)
    }

    fn note_copy(&self, bytes: usize) {
        self.inner.note_copy(bytes)
    }

    async fn send_shared(&self, buf: &mpsim::SharedBuf, dest: Rank, tag: Tag) -> Result<()> {
        self.inner.send_shared(buf, dest, tag).await
    }

    async fn recv_owned(&self, capacity: usize, src: Rank, tag: Tag) -> Result<mpsim::SharedBuf> {
        // Same mapping as `recv`: every unbounded owned receive becomes a
        // step-bounded one.
        self.inner.recv_owned_timeout(capacity, src, tag, self.step_timeout).await
    }

    async fn recv_owned_timeout(
        &self,
        capacity: usize,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<mpsim::SharedBuf> {
        self.inner.recv_owned_timeout(capacity, src, tag, timeout.min(self.step_timeout)).await
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
        if self.passthrough_sendrecv {
            return self
                .inner
                .sendrecv_shared(sendbuf, dest, sendtag, recv_capacity, src, recvtag)
                .await;
        }
        // Same decomposition as `sendrecv`: eager send, bounded receive.
        self.inner.send_shared(sendbuf, dest, sendtag).await?;
        self.inner.recv_owned_timeout(recv_capacity, src, recvtag, self.step_timeout).await
    }
}

// The vectored operations of both decorators use the trait defaults
// (gather/scatter through `send`/`recv`). The zero-copy operations, by
// contrast, forward natively (with the same tag shifting / timeout bounding
// as their copying counterparts): they bottom out in the same per-link
// send/recv sequence a fault plan's crash clock counts, so seeded replay
// stays aligned while the payload keeps its refcounted envelope all the way
// down to the executor.

/// One rank's state after an attempt, exchanged in the agreement round.
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

/// What the dissemination quorum established on this rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Quorum {
    /// Pass 2 came out true: every member holds the payload *and* every
    /// member's pass 1 said so. Nothing is left to agree on.
    Committed,
    /// Pass 1 came out true but pass 2 did not: every member reported a
    /// complete payload this epoch, yet some peer may not have learned it.
    Known,
    /// Pass 1 came out false: somebody lacks the payload, is silent, is late,
    /// or disagrees on the membership. The pairwise round decides.
    Open,
}

/// Base tag of epoch `epoch`'s agreement traffic: the pairwise round runs on
/// `+ 0`, the dissemination quorum on `+ 1`.
fn agreement_tag(epoch: u32) -> u32 {
    AGREEMENT_TAG_BASE.wrapping_add(epoch.wrapping_mul(EPOCH_TAG_STRIDE))
}

/// AND-reduce "I hold the full payload" over `members` by Bruck
/// dissemination, twice: pass 1 folds `has_full`, pass 2 folds "my pass 1
/// came out true". Each pass is `⌈log₂n⌉` rounds of one two-byte send (to the
/// member `dist` positions ahead) and one receive (from the member `dist`
/// behind), `dist = 1, 2, 4, … < n`, so after a pass the conjunction covers
/// every member.
///
/// The conjunction can only ever turn *false*: a `0` frame, a timeout, a
/// failed or garbled partner, or a frame carrying another membership's
/// digest byte all clear it. A rank whose conjunction is false stops
/// receiving but still sends every remaining round of both passes, so the
/// falsehood reaches everyone in at most `2·⌈log₂n⌉` hops and nobody waits on
/// it. All rounds share one tag: a pass's distances are distinct sources, and
/// per-`(src, tag)` FIFO orders pass 1 before pass 2 from the same source.
///
/// Receives are bounded by `2 · step_timeout`, *not* the heartbeat deadline.
/// Safety never depends on the bound — a false timeout costs a pairwise
/// round, never a wrong verdict — so it only has to exceed the entry skew of
/// a clean attempt. It has to stay this small because the pairwise round is
/// sound only while a live peer lags by less than the heartbeat deadline:
/// a rank that fell through at once must not wait out its heartbeat on a
/// peer still sitting in a quorum timeout.
async fn quorum<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    members: &[Rank],
    epoch: u32,
    has_full: bool,
    cfg: &RecoveryConfig,
) -> Result<Quorum> {
    let me = comm.rank();
    let n = members.len();
    let Some(idx) = members.iter().position(|&m| m == me) else {
        return Ok(Quorum::Open);
    };
    let tag = Tag(agreement_tag(epoch).wrapping_add(1));
    // Ranks whose member lists diverged after a split verdict must not
    // complete each other's quorum.
    let digest8 = membership_digest(members) as u8;
    let bound = cfg.step_timeout.saturating_mul(2);

    let mut acc = has_full;
    let mut known = false;
    let mut frame = [0u8; 2];
    for pass in 0..2 {
        let mut dist = 1;
        while dist < n {
            let ahead = members[(idx + dist) % n];
            let behind = members[(idx + n - dist) % n];
            let heard = match comm.send(&[u8::from(acc), digest8], ahead, tag).await {
                Ok(()) if acc => comm
                    .recv_timeout(&mut frame, behind, tag, bound)
                    .await
                    .map(|len| len == 2 && frame == [1, digest8]),
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

/// Agree on who is alive and who holds the payload after epoch `epoch`'s
/// attempt. Two stages, the second only when the first does not settle it:
///
/// 1. **Dissemination quorum** ([`quorum`]) — `2·⌈log₂n⌉` two-byte frames
///    per rank. If it commits, every member holds the payload and knows that
///    everyone does: the verdict is "nobody dead, everybody full" without a
///    single pairwise message. A fault-free epoch ends here.
/// 2. **Pairwise round** — every member exchanges a one-byte [`Report`] with
///    every other member under the heartbeat deadline; a member is dead iff
///    it fails this exchange. The fail-stop assumption plus the backends'
///    definitive exited-rank detection make the outcome identical on every
///    live member — a dead rank fails *everyone's* heartbeat, and the
///    deadline is sized so a live rank never does. Anything that goes wrong
///    in the quorum only ever lands a rank here, so the verdict under faults
///    is the pairwise one, unchanged.
///
/// One case sits between the two: the quorum's pass 1 came out true on this
/// rank but pass 2 did not (a peer crashed or stalled between its pass-2
/// sends). Pass 2 can only come out true *anywhere* if every member's pass 1
/// was true, so other members may already have committed and left. This rank
/// still runs the pairwise round in full — peers that also fell through need
/// its report — but then returns "nobody dead, everybody full" regardless of
/// who answered: every member reported a complete payload this epoch, so a
/// peer that has gone silent since has either healed and exited or crashed
/// holding the payload. Counting it dead would heal this rank in the same
/// epoch *without* ranks that healed in it — a lossless split-brain.
///
/// The pairwise exchange visits peers in ascending member order, which is
/// deadlock-free for pairwise exchanges: the globally smallest unfinished
/// pair is always each other's current partner (each rank only moves past
/// a peer once that pair is done), so someone always progresses. With
/// [`RecoveryConfig::bounded_sendrecv`] the quorum is skipped and the
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
    let everyone_full =
        || Verdict { dead: BTreeSet::new(), have_full: members.iter().copied().collect() };
    let known = !cfg.bounded_sendrecv
        && match quorum(comm, members, epoch, mine.has_full, cfg).await? {
            Quorum::Committed => return Ok(everyone_full()),
            Quorum::Known => true,
            Quorum::Open => false,
        };

    let me = comm.rank();
    let tag = Tag(agreement_tag(epoch));
    let encoded = mine.encode();
    let hb = cfg.heartbeat_timeout(members.len());

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
            comm.sendrecv(&encoded, peer, tag, &mut frame, peer, tag).await
        } else {
            // Plain backends deliver sends eagerly, so pushing the report
            // first and then waiting (bounded) on the peer's cannot block.
            match comm.send(&encoded, peer, tag).await {
                Ok(()) => comm.recv_timeout(&mut frame, peer, tag, hb).await,
                Err(e) => Err(e),
            }
        };
        match outcome.map(|n| Report::decode(&frame[..n])) {
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
    if known {
        return Ok(everyone_full());
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
/// `Err(CommError::PeerFailed)` naming the root.
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
    // A zero budget is an exhausted budget, not a bug: the loop below runs no
    // attempt and reports it the way it reports running out.
    let max_epochs =
        drill.clamp_epoch_budget.map_or(cfg.max_epochs, |c| c.max(1).min(cfg.max_epochs));
    let me = comm.rank();
    let mut members: Vec<Rank> = (0..comm.size()).collect();
    let mut current_root = root;
    let mut has_full = me == root;
    let mut all_dead: BTreeSet<Rank> = BTreeSet::new();
    trace.root_chain.push(root);

    for epoch in 0..max_epochs {
        trace.epochs_entered = epoch + 1;
        let sub = SubComm::new(comm, members.clone())
            // lint: allow(panic) — `me` is always kept in `members` (checked below)
            .expect("member list lost this rank");
        let local_root = sub
            .from_parent(current_root)
            // lint: allow(panic) — root succession keeps the root a member
            // (unless the drill knob disables succession on purpose)
            .unwrap_or_else(|| panic!("root {current_root} is not a member"));
        let epoch_comm = EpochComm::isolated(&sub, epoch, membership_digest(&members));
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
                if peer < members.len() && members[peer] == me {
                    trace.hit(branch::SELF_CRASH);
                    return Err(CommError::PeerFailed { rank: me });
                }
                trace.hit(branch::STALLED_ATTEMPT);
            }
            Err(e) => return Err(e),
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
    use crate::traffic::{agreement_volume, bcast_volume};
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
        // would fall back to the pairwise round and show up as extra
        // envelopes, not merely as a slow test.
        let expect = bcast_volume(Algorithm::ScatterRingTuned, n, 8).plus(agreement_volume(8));
        assert_eq!(out.traffic.total_envelopes(), expect.msgs);
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
                Some(quorum(&comm, &members, 0, has_full, &quick_cfg()).await.unwrap())
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
