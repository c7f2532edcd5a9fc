//! Self-healing broadcast: timeout-guarded execution, failure agreement,
//! and degraded-ring recovery on the surviving ranks.
//!
//! The tuned scatter–ring broadcast, like every static-schedule collective,
//! hangs if a participant dies mid-ring: its neighbors wait forever on a
//! `sendrecv` that can never match. This module turns that hang into
//! detection and recovery:
//!
//! 1. **Bounded attempt** — each rank runs the algorithm's own phase streams
//!    for the attempt's world (its rank among the runners, their count, the
//!    root's position), with every op mapped to world ranks and every tag
//!    shifted into the epoch's page plus the runners' membership digest, so
//!    retries can never match stale messages from a failed attempt. One
//!    interpreter runs them on the bare communicator with every receive
//!    bounded by the step deadline — no decorator wraps an envelope. A dead
//!    neighbor surfaces as [`CommError::Timeout`] or — when the backend's
//!    exited-rank detector fires first — [`CommError::PeerFailed`], naming
//!    a world rank either way.
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
//!
//!    The agreement is a schedule like the attempt: each stage is a per-rank
//!    stream of [`SchedOp`]s over a small frame buffer — phases `quorum`,
//!    `report`, `propose`, `confirm` and `pairwise` — and a bounded
//!    interpreter posts and takes every frame, one op at a time, because the
//!    logic between ops stays local code, like `(step, flag)`: the AND fold,
//!    the proposal, decoding, the leader's abstain. A false conjunction,
//!    or a peer the leader already heard from, drops that op's receive
//!    half; one classifier turns every error a live rank survives into a
//!    value. [`agreement_schedule`] and [`pairwise_schedule`] collect the
//!    same streams over every member, and `schedcheck` checks their
//!    matching, deadlock-freedom and volume for every `P ≤ 64`.
//! 3. **Degraded rerun** — the broadcast reruns from the root (or, if it
//!    died, the lowest-ranked survivor holding the full payload), over that
//!    root plus the survivors the verdict did *not* mark full: a survivor
//!    that already holds the payload sits the rerun out and rejoins at the
//!    agreement (the paper's rule — never send a rank what it already holds
//!    — applied to whole payloads). The binomial-scatter `(step, flag)`
//!    schedule is re-derived over that smaller world simply by running the
//!    same streams at the smaller size and renumbering their peers through
//!    the rerun list, like step 1. The loop repeats until every survivor
//!    holds the payload or the epoch budget is exhausted. (With
//!    [`RecoveryConfig::bounded_sendrecv`] every survivor reruns, as it
//!    always did.)
//!
//! [`degraded_bcast_schedule`] collects the very phase table and op map an
//! attempt runs, over any member list — the rerun's is the root plus the
//! survivors without the payload — so `schedcheck` verifies the regenerated
//! ring exactly like the full-world one, and what it verifies is what runs
//! (modulo the tag shift).
//!
//! A clean epoch pays for the broadcast and the `2·n·⌈log₂n⌉`-frame quorum
//! and for nothing else: no per-envelope decorator, and no bookkeeping per
//! rank beyond the member list — a committed quorum does not list the
//! members, a full world's digest takes O(1), and the attempt borrows the
//! member list while no rank sits a rerun out.
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
//! Like everything timeout-based, the attempt decomposes each `sendrecv` op
//! into an eager send followed by a bounded receive, so the transport must
//! deliver eagerly (the threaded backend always does; simulated worlds
//! need a model with a high `eager_threshold`). Under
//! [`RecoveryConfig::bounded_sendrecv`] the op stays one `exchange`, and
//! only lone receives are bounded.
//!
//! ## One loop, every executor
//!
//! The whole stack — bounded attempt, agreement round, epoch loop — is written
//! once against [`AsyncCommunicator`], so it runs unchanged on the
//! discrete-event executor at megascale (`P = 256..4096`) under its virtual
//! clock, where every timeout is free: a heartbeat deadline of seconds
//! elapses in zero wall time. Blocking executors drive the same futures
//! through `SyncComm` + `complete_now`, so a seeded fault plan replays to
//! the identical survivor set on every executor (asserted by the
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

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::time::Duration;

use mpsim::{deadline_after, AsyncCommunicator, CommError, Rank, Result, Tag};

use crate::bcast::{bcast_phases, collect_ops, Algorithm};
use crate::interp::{Interp, PhaseSink};
use crate::schedule::{RecvHalf, SchedOp, Schedule, SendHalf};

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
/// [`self_healing_bcast_async`] refuses a larger [`RecoveryConfig::max_epochs`].
pub const MAX_EPOCHS: u32 = (1 << MEMBERSHIP_DIGEST_SHIFT) / EPOCH_TAG_STRIDE;

/// Digest of an ascending member list (every list recovery builds is one),
/// folded into every *attempt* tag (never the agreement tag) and into the
/// membership quorum's seal.
///
/// It hashes the list's length and the ranks it leaves out below its last
/// member, as `(first left out, next member)` runs, so a full world `0..n`
/// digests in O(1) — no run to hash — and a list that lost a few ranks in
/// O(n). Other orders digest deterministically, but two orders of one set
/// may collide.
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
    let n = members.len();
    let mut h = fnv1a(FNV_OFFSET, (n as u32).to_le_bytes());
    // An ascending list that ends at `n − 1` is `0..n`: nothing left out.
    if members.last().is_some_and(|&last| last + 1 != n) {
        let mut next = 0;
        for &m in members {
            if m != next {
                h = fnv1a(h, [next as u32, m as u32].into_iter().flat_map(u32::to_le_bytes));
            }
            next = m + 1;
        }
    }
    // Folded to a 12-bit page well clear of the low pages (user + epoch +
    // agreement tags all sit below 0xB2xx).
    0x10 + h % 0xFE0
}

/// What an attempt of epoch `epoch` over a member list with digest `digest`
/// adds to every tag: the epoch's page plus the digest's.
pub(crate) fn attempt_shift(epoch: u32, digest: u32) -> u32 {
    epoch.wrapping_mul(EPOCH_TAG_STRIDE).wrapping_add(digest << MEMBERSHIP_DIGEST_SHIFT)
}

/// The 32-bit FNV-1a offset basis.
const FNV_OFFSET: u32 = 0x811C_9DC5;

/// 32-bit FNV-1a of `bytes`, continuing from hash `h`.
fn fnv1a(h: u32, bytes: impl IntoIterator<Item = u8>) -> u32 {
    bytes.into_iter().fold(h, |h, b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// Tuning knobs for [`self_healing_bcast_async`].
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
    /// whose frames in flight have a bounded attempt budget). The attempt
    /// then hands each `sendrecv` op to that `sendrecv` instead of
    /// decomposing it, and the agreement exchanges its reports pairwise.
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
    /// [`Agreement::agree`]) and a confirm quorum (`2·⌈log₂n⌉` receives of
    /// `2·step_timeout`, under one more heartbeat for every `n`): four
    /// heartbeats in all.
    fn pairwise_timeout(&self, members: usize) -> Duration {
        self.heartbeat_timeout(members).saturating_mul(4)
    }
}

/// What a successful [`self_healing_bcast_async`] reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Healed {
    /// The ranks (world numbering) on which the broadcast completed.
    pub survivors: Vec<Rank>,
    /// Number of attempts performed; `1` means no fault was observed.
    pub epochs: u32,
}

/// One rank's state after an attempt, exchanged in the agreement round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
enum Verdict {
    /// Nobody dead, every member full — what a committed quorum establishes,
    /// recorded without listing the members.
    EveryoneFull,
    /// Who is dead, and who of the others holds the payload.
    Split { dead: BTreeSet<Rank>, have_full: BTreeSet<Rank> },
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

    /// The confirm quorum's opening frame: a true conjunction sealed with a
    /// hash of `V`, so members holding different proposals cannot confirm
    /// each other.
    fn confirm_frame(&self) -> [u8; 5] {
        let [a, b, c, d] = fnv1a(FNV_OFFSET, self.frame.iter().copied()).to_le_bytes();
        [1, a, b, c, d]
    }

    /// `V` as this epoch's verdict over `members` (a superset of `live`).
    fn verdict(&self, members: &[Rank]) -> Verdict {
        let dead = members.iter().copied().filter(|&r| !self.has(Self::LIVE, r)).collect();
        let have_full = members.iter().copied().filter(|&r| self.has(Self::FULL, r)).collect();
        Verdict::Split { dead, have_full }
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

/// One stage of the agreement as its op streams see it: the phase label,
/// the tag, and the stage's frame buffer — the frame this rank sends at
/// `0..sent`, the frame it receives at `sent..sent + cap` (and a quorum's
/// false frame after that, see [`Stage::round`]).
#[derive(Debug, Clone, Copy)]
struct Stage {
    phase: &'static str,
    tag: Tag,
    sent: usize,
    cap: usize,
}

impl Stage {
    /// Stage `phase` of epoch `epoch`; the phase picks the tag. Reports
    /// (`"report"`, `"pairwise"`) share the pairwise tag.
    fn new(epoch: u32, phase: &'static str, sent: usize, cap: usize) -> Stage {
        let offset = match phase {
            "quorum" => QUORUM,
            "propose" => PROPOSAL,
            "confirm" => CONFIRM,
            _ => PAIRWISE,
        };
        let tag = AGREEMENT_TAG_BASE.wrapping_add(epoch.wrapping_mul(EPOCH_TAG_STRIDE));
        Stage { phase, tag: Tag(tag.wrapping_add(offset)), sent, cap }
    }

    /// Where a received frame lands.
    fn inbox(self) -> Range<usize> {
        self.sent..self.sent + self.cap
    }

    /// This rank's frame to `to` and the frame of `from`, each if given.
    fn op(self, to: Option<Rank>, from: Option<Rank>) -> SchedOp {
        let (phase, tag) = (self.phase, self.tag);
        let send = to.map(|peer| SendHalf { peer, tag, loc: 0..self.sent });
        SchedOp { phase, send, recv: from.map(|peer| RecvHalf { peer, tag, dst: self.inbox() }) }
    }

    /// Member `idx`'s quorum round at distance `dist`: its frame to the
    /// member `dist` positions ahead and — only while its conjunction `acc`
    /// holds — the frame of the member `dist` behind. A quorum's buffer holds
    /// both frames a member can send, each at a range of its own (an
    /// interpreter assumes a staged range never changes): the true one at
    /// `0..sent`, the false one after the inbox.
    fn round(self, members: &[Rank], idx: usize, dist: usize, acc: bool) -> SchedOp {
        let (n, end) = (members.len(), self.sent + self.cap);
        let loc = if acc { 0..self.sent } else { end..end + self.sent };
        let send = Some(SendHalf { peer: members[(idx + dist) % n], tag: self.tag, loc });
        let behind = members[(idx + n - dist) % n];
        let recv = acc.then(|| RecvHalf { peer: behind, tag: self.tag, dst: self.inbox() });
        SchedOp { phase: self.phase, send, recv }
    }
}

/// The distances of one quorum pass over `n` members: `1, 2, 4, … < n`.
fn distances(n: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |d| d.checked_mul(2)).take_while(move |&d| d < n)
}

/// How an agreement op ended, every error a live rank survives turned into
/// a value by [`Agreement::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// It completed, receiving this many bytes (none for a lone send).
    Done(usize),
    /// The arriving frame was longer than the receive's capacity.
    Overlong,
    /// The rank `PeerFailed` named — the op's peer, or another — exited.
    Exited(Rank),
    /// The receive's deadline passed.
    Silent,
}

/// A peer's report as a stage of the agreement read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heard {
    Report(Report),
    /// A wrong byte, a wrong length, or too long for the receive.
    Garbled,
    /// No report: the peer exited or stayed silent.
    Lost,
}

/// One rank's side of epoch `epoch`'s agreement over `members`, reporting
/// `mine` (see [`Agreement::agree`]).
struct Agreement<'a, C: ?Sized> {
    comm: &'a C,
    members: &'a [Rank],
    epoch: u32,
    mine: Report,
    cfg: &'a RecoveryConfig,
    /// Whether a garbled report was heard ([`branch::GARBLED_REPORT`]).
    garbled: Cell<bool>,
}

impl<C: AsyncCommunicator + ?Sized> Agreement<'_, C> {
    /// Agree on who is alive and who holds the payload after epoch `epoch`'s
    /// attempt. Up to four stages, each only when the ones before it did not
    /// settle the epoch, and each a per-rank stream of [`SchedOp`]s over a
    /// small frame buffer ([`Stage`]) — phases `quorum`, `report`, `propose`,
    /// `confirm` and `pairwise` — that [`Interp::bounded`] runs op by op, the
    /// logic between ops (the AND fold, [`Proposal`], decoding, the leader's
    /// abstain) staying local code, like `(step, flag)`:
    ///
    /// 1. **Membership quorum** ([`Agreement::quorum`]) — `2·⌈log₂n⌉` two-byte
    ///    frames per rank. If it commits, every member holds the payload and
    ///    knows that everyone does: the verdict is "nobody dead, everybody full"
    ///    without a single report. A fault-free epoch ends here.
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
    /// 3. **Confirm quorum** — the members holding `V` run the quorum again
    ///    over `V`'s live members, sealed with a hash of `V`. `Committed`: every
    ///    live member holds this `V`; adopt it. `Known`: every live member holds
    ///    it, but some may not know that, and others may already have adopted
    ///    it and left; send this rank's report to every live member (a peer
    ///    that fell through to the pairwise round needs it) and adopt `V`
    ///    *without waiting on anyone* — waiting would make this rank lag the
    ///    adopters into the next epoch by several deadlines, and they would
    ///    count it dead there. `Open` (or no `V` at all): stage 4.
    /// 4. **Pairwise round** — every member exchanges its report with every
    ///    other member; a member is dead iff it fails this exchange. The
    ///    fail-stop assumption plus the backends' definitive exited-rank
    ///    detection make the outcome identical on every live member — a dead
    ///    rank fails *everyone's* exchange, and the deadline
    ///    ([`RecoveryConfig::pairwise_timeout`]) is sized so a live rank never
    ///    does. The leader drops the receive half for a peer it already heard
    ///    from in stage 2 and reuses that outcome.
    ///
    /// Why adopting `V` is safe: a live member missing from `V` is impossible
    /// (exit evidence), a `Committed` and an `Open` confirmer never coexist (see
    /// [`Agreement::quorum`]), and a `Known` confirmer's report reaches every
    /// `Open` one. So either every live member adopts `V`, or the adopters
    /// (`Known`) and the pairwise round differ only by ranks that crashed
    /// during the confirm — which the next epoch's agreement removes.
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
    /// [`agreement_schedule`] and [`pairwise_schedule`] collect the same
    /// streams over every member, and `schedcheck` checks their matching,
    /// deadlock-freedom and volume. With [`RecoveryConfig::bounded_sendrecv`]
    /// stages 1–3 are skipped and every pairwise op stays one `exchange` (the
    /// interpreter's `fused_exchange`), which the communicator bounds itself.
    ///
    /// Every op only posts its frames ([`Interp::exec`]); [`Agreement::close`]
    /// settles them once the verdict is in, so that no deadline here waits on
    /// an acknowledgement.
    async fn agree(&self, trace: &mut RecoveryTrace) -> Result<Verdict> {
        let frame = [u8::from(self.mine.has_full), membership_digest(self.members) as u8];
        let known = !self.cfg.bounded_sendrecv
            && match self.quorum(self.members, "quorum", &frame).await? {
                Quorum::Committed => return Ok(Verdict::EveryoneFull),
                Quorum::Known => true,
                Quorum::Open => false,
            };
        // Boxed: a clean epoch never gets here, and keeping the later stages
        // out of this future keeps every rank task of a clean run small.
        let verdict = Box::pin(self.settle(known)).await;
        if self.garbled.get() {
            trace.hit(branch::GARBLED_REPORT);
        }
        verdict
    }

    /// Settle the frames the stages posted. A frame a peer never took is that
    /// peer's loss, not this rank's, so only this rank's own crash is an
    /// error here.
    async fn close(&self) -> Result<()> {
        match self.comm.flush(None).await {
            Err(CommError::PeerFailed { rank }) if rank == self.comm.rank() => {
                Err(CommError::PeerFailed { rank })
            }
            Err(CommError::PeerFailed { .. } | CommError::Timeout { .. }) => Ok(()),
            settled => settled,
        }
    }

    /// A bounded interpreter over a stage's `frames`, every take bounded by
    /// `wait`. A stage steps its stream through one, op by op, reading what
    /// each receive landed through [`Interp::buf`] between ops; only the
    /// leader's report reads take one each, bounded by what is left of one
    /// deadline.
    fn interp<'f>(&'f self, frames: &'f mut [u8], wait: Duration) -> Interp<'f, C, true> {
        Interp::bounded(self.comm, frames, wait, self.cfg.bounded_sendrecv)
    }

    /// Run one op on `interp` and say how it ended — the agreement's one
    /// error classifier. Only this rank's own crash (a `PeerFailed` naming
    /// it) and errors outside the fault model stay errors.
    async fn step(&self, interp: &mut Interp<'_, C, true>, op: SchedOp) -> Result<Outcome> {
        match interp.exec(op).await {
            Ok(got) => Ok(Outcome::Done(got)),
            Err(CommError::PeerFailed { rank }) if rank != self.comm.rank() => {
                Ok(Outcome::Exited(rank))
            }
            Err(CommError::Timeout { .. }) => Ok(Outcome::Silent),
            Err(CommError::Truncation { .. }) => Ok(Outcome::Overlong),
            Err(e) => Err(e),
        }
    }

    /// Send `frame` to every rank of `peers` as stage `phase`, best effort:
    /// a peer that is gone is simply not told. Only this rank's own crash
    /// stops the fan-out. One interpreter runs it, so the frame is staged
    /// once and every later send is a view of it.
    async fn tell(
        &self,
        peers: impl IntoIterator<Item = Rank>,
        frame: &mut [u8],
        phase: &'static str,
    ) -> Result<()> {
        let stage = Stage::new(self.epoch, phase, frame.len(), 0);
        let interp = &mut self.interp(frame, Duration::ZERO);
        for peer in peers {
            self.step(interp, stage.op(Some(peer), None)).await?;
        }
        Ok(())
    }

    /// The ranks of `of` other than this one.
    fn others<'b>(&self, of: &'b [Rank]) -> impl Iterator<Item = Rank> + 'b {
        let me = self.comm.rank();
        of.iter().copied().filter(move |&r| r != me)
    }

    /// What a receive that ended as `outcome`, landing at the start of
    /// `frame`, heard: a report that decodes, a garbled or overlong one, or
    /// none.
    fn hear(&self, outcome: Outcome, frame: &[u8]) -> Heard {
        let heard = match outcome {
            Outcome::Done(n) => Report::decode(&frame[..n]).map_or(Heard::Garbled, Heard::Report),
            Outcome::Overlong => Heard::Garbled,
            Outcome::Exited(_) | Outcome::Silent => Heard::Lost,
        };
        self.garbled.set(self.garbled.get() || heard == Heard::Garbled);
        heard
    }

    /// AND-reduce the conjunction `frame[0]` over `over` by Bruck
    /// dissemination, twice: pass 1 folds it, pass 2 folds "my pass 1 came
    /// out true". Each pass is `⌈log₂n⌉` rounds ([`Stage::round`]) of one
    /// `[conjunction, seal…]` frame sent to the member `dist` positions ahead
    /// and one received from the member `dist` behind, `dist = 1, 2, 4, … <
    /// n`, so after a pass the conjunction covers every member.
    /// [`Agreement::agree`] runs it twice per failed epoch: as phase `quorum`
    /// over the members with "I hold the full payload" sealed by the
    /// membership digest's low byte (two-byte frames), then as phase
    /// `confirm` over a proposal's live members with "I hold this proposal"
    /// sealed by the proposal's hash (five-byte frames).
    ///
    /// The conjunction can only ever turn *false*: a `0` frame, a timeout, a
    /// failed or garbled partner, or a frame carrying another seal all clear
    /// it — only a frame equal to this rank's own keeps it. A rank whose
    /// conjunction is false drops the receive half of every remaining round
    /// of both passes but still sends, so the falsehood reaches everyone in
    /// at most `2·⌈log₂n⌉` hops and nobody waits on it. Hence on a lossless
    /// fabric a `Committed` rank and an `Open` one never coexist among the
    /// live members: an `Open` rank's zeros would have reached the
    /// committer. All rounds share one tag: a pass's distances are distinct
    /// sources, and per-`(src, tag)` FIFO orders pass 1 before pass 2 from
    /// the same source.
    ///
    /// Receives are bounded by `2 · step_timeout`, *not* the heartbeat
    /// deadline, so a whole quorum takes at most `4·⌈log₂n⌉` step timeouts —
    /// under one heartbeat deadline for every `n`. Safety never depends on
    /// the bound — a false timeout costs a later stage, never a wrong
    /// verdict — so it only has to exceed the entry skew of a clean attempt.
    /// It has to stay this small because the later stages are sound only
    /// while a live peer lags by less than their deadlines: a rank that fell
    /// through at once must not wait them out on a peer still sitting in a
    /// quorum timeout.
    async fn quorum(&self, over: &[Rank], phase: &'static str, frame: &[u8]) -> Result<Quorum> {
        // Member lists and a proposal's live list are ascending.
        let Ok(idx) = over.binary_search(&self.comm.rank()) else {
            return Ok(Quorum::Open);
        };
        // Frames are two or five bytes; a longer one is overlong.
        let stage = Stage::new(self.epoch, phase, frame.len(), 5);
        let (sent, false_at) = (stage.sent, stage.sent + stage.cap);
        let mut frames = [0u8; 15];
        frames[..sent].copy_from_slice(frame);
        frames[false_at..false_at + sent].copy_from_slice(frame);
        (frames[0], frames[false_at]) = (1, 0);
        let (mut acc, mut known) = (frame[0] == 1, false);
        let interp = &mut self.interp(&mut frames, self.cfg.step_timeout.saturating_mul(2));
        for pass in 0..2 {
            for dist in distances(over.len()) {
                let heard = self.step(interp, stage.round(over, idx, dist, acc)).await?;
                // Only a frame equal to this rank's own keeps the conjunction.
                let buf = interp.buf();
                acc = heard == Outcome::Done(sent) && buf[stage.inbox()].starts_with(&buf[..sent]);
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

    /// Stages 2–4 of [`Agreement::agree`]; `known` says the membership
    /// quorum came out [`Quorum::Known`] on this rank.
    async fn settle(&self, known: bool) -> Result<Verdict> {
        let (me, members) = (self.comm.rank(), self.members);
        let mut heard = BTreeMap::new();
        if self.cfg.bounded_sendrecv {
            return self.pairwise(&heard).await;
        }
        // `members` is ascending: it starts as `0..size` and only ever
        // shrinks by `retain`.
        let leader = members[0];
        if known {
            if me == leader {
                self.tell(self.others(members), &mut Proposal::ABSTAIN.to_vec(), "propose").await?;
            }
            self.pairwise(&heard).await?;
            return Ok(Verdict::EveryoneFull);
        }
        let proposal = if me == leader {
            self.propose(&mut heard).await?
        } else {
            self.follow(leader).await?
        };
        if let Some(v) = proposal {
            let live = v.live();
            match self.quorum(&live, "confirm", &v.confirm_frame()).await? {
                Quorum::Committed => return Ok(v.verdict(members)),
                Quorum::Known => {
                    self.tell(self.others(&live), &mut self.mine.encode(), "report").await?;
                    return Ok(v.verdict(members));
                }
                Quorum::Open => {}
            }
        }
        self.pairwise(&heard).await
    }

    /// The leader's side of stage 2: read every member's report under one
    /// heartbeat deadline, recording each outcome in `heard` for the
    /// pairwise round, then send `V` to every live member — or, at the first
    /// doubt, the abstain frame to every member that has not exited,
    /// returning `None`.
    async fn propose(&self, heard: &mut BTreeMap<Rank, Heard>) -> Result<Option<Proposal>> {
        let me = self.comm.rank();
        let stage = Stage::new(self.epoch, "report", 0, 2);
        let wait = self.cfg.heartbeat_timeout(self.members.len());
        let deadline = deadline_after(self.comm.now_ns(), wait);
        let mut frames = [0u8; 2];
        for peer in self.others(self.members) {
            // Each read is bounded by what is left of the one deadline.
            let left = Duration::from_nanos(deadline.saturating_sub(self.comm.now_ns()));
            let interp = &mut self.interp(&mut frames, left);
            let outcome = self.step(interp, stage.op(None, Some(peer))).await?;
            let report = self.hear(outcome, interp.buf());
            // Exit evidence — the peer left the world with nothing queued —
            // is an answer; any other lost report is doubt.
            if report != Heard::Lost || outcome == Outcome::Exited(peer) {
                heard.insert(peer, report);
            }
            if report == Heard::Garbled || !heard.contains_key(&peer) {
                let told = self.others(self.members).filter(|r| heard.get(r) != Some(&Heard::Lost));
                self.tell(told, &mut Proposal::ABSTAIN.to_vec(), "propose").await?;
                return Ok(None);
            }
        }
        let reports = heard.iter().filter_map(|(&r, h)| match h {
            Heard::Report(report) => Some((r, report.has_full)),
            _ => None,
        });
        let mut v = Proposal::new(self.comm.size(), reports.chain([(me, self.mine.has_full)]));
        self.tell(self.others(&v.live()), &mut v.frame, "propose").await?;
        Ok(Some(v))
    }

    /// A non-leader's side of stage 2: send this rank's report to the
    /// leader, then wait two heartbeats for `V`. `None` — fall through to the
    /// pairwise round — on the abstain frame, on silence or exit of the
    /// leader, and on a `V` that is garbled, leaves this rank out, or names a
    /// rank this rank already counts dead.
    async fn follow(&self, leader: Rank) -> Result<Option<Proposal>> {
        let (me, world) = (self.comm.rank(), self.comm.size());
        self.tell([leader], &mut self.mine.encode(), "report").await?;
        // The spare byte lets an overlong frame reach `decode`, which
        // rejects it.
        let stage = Stage::new(self.epoch, "propose", 0, Proposal::frame_len(world) + 1);
        let mut frames = vec![0u8; stage.cap];
        let wait = self.cfg.heartbeat_timeout(self.members.len()).saturating_mul(2);
        let interp = &mut self.interp(&mut frames, wait);
        let outcome = self.step(interp, stage.op(None, Some(leader))).await?;
        let Outcome::Done(got) = outcome else { return Ok(None) };
        Ok(Proposal::decode(&frames[..got], world).filter(|v| {
            let ours = self.members.iter().filter(|&&m| v.has(Proposal::LIVE, m)).count();
            v.has(Proposal::LIVE, me) && ours == v.live().len()
        }))
    }

    /// Stage 4 of [`Agreement::agree`]: exchange reports with every other
    /// member in ascending order, reusing an outcome in `heard` (the
    /// leader's stage-2 reads) instead of receiving.
    async fn pairwise(&self, heard: &BTreeMap<Rank, Heard>) -> Result<Verdict> {
        let me = self.comm.rank();
        // A report is one byte; the spare byte lets a two-byte frame reach
        // `Report::decode`, anything longer is overlong.
        let stage = Stage::new(self.epoch, "pairwise", 1, 2);
        let mut frames = [self.mine.encode()[0], 0, 0];
        let interp = &mut self.interp(&mut frames, self.cfg.pairwise_timeout(self.members.len()));
        let mut dead = BTreeSet::new();
        let mut have_full: BTreeSet<Rank> = self.mine.has_full.then_some(me).into_iter().collect();
        for peer in self.others(self.members) {
            let reused = heard.get(&peer).copied();
            let op = stage.op(Some(peer), reused.is_none().then_some(peer));
            let outcome = self.step(interp, op).await?;
            let report = match reused.filter(|_| matches!(outcome, Outcome::Done(_))) {
                Some(report) => report,
                None => self.hear(outcome, &interp.buf()[stage.inbox()]),
            };
            // A garbled report from a live rank violates the fault model;
            // treating the rank as failed keeps us moving.
            match report {
                Heard::Report(theirs) => have_full.extend(theirs.has_full.then_some(peer)),
                Heard::Garbled | Heard::Lost => dead.extend([peer]),
            }
        }
        have_full.retain(|r| !dead.contains(r));
        Ok(Verdict::Split { dead, have_full })
    }
}

/// One epoch's agreement over the members `0..p` when they all enter it
/// together and nothing fails inside it: every member's streams as
/// [`Agreement::agree`] runs them, over the same stage frame buffers (one
/// tracked buffer, all valid). `full(r)` is member `r`'s report; `silent` is a
/// non-leader member that exited before the agreement. It runs nothing, but
/// the frames sent to it and the leader's take of its report — which fails
/// at once with exit evidence — stay in the others' streams. Each quorum
/// round is settled in lockstep: a partner's frame carries its conjunction
/// before the round, a silent partner's never comes.
///
/// Without `silent` and with every member full, the membership quorum
/// commits ([`crate::traffic::agreement_volume`]). Otherwise every
/// conjunction comes out false, and the leader stages settle the epoch
/// ([`crate::traffic::failed_agreement_volume`]). Panics if `silent` is the
/// leader or outside the world.
pub fn agreement_schedule(p: usize, full: impl Fn(Rank) -> bool, silent: Option<Rank>) -> Schedule {
    assert!(silent.is_none_or(|s| (1..p).contains(&s)), "the silent member must be a non-leader");
    let members: Vec<Rank> = (0..p).collect();
    let live: Vec<Rank> = members.iter().copied().filter(|&r| Some(r) != silent).collect();
    let frame_len = Proposal::frame_len(p);
    let buf_len = (frame_len + 1).max(15);
    let mut s = Schedule::new("agreement", p, buf_len);
    s.ranks.iter_mut().for_each(|r| r.mark_valid(0..buf_len));
    let input = members.iter().map(|&r| (Some(r) != silent).then(|| full(r))).collect();
    if lockstep(&mut s, &members, Stage::new(0, "quorum", 2, 5), input) {
        return s;
    }
    let leader = members[0];
    let reads = Stage::new(0, "report", 0, 2);
    s.ranks[leader].ops.extend(members[1..].iter().map(|&r| reads.op(None, Some(r))));
    let proposals = Stage::new(0, "propose", frame_len, 0);
    s.ranks[leader].ops.extend(live[1..].iter().map(|&r| proposals.op(Some(r), None)));
    let (report, proposal) =
        (Stage::new(0, "report", 1, 0), Stage::new(0, "propose", 0, frame_len + 1));
    for &r in &live[1..] {
        s.ranks[r].ops.extend([report.op(Some(leader), None), proposal.op(None, Some(leader))]);
    }
    lockstep(&mut s, &live, Stage::new(0, "confirm", 5, 5), vec![Some(true); live.len()]);
    s
}

/// Push every member's rounds of one quorum onto `s`, settled in lockstep:
/// `acc[i]` is member `i`'s input, `None` for a silent member. Returns
/// whether every live member's conjunction came out true.
fn lockstep(s: &mut Schedule, over: &[Rank], stage: Stage, mut acc: Vec<Option<bool>>) -> bool {
    for dist in distances(over.len()).chain(distances(over.len())) {
        let sent = acc.clone();
        for (idx, a) in acc.iter_mut().enumerate() {
            let Some(holds) = *a else { continue };
            let op = stage.round(over, idx, dist, holds);
            let partner = |r: &RecvHalf| over.binary_search(&r.peer).ok().and_then(|j| sent[j]);
            *a = Some(op.recv.as_ref().and_then(partner).unwrap_or(false));
            s.ranks[over[idx]].ops.push(op);
        }
    }
    acc.into_iter().flatten().all(|a| a)
}

/// The pairwise round over the members `0..p`, every one live: each sends
/// its report to, and receives the report of, every other member in
/// ascending order — [`Agreement::agree`]'s stage 4 without the leader's
/// reuse.
pub fn pairwise_schedule(p: usize) -> Schedule {
    let stage = Stage::new(0, "pairwise", 1, 2);
    let mut s = Schedule::new("agreement/pairwise", p, 3);
    for (me, rank) in s.ranks.iter_mut().enumerate() {
        rank.mark_valid(0..1);
        rank.ops = (0..p).filter(|&r| r != me).map(|r| stage.op(Some(r), Some(r))).collect();
    }
    s
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
pub async fn self_healing_bcast_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    cfg: &RecoveryConfig,
) -> Result<Healed> {
    let (algorithm, drill) = (Algorithm::ScatterRingTuned, RecoveryDrill::NONE);
    let mut trace = RecoveryTrace::default();
    self_healing_bcast_traced_async(comm, buf, root, algorithm, cfg, &drill, &mut trace).await
}

/// The fully-instrumented entry point: [`self_healing_bcast_async`] with an
/// explicit algorithm for the attempts, plus a [`RecoveryTrace`] filled in as
/// the epoch loop runs (also on the error paths — a crashed or starved rank
/// still reports how far it got) and the [`RecoveryDrill`] regression knobs
/// for the chaos-search drill.
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
    // Who the last verdict marked full. Resume, don't restart: those members
    // already hold the payload, so only the root and the others rerun the
    // attempt. (Never under `bounded_sendrecv`, whose path stays exactly the
    // restart it always was.)
    let mut full: BTreeSet<Rank> = BTreeSet::new();
    trace.root_chain.push(root);

    for epoch in 0..max_epochs {
        trace.epochs_entered = epoch + 1;
        if me == current_root || !full.contains(&me) {
            let runners: Cow<'_, [Rank]> = if full.is_empty() {
                Cow::Borrowed(&members)
            } else {
                members
                    .iter()
                    .copied()
                    .filter(|&m| m == current_root || !full.contains(&m))
                    .collect()
            };
            // A typed error, never a stall: root succession keeps the root a
            // member and `me` is always one; only the drill's
            // `skip_root_succession` leaves a dead root in charge.
            let rerun = Rerun::new(&runners, me, current_root, epoch)?;
            match attempt(comm, buf, algorithm, &rerun, cfg).await {
                Ok(()) => {
                    trace.hit(branch::CLEAN_ATTEMPT);
                    has_full = true;
                }
                // Attempt-time stalls only mark the attempt failed; membership
                // is decided by the agreement round.
                Err(CommError::Timeout { peer }) | Err(CommError::PeerFailed { rank: peer }) => {
                    if peer == me {
                        trace.hit(branch::SELF_CRASH);
                        return Err(CommError::PeerFailed { rank: me });
                    }
                    trace.hit(branch::STALLED_ATTEMPT);
                }
                Err(e) => return Err(e),
            }
        }

        let report = Report { has_full: has_full || drill.claim_full_payload };
        let garbled = Cell::new(false);
        let agreement = Agreement { comm, members: &members, epoch, mine: report, cfg, garbled };
        let verdict = match agreement.agree(trace).await {
            Ok(verdict) => agreement.close().await.map(|()| verdict),
            failed => failed,
        };
        let verdict = verdict.inspect_err(|e| {
            if *e == (CommError::PeerFailed { rank: me }) {
                trace.hit(branch::SELF_CRASH);
            }
        })?;
        let (dead, have_full) = match verdict {
            Verdict::EveryoneFull => {
                trace.hit(branch::HEALED_ALL);
                return Ok(Healed { survivors: members, epochs: epoch + 1 });
            }
            Verdict::Split { dead, have_full } => (dead, have_full),
        };

        if !dead.is_empty() {
            trace.hit(branch::DEATH_OBSERVED);
            all_dead.extend(dead.iter().copied());
            trace.deaths_observed = all_dead.len();
        }

        if dead.is_empty() && have_full.len() == members.len() {
            trace.hit(branch::HEALED_ALL);
            return Ok(Healed { survivors: members, epochs: epoch + 1 });
        }

        members.retain(|r| !dead.contains(r));
        match have_full.iter().next() {
            Some(&lowest) => {
                // `skip_root_succession` is the seeded regression: a dead
                // root keeps the role.
                let keeps_role = have_full.contains(&current_root) || drill.skip_root_succession;
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
        if members.len() == have_full.len() && members.iter().all(|r| have_full.contains(r)) {
            trace.hit(branch::HEALED_SURVIVORS);
            return Ok(Healed { survivors: members, epochs: epoch + 1 });
        }
        if !cfg.bounded_sendrecv {
            full = have_full;
        }
    }
    trace.hit(branch::EPOCH_BUDGET_EXHAUSTED);
    Err(CommError::Timeout { peer: current_root })
}

/// One epoch's attempt world as one rank runs it.
struct Rerun<'m> {
    /// World ranks of the runners; local rank `l` is `runners[l]`.
    runners: &'m [Rank],
    /// This rank's local rank.
    local: Rank,
    /// The root's local rank.
    root: Rank,
    /// What every tag gains ([`attempt_shift`]).
    shift: u32,
}

impl<'m> Rerun<'m> {
    /// Epoch `epoch`'s attempt world over `runners` (ascending, like every
    /// member list), as rank `me` runs it from `root` (world ranks). Fails
    /// with [`CommError::PeerFailed`] naming `me` or `root` if that rank is
    /// not a runner.
    fn new(runners: &'m [Rank], me: Rank, root: Rank, epoch: u32) -> Result<Self> {
        let local =
            |r: Rank| runners.binary_search(&r).map_err(|_| CommError::PeerFailed { rank: r });
        Ok(Rerun {
            runners,
            local: local(me)?,
            root: local(root)?,
            // The rerun list, not the member list, fixes the schedule, so
            // it is what the attempt's tags must isolate.
            shift: attempt_shift(epoch, membership_digest(runners)),
        })
    }

    /// Hand `sink` the phase table of `algorithm` for this world, every op
    /// renumbered into world ranks and tagged for the epoch.
    async fn phases(
        &self,
        sink: impl PhaseSink,
        algorithm: Algorithm,
        nbytes: usize,
    ) -> Result<()> {
        let (runners, shift) = (self.runners, self.shift);
        let to_world =
            move |op: SchedOp| op.relabel(|l, tag| (runners[l], Tag(tag.0.wrapping_add(shift))));
        bcast_phases(sink, algorithm, self.local, runners.len(), nbytes, self.root, to_world).await
    }
}

/// This rank's part of `rerun`, run by one bounded interpreter on the bare
/// `comm` (see [`Interp::bounded`]); an error names a world rank. Fails with
/// [`CommError::Unsupported`] — before anything is posted — on a rerun
/// world the algorithm is not defined for.
async fn attempt<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    algorithm: Algorithm,
    rerun: &Rerun<'_>,
    cfg: &RecoveryConfig,
) -> Result<()> {
    let nbytes = buf.len();
    let interp = Interp::bounded(comm, buf, cfg.step_timeout, cfg.bounded_sendrecv);
    rerun.phases(interp, algorithm, nbytes).await
}

/// The symbolic schedule of a degraded rerun: each survivor's op stream for
/// the shrunken world of `members`, renumbered into full-world ranks — the
/// phase table and op map an attempt runs, collected with no tag shift.
/// `root` is the *world* rank of the rerun's root and must be a member.
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
        let rerun = Rerun { runners: members, local, root: local_root, shift: 0 };
        s.ranks[m].ops = collect_ops(async |ops| rerun.phases(ops, algorithm, nbytes).await);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch_guard::{EpochComm, GuardedComm};
    use crate::traffic::{agreement_volume, bcast_volume, failed_agreement_volume, Volume};
    use mpsim::{complete_now, Communicator, EventWorld, SubComm, SyncComm, ThreadWorld};

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    fn quick_cfg() -> RecoveryConfig {
        RecoveryConfig { step_timeout: Duration::from_millis(100), ..RecoveryConfig::default() }
    }

    /// One epoch's agreement on `comm`'s rank, as the epoch loop runs it.
    async fn agree<C: AsyncCommunicator + ?Sized>(
        comm: &C,
        members: &[Rank],
        epoch: u32,
        mine: &Report,
        cfg: &RecoveryConfig,
        trace: &mut RecoveryTrace,
    ) -> Result<Verdict> {
        let garbled = Cell::new(false);
        let agreement = Agreement { comm, members, epoch, mine: *mine, cfg, garbled };
        let verdict = agreement.agree(trace).await?;
        agreement.close().await.map(|()| verdict)
    }

    /// The dead and full sets of a verdict that lists them.
    fn sets(v: Verdict) -> (BTreeSet<Rank>, BTreeSet<Rank>) {
        match v {
            Verdict::Split { dead, have_full } => (dead, have_full),
            Verdict::EveryoneFull => panic!("expected a verdict that lists its sets"),
        }
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
        assert_eq!(sets(v.verdict(&[0, 1, 3, 9])), (BTreeSet::from([1]), BTreeSet::from([0, 9])));
        assert!(Proposal::decode(&Proposal::ABSTAIN, 10).is_none(), "abstain");
        assert!(Proposal::decode(&v.frame[..4], 10).is_none(), "short frame");
        assert!(Proposal::decode(&[1, 0, 0b100, 0, 0], 10).is_none(), "rank 10 is past the world");
        assert!(Proposal::decode(&[1, 0, 0, 0b1, 0], 10).is_none(), "full but not live");
        assert_ne!(v.confirm_frame(), Proposal::new(10, [(0, true)].into_iter()).confirm_frame());
    }

    #[test]
    fn fault_free_bcast_completes_in_one_epoch() {
        let n = 777;
        let src = pattern(n);
        let out = ThreadWorld::run(8, |comm| {
            let mut buf = if comm.rank() == 2 { src.clone() } else { vec![0u8; n] };
            let healed = complete_now(self_healing_bcast_async(
                &SyncComm::new(comm),
                &mut buf,
                2,
                &quick_cfg(),
            ))
            .unwrap();
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
            let healed = complete_now(self_healing_bcast_async(
                &SyncComm::new(comm),
                &mut buf,
                0,
                &quick_cfg(),
            ))
            .unwrap();
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
            let healed = complete_now(self_healing_bcast_async(
                &SyncComm::new(comm),
                &mut buf,
                3,
                &quick_cfg(),
            ))
            .unwrap();
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
            complete_now(self_healing_bcast_async(&SyncComm::new(comm), &mut buf, 0, &quick_cfg()))
                .err()
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
        // The decorator stack a `bounded_sendrecv` attempt used to run on
        // (the frozen benchmark still times it), over members 4, 2, 0
        // (local 0, 1, 2). Parent rank 2 is dead: the guarded `sendrecv`
        // (an eager post, then a step-bounded take) must name local rank 1,
        // the numbering every layer above the `SubComm` reasons in — parent
        // rank 4 would be out of its bounds. The take fails as soon as the
        // dead rank's thread has exited, so the generous step deadline only
        // keeps a slow scheduler from turning that into a timeout.
        let members = vec![4, 2, 0];
        let out = ThreadWorld::run(5, |comm| {
            let acomm = SyncComm::new(comm);
            let sub = SubComm::new(&acomm, members.clone())?;
            if sub.rank() == 1 {
                return None;
            }
            let epoch_comm = EpochComm::isolated(&sub, 1, membership_digest(&members));
            let guarded = GuardedComm::new(&epoch_comm, Duration::from_secs(10));
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

    /// Records every call an interpreter makes and answers each take with
    /// `capacity` zero bytes: enough to run one rank's attempt alone and read
    /// back the stream it executes.
    struct Tape {
        me: Rank,
        p: usize,
        calls: std::cell::RefCell<Vec<Call>>,
    }

    #[derive(Debug, PartialEq, Eq)]
    enum Call {
        Post { peer: Rank, tag: Tag, len: usize },
        Take { peer: Rank, tag: Tag, cap: usize, timeout: Option<Duration> },
        Exchange { to: Rank, stag: Tag, len: usize, from: Rank, rtag: Tag, cap: usize },
    }

    impl AsyncCommunicator for Tape {
        fn rank(&self) -> Rank {
            self.me
        }

        fn size(&self) -> usize {
            self.p
        }

        fn now_ns(&self) -> u64 {
            0
        }

        async fn barrier(&self) -> Result<()> {
            Ok(())
        }

        fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
            data.to_vec().into()
        }

        fn note_copy(&self, _: usize) {}

        async fn post(&self, payload: mpsim::Payload, peer: Rank, tag: Tag) -> Result<()> {
            self.calls.borrow_mut().push(Call::Post { peer, tag, len: payload.len() });
            Ok(())
        }

        async fn take(
            &self,
            cap: usize,
            peer: Rank,
            tag: Tag,
            timeout: Option<Duration>,
        ) -> Result<mpsim::Payload> {
            self.calls.borrow_mut().push(Call::Take { peer, tag, cap, timeout });
            Ok(vec![0; cap].into())
        }

        async fn exchange(
            &self,
            payload: mpsim::Payload,
            to: Rank,
            stag: Tag,
            cap: usize,
            from: Rank,
            rtag: Tag,
        ) -> Result<mpsim::Payload> {
            let len = payload.len();
            self.calls.borrow_mut().push(Call::Exchange { to, stag, len, from, rtag, cap });
            Ok(vec![0; cap].into())
        }

        async fn flush(&self, _: Option<Duration>) -> Result<()> {
            Ok(())
        }

        async fn acknowledge(&self) -> Result<()> {
            Ok(())
        }
    }

    /// The calls a bounded interpreter makes for `ops` with every tag shifted.
    fn expected_calls(ops: &[SchedOp], shift: u32, cfg: &RecoveryConfig) -> Vec<Call> {
        let at = |tag: Tag| Tag(tag.0.wrapping_add(shift));
        let timeout = Some(cfg.step_timeout);
        let mut calls = Vec::new();
        for op in ops {
            match (&op.send, &op.recv) {
                (Some(s), Some(r)) if cfg.bounded_sendrecv => calls.push(Call::Exchange {
                    to: s.peer,
                    stag: at(s.tag),
                    len: s.loc.len(),
                    from: r.peer,
                    rtag: at(r.tag),
                    cap: r.dst.len(),
                }),
                (s, r) => {
                    if let Some(s) = s {
                        calls.push(Call::Post { peer: s.peer, tag: at(s.tag), len: s.loc.len() });
                    }
                    if let Some(r) = r {
                        let (peer, tag, cap) = (r.peer, at(r.tag), r.dst.len());
                        calls.push(Call::Take { peer, tag, cap, timeout });
                    }
                }
            }
        }
        calls
    }

    #[test]
    fn the_attempt_runs_the_degraded_schedule_with_shifted_tags() {
        use testkit::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::new(0x5EED_0030);
        let algorithms = [
            Algorithm::Binomial,
            Algorithm::ScatterRdAllgather,
            Algorithm::ScatterRingNative,
            Algorithm::ScatterRingTuned,
        ];
        let epoch = 3;
        for p in 1..=32usize {
            let nbytes = 8 * p + 3;
            for root in 0..p {
                // The full world and two seeded rerun lists around the root.
                let mut lists = vec![(0..p).collect::<Vec<Rank>>()];
                for _ in 0..2 {
                    lists.push((0..p).filter(|&r| r == root || rng.gen_bool()).collect());
                }
                for runners in &lists {
                    for algorithm in algorithms.into_iter().filter(|a| a.supports(runners.len())) {
                        let schedule = degraded_bcast_schedule(algorithm, p, nbytes, runners, root);
                        for bounded_sendrecv in [false, true] {
                            let cfg = RecoveryConfig { bounded_sendrecv, ..quick_cfg() };
                            for &m in runners {
                                let tape = Tape { me: m, p, calls: Default::default() };
                                let rerun = Rerun::new(runners, m, root, epoch).unwrap();
                                let mut buf = vec![0u8; nbytes];
                                complete_now(attempt(&tape, &mut buf, algorithm, &rerun, &cfg))
                                    .unwrap();
                                let want =
                                    expected_calls(&schedule.ranks[m].ops, rerun.shift, &cfg);
                                assert_eq!(
                                    tape.calls.into_inner(),
                                    want,
                                    "{algorithm:?} P={p} root {root} runners {runners:?} rank {m} \
                                     bounded_sendrecv={bounded_sendrecv}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // The shift is the epoch's page plus the runners' digest.
        let rerun = Rerun::new(&[0, 2, 5], 2, 5, epoch).unwrap();
        assert_eq!((rerun.local, rerun.root), (1, 2));
        assert_eq!(rerun.shift, 3 * EPOCH_TAG_STRIDE + (membership_digest(&[0, 2, 5]) << 12));
        assert_eq!(
            Rerun::new(&[0, 2, 5], 2, 4, epoch).err(),
            Some(CommError::PeerFailed { rank: 4 }),
            "a root outside the runners is a typed error"
        );
    }

    #[test]
    fn membership_digest_hashes_what_a_list_leaves_out() {
        let full: Vec<Rank> = (0..1024).collect();
        let mut lost = full.clone();
        lost.remove(341);
        assert_ne!(membership_digest(&full), membership_digest(&lost));
        assert_ne!(membership_digest(&full), membership_digest(&full[..1023]));
        assert_ne!(membership_digest(&lost), membership_digest(&full[1..]));
        assert_eq!(membership_digest(&lost), membership_digest(&lost.clone()));
        for list in [&full[..], &lost, &[], &[7]] {
            let d = membership_digest(list);
            assert!((0x10..0x1000).contains(&d), "{d:#x} leaves the digest page");
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

    /// Drive [`Agreement::quorum`] alone on a 5-rank event world; `role(rank)` is `None`
    /// for a rank that exits without taking part, else its `has_full`.
    /// Returns each participant's outcome and the frames each rank sent.
    fn quorum_world(role: fn(Rank) -> Option<bool>) -> (Vec<Option<Quorum>>, Vec<u64>) {
        let members: Vec<Rank> = (0..5).collect();
        let out = EventWorld::run(5, |comm| {
            let members = members.clone();
            async move {
                let has_full = role(comm.rank())?;
                let (cfg, garbled) = (quick_cfg(), Cell::new(false));
                let mine = Report { has_full };
                let a = Agreement {
                    comm: &comm,
                    members: &members,
                    epoch: 0,
                    mine,
                    cfg: &cfg,
                    garbled,
                };
                let frame = [u8::from(has_full), membership_digest(&members) as u8];
                Some(a.quorum(&members, "quorum", &frame).await.unwrap())
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
                Some((verdict.map(sets), trace))
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

    /// Forwards every core call to `inner` and logs it: the sequence
    /// `FaultyComm`'s crash clock counts, with each call's deadline.
    struct Log<'a, C: ?Sized> {
        inner: &'a C,
        calls: std::cell::RefCell<Vec<Call>>,
    }

    impl<C: AsyncCommunicator + ?Sized> AsyncCommunicator for Log<'_, C> {
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
            self.inner.barrier().await
        }

        fn make_shared(&self, data: &[u8]) -> mpsim::SharedBuf {
            self.inner.make_shared(data)
        }

        fn note_copy(&self, bytes: usize) {
            self.inner.note_copy(bytes)
        }

        async fn post(&self, payload: mpsim::Payload, peer: Rank, tag: Tag) -> Result<()> {
            self.calls.borrow_mut().push(Call::Post { peer, tag, len: payload.len() });
            self.inner.post(payload, peer, tag).await
        }

        async fn take(
            &self,
            cap: usize,
            peer: Rank,
            tag: Tag,
            timeout: Option<Duration>,
        ) -> Result<mpsim::Payload> {
            self.calls.borrow_mut().push(Call::Take { peer, tag, cap, timeout });
            self.inner.take(cap, peer, tag, timeout).await
        }

        async fn exchange(
            &self,
            payload: mpsim::Payload,
            to: Rank,
            stag: Tag,
            cap: usize,
            from: Rank,
            rtag: Tag,
        ) -> Result<mpsim::Payload> {
            let len = payload.len();
            self.calls.borrow_mut().push(Call::Exchange { to, stag, len, from, rtag, cap });
            self.inner.exchange(payload, to, stag, cap, from, rtag).await
        }

        /// Not logged: the crash clock does not count it.
        async fn flush(&self, within: Option<Duration>) -> Result<()> {
            self.inner.flush(within).await
        }

        /// Not logged, like `flush`.
        async fn acknowledge(&self) -> Result<()> {
            self.inner.acknowledge().await
        }
    }

    /// Every rank's core calls in one epoch's agreement on an event world of
    /// `p` members, all full, `silent` exiting before it starts.
    fn agreement_calls(p: usize, silent: Option<Rank>) -> Vec<Vec<Call>> {
        let members: Vec<Rank> = (0..p).collect();
        let out = EventWorld::run(p, |comm| {
            let members = members.clone();
            async move {
                let log = Log { inner: &comm, calls: Default::default() };
                if Some(comm.rank()) != silent {
                    let mut trace = RecoveryTrace::default();
                    let mine = Report { has_full: true };
                    agree(&log, &members, 0, &mine, &quick_cfg(), &mut trace).await.unwrap();
                }
                log.calls.into_inner()
            }
        });
        out.results
    }

    #[test]
    fn the_agreement_keeps_its_core_calls_call_for_call() {
        // The crash clock of `FaultPlan::with_crash` counts these calls, so
        // every crash point of the recovery tests depends on their order,
        // kind, peers, tags, lengths and deadlines. P = 3, clean: two passes
        // of two rounds, a two-byte frame ahead and a bounded take behind.
        let quorum = Tag(AGREEMENT_TAG_BASE + QUORUM);
        let bound = Some(Duration::from_millis(200));
        let rank0: Vec<Call> = [1, 2, 1, 2]
            .into_iter()
            .flat_map(|dist| {
                let take = Call::Take { peer: (3 - dist) % 3, tag: quorum, cap: 5, timeout: bound };
                [Call::Post { peer: dist, tag: quorum, len: 2 }, take]
            })
            .collect();
        assert_eq!(agreement_calls(3, None)[0], rank0);
        // Every shape, pinned by a digest of each rank's calls.
        let digest = |calls: &[Vec<Call>]| fnv1a(FNV_OFFSET, format!("{calls:?}").into_bytes());
        let mut got = Vec::new();
        for p in [3, 8, 10] {
            for silent in [None, Some(p / 2)] {
                let calls = agreement_calls(p, silent);
                got.push((p, silent, calls.iter().map(Vec::len).sum::<usize>(), digest(&calls)));
            }
        }
        let pinned = [
            (3, None, 24, 1_900_475_713),
            (3, Some(1), 24, 1_607_977_427),
            (8, None, 96, 1_067_530_785),
            (8, Some(4), 168, 2_449_191_852),
            (10, None, 160, 3_375_879_625),
            (10, Some(5), 274, 3_983_069_574),
        ];
        assert_eq!(got, pinned, "(P, silent member, calls, digest)");
    }

    #[test]
    fn failed_epoch_agreement_matches_its_closed_form() {
        // Every member but the odd ones holds the payload, and at most one
        // member exits before the agreement: the membership quorum fails,
        // the leader's proposal is confirmed, and the pairwise round never
        // runs. Every rank sends exactly what its collected stream plans.
        for p in 2..=16usize {
            let members: Vec<Rank> = (0..p).collect();
            for silent in [None, Some(1), Some(p / 2), Some(p - 1)] {
                let out = EventWorld::run(p, |comm| {
                    let members = members.clone();
                    async move {
                        if Some(comm.rank()) == silent {
                            return None;
                        }
                        let mut trace = RecoveryTrace::default();
                        let mine = Report { has_full: comm.rank() % 2 == 0 };
                        let v = agree(&comm, &members, 0, &mine, &quick_cfg(), &mut trace).await;
                        v.ok().map(sets)
                    }
                });
                let live = members.iter().copied().filter(|&r| Some(r) != silent);
                let verdict =
                    Some((silent.into_iter().collect(), live.filter(|r| r % 2 == 0).collect()));
                for (rank, got) in out.results.iter().enumerate() {
                    if Some(rank) != silent {
                        assert_eq!(*got, verdict, "P={p} silent {silent:?} rank {rank}");
                    }
                }
                let vol = failed_agreement_volume(p, p, p - usize::from(silent.is_some()));
                let planned = agreement_schedule(p, |r| r % 2 == 0, silent);
                assert_eq!(planned.planned_volume(), (vol.msgs, vol.bytes), "P={p} {silent:?}");
                for (rank, (sent, plan)) in
                    out.traffic.per_rank.iter().zip(&planned.ranks).enumerate()
                {
                    let what = format!("P={p} silent {silent:?} rank {rank}");
                    assert_eq!((sent.msgs_sent, sent.bytes_sent), plan.planned_sends(), "{what}");
                }
            }
        }
        // At scale, the world totals.
        let (p, gone) = (129, 64);
        let out = EventWorld::run(p, |comm| async move {
            if comm.rank() != gone {
                let members: Vec<Rank> = (0..p).collect();
                let (mine, mut trace) = (Report { has_full: true }, RecoveryTrace::default());
                let v = agree(&comm, &members, 0, &mine, &quick_cfg(), &mut trace).await;
                assert_eq!(v.map(sets).unwrap().0, BTreeSet::from([gone]));
            }
        });
        let vol = failed_agreement_volume(p, p, p - 1);
        assert_eq!((out.traffic.total_msgs(), out.traffic.total_bytes()), (vol.msgs, vol.bytes));
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
                let (algorithm, drill) = (Algorithm::Binomial, RecoveryDrill::NONE);
                let mut trace = RecoveryTrace::default();
                let healed = self_healing_bcast_traced_async(
                    &comm,
                    &mut buf,
                    0,
                    algorithm,
                    &quick_cfg(),
                    &drill,
                    &mut trace,
                )
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
        assert_eq!(attempt_shift(MAX_EPOCHS, 0x10), attempt_shift(0, 0x11));
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
