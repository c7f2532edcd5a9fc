//! `chaossearch` — coverage-guided adversarial fault-plan search over the
//! self-healing broadcast.
//!
//! Where [`crate::explore`] enumerates *schedules* of a fixed
//! communication pattern, this module searches the space of *fault plans*:
//! which ranks fail-stop, at which operation counts, and which link fault
//! rates (drop / duplicate / delay) the network injects. Every candidate
//! [`ChaosSpec`] is executed for real on the discrete-event executor
//! ([`mpsim::EventWorld`]) with the plan applied through a
//! [`netsim::FaultyComm`], and the completed launch is judged by the
//! recovery invariant oracle
//! ([`bcast_core::check_recovery_outcome`]): survivor-set sandwich,
//! byte-identical payload, epoch budget, liveness, per-link traffic
//! conservation, and the virtual-clock recovery-time bound.
//!
//! # Coverage signal
//!
//! The search is greybox, not blind. Each run is folded into a
//! [`Signature`] — the union of [`bcast_core::recovery::branch`] bits hit
//! by any rank, the deepest epoch count and root-succession chain, a death
//! tally, an outcome-class mask and a log₂ traffic bucket. A mutant whose
//! signature was never seen before joins the corpus and seeds further
//! mutation; one that only re-treads known behavior is discarded. Branch
//! bits are recorded by the recovery loop itself, so "interesting" means
//! *the recovery state machine did something new*, not merely "the plan
//! looks different".
//!
//! # Shrinking and replay
//!
//! A violating spec is minimized with [`testkit::prop`]'s greedy shrinker
//! — the exact machinery the property tests use — by wrapping the spec in
//! a constant [`Strategy`] whose `shrink` proposes structurally simpler
//! plans (fewer crashes, clean links, smaller worlds, earlier crash
//! points). The whole search is a pure function of `(seed, budget, drill)`
//! — specs carry their own payload/plan seeds and the executor clock is
//! virtual — so replaying a finding is just re-running the search with the
//! printed seed (`TESTKIT_SEED=… chaos-search --replay`).
//!
//! # The drill
//!
//! [`run_drill`] proves the harness has teeth: each [`RecoveryDrill`] knob
//! re-introduces a known recovery bug (forged payload reports, a pinned
//! dead root, a starved epoch budget), and the search must find a
//! violating plan, shrink it, and reproduce the same minimal spec from the
//! same seed — the recovery analogue of the schedcheck model-mutation
//! drill.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use bcast_core::{
    check_recovery_outcome, recovery::branch, self_healing_rank_task, Algorithm, RankRun,
    RecoveryConfig, RecoveryDrill, RecoverySpec,
};
use mpsim::{CommError, EventWorld, Rank, ReliableComm, RetryConfig, WorldTraffic};
use netsim::{FaultPlan, FaultyComm, LinkFaults};
use testkit::prop::{self, Strategy};
use testkit::rng::{Rng, SplitMix64};

/// Default master seed of the search (overridden by `TESTKIT_SEED` or
/// `--seed` in the CLI).
pub const DEFAULT_SEARCH_SEED: u64 = 0xC4A0_5EA2_C5EE_D001;

/// Upper bound on planned crashes per spec — enough for a depth-3 cascade
/// with a rank to spare, small enough to keep the epoch budget (and thus
/// each run) bounded.
pub const MAX_CRASHES: usize = 4;

/// Per-fault-kind cap on link fault rates, in ppm. Beyond ~20% the
/// reliable layer's retry budget is routinely exhausted and every run
/// collapses into the same all-timeout signature — noise, not coverage.
pub const MAX_FAULT_PPM: u32 = 200_000;

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// One candidate fault plan plus the launch it applies to — everything a
/// run needs, so a spec alone replays a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// World size.
    pub p: usize,
    /// Payload length in bytes.
    pub nbytes: usize,
    /// Caller-designated root.
    pub root: Rank,
    /// Broadcast algorithm under recovery.
    pub algorithm: Algorithm,
    /// Planned fail-stops as `(rank, after_ops)`, sorted by rank, at most
    /// one per rank.
    pub crashes: Vec<(Rank, u64)>,
    /// Fault rates applied to every link.
    pub faults: LinkFaults,
    /// Seed of the [`FaultPlan`]'s per-message fault lottery and of the
    /// payload pattern.
    pub plan_seed: u64,
}

impl ChaosSpec {
    /// Whether the network delivers every message exactly once (crashes
    /// may still be planned). Liveness is only guaranteed — and only
    /// checked — on lossless specs; under message loss a live rank may be
    /// falsely suspected and excluded, which the oracle must tolerate.
    pub fn lossless(&self) -> bool {
        self.faults.total() == 0
    }

    /// The ranks planned to fail-stop, sorted.
    pub fn victims(&self) -> Vec<Rank> {
        self.crashes.iter().map(|&(r, _)| r).collect()
    }

    /// The [`FaultPlan`] this spec describes.
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.plan_seed).with_default(self.faults);
        for &(rank, after) in &self.crashes {
            plan = plan.with_crash(rank, after);
        }
        plan
    }

    /// The recovery configuration the run is judged against: a virtual
    /// 40 ms step and exactly the epoch budget that guarantees liveness
    /// for the planned cascade (each crash may burn two epochs, plus one
    /// clean attempt).
    pub fn cfg(&self) -> RecoveryConfig {
        RecoveryConfig {
            step_timeout: Duration::from_millis(40),
            max_epochs: 2 * self.crashes.len() as u32 + 1,
            // The reliable layer bounds its own exchange (a frame in flight
            // times out), so each sendrecv op stays one call.
            bounded_sendrecv: !self.lossless(),
        }
    }

    /// The deterministic payload staged on the root.
    pub fn payload(&self) -> Vec<u8> {
        let mut rng = SplitMix64::new(self.plan_seed ^ 0x9E37_79B9_7F4A_7C15);
        (0..self.nbytes).map(|_| rng.next_u64() as u8).collect()
    }

    /// Canonicalize after mutation: ranks in range, at most one crash per
    /// rank (sorted), fault rates capped.
    fn normalize(&mut self) {
        self.root %= self.p;
        self.crashes.retain(|&(r, _)| r < self.p);
        self.crashes.sort_unstable();
        self.crashes.dedup_by_key(|&mut (r, _)| r);
        self.crashes.truncate(MAX_CRASHES);
        self.faults.drop_ppm = self.faults.drop_ppm.min(MAX_FAULT_PPM);
        self.faults.dup_ppm = self.faults.dup_ppm.min(MAX_FAULT_PPM);
        self.faults.delay_ppm = self.faults.delay_ppm.min(MAX_FAULT_PPM);
    }
}

/// The corpus the search starts from: a fault-free baseline, a mid-ring
/// crash (stall + exclusion), a root crash one send into a binomial
/// distribution (payload survives in the subtree → root succession), and a
/// lossy-link plan. Between them they reach every recovery branch the
/// drill knobs subvert, so mutants of interest are nearby.
pub fn seed_corpus(seed: u64) -> Vec<ChaosSpec> {
    let base = ChaosSpec {
        p: 8,
        nbytes: 256,
        root: 0,
        algorithm: Algorithm::ScatterRingTuned,
        crashes: Vec::new(),
        faults: LinkFaults::NONE,
        plan_seed: seed ^ 0x5EED,
    };
    vec![
        base.clone(),
        ChaosSpec { crashes: vec![(5, 9)], ..base.clone() },
        ChaosSpec { algorithm: Algorithm::Binomial, crashes: vec![(0, 1)], ..base.clone() },
        ChaosSpec {
            faults: LinkFaults { drop_ppm: 60_000, dup_ppm: 10_000, delay_ppm: 10_000 },
            ..base
        },
    ]
}

// ---------------------------------------------------------------------------
// Execution + oracle
// ---------------------------------------------------------------------------

/// Coverage signature of one run — two runs with equal signatures drove
/// the recovery machine through the same qualitative behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Signature {
    /// Union of [`branch`] bits over all ranks.
    pub branches: u32,
    /// Deepest per-rank epoch count.
    pub epochs: u32,
    /// Longest root-succession chain.
    pub succession: u32,
    /// log₂ bucket of total deaths observed across ranks.
    pub deaths: u32,
    /// Outcome classes present: bit 0 `Ok`, bit 1 `PeerFailed`, bit 2
    /// `Timeout`, bit 3 anything else.
    pub outcomes: u8,
    /// log₂ bucket of total messages moved.
    pub msgs: u32,
}

/// Everything one executed spec yields: the oracle's verdict and the
/// coverage signature.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// First violated invariant (or caught panic), if any.
    pub violation: Option<String>,
    /// Coverage signature of the run.
    pub signature: Signature,
}

fn log2_bucket(n: u64) -> u32 {
    64 - n.leading_zeros()
}

fn signature_of(runs: &[RankRun], traffic: &WorldTraffic) -> Signature {
    let mut sig =
        Signature { branches: 0, epochs: 0, succession: 0, deaths: 0, outcomes: 0, msgs: 0 };
    let mut deaths = 0u64;
    for run in runs {
        sig.branches |= run.trace.branches;
        sig.epochs = sig.epochs.max(run.trace.epochs_entered);
        sig.succession = sig.succession.max(run.trace.succession_depth);
        deaths += run.trace.deaths_observed as u64;
        sig.outcomes |= match &run.result {
            Ok(_) => 1,
            Err(CommError::PeerFailed { .. }) => 2,
            Err(CommError::Timeout { .. }) => 4,
            Err(_) => 8,
        };
    }
    sig.deaths = log2_bucket(deaths);
    sig.msgs = log2_bucket(traffic.total_msgs());
    sig
}

/// Execute one spec on the event executor and judge it.
///
/// The communicator stack is assembled per the spec: every rank wraps the
/// executor's communicator in a [`FaultyComm`]; when the spec has lossy
/// links a [`ReliableComm`] (ack + retransmit) rides in between, because
/// raw recovery assumes fail-stop ranks, not a lossy network. Planned
/// victims are the spec's crash set; on lossy specs, ranks that were
/// falsely suspected (excluded by a timeout verdict) are added to the
/// tolerated set before judging, since false suspicion is permitted there.
///
/// A panic anywhere in the launch (executor deadlock, a drill-broken
/// schedule) is caught and reported as a violation — the search treats
/// "the world blew up" exactly like "an invariant failed".
pub fn run_spec(spec: &ChaosSpec, drill: &RecoveryDrill) -> ChaosRun {
    let plan = spec.plan();
    let cfg = spec.cfg();
    let src = spec.payload();
    let retry = RetryConfig {
        base_timeout: Duration::from_millis(5),
        max_timeout: Duration::from_millis(40),
        max_attempts: 12,
    };
    let launch = catch_unwind(AssertUnwindSafe(|| {
        let out = EventWorld::run(spec.p, |comm| {
            let plan = plan.clone();
            let src = src.clone();
            let drill = *drill;
            async move {
                let faulty = FaultyComm::new(&comm, plan);
                if spec.lossless() {
                    self_healing_rank_task(&faulty, &src, spec.root, spec.algorithm, &cfg, &drill)
                        .await
                } else {
                    let reliable = ReliableComm::with_config(&faulty, retry);
                    self_healing_rank_task(&reliable, &src, spec.root, spec.algorithm, &cfg, &drill)
                        .await
                }
            }
        });
        (out.results, out.traffic, out.elapsed)
    }));
    let (runs, traffic, elapsed) = match launch {
        Ok(t) => t,
        Err(payload) => {
            let msg = panic_text(payload.as_ref());
            return ChaosRun {
                violation: Some(format!("launch panicked: {msg}")),
                signature: Signature {
                    branches: 0,
                    epochs: 0,
                    succession: 0,
                    deaths: 0,
                    outcomes: 8,
                    msgs: 0,
                },
            };
        }
    };

    let mut victims = spec.victims();
    if !spec.lossless() {
        // False suspicion under loss: any rank that ended in an error is
        // tolerated as if planned; the safety invariants still apply.
        for (rank, run) in runs.iter().enumerate() {
            if run.result.is_err() && !victims.contains(&rank) {
                victims.push(rank);
            }
        }
        victims.sort_unstable();
    }
    let rspec = RecoverySpec {
        src: &src,
        root: spec.root,
        cfg,
        planned_victims: &victims,
        lossy_links: !spec.lossless(),
    };
    ChaosRun {
        violation: check_recovery_outcome(&rspec, &runs, &traffic, elapsed).err(),
        signature: signature_of(&runs, &traffic),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_owned()
    }
}

// ---------------------------------------------------------------------------
// Mutation
// ---------------------------------------------------------------------------

/// Derive one mutant of `base` (one or two random edits, then
/// canonicalized). Pure in `rng`, so the whole search replays from its
/// seed.
pub fn mutate(base: &ChaosSpec, rng: &mut SplitMix64) -> ChaosSpec {
    let mut spec = base.clone();
    let edits = 1 + rng.gen_range_u64(0, 2);
    for _ in 0..edits {
        match rng.gen_range_u64(0, 8) {
            0 => {
                // Plant (or re-plant) a crash at a fresh point.
                let rank = rng.gen_range_u64(0, spec.p as u64) as Rank;
                let after = rng.gen_range_u64(0, 8 * spec.p as u64);
                spec.crashes.retain(|&(r, _)| r != rank);
                spec.crashes.push((rank, after));
            }
            1 => {
                if !spec.crashes.is_empty() {
                    let i = rng.gen_range_u64(0, spec.crashes.len() as u64) as usize;
                    spec.crashes.remove(i);
                }
            }
            2 => {
                if !spec.crashes.is_empty() {
                    let i = rng.gen_range_u64(0, spec.crashes.len() as u64) as usize;
                    let (_, after) = spec.crashes[i];
                    spec.crashes[i].1 = match rng.gen_range_u64(0, 4) {
                        0 => after / 2,
                        1 => after * 2 + 1,
                        2 => after + spec.p as u64,
                        _ => after.saturating_sub(spec.p as u64),
                    };
                }
            }
            3 => {
                if !spec.crashes.is_empty() {
                    let i = rng.gen_range_u64(0, spec.crashes.len() as u64) as usize;
                    spec.crashes[i].0 = rng.gen_range_u64(0, spec.p as u64) as Rank;
                }
            }
            4 => {
                let rate = [0u32, 20_000, 60_000, 150_000][rng.gen_range_u64(0, 4) as usize];
                match rng.gen_range_u64(0, 3) {
                    0 => spec.faults.drop_ppm = rate,
                    1 => spec.faults.dup_ppm = rate,
                    _ => spec.faults.delay_ppm = rate,
                }
            }
            5 => {
                spec.p = rng.gen_range_u64(4, 11) as usize;
                spec.algorithm = if rng.gen_range_u64(0, 2) == 0 {
                    Algorithm::Binomial
                } else {
                    Algorithm::ScatterRingTuned
                };
            }
            6 => {
                spec.root = rng.gen_range_u64(0, spec.p as u64) as Rank;
                spec.nbytes = [64usize, 256, 768][rng.gen_range_u64(0, 3) as usize];
            }
            _ => spec.plan_seed = rng.next_u64(),
        }
    }
    spec.normalize();
    spec
}

// ---------------------------------------------------------------------------
// Shrinking (via testkit's greedy shrinker)
// ---------------------------------------------------------------------------

/// Structurally simpler variants of `spec`, simplest first — the shrink
/// relation the greedy minimizer walks.
pub fn shrink_candidates(spec: &ChaosSpec) -> Vec<ChaosSpec> {
    let mut out = Vec::new();
    for i in 0..spec.crashes.len() {
        let mut s = spec.clone();
        s.crashes.remove(i);
        out.push(s);
    }
    if spec.faults.total() != 0 {
        out.push(ChaosSpec { faults: LinkFaults::NONE, ..spec.clone() });
    }
    let interesting: BTreeSet<Rank> = spec.victims().into_iter().chain([spec.root]).collect();
    let floor = interesting.iter().max().map_or(4, |&r| (r + 1).max(4));
    for p in [4, spec.p / 2, spec.p - 1] {
        if p >= floor && p < spec.p {
            out.push(ChaosSpec { p, ..spec.clone() });
        }
    }
    for i in 0..spec.crashes.len() {
        if spec.crashes[i].1 > 0 {
            let mut s = spec.clone();
            s.crashes[i].1 /= 2;
            out.push(s);
        }
    }
    if spec.nbytes > 64 {
        out.push(ChaosSpec { nbytes: (spec.nbytes / 2).max(64), ..spec.clone() });
    }
    out
}

/// A constant strategy rooted at one failing spec: `generate` replays the
/// spec itself, `shrink` proposes [`shrink_candidates`]. Plugging this
/// into [`prop::run_seed`] reuses testkit's greedy adopt-first-failure
/// shrinker verbatim.
struct SpecStrategy {
    origin: ChaosSpec,
}

impl Strategy for SpecStrategy {
    type Value = ChaosSpec;

    fn generate(&self, _rng: &mut testkit::rng::Xoshiro256StarStar) -> ChaosSpec {
        self.origin.clone()
    }

    fn shrink(&self, value: &ChaosSpec) -> Vec<ChaosSpec> {
        shrink_candidates(value)
    }
}

/// Minimize a violating spec with testkit's greedy shrinker and return
/// `(shrunk spec, its violation)`.
///
/// The property records every failing candidate it sees; the greedy
/// shrinker only ever *adopts* failing candidates and ends on the last one
/// adopted, so the final recording is exactly the minimal spec (the
/// origin's own initial evaluation seeds the recording, covering the
/// already-minimal case).
pub fn shrink_violation(
    spec: &ChaosSpec,
    drill: &RecoveryDrill,
    error: String,
) -> (ChaosSpec, String) {
    let last_fail: RefCell<(ChaosSpec, String)> = RefCell::new((spec.clone(), error));
    let strategy = SpecStrategy { origin: spec.clone() };
    let property = |candidate: &ChaosSpec| -> prop::PropResult {
        match run_spec(candidate, drill).violation {
            Some(e) => {
                *last_fail.borrow_mut() = (candidate.clone(), e.clone());
                Err(e)
            }
            None => Ok(()),
        }
    };
    // The seed is irrelevant: the strategy generates a constant.
    let _ = prop::run_seed(0, &strategy, &property);
    last_fail.into_inner()
}

// ---------------------------------------------------------------------------
// The search loop
// ---------------------------------------------------------------------------

/// Search parameters.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// How many specs to execute before declaring the space clean.
    pub budget: u32,
    /// Master seed; the search is a pure function of `(seed, budget,
    /// drill)`.
    pub seed: u64,
    /// Deliberate-regression knobs under test ([`RecoveryDrill::NONE`]
    /// for the real regression gate).
    pub drill: RecoveryDrill,
}

/// A violation the search found, before and after shrinking.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The spec as first found.
    pub found: ChaosSpec,
    /// The spec after greedy minimization.
    pub shrunk: ChaosSpec,
    /// The shrunk spec's violated invariant.
    pub error: String,
    /// Which execution (0-based) hit it.
    pub iteration: u32,
}

/// What a finished search saw.
#[derive(Debug)]
pub struct SearchReport {
    /// Specs executed (≤ budget; the search stops at the first violation).
    pub executed: u32,
    /// Corpus size at the end (seeds + signature-novel mutants).
    pub corpus: usize,
    /// Distinct coverage signatures observed.
    pub signatures: usize,
    /// Union of recovery branch bits over every run.
    pub branch_union: u32,
    /// The first violation, shrunk — `None` means the space is clean.
    pub failure: Option<ChaosFailure>,
}

/// Run the coverage-guided search: execute the seed corpus, then mutate
/// signature-novel corpus members until the budget is spent or a spec
/// violates the recovery invariants (which is then shrunk and returned).
pub fn search(cfg: &SearchConfig) -> SearchReport {
    let _quiet = QuietPanics::engage();
    let seeds = seed_corpus(cfg.seed);
    let mut rng = SplitMix64::new(cfg.seed);
    let mut corpus: Vec<ChaosSpec> = Vec::new();
    let mut signatures: BTreeSet<Signature> = BTreeSet::new();
    let mut branch_union = 0u32;
    let mut executed = 0u32;

    for i in 0..cfg.budget {
        let spec = if (i as usize) < seeds.len() {
            seeds[i as usize].clone()
        } else {
            let pick = rng.gen_range_u64(0, corpus.len().max(1) as u64) as usize;
            let base = corpus.get(pick).cloned().unwrap_or_else(|| seeds[0].clone());
            mutate(&base, &mut rng)
        };
        let run = run_spec(&spec, &cfg.drill);
        executed += 1;
        branch_union |= run.signature.branches;
        if let Some(error) = run.violation {
            let (shrunk, error) = shrink_violation(&spec, &cfg.drill, error);
            return SearchReport {
                executed,
                corpus: corpus.len(),
                signatures: signatures.len(),
                branch_union,
                failure: Some(ChaosFailure { found: spec, shrunk, error, iteration: i }),
            };
        }
        if signatures.insert(run.signature) {
            corpus.push(spec);
        }
    }
    SearchReport {
        executed,
        corpus: corpus.len(),
        signatures: signatures.len(),
        branch_union,
        failure: None,
    }
}

/// Silence the default panic hook for the duration of a search: violating
/// runs legitimately panic inside `catch_unwind` (drill-broken schedules,
/// executor deadlock detection) and would otherwise spray backtraces over
/// the report. Restores the previous hook on drop.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    fn engage() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

// ---------------------------------------------------------------------------
// The drill
// ---------------------------------------------------------------------------

/// The named deliberate regressions the drill plants, one knob at a time.
pub fn drill_knobs() -> [(&'static str, RecoveryDrill); 3] {
    [
        ("claim-full-payload", RecoveryDrill { claim_full_payload: true, ..RecoveryDrill::NONE }),
        (
            "skip-root-succession",
            RecoveryDrill { skip_root_succession: true, ..RecoveryDrill::NONE },
        ),
        (
            "clamp-epoch-budget",
            RecoveryDrill { clamp_epoch_budget: Some(1), ..RecoveryDrill::NONE },
        ),
    ]
}

/// One knob's drill verdict.
#[derive(Debug)]
pub struct DrillResult {
    /// Knob name.
    pub knob: &'static str,
    /// The finding, if the search caught the regression.
    pub failure: Option<ChaosFailure>,
    /// Whether re-running the search from the same seed reproduced the
    /// same shrunk spec — the replay contract.
    pub replayed: bool,
}

impl DrillResult {
    /// Caught, shrunk, and deterministically replayed.
    pub fn passed(&self) -> bool {
        self.failure.is_some() && self.replayed
    }
}

/// For every drill knob: run the search with the regression planted,
/// require a violation, and prove the replay contract by re-running the
/// search from the same seed and comparing the shrunk specs.
pub fn run_drill(budget: u32, seed: u64) -> Vec<DrillResult> {
    drill_knobs()
        .into_iter()
        .map(|(knob, drill)| {
            let cfg = SearchConfig { budget, seed, drill };
            let failure = search(&cfg).failure;
            let replayed = match &failure {
                None => false,
                Some(f) => search(&cfg)
                    .failure
                    .is_some_and(|again| again.shrunk == f.shrunk && again.error == f.error),
            };
            DrillResult { knob, failure, replayed }
        })
        .collect()
}

/// Human-readable names of the [`branch`] bits set in `bits`.
pub fn branch_names(bits: u32) -> Vec<&'static str> {
    [
        (branch::CLEAN_ATTEMPT, "clean-attempt"),
        (branch::STALLED_ATTEMPT, "stalled-attempt"),
        (branch::HEALED_ALL, "healed-all"),
        (branch::HEALED_SURVIVORS, "healed-survivors"),
        (branch::DEATH_OBSERVED, "death-observed"),
        (branch::ROOT_SUCCESSION, "root-succession"),
        (branch::PAYLOAD_LOST, "payload-lost"),
        (branch::EPOCH_BUDGET_EXHAUSTED, "epoch-budget-exhausted"),
        (branch::SELF_CRASH, "self-crash"),
        (branch::GARBLED_REPORT, "garbled-report"),
    ]
    .into_iter()
    .filter(|&(bit, _)| bits & bit != 0)
    .map(|(_, name)| name)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed corpus itself is clean: every seed spec satisfies the
    /// recovery invariants without any drill.
    #[test]
    fn seed_corpus_is_clean() {
        for spec in seed_corpus(DEFAULT_SEARCH_SEED) {
            let run = run_spec(&spec, &RecoveryDrill::NONE);
            assert_eq!(run.violation, None, "seed spec violated: {spec:?}");
        }
    }

    /// A short undirected search over the production recovery path finds
    /// nothing — the regression gate in miniature.
    #[test]
    fn short_search_is_clean_without_drill() {
        let cfg =
            SearchConfig { budget: 24, seed: DEFAULT_SEARCH_SEED, drill: RecoveryDrill::NONE };
        let report = search(&cfg);
        assert!(report.failure.is_none(), "clean search found: {:?}", report.failure);
        assert_eq!(report.executed, 24);
        // The corpus grew beyond the 4 seeds: mutation found new behavior.
        assert!(report.signatures >= 4, "only {} signatures", report.signatures);
        assert!(report.branch_union & branch::DEATH_OBSERVED != 0);
        assert!(report.branch_union & branch::HEALED_SURVIVORS != 0);
    }

    /// Every drill knob is caught, shrunk, and replays deterministically —
    /// 3/3 seeded recovery mutants.
    #[test]
    fn drill_catches_all_three_knobs() {
        let results = run_drill(16, DEFAULT_SEARCH_SEED);
        for r in &results {
            assert!(
                r.passed(),
                "drill knob '{}' escaped: failure={:?} replayed={}",
                r.knob,
                r.failure,
                r.replayed
            );
        }
        assert_eq!(results.len(), 3);
    }

    /// The search is a pure function of its config: same seed, same
    /// report shape.
    #[test]
    fn search_is_deterministic_in_its_seed() {
        let cfg = SearchConfig { budget: 12, seed: 0xD5EE_D001, drill: RecoveryDrill::NONE };
        let a = search(&cfg);
        let b = search(&cfg);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.signatures, b.signatures);
        assert_eq!(a.branch_union, b.branch_union);
    }

    /// Shrinking a planted violation reaches a structurally minimal spec:
    /// the claim-full-payload drill needs only a single crash, and the
    /// shrunk plan still fails with the byte-divergence invariant.
    #[test]
    fn shrinker_minimizes_a_planted_violation() {
        let drill = RecoveryDrill { claim_full_payload: true, ..RecoveryDrill::NONE };
        // An over-decorated spec: extra crash, lossy links, big payload.
        let spec = ChaosSpec {
            p: 8,
            nbytes: 768,
            root: 0,
            algorithm: Algorithm::ScatterRingTuned,
            crashes: vec![(3, 60), (5, 9)],
            faults: LinkFaults { drop_ppm: 20_000, dup_ppm: 0, delay_ppm: 0 },
            plan_seed: 0xBADD_5EED,
        };
        let run = run_spec(&spec, &drill);
        let error = run.violation.expect("drill spec must violate");
        let (shrunk, final_error) = shrink_violation(&spec, &drill, error);
        assert!(shrunk.crashes.len() <= 1, "shrunk kept {:?}", shrunk.crashes);
        assert_eq!(shrunk.faults, LinkFaults::NONE, "shrunk kept lossy links");
        assert!(shrunk.nbytes <= 256, "shrunk kept nbytes={}", shrunk.nbytes);
        assert!(!final_error.is_empty());
        // And the shrunk spec replays its violation standalone.
        assert_eq!(run_spec(&shrunk, &drill).violation, Some(final_error));
    }

    /// Mutation never leaves the legal spec space.
    #[test]
    fn mutants_stay_normalized() {
        let mut rng = SplitMix64::new(0xF00D);
        let mut spec = seed_corpus(0xF00D).remove(1);
        for _ in 0..500 {
            spec = mutate(&spec, &mut rng);
            assert!((4..=10).contains(&spec.p));
            assert!(spec.root < spec.p);
            assert!(spec.crashes.len() <= MAX_CRASHES);
            assert!(spec.crashes.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(spec.crashes.iter().all(|&(r, _)| r < spec.p));
            assert!(spec.faults.total() <= 3 * MAX_FAULT_PPM);
        }
    }
}
