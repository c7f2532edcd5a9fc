//! # schedcheck — static verification of communication schedules and sync protocols
//!
//! Two verifiers over the repo's collective algorithms, both fully offline:
//!
//! 1. **Schedule checking** ([`analysis`]): every collective in `bcast-core`
//!    has a symbolic communication schedule ([`bcast_core::Schedule`])
//!    via [`bcast_core::Collective::schedule`] — per rank, per step: peer,
//!    direction, tag, byte ranges. For the broadcast family it is the very
//!    op stream the interpreter executes, collected over all ranks. An abstract
//!    executor then proves, per `(algorithm, P, nbytes, root, semantics)`
//!    instance: send/recv matching (no orphaned or duplicated operations),
//!    deadlock freedom under both *eager* and *rendezvous* send semantics,
//!    buffer coverage (every required byte written), and traffic totals that
//!    reconcile with the closed-form models in `bcast_core::traffic` and
//!    with instrumented runtime counters. Redundant transfers — writes to
//!    already-valid bytes, the very quantity the paper's tuned ring
//!    eliminates — are *identified*, and [`prune_redundant`] deletes them:
//!    applied to scatter + enclosed ring it must yield scatter + tuned ring
//!    op for op, so the paper's `(step, flag)` rule is derived from the
//!    schedule rather than asserted beside it.
//! 2. **Interleaving exploration** ([`explore`], [`models`]): a
//!    zero-dependency loom-style model checker with two engines over the
//!    same [`Model`] trait — an exhaustive explorer and a sleep-set DPOR
//!    explorer ([`explore_dpor`]) with state hashing, kept honest against
//!    each other by a differential test suite (identical verdicts, DPOR
//!    never more states). Five protocol models: ThreadWorld's mailbox
//!    notify-skip predicate and the four megascale-reactor protocols
//!    (run-queue dedup + targeted exit wakes, external-waker side queue,
//!    lane-mailbox inline/spill routing, timer-wheel handle generations).
//!    Every model calls the deployed
//!    decision functions — [`mpsim::proto`],
//!    [`mpsim::event_mailbox::bucket_route`],
//!    [`mpsim::event_timer::handle_is_live`],
//!    [`mpsim::TimerWheel::place`] — and mutation knobs (clear the dedup
//!    flag after the poll, skip the exit wake, skip the side-queue drain,
//!    drop wild-tag envelopes, cancel without the generation check) prove
//!    both explorers find the lost-wakeup and stale-handle bugs those code
//!    paths exist to prevent.
//!
//! A third verifier is *dynamic*: [`chaos`] is a coverage-guided
//! adversarial search over fault plans for the self-healing broadcast.
//! Candidate plans (fail-stop ranks with operation-count crash clocks,
//! plus drop/duplicate/delay link rates) execute for real on
//! [`mpsim::EventWorld`]'s virtual clock through [`netsim::FaultyComm`],
//! are judged by the recovery invariant oracle in `bcast_core`, and are
//! bred by signature novelty (recovery branch bits, epoch depth,
//! succession depth). Violations shrink to minimal reproducers through
//! `testkit`'s greedy shrinker and replay from the printed seed; the
//! `chaos-search` binary budgets the search as its own CI phase, and its
//! `--drill` mode proves the harness catches all three seeded recovery
//! regressions ([`bcast_core::RecoveryDrill`]).
//!
//! [`mutate`] provides schedule-mutation helpers used by negative tests to
//! prove the analyses reject corrupted schedules with actionable, rank/step
//! diagnostics. [`lint`] hosts the repo-convention lint rules behind the
//! `repolint` binary.
//!
//! The `schedcheck` binary sweeps P ∈ {2..32} × every registered algorithm ×
//! both semantics in CI — including the degraded broadcast schedules that
//! `bcast_core::recovery` re-derives over survivor subsets after a crash,
//! and the op streams its agreement runs (`agreement_schedule`,
//! `pairwise_schedule`, every P ≤ 64) —
//! and its `explore-reactor` subcommand runs every protocol model under
//! both explorers plus the seeded mutation drill as its own CI phase;
//! `repolint` enforces source-level conventions (no `.unwrap()`/`.expect()`
//! in library code, `// SAFETY:` on every `unsafe`, no `let _ =` on the
//! `Result` of a communication call, no wall-clock reads inside the event
//! executor or the decorators that run on it, no
//! `HashMap`s inside the event executor, no cancel-unsafe shapes —
//! unregistered `Poll::Pending`, borrows across suspension points, send
//! effects inside `poll` — in the async communication layer, no
//! `.unwrap()`/`.expect()` on communication results inside the
//! self-healing recovery module, where a `CommError` is the input the
//! layer exists to absorb, no `impl Communicator for` outside the two
//! blocking executors, and no communicator impl defining a provided method).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod chaos;
pub mod explore;
pub mod lint;
pub mod models;
pub mod mutate;

pub use analysis::{
    check, prune_redundant, pruned_native_is_tuned, reconcile_traffic, Reconciliation, Report,
    Semantics, Transfer,
};
pub use explore::{explore, explore_dpor, Model, Stats, Step, DEFAULT_MAX_STATES};
