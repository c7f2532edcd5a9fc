//! Static schedule sweep: every registered collective × P ∈ {2..32} ×
//! payload sizes × roots × both send semantics, the coalescing ring's
//! rewrites under four policies up to P = 64, the paper's ring theorems, a
//! mutation drill proving the checker has teeth, the
//! degraded schedules the self-healing broadcast re-derives over survivor
//! subsets after a crash, and the self-healing agreement's own op streams
//! (clean quorum, failed epoch, pairwise round; every P ≤ 64) with a seeded
//! quorum mutant.
//!
//! Exits nonzero (with per-instance diagnostics) on any failure. `--quick`
//! restricts the world-size grid for local smoke runs; CI runs the full
//! sweep.
//!
//! `schedcheck explore-reactor [--max-states N]` runs the other half of the
//! crate instead: the interleaving explorer over every protocol model —
//! ThreadWorld's mailbox notify-skip model (parking at once, and spinning
//! first) plus the four megascale-reactor
//! models (run-queue dedup, external-waker side queue, lane-mailbox
//! routing, timer-wheel generations). Each model is explored exhaustively
//! *and* with DPOR, the verdicts are required to agree, per-model state
//! counts and reduction factors are printed, and a seeded mutation drill injects a known
//! lost-wakeup / stale-handle bug into each reactor model and demands both
//! explorers catch it. `--max-states` bounds the per-model state budget.

use bcast_core::bcast::{bcast_schedule, bcast_tuned_schedule_with};
use bcast_core::pipeline::pipeline_msgs;
use bcast_core::{
    agreement_schedule, coalesced_envelope_count, degraded_bcast_schedule, pairwise_schedule,
    self_healing_bcast_event_world, step_flag, traffic, Algorithm, CoalescePolicy, Collective,
    RecoveryConfig, Schedule,
};
use schedcheck::models::{
    ExternalWakerModel, LaneMailboxModel, MailboxModel, RunQueueModel, TimerWheelModel,
};
use schedcheck::mutate::redirect_recv;
use schedcheck::{
    check, explore, explore_dpor, prune_redundant, pruned_native_is_tuned, Model, Semantics,
    DEFAULT_MAX_STATES,
};

/// One failed instance, for the final report.
struct Failure {
    what: String,
    details: Vec<String>,
}

/// Exploration totals for the `explore-reactor` summary line.
#[derive(Default)]
struct ExploreTotals {
    models: usize,
    exhaustive_states: usize,
    dpor_states: usize,
}

/// Run one clean model under both explorers: verdicts must both be clean
/// and DPOR must never visit more states than exhaustive.
fn differential<M: Model>(
    name: &str,
    model: &M,
    max_states: usize,
    totals: &mut ExploreTotals,
    failures: &mut Vec<Failure>,
) {
    let full = explore(model, max_states);
    let dpor = explore_dpor(model, max_states);
    match (&full, &dpor) {
        (Ok(f), Ok(d)) => {
            totals.models += 1;
            totals.exhaustive_states += f.states;
            totals.dpor_states += d.states;
            println!(
                "  {name}: exhaustive {} states / dpor {} = {:.2}x reduction",
                f.states,
                d.states,
                f.states as f64 / d.states as f64
            );
            if d.states > f.states {
                failures.push(Failure {
                    what: format!("explore {name}"),
                    details: vec![format!(
                        "DPOR visited more states than exhaustive ({} vs {})",
                        d.states, f.states
                    )],
                });
            }
        }
        _ => failures.push(Failure {
            what: format!("explore {name}"),
            details: vec![format!("exhaustive: {full:?}"), format!("dpor: {dpor:?}")],
        }),
    }
}

/// Run one mutant under both explorers: both must fail, with the expected
/// substring in the diagnostic. Returns whether the mutant was caught.
fn drill<M: Model>(
    name: &str,
    model: &M,
    expect: &str,
    max_states: usize,
    failures: &mut Vec<Failure>,
) -> bool {
    let mut caught = true;
    for (how, res) in
        [("exhaustive", explore(model, max_states)), ("dpor", explore_dpor(model, max_states))]
    {
        match res {
            Err(e) if e.contains(expect) => {}
            other => {
                caught = false;
                failures.push(Failure {
                    what: format!("mutation {name} [{how}]"),
                    details: vec![format!("expected a '{expect}' diagnostic, got {other:?}")],
                });
            }
        }
    }
    caught
}

/// Check `sched`'s planned volume against the closed form `want`,
/// recording a mismatch under `what`.
fn check_volume(what: &str, sched: &Schedule, want: traffic::Volume, failures: &mut Vec<Failure>) {
    let planned = sched.planned_volume();
    if planned != (want.msgs, want.bytes) {
        failures.push(Failure {
            what: what.to_string(),
            details: vec![format!(
                "planned (msgs, bytes) {planned:?} != closed form ({} msgs, {} B)",
                want.msgs, want.bytes
            )],
        });
    }
}

/// Check `sched` under each of `semantics`, recording every violation
/// under `what`. Returns the number of instances analysed.
fn check_semantics(
    what: &str,
    sched: &Schedule,
    semantics: &[Semantics],
    failures: &mut Vec<Failure>,
) -> usize {
    for &sem in semantics {
        let rep = check(sched, sem);
        if !rep.is_clean() {
            failures.push(Failure { what: format!("{what} {sem}"), details: rep.errors });
        }
    }
    semantics.len()
}

/// A failed epoch's agreement streams with the halves nobody answers set
/// aside: every half naming `silent` (the frames sent to it, and the
/// leader's take of its report, which exit evidence answers), and every
/// quorum frame sent into a round whose receive half the receiver's false
/// conjunction dropped — the `k`-th op of a quorum phase on the sender meets
/// the `k`-th op of that phase on its receiver. Returns the view and the
/// number of halves set aside.
fn answered_view(sched: &Schedule, silent: usize) -> (Schedule, usize) {
    let mut view = sched.clone();
    let mut set_aside = 0;
    for (rank, rs) in sched.ranks.iter().enumerate() {
        for (step, op) in rs.ops.iter().enumerate() {
            let round = rs.ops[..step].iter().filter(|o| o.phase == op.phase).count();
            let dropped = |peer: usize| {
                let mut theirs = sched.ranks[peer].ops.iter().filter(|o| o.phase == op.phase);
                ["quorum", "confirm"].contains(&op.phase)
                    && theirs.nth(round).is_some_and(|o| o.recv.is_none())
            };
            if op.send.as_ref().is_some_and(|s| s.peer == silent || dropped(s.peer)) {
                view.ranks[rank].ops[step].send = None;
                set_aside += 1;
            }
            if op.recv.as_ref().is_some_and(|r| r.peer == silent) {
                view.ranks[rank].ops[step].recv = None;
                set_aside += 1;
            }
        }
    }
    (view, set_aside)
}

/// The `explore-reactor` subcommand.
fn explore_reactor(max_states: usize) -> ! {
    let mut failures: Vec<Failure> = Vec::new();
    let mut totals = ExploreTotals::default();

    // ---- Phase 1: clean protocol models, exhaustive vs DPOR --------------
    println!("phase 1: protocol models, exhaustive vs DPOR (budget {max_states} states)");
    for senders in 1..=4 {
        for spin in [false, true] {
            differential(
                &format!("mailbox s={senders} spin={spin}"),
                &MailboxModel::clean(senders, spin),
                max_states,
                &mut totals,
                &mut failures,
            );
        }
    }
    for senders in 1..=3 {
        for crasher in [false, true] {
            differential(
                &format!("reactor-run-queue s={senders} crasher={crasher}"),
                &RunQueueModel { senders, crasher, clear_after_poll: false, skip_exit_wake: false },
                max_states,
                &mut totals,
                &mut failures,
            );
        }
    }
    for wakes in 1..=3 {
        differential(
            &format!("reactor-external-waker w={wakes}"),
            &ExternalWakerModel { wakes, skip_drain: false, drop_drained: false },
            max_states,
            &mut totals,
            &mut failures,
        );
    }
    differential(
        "reactor-lane-mailbox",
        &LaneMailboxModel::default(),
        max_states,
        &mut totals,
        &mut failures,
    );
    for (delta_a, delta_b) in [(10, 20), (10, 100), (63, 64)] {
        differential(
            &format!("reactor-timer-wheel a={delta_a} b={delta_b}"),
            &TimerWheelModel { delta_a, delta_b, no_generation: false },
            max_states,
            &mut totals,
            &mut failures,
        );
    }
    println!(
        "phase 1: {} models clean; {} exhaustive states vs {} DPOR states ({:.2}x overall)",
        totals.models,
        totals.exhaustive_states,
        totals.dpor_states,
        totals.exhaustive_states as f64 / totals.dpor_states.max(1) as f64
    );

    // ---- Phase 2: seeded mutation drill ----------------------------------
    // One known lost-wakeup / stale-handle / accounting bug per knob; a
    // model checker that passes mutants is vacuous.
    let mut drilled = 0usize;
    drilled += usize::from(drill(
        "run-queue clear-after-poll",
        &RunQueueModel {
            senders: 2,
            crasher: false,
            clear_after_poll: true,
            skip_exit_wake: false,
        },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "run-queue skip-exit-wake",
        &RunQueueModel { senders: 1, crasher: true, clear_after_poll: false, skip_exit_wake: true },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "external-waker skip-drain",
        &ExternalWakerModel { wakes: 1, skip_drain: true, drop_drained: false },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "external-waker drop-drained",
        &ExternalWakerModel { wakes: 1, skip_drain: false, drop_drained: true },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "lane-mailbox drop-wild",
        &LaneMailboxModel { drop_wild: true, ..LaneMailboxModel::default() },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "lane-mailbox skip-spill-count",
        &LaneMailboxModel { skip_spill_count: true, ..LaneMailboxModel::default() },
        "terminal state rejected",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "lane-mailbox reuse-full",
        &LaneMailboxModel { reuse_full: true, ..LaneMailboxModel::default() },
        "FIFO mismatch",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "lane-mailbox forget-spilled",
        &LaneMailboxModel { forget_spilled: true, ..LaneMailboxModel::default() },
        "FIFO mismatch",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "timer-wheel no-generation",
        &TimerWheelModel { delta_a: 10, delta_b: 20, no_generation: true },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "mailbox broken-skip",
        &MailboxModel { broken_skip: true, ..MailboxModel::clean(1, false) },
        "deadlock",
        max_states,
        &mut failures,
    ));
    drilled += usize::from(drill(
        "mailbox skip-recheck",
        &MailboxModel { skip_recheck: true, ..MailboxModel::clean(1, true) },
        "deadlock",
        max_states,
        &mut failures,
    ));
    println!("phase 2: {drilled}/11 seeded mutants caught by both explorers");

    if failures.is_empty() {
        println!("schedcheck explore-reactor: all clear");
        std::process::exit(0);
    }
    eprintln!("schedcheck explore-reactor: {} failure(s)", failures.len());
    for f in &failures {
        eprintln!("FAIL {}", f.what);
        for d in &f.details {
            eprintln!("     {d}");
        }
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "explore-reactor") {
        let max_states = match args.iter().position(|a| a == "--max-states") {
            Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(n) => n,
                None => {
                    eprintln!("schedcheck: --max-states needs an integer argument");
                    std::process::exit(2);
                }
            },
            None => DEFAULT_MAX_STATES,
        };
        explore_reactor(max_states);
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let ps: Vec<usize> = if quick { vec![2, 3, 4, 8, 13, 16, 32] } else { (2..=32).collect() };

    let mut checks = 0usize;
    let mut failures: Vec<Failure> = Vec::new();

    // ---- Phase 1: full matrix of static analyses -------------------------
    for &p in &ps {
        for src in Collective::SWEEP {
            if !src.supports(p) {
                continue;
            }
            for nbytes in [1usize, 17, 64 * p] {
                for root in [0, p - 1] {
                    let sched = src.schedule(p, nbytes, root);
                    for sem in Semantics::ALL {
                        checks += 1;
                        let rep = check(&sched, sem);
                        if !rep.is_clean() {
                            failures.push(Failure {
                                what: format!(
                                    "{} p={p} nbytes={nbytes} root={root} {sem}",
                                    src.name()
                                ),
                                details: rep.errors.clone(),
                            });
                        }
                    }
                }
            }
        }
    }
    println!("phase 1: {checks} schedule instances analysed");

    // ---- Phase 2: traffic reconciliation against closed forms ------------
    // Every entry of the sweep that has one: the broadcasts' `bcast_volume`,
    // the unlimited coalesced ring's envelope count over the tuned ring's
    // bytes, and the pipeline's `(P−1)·⌈n / segment⌉` messages carrying
    // `(P−1)·n` bytes.
    let closed_form = |c: Collective, p: usize, nbytes: usize| match c {
        Collective::Bcast(alg) => {
            let v = traffic::bcast_volume(alg, nbytes, p);
            Some((v.msgs, v.bytes))
        }
        Collective::Coalesced(policy) if policy == CoalescePolicy::unlimited() => {
            let tuned = traffic::bcast_volume(Algorithm::ScatterRingTuned, nbytes, p);
            Some((traffic::scatter_msgs(nbytes, p) + coalesced_envelope_count(p), tuned.bytes))
        }
        Collective::Pipeline => {
            let segment = Collective::pipeline_segment(nbytes);
            Some((pipeline_msgs(nbytes, segment, p), ((p - 1) * nbytes) as u64))
        }
        _ => None,
    };
    let mut reconciled = 0usize;
    for &p in &ps {
        for c in Collective::SWEEP.into_iter().filter(|c| c.supports(p)) {
            for nbytes in [1usize, 17, 64 * p] {
                let Some(model) = closed_form(c, p, nbytes) else { continue };
                let volume = c.schedule(p, nbytes, 0).planned_volume();
                reconciled += 1;
                if volume != model {
                    failures.push(Failure {
                        what: format!("traffic {} p={p} nbytes={nbytes}", c.name()),
                        details: vec![format!(
                            "IR volume {volume:?} != closed form {model:?} (msgs, B)"
                        )],
                    });
                }
            }
        }
    }
    println!("phase 2: {reconciled} IR volumes reconciled with traffic closed forms");

    // ---- Phase 2b: the coalescing rewrites of the tuned ring -------------
    // Merged tails and split chunks under four policies, every P <= 64 and
    // both end roots: matched, covering and deadlock-free under both
    // semantics, moving exactly the tuned ring's bytes — in the closed-form
    // message count when unlimited (phase 2 checks root 0 and P <= 32 only).
    let policies = [
        CoalescePolicy::unlimited(),
        CoalescePolicy::per_chunk(usize::MAX),
        CoalescePolicy::per_chunk(3),
        CoalescePolicy::new(3, 24),
    ];
    let mut coalesced = 0usize;
    for p in 2..=64usize {
        for nbytes in [17usize, 4 * p - 1, 64 * p] {
            for root in [0, p - 1] {
                for policy in policies {
                    let sched = Collective::Coalesced(policy).schedule(p, nbytes, root);
                    let what = format!("coalesced {policy:?} p={p} nbytes={nbytes} root={root}");
                    let (msgs, bytes) = sched.planned_volume();
                    let tuned = traffic::bcast_volume(Algorithm::ScatterRingTuned, nbytes, p);
                    let unlimited = policy == CoalescePolicy::unlimited();
                    let want_msgs = traffic::scatter_msgs(nbytes, p) + coalesced_envelope_count(p);
                    if bytes != tuned.bytes || (unlimited && msgs != want_msgs) {
                        failures.push(Failure {
                            what: what.clone(),
                            details: vec![format!(
                                "IR volume ({msgs} msgs, {bytes} B) != closed form ({want_msgs} \
                                 msgs when unlimited, {} B)",
                                tuned.bytes
                            )],
                        });
                    }
                    for sem in Semantics::ALL {
                        coalesced += 1;
                        let rep = check(&sched, sem);
                        if !rep.is_clean() {
                            failures.push(Failure {
                                what: format!("{what} {sem}"),
                                details: rep.errors.clone(),
                            });
                        }
                    }
                }
            }
        }
    }
    println!("phase 2b: {coalesced} coalesced-ring instances analysed (P <= 64, 4 policies)");

    // ---- Phase 3: the paper's claim, derived ------------------------------
    // `prune_redundant` deletes every transfer whose destination already
    // holds the bytes. Applied to scatter + enclosed ring it must leave
    // scatter + tuned ring, op for op: the (step, flag) rule is then not a
    // second implementation that happens to count the same, it *is* the
    // redundancy of the native schedule. Checked where every chunk is
    // non-empty (even chunks and a ragged last one), every root up to P = 16.
    let mut derived = 0usize;
    for p in 2..=64usize {
        for nbytes in [4 * p, 4 * p - 1] {
            for root in if p <= 16 { 0..p } else { 0..1 } {
                derived += 1;
                let want = traffic::scatter_msgs(nbytes, p) + traffic::tuned_ring_msgs(p);
                match pruned_native_is_tuned(p, nbytes, root) {
                    Ok(msgs) if msgs == want => {}
                    Ok(msgs) => failures.push(Failure {
                        what: format!("derived tuned ring p={p} nbytes={nbytes} root={root}"),
                        details: vec![format!("pruned to {msgs} msgs, closed form says {want}")],
                    }),
                    Err(why) => failures
                        .push(Failure { what: "derived tuned ring".into(), details: vec![why] }),
                }
            }
        }
    }
    // The table entries by name, then the count at cluster scale (one byte
    // per chunk keeps the abstract buffers small): pruned native = scatter +
    // `tuned_ring_msgs(p)`.
    let mut scale = vec![8usize, 10, 129, 1024];
    if !quick {
        scale.push(4096);
    }
    for &p in &scale {
        let native = bcast_schedule(Algorithm::ScatterRingNative, p, p, 0);
        let redundant = check(&native, Semantics::Eager).redundant_transfers.len() as u64;
        let pruned = native.planned_volume().0 - redundant;
        let want = traffic::scatter_msgs(p, p) + traffic::tuned_ring_msgs(p);
        let by_name = match p {
            8 => Some((7 + 56, 7 + 44)),
            10 => Some((9 + 90, 9 + 75)),
            _ => None,
        };
        if pruned != want || by_name.is_some_and(|t| t != (native.planned_volume().0, pruned)) {
            failures.push(Failure {
                what: format!("derived tuned ring volume p={p}"),
                details: vec![format!(
                    "{} native msgs prune to {pruned}, closed form says {want}",
                    native.planned_volume().0
                )],
            });
        }
    }
    // With `nbytes < P` some chunks are empty, and an empty transfer is
    // vacuously "already held": the pass deletes it while the tuned ring —
    // whose rule looks at positions, not lengths — still posts it. There the
    // claim is the byte-exact one: the tuned ring carries no redundant byte
    // and the native ring's redundant bytes are exactly the closed-form
    // saving.
    for &p in &ps {
        for nbytes in [1usize, 17, 64 * p] {
            derived += 1;
            let tuned = check(
                &bcast_schedule(Algorithm::ScatterRingTuned, p, nbytes, 0),
                Semantics::Rendezvous,
            );
            let native = check(
                &bcast_schedule(Algorithm::ScatterRingNative, p, nbytes, 0),
                Semantics::Rendezvous,
            );
            let byte_saving =
                traffic::native_ring_bytes(nbytes, p) - traffic::tuned_ring_bytes(nbytes, p);
            if tuned.redundant_bytes != 0 || native.redundant_bytes != byte_saving {
                failures.push(Failure {
                    what: format!("byte-saving p={p} nbytes={nbytes}"),
                    details: vec![format!(
                        "tuned ring has {} redundant bytes (want 0), native {} (want the \
                         closed-form saving {byte_saving})",
                        tuned.redundant_bytes, native.redundant_bytes
                    )],
                });
            }
        }
    }
    println!(
        "phase 3: {derived} instances: pruning the enclosed ring's redundant transfers yields \
         the tuned ring op for op (P <= 64), 56->44 at P=8, 90->75 at P=10, counts to P={}",
        scale[scale.len() - 1]
    );
    // Where the paper did not look: the same pass over scatter + recursive
    // doubling. Reported, not gated — there is no closed form to hold it to.
    for p in [8usize, 64, 1024] {
        let rd = bcast_schedule(Algorithm::ScatterRdAllgather, p, 4 * p, 0);
        let pruned = prune_redundant(&rd);
        let clean = Semantics::ALL.iter().all(|&sem| check(&pruned, sem).is_clean());
        println!(
            "         scatter + recursive doubling P={p}: {} msgs / {} B prune to {} msgs / {} B \
             ({})",
            rd.planned_volume().0,
            rd.planned_volume().1,
            pruned.planned_volume().0,
            pruned.planned_volume().1,
            if clean { "still matched, deadlock-free and covering" } else { "NOT clean" }
        );
    }

    // ---- Phase 4: mutation drill -----------------------------------------
    // Seed an off-by-one into the tuned ring's (step, flag) pruning and
    // demand the analyses reject every mutant with a rank-level diagnostic.
    // A checker that passes mutants is vacuous.
    let mut mutants = 0usize;
    for &p in &ps {
        if !quick && ![3, 4, 8, 9, 16, 32].contains(&p) {
            continue;
        }
        let nbytes = 64 * p;
        let correct = bcast_schedule(Algorithm::ScatterRingTuned, p, nbytes, 0);
        for delta in [1usize, 2] {
            let sched = bcast_tuned_schedule_with(p, nbytes, 0, |rel, size| {
                let (step, flag) = step_flag(rel, size);
                (step + delta, flag)
            });
            if sched == correct {
                // Degenerate pruning window (e.g. p=2): the off-by-one
                // changes nothing, so there is no mutant to catch.
                continue;
            }
            mutants += 1;
            let caught = Semantics::ALL.iter().any(|&sem| {
                let rep = check(&sched, sem);
                !rep.is_clean() && rep.errors.iter().any(|e| e.contains("rank"))
            });
            if !caught {
                failures.push(Failure {
                    what: format!("mutation step_flag+{delta} p={p}"),
                    details: vec!["off-by-one in (step, flag) pruning was NOT detected".into()],
                });
            }
        }
    }
    println!("phase 4: {mutants} seeded step_flag mutants drilled");

    // ---- Phase 5: degraded (post-crash) schedules ------------------------
    // The self-healing broadcast re-derives its schedule over the survivor
    // subset after a crash. Prove the regenerated ring is still sound:
    // matched, deadlock-free under both semantics, full coverage on every
    // survivor, no ops or obligations on the dead ranks, and traffic equal
    // to the closed form at the shrunken world size. The epoch that then
    // heals on those survivors is executed too: it must move exactly the
    // degraded schedule plus the dissemination quorum's closed form — a
    // pairwise agreement message on a clean epoch is a failure here.
    let degraded_algorithms =
        [Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned];
    let mut degraded = 0usize;
    for &p in &ps {
        if p < 3 {
            continue; // need at least 2 survivors
        }
        // One dead rank (first / middle / last) and, when possible, a pair.
        let mut casualty_sets: Vec<Vec<usize>> = vec![vec![1 % p], vec![p / 2], vec![p - 1]];
        if p >= 4 {
            casualty_sets.push(vec![1, p - 1]);
        }
        for dead in &casualty_sets {
            let members: Vec<usize> = (0..p).filter(|r| !dead.contains(r)).collect();
            let root = members[0];
            for alg in degraded_algorithms {
                for nbytes in [17usize, 64 * p] {
                    let sched = degraded_bcast_schedule(alg, p, nbytes, &members, root);
                    let (msgs, bytes) = sched.planned_volume();
                    let model = traffic::bcast_volume(alg, nbytes, members.len());
                    if (msgs, bytes) != (model.msgs, model.bytes) {
                        failures.push(Failure {
                            what: format!(
                                "degraded traffic {} p={p} dead={dead:?} nbytes={nbytes}",
                                alg.schedule_name()
                            ),
                            details: vec![format!(
                                "IR volume ({msgs} msgs, {bytes} B) != closed form at P'={} ({} msgs, {} B)",
                                members.len(),
                                model.msgs,
                                model.bytes
                            )],
                        });
                    }
                    let healed = self_healing_bcast_event_world(
                        members.len(),
                        nbytes,
                        0,
                        alg,
                        &RecoveryConfig::default(),
                    );
                    let want = model.plus(traffic::agreement_volume(members.len()));
                    let got = (healed.traffic.total_msgs(), healed.traffic.total_bytes());
                    if got != (want.msgs, want.bytes) {
                        failures.push(Failure {
                            what: format!(
                                "healed-epoch traffic {} p={p} dead={dead:?} nbytes={nbytes}",
                                alg.schedule_name()
                            ),
                            details: vec![format!(
                                "executed (msgs, bytes) {got:?} != degraded schedule + \
                                 agreement closed form ({} msgs, {} B)",
                                want.msgs, want.bytes
                            )],
                        });
                    }
                    for sem in Semantics::ALL {
                        degraded += 1;
                        let rep = check(&sched, sem);
                        if !rep.is_clean() {
                            failures.push(Failure {
                                what: format!(
                                    "degraded {} p={p} dead={dead:?} nbytes={nbytes} {sem}",
                                    alg.schedule_name()
                                ),
                                details: rep.errors.clone(),
                            });
                        }
                    }
                    for &d in dead {
                        if !sched.ranks[d].ops.is_empty() || !sched.ranks[d].required.is_empty() {
                            failures.push(Failure {
                                what: format!(
                                    "degraded {} p={p} dead={dead:?}",
                                    alg.schedule_name()
                                ),
                                details: vec![format!(
                                    "dead rank {d} still has {} op(s) / {} requirement(s)",
                                    sched.ranks[d].ops.len(),
                                    sched.ranks[d].required.len()
                                )],
                            });
                        }
                    }
                }
            }
        }
    }
    println!(
        "phase 5: {degraded} degraded survivor-subset schedules analysed, healed-epoch traffic \
         reconciled with the agreement closed form"
    );

    // ---- Phase 6: the agreement's streams --------------------------------
    // The self-healing agreement runs as per-rank op streams too, and
    // `agreement_schedule` / `pairwise_schedule` collect what `agree` runs.
    // Every P <= 64: the clean epoch's quorum is matched and deadlock-free
    // under both semantics and moves `agreement_volume`. A failed epoch
    // with one silent non-leader (three positions) moves
    // `failed_agreement_volume`, sends to the silent rank counted; with the
    // halves nobody answers set aside (`answered_view`) it is matched and
    // deadlock-free under eager semantics — only eager, because a rank whose
    // conjunction is false keeps sending into rounds whose receivers dropped
    // their receive halves. The pairwise round is clean under both semantics
    // at P·(P−1) one-byte frames.
    let mut agreements = 0usize;
    let mut set_aside = 0usize;
    for p in 2..=64usize {
        let clean = agreement_schedule(p, |_| true, None);
        let what = format!("agreement p={p}");
        check_volume(&what, &clean, traffic::agreement_volume(p), &mut failures);
        agreements += check_semantics(&what, &clean, &Semantics::ALL, &mut failures);
        let mut silent = vec![1, p / 2, p - 1];
        silent.dedup();
        for s in silent {
            let failed = agreement_schedule(p, |_| true, Some(s));
            let what = format!("failed agreement p={p} silent={s}");
            let want = traffic::failed_agreement_volume(p, p, p - 1);
            check_volume(&what, &failed, want, &mut failures);
            let (view, aside) = answered_view(&failed, s);
            set_aside += aside;
            agreements += check_semantics(&what, &view, &[Semantics::Eager], &mut failures);
        }
        let (pairwise, frames) = (pairwise_schedule(p), (p * (p - 1)) as u64);
        let what = format!("pairwise agreement p={p}");
        let want = traffic::Volume { msgs: frames, bytes: frames };
        check_volume(&what, &pairwise, want, &mut failures);
        agreements += check_semantics(&what, &pairwise, &Semantics::ALL, &mut failures);
    }
    // Seeded mutant: a quorum that receives from the member `dist − 1`
    // behind (position `idx − dist + 1`) instead of `dist` behind.
    let mut agreement_mutants = 0usize;
    for &p in &ps {
        let mut sched = agreement_schedule(p, |_| true, None);
        for rank in 0..p {
            for step in 0..sched.ranks[rank].ops.len() {
                let from = sched.ranks[rank].ops[step].recv.as_ref().map(|r| r.peer);
                if let Some(from) = from {
                    redirect_recv(&mut sched, rank, step, (from + 1) % p);
                }
            }
        }
        agreement_mutants += 1;
        let caught = Semantics::ALL.iter().any(|&sem| {
            let rep = check(&sched, sem);
            !rep.is_clean() && rep.errors.iter().any(|e| e.contains("rank"))
        });
        if !caught {
            failures.push(Failure {
                what: format!("mutation quorum idx-dist+1 p={p}"),
                details: vec!["a quorum receiving from the wrong partner was NOT detected".into()],
            });
        }
    }
    println!(
        "phase 6: {agreements} agreement instances analysed (P <= 64: clean quorum, failed \
         epoch with a silent member at three positions ({set_aside} halves nobody answers set \
         aside), pairwise round); {agreement_mutants} seeded quorum mutants drilled"
    );

    // ---- Verdict ---------------------------------------------------------
    if failures.is_empty() {
        let sources = Collective::SWEEP.len();
        println!("schedcheck: all clear ({} world sizes, {sources} sources)", ps.len());
        return;
    }
    eprintln!("schedcheck: {} failure(s)", failures.len());
    for f in &failures {
        eprintln!("FAIL {}", f.what);
        for d in &f.details {
            eprintln!("     {d}");
        }
    }
    std::process::exit(1);
}
