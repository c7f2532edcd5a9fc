//! Differential oracle: the sleep-set DPOR explorer against the exhaustive
//! explorer, on both protocol models (mailbox notify-skip, reactor run
//! queue) plus their mutants — the clean configurations and the mutation
//! drill of `schedcheck explore-reactor`, checked in every `cargo test`.
//!
//! The contract is twofold: identical verdicts everywhere (including the
//! *kind* of failure — a reduction that turns a deadlock into an invariant
//! trip would be lying about the bug), and strictly fewer distinct states
//! wherever the model has any commuting pair to exploit, with the reduction
//! factor printed so regressions in the reduction are visible in test
//! output (`--nocapture`).

use schedcheck::models::{MailboxModel, RunQueueModel};
use schedcheck::{explore, explore_dpor, Model, Stats, DEFAULT_MAX_STATES};

/// Collapse an exploration outcome to its verdict kind: the explorers may
/// exhibit different counterexample *states* (a reduction is free to find a
/// different representative of the same failing class), but the property
/// that failed must be the same.
fn verdict_kind(r: &Result<Stats, String>) -> &'static str {
    match r {
        Ok(_) => "clean",
        Err(e) if e.starts_with("deadlock") => "deadlock",
        Err(e) if e.starts_with("invariant violated") => "invariant",
        Err(e) if e.starts_with("terminal state rejected") => "terminal",
        Err(_) => "other",
    }
}

/// Run both explorers and demand identical verdicts. On clean models,
/// demand `strict`ly fewer DPOR states (never more, in any case) and return
/// the reduction factor.
fn differential<M: Model>(name: &str, model: &M, strict: bool) -> Option<f64> {
    let full = explore(model, DEFAULT_MAX_STATES);
    let dpor = explore_dpor(model, DEFAULT_MAX_STATES);
    assert_eq!(
        verdict_kind(&full),
        verdict_kind(&dpor),
        "{name}: verdicts diverge\nexhaustive: {full:?}\ndpor: {dpor:?}"
    );
    if let (Ok(f), Ok(d)) = (&full, &dpor) {
        if strict {
            assert!(
                d.states < f.states,
                "{name}: DPOR must visit strictly fewer states (exhaustive {}, dpor {})",
                f.states,
                d.states
            );
        } else {
            assert!(
                d.states <= f.states,
                "{name}: DPOR visited more states than exhaustive ({} vs {})",
                d.states,
                f.states
            );
        }
        let factor = f.states as f64 / d.states as f64;
        println!(
            "{name}: exhaustive {} states / dpor {} states = {factor:.2}x reduction \
             ({} vs {} transitions)",
            f.states, d.states, f.transitions, d.transitions
        );
        Some(factor)
    } else {
        println!("{name}: both explorers agree on verdict [{}]", verdict_kind(&full));
        None
    }
}

/// Run a mutant under both explorers: the verdicts must agree on the
/// failure kind, and that kind must be `expect`.
fn mutant<M: Model>(name: &str, model: &M, expect: &str) {
    assert_eq!(differential(name, model, true), None, "{name}: mutant ran clean");
    assert_eq!(verdict_kind(&explore(model, DEFAULT_MAX_STATES)), expect, "{name}");
}

#[test]
fn mailbox_notify_skip_agrees_and_reduces_5x() {
    for senders in 1..=3 {
        for spin in [false, true] {
            differential(
                &format!("mailbox s={senders} spin={spin}"),
                &MailboxModel::clean(senders, spin),
                true,
            );
        }
    }
    differential("mailbox s=4 spin=true", &MailboxModel::clean(4, true), true);
    let factor =
        differential("mailbox s=4", &MailboxModel::clean(4, false), true).expect("clean model");
    assert!(
        factor >= 5.0,
        "acceptance criterion: >= 5x fewer states on the mailbox notify-skip model, got {factor:.2}x"
    );
}

#[test]
fn reactor_run_queue_agrees() {
    for senders in 1..=3 {
        for crasher in [false, true] {
            // One sender and no crasher reduces 1.00x: nothing to be strict about.
            differential(
                &format!("run-queue s={senders} crasher={crasher}"),
                &RunQueueModel { senders, crasher, clear_after_poll: false, skip_exit_wake: false },
                senders > 1 || crasher,
            );
        }
    }
}

#[test]
fn mutants_agree_on_the_failure_kind() {
    mutant(
        "mailbox broken-skip",
        &MailboxModel { broken_skip: true, ..MailboxModel::clean(1, false) },
        "deadlock",
    );
    mutant(
        "mailbox skip-recheck",
        &MailboxModel { skip_recheck: true, ..MailboxModel::clean(1, true) },
        "deadlock",
    );
    mutant(
        "run-queue clear-after-poll",
        &RunQueueModel {
            senders: 2,
            crasher: false,
            clear_after_poll: true,
            skip_exit_wake: false,
        },
        "deadlock",
    );
    mutant(
        "run-queue skip-exit-wake",
        &RunQueueModel { senders: 1, crasher: true, clear_after_poll: false, skip_exit_wake: true },
        "deadlock",
    );
}
