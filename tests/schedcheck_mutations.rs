//! Negative tests: seeded schedule bugs must be *rejected* by the static
//! analyses, each with a diagnostic naming the offending rank (and, where
//! the failure is op-level, the step). A checker that accepts mutants
//! proves nothing. Since the schedule is the program, the `(step, flag)`
//! mutant is also *run*: what the analyses reject must not execute cleanly.

use bcast_core::bcast::{bcast_schedule, bcast_tuned_schedule_with};
use bcast_core::{step_flag, Algorithm};
use schedcheck::mutate::{drop_op, duplicate_op, redirect_send, retag, truncate_send};
use schedcheck::{check, Report, Semantics};

/// The mutant must fail under at least one semantics, with a rank-level
/// diagnostic; returns the failing report for further shape assertions.
fn must_reject(sched: &bcast_core::Schedule, what: &str) -> Report {
    for sem in Semantics::ALL {
        let rep = check(sched, sem);
        if !rep.is_clean() {
            assert!(
                rep.errors.iter().any(|e| e.contains("rank")),
                "{what}: diagnostics lack a rank: {:?}",
                rep.errors
            );
            return rep;
        }
    }
    panic!("{what}: mutant accepted under both semantics");
}

#[test]
fn step_flag_off_by_one_is_rejected() {
    // The paper's (step, flag) pruning, shifted by one: a rank keeps
    // sending one step too long and stops receiving one step too early.
    for p in [4usize, 8, 9, 16] {
        let sched = bcast_tuned_schedule_with(p, 64 * p, 0, |rel, size| {
            let (step, flag) = step_flag(rel, size);
            (step + 1, flag)
        });
        let rep = must_reject(&sched, &format!("step_flag+1 p={p}"));
        // The damage is localized: some transfer goes unmatched or some
        // required bytes never arrive.
        assert!(
            rep.errors.iter().any(|e| {
                e.contains("matching")
                    || e.contains("orphaned")
                    || e.contains("coverage")
                    || e.contains("deadlock")
            }),
            "p={p}: unexpected diagnostic shape: {:?}",
            rep.errors
        );
    }
}

#[test]
fn step_flag_off_by_one_does_not_run_clean() {
    // The same mutant, executed: its op streams through the interpreter on
    // the event executor at P = 8. It may deliver wrong bytes, fail with an
    // error, or trip EventWorld's stuck-rank deadlock report (a panic) —
    // anything but every rank returning Ok with the payload intact.
    use bcast_core::ring_tuned::tuned_ring_ops_with;
    use bcast_core::scatter::scatter_ops;
    use bcast_core::Interp;
    use mpsim::{AsyncCommunicator, EventWorld};

    let (p, nbytes, root) = (8usize, 64 * 8usize, 0usize);
    let src = bcast_core::verify::pattern(nbytes, 0x5EED);
    for delta in [1usize, 2] {
        let src = src.clone();
        let ran = std::panic::catch_unwind(move || {
            EventWorld::run(p, |comm| {
                let src = src.clone();
                async move {
                    let rank = comm.rank();
                    let mut buf = if rank == root { src.clone() } else { vec![0u8; nbytes] };
                    let mut interp = Interp::new(&comm, &mut buf);
                    let scatter = interp.run(scatter_ops(rank, p, nbytes, root)).await;
                    let ring = tuned_ring_ops_with(rank, p, nbytes, root, |rel, size| {
                        let (step, flag) = step_flag(rel, size);
                        (step + delta, flag)
                    });
                    let ring = interp.run(ring).await;
                    scatter.is_ok() && ring.is_ok() && buf == src
                }
            })
            .results
        });
        let clean = ran.is_ok_and(|intact| intact.iter().all(|&ok| ok));
        assert!(!clean, "step_flag+{delta}: the rejected schedule executed cleanly");
    }
}

#[test]
fn swapped_ring_neighbor_is_rejected() {
    // Rank 2's first ring hop sent to its *left* neighbor instead of its
    // right: classic direction swap.
    for p in [4usize, 8] {
        let mut sched = bcast_schedule(Algorithm::ScatterRingNative, p, 64 * p, 0);
        let step = sched.ranks[2]
            .ops
            .iter()
            .position(|op| op.phase == "ring" && op.send.is_some())
            .expect("rank 2 has a ring send");
        let wrong = sched.ranks[2].ops[step].recv.as_ref().unwrap().peer;
        redirect_send(&mut sched, 2, step, wrong);
        let rep = must_reject(&sched, &format!("swapped neighbor p={p}"));
        assert!(
            rep.errors.iter().any(|e| e.contains("rank 2") || e.contains("rank")),
            "{:?}",
            rep.errors
        );
    }
}

#[test]
fn truncated_scatter_chunk_is_rejected() {
    // The root's first scatter send loses its last byte: the subtree below
    // that child can never fill its required range.
    let p = 8;
    let mut sched = bcast_schedule(Algorithm::ScatterRingTuned, p, 64 * p, 0);
    let step = sched.ranks[0]
        .ops
        .iter()
        .position(|op| op.phase == "scatter" && op.send.is_some())
        .expect("root has a scatter send");
    let len = sched.ranks[0].ops[step].send.as_ref().unwrap().loc.len();
    truncate_send(&mut sched, 0, step, len - 1);
    let rep = must_reject(&sched, "truncated scatter chunk");
    assert!(rep.errors.iter().any(|e| e.contains("coverage")), "{:?}", rep.errors);
}

#[test]
fn dropped_and_duplicated_ops_are_rejected() {
    let p = 8;
    let base = bcast_schedule(Algorithm::Binomial, p, 256, 0);

    let mut dropped = base.clone();
    drop_op(&mut dropped, 0, 0);
    must_reject(&dropped, "dropped root send");

    let mut doubled = base.clone();
    duplicate_op(&mut doubled, 0, 0);
    let rep = must_reject(&doubled, "duplicated root send");
    assert!(rep.errors.iter().any(|e| e.contains("orphaned")), "{:?}", rep.errors);
}

#[test]
fn retagged_op_is_rejected() {
    let p = 8;
    let mut sched = bcast_schedule(Algorithm::Binomial, p, 256, 0);
    retag(&mut sched, 0, 0, mpsim::Tag(0x7777));
    must_reject(&sched, "retagged root send");
}

#[test]
fn diagnostics_name_rank_and_step() {
    // The rank/step coordinates in a diagnostic must point at the mutation
    // site (or its matched partner), so a failure is actionable.
    let p = 8;
    let mut sched = bcast_schedule(Algorithm::Binomial, p, 256, 0);
    redirect_send(&mut sched, 0, 0, 5);
    let rep = must_reject(&sched, "redirected binomial send");
    assert!(
        rep.errors.iter().any(|e| e.contains("step")),
        "diagnostics lack a step: {:?}",
        rep.errors
    );
}
