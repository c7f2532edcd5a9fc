//! Schedule-mutation helpers for negative testing.
//!
//! Each helper corrupts one op of a [`Schedule`] in a way that mimics a real
//! implementation bug — a swapped neighbor, a truncated chunk, a dropped or
//! doubled transfer, a tag mismatch. Negative tests apply a mutation to a
//! known-good schedule and assert that [`crate::analysis::check`] rejects it
//! with a diagnostic naming the offending rank and step, proving the
//! analyses have teeth rather than vacuously passing.

use bcast_core::Schedule;
use mpsim::{Rank, Tag};

/// Redirect the send half of `sched.ranks[rank].ops[step]` to `new_peer`
/// (a swapped-neighbor bug, e.g. sending right instead of left in a ring).
///
/// Panics if the op has no send half — mutating a nonexistent transfer would
/// make the negative test vacuous.
pub fn redirect_send(sched: &mut Schedule, rank: Rank, step: usize, new_peer: Rank) {
    let send = sched.ranks[rank].ops[step]
        .send
        .as_mut()
        .unwrap_or_else(|| panic!("rank {rank} step {step} has no send half to redirect"));
    send.peer = new_peer;
}

/// Redirect the receive half of `sched.ranks[rank].ops[step]` to
/// `new_peer` (a receive from the wrong partner, e.g. an off-by-one in a
/// dissemination distance). Panics if the op has no receive half.
pub fn redirect_recv(sched: &mut Schedule, rank: Rank, step: usize, new_peer: Rank) {
    let recv = sched.ranks[rank].ops[step]
        .recv
        .as_mut()
        .unwrap_or_else(|| panic!("rank {rank} step {step} has no receive half to redirect"));
    recv.peer = new_peer;
}

/// Truncate the send half of `sched.ranks[rank].ops[step]` to `new_len`
/// bytes (an off-by-one / short-chunk bug). Panics if the op has no send
/// half or `new_len` exceeds the current length.
pub fn truncate_send(sched: &mut Schedule, rank: Rank, step: usize, new_len: usize) {
    let send = sched.ranks[rank].ops[step]
        .send
        .as_mut()
        .unwrap_or_else(|| panic!("rank {rank} step {step} has no send half to truncate"));
    assert!(new_len <= send.loc.len(), "truncation must shrink the transfer");
    send.loc.end = send.loc.start + new_len;
}

/// Remove `sched.ranks[rank].ops[step]` entirely (a skipped transfer).
pub fn drop_op(sched: &mut Schedule, rank: Rank, step: usize) {
    sched.ranks[rank].ops.remove(step);
}

/// Duplicate `sched.ranks[rank].ops[step]` immediately after itself
/// (a doubled transfer, e.g. a loop running one iteration too many).
pub fn duplicate_op(sched: &mut Schedule, rank: Rank, step: usize) {
    let op = sched.ranks[rank].ops[step].clone();
    sched.ranks[rank].ops.insert(step + 1, op);
}

/// Retag both halves of `sched.ranks[rank].ops[step]` (a tag-mismatch bug:
/// the op still fires but no longer matches its intended partner).
pub fn retag(sched: &mut Schedule, rank: Rank, step: usize, new_tag: Tag) {
    let op = &mut sched.ranks[rank].ops[step];
    assert!(
        op.send.is_some() || op.recv.is_some(),
        "rank {rank} step {step} has no halves to retag"
    );
    if let Some(s) = &mut op.send {
        s.tag = new_tag;
    }
    if let Some(r) = &mut op.recv {
        r.tag = new_tag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{check, Semantics};

    fn ping() -> Schedule {
        let mut s = Schedule::new("ping", 3, 4);
        s.ranks[0].mark_valid(0..4);
        s.ranks[0].send("x", 1, Tag(1), 0..4);
        s.ranks[1].recv("x", 0, Tag(1), 0..4);
        s.ranks[1].require(0..4);
        s
    }

    #[test]
    fn redirect_breaks_matching() {
        let mut s = ping();
        redirect_send(&mut s, 0, 0, 2);
        let rep = check(&s, Semantics::Eager);
        assert!(!rep.is_clean());
        assert!(rep.errors.iter().any(|e| e.contains("rank")), "{:?}", rep.errors);
    }

    #[test]
    fn truncate_breaks_coverage() {
        let mut s = ping();
        truncate_send(&mut s, 0, 0, 3);
        let rep = check(&s, Semantics::Eager);
        assert!(rep.errors.iter().any(|e| e.contains("coverage")), "{:?}", rep.errors);
    }

    #[test]
    fn drop_strands_the_receiver() {
        let mut s = ping();
        drop_op(&mut s, 0, 0);
        let rep = check(&s, Semantics::Eager);
        assert!(rep.errors.iter().any(|e| e.contains("deadlock")), "{:?}", rep.errors);
    }

    #[test]
    fn duplicate_orphans_a_send() {
        let mut s = ping();
        duplicate_op(&mut s, 0, 0);
        let rep = check(&s, Semantics::Eager);
        assert!(rep.errors.iter().any(|e| e.contains("orphaned send")), "{:?}", rep.errors);
    }

    #[test]
    fn retag_breaks_the_rendezvous() {
        let mut s = ping();
        retag(&mut s, 0, 0, Tag(0x7F));
        let rep = check(&s, Semantics::Rendezvous);
        assert!(!rep.is_clean(), "{:?}", rep.errors);
    }
}
