//! Cluster-scale broadcast sweeps on the discrete-event executor.
//!
//! The thread-per-rank executors top out at a few dozen ranks; the event
//! executor schedules ranks as cooperative futures on one thread, so the
//! paper's closed-form traffic model can be checked at `P = 256`, `1024`
//! and `4096` — world sizes where the tuned ring's saving is no longer a
//! table entry but millions of messages. Every run validates the delivered
//! payload on every rank (inside the launch helpers) and then pins the
//! measured message / byte counters to the analytic forms.
//!
//! The `P = 1024` and `P = 4096` sweeps move ~1M and ~16.8M messages per
//! algorithm, so they are `#[ignore]` by default and driven explicitly (in
//! release mode) by the `event-exec` CI lane:
//! `cargo test --release --test event_megascale -- --ignored`.

use bcast_core::coalesce::{coalesced_envelope_count, coalesced_ring_ops};
use bcast_core::traffic::{bcast_volume, scatter_msgs};
use bcast_core::{bcast_event_world, Algorithm, CoalescePolicy, Collective};

/// The reactor-accounting invariants schedcheck's protocol models verify in
/// the abstract, asserted on every megascale sweep's concrete counters:
/// no mailbox lane spills, the wakeup/poll identity
/// `wakeups == spurious_polls + P` (each rank task completes on exactly one
/// `Ready` poll — dedup never double-enqueues, no wake is lost), and every
/// `Pending` poll attributable to a delivered message or a startup poll
/// (`spurious_polls ≤ msgs + p`). At these world sizes a ping-ponging
/// reactor would still deliver — only the counters betray it.
///
/// The lanes' node slab must stay within two wavefronts: `queued_peak ≤ 2P`
/// (measured at most `P + ⌈log₂P⌉ − 1` up to P = 1024 and `2P − 2` above,
/// where the receive budget binds). Storage that keeps each queue's
/// high-water mark — a `VecDeque` per tag bucket, or one slab per
/// destination — holds O(P²) instead (786 432 at P = 1024) and fails this.
///
/// Alongside the reactor counters, every sweep pins the zero-copy budget.
/// A binomial or tuned rank copies each payload byte exactly once —
/// `exactly_once` — so its bill is `nbytes`; a native or coalesced rank
/// may restage or re-land some, so its bill is at most `2·nbytes`. These
/// are the closed-form ceilings of `Collective::copy_ceiling`, which
/// `schedcheck::reconcile_traffic` enforces. At `P = 16384` a per-hop copy regression
/// would multiply RAM traffic by the scatter-tree depth, and a restaged
/// ring send would add a chunk; this assertion makes either fail the sweep.
fn assert_reactor_invariants(
    out: &mpsim::WorldOutcome<()>,
    p: usize,
    msgs: u64,
    nbytes: usize,
    exactly_once: bool,
) {
    let reactor = &out.reactor;
    assert_eq!(reactor.mailbox_spills, 0, "P={p}: collective traffic spilled a mailbox lane");
    assert_eq!(
        reactor.wakeups,
        reactor.spurious_polls + p as u64,
        "P={p}: wakeup/poll accounting identity broken"
    );
    assert!(
        reactor.spurious_polls <= msgs + p as u64,
        "P={p}: {} spurious polls exceed the {msgs} messages + {p} startup polls that could \
         legitimately cause them",
        reactor.spurious_polls
    );
    assert!(
        reactor.queued_peak <= 2 * p as u64,
        "P={p}: {} envelopes queued at once, above two wavefronts (2P)",
        reactor.queued_peak
    );
    let nbytes = nbytes as u64;
    for (rank, st) in out.traffic.per_rank.iter().enumerate() {
        if exactly_once {
            assert_eq!(st.bytes_copied, nbytes, "P={p} rank={rank}: not one copy per byte");
        } else {
            assert!(
                st.bytes_copied <= 2 * nbytes,
                "P={p} rank={rank}: {}B memcpy'd, above the {}B zero-copy budget",
                st.bytes_copied,
                2 * nbytes
            );
        }
    }
}

/// Run binomial and both scatter-ring algorithms at world size `p` and pin
/// the measured counters to the closed forms.
fn sweep_scatter_ring(p: usize, nbytes: usize) {
    for algorithm in
        [Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned]
    {
        let out = bcast_event_world(p, nbytes, 0, algorithm);
        assert!(out.traffic.is_balanced(), "{algorithm:?} P={p}: unbalanced counters");
        let vol = bcast_volume(algorithm, nbytes, p);
        assert_eq!(out.traffic.total_msgs(), vol.msgs, "{algorithm:?} P={p}: msgs");
        assert_eq!(out.traffic.total_bytes(), vol.bytes, "{algorithm:?} P={p}: bytes");
        let exactly_once = algorithm != Algorithm::ScatterRingNative;
        assert_reactor_invariants(&out, p, vol.msgs, nbytes, exactly_once);
    }
}

/// Run the coalescing broadcast at world size `p` and pin its counters:
/// the tuned ring's bytes in the closed-form message count, which is also
/// what the ranks' op streams plan (summed lazily — collecting the schedule
/// at `P = 4096` would hold 16.8M ops).
fn sweep_coalesced(p: usize, nbytes: usize) {
    let policy = CoalescePolicy::unlimited();
    let out = bcast_event_world(p, nbytes, 0, Collective::Coalesced(policy));
    assert!(out.traffic.is_balanced(), "coalesced P={p}: unbalanced counters");
    let msgs = coalesced_envelope_count(p) + scatter_msgs(nbytes, p);
    let ring_sends: usize = (0..p)
        .map(|rank| {
            coalesced_ring_ops(rank, p, nbytes, 0, &policy).filter(|op| op.send.is_some()).count()
        })
        .sum();
    assert_eq!(ring_sends as u64, coalesced_envelope_count(p), "coalesced P={p}: planned");
    assert_eq!(out.traffic.total_msgs(), msgs, "coalesced P={p}: msgs");
    let vol = bcast_volume(Algorithm::ScatterRingTuned, nbytes, p);
    assert_eq!(out.traffic.total_bytes(), vol.bytes, "coalesced P={p}: bytes");
    assert_reactor_invariants(&out, p, msgs, nbytes, false);
}

#[test]
fn megascale_p256() {
    // nbytes ≥ P keeps every chunk non-empty, so the closed forms count
    // every transfer the schedule emits.
    sweep_scatter_ring(256, 4096);
    sweep_coalesced(256, 4096);
}

#[test]
#[ignore = "~1M messages per algorithm; run in release via the event-exec CI lane"]
fn megascale_p1024() {
    sweep_scatter_ring(1024, 4096);
    sweep_coalesced(1024, 4096);
}

#[test]
#[ignore = "~16.8M messages per algorithm; run in release via the event-exec CI lane"]
fn megascale_p4096() {
    sweep_scatter_ring(4096, 8192);
    sweep_coalesced(4096, 8192);
}

#[test]
#[ignore = "~268M messages; run in release via the event-exec CI lane's dedicated phase"]
fn megascale_p16384() {
    // The largest sweep runs the paper's tuned ring and the P − 1 messages
    // of binomial: at P = 16384 the ring schedule moves P·(P-1) ≈ 268M
    // one-byte chunks, so doubling up with the native ring would buy no
    // extra coverage for twice the wall clock. The lane gives this test its
    // own phase so its cost shows up as a separate row in the CI timing
    // table.
    let p = 16384;
    let nbytes = 16384; // one byte per chunk: every transfer stays non-empty
    for algorithm in [Algorithm::Binomial, Algorithm::ScatterRingTuned] {
        let out = bcast_event_world(p, nbytes, 0, algorithm);
        assert!(out.traffic.is_balanced(), "{algorithm:?} P={p}: unbalanced counters");
        let vol = bcast_volume(algorithm, nbytes, p);
        assert_eq!(out.traffic.total_msgs(), vol.msgs, "{algorithm:?} P={p}: msgs");
        assert_eq!(out.traffic.total_bytes(), vol.bytes, "{algorithm:?} P={p}: bytes");
        // The dense mailbox lanes must absorb the whole sweep without ever
        // falling back to the spill map, the wake accounting must stay
        // exact through ~268M messages, and every rank copies each byte once.
        assert_reactor_invariants(&out, p, vol.msgs, nbytes, true);
    }
}
