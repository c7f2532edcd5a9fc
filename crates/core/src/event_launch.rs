//! World-launch entry points for the discrete-event executor: build an
//! [`EventWorld`] of `p` cooperative rank tasks, run one broadcast across it
//! and hand back the [`WorldOutcome`] with its traffic counters.
//!
//! The thread-per-rank executors top out at a few dozen ranks (OS threads,
//! stacks, context switches); the event executor schedules ranks as
//! hand-rolled futures on one thread, which is what makes the paper's
//! asymptotic claims checkable at cluster scale — `P = 256`, `1024`, `4096` —
//! inside an ordinary CI job. Every launch verifies the delivered payload on
//! every rank against the generator pattern before returning, so a returned
//! outcome is already a correctness witness; callers then compare the
//! counters against the closed forms in [`crate::traffic`].

use std::time::Duration;

use mpsim::{AsyncCommunicator, EventWorld, Rank, Result, WorldOutcome, WorldTraffic};

use crate::bcast::Algorithm;
use crate::recovery::{
    self_healing_bcast_traced_async, Healed, RecoveryConfig, RecoveryDrill, RecoveryTrace,
};
use crate::schedule::Collective;
use crate::verify::pattern;

/// Payload generator seed of every event-world launch — the outcome is
/// deterministic, so pinning the seed keeps repeated sweeps comparable.
pub const EVENT_LAUNCH_SEED: u64 = 0xE7E1;

/// Run one broadcast of the [`Collective`] table — an [`Algorithm`], or the
/// coalescing, pipeline or SMP broadcast — from `root` on an event world of
/// `p` ranks over an `nbytes` payload.
///
/// Every rank's delivered buffer is asserted equal to the source pattern
/// before its task exits; the returned outcome carries the measured traffic
/// and the virtual-clock elapsed time.
///
/// # Panics
///
/// On an allgather, which has no root to broadcast from.
pub fn bcast_event_world(
    p: usize,
    nbytes: usize,
    root: Rank,
    collective: impl Into<Collective>,
) -> WorldOutcome<()> {
    let collective = collective.into();
    assert!(
        !matches!(collective, Collective::Allgather(_)),
        "bcast_event_world runs broadcasts only"
    );
    let src = pattern(nbytes, EVENT_LAUNCH_SEED);
    let out = EventWorld::run(p, |comm| {
        let src = src.clone();
        async move {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            #[allow(
                clippy::expect_used,
                reason = "a failed broadcast must fail the launch loudly: \
                          the whole point of the sweep is the completed run"
            )]
            collective.run(&comm, &mut buf, root).await.expect("broadcast failed");
            assert_eq!(buf, src, "rank {} diverged", comm.rank());
        }
    });
    // Built-in collectives use a handful of tags per peer pair, all of
    // which must stay in the mailbox lanes' inline buckets: a spill here
    // means the dense-lane fast path silently degraded to hashing.
    assert_eq!(out.reactor.mailbox_spills, 0, "collective traffic spilled a mailbox lane");
    out
}

/// What one rank's self-healing run produced: the recovery outcome, the
/// per-rank [`RecoveryTrace`], and the delivered buffer (so launch-level
/// checkers can assert byte-identical payloads without re-threading state
/// out of the closure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankRun {
    /// The recovery outcome on this rank: [`Healed`] on a survivor, the
    /// self-naming `PeerFailed` on a crashed rank, the root-naming one when
    /// the payload is unrecoverable.
    pub result: Result<Healed>,
    /// What the epoch loop did on this rank, step by step.
    pub trace: RecoveryTrace,
    /// The rank's delivered buffer (meaningful only on `Ok`).
    pub buf: Vec<u8>,
}

/// The per-rank body of a self-healing launch over any communicator stack:
/// stage the source on the root, zero everyone else, run the traced
/// recovery loop, and package the outcome as a [`RankRun`].
///
/// The world assembly — which executor, which fault decorator — stays at
/// the call site; chaos harnesses wrap `comm` in a `netsim::FaultyComm`
/// before calling this, fault-free launches pass the executor's
/// communicator straight through.
pub async fn self_healing_rank_task<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    src: &[u8],
    root: Rank,
    algorithm: Algorithm,
    cfg: &RecoveryConfig,
    drill: &RecoveryDrill,
) -> RankRun {
    let mut buf = if comm.rank() == root { src.to_vec() } else { vec![0u8; src.len()] };
    let mut trace = RecoveryTrace::default();
    let result =
        self_healing_bcast_traced_async(comm, &mut buf, root, algorithm, cfg, drill, &mut trace)
            .await;
    RankRun { result, trace, buf }
}

/// Run a fault-free self-healing broadcast on an event world of `p` ranks
/// and assert it completes in one epoch with everyone alive — the megascale
/// smoke leg and the zero-fault baseline of the chaos harness.
///
/// Unlike [`bcast_event_world`], recovery launches do not assert on mailbox
/// lane spills: agreement traffic uses high digest-shifted tag pages that
/// are allowed to leave the dense inline buckets.
pub fn self_healing_bcast_event_world(
    p: usize,
    nbytes: usize,
    root: Rank,
    algorithm: Algorithm,
    cfg: &RecoveryConfig,
) -> WorldOutcome<RankRun> {
    let src = pattern(nbytes, EVENT_LAUNCH_SEED);
    let cfg = *cfg;
    let out = EventWorld::run(p, |comm| {
        let src = src.clone();
        async move {
            self_healing_rank_task(&comm, &src, root, algorithm, &cfg, &RecoveryDrill::NONE).await
        }
    });
    let spec = RecoverySpec { src: &src, root, cfg, planned_victims: &[], lossy_links: false };
    if let Err(why) = check_recovery_outcome(&spec, &out.results, &out.traffic, out.elapsed) {
        // A fault-free launch violating its own invariants is a harness
        // bug, not a finding.
        panic!("fault-free self-healing launch failed: {why}");
    }
    out
}

/// What a self-healing launch was *supposed* to do — the reference the
/// invariant checker judges a [`RankRun`] set against.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySpec<'a> {
    /// The source payload staged on the root.
    pub src: &'a [u8],
    /// The caller-designated root (world numbering).
    pub root: Rank,
    /// The configuration the run was *supposed* to honor. Drill knobs that
    /// secretly degrade the runner are judged — and caught — against this.
    pub cfg: RecoveryConfig,
    /// Ranks the fault plan may fail-stop. Ranks outside this set must
    /// never die, and may only be excluded from a survivor set by a
    /// mid-agreement split (bounded below).
    pub planned_victims: &'a [Rank],
    /// Whether the network itself may drop, duplicate or delay messages.
    /// A lossy fabric leaves in-flight retransmissions undrained at
    /// teardown, so traffic is judged by per-link conservation
    /// ([`reconcile_crashed_traffic`]) instead of exact balance even when
    /// no rank crashes.
    pub lossy_links: bool,
}

impl RecoverySpec<'_> {
    /// Whether the spec guarantees every live rank heals: the root must be
    /// crash-free and the epoch budget must cover the worst cascade — each
    /// crash can burn two epochs (the split-verdict epoch plus the stalled
    /// isolation epoch), plus the final clean attempt.
    pub fn liveness_guaranteed(&self) -> bool {
        !self.planned_victims.contains(&self.root) && self.budget_covers_cascade()
    }

    /// Whether the epoch budget covers the worst cascade of the planned
    /// crashes (see [`RecoverySpec::liveness_guaranteed`]).
    fn budget_covers_cascade(&self) -> bool {
        self.cfg.max_epochs > 2 * self.planned_victims.len() as u32
    }
}

/// A loose ceiling on the virtual-clock duration of a self-healing launch
/// at world size `p`: `p + 2` heartbeat deadlines per epoch. It is not a
/// worst case. An attempt and the two dissemination quorums stay under
/// three deadlines (every attempt receive is step-bounded, and a quorum's
/// `2·⌈log₂p⌉` receives are bounded by `2 · step_timeout` each), but the
/// leader stages can wait up to three more and a pairwise receive up to
/// four on a peer that never answers. Those long waits only run out on a
/// live peer stuck elsewhere — a dead one fails at once on every executor's
/// exit detector — so real runs sit orders of magnitude below the ceiling
/// (the crash-point sweep's slowest launch uses under 1 % of it). A run
/// *above* it means a timeout failed to fire, or fired far more often than
/// the protocol allows — the recovery-time invariant.
pub fn recovery_elapsed_bound(cfg: &RecoveryConfig, p: usize) -> Duration {
    let per_receive = cfg.step_timeout.saturating_mul(2 * p as u32 + 6);
    per_receive.saturating_mul((p as u32 + 2).saturating_mul(cfg.max_epochs.max(1)))
}

/// Per-link conservation under crashes: a link may under-deliver (messages
/// to or from a dead rank vanish) but never over-deliver — for every
/// directed link, messages and bytes received must not exceed those sent.
/// This is the crash-tolerant weakening of
/// [`mpsim::WorldTraffic::is_balanced`], which only holds fault-free.
pub fn reconcile_crashed_traffic(traffic: &WorldTraffic) -> std::result::Result<(), String> {
    for (dst, stats) in traffic.per_rank.iter().enumerate() {
        for (&src, pt) in &stats.by_peer {
            let sent = traffic
                .per_rank
                .get(src)
                .and_then(|s| s.by_peer.get(&dst))
                .copied()
                .unwrap_or_default();
            if pt.msgs_recvd > sent.msgs_sent || pt.bytes_recvd > sent.bytes_sent {
                return Err(format!(
                    "link {src}->{dst} over-delivered: recvd {}msg/{}B vs sent {}msg/{}B",
                    pt.msgs_recvd, pt.bytes_recvd, sent.msgs_sent, sent.bytes_sent
                ));
            }
        }
    }
    Ok(())
}

/// Judge one completed self-healing launch against its [`RecoverySpec`].
///
/// Returns the first violated invariant as a human-readable finding — this
/// is deliberately non-panicking so the chaos search can use it as its
/// violation oracle. The invariants, in order:
///
/// 1. **Survivor-set sandwich** — every healed rank's survivor set is drawn
///    from the launch's world, holds the rank itself, contains
///    nothing outside `healed ∪ planned victims` (a mid-agreement split may
///    let an early healer still count a victim), and misses a healed rank
///    only if that rank healed in a strictly earlier epoch — an early
///    healer exits the world and legitimately looks dead to laggards, but
///    excluding a same-epoch or later healer on a lossless fabric is a
///    split-brain. On a lossy fabric the miss check is waived entirely:
///    the group may partition into digest-isolated subgroups.
/// 2. **Byte-identical payload** — every healed rank's buffer equals the
///    source.
/// 3. **Budget** — epochs used never exceed the spec's `max_epochs`, and
///    the trace agrees with the result.
/// 4. **Liveness** — when [`RecoverySpec::liveness_guaranteed`], every rank
///    outside the victim set heals. A crashed root voids the guarantee only
///    if it took the payload along: once any rank healed, a survivor held
///    the payload, and root succession owes it to every rank outside the
///    victim set within the same budget.
/// 5. **Traffic conservation** — exact balance fault-free, per-link
///    `recvd ≤ sent` under crashes or lossy links.
/// 6. **Recovery time** — virtual elapsed within
///    [`recovery_elapsed_bound`].
pub fn check_recovery_outcome(
    spec: &RecoverySpec<'_>,
    results: &[RankRun],
    traffic: &WorldTraffic,
    elapsed: Duration,
) -> std::result::Result<(), String> {
    let p = results.len();
    // Linear in the ranks plus the survivor sets' exclusions, never in the
    // sets themselves: a sorted victim list, a healed bitmap, and — once —
    // the ranks that neither healed nor were victims, which no survivor set
    // may count.
    let mut victims = spec.planned_victims.to_vec();
    victims.sort_unstable();
    victims.dedup();
    let is_victim = |r: &Rank| victims.binary_search(r).is_ok();
    let healed: Vec<bool> = results.iter().map(|r| r.result.is_ok()).collect();
    let healed_ranks: Vec<Rank> = (0..p).filter(|&r| healed[r]).collect();
    let unaccounted: Vec<Rank> = (0..p).filter(|r| !healed[*r] && !is_victim(r)).collect();

    for (rank, run) in results.iter().enumerate() {
        match &run.result {
            Ok(h) => {
                let s = &h.survivors;
                if s.world() != p {
                    return Err(format!(
                        "rank {rank}: survivor set drawn from a world of {} ranks, not {p}",
                        s.world()
                    ));
                }
                if !s.contains(rank) {
                    return Err(format!("rank {rank} healed but is not in its own survivor set"));
                }
                // Convergence is epoch-monotone, not absolute: a rank that
                // heals early (HEALED_SURVIVORS) exits the world, and to
                // ranks still agreeing an exited healer is indistinguishable
                // from a crasher — so a later healer may count it dead. What
                // a lossless fabric forbids is the converse: excluding a
                // rank that heals in the same or a later epoch would be a
                // genuine split-brain. Under message loss even that is
                // waived — the group may partition into digest-isolated
                // subgroups; ghost-freedom, byte-identity and conservation
                // still bind. The healed ranks a set misses are the healed
                // ones among its exclusions.
                if !spec.lossy_links {
                    for &missing in s.excluded().iter().filter(|&&r| healed[r]) {
                        let their_epoch = match &results[missing].result {
                            Ok(theirs) => theirs.epochs,
                            Err(_) => unreachable!("healed set only holds Ok ranks"),
                        };
                        if their_epoch >= h.epochs {
                            return Err(format!(
                                "rank {rank} (healed epoch {}) excludes rank {missing}, which \
                                 healed in epoch {their_epoch} — a lossless split-brain",
                                h.epochs
                            ));
                        }
                    }
                }
                // Every unaccounted rank this passes over is one the set
                // excludes, so the search reads at most `excluded + 1`.
                if let Some(&ghost) = unaccounted.iter().find(|&&r| s.contains(r)) {
                    return Err(format!(
                        "rank {rank}'s survivor set counts rank {ghost}, which neither healed \
                         nor was a planned victim"
                    ));
                }
                if h.epochs == 0 || h.epochs > spec.cfg.max_epochs {
                    return Err(format!(
                        "rank {rank} used {} epochs outside budget 1..={}",
                        h.epochs, spec.cfg.max_epochs
                    ));
                }
                if run.trace.epochs_entered != h.epochs {
                    return Err(format!(
                        "rank {rank}: trace entered {} epochs but result says {}",
                        run.trace.epochs_entered, h.epochs
                    ));
                }
                if run.buf != spec.src {
                    return Err(format!("rank {rank} delivered a diverged payload"));
                }
            }
            Err(_) if is_victim(&rank) => {}
            Err(e) => {
                if spec.liveness_guaranteed() {
                    return Err(format!(
                        "rank {rank} was never a victim but failed with {e:?} although the spec \
                         guarantees liveness (root alive, budget {} >= {})",
                        spec.cfg.max_epochs,
                        2 * victims.len() + 1
                    ));
                }
                if let (true, Some(&holder)) = (spec.budget_covers_cascade(), healed_ranks.first())
                {
                    return Err(format!(
                        "rank {rank} was never a victim but failed with {e:?} although rank \
                         {holder} healed, so the payload outlived the root (budget {} >= {})",
                        spec.cfg.max_epochs,
                        2 * victims.len() + 1
                    ));
                }
            }
        }
    }

    if spec.liveness_guaranteed() && healed_ranks.len() < p - victims.len() {
        return Err(format!(
            "only {} of {} guaranteed-live ranks healed",
            healed_ranks.len(),
            p - victims.len()
        ));
    }

    if victims.is_empty() && !spec.lossy_links {
        if !traffic.is_balanced() {
            return Err("fault-free launch left traffic unbalanced".into());
        }
    } else {
        reconcile_crashed_traffic(traffic)?;
    }

    let bound = recovery_elapsed_bound(&spec.cfg, p);
    if elapsed > bound {
        return Err(format!("recovery took {elapsed:?}, above the bound {bound:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{agreement_volume, bcast_volume, scatter_msgs};
    use crate::Members;

    #[test]
    fn event_launch_matches_closed_forms_small() {
        for &(p, nbytes) in &[(8usize, 4096usize), (10, 4096)] {
            for algorithm in [Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned] {
                let out = bcast_event_world(p, nbytes, 0, algorithm);
                let vol = bcast_volume(algorithm, nbytes, p);
                assert_eq!(out.traffic.total_msgs(), vol.msgs, "{algorithm:?} P={p}");
                assert_eq!(out.traffic.total_bytes(), vol.bytes, "{algorithm:?} P={p}");
            }
        }
    }

    #[test]
    fn coalesced_event_launch_envelopes() {
        // The executed coalesced broadcast moves exactly its schedule's plan.
        for &p in &[8usize, 10] {
            let coalesced = Collective::Coalesced(crate::CoalescePolicy::unlimited());
            let out = bcast_event_world(p, 4096, 0, coalesced);
            let planned = coalesced.schedule(p, 4096, 0).planned_volume();
            assert_eq!((out.traffic.total_msgs(), out.traffic.total_bytes()), planned, "P={p}");
            let expect = crate::coalesce::coalesced_envelope_count(p) + scatter_msgs(4096, p);
            assert_eq!(planned.0, expect, "P={p}");
        }
    }

    #[test]
    fn event_launch_nonzero_root() {
        let out = bcast_event_world(10, 1000, 7, Algorithm::ScatterRingTuned);
        assert_eq!(out.traffic.total_msgs(), 75 + 9);
    }

    #[test]
    fn self_healing_event_launch_fault_free() {
        let cfg = RecoveryConfig::default();
        let out = self_healing_bcast_event_world(16, 2048, 3, Algorithm::ScatterRingTuned, &cfg);
        for run in &out.results {
            let h = run.result.as_ref().unwrap();
            assert_eq!(h.epochs, 1);
            assert_eq!(h.survivors.len(), 16);
            assert!(run.trace.saw(crate::recovery::branch::HEALED_ALL));
        }
    }

    #[test]
    fn fault_free_self_healing_traffic_is_bcast_plus_quorum() {
        // No later agreement stage runs on a clean epoch: what moves is the
        // broadcast itself plus 2·P·⌈log₂P⌉ two-byte quorum frames, exactly.
        let cfg = RecoveryConfig::default();
        let nbytes = 2048;
        for p in [2usize, 3, 8, 10, 129, 1024] {
            for algorithm in [Algorithm::ScatterRingTuned, Algorithm::Binomial] {
                let out = self_healing_bcast_event_world(p, nbytes, p / 3, algorithm, &cfg);
                let vol = bcast_volume(algorithm, nbytes, p).plus(agreement_volume(p));
                assert_eq!(out.traffic.total_msgs(), vol.msgs, "{algorithm:?} P={p}");
                assert_eq!(out.traffic.total_bytes(), vol.bytes, "{algorithm:?} P={p}");
            }
        }
    }

    #[test]
    fn checker_rejects_diverged_payload() {
        let cfg = RecoveryConfig::default();
        let out = self_healing_bcast_event_world(4, 64, 0, Algorithm::Binomial, &cfg);
        let src = pattern(64, EVENT_LAUNCH_SEED);
        let mut results = out.results.clone();
        results[2].buf[10] ^= 0xFF;
        let spec =
            RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[], lossy_links: false };
        let err = check_recovery_outcome(&spec, &results, &out.traffic, out.elapsed).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn checker_rejects_silent_non_victim_failure() {
        let cfg = RecoveryConfig::default();
        let out = self_healing_bcast_event_world(4, 64, 0, Algorithm::Binomial, &cfg);
        let src = pattern(64, EVENT_LAUNCH_SEED);
        let mut results = out.results.clone();
        results[1].result = Err(mpsim::CommError::Timeout { peer: 0 });
        let spec =
            RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[], lossy_links: false };
        // The sandwich invariant catches it first: the dead rank still sits
        // in rank 0's survivor set, and rank 0 is judged before rank 1.
        let err = check_recovery_outcome(&spec, &results, &out.traffic, out.elapsed).unwrap_err();
        assert!(err.contains("rank 0's survivor set counts rank 1, which neither healed"), "{err}");
        // ...but the same failure on a planned victim is acceptable
        let spec =
            RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[1], lossy_links: false };
        check_recovery_outcome(&spec, &results, &out.traffic, out.elapsed).unwrap();
    }

    #[test]
    fn checker_judges_survivor_lists_against_the_healed_set() {
        let cfg = RecoveryConfig::default();
        let out = self_healing_bcast_event_world(4, 64, 0, Algorithm::Binomial, &cfg);
        let src = pattern(64, EVENT_LAUNCH_SEED);
        let spec =
            RecoverySpec { src: &src, root: 0, cfg, planned_victims: &[], lossy_links: false };
        let judge = |edit: &dyn Fn(&mut [RankRun])| {
            let mut results = out.results.clone();
            edit(&mut results);
            check_recovery_outcome(&spec, &results, &out.traffic, out.elapsed)
        };
        let set = |runs: &mut [RankRun], rank: Rank, list: &[Rank]| {
            runs[rank].result.as_mut().unwrap().survivors = Members::from_ranks(4, list).unwrap();
        };
        let err = judge(&|r| set(r, 2, &[0, 2, 3])).unwrap_err();
        assert!(err.contains("excludes rank 1") && err.contains("split-brain"), "{err}");
        let err =
            judge(&|r| r[2].result.as_mut().unwrap().survivors = Members::all(5)).unwrap_err();
        assert!(err.contains("world of 5 ranks, not 4"), "{err}");
        let err = judge(&|r| set(r, 3, &[0, 1, 2])).unwrap_err();
        assert!(err.contains("not in its own survivor set"), "{err}");
        // A rank that healed in a strictly earlier epoch may be missing.
        judge(&|r| {
            set(r, 2, &[0, 2, 3]);
            r[2].result.as_mut().unwrap().epochs = 2;
            r[2].trace.epochs_entered = 2;
        })
        .unwrap();
        // A dead root that left the payload with a survivor still owes it to
        // every rank outside the victim set.
        let spec = RecoverySpec { planned_victims: &[0], ..spec };
        let mut results = out.results.clone();
        results[0].result = Err(mpsim::CommError::PeerFailed { rank: 0 });
        results[1].result = Err(mpsim::CommError::PeerFailed { rank: 0 });
        set(&mut results, 2, &[2, 3]);
        set(&mut results, 3, &[2, 3]);
        let err = check_recovery_outcome(&spec, &results, &out.traffic, out.elapsed).unwrap_err();
        assert!(err.contains("rank 1 was never a victim") && err.contains("outlived"), "{err}");
        results[2].result = Err(mpsim::CommError::PeerFailed { rank: 0 });
        results[3].result = Err(mpsim::CommError::PeerFailed { rank: 0 });
        check_recovery_outcome(&spec, &results, &out.traffic, out.elapsed)
            .expect("with nobody healed, the payload may have died with the root");
    }

    #[test]
    fn crashed_traffic_reconciliation_flags_over_delivery() {
        let out = bcast_event_world(4, 256, 0, Algorithm::ScatterRingTuned);
        reconcile_crashed_traffic(&out.traffic).unwrap();
        let mut t = out.traffic.clone();
        let pt = t.per_rank[1].by_peer.get_mut(&0).unwrap();
        pt.msgs_recvd += 5;
        assert!(reconcile_crashed_traffic(&t).unwrap_err().contains("over-delivered"));
    }
}
