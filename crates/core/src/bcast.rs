//! Top-level broadcast entry points and MPICH3's algorithm selection.
//!
//! * [`bcast_with_async`] — any one [`Algorithm`]:
//!   [`Algorithm::ScatterRingNative`] is the paper's `MPI_Bcast_native`
//!   (binomial scatter + **enclosed** ring allgather, the MPICH3 lmsg /
//!   mmsg-npof2 path), [`Algorithm::ScatterRingTuned`] its `MPI_Bcast_opt`
//!   (binomial scatter + **tuned** ring allgather, the paper's contribution;
//!   also [`bcast_opt_async`]), plus the smsg binomial tree and the mmsg-pof2
//!   scatter + recursive doubling.
//! * [`bcast_with`] — the same on a blocking [`Communicator`], through
//!   [`SyncComm`] + [`complete_now`]: the one blocking entry point of this
//!   crate. Every other collective is reached from blocking code the same
//!   way, by its caller.
//! * [`bcast_auto_async`] — dispatch among the above with MPICH3's
//!   message-size / process-count thresholds ([`Thresholds`]), optionally
//!   substituting the tuned ring wherever the native ring would run.
//!
//! Every algorithm is a pair of op streams — a tree phase and an allgather
//! phase; running it is handing those streams to the [`Interp`]reter, and
//! [`bcast_schedule`] is collecting them over all ranks ([`bcast_ops`]).

use std::convert::identity;
use std::future::Future;

use mpsim::{
    complete_now, is_pof2, AsyncCommunicator, CommError, Communicator, Rank, Result, SyncComm,
};

use crate::binomial::binomial_ops;
use crate::interp::{Interp, PhaseSink};
use crate::rd_allgather::rd_ops;
use crate::ring::native_ring_ops;
use crate::ring_tuned::{tuned_ring_ops, tuned_ring_ops_with, Endpoint};
use crate::scatter::scatter_ops;
use crate::schedule::{Collective, SchedOp, Schedule};

/// MPICH3's broadcast switching thresholds (`MPIR_CVAR_BCAST_*`), in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Below this the message is "short" → binomial tree
    /// (`MPIR_CVAR_BCAST_SHORT_MSG_SIZE`, default 12288).
    pub short_msg: usize,
    /// Below this (and ≥ `short_msg`) the message is "medium"; at or above it
    /// is "long" (`MPIR_CVAR_BCAST_LONG_MSG_SIZE`, default 524288).
    pub long_msg: usize,
    /// Worlds smaller than this always use binomial
    /// (`MPIR_CVAR_BCAST_MIN_PROCS`, default 8).
    pub min_procs: usize,
}

impl Default for Thresholds {
    /// The MPICH3 defaults quoted in the paper's Section V: 12288 and 524288
    /// bytes, minimum 8 processes.
    fn default() -> Self {
        Self { short_msg: 12288, long_msg: 524288, min_procs: 8 }
    }
}

/// Message-size regime under a given threshold configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// `nbytes < short_msg` (or a tiny world): latency-bound.
    Short,
    /// `short_msg ≤ nbytes < long_msg`: the paper's "mmsg".
    Medium,
    /// `nbytes ≥ long_msg`: the paper's "lmsg".
    Long,
}

impl Thresholds {
    /// Classify a message size.
    pub fn regime(&self, nbytes: usize) -> Regime {
        if nbytes < self.short_msg {
            Regime::Short
        } else if nbytes < self.long_msg {
            Regime::Medium
        } else {
            Regime::Long
        }
    }
}

/// The algorithm the MPICH3 dispatcher would run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Binomial tree over the whole buffer (smsg).
    Binomial,
    /// Binomial scatter + recursive-doubling allgather (mmsg-pof2).
    ScatterRdAllgather,
    /// Binomial scatter + enclosed ring allgather (lmsg / mmsg-npof2) —
    /// `MPI_Bcast_native`.
    ScatterRingNative,
    /// Binomial scatter + tuned non-enclosed ring allgather —
    /// `MPI_Bcast_opt`.
    ScatterRingTuned,
}

/// MPICH3's selection logic (`MPIR_Bcast_intra_auto`), §I and §V of the
/// paper. When `tuned` is set, the ring-based path resolves to the paper's
/// [`Algorithm::ScatterRingTuned`] instead of the native ring.
pub fn select_algorithm(nbytes: usize, size: usize, th: &Thresholds, tuned: bool) -> Algorithm {
    if nbytes < th.short_msg || size < th.min_procs {
        Algorithm::Binomial
    } else if nbytes < th.long_msg && is_pof2(size) {
        Algorithm::ScatterRdAllgather
    } else if tuned {
        Algorithm::ScatterRingTuned
    } else {
        Algorithm::ScatterRingNative
    }
}

/// `MPI_Bcast_opt` over any [`AsyncCommunicator`]: binomial scatter followed
/// by the **tuned** ring allgather — the paper's bandwidth-saving broadcast.
pub async fn bcast_opt_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
) -> Result<()> {
    bcast_with_async(comm, buf, root, Algorithm::ScatterRingTuned).await
}

/// Run one specific [`Algorithm`] on a blocking [`Communicator`] — the only
/// place this crate accepts one: [`bcast_with_async`] through [`SyncComm`] +
/// [`complete_now`].
pub fn bcast_with(
    comm: &(impl Communicator + ?Sized),
    buf: &mut [u8],
    root: Rank,
    algorithm: Algorithm,
) -> Result<()> {
    complete_now(bcast_with_async(&SyncComm::new(comm), buf, root, algorithm))
}

/// Async core of [`bcast_with`]: interpret this rank's op streams of one
/// [`Algorithm`] over any [`AsyncCommunicator`] — what every executor and
/// decorator stack ends up calling (the self-healing attempt runs the same
/// phase table, renumbered and epoch-tagged).
///
/// Fails with [`CommError::Unsupported`] — before anything is posted — when
/// the world size is one the algorithm is not defined for
/// ([`Algorithm::supports`]).
///
/// The returned future *is* the phase table's, with no state of its own
/// around it: on `ring-msgs` every byte of the 1 024 rank tasks' futures
/// shows (DESIGN §5b).
pub fn bcast_with_async<'a, C: AsyncCommunicator + ?Sized>(
    comm: &'a C,
    buf: &'a mut [u8],
    root: Rank,
    algorithm: Algorithm,
) -> impl Future<Output = Result<()>> + 'a {
    let (rank, p, nbytes) = (comm.rank(), comm.size(), buf.len());
    bcast_phases(Interp::new(comm, buf), algorithm, rank, p, nbytes, root, identity)
}

/// The phase table, written once: hand `sink` rank `rank`'s tree stream (the
/// binomial scatter, or for [`Algorithm::Binomial`] the whole broadcast),
/// then its allgather stream, every op passed through `map`, and settle
/// once, after the last phase: a rank starts its ring while its scatter
/// frames are still in flight, as the paper's broadcast does. The plain
/// broadcast's map is the identity, the self-healing attempt's renumbers
/// peers into the world and shifts tags, and [`bcast_ops`] collects.
///
/// Fails — before handing over any op — with [`CommError::InvalidRank`] if
/// `root` is not a rank of the `p`-rank world and with
/// [`CommError::Unsupported`] if the algorithm is not defined for it.
///
/// Each stream is built at its own `phase` call, and the settle starts only
/// once the last phase's future has finished, so only the running phase
/// lives in the future; handed to one interpreter, the scatter envelope is
/// still retained when the allgather's first send — a sub-range of it — goes
/// out. DESIGN §5b has what the other shapes of this table cost on
/// `ring-msgs`.
pub(crate) async fn bcast_phases(
    mut sink: impl PhaseSink,
    algorithm: Algorithm,
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
    map: impl Fn(SchedOp) -> SchedOp + Copy,
) -> Result<()> {
    if root >= p {
        return Err(CommError::InvalidRank { rank: root, size: p });
    }
    if !algorithm.supports(p) {
        return Err(CommError::Unsupported { what: algorithm.schedule_name(), size: p });
    }
    let tree = match algorithm {
        Algorithm::Binomial => binomial_ops(rank, p, nbytes, root),
        _ => scatter_ops(rank, p, nbytes, root),
    };
    sink.phase(tree.into_iter().map(map)).await?;
    match algorithm {
        Algorithm::Binomial => Ok(0),
        Algorithm::ScatterRdAllgather => sink.phase(rd_ops(rank, p, nbytes, root).map(map)).await,
        Algorithm::ScatterRingNative => {
            sink.phase(native_ring_ops(rank, p, nbytes, root).map(map)).await
        }
        Algorithm::ScatterRingTuned => {
            sink.phase(tuned_ring_ops(rank, p, nbytes, root).map(map)).await
        }
    }?;
    sink.settle().await
}

/// Run a phase table into a vector. The vector sink never suspends, so the
/// table completes on its first poll.
///
/// # Panics
///
/// If the table refuses its world (a root outside it, or an algorithm
/// [`Algorithm::supports`] rules out) — a precondition of every schedule
/// builder.
pub(crate) fn collect_ops(
    table: impl AsyncFnOnce(&mut Vec<SchedOp>) -> Result<()>,
) -> Vec<SchedOp> {
    let mut ops = Vec::new();
    if let Err(e) = complete_now(table(&mut ops)) {
        panic!("no schedule for this world: {e:?}");
    }
    ops
}

/// Broadcast with MPICH3's automatic algorithm selection.
///
/// With `tuned = false` this behaves like stock MPICH3; with `tuned = true`
/// it is MPICH3 patched with the paper's optimization (the paper's "Laki"
/// setup, where the tuned ring was spliced into the MPI library itself).
pub async fn bcast_auto_async<C: AsyncCommunicator + ?Sized>(
    comm: &C,
    buf: &mut [u8],
    root: Rank,
    th: &Thresholds,
    tuned: bool,
) -> Result<()> {
    let algorithm = select_algorithm(buf.len(), comm.size(), th, tuned);
    bcast_with_async(comm, buf, root, algorithm).await
}

impl Algorithm {
    /// Stable schedule-source name of this algorithm.
    pub fn schedule_name(self) -> &'static str {
        match self {
            Algorithm::Binomial => "bcast/binomial",
            Algorithm::ScatterRdAllgather => "bcast/scatter_rd",
            Algorithm::ScatterRingNative => "bcast/scatter_ring_native",
            Algorithm::ScatterRingTuned => "bcast/scatter_ring_tuned",
        }
    }

    /// Whether the algorithm is defined for a world of `p` ranks: recursive
    /// doubling needs a power of two, everything else runs anywhere.
    pub fn supports(self, p: usize) -> bool {
        self != Algorithm::ScatterRdAllgather || is_pof2(p)
    }
}

/// Rank `rank`'s whole program for `algorithm`: the tree ops (the binomial
/// scatter — or, for [`Algorithm::Binomial`], the entire broadcast) followed
/// by the allgather stream (none for binomial). What [`bcast_schedule`]
/// collects and the SMP composite renumbers: the phase table
/// [`bcast_with_async`] runs, collected.
///
/// # Panics
///
/// Panics if `p` is a world size the algorithm does not support — a
/// precondition, not a runtime condition: the communicator entry points
/// check [`Algorithm::supports`] first and return an error instead.
pub fn bcast_ops(
    algorithm: Algorithm,
    rank: Rank,
    p: usize,
    nbytes: usize,
    root: Rank,
) -> Vec<SchedOp> {
    collect_ops(async |ops| bcast_phases(ops, algorithm, rank, p, nbytes, root, identity).await)
}

/// The full symbolic schedule of [`bcast_with`]: every rank's [`bcast_ops`]
/// over one shared `nbytes` buffer — the broadcast family's entry of
/// [`Collective::schedule`]. Panics like [`bcast_ops`] on an unsupported `p`.
pub fn bcast_schedule(algorithm: Algorithm, p: usize, nbytes: usize, root: Rank) -> Schedule {
    Collective::Bcast(algorithm).schedule(p, nbytes, root)
}

/// [`bcast_schedule`] for the tuned ring with an injectable `(step, flag)`
/// function — the `schedcheck` mutation hook (see
/// [`crate::ring_tuned::tuned_ring_ops_with`]).
pub fn bcast_tuned_schedule_with(
    p: usize,
    nbytes: usize,
    root: Rank,
    step_flag_fn: impl Fn(Rank, usize) -> (usize, Endpoint),
) -> Schedule {
    let mut s = Collective::Bcast(Algorithm::ScatterRingTuned).skeleton(p, nbytes, root);
    for rank in 0..p {
        s.ranks[rank].ops.extend(scatter_ops(rank, p, nbytes, root));
        s.ranks[rank].ops.extend(tuned_ring_ops_with(rank, p, nbytes, root, &step_flag_fn));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsim::ThreadWorld;

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 41 + 29) as u8).collect()
    }

    #[test]
    fn schedule_volume_matches_traffic_model() {
        use crate::traffic::bcast_volume;
        for &algorithm in &[
            Algorithm::Binomial,
            Algorithm::ScatterRingNative,
            Algorithm::ScatterRingTuned,
            Algorithm::ScatterRdAllgather,
        ] {
            for &(p, nbytes) in &[(8usize, 800usize), (8, 97), (16, 4096), (4, 3), (2, 1)] {
                let sched = bcast_schedule(algorithm, p, nbytes, 0);
                let (msgs, bytes) = sched.planned_volume();
                let v = bcast_volume(algorithm, nbytes, p);
                assert_eq!((msgs, bytes), (v.msgs, v.bytes), "{algorithm:?} p={p} n={nbytes}");
            }
        }
    }

    #[test]
    fn schedule_volume_matches_model_npof2() {
        use crate::traffic::bcast_volume;
        for &algorithm in
            &[Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned]
        {
            for &(p, nbytes, root) in &[(10usize, 100usize, 7usize), (9, 55, 4), (13, 7, 12)] {
                let sched = bcast_schedule(algorithm, p, nbytes, root);
                let (msgs, bytes) = sched.planned_volume();
                let v = bcast_volume(algorithm, nbytes, p);
                assert_eq!((msgs, bytes), (v.msgs, v.bytes), "{algorithm:?} p={p} n={nbytes}");
            }
        }
    }

    #[test]
    fn default_thresholds_match_paper() {
        let th = Thresholds::default();
        assert_eq!(th.short_msg, 12288);
        assert_eq!(th.long_msg, 524288);
        assert_eq!(th.min_procs, 8);
        // Paper §V: "long messages should be larger than 524287 in bytes and
        // medium messages should be larger than 12287 and smaller than 524288".
        assert_eq!(th.regime(12287), Regime::Short);
        assert_eq!(th.regime(12288), Regime::Medium);
        assert_eq!(th.regime(524287), Regime::Medium);
        assert_eq!(th.regime(524288), Regime::Long);
    }

    #[test]
    fn selection_matches_mpich3() {
        let th = Thresholds::default();
        // smsg → binomial regardless of world size
        assert_eq!(select_algorithm(100, 256, &th, false), Algorithm::Binomial);
        // tiny world → binomial even for long messages
        assert_eq!(select_algorithm(1 << 20, 4, &th, false), Algorithm::Binomial);
        // mmsg-pof2 → recursive doubling
        assert_eq!(select_algorithm(65536, 64, &th, false), Algorithm::ScatterRdAllgather);
        // mmsg-npof2 → ring (the paper's first target case)
        assert_eq!(select_algorithm(65536, 129, &th, false), Algorithm::ScatterRingNative);
        assert_eq!(select_algorithm(65536, 129, &th, true), Algorithm::ScatterRingTuned);
        // lmsg → ring even for pof2 (the paper's second target case)
        assert_eq!(select_algorithm(1 << 20, 64, &th, false), Algorithm::ScatterRingNative);
        assert_eq!(select_algorithm(1 << 20, 64, &th, true), Algorithm::ScatterRingTuned);
        // boundary sizes
        assert_eq!(select_algorithm(12288, 9, &th, false), Algorithm::ScatterRingNative);
        assert_eq!(select_algorithm(524287, 16, &th, false), Algorithm::ScatterRdAllgather);
        assert_eq!(select_algorithm(524288, 16, &th, false), Algorithm::ScatterRingNative);
    }

    #[test]
    fn tuned_flag_only_affects_ring_paths() {
        let th = Thresholds::default();
        for &(nbytes, size) in &[(100usize, 256usize), (65536, 64), (1000, 4)] {
            let a = select_algorithm(nbytes, size, &th, false);
            let b = select_algorithm(nbytes, size, &th, true);
            if a == Algorithm::ScatterRingNative {
                assert_eq!(b, Algorithm::ScatterRingTuned);
            } else {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn all_algorithms_broadcast_correctly() {
        for &algorithm in
            &[Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned]
        {
            for &(size, nbytes, root) in
                &[(8usize, 200usize, 0usize), (10, 97, 7), (9, 3, 4), (2, 1, 1)]
            {
                let src = pattern(nbytes);
                ThreadWorld::run(size, |comm| {
                    let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                    bcast_with(comm, &mut buf, root, algorithm).unwrap();
                    assert_eq!(buf, src, "{algorithm:?} rank {}", comm.rank());
                });
            }
        }
        // RD path needs pof2 worlds
        for &(size, nbytes, root) in &[(8usize, 200usize, 5usize), (16, 97, 0), (4, 0, 3)] {
            let src = pattern(nbytes);
            ThreadWorld::run(size, |comm| {
                let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
                bcast_with(comm, &mut buf, root, Algorithm::ScatterRdAllgather).unwrap();
                assert_eq!(buf, src);
            });
        }
    }

    #[test]
    fn rd_on_a_non_power_of_two_world_is_an_error_not_a_panic() {
        for p in [3usize, 10] {
            let want = Err(CommError::Unsupported { what: "bcast/scatter_rd", size: p });
            let out = ThreadWorld::run(p, |comm| {
                let mut buf = vec![0u8; 64];
                bcast_with(comm, &mut buf, 0, Algorithm::ScatterRdAllgather)
            });
            assert!(out.results.iter().all(|r| *r == want), "P={p}: {:?}", out.results);
            assert_eq!(out.traffic.total_msgs(), 0, "P={p}: refused before posting anything");

            let out = mpsim::EventWorld::run(p, |comm| async move {
                let mut buf = vec![0u8; 64];
                bcast_with_async(&comm, &mut buf, 0, Algorithm::ScatterRdAllgather).await
            });
            assert!(out.results.iter().all(|r| *r == want), "P={p}: {:?}", out.results);
            assert_eq!(out.traffic.total_msgs(), 0, "P={p}: refused before posting anything");
        }
        assert!(Algorithm::ScatterRdAllgather.supports(16));
        assert!(!Algorithm::ScatterRdAllgather.supports(12));
        assert!(Algorithm::ScatterRingTuned.supports(12));
    }

    #[test]
    fn auto_dispatch_end_to_end() {
        // Pick sizes that exercise each branch with a small world.
        let th = Thresholds { short_msg: 64, long_msg: 256, min_procs: 4 };
        for &(size, nbytes) in &[
            (9usize, 16usize), // short → binomial
            (8, 128),          // medium pof2 → RD
            (9, 128),          // medium npof2 → ring
            (8, 512),          // long pof2 → ring
            (9, 512),          // long npof2 → ring
        ] {
            for tuned in [false, true] {
                let src = pattern(nbytes);
                ThreadWorld::run(size, |comm| {
                    let mut buf = if comm.rank() == 2 { src.clone() } else { vec![0u8; nbytes] };
                    complete_now(bcast_auto_async(&SyncComm::new(comm), &mut buf, 2, &th, tuned))
                        .unwrap();
                    assert_eq!(buf, src);
                });
            }
        }
    }

    #[test]
    fn tuned_auto_saves_messages_on_ring_paths() {
        let th = Thresholds { short_msg: 8, long_msg: 16, min_procs: 4 };
        let size = 10;
        let nbytes = 1000; // long → ring
        let src = pattern(nbytes);
        let run = |tuned: bool| {
            ThreadWorld::run(size, |comm| {
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                complete_now(bcast_auto_async(&SyncComm::new(comm), &mut buf, 0, &th, tuned))
                    .unwrap();
            })
            .traffic
            .total_msgs()
        };
        let native = run(false);
        let tuned = run(true);
        assert_eq!(native, 90 + 9);
        assert_eq!(tuned, 75 + 9);
    }
}
