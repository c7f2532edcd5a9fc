//! Shared verification and harness helpers used by tests, examples and the
//! benchmark drivers.

use mpsim::{Communicator, Rank, Result, ThreadWorld, WorldTraffic};

use crate::bcast::{bcast_with, Algorithm};

/// Deterministic byte pattern: position-dependent so misplaced chunks are
/// detected, seed-dependent so distinct broadcasts are distinguishable.
pub fn pattern(nbytes: usize, seed: u64) -> Vec<u8> {
    // splitmix64-style mix so both position and seed affect the high bits
    (0..nbytes)
        .map(|i| {
            let mut x = (i as u64).wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) as u8
        })
        .collect()
}

/// Outcome of a threaded broadcast run.
#[derive(Debug)]
pub struct BcastRun {
    /// Aggregated traffic of the run.
    pub traffic: WorldTraffic,
    /// Whether every rank's buffer matched the root's source.
    pub correct: bool,
}

/// Execute `algorithm` on a [`ThreadWorld`] of `size` ranks broadcasting
/// `nbytes` from `root`, verifying every rank's result.
pub fn run_threaded(algorithm: Algorithm, size: usize, nbytes: usize, root: Rank) -> BcastRun {
    let src = pattern(nbytes, 0xBCA5_7000 + root as u64);
    let out = ThreadWorld::run(size, |comm| {
        let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
        // lint: allow(panic) — test harness: a failed broadcast must abort the check
        bcast_with(comm, &mut buf, root, algorithm).unwrap();
        buf == src
    });
    BcastRun { traffic: out.traffic, correct: out.results.iter().all(|&ok| ok) }
}

/// Run a caller-provided broadcast closure on every rank and verify the
/// result against the root's pattern. Returns the traffic on success.
pub fn check_bcast<F>(size: usize, nbytes: usize, root: Rank, bcast: F) -> WorldTraffic
where
    F: Fn(&dyn Communicator, &mut [u8], Rank) -> Result<()> + Sync,
{
    let src = pattern(nbytes, 42);
    let out = ThreadWorld::run(size, |comm| {
        let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
        // lint: allow(panic) — test harness: a failed broadcast must abort the check
        bcast(comm, &mut buf, root).unwrap();
        assert_eq!(buf, src, "rank {} has wrong data", comm.rank());
    });
    out.traffic
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_seeded() {
        assert_eq!(pattern(64, 1), pattern(64, 1));
        assert_ne!(pattern(64, 1), pattern(64, 2));
        assert_eq!(pattern(0, 1), Vec::<u8>::new());
    }

    #[test]
    fn pattern_positions_differ() {
        let p = pattern(256, 7);
        // not all bytes equal (position-dependence)
        assert!(p.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn run_threaded_reports_correctness_and_traffic() {
        let run = run_threaded(Algorithm::ScatterRingTuned, 10, 100, 3);
        assert!(run.correct);
        assert_eq!(run.traffic.total_msgs(), 9 + 75);
        assert!(run.traffic.is_balanced());
    }

    #[test]
    fn check_bcast_with_closure() {
        let traffic =
            check_bcast(8, 64, 0, |comm, buf, root| crate::bcast::bcast_opt(comm, buf, root));
        assert_eq!(traffic.total_msgs(), 7 + 44);
    }
}
