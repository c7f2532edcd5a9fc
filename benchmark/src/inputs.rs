//! Everything a workload feeds the library is generated here from the seed:
//! payload bytes, fault-plan seeds and crash-victim placement. The library
//! receives only these generated inputs — never the seed's meaning — and
//! the same seed always generates the same inputs.

use std::time::Duration;

use bcast_core::verify::pattern;
use bcast_core::RecoveryConfig;
use mpsim::{Rank, RetryConfig};
use netsim::{FaultPlan, LinkFaults};

/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 0x00B0_CA57;

/// Seed of the fault plans the *count* metrics are taken under. A plan's
/// drops and victims change what a broadcast sends, and the count metrics
/// carry a near-zero bound, so they are measured on one canonical plan
/// whatever `--seed` is; the timed samples run under seeded plans.
pub const CANONICAL_FAULT_SEED: u64 = 0xFA17_5EED;

/// SplitMix64 finalizer: decorrelates `seed` and `stream` into one word.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The payload of sample `sample`: position- and seed-dependent bytes, so
/// a misplaced chunk or a stale buffer from the previous sample both show
/// in the byte-for-byte comparison.
pub fn payload(nbytes: usize, seed: u64, sample: u64) -> Vec<u8> {
    pattern(nbytes, seed ^ sample)
}

/// `k` distinct non-root crash victims in a world of `p`, ascending.
pub fn victims(seed: u64, p: usize, root: Rank, k: usize) -> Vec<Rank> {
    assert!(k < p, "cannot crash every non-root rank");
    let mut chosen: Vec<Rank> = Vec::with_capacity(k);
    let mut draw = 0u64;
    while chosen.len() < k {
        let candidate = (mix(seed, draw) % p as u64) as Rank;
        draw += 1;
        if candidate != root && !chosen.contains(&candidate) {
            chosen.push(candidate);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Fail-stop `victims` half an epoch apart. One tuned-ring epoch costs
/// about `4·P` operations per rank (the spacing `recovery_hotpath` and the
/// megascale chaos battery use), so the second crash lands after the first
/// epoch's agreement began and forces a second degraded re-derivation; the
/// cascade depth is asserted on every launch, so drift cannot pass.
pub fn crash_plan(seed: u64, p: usize, victims: &[Rank]) -> FaultPlan {
    let per_epoch = 4 * p as u64;
    victims.iter().enumerate().fold(FaultPlan::new(seed), |plan, (i, &victim)| {
        plan.with_crash(victim, 4 + i as u64 * per_epoch / 2)
    })
}

/// One percent of data frames dropped on every link.
pub const LOSSY_LINKS: LinkFaults = LinkFaults { drop_ppm: 10_000, dup_ppm: 0, delay_ppm: 0 };

pub fn lossy_plan(seed: u64, faults: LinkFaults) -> FaultPlan {
    FaultPlan::new(seed).with_default(faults)
}

/// Retransmission policy of the lossy workload: the timeouts are virtual,
/// so they cost one timer event each, not real milliseconds.
pub const LOSSY_RETRY: RetryConfig = RetryConfig {
    base_timeout: Duration::from_millis(5),
    max_timeout: Duration::from_millis(40),
    max_attempts: 12,
};

/// Recovery configuration of the heal workloads.
pub fn heal_cfg(max_epochs: u32) -> RecoveryConfig {
    RecoveryConfig { step_timeout: Duration::from_millis(40), max_epochs, bounded_sendrecv: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(payload(4096, 7, 3), payload(4096, 7, 3));
        assert_ne!(payload(4096, 7, 3), payload(4096, 8, 3));
        assert_ne!(payload(4096, 7, 3), payload(4096, 7, 4));
        assert_eq!(victims(7, 256, 0, 2), victims(7, 256, 0, 2));
        let placements: std::collections::BTreeSet<Vec<Rank>> =
            (0..16).map(|seed| victims(seed, 256, 0, 2)).collect();
        assert!(placements.len() > 8, "victim placement must follow the seed");
    }

    #[test]
    fn victims_are_distinct_sorted_and_never_the_root() {
        for seed in 0..200 {
            let v = victims(seed, 8, 3, 4);
            assert_eq!(v.len(), 4);
            assert!(v.windows(2).all(|w| w[0] < w[1]), "{v:?}");
            assert!(v.iter().all(|&r| r != 3 && r < 8), "{v:?}");
        }
    }

    #[test]
    fn crash_plan_staggers_victims_half_an_epoch_apart() {
        let plan = crash_plan(1, 256, &[10, 200]);
        assert_eq!(plan.crashes(), vec![(10, 4), (200, 4 + 512)]);
        assert_eq!(plan.seed(), 1);
    }
}
