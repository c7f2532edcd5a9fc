//! Stress tests: randomized sequences of mixed collectives executed twice —
//! once on the threaded runtime, once on the simulator — with bit-identical
//! payload results and identical traffic counters required, plus failure-
//! injection checks for teardown behaviour.

use bcast_core::allgather::{allgather_async, AllgatherAlgorithm};
use bcast_core::verify::pattern;
use bcast_core::{bcast_with, Algorithm};
use mpsim::{complete_now, Communicator, SyncComm, ThreadWorld, WorldTraffic};
use netsim::{presets, SimWorld};

/// One deterministic pseudo-random op sequence, parameterized by seed.
fn op_sequence(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 7) as u8
        })
        .collect()
}

/// Run a mixed-collective program; returns a digest of every rank's state
/// and the run's traffic.
fn run_program<C: Communicator + ?Sized>(comm: &C, seed: u64) -> Vec<u8> {
    let size = comm.size();
    let me = comm.rank();
    let mut state = pattern(64 * size, seed ^ me as u64);
    for (step, op) in op_sequence(seed, 6).into_iter().enumerate() {
        let root = (seed as usize + step) % size;
        match op {
            0 => bcast_with(comm, &mut state, root, Algorithm::ScatterRingTuned).unwrap(),
            1 => bcast_with(comm, &mut state, root, Algorithm::ScatterRingNative).unwrap(),
            2 => bcast_with(comm, &mut state, root, Algorithm::Binomial).unwrap(),
            // Recursive doubling exists on power-of-two worlds only; the
            // other worlds draw the MPICH fallback for that regime instead.
            3 if Algorithm::ScatterRdAllgather.supports(size) => {
                bcast_with(comm, &mut state, root, Algorithm::ScatterRdAllgather).unwrap()
            }
            3 => bcast_with(comm, &mut state, root, Algorithm::ScatterRingNative).unwrap(),
            op => {
                let mine: Vec<u8> = state[me * 64..(me + 1) * 64].to_vec();
                let algorithm = match op {
                    4 => AllgatherAlgorithm::Bruck,
                    5 if size.is_power_of_two() => AllgatherAlgorithm::RecursiveDoubling,
                    _ => AllgatherAlgorithm::Ring,
                };
                complete_now(allgather_async(&SyncComm::new(comm), &mine, &mut state, algorithm))
                    .unwrap()
            }
        }
        // mix so later ops depend on earlier results
        for (i, b) in state.iter_mut().enumerate() {
            *b = b.wrapping_add((i % 7) as u8).rotate_left(1);
        }
    }
    // Close with an allgather of every rank's 8-byte state digest, so all
    // ranks return the same bytes and any divergence shows on every rank.
    let digest = state.iter().fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
    let mut all = vec![0u8; 8 * size];
    complete_now(allgather_async(
        &SyncComm::new(comm),
        &digest.to_le_bytes(),
        &mut all,
        AllgatherAlgorithm::Ring,
    ))
    .unwrap();
    all
}

fn on_threads(np: usize, seed: u64) -> (Vec<Vec<u8>>, WorldTraffic) {
    let out = ThreadWorld::run(np, |comm| run_program(comm, seed));
    (out.results, out.traffic)
}

fn on_sim(np: usize, seed: u64) -> (Vec<Vec<u8>>, WorldTraffic) {
    let preset = presets::hornet();
    let out = SimWorld::run(preset.model_for(64 * np, np), preset.placement(), np, |comm| {
        run_program(comm, seed)
    });
    (out.results, out.traffic)
}

#[test]
fn random_programs_agree_across_backends() {
    for &np in &[3usize, 8, 13] {
        for seed in 1..=4u64 {
            let (tr, tt) = on_threads(np, seed);
            let (sr, st) = on_sim(np, seed);
            assert_eq!(tr, sr, "np={np} seed={seed}: payloads diverged");
            assert_eq!(tt, st, "np={np} seed={seed}: traffic diverged");
            // the final allgather makes every rank's digest vector identical
            assert!(tr.windows(2).all(|w| w[0] == w[1]), "digest mismatch np={np}");
        }
    }
}

#[test]
fn panic_mid_collective_tears_down_both_backends() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for backend in ["thread", "sim"] {
        let result = catch_unwind(AssertUnwindSafe(|| match backend {
            "thread" => {
                ThreadWorld::run(6, |comm| {
                    let mut buf = vec![0u8; 600];
                    if comm.rank() == 3 {
                        panic!("injected failure");
                    }
                    // peers block inside the collective until teardown
                    let _ = bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned);
                });
            }
            _ => {
                let preset = presets::hornet();
                SimWorld::run(preset.model_for(600, 6), preset.placement(), 6, |comm| {
                    let mut buf = vec![0u8; 600];
                    if comm.rank() == 3 {
                        panic!("injected failure");
                    }
                    let _ = bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned);
                });
            }
        }));
        assert!(result.is_err(), "{backend}: injected panic must propagate");
    }
}

#[test]
fn truncation_surfaces_cleanly_not_as_hang() {
    // A size-mismatched receive must error, not deadlock the world.
    let out = ThreadWorld::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(&[0u8; 100], 1, mpsim::Tag(1)).unwrap();
            Ok(0)
        } else {
            let mut small = [0u8; 10];
            comm.recv(&mut small, 0, mpsim::Tag(1)).map(|_| 0)
        }
    });
    assert!(matches!(out.results[1], Err(mpsim::CommError::Truncation { .. })));
}

#[test]
fn back_to_back_worlds_are_independent() {
    // No state may leak between consecutive worlds (fresh mailboxes,
    // fresh fabric): same seed twice gives identical results.
    let a = on_threads(5, 99);
    let b = on_threads(5, 99);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
