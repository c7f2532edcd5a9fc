//! Property-based tests of the broadcast algorithms and their invariants.
//!
//! These drive the real threaded runtime with randomized world sizes, message
//! sizes, roots and payloads, checking the invariants DESIGN.md §5 calls out:
//! correctness for arbitrary shapes, traffic equal to the analytic model,
//! tuned ≤ native, schedule consistency — and the same for the baselines
//! beside the broadcast family (ring/RD/Bruck allgather, pipeline broadcast).
//!
//! Randomization comes from the in-tree `testkit` harness; a failing
//! property prints a `TESTKIT_SEED` that replays the exact failing case.

use bcast_core::allgather::{allgather_async, AllgatherAlgorithm};
use bcast_core::bcast::{bcast_with, Algorithm};
use bcast_core::pipeline::{bcast_pipeline_async, pipeline_msgs};
use bcast_core::ring_tuned::{receives_at, sends_at, step_flag, Endpoint};
use bcast_core::scatter::owned_chunks;
use bcast_core::traffic::{bcast_volume, tuned_ring_rank_msgs};
use mpsim::{complete_now, ring_right, Communicator, SyncComm, ThreadWorld};
use testkit::prop::{self, Config};

/// Run `algorithm` broadcasting `payload` from `root` over `size` ranks on
/// real threads; assert every rank converges to the payload; return traffic.
fn run_and_check(
    algorithm: Algorithm,
    size: usize,
    payload: &[u8],
    root: usize,
) -> mpsim::WorldTraffic {
    let out = ThreadWorld::run(size, |comm| {
        let mut buf = if comm.rank() == root { payload.to_vec() } else { vec![0u8; payload.len()] };
        bcast_with(comm, &mut buf, root, algorithm).unwrap();
        assert_eq!(buf, payload, "rank {} diverged", comm.rank());
    });
    assert!(out.traffic.is_balanced(), "unbalanced send/recv totals");
    out.traffic
}

/// Shared body: broadcast correctness + modelled traffic for one algorithm.
fn check_bcast_matches_model(
    algorithm: Algorithm,
    size: usize,
    payload: &[u8],
    root_pick: u64,
) -> prop::PropResult {
    let root = (root_pick as usize) % size;
    let traffic = run_and_check(algorithm, size, payload, root);
    let model = bcast_volume(algorithm, payload.len(), size);
    if traffic.total_msgs() != model.msgs {
        return Err(format!("msgs: measured {} != modelled {}", traffic.total_msgs(), model.msgs));
    }
    if traffic.total_bytes() != model.bytes {
        return Err(format!(
            "bytes: measured {} != modelled {}",
            traffic.total_bytes(),
            model.bytes
        ));
    }
    Ok(())
}

/// The paper's algorithm broadcasts correctly for arbitrary shapes and
/// moves exactly the modelled number of messages and bytes.
#[test]
fn tuned_bcast_correct_and_modelled() {
    prop::check(
        "tuned_bcast_correct_and_modelled",
        Config::cases(48),
        &(prop::usize_range(1..28), prop::vec_of(prop::any_u8(), 0..1500), prop::any_u64()),
        |(size, payload, root_pick)| {
            check_bcast_matches_model(Algorithm::ScatterRingTuned, *size, payload, *root_pick)
        },
    );
}

/// Same for the native baseline.
#[test]
fn native_bcast_correct_and_modelled() {
    prop::check(
        "native_bcast_correct_and_modelled",
        Config::cases(48),
        &(prop::usize_range(1..28), prop::vec_of(prop::any_u8(), 0..1500), prop::any_u64()),
        |(size, payload, root_pick)| {
            check_bcast_matches_model(Algorithm::ScatterRingNative, *size, payload, *root_pick)
        },
    );
}

/// Binomial-tree broadcast is correct and moves (P−1)·nbytes.
#[test]
fn binomial_bcast_correct_and_modelled() {
    prop::check(
        "binomial_bcast_correct_and_modelled",
        Config::cases(48),
        &(prop::usize_range(1..28), prop::vec_of(prop::any_u8(), 0..1500), prop::any_u64()),
        |(size, payload, root_pick)| {
            check_bcast_matches_model(Algorithm::Binomial, *size, payload, *root_pick)
        },
    );
}

/// Recursive-doubling path on power-of-two worlds.
#[test]
fn rd_bcast_correct_and_modelled() {
    prop::check(
        "rd_bcast_correct_and_modelled",
        Config::cases(48),
        &(prop::u32_range(0..5), prop::vec_of(prop::any_u8(), 0..1500), prop::any_u64()),
        |(log_size, payload, root_pick)| {
            let size = 1usize << *log_size;
            check_bcast_matches_model(Algorithm::ScatterRdAllgather, size, payload, *root_pick)
        },
    );
}

/// Regression cases recorded by the previous proptest setup (the
/// `properties.proptest-regressions` file): keep replaying them verbatim.
#[test]
fn regression_tuned_bcast_size12() {
    // cc b5607411…: shrinks to size = 12, 97-byte payload, root_pick below.
    let payload: Vec<u8> = vec![
        153, 86, 191, 71, 87, 16, 93, 187, 146, 129, 73, 21, 240, 227, 81, 180, 96, 17, 140, 216,
        213, 209, 82, 233, 213, 33, 107, 233, 36, 83, 149, 225, 222, 90, 32, 181, 116, 57, 218,
        106, 14, 21, 152, 167, 60, 239, 146, 94, 198, 94, 154, 127, 80, 152, 183, 25, 43, 200, 255,
        244, 194, 179, 151, 208, 89, 220, 110, 206, 26, 175, 200, 48, 192, 85, 43, 44, 105, 232,
        216, 203, 2, 171, 153, 83, 107, 87, 232, 254, 179, 99, 146, 125, 86, 220, 177, 2, 68,
    ];
    check_bcast_matches_model(Algorithm::ScatterRingTuned, 12, &payload, 17440753696281381532)
        .unwrap();
}

#[test]
fn regression_rd_bcast_log_size4() {
    // cc 1c32e9ad…: shrinks to log_size = 4, 33-byte payload, root_pick below.
    let payload: Vec<u8> = vec![
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 165, 163, 183, 131, 73, 132, 45, 225, 146,
        127, 235, 105, 217, 133, 185, 1, 37,
    ];
    check_bcast_matches_model(
        Algorithm::ScatterRdAllgather,
        1usize << 4,
        &payload,
        9648131472712156052,
    )
    .unwrap();
}

/// The tuned ring never moves more messages or bytes than the native one,
/// and strictly fewer messages for any world of 3+ ranks.
#[test]
fn tuned_dominates_native() {
    prop::check(
        "tuned_dominates_native",
        Config::cases(48),
        &(prop::usize_range(1..400), prop::usize_range(0..100_000)),
        |&(size, nbytes)| {
            let native = bcast_volume(Algorithm::ScatterRingNative, nbytes, size);
            let tuned = bcast_volume(Algorithm::ScatterRingTuned, nbytes, size);
            if tuned.msgs > native.msgs {
                return Err(format!("more msgs: {} > {}", tuned.msgs, native.msgs));
            }
            if tuned.bytes > native.bytes {
                return Err(format!("more bytes: {} > {}", tuned.bytes, native.bytes));
            }
            if size >= 3 && tuned.msgs >= native.msgs {
                return Err(format!("no saving at size={size}"));
            }
            Ok(())
        },
    );
}

/// Schedule consistency for arbitrary world sizes: every ring edge agrees
/// step-by-step on whether a message flows, and the per-rank analytic
/// counts match the schedule predicates.
#[test]
fn schedule_edges_consistent() {
    prop::check(
        "schedule_edges_consistent",
        Config::cases(48),
        &prop::usize_range(2..600),
        |&size| {
            for rel in 0..size {
                let (s_step, s_flag) = step_flag(rel, size);
                let right = ring_right(rel, size);
                let (r_step, r_flag) = step_flag(right, size);
                let mut sends = 0u64;
                let mut recvs = 0u64;
                for i in 1..size {
                    let s = sends_at(s_step, s_flag, size, i);
                    let r = receives_at(r_step, r_flag, size, i);
                    if s != r {
                        return Err(format!("edge {rel}->{right} step {i}: send {s} recv {r}"));
                    }
                    sends += u64::from(s);
                    recvs += u64::from(receives_at(s_step, s_flag, size, i));
                }
                if (sends, recvs) != tuned_ring_rank_msgs(rel, size) {
                    return Err(format!(
                        "rank counts mismatch at rel={rel}: ({sends}, {recvs}) != {:?}",
                        tuned_ring_rank_msgs(rel, size)
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Send-only ranks' step equals their scatter ownership; receive-only
/// ranks receive at every step (they own only chunk `rel`... except the
/// odd-size `size−2` corner where step=1 keeps them in sendrecv mode
/// throughout — covered by the edge-consistency property).
#[test]
fn step_matches_ownership() {
    prop::check("step_matches_ownership", Config::cases(48), &prop::usize_range(2..600), |&size| {
        for rel in 0..size {
            let (step, flag) = step_flag(rel, size);
            let expect = match flag {
                Endpoint::SendOnly => owned_chunks(rel, size),
                Endpoint::RecvOnly => owned_chunks(ring_right(rel, size), size),
            };
            if step != expect {
                return Err(format!("rel={rel} size={size}: step {step} != {expect}"));
            }
        }
        Ok(())
    });
}

/// Ownership intervals from the closed form tile the ring exactly when
/// following the scatter-tree structure: every rank's interval stays in
/// range and the per-rank receive count in the tuned ring is exactly
/// `size − owned_chunks(rel)` except for the RecvOnly corner ranks that
/// re-receive nothing anyway.
#[test]
fn tuned_receives_equal_missing_chunks() {
    prop::check(
        "tuned_receives_equal_missing_chunks",
        Config::cases(48),
        &prop::usize_range(2..300),
        |&size| {
            for rel in 0..size {
                let (_, recvs) = tuned_ring_rank_msgs(rel, size);
                let expect = (size - owned_chunks(rel, size)) as u64;
                if recvs != expect {
                    return Err(format!("rel={rel} size={size}: recvs {recvs} != {expect}"));
                }
            }
            Ok(())
        },
    );
}

/// Exhaustive (non-random) sweep over small worlds: all sizes, all roots,
/// awkward message sizes around chunk boundaries.
#[test]
fn exhaustive_small_worlds() {
    for size in 1..=12usize {
        for root in [0, size / 2, size - 1] {
            for nbytes in [0usize, 1, size - 1, size, size + 1, 3 * size + 1, 64] {
                let payload: Vec<u8> = (0..nbytes).map(|i| (i ^ size ^ root) as u8).collect();
                for algorithm in
                    [Algorithm::Binomial, Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned]
                {
                    run_and_check(algorithm, size, &payload, root);
                }
                if size.is_power_of_two() {
                    run_and_check(Algorithm::ScatterRdAllgather, size, &payload, root);
                }
            }
        }
    }
}

#[test]
fn allgather_variants_deliver_identical_results() {
    prop::check(
        "allgather_variants_deliver_identical_results",
        Config::cases(40),
        &(prop::usize_range(1..16), prop::usize_range(0..200), prop::any_u8()),
        |&(size, block, seed)| {
            let out = ThreadWorld::run(size, |comm| {
                let mine: Vec<u8> =
                    (0..block).map(|i| (comm.rank() as u8) ^ (i as u8) ^ seed).collect();
                let gather = |algorithm| {
                    let mut all = vec![0u8; block * comm.size()];
                    complete_now(allgather_async(&SyncComm::new(comm), &mine, &mut all, algorithm))
                        .unwrap();
                    all
                };
                let ring = gather(AllgatherAlgorithm::Ring);
                assert_eq!(ring, gather(AllgatherAlgorithm::Bruck));
                if comm.size().is_power_of_two() {
                    assert_eq!(ring, gather(AllgatherAlgorithm::RecursiveDoubling));
                }
                ring
            });
            // every rank identical, blocks in rank order
            for buf in &out.results {
                if buf != &out.results[0] {
                    return Err("ranks disagree".into());
                }
            }
            for (r, chunk) in out.results[0].chunks(block.max(1)).enumerate().take(size) {
                if block > 0
                    && !chunk.iter().enumerate().all(|(i, &b)| b == (r as u8) ^ (i as u8) ^ seed)
                {
                    return Err(format!("block of rank {r} corrupted"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn pipeline_bcast_any_segment() {
    prop::check(
        "pipeline_bcast_any_segment",
        Config::cases(40),
        &(
            prop::usize_range(1..12),
            prop::usize_range(0..800),
            prop::usize_range(0..900),
            prop::any_u64(),
        ),
        |&(size, nbytes, segment, root_pick)| {
            let root = (root_pick as usize) % size;
            let src = bcast_core::verify::pattern(nbytes, 91);
            let src2 = src.clone();
            let out = ThreadWorld::run(size, move |comm| {
                let mut buf = if comm.rank() == root { src2.clone() } else { vec![0u8; nbytes] };
                complete_now(bcast_pipeline_async(&SyncComm::new(comm), &mut buf, root, segment))
                    .unwrap();
                buf
            });
            for buf in &out.results {
                if buf != &src {
                    return Err("pipeline bcast diverged".into());
                }
            }
            let want = pipeline_msgs(nbytes, segment, size);
            if out.traffic.total_msgs() != want {
                return Err(format!(
                    "msgs: measured {} != modelled {want}",
                    out.traffic.total_msgs()
                ));
            }
            Ok(())
        },
    );
}
