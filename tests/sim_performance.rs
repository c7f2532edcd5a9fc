//! Performance-shape assertions on the simulated cluster — the qualitative
//! claims of the paper's evaluation, and the trade-offs of the baselines
//! beside it (Bruck, pipeline), as tests. These use generous tolerances
//! (the contended simulator has bounded run-to-run jitter; see netsim's
//! fabric docs) and small iteration counts to stay fast.

use bcast_bench::{compare_sim, measure_sim};
use bcast_core::allgather::{allgather_async, AllgatherAlgorithm};
use bcast_core::pipeline::bcast_pipeline_async;
use bcast_core::Algorithm;
use mpsim::{complete_now, Communicator, SyncComm};
use netsim::{presets, SimWorld};

#[test]
fn tuned_at_least_matches_native_intra_node() {
    // Paper Fig. 6(a): np=16 on one node, long messages — tuned wins.
    let c = compare_sim(&presets::hornet(), 16, 1 << 20, 5);
    assert!(
        c.tuned.bandwidth_mbps >= c.native.bandwidth_mbps * 0.99,
        "tuned {:.0} vs native {:.0} MB/s",
        c.tuned.bandwidth_mbps,
        c.native.bandwidth_mbps
    );
    assert!(c.tuned.msgs_per_bcast < c.native.msgs_per_bcast);
}

#[test]
fn tuned_wins_clearly_for_medium_npof2() {
    // Paper Fig. 8 regime: np not a power of two, medium message.
    let c = compare_sim(&presets::hornet(), 33, 65536, 10);
    assert!(c.speedup() > 1.02, "expected a clear speedup, got {:.3}", c.speedup());
}

#[test]
fn fig7_small_message_speedup_decays_with_np() {
    // Paper Fig. 7, ms=12288: speedup is largest for small non-pof2 worlds
    // and decays as np grows.
    let s9 = compare_sim(&presets::hornet(), 9, 12288, 15).speedup();
    let s129 = compare_sim(&presets::hornet(), 129, 12288, 15).speedup();
    assert!(s9 > 1.2, "np=9 speedup too small: {s9:.3}");
    assert!(s129 > 0.95, "np=129 must not regress: {s129:.3}");
    assert!(s9 > s129 * 0.9, "decay shape violated: s9={s9:.3} s129={s129:.3}");
}

#[test]
fn bandwidth_grows_with_message_size_before_llc_pressure() {
    // Paper Fig. 8: "bandwidth increases steadily as the growth of message
    // sizes under conditions that have sufficient memory capacity".
    let preset = presets::hornet();
    let mut prev = 0.0;
    for nbytes in [16384usize, 65536, 262144, 1048576] {
        let m = measure_sim(&preset, Algorithm::ScatterRingTuned, 33, nbytes, 5);
        assert!(
            m.bandwidth_mbps > prev * 0.95,
            "bandwidth not growing at {nbytes}: {:.0} after {prev:.0}",
            m.bandwidth_mbps
        );
        prev = m.bandwidth_mbps;
    }
}

#[test]
fn llc_pressure_reduces_intra_node_bandwidth() {
    // Paper Fig. 6(a)/(c): bandwidth knees once per-node footprint spills L3.
    let preset = presets::hornet();
    let below = measure_sim(&preset, Algorithm::ScatterRingTuned, 16, 2 << 20, 3);
    let above = measure_sim(&preset, Algorithm::ScatterRingTuned, 16, 8 << 20, 3);
    assert!(
        above.bandwidth_mbps < below.bandwidth_mbps,
        "LLC knee missing: {:.0} !< {:.0}",
        above.bandwidth_mbps,
        below.bandwidth_mbps
    );
}

#[test]
fn binomial_beats_ring_for_short_messages() {
    // Why MPICH selects binomial below 12 KiB.
    let preset = presets::hornet();
    let binomial = measure_sim(&preset, Algorithm::Binomial, 24, 2048, 5);
    let ring = measure_sim(&preset, Algorithm::ScatterRingTuned, 24, 2048, 5);
    assert!(binomial.mean_ns < ring.mean_ns);
}

#[test]
fn ring_beats_binomial_for_long_messages() {
    // …and why it switches away for long ones.
    let preset = presets::hornet();
    let binomial = measure_sim(&preset, Algorithm::Binomial, 24, 1 << 20, 5);
    let ring = measure_sim(&preset, Algorithm::ScatterRingTuned, 24, 1 << 20, 5);
    assert!(ring.mean_ns < binomial.mean_ns);
}

#[test]
fn contention_is_what_converts_saved_messages_into_time() {
    // Ablation (DESIGN.md §8): on the ideal contention-free machine the two
    // rings are nearly tied; on the contended machine the tuned ring's
    // advantage is visibly larger.
    let ideal = compare_sim(&presets::ideal(24), 16, 1 << 20, 5);
    let real = compare_sim(&presets::hornet(), 16, 1 << 20, 5);
    let ideal_gain = ideal.speedup();
    let real_gain = real.speedup();
    assert!(
        real_gain > ideal_gain - 0.02,
        "contended gain {real_gain:.3} should not trail ideal gain {ideal_gain:.3}"
    );
    assert!((0.95..1.1).contains(&ideal_gain), "ideal machines see little effect: {ideal_gain:.3}");
}

#[test]
fn laki_preset_shows_same_trend() {
    // Paper §V: "the results from both Hornet and Laki basically deliver the
    // same bandwidth performance trend".
    let c = compare_sim(&presets::laki(), 16, 1 << 20, 5);
    assert!(c.tuned.bandwidth_mbps >= c.native.bandwidth_mbps * 0.98);
    let c = compare_sim(&presets::laki(), 9, 12288, 10);
    assert!(c.speedup() > 1.0, "laki small-message speedup: {:.3}", c.speedup());
}

#[test]
fn bruck_is_faster_than_ring_for_small_blocks_on_the_cluster() {
    // Why MPICH picks Bruck for short non-power-of-two allgathers:
    // ceil(log2 P) rounds instead of P−1.
    let (np, block) = (30usize, 64usize);
    let preset = presets::hornet();
    let time = |algorithm| {
        SimWorld::run(preset.model_for(block * np, np), preset.placement(), np, move |comm| {
            let sendbuf = vec![comm.rank() as u8; block];
            let mut recvbuf = vec![0u8; block * comm.size()];
            comm.barrier().unwrap();
            complete_now(allgather_async(&SyncComm::new(comm), &sendbuf, &mut recvbuf, algorithm))
                .unwrap();
        })
        .makespan_ns
    };
    let ring = time(AllgatherAlgorithm::Ring);
    let bruck = time(AllgatherAlgorithm::Bruck);
    assert!(bruck < ring, "bruck {bruck} !< ring {ring}");
}

#[test]
fn pipeline_vs_scatter_ring_tradeoff() {
    // Pipeline moves (P−1)·n total bytes (every byte crosses every link)
    // while the scatter-ring family moves ~2n per non-root rank; the two
    // trade synchronization structure for volume, so their times stay in
    // the same ballpark while their wire footprints differ hugely.
    let (np, nbytes) = (24usize, 1 << 20);
    let preset = presets::hornet();
    let src = bcast_core::verify::pattern(nbytes, 56);
    let run = |pipeline: bool| {
        let src = src.clone();
        SimWorld::run(preset.model_for(nbytes, np), preset.placement(), np, move |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            comm.barrier().unwrap();
            if pipeline {
                complete_now(bcast_pipeline_async(&SyncComm::new(comm), &mut buf, 0, 32 * 1024))
                    .unwrap();
            } else {
                bcast_core::bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).unwrap();
            }
        })
    };
    let pipe = run(true);
    let tuned = run(false);
    // Any broadcast must deliver n bytes to each of the P−1 non-root ranks,
    // so both schemes move ≈ (P−1)·n total — the difference is structure
    // (chain of full-size segments vs ring of 1/P chunks), not volume.
    let floor = ((np - 1) * nbytes) as u64;
    for t in [pipe.traffic.total_bytes(), tuned.traffic.total_bytes()] {
        assert!((floor..floor + 2 * nbytes as u64).contains(&t), "volume {t} out of band");
    }
    // time: same ballpark (within 2× either way) on a single node where the
    // shared memory channel absorbs the extra volume at aggregate bandwidth
    let ratio = tuned.makespan_ns / pipe.makespan_ns;
    assert!(
        (0.5..2.0).contains(&ratio),
        "times should be comparable: tuned {} pipe {}",
        tuned.makespan_ns,
        pipe.makespan_ns
    );
}

/// Forty `paper-sim`-shaped worlds in a row: `measure_sim` on Hornet,
/// np = 33 × 12 288 B × 40 broadcasts, native and tuned alternating. A
/// fabric drops the reservations no future transfer can reach, so the
/// process's peak memory does not climb with the number of worlds.
/// `scripts/ci.sh sim_memory` runs this alone in a release process with
/// `--nocapture`, reads the `VmHWM` line it prints and fails above 8 MiB.
#[test]
#[ignore = "release-mode CI phase: reads this process's peak memory"]
fn paper_sim_worlds_hold_only_what_is_in_flight() {
    for world in 0..40 {
        let algorithm = [Algorithm::ScatterRingNative, Algorithm::ScatterRingTuned][world % 2];
        let m = measure_sim(&presets::hornet(), algorithm, 33, 12288, 40);
        assert!(m.mean_ns > 0.0, "world {world} took no virtual time");
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(line) = status.lines().find(|l| l.starts_with("VmHWM:")) {
        println!("paper_sim_worlds_hold_only_what_is_in_flight {line}");
    }
}
