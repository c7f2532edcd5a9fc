//! Cross-crate tests of the SMP-aware three-phase broadcast and of MPICH's
//! automatic selection, running on the simulated cluster.

use bcast_core::smp::{bcast_smp_async, NodeMap};
use bcast_core::verify::pattern;
use bcast_core::{bcast_auto_async, Algorithm, Thresholds};
use mpsim::{complete_now, Communicator, SyncComm};
use netsim::{presets, Level, SimWorld};

#[test]
fn smp_bcast_works_on_the_simulated_cluster() {
    let preset = presets::hornet();
    for &(np, nbytes, root) in &[(48usize, 65536usize, 0usize), (50, 4097, 30), (72, 999, 71)] {
        let model = preset.model_for(nbytes, np);
        let src = pattern(nbytes, 21);
        let nodes = NodeMap::new(preset.cores_per_node());
        let out = SimWorld::run(model, preset.placement(), np, |comm| {
            let mut buf = if comm.rank() == root { src.clone() } else { vec![0u8; nbytes] };
            complete_now(bcast_smp_async(
                &SyncComm::new(comm),
                &mut buf,
                root,
                &nodes,
                Algorithm::ScatterRingTuned,
            ))
            .unwrap();
            assert_eq!(buf, src, "rank {}", comm.rank());
        });
        assert!(out.traffic.is_balanced());
    }
}

#[test]
fn smp_bcast_moves_less_inter_node_data_than_flat_bcast() {
    // The whole point of multi-core awareness: only node leaders talk
    // across the network; everyone else stays on the node.
    let preset = presets::hornet();
    let (np, nbytes) = (72usize, 1 << 16);
    let placement = preset.placement();
    let nodes = NodeMap::new(preset.cores_per_node());
    let src = pattern(nbytes, 22);

    let inter_bytes = |smp: bool| {
        let model = preset.model_for(nbytes, np);
        let out = SimWorld::run(model, placement, np, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            if smp {
                complete_now(bcast_smp_async(
                    &SyncComm::new(comm),
                    &mut buf,
                    0,
                    &nodes,
                    Algorithm::ScatterRingTuned,
                ))
                .unwrap();
            } else {
                bcast_core::bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).unwrap();
            }
        });
        out.traffic.split_msgs(|a, b| placement.level(a, b) == Level::IntraNode).3
    };

    let flat = inter_bytes(false);
    let smp = inter_bytes(true);
    assert!(smp < flat, "SMP-aware bcast should cut inter-node bytes: smp={smp} flat={flat}");
}

#[test]
fn auto_selection_runs_every_regime_on_the_simulator() {
    let preset = presets::hornet();
    let th = Thresholds::default();
    for &(np, nbytes) in &[
        (24usize, 1024usize), // short → binomial
        (32, 65536),          // medium pof2 → recursive doubling
        (24, 65536),          // medium npof2 → ring (tuned)
        (32, 1 << 20),        // long pof2 → ring (tuned)
        (33, 1 << 20),        // long npof2 → ring (tuned)
    ] {
        for tuned in [false, true] {
            let model = preset.model_for(nbytes, np);
            let src = pattern(nbytes, 23);
            SimWorld::run(model, preset.placement(), np, |comm| {
                let mut buf = if comm.rank() == 1 { src.clone() } else { vec![0u8; nbytes] };
                complete_now(bcast_auto_async(&SyncComm::new(comm), &mut buf, 1, &th, tuned))
                    .unwrap();
                assert_eq!(buf, src);
            });
        }
    }
}

#[test]
fn tuned_auto_never_moves_more_messages() {
    let preset = presets::hornet();
    let th = Thresholds { short_msg: 512, long_msg: 4096, min_procs: 4 };
    for &(np, nbytes) in &[(9usize, 8192usize), (12, 600), (16, 600), (16, 8192)] {
        let mut counts = Vec::new();
        for tuned in [false, true] {
            let model = preset.model_for(nbytes, np);
            let src = pattern(nbytes, 24);
            let out = SimWorld::run(model, preset.placement(), np, |comm| {
                let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                complete_now(bcast_auto_async(&SyncComm::new(comm), &mut buf, 0, &th, tuned))
                    .unwrap();
            });
            counts.push(out.traffic.total_msgs());
        }
        assert!(counts[1] <= counts[0], "np={np} nbytes={nbytes}: {counts:?}");
    }
}
