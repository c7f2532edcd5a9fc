//! Multi-core-aware broadcast (paper §I): run the three-phase SMP broadcast
//! (`bcast_smp_async` over a `NodeMap` of the cluster's nodes) and compare
//! its inter-node traffic against the flat scatter-ring broadcasts on a
//! simulated two-level cluster.
//!
//! Run with: `cargo run --release --example smp_hierarchy`

use bcast_core::smp::{bcast_smp_async, NodeMap};
use bcast_core::verify::pattern;
use bcast_core::Algorithm;
use mpsim::{complete_now, Communicator, SyncComm};
use netsim::{presets, Level, SimWorld};

fn main() {
    let preset = presets::hornet();
    let np = 72; // 3 nodes × 24 ranks
    let nbytes = 1 << 16;
    let placement = preset.placement();
    let nodes = NodeMap::new(preset.cores_per_node());
    let src = pattern(nbytes, 7);

    println!(
        "Simulated {}: np={np}, {} nodes, message {} KiB\n",
        preset.name,
        placement.node_count(np),
        nbytes >> 10
    );

    // Compare flat vs SMP-aware broadcast traffic and simulated time.
    println!("{:<28} {:>12} {:>14} {:>14}", "broadcast", "time (us)", "intra msgs", "inter msgs");
    for (name, smp, algorithm) in [
        ("flat native ring", false, Algorithm::ScatterRingNative),
        ("flat tuned ring", false, Algorithm::ScatterRingTuned),
        ("SMP + native ring", true, Algorithm::ScatterRingNative),
        ("SMP + tuned ring", true, Algorithm::ScatterRingTuned),
    ] {
        let out = SimWorld::run(preset.model_for(nbytes, np), placement, np, |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            if smp {
                let acomm = SyncComm::new(comm);
                complete_now(bcast_smp_async(&acomm, &mut buf, 0, &nodes, algorithm)).unwrap();
            } else {
                bcast_core::bcast_with(comm, &mut buf, 0, algorithm).unwrap();
            }
            assert_eq!(buf, src);
        });
        let (intra, inter, _, _) =
            out.traffic.split_msgs(|a, b| placement.level(a, b) == Level::IntraNode);
        println!("{name:<28} {:>12.1} {intra:>14} {inter:>14}", out.makespan_ns / 1000.0);
    }

    println!(
        "\nThe SMP scheme keeps the ring among node leaders only: inter-node\n\
         messages collapse from hundreds to a handful, and the paper's tuned\n\
         ring slots in as the leader-level algorithm."
    );
}
