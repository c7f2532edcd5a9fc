//! Multi-core-aware broadcast (paper §I): split the world into node-local
//! groups with `SubComm::split` (the `MPI_Comm_split` idiom), run the
//! three-phase SMP broadcast, and compare its inter-node traffic against the
//! flat scatter-ring broadcasts on a simulated two-level cluster.
//!
//! Run with: `cargo run --release --example smp_hierarchy`

use bcast_core::smp::{bcast_smp, NodeMap};
use bcast_core::verify::pattern;
use bcast_core::Algorithm;
use mpsim::{complete_now, AsyncCommunicator, Communicator, SubComm, SyncComm};
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

    // Demonstrate the split API itself: group ranks by node, order by rank.
    // Sub-communicators are written against the async surface; a blocking
    // backend enters through `SyncComm` + `complete_now`.
    let out = SimWorld::run(preset.model_for(nbytes, np), placement, np, |comm| {
        let color = Some(comm.placement().node_of(comm.rank()) as u64);
        let acomm = SyncComm::new(comm);
        let node_comm = complete_now(SubComm::split(&acomm, color, comm.rank() as i64))
            .expect("every rank belongs to a node");
        // within the node group, local rank 0 is the node leader
        (node_comm.size(), node_comm.rank(), node_comm.to_parent(0))
    });
    let (gsize, _, leader) = out.results[30];
    println!("rank 30 sits in a node group of {gsize} ranks led by global rank {leader}\n");

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
                bcast_smp(comm, &mut buf, 0, &nodes, algorithm).unwrap();
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
