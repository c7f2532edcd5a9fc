//! Property-based tests for the baselines beside the broadcast family: the
//! allgathers (ring/RD/Bruck) and the pipeline broadcast — arbitrary world
//! sizes, block sizes, roots and payloads on the real threaded runtime,
//! randomized by the in-tree `testkit` harness.

use bcast_core::allgather::{allgather_bruck, allgather_rd, allgather_ring};
use bcast_core::pipeline::{bcast_pipeline, pipeline_msgs};
use mpsim::{Communicator, ThreadWorld};
use testkit::prop::{self, Config};

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
                let mut ring = vec![0u8; block * comm.size()];
                allgather_ring(comm, &mine, &mut ring).unwrap();
                let mut bruck = vec![0u8; block * comm.size()];
                allgather_bruck(comm, &mine, &mut bruck).unwrap();
                assert_eq!(ring, bruck);
                if comm.size().is_power_of_two() {
                    let mut rd = vec![0u8; block * comm.size()];
                    allgather_rd(comm, &mine, &mut rd).unwrap();
                    assert_eq!(ring, rd);
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
                bcast_pipeline(comm, &mut buf, root, segment).unwrap();
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
