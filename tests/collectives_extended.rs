//! Integration tests for the baselines beside the broadcast family
//! (allgather variants, pipeline broadcast) running on the simulated
//! cluster — cross-crate coverage beyond the per-module unit tests.

use bcast_core::allgather::{allgather_auto, allgather_bruck, allgather_ring, AllgatherThresholds};
use bcast_core::pipeline::bcast_pipeline;
use mpsim::Communicator;
use netsim::{presets, SimWorld};

fn hornet_world<R: Send>(
    np: usize,
    nbytes_hint: usize,
    f: impl Fn(&netsim::SimComm) -> R + Sync,
) -> netsim::SimOutcome<R> {
    let preset = presets::hornet();
    SimWorld::run(preset.model_for(nbytes_hint, np), preset.placement(), np, f)
}

#[test]
fn allgather_variants_agree_on_the_simulator() {
    for &np in &[8usize, 30] {
        let block = 512usize;
        let out = hornet_world(np, block * np, |comm| {
            let me = comm.rank() as u8;
            let sendbuf = vec![me; block];
            let mut ring = vec![0u8; block * comm.size()];
            allgather_ring(comm, &sendbuf, &mut ring).unwrap();
            let mut bruck = vec![0u8; block * comm.size()];
            allgather_bruck(comm, &sendbuf, &mut bruck).unwrap();
            let mut auto = vec![0u8; block * comm.size()];
            allgather_auto(comm, &sendbuf, &mut auto, &AllgatherThresholds::default()).unwrap();
            assert_eq!(ring, bruck);
            assert_eq!(ring, auto);
            ring
        });
        let want: Vec<u8> = (0..np).flat_map(|r| vec![r as u8; 512]).collect();
        for buf in &out.results {
            assert_eq!(buf, &want, "np={np}");
        }
    }
}

#[test]
fn bruck_is_faster_than_ring_for_small_blocks_on_the_cluster() {
    // Why MPICH picks Bruck for short non-power-of-two allgathers:
    // ceil(log2 P) rounds instead of P−1.
    let np = 30;
    let block = 64usize;
    let time = |which: u8| {
        hornet_world(np, block * np, move |comm| {
            let sendbuf = vec![comm.rank() as u8; block];
            let mut recvbuf = vec![0u8; block * comm.size()];
            comm.barrier().unwrap();
            match which {
                0 => allgather_ring(comm, &sendbuf, &mut recvbuf).unwrap(),
                _ => allgather_bruck(comm, &sendbuf, &mut recvbuf).unwrap(),
            }
        })
        .makespan_ns
    };
    let ring = time(0);
    let bruck = time(1);
    assert!(bruck < ring, "bruck {bruck} !< ring {ring}");
}

#[test]
fn pipeline_bcast_on_the_simulator() {
    let (np, nbytes) = (24usize, 1 << 18);
    let src = bcast_core::verify::pattern(nbytes, 55);
    let src2 = src.clone();
    let out = hornet_world(np, nbytes, move |comm| {
        let mut buf = if comm.rank() == 0 { src2.clone() } else { vec![0u8; nbytes] };
        bcast_pipeline(comm, &mut buf, 0, 16 * 1024).unwrap();
        buf
    });
    for buf in &out.results {
        assert_eq!(buf, &src);
    }
}

#[test]
fn pipeline_vs_scatter_ring_tradeoff() {
    // Pipeline moves (P−1)·n total bytes (every byte crosses every link)
    // while the scatter-ring family moves ~2n per non-root rank; the two
    // trade synchronization structure for volume, so their times stay in
    // the same ballpark while their wire footprints differ hugely.
    let (np, nbytes) = (24usize, 1 << 20);
    let src = bcast_core::verify::pattern(nbytes, 56);
    let run = |pipeline: bool| {
        let src = src.clone();
        hornet_world(np, nbytes, move |comm| {
            let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
            comm.barrier().unwrap();
            if pipeline {
                bcast_pipeline(comm, &mut buf, 0, 32 * 1024).unwrap();
            } else {
                bcast_core::bcast_opt(comm, &mut buf, 0).unwrap();
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
