//! Companion to Figure 6 on the *real threaded* backend: wall-time of
//! native vs tuned broadcast with actual byte movement through memory.
//! The tuned ring does measurably less copying — the paper's intra-node
//! argument — independent of the cluster simulator.
//!
//! (World sizes are thread counts here; absolute times depend on the host.
//! The simulator-based figure is the `bcast fig6` subcommand.)

use bcast_core::verify::pattern;
use bcast_core::{bcast_with, Algorithm};
use mpsim::ThreadWorld;
use testkit::bench::Harness;

fn bench_bcast(h: &mut Harness) {
    let mut group = h.group("fig6_threaded");
    group.sample_size(10);
    for &np in &[8usize, 16] {
        for &nbytes in &[512 * 1024usize, 2 * 1024 * 1024] {
            group.throughput_bytes(nbytes as u64);
            for (name, algorithm) in [
                ("native", Algorithm::ScatterRingNative),
                ("tuned", Algorithm::ScatterRingTuned),
                ("binomial", Algorithm::Binomial),
            ] {
                let src = pattern(nbytes, 1);
                group.bench(&format!("{name}/np{np}/{nbytes}B"), |b| {
                    b.iter(|| {
                        ThreadWorld::run(np, |comm| {
                            use mpsim::Communicator;
                            let mut buf =
                                if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                            bcast_with(comm, &mut buf, 0, algorithm).unwrap();
                            buf[0]
                        })
                    })
                });
            }
        }
    }
}

testkit::bench_main!(bench_bcast);
