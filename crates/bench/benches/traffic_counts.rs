//! Micro-benchmarks of the pure algorithmic kernels: the tuned ring's
//! (step, flag) computation, the analytic traffic model, the simulator's
//! reservation timeline, and the discrete-event executor's broadcast hot
//! path — all single-threaded, so their medians are stable under --quick.

use bcast_core::traffic::{bcast_volume, tuned_ring_msgs};
use bcast_core::{bcast_event_world, step_flag, Algorithm};
use netsim::Timeline;
use std::hint::black_box;
use testkit::bench::Harness;

fn bench_step_flag(h: &mut Harness) {
    let mut group = h.group("step_flag");
    for &p in &[129usize, 1024, 65536] {
        group.bench(&p.to_string(), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for rel in 0..p {
                    acc += step_flag(black_box(rel), black_box(p)).0;
                }
                acc
            })
        });
    }
}

fn bench_traffic_model(h: &mut Harness) {
    let mut group = h.group("traffic_model");
    for &p in &[129usize, 1024] {
        group.bench(&format!("tuned_ring_msgs/{p}"), |b| b.iter(|| tuned_ring_msgs(black_box(p))));
        group.bench(&format!("bcast_volume_tuned/{p}"), |b| {
            b.iter(|| bcast_volume(Algorithm::ScatterRingTuned, black_box(1 << 20), p))
        });
    }
}

fn bench_timeline(h: &mut Harness) {
    let mut group = h.group("timeline");
    group.bench("sequential_claims_merge", |b| {
        b.iter(|| {
            let mut t = Timeline::new();
            for i in 0..1000 {
                t.claim(black_box(i as f64), 1.0);
            }
            t.fragments()
        })
    });
    group.bench("gap_filling_claims", |b| {
        b.iter(|| {
            let mut t = Timeline::new();
            // alternate far-future and near-past claims
            for i in 0..500 {
                t.claim(black_box(1_000_000.0 + i as f64 * 10.0), 5.0);
                t.claim(black_box(i as f64 * 10.0), 5.0);
            }
            t.fragments()
        })
    });
}

fn bench_event_world_hotpath(h: &mut Harness) {
    // A full broadcast on the event executor: reactor scheduling, mailbox
    // traffic, and pooled envelopes, but zero thread spawns — one measured
    // world is one complete collective, so the median tracks the per-message
    // overhead of the event loop itself.
    let mut group = h.group("event_world_hotpath");
    for &p in &[8usize, 32, 1024] {
        group.bench(&format!("tuned_bcast/{p}"), |b| {
            b.iter(|| {
                bcast_event_world(black_box(p), 2048, 0, Algorithm::ScatterRingTuned)
                    .traffic
                    .total_msgs()
            })
        });
    }
}

testkit::bench_main!(
    bench_step_flag,
    bench_traffic_model,
    bench_timeline,
    bench_event_world_hotpath
);
