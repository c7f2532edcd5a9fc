//! Property-based tests of the simulator-backed stack: arbitrary shapes,
//! models and protocols must all deliver correct broadcasts with balanced,
//! model-matching traffic, and virtual time must behave like time.
//! Randomized by the in-tree `testkit` harness; the allgather and pipeline
//! baselines get fixed-shape correctness runs on the Hornet preset.

use bcast_core::allgather::{allgather_async, AllgatherAlgorithm};
use bcast_core::pipeline::bcast_pipeline_async;
use bcast_core::traffic::bcast_volume;
use bcast_core::{bcast_with, Algorithm};
use mpsim::{complete_now, Communicator, SyncComm};
use netsim::{presets, NetworkModel, Placement, SimWorld};
use testkit::prop::{self, Config, Strategy};

/// Strategy over the raw knobs of a [`NetworkModel`]; [`build_model`] turns
/// a generated tuple into the model (shrinking operates on the knobs).
fn model_knobs() -> impl Strategy<Value = (f64, f64, usize, bool, f64, u64)> {
    (
        prop::f64_range(0.0..2000.0), // alpha
        prop::f64_range(0.0..4.0),    // beta
        prop::usize_range(0..20_000), // eager threshold
        prop::any_bool(),             // contention
        prop::f64_range(1.0..8.0),    // mem channels
        prop::u64_range(0..8),        // credits (0 encodes "unlimited")
    )
}

fn build_model(knobs: &(f64, f64, usize, bool, f64, u64)) -> NetworkModel {
    let &(alpha, beta, eager, contention, k, credits) = knobs;
    let mut m = NetworkModel::uniform(alpha, beta);
    m.eager_threshold = eager;
    m.contention = contention;
    m.mem_channels = k;
    m.eager_credits = if credits == 0 { usize::MAX } else { credits as usize };
    m.rendezvous_handshake_ns = alpha / 2.0;
    m.eager_unpack_copy = contention;
    m.o_send_ns = 50.0;
    m.o_recv_ns = 50.0;
    m
}

/// Any model, any placement, any shape: the tuned broadcast delivers and
/// the traffic matches the analytic volume.
#[test]
fn tuned_bcast_correct_under_arbitrary_models() {
    prop::check(
        "tuned_bcast_correct_under_arbitrary_models",
        Config::cases(32),
        &(
            model_knobs(),
            prop::usize_range(1..20),
            prop::usize_range(1..26),
            prop::usize_range(0..3000),
            prop::any_u64(),
        ),
        |(knobs, np, cores, nbytes, root_pick)| {
            let (np, cores, nbytes) = (*np, *cores, *nbytes);
            let model = build_model(knobs);
            let root = (*root_pick as usize) % np;
            let src = bcast_core::verify::pattern(nbytes, 31);
            let src2 = src.clone();
            let out = SimWorld::run(model, Placement::new(cores), np, move |comm| {
                let mut buf = if comm.rank() == root { src2.clone() } else { vec![0u8; nbytes] };
                bcast_with(comm, &mut buf, root, Algorithm::ScatterRingTuned).unwrap();
                buf
            });
            if !out.results.iter().all(|b| b == &src) {
                return Err("a rank diverged from the payload".into());
            }
            if !out.traffic.is_balanced() {
                return Err("unbalanced traffic".into());
            }
            let vol = bcast_volume(Algorithm::ScatterRingTuned, nbytes, np);
            if out.traffic.total_msgs() != vol.msgs {
                return Err(format!("msgs {} != modelled {}", out.traffic.total_msgs(), vol.msgs));
            }
            if out.traffic.total_bytes() != vol.bytes {
                return Err(format!(
                    "bytes {} != modelled {}",
                    out.traffic.total_bytes(),
                    vol.bytes
                ));
            }
            Ok(())
        },
    );
}

/// Virtual clocks never precede the physically-required minimum: a
/// broadcast of n bytes through a β-limited fabric cannot beat the
/// contention-free Hockney bound for the root's own sends.
#[test]
fn makespan_respects_hockney_lower_bound() {
    prop::check(
        "makespan_respects_hockney_lower_bound",
        Config::cases(32),
        &(prop::usize_range(2..16), prop::usize_range(1..20_000)),
        |&(np, nbytes)| {
            let alpha = 500.0;
            let beta = 1.0;
            let model = NetworkModel::uniform(alpha, beta);
            let src = bcast_core::verify::pattern(nbytes, 33);
            let src2 = src.clone();
            let out = SimWorld::run(model, Placement::new(4), np, move |comm| {
                let mut buf = if comm.rank() == 0 { src2.clone() } else { vec![0u8; nbytes] };
                bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).unwrap();
            });
            // Every non-root rank must receive nbytes total; the last byte into
            // the slowest rank needs at least α + nbytes·β/P per hop once —
            // a loose but non-trivial bound: α + nbytes·β/np.
            let bound = alpha + (nbytes as f64 * beta) / np as f64;
            if out.makespan_ns + 1e-6 < bound {
                return Err(format!("makespan {} below physical bound {bound}", out.makespan_ns));
            }
            Ok(())
        },
    );
}

/// Per-rank finish times are monotone under repetition: k+1 broadcasts
/// never finish before k broadcasts.
#[test]
fn more_work_never_finishes_earlier() {
    prop::check(
        "more_work_never_finishes_earlier",
        Config::cases(32),
        &(prop::usize_range(2..12), prop::usize_range(1..4000)),
        |&(np, nbytes)| {
            let model = NetworkModel::uniform(100.0, 0.5);
            let time_for = |iters: usize| {
                let src = bcast_core::verify::pattern(nbytes, 37);
                SimWorld::run(model.clone(), Placement::new(4), np, move |comm| {
                    let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
                    for _ in 0..iters {
                        bcast_with(comm, &mut buf, 0, Algorithm::ScatterRingTuned).unwrap();
                    }
                })
                .makespan_ns
            };
            let (t1, t2, t3) = (time_for(1), time_for(2), time_for(3));
            if t3 < t2 || t2 < t1 {
                return Err(format!("makespans not monotone: {t1} {t2} {t3}"));
            }
            Ok(())
        },
    );
}

/// The baselines beside the broadcast family, on the simulated cluster.
#[test]
fn allgather_variants_agree_on_the_simulator() {
    let preset = presets::hornet();
    for &np in &[8usize, 30] {
        let block = 512usize;
        let out = SimWorld::run(preset.model_for(block * np, np), preset.placement(), np, |comm| {
            let sendbuf = vec![comm.rank() as u8; block];
            let gather = |algorithm| {
                let mut all = vec![0u8; block * comm.size()];
                complete_now(allgather_async(&SyncComm::new(comm), &sendbuf, &mut all, algorithm))
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
        let want: Vec<u8> = (0..np).flat_map(|r| vec![r as u8; 512]).collect();
        for buf in &out.results {
            assert_eq!(buf, &want, "np={np}");
        }
    }
}

#[test]
fn pipeline_bcast_on_the_simulator() {
    let (np, nbytes) = (24usize, 1 << 18);
    let preset = presets::hornet();
    let src = bcast_core::verify::pattern(nbytes, 55);
    let src2 = src.clone();
    let out = SimWorld::run(preset.model_for(nbytes, np), preset.placement(), np, move |comm| {
        let mut buf = if comm.rank() == 0 { src2.clone() } else { vec![0u8; nbytes] };
        complete_now(bcast_pipeline_async(&SyncComm::new(comm), &mut buf, 0, 16 * 1024)).unwrap();
        buf
    });
    for buf in &out.results {
        assert_eq!(buf, &src);
    }
}
