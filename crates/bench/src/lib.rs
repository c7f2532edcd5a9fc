//! # bcast-bench — the measurement loop behind every figure of the paper
//!
//! The paper's methodology (§V): synchronize all ranks with a barrier,
//! repeat the broadcast 100 times, and report *bandwidth* — "the rate at
//! which the broadcast messages can be processed", i.e.
//! `nbytes / mean_time_per_broadcast` — in base-2 megabytes per second.
//!
//! This crate provides that measurement loop over the [`netsim`] simulator
//! (the cluster stand-in), the figures' size axes, a CSV/gnuplot-friendly
//! printer and the analytic [`predict`] evaluator. The `bcast` executable's
//! `fig6`, `fig7`, `fig8`, `ablations`, `osu` and `predict-sweep`
//! subcommands print with them; `benches/` holds micro-benchmarks on the
//! in-tree `testkit::bench` harness (real threaded backend).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod predict;

use std::io::Write;

use bcast_core::verify::pattern;
use bcast_core::{bcast_with, Algorithm};
use mpsim::Communicator;
use netsim::{MachinePreset, SimWorld};

/// One measured point of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Message size in bytes.
    pub nbytes: usize,
    /// World size.
    pub np: usize,
    /// Mean simulated time per broadcast, nanoseconds.
    pub mean_ns: f64,
    /// Bandwidth in base-2 MB/s (`2^20` bytes per second), the paper's unit.
    pub bandwidth_mbps: f64,
    /// Broadcasts per second (the paper's Fig. 7 "throughput").
    pub throughput_per_s: f64,
    /// Total messages moved per broadcast (from the instrumented runtime).
    pub msgs_per_bcast: f64,
}

/// Measure one `(algorithm, np, nbytes)` point on a simulated machine.
///
/// Follows the paper's loop: one barrier, then `iterations` back-to-back
/// broadcasts; the per-broadcast time is the virtual makespan divided by the
/// iteration count. Root is rank 0 throughout, as in the micro-benchmarks.
pub fn measure_sim(
    preset: &MachinePreset,
    algorithm: Algorithm,
    np: usize,
    nbytes: usize,
    iterations: usize,
) -> Measurement {
    assert!(iterations >= 1);
    let model = preset.model_for(nbytes, np);
    let src = pattern(nbytes, 0xF16);
    let out = SimWorld::run(model, preset.placement(), np, |comm| {
        let mut buf = if comm.rank() == 0 { src.clone() } else { vec![0u8; nbytes] };
        comm.barrier().unwrap();
        let start = comm.now_ns();
        for _ in 0..iterations {
            bcast_with(comm, &mut buf, 0, algorithm).unwrap();
        }
        // A closing barrier makes every rank see the full completion time,
        // like the paper's user-level timing harness.
        comm.barrier().unwrap();
        let elapsed = comm.now_ns() - start;
        assert_eq!(buf, src, "rank {} corrupted buffer", comm.rank());
        elapsed
    });
    let elapsed_ns = out.results.iter().copied().max().unwrap() as f64;
    let mean_ns = elapsed_ns / iterations as f64;
    let bandwidth_mbps = if mean_ns > 0.0 {
        (nbytes as f64 / (1 << 20) as f64) / (mean_ns * 1e-9)
    } else {
        f64::INFINITY
    };
    Measurement {
        nbytes,
        np,
        mean_ns,
        bandwidth_mbps,
        throughput_per_s: if mean_ns > 0.0 { 1e9 / mean_ns } else { f64::INFINITY },
        msgs_per_bcast: out.traffic.total_msgs() as f64 / iterations as f64,
    }
}

/// A native-vs-tuned comparison at one point.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// The native (`MPI_Bcast_native`) measurement.
    pub native: Measurement,
    /// The tuned (`MPI_Bcast_opt`) measurement.
    pub tuned: Measurement,
}

impl Comparison {
    /// Bandwidth improvement of tuned over native, in percent
    /// (the paper's "improved by a range from 2% to 54%").
    pub fn improvement_pct(&self) -> f64 {
        (self.tuned.bandwidth_mbps / self.native.bandwidth_mbps - 1.0) * 100.0
    }

    /// Throughput speedup tuned/native (the paper's Fig. 7 y-axis).
    pub fn speedup(&self) -> f64 {
        self.tuned.throughput_per_s / self.native.throughput_per_s
    }
}

/// Measure native and tuned at one `(np, nbytes)` point.
pub fn compare_sim(
    preset: &MachinePreset,
    np: usize,
    nbytes: usize,
    iterations: usize,
) -> Comparison {
    Comparison {
        native: measure_sim(preset, Algorithm::ScatterRingNative, np, nbytes, iterations),
        tuned: measure_sim(preset, Algorithm::ScatterRingTuned, np, nbytes, iterations),
    }
}

/// The paper's Fig. 6 x-axis: powers of two from 2^19 to 2^25 bytes.
pub fn fig6_sizes() -> Vec<usize> {
    (19..=25).map(|e| 1usize << e).collect()
}

/// The paper's Fig. 8 x-axis: 12288 to 2560000 bytes, doubling from the
/// medium-message threshold (2^13.58… — we use the paper's powers of two
/// between 2^13 and 2^21, clipped to the stated endpoints).
pub fn fig8_sizes() -> Vec<usize> {
    let mut v = vec![12288usize];
    let mut s = 16384usize;
    while s < 2_560_000 {
        v.push(s);
        s *= 2;
    }
    v.push(2_560_000);
    v
}

/// Write a CSV header + rows for a native/tuned sweep (gnuplot-friendly).
pub fn write_comparison_csv(
    out: &mut dyn Write,
    title: &str,
    rows: &[Comparison],
) -> std::io::Result<()> {
    writeln!(out, "# {title}")?;
    writeln!(out, "nbytes,np,native_mbps,tuned_mbps,improvement_pct,native_msgs,tuned_msgs")?;
    for c in rows {
        writeln!(
            out,
            "{},{},{:.1},{:.1},{:+.1},{:.0},{:.0}",
            c.native.nbytes,
            c.native.np,
            c.native.bandwidth_mbps,
            c.tuned.bandwidth_mbps,
            c.improvement_pct(),
            c.native.msgs_per_bcast,
            c.tuned.msgs_per_bcast,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::presets;

    #[test]
    fn measure_sim_produces_sane_numbers() {
        let m = measure_sim(&presets::hornet(), Algorithm::ScatterRingTuned, 16, 1 << 19, 3);
        assert!(m.mean_ns > 0.0);
        assert!(m.bandwidth_mbps > 0.0 && m.bandwidth_mbps.is_finite());
        // 15 scatter + 44-ish ring… np=16: scatter 15 + tuned ring (P²−Σown)
        assert!(m.msgs_per_bcast > 15.0);
    }

    #[test]
    fn comparison_improvement_sign_matches_bandwidths() {
        let c = compare_sim(&presets::hornet(), 16, 1 << 20, 3);
        if c.tuned.bandwidth_mbps > c.native.bandwidth_mbps {
            assert!(c.improvement_pct() > 0.0);
        } else {
            assert!(c.improvement_pct() <= 0.0);
        }
    }

    #[test]
    fn fig_sizes_match_paper_ranges() {
        let s6 = fig6_sizes();
        assert_eq!(s6.first(), Some(&524288));
        assert_eq!(s6.last(), Some(&(1 << 25)));
        let s8 = fig8_sizes();
        assert_eq!(s8.first(), Some(&12288));
        assert_eq!(s8.last(), Some(&2_560_000));
        assert!(s8.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn more_iterations_tighten_per_bcast_time() {
        // mean per-broadcast time should be roughly iteration-count
        // independent (steady state), within a loose factor.
        let a = measure_sim(&presets::hornet(), Algorithm::ScatterRingNative, 16, 1 << 19, 2);
        let b = measure_sim(&presets::hornet(), Algorithm::ScatterRingNative, 16, 1 << 19, 8);
        let ratio = a.mean_ns / b.mean_ns;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio={ratio}");
    }
}
