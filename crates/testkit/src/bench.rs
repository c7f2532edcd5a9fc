//! A wall-clock micro-benchmark harness for `harness = false` bench targets.
//!
//! The shape mirrors the Criterion subset this workspace used: a harness
//! owns named groups, a group owns named benchmarks, and each benchmark's
//! closure drives a [`Bencher`] whose `iter` runs the measured function.
//! Per benchmark the harness runs `warmup` untimed iterations followed by
//! `samples` timed iterations and reports **median / p10 / p90 / mean**
//! nanoseconds (medians are robust against scheduler noise, which matters
//! for thread-spawning workloads like `ThreadWorld::run`).
//!
//! ## CLI (what `cargo bench -- <args>` passes through)
//!
//! * `<filter>...` — run only benchmarks whose `group/id` contains any
//!   filter substring;
//! * `--samples N`, `--warmup N` — override the measurement budget;
//! * `--json PATH` — additionally write results as JSON (the same flow that
//!   feeds `results/*.csv`: one record per benchmark, machine-readable);
//! * `--quick` — 1 warmup + 3 samples, for smoke-testing the bench tree;
//! * `--help` — print usage and exit 0;
//! * `--bench`/`--test` (passed by cargo itself) — accepted and ignored.
//!
//! ```no_run
//! fn my_bench(h: &mut testkit::bench::Harness) {
//!     let mut g = h.group("sums");
//!     g.bench("naive", |b| b.iter(|| (0..1000u64).sum::<u64>()));
//! }
//! testkit::bench_main!(my_bench);
//! ```

use std::time::Instant;

/// One benchmark's collected measurements, in nanoseconds.
#[derive(Debug, Clone)]
struct Record {
    /// Group name.
    group: String,
    /// Benchmark id within the group.
    id: String,
    /// Median of the timed samples.
    median_ns: f64,
    /// 10th percentile.
    p10_ns: f64,
    /// 90th percentile.
    p90_ns: f64,
    /// Arithmetic mean.
    mean_ns: f64,
    /// Number of timed samples.
    samples: usize,
    /// Optional throughput denominator (bytes per iteration), when declared.
    bytes_per_iter: Option<u64>,
}

impl Record {
    /// Throughput in MiB/s when `bytes_per_iter` was declared.
    fn mib_per_s(&self) -> Option<f64> {
        self.bytes_per_iter.map(|b| {
            let bytes_per_ns = b as f64 / self.median_ns.max(1e-9);
            bytes_per_ns * 1e9 / (1u64 << 20) as f64
        })
    }
}

/// Runs the measured closure and accumulates per-iteration times.
pub struct Bencher {
    warmup: usize,
    samples: usize,
    times_ns: Vec<f64>,
}

impl Bencher {
    /// Measure `f`: `warmup` untimed runs, then one timed run per sample.
    /// The closure's return value is passed through a black box so the
    /// optimizer cannot delete the computation.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        self.times_ns.clear();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.times_ns.push(t0.elapsed().as_nanos() as f64);
        }
    }
}

/// Settings parsed from the command line.
#[derive(Debug, Clone)]
struct Options {
    filters: Vec<String>,
    samples: usize,
    warmup: usize,
    json_path: Option<String>,
    criterion_dir: Option<String>,
    list_only: bool,
    quick: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            filters: Vec::new(),
            samples: 20,
            warmup: 3,
            json_path: None,
            criterion_dir: None,
            list_only: false,
            quick: false,
        }
    }
}

const USAGE: &str = "\
Usage: <bench-binary> [OPTIONS] [FILTER]...

Runs the in-tree testkit micro-benchmarks. With FILTER arguments, only
benchmarks whose 'group/id' contains one of the substrings are run.

Options:
      --samples <N>   timed iterations per benchmark (default 20)
      --warmup <N>    untimed warmup iterations per benchmark (default 3)
      --json <PATH>   also write results as JSON to PATH
      --criterion-dir <DIR>
                      also write Criterion-compatible estimates
                      (<DIR>/<group>/<id>/new/estimates.json), so existing
                      Criterion tooling can consume the results
      --quick         shorthand for --warmup 1 --samples 3
      --list          list benchmark names without running them
      --bench, --test accepted (passed by cargo) and ignored
  -h, --help          print this help and exit";

/// Collects groups and benchmarks, runs them, and reports.
pub struct Harness {
    options: Options,
    records: Vec<Record>,
}

impl Harness {
    /// Build a harness from `std::env::args`. Prints usage and exits 0 on
    /// `--help`; exits 1 on unknown `--flags`.
    pub fn from_args() -> Self {
        let mut options = Options::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut take_num = |name: &str| -> usize {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die(&format!("{name} needs a numeric argument")))
            };
            match arg.as_str() {
                "-h" | "--help" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                "--samples" => options.samples = take_num("--samples").max(1),
                "--warmup" => options.warmup = take_num("--warmup"),
                "--json" => {
                    options.json_path =
                        Some(args.next().unwrap_or_else(|| die("--json needs a path")))
                }
                "--criterion-dir" => {
                    options.criterion_dir =
                        Some(args.next().unwrap_or_else(|| die("--criterion-dir needs a path")))
                }
                "--quick" => {
                    options.warmup = 1;
                    options.samples = 3;
                    options.quick = true;
                }
                "--list" => options.list_only = true,
                // cargo bench/test pass these to harness=false targets
                "--bench" | "--test" | "--nocapture" => {}
                flag if flag.starts_with("--") => die(&format!("unknown flag {flag:?}\n{USAGE}")),
                filter => options.filters.push(filter.to_owned()),
            }
        }
        Self { options, records: Vec::new() }
    }

    /// Open a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group { harness: self, name: name.to_owned(), samples_override: None, bytes_per_iter: None }
    }

    /// Print the summary (and write JSON when requested). Call last.
    pub fn finish(self) {
        if let Some(path) = &self.options.json_path {
            let json = records_to_json(&self.records);
            if let Err(e) = std::fs::write(path, json) {
                die(&format!("cannot write --json {path}: {e}"));
            }
            eprintln!("wrote {} benchmark records to {path}", self.records.len());
        }
        if let Some(dir) = &self.options.criterion_dir {
            if let Err(e) = write_criterion_dir(std::path::Path::new(dir), &self.records) {
                die(&format!("cannot write --criterion-dir {dir}: {e}"));
            }
            eprintln!(
                "wrote Criterion estimates for {} benchmarks under {dir}",
                self.records.len()
            );
        }
        if self.records.is_empty() && !self.options.list_only {
            eprintln!("no benchmarks matched the filter(s)");
        }
    }

    fn run_one(
        &mut self,
        group: &str,
        id: &str,
        samples_override: Option<usize>,
        bytes_per_iter: Option<u64>,
        f: &mut dyn FnMut(&mut Bencher),
    ) {
        let full = format!("{group}/{id}");
        if !self.options.filters.is_empty()
            && !self.options.filters.iter().any(|pat| full.contains(pat.as_str()))
        {
            return;
        }
        if self.options.list_only {
            println!("{full}");
            return;
        }
        // `--quick` wins over per-group budgets: it exists to smoke the tree.
        let samples = if self.options.quick {
            self.options.samples
        } else {
            samples_override.unwrap_or(self.options.samples)
        };
        let mut bencher = Bencher { warmup: self.options.warmup, samples, times_ns: Vec::new() };
        f(&mut bencher);
        assert!(!bencher.times_ns.is_empty(), "benchmark {full} never called Bencher::iter");
        let record = summarize(group, id, &mut bencher.times_ns, bytes_per_iter);
        print_record(&record);
        self.records.push(record);
    }
}

/// A named group of benchmarks sharing throughput/budget settings.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples_override: Option<usize>,
    bytes_per_iter: Option<u64>,
}

impl Group<'_> {
    /// Cap the timed samples for the following benchmarks of this group
    /// (expensive workloads keep bench wall-time bounded this way).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples_override = Some(samples.max(1));
        self
    }

    /// Declare per-iteration payload bytes for the following benchmarks, so
    /// the report can show MiB/s.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.bytes_per_iter = Some(bytes);
        self
    }

    /// Measure one benchmark under this group.
    pub fn bench<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        self.harness.run_one(&self.name, id, self.samples_override, self.bytes_per_iter, &mut f);
        self
    }
}

fn summarize(group: &str, id: &str, times_ns: &mut [f64], bytes_per_iter: Option<u64>) -> Record {
    times_ns.sort_by(f64::total_cmp);
    let n = times_ns.len();
    let pct = |p: f64| -> f64 {
        // nearest-rank on the sorted samples
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        times_ns[rank - 1]
    };
    let median =
        if n % 2 == 1 { times_ns[n / 2] } else { (times_ns[n / 2 - 1] + times_ns[n / 2]) / 2.0 };
    Record {
        group: group.to_owned(),
        id: id.to_owned(),
        median_ns: median,
        p10_ns: pct(0.10),
        p90_ns: pct(0.90),
        mean_ns: times_ns.iter().sum::<f64>() / n as f64,
        samples: n,
        bytes_per_iter,
    }
}

fn print_record(r: &Record) {
    let throughput = match r.mib_per_s() {
        Some(t) => format!("  {t:>10.1} MiB/s"),
        None => String::new(),
    };
    println!(
        "{:<44} median {:>12}  p10 {:>12}  p90 {:>12}  ({} samples){}",
        format!("{}/{}", r.group, r.id),
        fmt_ns(r.median_ns),
        fmt_ns(r.p10_ns),
        fmt_ns(r.p90_ns),
        r.samples,
        throughput,
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Render records as a JSON document (hand-rolled: no serde in the tree).
fn records_to_json(records: &[Record]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group\": {group:?}, \"id\": {id:?}, \"median_ns\": {median}, \
             \"p10_ns\": {p10}, \"p90_ns\": {p90}, \"mean_ns\": {mean}, \
             \"samples\": {samples}, \"bytes_per_iter\": {bytes}}}{comma}\n",
            group = r.group,
            id = r.id,
            median = r.median_ns,
            p10 = r.p10_ns,
            p90 = r.p90_ns,
            mean = r.mean_ns,
            samples = r.samples,
            bytes = r.bytes_per_iter.map_or("null".to_owned(), |b| b.to_string()),
            comma = if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write records in Criterion's on-disk layout:
/// `<dir>/<group>/<id>/new/estimates.json`, one directory per benchmark,
/// with `point_estimate` values in nanoseconds. Path separators inside
/// group/id names are flattened (as Criterion itself does) so every
/// benchmark maps to exactly one directory level each for group and id.
fn write_criterion_dir(dir: &std::path::Path, records: &[Record]) -> std::io::Result<()> {
    for r in records {
        let bench_dir = dir.join(sanitize_component(&r.group)).join(sanitize_component(&r.id));
        let new_dir = bench_dir.join("new");
        std::fs::create_dir_all(&new_dir)?;
        std::fs::write(new_dir.join("estimates.json"), estimates_json(r))?;
    }
    Ok(())
}

/// Criterion directory names never contain path separators.
fn sanitize_component(name: &str) -> String {
    name.replace(['/', '\\'], "_")
}

/// The `estimates.json` subset downstream tooling reads: `mean` and
/// `median` estimates with their confidence intervals. The p10/p90 spread
/// stands in for the bootstrap interval (we keep raw samples, not a
/// resampled distribution).
fn estimates_json(r: &Record) -> String {
    let est = |point: f64, lo: f64, hi: f64| {
        format!(
            "{{\"confidence_interval\": {{\"confidence_level\": 0.8, \
             \"lower_bound\": {lo}, \"upper_bound\": {hi}}}, \
             \"point_estimate\": {point}, \"standard_error\": {se}}}",
            se = (hi - lo) / 2.0
        )
    };
    format!(
        "{{\n  \"mean\": {},\n  \"median\": {}\n}}\n",
        est(r.mean_ns, r.p10_ns, r.p90_ns),
        est(r.median_ns, r.p10_ns, r.p90_ns),
    )
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Expand a `main` that builds a [`Harness`] from the command line, runs the
/// given `fn(&mut Harness)` registration functions in order, and reports —
/// the moral equivalent of `criterion_group!` + `criterion_main!`.
#[macro_export]
macro_rules! bench_main {
    ($($register:path),+ $(,)?) => {
        fn main() {
            let mut harness = $crate::bench::Harness::from_args();
            $($register(&mut harness);)+
            harness.finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Harness {
        /// Harness with explicit settings.
        fn with_budget(warmup: usize, samples: usize) -> Self {
            Self {
                options: Options { samples: samples.max(1), warmup, ..Options::default() },
                records: Vec::new(),
            }
        }
    }

    #[test]
    fn bencher_collects_requested_samples() {
        let mut h = Harness::with_budget(1, 7);
        h.group("g").bench("work", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let r = &h.records[0];
        assert_eq!(r.samples, 7);
        assert!(r.median_ns >= 0.0);
        assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
    }

    #[test]
    fn throughput_is_reported_when_declared() {
        let mut h = Harness::with_budget(0, 3);
        h.group("g").throughput_bytes(1 << 20).bench("copy", |b| {
            let src = vec![1u8; 1 << 20];
            let mut dst = vec![0u8; 1 << 20];
            b.iter(|| dst.copy_from_slice(&src));
        });
        assert!(h.records[0].mib_per_s().unwrap() > 0.0);
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let mut h = Harness::with_budget(0, 2);
        h.group("a").bench("x", |b| b.iter(|| 1));
        h.group("b").throughput_bytes(64).bench("y", |b| b.iter(|| 2));
        let json = records_to_json(&h.records);
        assert!(json.starts_with("{\n  \"benchmarks\": ["));
        assert!(json.contains("\"group\": \"a\""));
        assert!(json.contains("\"bytes_per_iter\": 64"));
        assert!(json.trim_end().ends_with('}'));
        // exactly one comma between the two records
        assert_eq!(json.matches("}},").count() + json.matches("},\n").count(), 1);
    }

    #[test]
    fn criterion_estimates_have_the_expected_shape() {
        let r = Record {
            group: "pingpong".into(),
            id: "64B".into(),
            median_ns: 100.0,
            p10_ns: 90.0,
            p90_ns: 130.0,
            mean_ns: 105.0,
            samples: 9,
            bytes_per_iter: None,
        };
        let json = estimates_json(&r);
        assert!(json.contains("\"mean\": {"));
        assert!(json.contains("\"median\": {"));
        assert!(json.contains("\"point_estimate\": 100"));
        assert!(json.contains("\"point_estimate\": 105"));
        assert!(json.contains("\"lower_bound\": 90"));
        assert!(json.contains("\"upper_bound\": 130"));
        assert!(json.contains("\"confidence_level\": 0.8"));
        assert!(json.contains("\"standard_error\": 20"));
    }

    #[test]
    fn criterion_dir_layout_matches_criterion() {
        let mut h = Harness::with_budget(0, 2);
        h.group("grp").bench("with/slash", |b| b.iter(|| 1));
        let dir = std::env::temp_dir().join(format!("testkit-criterion-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_criterion_dir(&dir, &h.records).unwrap();
        let estimates = dir.join("grp").join("with_slash").join("new").join("estimates.json");
        let content = std::fs::read_to_string(&estimates).unwrap();
        assert!(content.contains("\"point_estimate\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn percentiles_of_known_samples() {
        let mut times: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let r = summarize("g", "id", &mut times, None);
        assert_eq!(r.median_ns, 5.5);
        assert_eq!(r.p10_ns, 1.0);
        assert_eq!(r.p90_ns, 9.0);
        assert_eq!(r.mean_ns, 5.5);
    }
}
