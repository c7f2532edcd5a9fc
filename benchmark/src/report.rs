//! The parent side of a run: spawn the children, fold what they measured
//! into the named metrics, check the guards, and print and write the result.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Duration;

use bcast_core::traffic::bcast_volume;
use bcast_core::Algorithm;

use crate::child::{self, LayersOutput, Task, WorkloadOutput};
use crate::json::Json;
use crate::layers::Timing;
use crate::spec::{self, Metric, Workload};
use crate::stats::{median, quartiles, tail_or_max};
use crate::trace::TraceGroup;

/// A reported number with what backs it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind `value`; 1 for a count read off a single world.
    pub n: usize,
}

impl Stat {
    pub fn of(samples: &[f64]) -> Stat {
        let (q1, q3) = quartiles(samples);
        Stat { value: median(samples), q1, q3, n: samples.len() }
    }

    pub fn exact(value: f64) -> Stat {
        Stat { value, q1: value, q3: value, n: 1 }
    }
}

/// Everything one workload produced in one run.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Guards that tripped, in the children and while folding; any entry
    /// makes the run incorrect.
    pub guards: Vec<String>,
    /// Metric name → value, for the end-to-end set (untraced runs) or the
    /// per-layer set (traced runs).
    pub metrics: BTreeMap<&'static str, Stat>,
    /// End-to-end metric name → one observation per child process (its own
    /// median for timings): the run-level values `compare` judges spread by.
    pub runs: BTreeMap<&'static str, Vec<f64>>,
    /// Label of the percentile `bench.bcast_wall_tail_us` quotes.
    pub tail_label: &'static str,
    pub trace: Vec<TraceGroup>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.guards.is_empty()
    }
}

/// Seconds the layer probes take on a 2-core host; a traced run gives its
/// workload what is left of `--seconds` after them.
const LAYERS_SECONDS: f64 = 5.0;

fn spawn(task: &Task) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(task.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {:?} ended with {}", task.to_args(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("child printed a line that is not JSON: {e}"))
}

fn spawn_workload(
    workload: &'static Workload,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<WorkloadOutput, String> {
    child::workload_from_json(&spawn(&Task::Workload { workload, seed, budget, traced })?)
}

pub fn spawn_layers(traced: bool) -> Result<LayersOutput, String> {
    child::layers_from_json(&spawn(&Task::Layers { traced })?)
}

/// The count metrics, as the children name them (and as the spec does).
const COUNT_KEYS: [&str; 3] =
    ["wire_bytes_per_bcast", "envelopes_per_bcast", "bytes_copied_per_bcast"];

/// Workloads whose worlds end with every rented buffer returned: the ones
/// without faults. A crashed rank's unread mail and a lossy link's
/// undrained retransmissions legitimately die with the world.
fn must_return_every_buffer(name: &str) -> bool {
    !matches!(name, spec::HEAL_CRASH | spec::LOSSY_RING)
}

/// Fold the children of one workload into its untimed facts: totals, guard
/// findings, and the pooled sample series.
struct Folded {
    result: WorkloadResult,
    nums: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<f64>>,
    setup_s: Vec<f64>,
    rss_mib: Vec<f64>,
    /// Each child's own median broadcast time.
    wall_medians: Vec<f64>,
}

fn fold(workload: &'static Workload, outputs: Vec<WorkloadOutput>) -> Folded {
    let mut result = WorkloadResult { name: workload.name, ..WorkloadResult::default() };
    let mut nums: BTreeMap<String, f64> = BTreeMap::new();
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut setup_s, mut rss_mib, mut wall_medians) = (Vec::new(), Vec::new(), Vec::new());
    for out in outputs {
        let r = out.report;
        result.attempted += r.attempted;
        result.failed += r.failed;
        result.guards.extend(r.guards);
        for (key, value) in r.nums {
            if is_total(&key) {
                *nums.entry(key).or_insert(0.0) += value;
            } else if let Some(&seen) = nums.get(&key) {
                // Per-broadcast counts and the like: every child took them
                // under the same canonical inputs, so they must agree.
                if seen != value {
                    result
                        .guards
                        .push(format!("{key} differs between children: {seen} vs {value}"));
                }
            } else {
                nums.insert(key, value);
            }
        }
        wall_medians
            .push(median(r.series.get("bcast_wall_us").map(Vec::as_slice).unwrap_or_default()));
        for (key, values) in r.series {
            series.entry(key).or_default().extend(values);
        }
        setup_s.push(r.setup_s);
        rss_mib.push(out.rss_kib / 1024.0);
        if !out.spans.is_empty() {
            result.trace.push(TraceGroup { workload: workload.name.into(), spans: out.spans });
        }
    }
    let outstanding = nums.get("pool_outstanding").copied().unwrap_or(0.0);
    if must_return_every_buffer(workload.name) && outstanding != 0.0 {
        result.guards.push(format!("{outstanding} pool buffers were never returned"));
    }
    Folded { result, nums, series, setup_s, rss_mib, wall_medians }
}

/// Keys the children report as totals over their timed worlds.
fn is_total(key: &str) -> bool {
    key.starts_with("timed_") || key.starts_with("pool_") || key.starts_with("reactor_")
}

/// The end-to-end set of one workload: `seconds` of timed worlds split over
/// several fresh processes.
pub fn end_to_end(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<WorkloadResult, String> {
    let children = workload.children;
    let budget = Duration::from_secs_f64(seconds / children as f64);
    let outputs = (0..children as u64)
        // Each child draws its own payloads and fault plans.
        .map(|i| spawn_workload(workload, crate::inputs::mix(seed, i), budget, false))
        .collect::<Result<Vec<_>, _>>()?;
    let Folded { mut result, nums, series, setup_s, rss_mib, wall_medians } =
        fold(workload, outputs);
    let wall = series.get("bcast_wall_us").map(Vec::as_slice).unwrap_or_default();
    result.metrics.insert("setup_s", Stat::of(&setup_s));
    result.metrics.insert("bcast_wall_us", Stat::of(wall));
    for key in COUNT_KEYS {
        let count = nums.get(key).copied().unwrap_or(0.0);
        result.metrics.insert(key, Stat::exact(count));
        result.runs.insert(key, vec![count]);
    }
    result.metrics.insert("peak_rss_mib", Stat::of(&rss_mib));
    result.runs.extend([
        ("setup_s", setup_s),
        ("bcast_wall_us", wall_medians),
        ("peak_rss_mib", rss_mib),
    ]);
    result.tail_label = tail_or_max(wall).0;
    for metric in &spec::END_TO_END {
        let value = result.metrics[metric.name].value;
        if !(value.is_finite() && value > 0.0) {
            result
                .guards
                .push(format!("{} read {value}; end-to-end metrics are never 0", metric.name));
        }
    }
    Ok(result)
}

/// What the per-layer derivations read: the workload's folded counters
/// and series, the layer probes, and the untraced broadcast time.
struct LayerInputs<'a> {
    workload: &'a Workload,
    nums: &'a BTreeMap<String, f64>,
    series: &'a BTreeMap<String, Vec<f64>>,
    timings: &'a [Timing],
    /// Median `bcast_wall_us` of the untraced process.
    wall_us: f64,
}

type Values = BTreeMap<&'static str, Stat>;

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl LayerInputs<'_> {
    fn num(&self, key: &str) -> f64 {
        self.nums.get(key).copied().unwrap_or(0.0)
    }

    fn series(&self, key: &str) -> &[f64] {
        self.series.get(key).map(Vec::as_slice).unwrap_or_default()
    }

    fn layer(&self, name: &str) -> f64 {
        self.timings.iter().find(|t| t.name == name).map_or(0.0, |t| t.value)
    }

    /// Counters of the workload's own timed worlds, per world or per
    /// broadcast.
    fn counters(&self, out: &mut Values) {
        let (worlds, bcasts) = (self.num("timed_worlds"), self.num("timed_bcasts"));
        let (hits, misses) = (self.num("pool_hits"), self.num("pool_misses"));
        let (wakeups, spurious) = (self.num("reactor_wakeups"), self.num("reactor_spurious_polls"));
        let useful = if wakeups > 0.0 { 1.0 - spurious / wakeups } else { 0.0 };
        out.extend(
            [
                ("pool.hit_rate", ratio(hits, hits + misses)),
                ("pool.misses", ratio(misses, worlds)),
                ("pool.outstanding", self.num("pool_outstanding")),
                ("event_mailbox.spills", ratio(self.num("reactor_mailbox_spills"), bcasts)),
                ("event_timer.cancels", ratio(self.num("reactor_timer_cancels"), bcasts)),
                ("event_comm.wakeups", ratio(wakeups, bcasts)),
                ("event_comm.spurious_polls", ratio(spurious, bcasts)),
                ("event_comm.useful_poll_frac", useful),
            ]
            .map(|(name, value)| (name, Stat::exact(value))),
        );
    }

    /// Numbers that belong to one workload; they read 0 on the others.
    fn own(&self, out: &mut Values) {
        let envelopes = self.num("envelopes_per_bcast");
        match self.workload.name {
            spec::HEAL_CLEAN | spec::HEAL_CRASH => {
                let epochs = self.series("epochs").iter().copied().fold(0.0, f64::max);
                out.insert("recovery.epochs_max", Stat::exact(epochs));
                out.insert(
                    "recovery.heal_ms_per_epoch",
                    Stat::of(self.series("heal_ms_per_epoch")),
                );
                if self.workload.name == spec::HEAL_CLEAN {
                    let (p, nbytes) = (self.workload.p, self.workload.nbytes);
                    let plain = bcast_volume(Algorithm::ScatterRingTuned, nbytes, p).msgs as f64;
                    let tax = ratio(self.wall_us, self.layer("ring_tuned.wall_us.msgs"));
                    out.insert("recovery.fault_free_tax", Stat::exact(tax));
                    out.insert("recovery.agree_envelopes", Stat::exact(envelopes - plain));
                }
            }
            spec::LOSSY_RING => {
                let drop_free = self.num("drop_free_envelopes_per_bcast");
                let extra = ratio(envelopes - drop_free, drop_free);
                out.insert("reliable.retransmit_frac", Stat::exact(extra));
            }
            spec::PAPER_SIM => out.extend([
                ("sim_comm.sim_us_per_bcast.native", Stat::of(self.series("sim_native_us"))),
                ("sim_comm.sim_us_per_bcast.tuned", Stat::of(self.series("bcast_wall_us"))),
                ("sim_comm.comm_fraction", Stat::exact(self.num("sim_comm_fraction"))),
                ("sim_comm.host_ms_per_bcast", Stat::of(self.series("sim_host_ms_per_bcast"))),
                ("sim_bw_mib_s", Stat::of(self.series("sim_bw_mib_s"))),
                ("sim_gain_pct", Stat::of(self.series("sim_gain_pct"))),
            ]),
            _ => {}
        }
    }

    /// Where did the time go: unit costs times the counters the run already
    /// reports, as shares of the broadcast's host time. Host-clock reactor
    /// workloads only; the simulator's clock and the thread scheduler have
    /// no such unit costs.
    fn attribution(&self, out: &mut Values) {
        let w = self.workload;
        if !matches!(w.name, spec::RING_MSGS | spec::RING_BYTES | spec::HEAL_CLEAN) {
            return;
        }
        let wall_ns = self.wall_us * 1e3;
        let envelopes = self.num("envelopes_per_bcast");
        let p2p = self.layer("event_comm.p2p_ns");
        let copied_gib = self.num("bytes_copied_per_bcast") / (1u64 << 30) as f64;
        let copy_ns = ratio(copied_gib, self.layer("pool.copy_gib_s")) * 1e9;
        let stack_tax = (self.layer("recovery.stack_p2p_ns") - p2p).max(0.0);
        let heals = w.name == spec::HEAL_CLEAN;
        let shares = [
            ("attribution.event_comm_share", ratio(envelopes * p2p, wall_ns)),
            ("attribution.copy_share", ratio(copy_ns, wall_ns)),
            (
                "attribution.step_flag_share",
                ratio(w.p as f64 * self.layer("ring_tuned.step_flag_ns"), wall_ns),
            ),
            (
                "attribution.decorator_share",
                if heals { ratio(envelopes * stack_tax, wall_ns) } else { 0.0 },
            ),
        ];
        let explained = shares.iter().map(|(_, share)| share).sum();
        out.extend(shares.map(|(name, share)| (name, Stat::exact(share))));
        out.insert("attribution.explained_frac", Stat::exact(explained));
    }
}

/// The per-layer set of one workload: half of what is left of `seconds`
/// after the layer probes goes to an untraced child and half to a traced
/// one, so the tracing overhead is measured on the same build in
/// the same minute.
pub fn per_layer(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    layers: &LayersOutput,
) -> Result<WorkloadResult, String> {
    let budget = Duration::from_secs_f64((seconds - LAYERS_SECONDS).max(1.0) / 2.0);
    let untraced = spawn_workload(workload, seed, budget, false)?;
    let traced = spawn_workload(workload, seed, budget, true)?;
    let plain_wall = untraced.report.series.get("bcast_wall_us").cloned().unwrap_or_default();
    let traced_wall = traced.report.series.get("bcast_wall_us").cloned().unwrap_or_default();
    let Folded { mut result, nums, mut series, .. } = fold(workload, vec![untraced, traced]);
    // Derivations read the untraced samples only.
    series.insert("bcast_wall_us".into(), plain_wall.clone());

    let mut values: Values = layers
        .timings
        .iter()
        .map(|t| (t.name, Stat { value: t.value, q1: t.q1, q3: t.q3, n: t.samples }))
        .collect();
    let inputs = LayerInputs {
        workload,
        nums: &nums,
        series: &series,
        timings: &layers.timings,
        wall_us: median(&plain_wall),
    };
    inputs.counters(&mut values);
    inputs.own(&mut values);
    inputs.attribution(&mut values);

    // The driver's own numbers.
    let (tail_label, tail) = tail_or_max(&plain_wall);
    result.tail_label = tail_label;
    let nonlinear: Vec<&str> =
        layers.timings.iter().filter(|t| t.linear == Some(false)).map(|t| t.name).collect();
    if !nonlinear.is_empty() {
        eprintln!(
            "flagged: a doubled batch was not 1.8-2.2x the time for {}",
            nonlinear.join(", ")
        );
    }
    values.extend(
        [
            ("bench.host_cores", crate::host_cores() as f64),
            ("bench.samples", plain_wall.len() as f64),
            ("bench.bcast_wall_tail_us", tail),
            ("bench.trace_overhead_frac", ratio(median(&traced_wall), inputs.wall_us) - 1.0),
            ("bench.failed_frac", ratio(result.failed as f64, result.attempted as f64)),
            ("bench.nonlinear_probes", nonlinear.len() as f64),
        ]
        .map(|(name, value)| (name, Stat::exact(value))),
    );

    for metric in spec::PER_LAYER {
        let stat = values.get(metric.name).copied().unwrap_or(Stat::exact(0.0));
        result.metrics.insert(metric.name, stat);
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Output.

fn print_metric(metric: &Metric, stat: &Stat, note: &str) {
    let spread = if stat.n > 1 {
        format!("  [q1 {:.6} .. q3 {:.6}]", stat.q1, stat.q3)
    } else {
        String::new()
    };
    println!(
        "  {:<44} {:>18.6} {:<6} n={}{spread}{note}",
        metric.name, stat.value, metric.unit, stat.n
    );
}

/// Every metric of `result` by name, with unit and sample count.
pub fn print(result: &WorkloadResult, workload: &Workload, table: &[Metric]) {
    println!(
        "{} (P={}, {} B): {} rank-broadcasts attempted, {} failed",
        result.name, workload.p, workload.nbytes, result.attempted, result.failed
    );
    for metric in table {
        let Some(stat) = result.metrics.get(metric.name) else { continue };
        let note = match metric.name {
            // The paper's unit beside the time: nbytes / 2^20 / time.
            "bcast_wall_us" if stat.value > 0.0 => {
                format!(
                    "  = {:.3} MiB/s",
                    workload.nbytes as f64 / (1u64 << 20) as f64 / (stat.value * 1e-6)
                )
            }
            "bench.bcast_wall_tail_us" => format!("  ({})", result.tail_label),
            _ => String::new(),
        };
        print_metric(metric, stat, &note);
    }
    for guard in &result.guards {
        println!("  GUARD FAILED: {guard}");
    }
}

pub fn result_to_json(result: &WorkloadResult, table: &[Metric]) -> Json {
    let metrics = table.iter().filter_map(|m| {
        let s = result.metrics.get(m.name)?;
        Some((
            m.name,
            Json::obj([
                ("value", Json::Num(s.value)),
                ("unit", Json::Str(m.unit.into())),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
                (
                    "runs",
                    Json::nums(result.runs.get(m.name).map(Vec::as_slice).unwrap_or_default()),
                ),
            ]),
        ))
    });
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("guards", Json::Arr(result.guards.iter().cloned().map(Json::Str).collect())),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The one line a driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics exactly those of `table`.
pub fn contract_line(result: &WorkloadResult, table: &[Metric]) -> String {
    let metrics = table.iter().map(|m| {
        let value = result.metrics.get(m.name).map_or(0.0, |s| s.value);
        (m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(m.unit.into()))]))
    });
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Report;

    fn output(setup_s: f64, envelopes: f64, wall: &[f64]) -> WorkloadOutput {
        let mut report = Report { setup_s, attempted: 10, ..Report::default() };
        report.nums.insert("envelopes_per_bcast".into(), envelopes);
        report.nums.insert("timed_bcasts".into(), wall.len() as f64);
        report.nums.insert("pool_outstanding".into(), 0.0);
        report.series.insert("bcast_wall_us".into(), wall.to_vec());
        WorkloadOutput { report, rss_kib: 2048.0, spans: vec![] }
    }

    #[test]
    fn folding_pools_samples_sums_totals_and_keeps_counts() {
        let w = spec::workload(spec::RING_MSGS).unwrap();
        let folded = fold(w, vec![output(0.2, 51.0, &[1.0, 2.0]), output(0.3, 51.0, &[3.0])]);
        assert!(folded.result.guards.is_empty(), "{:?}", folded.result.guards);
        assert_eq!(folded.nums["envelopes_per_bcast"], 51.0);
        assert_eq!(folded.nums["timed_bcasts"], 3.0);
        assert_eq!(folded.series["bcast_wall_us"], [1.0, 2.0, 3.0]);
        assert_eq!((folded.setup_s, folded.rss_mib), (vec![0.2, 0.3], vec![2.0, 2.0]));
        assert_eq!(folded.wall_medians, [1.5, 3.0]);
        assert_eq!(folded.result.attempted, 20);
    }

    #[test]
    fn children_that_disagree_on_a_count_trip_a_guard() {
        let w = spec::workload(spec::RING_MSGS).unwrap();
        let folded = fold(w, vec![output(0.2, 51.0, &[1.0]), output(0.2, 56.0, &[1.0])]);
        assert_eq!(folded.result.guards.len(), 1);
        assert!(folded.result.guards[0].contains("envelopes_per_bcast"));
    }

    #[test]
    fn unreturned_buffers_fail_fault_free_workloads_only() {
        let leaky = || {
            let mut out = output(0.1, 5.0, &[1.0]);
            out.report.nums.insert("pool_outstanding".into(), 86.0);
            vec![out]
        };
        let clean = fold(spec::workload(spec::HEAL_CLEAN).unwrap(), leaky());
        assert!(clean.result.guards[0].contains("never returned"));
        let lossy = fold(spec::workload(spec::LOSSY_RING).unwrap(), leaky());
        assert!(lossy.result.guards.is_empty());
    }

    #[test]
    fn attribution_is_unit_costs_times_counters_over_the_broadcast_time() {
        let timing = |name, value| Timing {
            name,
            value,
            q1: value,
            q3: value,
            samples: 100,
            linear: Some(true),
        };
        let timings = [
            timing("event_comm.p2p_ns", 100.0),
            timing("pool.copy_gib_s", 1.0),
            timing("ring_tuned.step_flag_ns", 10.0),
            timing("recovery.stack_p2p_ns", 150.0),
        ];
        let nums: BTreeMap<String, f64> = [
            ("envelopes_per_bcast".to_string(), 1000.0),
            ("bytes_copied_per_bcast".to_string(), (1u64 << 30) as f64 / 1e5),
        ]
        .into();
        let series = BTreeMap::new();
        let shares = |name| {
            let workload = spec::workload(name).unwrap();
            let inputs = LayerInputs {
                workload,
                nums: &nums,
                series: &series,
                timings: &timings,
                wall_us: 200.0,
            };
            let mut out = Values::new();
            inputs.attribution(&mut out);
            out
        };
        // 1000 envelopes x 100 ns = 100 us of a 200 us broadcast; 10 us of
        // copying; 1024 ranks x 10 ns of step_flag.
        let plain = shares(spec::RING_MSGS);
        assert_eq!(plain["attribution.event_comm_share"].value, 0.5);
        assert!((plain["attribution.copy_share"].value - 0.05).abs() < 1e-12);
        assert!((plain["attribution.step_flag_share"].value - 0.0512).abs() < 1e-12);
        assert_eq!(plain["attribution.decorator_share"].value, 0.0);
        assert!((plain["attribution.explained_frac"].value - 0.6012).abs() < 1e-12);
        // Healing adds the stack's tax per envelope: 1000 x 50 ns.
        let heal = shares(spec::HEAL_CLEAN);
        assert_eq!(heal["attribution.decorator_share"].value, 0.25);
        assert!(shares(spec::THREAD_PAIR).is_empty(), "no unit costs off the reactor");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_tables_metrics() {
        let mut result =
            WorkloadResult { name: spec::RING_MSGS, attempted: 100, ..WorkloadResult::default() };
        for m in &spec::END_TO_END {
            result.metrics.insert(m.name, Stat::exact(1.25));
        }
        let doc = Json::parse(&contract_line(&result, &spec::END_TO_END)).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(metrics["setup_s"].num("value").unwrap(), 1.25);
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        result.guards.push("tripped".into());
        let doc = Json::parse(&contract_line(&result, &spec::END_TO_END)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
}
