//! The broadcast ledger: the repository's benchmark.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!               [--json OUT] [--trace-out OUT]
//! benchmark compare A.json[,A2.json...] B.json[,B2.json...]
//! benchmark selfcheck [--seed S] [--seconds T]
//! benchmark list
//! benchmark manifest
//! ```
//!
//! `run` measures every workload (or the one named), each in fresh child
//! processes of this binary, checks correctness, and prints every metric by
//! name with unit and sample count. `--trace 0` (the default) reports the
//! end-to-end metrics; `--trace 1` repeats the run with spans recorded and
//! reports the per-layer metrics and the attribution. With `--workload` the
//! last line of standard output is the one JSON object a driver reads.
//! See `benchmark/README.md`.

mod child;
mod compare;
mod inputs;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use report::WorkloadResult;
use spec::{Metric, Workload};
use trace::TraceGroup;

/// Cores the measuring host offers; stated with every result that depends
/// on threads, and the reason `thread-pair` is refused on a one-core host.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}` (known: {})", known.join(" ")));
            }
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.get("--seed") else { return Ok(inputs::DEFAULT_SEED) };
        let parsed = match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        parsed.map_err(|_| format!("--seed `{text}` is not a decimal or 0x-hex u64"))
    }

    fn seconds(&self) -> Result<f64, String> {
        let Some(text) = self.get("--seconds") else { return Ok(DEFAULT_SECONDS) };
        match text.parse::<f64>() {
            Ok(s) if s > 0.0 && s <= 60.0 => Ok(s),
            _ => Err(format!("--seconds `{text}` is not a number in (0, 60]")),
        }
    }

    fn traced(&self) -> Result<bool, String> {
        match self.get("--trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => {
                Err(format!("--trace takes 0 or 1, not `{other}` (the file goes to --trace-out)"))
            }
        }
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        let Some(name) = self.get("--workload") else { return Ok(None) };
        spec::workload(name).map(Some).ok_or_else(|| {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", names.join(", "))
        })
    }
}

/// Seconds one workload measures for when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "child" => cmd_child(rest, started),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "selfcheck" => cmd_selfcheck(rest),
        Some((cmd, [])) if cmd == "list" => {
            list();
            Ok(true)
        }
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => {
            Err("usage: benchmark run|compare|selfcheck|manifest ... (see benchmark/README.md)"
                .into())
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

fn cmd_child(args: &[String], started: Instant) -> Result<bool, String> {
    let task = if args.first().is_some_and(|a| a == "--layers") {
        let flags = Flags::parse(&args[1..], &["--trace"])?;
        child::Task::Layers { traced: flags.traced()? }
    } else {
        let flags = Flags::parse(args, &["--workload", "--seed", "--budget-ms", "--trace"])?;
        let budget = flags
            .get("--budget-ms")
            .and_then(|ms| ms.parse().ok())
            .ok_or("child needs --budget-ms")?;
        child::Task::Workload {
            workload: flags.workload()?.ok_or("child needs --workload")?,
            seed: flags.seed()?,
            budget: Duration::from_millis(budget),
            traced: flags.traced()?,
        }
    };
    child::run(&task, started);
    Ok(true)
}

/// The workloads a run covers. `thread-pair` needs two cores: on a
/// one-core host it is skipped with a marker, never reported, and naming
/// it explicitly is an error.
fn selected(only: Option<&'static Workload>) -> Result<Vec<&'static Workload>, String> {
    let cores = host_cores();
    match only {
        Some(w) if w.name == spec::THREAD_PAIR && cores < 2 => {
            Err(format!("{} skipped: host has {cores} core", w.name))
        }
        Some(w) => Ok(vec![w]),
        None => Ok(spec::WORKLOADS
            .iter()
            .filter(|w| {
                let skip = w.name == spec::THREAD_PAIR && cores < 2;
                if skip {
                    println!("{} skipped: host has {cores} core", w.name);
                }
                !skip
            })
            .collect()),
    }
}

/// One pass over `workloads`: the end-to-end set, or with `traced` the
/// per-layer set (the layer probes run once for the whole pass, and their
/// spans join the pass's trace).
fn pass(
    workloads: &[&'static Workload],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Vec<WorkloadResult>, Vec<TraceGroup>), String> {
    let table: &[Metric] = if traced { spec::PER_LAYER } else { &spec::END_TO_END };
    let layers = if traced { Some(report::spawn_layers(true)?) } else { None };
    let (mut results, mut trace) = (Vec::new(), Vec::new());
    for &workload in workloads {
        let mut result = match &layers {
            Some(layers) => report::per_layer(workload, seed, seconds, layers)?,
            None => report::end_to_end(workload, seed, seconds)?,
        };
        report::print(&result, workload, table);
        trace.append(&mut result.trace);
        results.push(result);
    }
    if let Some(layers) = layers {
        trace.push(TraceGroup { workload: "layers".into(), spans: layers.spans });
    }
    Ok((results, trace))
}

fn ledger(
    seed: u64,
    seconds: f64,
    end_to_end: &[WorkloadResult],
    per_layer: &[WorkloadResult],
) -> Json {
    let mut workloads = std::collections::BTreeMap::new();
    for (key, results, table) in [
        ("end_to_end", end_to_end, &spec::END_TO_END[..]),
        ("per_layer", per_layer, spec::PER_LAYER),
    ] {
        for r in results {
            let entry = workloads.entry(r.name).or_insert_with(Vec::new);
            entry.push((key, report::result_to_json(r, table)));
        }
    }
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("host_cores", Json::Num(host_cores() as f64)),
        (
            "workloads",
            Json::obj(workloads.into_iter().map(|(name, parts)| (name, Json::obj(parts)))),
        ),
    ])
}

fn write_file(path: &str, text: String) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--json", "--trace-out"],
    )?;
    let (seed, seconds, traced) = (flags.seed()?, flags.seconds()?, flags.traced()?);
    let only = flags.workload()?;
    let workloads = selected(only)?;
    println!("host cores: {}   seed: {seed:#x}   seconds per workload: {seconds}", host_cores());

    // A driver names one workload and wants one set; a person running the
    // whole ledger with tracing wants the end-to-end set first and the
    // traced repeat after it.
    let end_to_end = if traced && only.is_some() {
        Vec::new()
    } else {
        pass(&workloads, seed, seconds, false)?.0
    };
    let (per_layer, trace) =
        if traced { pass(&workloads, seed, seconds, true)? } else { (Vec::new(), Vec::new()) };

    if let Some(path) = flags.get("--json") {
        write_file(path, ledger(seed, seconds, &end_to_end, &per_layer).pretty())?;
    }
    if let Some(path) = flags.get("--trace-out") {
        write_file(path, trace::chrome_trace(&trace).render())?;
    }
    let correct = end_to_end.iter().chain(&per_layer).all(WorkloadResult::correct);
    if only.is_some() {
        let (result, table): (_, &[Metric]) = if traced {
            (&per_layer[0], spec::PER_LAYER)
        } else {
            (&end_to_end[0], &spec::END_TO_END)
        };
        println!("{}", report::contract_line(result, table));
    }
    Ok(correct)
}

fn read_side(arg: &str) -> Result<Vec<Json>, String> {
    arg.split(',')
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]".into());
    };
    let rows = compare::rows(&read_side(a)?, &read_side(b)?);
    if rows.is_empty() {
        return Err("the two sides share no workload x end-to-end metric".into());
    }
    compare::print(&rows);
    Ok(true)
}

fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds"])?;
    let (seed, seconds) = (flags.seed()?, flags.seconds()?);
    let workloads = selected(None)?;
    println!(
        "host cores: {}   seed: {seed:#x}   two runs of {seconds} s per workload",
        host_cores()
    );
    let mut sides = Vec::new();
    let mut correct = true;
    for run in ["A", "B"] {
        println!("--- run {run} ---");
        let (results, _) = pass(&workloads, seed, seconds, false)?;
        correct &= results.iter().all(WorkloadResult::correct);
        sides.push([ledger(seed, seconds, &results, &[])]);
    }
    let rows = compare::rows(&sides[0], &sides[1]);
    compare::print(&rows);
    let apart: Vec<String> = rows
        .iter()
        .filter(|r| compare::disagrees(r))
        .map(|r| format!("{} {}", r.workload, r.metric.name))
        .collect();
    if apart.is_empty() {
        println!("selfcheck: two runs of one build agree within every bound ({} rows)", rows.len());
    } else {
        println!(
            "selfcheck: two runs of one build disagree beyond the bound on: {}",
            apart.join("; ")
        );
    }
    Ok(correct && apart.is_empty())
}

/// Every workload and metric by name with the reason it exists.
fn list() {
    for w in &spec::WORKLOADS {
        println!("workload    {:<44} {}", w.name, w.why);
    }
    for (kind, table) in [("end-to-end", &spec::END_TO_END[..]), ("per-layer", spec::PER_LAYER)] {
        for m in table {
            let bound = m.bound.map_or(String::new(), |b| format!(" (bound {:.1}%)", b * 100.0));
            println!(
                "{kind:<11} {:<44} [{}, {} is better{bound}] {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.about
            );
        }
    }
}

/// `BENCHMARK.json`, written from the tables in [`spec`].
fn manifest() -> String {
    let text = |s: &str| Json::Str(s.into());
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ];
        fields.extend(m.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| text(s)).collect())),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(spec::END_TO_END.iter().map(metric).collect())),
        ("per_layer", Json::Arr(spec::PER_LAYER.iter().map(metric).collect())),
    ])
    .pretty()
}
