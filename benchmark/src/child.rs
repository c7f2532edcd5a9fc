//! The child side of a run. Every workload runs in a fresh process of this
//! same binary, so its set-up time and peak memory are its own; the child
//! measures, then prints one JSON line that the parent folds into metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::layers::{self, Timing};
use crate::spec::Workload;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Ctx, Report};

/// What the parent asks one child to do.
#[derive(Debug, Clone)]
pub enum Task {
    /// Run `workload`'s timed worlds for about `budget`.
    Workload { workload: &'static Workload, seed: u64, budget: Duration, traced: bool },
    /// Run every layer probe.
    Layers { traced: bool },
}

impl Task {
    pub fn to_args(&self) -> Vec<String> {
        match self {
            Task::Workload { workload, seed, budget, traced } => vec![
                "child".into(),
                "--workload".into(),
                workload.name.into(),
                "--seed".into(),
                seed.to_string(),
                "--budget-ms".into(),
                budget.as_millis().to_string(),
                "--trace".into(),
                u8::from(*traced).to_string(),
            ],
            Task::Layers { traced } => {
                vec![
                    "child".into(),
                    "--layers".into(),
                    "--trace".into(),
                    u8::from(*traced).to_string(),
                ]
            }
        }
    }
}

/// What one workload child measured, as the parent reads it back.
#[derive(Debug, Default)]
pub struct WorkloadOutput {
    pub report: Report,
    pub rss_kib: f64,
    pub spans: Vec<Span>,
}

/// What the layers child measured.
#[derive(Debug, Default)]
pub struct LayersOutput {
    pub timings: Vec<Timing>,
    pub spans: Vec<Span>,
}

/// `VmHWM` of this process in KiB: the most resident memory it ever held.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Run `task` in this process and print its one line of JSON.
pub fn run(task: &Task, started: Instant) {
    let line = match task {
        Task::Workload { workload, seed, budget, traced } => {
            let tracer = Tracer::new(*traced);
            let root_span = tracer.open("workload", None);
            let ctx = Ctx { seed: *seed, budget: *budget, tracer: &tracer, root_span, started };
            let report = workloads::run(workload, &ctx);
            tracer.close(root_span);
            workload_to_json(&WorkloadOutput {
                report,
                rss_kib: peak_rss_kib(),
                spans: tracer.into_spans(),
            })
        }
        Task::Layers { traced } => {
            let tracer = Tracer::new(*traced);
            let timings = layers::run_all(&tracer);
            layers_to_json(&LayersOutput { timings, spans: tracer.into_spans() })
        }
    };
    println!("{}", line.render());
}

fn workload_to_json(out: &WorkloadOutput) -> Json {
    let r = &out.report;
    Json::obj([
        ("setup_s", Json::Num(r.setup_s)),
        ("rss_kib", Json::Num(out.rss_kib)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("guards", Json::Arr(r.guards.iter().cloned().map(Json::Str).collect())),
        ("nums", Json::obj(r.nums.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))),
        ("series", Json::obj(r.series.iter().map(|(k, v)| (k.clone(), Json::nums(v))))),
        ("spans", trace::spans_to_json(&out.spans)),
    ])
}

pub fn workload_from_json(doc: &Json) -> Result<WorkloadOutput, String> {
    let map = |key: &str| {
        doc.get(key).and_then(Json::as_obj).ok_or_else(|| format!("missing object `{key}`"))
    };
    let mut nums = BTreeMap::new();
    for (k, v) in map("nums")? {
        nums.insert(k.clone(), v.as_f64().ok_or_else(|| format!("nums.{k} is not a number"))?);
    }
    let series_doc = doc.get("series").ok_or("missing object `series`")?;
    let mut series = BTreeMap::new();
    for k in map("series")?.keys() {
        series.insert(k.clone(), series_doc.num_list(k)?);
    }
    let guards = doc
        .get("guards")
        .and_then(Json::as_arr)
        .ok_or("missing list `guards`")?
        .iter()
        .map(|g| g.as_str().map(String::from).ok_or("guards holds a non-string"))
        .collect::<Result<_, _>>()?;
    Ok(WorkloadOutput {
        report: Report {
            setup_s: doc.num("setup_s")?,
            attempted: doc.num("attempted")? as u64,
            failed: doc.num("failed")? as u64,
            guards,
            nums,
            series,
        },
        rss_kib: doc.num("rss_kib")?,
        spans: trace::spans_from_json(doc.get("spans").ok_or("missing `spans`")?)?,
    })
}

fn layers_to_json(out: &LayersOutput) -> Json {
    let timings = out.timings.iter().map(|t| {
        Json::obj([
            ("name", Json::Str(t.name.into())),
            ("value", Json::Num(t.value)),
            ("q1", Json::Num(t.q1)),
            ("q3", Json::Num(t.q3)),
            ("samples", Json::Num(t.samples as f64)),
            ("linear", t.linear.map_or(Json::Null, Json::Bool)),
        ])
    });
    Json::obj([
        ("timings", Json::Arr(timings.collect())),
        ("spans", trace::spans_to_json(&out.spans)),
    ])
}

pub fn layers_from_json(doc: &Json) -> Result<LayersOutput, String> {
    let timings = doc
        .get("timings")
        .and_then(Json::as_arr)
        .ok_or("missing list `timings`")?
        .iter()
        .map(|t| {
            let name = t.get("name").and_then(Json::as_str).ok_or("timing without a name")?;
            // Names travel as text; map them back onto the spec's statics.
            let name = crate::spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.name)
                .ok_or_else(|| format!("`{name}` is not a per-layer metric"))?;
            Ok(Timing {
                name,
                value: t.num("value")?,
                q1: t.num("q1")?,
                q3: t.num("q3")?,
                samples: t.num("samples")? as usize,
                linear: match t.get("linear") {
                    Some(Json::Bool(b)) => Some(*b),
                    _ => None,
                },
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(LayersOutput {
        timings,
        spans: trace::spans_from_json(doc.get("spans").ok_or("missing `spans`")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_output_survives_the_pipe() {
        let mut report =
            Report { setup_s: 0.1625, attempted: 31744, failed: 0, ..Report::default() };
        report.guards.push("a \"quoted\" finding".into());
        report.nums.insert("envelopes_per_bcast".into(), 1_043_455.0);
        report.series.insert("bcast_wall_us".into(), vec![112779.38, 113001.5]);
        let spans = vec![Span { name: "workload".into(), start_ns: 0, end_ns: 9, parent: None }];
        let out = WorkloadOutput { report, rss_kib: 52_340.0, spans };
        let back =
            workload_from_json(&Json::parse(&workload_to_json(&out).render()).unwrap()).unwrap();
        assert_eq!(back.report.setup_s, out.report.setup_s);
        assert_eq!(back.report.guards, out.report.guards);
        assert_eq!(back.report.nums, out.report.nums);
        assert_eq!(back.report.series, out.report.series);
        assert_eq!((back.report.attempted, back.report.failed), (31744, 0));
        assert_eq!((back.rss_kib, &back.spans), (out.rss_kib, &out.spans));
    }

    #[test]
    fn layer_timings_survive_the_pipe() {
        let timings = vec![
            Timing {
                name: "event_comm.p2p_ns",
                value: 101.5,
                q1: 99.0,
                q3: 104.25,
                samples: 100,
                linear: Some(true),
            },
            Timing {
                name: "coalesce.envelopes",
                value: 400.0,
                q1: 400.0,
                q3: 400.0,
                samples: 1,
                linear: None,
            },
        ];
        let out = LayersOutput { timings, spans: vec![] };
        let back = layers_from_json(&Json::parse(&layers_to_json(&out).render()).unwrap()).unwrap();
        assert_eq!(back.timings, out.timings);
    }

    #[test]
    fn unknown_layer_names_are_refused() {
        let doc = Json::parse(r#"{"timings":[{"name":"made.up","value":1,"q1":1,"q3":1,"samples":1,"linear":null}],"spans":[]}"#).unwrap();
        assert!(layers_from_json(&doc).unwrap_err().contains("made.up"));
    }

    #[test]
    fn task_arguments_name_everything_the_child_needs() {
        let w = crate::spec::workload("ring-msgs").unwrap();
        let task = Task::Workload {
            workload: w,
            seed: 7,
            budget: Duration::from_millis(2500),
            traced: true,
        };
        assert_eq!(
            task.to_args(),
            [
                "child",
                "--workload",
                "ring-msgs",
                "--seed",
                "7",
                "--budget-ms",
                "2500",
                "--trace",
                "1"
            ]
        );
        assert_eq!(Task::Layers { traced: false }.to_args(), ["child", "--layers", "--trace", "0"]);
    }
}
