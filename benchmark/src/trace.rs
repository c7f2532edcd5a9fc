//! In-memory spans recorded from the benchmark's own files around the calls
//! into each layer, written out at exit as Chrome trace-event JSON.
//!
//! A span has a name, a start and end on the recording process's monotonic
//! clock, the span that caused it, and the workload it belongs to. A span's
//! *self time* is its duration minus the part its children cover — the
//! number that says where a workload's host time went once the library
//! calls are subtracted. Spans inside the libraries are a later change (the
//! ROADMAP `TraceSink` item); everything here is timed from outside.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Json;

/// One finished span, times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same list; `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled and costs one branch when not, so the
/// untraced run takes the same code path as the traced one.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: RefCell::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A timestamp to pass to [`Tracer::record`] — taken only when tracing,
    /// so an untraced sample loop reads the clock exactly twice.
    pub fn now(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { name: name.into(), start_ns: ns(start), end_ns: ns(end), parent });
        Some(spans.len() - 1)
    }

    /// Open a span whose end is not known yet (a parent of later spans);
    /// [`Tracer::close`] stamps the end.
    pub fn open(&self, name: impl Into<String>, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end = Instant::now().saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.borrow_mut()[id].end_ns = end;
        }
    }

    /// Time `f` under a span named `name`.
    pub fn scope<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: duration minus the time its direct children
/// cover. Children of one span are recorded back to back and never overlap,
/// so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Spans as they travel from a child process to the parent.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(value: &Json) -> Result<Vec<Span>, String> {
    let items = value.as_arr().ok_or("spans: expected a list")?;
    let spans: Vec<Span> = items
        .iter()
        .map(|item| {
            Ok(Span {
                name: item.get("name").and_then(Json::as_str).ok_or("span without a name")?.into(),
                start_ns: item.num("start_ns")? as u64,
                end_ns: item.num("end_ns")? as u64,
                parent: item.get("parent").and_then(Json::as_f64).map(|p| p as usize),
            })
        })
        .collect::<Result<_, String>>()?;
    if spans.iter().any(|s| s.parent.is_some_and(|p| p >= spans.len())) {
        return Err("span names a parent outside the list".into());
    }
    Ok(spans)
}

/// One process's spans in a trace file and the workload they belong to.
#[derive(Debug)]
pub struct TraceGroup {
    pub workload: String,
    pub spans: Vec<Span>,
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, one process lane per recording process, every
/// event carrying its own id, its parent's id, its workload and its self
/// time.
pub fn chrome_trace(groups: &[TraceGroup]) -> Json {
    let mut events = Vec::new();
    for (lane, group) in groups.iter().enumerate() {
        let own = self_times_ns(&group.spans);
        for (id, span) in group.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::Str(span.name.clone())),
                ("cat", Json::Str(group.workload.clone())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num(span.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(lane as f64)),
                ("tid", Json::Num(0.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("workload", Json::Str(group.workload.clone())),
                        ("self_us", Json::Num(own[id] as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([("displayTimeUnit", Json::Str("ms".into())), ("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("workload", 0, 1000, None),
            span("setup", 0, 300, Some(0)),
            span("payload_gen", 10, 110, Some(1)),
            span("warmup", 120, 280, Some(1)),
            span("sample[0]", 300, 900, Some(0)),
            span("bcast", 350, 800, Some(4)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100, 40, 100, 160, 150, 450]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert!(t.now().is_none());
        let id = t.scope("outer", None, |id| id);
        assert!(id.is_none());
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn scopes_nest_and_survive_the_json_round_trip() {
        let t = Tracer::new(true);
        t.scope("workload", None, |w| {
            t.scope("setup", w, |_| std::hint::black_box(0));
            let (a, b) = (t.now().unwrap(), t.now().unwrap());
            t.record("bcast", w, a, b);
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(spans_from_json(&spans_to_json(&spans)).unwrap(), spans);
    }

    #[test]
    fn chrome_trace_carries_parent_workload_and_self_time() {
        let spans = vec![span("workload", 0, 5000, None), span("bcast", 1000, 4000, Some(0))];
        let idle = TraceGroup { workload: "layers".into(), spans: vec![] };
        let doc = chrome_trace(&[idle, TraceGroup { workload: "ring-msgs".into(), spans }]);
        let parsed = Json::parse(&doc.render()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(child.num("ts").unwrap(), 1.0);
        assert_eq!(child.num("dur").unwrap(), 3.0);
        assert_eq!(child.num("pid").unwrap(), 1.0);
        let args = child.get("args").unwrap();
        assert_eq!(args.num("parent").unwrap(), 0.0);
        assert_eq!(args.get("workload").unwrap().as_str(), Some("ring-msgs"));
        assert_eq!(events[0].get("args").unwrap().num("self_us").unwrap(), 2.0);
    }

    #[test]
    fn dangling_parent_is_rejected() {
        let bad = spans_to_json(&[span("a", 0, 1, Some(7))]);
        assert!(spans_from_json(&bad).is_err());
    }
}
