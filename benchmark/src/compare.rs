//! `compare A.json B.json`: the A/B table every later performance change
//! is judged with, and the rule `selfcheck` applies to two runs of one build.
//!
//! One row per workload × end-to-end metric: both medians with their
//! quartiles, the ratio B/A (A is the base), the metric's bound, and a
//! verdict. A median that moved by less than the bound is `flat`; one that
//! worsened by more is `worse`; one that improved by more than the bound
//! and by more than A's own quartile distance is `better`. When either
//! side's quartile distance is wider than the bound and the two
//! interquartile ranges interleave, the data cannot tell and the row is
//! `unresolved` — never `flat`.

use crate::json::Json;
use crate::report::Stat;
use crate::spec::{self, Better, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Flat,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Flat => "flat",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a`; negative is better.
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(metric: &Metric, a: &Stat, b: &Stat) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let spread = |s: &Stat| if s.value != 0.0 { (s.q3 - s.q1) / s.value.abs() } else { 0.0 };
    let noisy = spread(a).max(spread(b)) > bound;
    let interleave = a.q1 <= b.q3 && b.q1 <= a.q3;
    let worse_by = worsening(metric, a.value, b.value);
    if noisy && interleave {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound.max(spread(a)) {
        Verdict::Better
    } else {
        Verdict::Flat
    }
}

/// Whether two medians of one build differ by more than the metric's bound
/// in either direction — `selfcheck`'s failure rule.
pub fn disagrees(row: &Row) -> bool {
    worsening(row.metric, row.a.value, row.b.value).abs() > row.metric.bound.unwrap_or(0.0)
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static Metric,
    pub a: Stat,
    pub b: Stat,
    pub verdict: Verdict,
}

/// One side's observations of a metric: every ledger's `runs` — one value
/// per measuring process — so the quartiles are run-to-run quartiles.
fn stat_of(side: &[Json], workload: &str, metric: &str) -> Option<Stat> {
    let mut observations = Vec::new();
    for doc in side {
        let m =
            doc.get("workloads")?.get(workload)?.get("end_to_end")?.get("metrics")?.get(metric)?;
        observations.extend(m.num_list("runs").ok()?);
    }
    (!observations.is_empty()).then(|| Stat::of(&observations))
}

/// Every workload × end-to-end metric present in both sides, in table
/// order; a side is one ledger or several of the same build. A pairing
/// missing from either side is skipped, not guessed.
pub fn rows(a: &[Json], b: &[Json]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            if let (Some(sa), Some(sb)) =
                (stat_of(a, workload.name, metric.name), stat_of(b, workload.name, metric.name))
            {
                rows.push(Row {
                    workload: workload.name.into(),
                    metric,
                    a: sa,
                    b: sb,
                    verdict: judge(metric, &sa, &sb),
                });
            }
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<12} {:<31} {:>16} {:>35} {:>16} {:>35} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1 .. q3]",
        "B median",
        "B [q1 .. q3]",
        "B/A",
        "bound"
    );
    for r in rows {
        let iqr = |s: &Stat| format!("[{:.4} .. {:.4}]", s.q1, s.q3);
        println!(
            "{:<12} {:<31} {:>16.4} {:>35} {:>16.4} {:>35} {:>8.4} {:>5.1}%  {}",
            r.workload,
            format!("{} ({})", r.metric.name, r.metric.unit),
            r.a.value,
            iqr(&r.a),
            r.b.value,
            iqr(&r.b),
            r.b.value / r.a.value,
            r.metric.bound.unwrap_or(0.0) * 100.0,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(value: f64, q1: f64, q3: f64) -> Stat {
        Stat { value, q1, q3, n: 100 }
    }

    /// A timing with a 10 % bound, whatever the real table says today.
    fn wall() -> &'static Metric {
        const WALL: Metric = Metric {
            name: "wall",
            unit: "us",
            better: Better::Lower,
            bound: Some(0.10),
            about: "",
        };
        &WALL
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = stat(100.0, 99.0, 101.0);
        assert_eq!(judge(wall(), &base, &stat(104.0, 103.0, 105.0)), Verdict::Flat);
        assert_eq!(judge(wall(), &base, &stat(115.0, 114.0, 116.0)), Verdict::Worse);
        assert_eq!(judge(wall(), &base, &stat(80.0, 79.0, 81.0)), Verdict::Better);
        // 8% better is inside the 10% bound: not a claimable gain.
        assert_eq!(judge(wall(), &base, &stat(92.0, 91.0, 93.0)), Verdict::Flat);
    }

    #[test]
    fn wide_interleaving_runs_are_unresolved_not_flat() {
        let a = stat(100.0, 90.0, 112.0);
        assert_eq!(judge(wall(), &a, &stat(103.0, 95.0, 115.0)), Verdict::Unresolved);
        // Wide but disjoint: every quartile of B beats every quartile of A.
        assert_eq!(judge(wall(), &a, &stat(60.0, 55.0, 70.0)), Verdict::Better);
    }

    #[test]
    fn counts_flag_any_real_change() {
        let envelopes = spec::end_to_end("envelopes_per_bcast").unwrap();
        let a = Stat::exact(2_091_007.0);
        assert_eq!(judge(envelopes, &a, &a), Verdict::Flat);
        assert_eq!(judge(envelopes, &a, &Stat::exact(1_060_000.0)), Verdict::Better);
        assert_eq!(judge(envelopes, &a, &Stat::exact(2_100_000.0)), Verdict::Worse);
    }

    #[test]
    fn rows_pair_up_what_both_ledgers_hold() {
        let bound = spec::end_to_end("bcast_wall_us").unwrap().bound.unwrap();
        let ledger = |wall: f64| {
            let metric = Json::obj([("runs", Json::nums(&[wall * 0.99, wall, wall * 1.01]))]);
            let e2e = Json::obj([("metrics", Json::obj([("bcast_wall_us", metric)]))]);
            Json::obj([("workloads", Json::obj([("ring-msgs", Json::obj([("end_to_end", e2e)]))]))])
        };
        let rows = rows(&[ledger(100.0), ledger(101.0)], &[ledger(100.5 * (1.05 + bound))]);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].metric.name),
            ("ring-msgs", "bcast_wall_us")
        );
        assert_eq!((rows[0].a.n, rows[0].b.n), (6, 3));
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!(disagrees(&rows[0]));
        assert!(!disagrees(&super::rows(&[ledger(100.0)], &[ledger(95.0)])[0]));
    }
}
