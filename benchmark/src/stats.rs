//! Order statistics for timing samples: medians, quartiles, the tail
//! percentile a sample count can support, and the run-to-run spread the
//! regression bounds are judged against.

/// Median of `values` (mean of the two middle values for even counts).
/// Empty input reads 0 — callers guard on the sample count they report.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the arithmetic of
/// Python's `statistics.quantiles(values, n=4)`, so a spread computed here
/// is the spread the acceptance check computes. Fewer than two values have
/// no spread: both quartiles read the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The percentiles a report may quote beyond the median, ascending.
const TAIL_PERCENTILES: [(&str, f64); 4] =
    [("p90", 0.90), ("p95", 0.95), ("p99", 0.99), ("p99.9", 0.999)];

/// The highest percentile that still has at least ten samples beyond it,
/// with its value; `None` when even p90 has fewer (under 100 samples), in
/// which case a report quotes the maximum and says so.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let n = values.len();
    // How many samples lie beyond percentile `p`.
    let beyond = |p: f64| ((1.0 - p) * n as f64 + 1e-9).floor() as usize;
    let (label, p) = TAIL_PERCENTILES.iter().rev().find(|(_, p)| beyond(*p) >= 10).copied()?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((label, v[n - 1 - beyond(p)]))
}

/// [`tail`], falling back to the maximum for small samples.
pub fn tail_or_max(values: &[f64]) -> (&'static str, f64) {
    tail(values).unwrap_or(("max", values.iter().copied().fold(0.0, f64::max)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&ramp(100)), Some(("p90", 90.0)));
        assert_eq!(tail(&ramp(199)), Some(("p90", 180.0)));
        assert_eq!(tail(&ramp(200)), Some(("p95", 190.0)));
        assert_eq!(tail(&ramp(1000)), Some(("p99", 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some(("p99.9", 9990.0)));
        assert_eq!(tail_or_max(&ramp(20)), ("max", 20.0));
    }
}
