//! Order statistics and the result line the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count). Sorts `xs`.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice: the `⌈q·n⌉`-th smallest.
pub fn rank_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `q` quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The percentiles a latency tail may be reported at, highest first.
const TAIL_QUANTILES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, so a single outlier cannot set it; `None` when even
/// the median has fewer than ten above it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// A metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The per-metric median over repetitions that each measured the same
/// metrics.
pub fn medians(reps: &[Values]) -> Values {
    let mut out = Values::new();
    for name in reps.iter().flat_map(|r| r.keys()) {
        if !out.contains_key(name) {
            let mut xs: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
            out.insert(name.clone(), median(&mut xs));
        }
    }
    out
}

/// One run's outcome, printed as the last line of standard output.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Offered tasks over every measured repetition.
    pub attempted: u64,
    /// Offered tasks that were lost or destroyed.
    pub failed: u64,
    /// Metric name → value; the unit comes from `BENCHMARK.json`.
    pub values: Values,
    /// Correctness checks that failed, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Render the binary's result line: every measured metric by name with
    /// its value. `run.py` attaches the units `BENCHMARK.json` declares.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, value)) in self.values.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(metrics, "{sep}\"{name}\": {value:?}").expect("write to String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn medians_are_taken_per_metric() {
        let rep = |a: f64, b: f64| Values::from([("a".to_string(), a), ("b".to_string(), b)]);
        let m = medians(&[rep(1.0, 30.0), rep(3.0, 10.0), rep(2.0, 20.0)]);
        assert_eq!(m, rep(2.0, 20.0));
    }

    #[test]
    fn rank_quantile_uses_the_ceiling_rank() {
        let xs: Vec<u64> = (1..=10).collect();
        assert_eq!(rank_quantile(&xs, 0.5), 5);
        assert_eq!(rank_quantile(&xs, 0.9), 9);
        assert_eq!(rank_quantile(&xs, 0.91), 10);
        assert_eq!(rank_quantile(&xs, 0.0), 1);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [20, 100, 1_000, 10_000, 123_456] {
            let q = tail_quantile(n).expect("enough samples");
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "wall_s",
            "sim.handle.flood_deliver.calls",
            "agile.cell-s",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_lists_every_measured_metric_by_name() {
        let mut o = Outcome {
            attempted: 7,
            failed: 1,
            ..Default::default()
        };
        o.set("b", 2.0);
        o.set("a", 1.5);
        assert_eq!(
            o.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": {\"a\": 1.5, \"b\": 2.0}}"
        );
        o.set("b", f64::NAN);
        assert!(o.to_json().is_err());
        o.set("b", 2.0);
        o.set("a b", 1.0);
        assert!(o.to_json().is_err());
        o.values.remove("a b");
        o.check(false, || "boom".into());
        assert!(o.to_json().unwrap().starts_with("{\"correct\": false"));
    }
}
