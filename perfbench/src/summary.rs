//! Sample statistics, metric records and the result line.
//!
//! A timing is reported with its median, quartiles and sample count,
//! plus a tail: the highest percentile that still has at least ten
//! samples beyond it ([`tail_percentile`]). Pass walls and throughputs
//! carry their mean over the timed phase on the result line
//! ([`EndToEnd::mean`], [`EndToEnd::rate`]).

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The highest percentile (at most 99) whose nearest-rank sample still
/// has [`TAIL_BEYOND`] samples above it, or `None` when even the median
/// has fewer (under 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_BEYOND {
        return None;
    }
    let p = (100.0 * (n - TAIL_BEYOND) as f64 / n as f64).min(99.0);
    // Round down to 0.01 so the printed label never overstates the tail.
    Some((p * 100.0).floor() / 100.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median, quartiles, tail and count of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the tail rule, if the count allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order). Panics on an empty set: every
    /// workload takes at least one sample of each metric.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail: tail_percentile(sorted.len()).map(|p| (p, nearest_rank(&sorted, p))),
        }
    }

    /// The tail value, falling back to the median when the count is too
    /// small for any percentile to have ten samples beyond it.
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }

    /// `q3 - q1` as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn metric_name_ok(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One end-to-end metric: its samples and the value the result line
/// carries.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What the metric measures on this workload.
    pub meaning: String,
    /// Sample statistics.
    pub summary: Summary,
    /// Which statistic `value` is: `median`, `tail`, `mean` or `rate`.
    pub stat: &'static str,
    /// The reported value.
    pub value: f64,
}

impl EndToEnd {
    fn new(
        name: &'static str,
        unit: &'static str,
        meaning: impl Into<String>,
        samples: &[f64],
        stat: &'static str,
        value: impl FnOnce(&Summary) -> f64,
    ) -> EndToEnd {
        let summary = Summary::of(samples);
        EndToEnd {
            name,
            unit,
            meaning: meaning.into(),
            value: value(&summary),
            stat,
            summary,
        }
    }

    /// A metric reported at its median.
    pub fn median(
        name: &'static str,
        unit: &'static str,
        meaning: impl Into<String>,
        samples: &[f64],
    ) -> EndToEnd {
        EndToEnd::new(name, unit, meaning, samples, "median", |s| s.median)
    }

    /// A metric reported at its tail ([`Summary::tail_or_median`]).
    pub fn tail(
        name: &'static str,
        unit: &'static str,
        meaning: impl Into<String>,
        samples: &[f64],
    ) -> EndToEnd {
        EndToEnd::new(
            name,
            unit,
            meaning,
            samples,
            "tail",
            Summary::tail_or_median,
        )
    }

    /// A duration reported at its mean over the timed phase. The host
    /// switches between speed states that last seconds; a mean weighs
    /// them by the time spent in each, where a median of a few samples
    /// snaps to whichever state held most of them.
    pub fn mean(
        name: &'static str,
        unit: &'static str,
        meaning: impl Into<String>,
        samples: &[f64],
    ) -> EndToEnd {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        EndToEnd::new(name, unit, meaning, samples, "mean", |_| mean)
    }

    /// A throughput whose samples each did the same work, reported as
    /// that work over the mean sample time (the harmonic mean of the
    /// samples), for the reason given at [`EndToEnd::mean`].
    pub fn rate(
        name: &'static str,
        unit: &'static str,
        meaning: impl Into<String>,
        samples: &[f64],
    ) -> EndToEnd {
        let rate = samples.len() as f64 / samples.iter().map(|r| 1.0 / r).sum::<f64>();
        EndToEnd::new(name, unit, meaning, samples, "rate", |_| rate)
    }
}

/// One per-layer metric of a traced run.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

impl Layer {
    /// Builds a layer metric.
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        moves: &'static str,
    ) -> Layer {
        Layer {
            name: name.into(),
            unit,
            value,
            moves,
        }
    }
}

/// Renders one metric value with every digit Rust's shortest round-trip
/// formatting keeps; non-finite values become `null` (and fail the run).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && metrics.iter().all(|(_, _, v)| v.is_finite()),
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(400), Some(97.5));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(50_000), Some(99.0));
        for n in [20usize, 37, 100, 333, 999, 1000, 4321] {
            let p = tail_percentile(n).expect("n >= 20");
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let v = nearest_rank(&sorted, p);
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} p={p} beyond={beyond}");
            // And the rule is the highest such percentile (to 0.01), or p99.
            if p < 99.0 {
                let higher = nearest_rank(&sorted, p + 0.01);
                let beyond_higher = sorted.iter().filter(|&&x| x > higher).count();
                assert!(beyond_higher < TAIL_BEYOND || higher == v, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_quartiles_count_and_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert!((s.median - 500.5).abs() < 1e-9);
        assert!((s.q1 - 250.75).abs() < 1e-9);
        assert!((s.q3 - 750.25).abs() < 1e-9);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(few.tail, None);
        assert_eq!(few.tail_or_median(), 2.0);
    }

    #[test]
    fn mean_and_rate_weigh_every_sample_by_its_time() {
        // Two passes of 1 s and one of 4 s: the mean pass takes 2 s.
        let wall = EndToEnd::mean("wall_s", "s", "", &[1.0, 1.0, 4.0]);
        assert_eq!(
            (wall.value, wall.stat, wall.summary.median),
            (2.0, "mean", 1.0)
        );
        // The same passes as rates of 12 units each: 12 units per 2 s.
        let rate = EndToEnd::rate("r", "1/s", "", &[12.0, 12.0, 3.0]);
        assert!((rate.value - 6.0).abs() < 1e-12, "{}", rate.value);
        assert_eq!(rate.stat, "rate");
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "wall_s",
            "p99_ms",
            "netsim.ns_per_msg.sharded",
            "mst_core.run_s.always-awake",
            "9x",
        ] {
            assert!(metric_name_ok(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "µs",
            "a,b",
            long.as_str(),
        ] {
            assert!(!metric_name_ok(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(12, 0, &[("wall_s".to_string(), "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        let bad = result_line(3, 1, &[("x".to_string(), "s", f64::NAN)]);
        assert!(bad.starts_with("{\"correct\":false"));
        assert!(bad.contains("\"value\":null"));
    }
}
