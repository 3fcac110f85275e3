//! Exact-sample statistics, metric naming and the result line.
//!
//! Every percentile here comes from the sorted samples themselves
//! (nearest rank), never from a bucketed histogram, and every timing
//! carries its sample count.

use std::fmt::Write as _;

/// Exact samples of one timing or ratio.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The nearest-rank `p`-th percentile (`0 < p ≤ 100`): the smallest
    /// sample with at least `p`% of the samples at or below it.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of no samples");
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        self.values[rank(p, self.values.len()) - 1]
    }

    /// The median.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// How many samples lie strictly beyond the `p`-th percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        self.values.len() - rank(p, self.values.len())
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Human-readable provenance: sample count, percentile, base.
    note: String,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Metrics printed for people but kept out of the result line.
    notes_only: Vec<Metric>,
}

impl Report {
    /// Adds a metric that goes into the result line.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name or unit.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        let name = name.into();
        self.check(&name, unit);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Adds a metric that is printed but not part of the result line.
    pub fn add_note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        let name = name.into();
        self.check(&name, unit);
        self.notes_only.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    fn check(&self, name: &str, unit: &str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(
            !self
                .metrics
                .iter()
                .chain(&self.notes_only)
                .any(|m| m.name == name),
            "metric {name} reported twice"
        );
    }

    /// Whether every result-line value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// One aligned line per metric, for people.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.notes_only) {
            let _ = writeln!(
                out,
                "{:<32} {:>16} {:<8} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its full-precision value and unit.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn format_value(value: f64) -> String {
    if value != 0.0 && (value.abs() >= 1e6 || value.abs() < 1e-3) {
        format!("{value:.4e}")
    } else {
        format!("{value:.4}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (never valid JSON) render as `null`.
pub fn json_number(value: f64) -> String {
    if !value.is_finite() {
        return "null".into();
    }
    // `{:?}` is the shortest text that reads back as the same f64, e.g.
    // `1e-7` or `3.0`; JSON accepts both forms.
    format!("{value:?}")
}

/// Escapes a string for a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_are_nearest_rank_on_sorted_samples() {
        // 1..=100 shuffled: the p-th percentile is exactly p.
        let mut s = samples((1..=100).rev().map(f64::from));
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.1), 1.0);
        let mut odd = samples([5.0, 1.0, 3.0]);
        assert_eq!(odd.median(), 3.0);
        let mut one = samples([7.5]);
        assert_eq!(one.percentile(99.0), 7.5);
        // Adding after a query re-sorts.
        odd.push(0.5);
        assert_eq!(odd.percentile(25.0), 0.5);
    }

    #[test]
    fn tail_support_counts_the_samples_beyond_the_rank() {
        // p99 of 1000 samples is rank 990: ten samples lie beyond it.
        let thousand = samples((0..1000).map(f64::from));
        assert_eq!(thousand.beyond(99.0), TAIL_SUPPORT);
        assert_eq!(samples((0..999).map(f64::from)).beyond(99.0), 9);
        // The big-grid tail: p75 needs 40 samples.
        assert_eq!(samples((0..40).map(f64::from)).beyond(75.0), 10);
        assert_eq!(samples((0..39).map(f64::from)).beyond(75.0), 9);
        assert_eq!(samples([1.0]).beyond(50.0), 0);
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for good in [
            "latency_p50_ms",
            "spec.parse_us",
            "fleet.overhead-p99",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "has space",
            "slash/no",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "Gcell/s", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "ms!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.add("latency_p50_ms", 1.25, "ms", "n=3".into());
        report.add("setup_s", 0.5, "s", "n=5".into());
        report.add_note("failed_ratio", 0.0, "ratio", String::new());
        assert_eq!(
            report.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(report.human().contains("failed_ratio"));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metrics_are_rejected() {
        let mut report = Report::default();
        report.add("setup_s", 1.0, "s", String::new());
        report.add("setup_s", 2.0, "s", String::new());
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
