//! Order statistics, the tail-percentile rule and metric bookkeeping.

use std::time::Duration;

/// Nearest-rank quantile of unsorted samples (`q` in `0..=1`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Durations in milliseconds.
pub fn ms(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Percentiles a tail metric may be named after.
const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile on the ladder that has at least ten of `n`
/// samples beyond it, or `None` when even the median has not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Name of the percentile, as used in metric names (`p99`, `p99.9`).
pub fn percentile_label(p: f64) -> String {
    format!("p{p}")
}

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Which clock a figure is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Time this process spent (wall clock of the host).
    Host,
    /// Time the modelled XCZU3EG fabric would spend, from the cycle model.
    Device,
    /// Not a time: a count, a ratio or a label.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Device => "device",
            Clock::None => "-",
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// An ordered set of metrics with unique, checked names.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.push(m.name, m.value, m.unit, m.clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(percentile_label(99.9), "p99.9");
        assert_eq!(percentile_label(90.0), "p90");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_name_charset() {
        for good in [
            "setup_s",
            "finn.L0.host_ms",
            "p90_ms",
            "finn.host_ms_per_frame.b4",
            "9x",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "lat%", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        for good in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seventeen-letters", "ms:"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
