//! Shared latency statistics: nearest-rank percentiles and the
//! p50/p99/max/mean summary every report in the stack quotes.
//!
//! The serve-layer load tester (`cim_bench::loadtest`), the traffic
//! simulator (`cim-traffic`) and the metrics [`Histogram`] all reduce
//! a bag of samples to quantiles. This module owns that math in one
//! place so "p99" means the same thing in every report: the
//! **nearest-rank** percentile ([`nearest_rank`]; exact order statistic,
//! no interpolation), which is deterministic, unit-agnostic, and
//! well-defined down to a single sample.
//!
//! [`Histogram`]: crate::Histogram

use serde::{Deserialize, Serialize};

/// The 1-based nearest rank of quantile `q` among `n > 0` ascending
/// samples: `ceil(q·n)`, clamped to `1..=n` (so `q = 0` is the smallest
/// sample and `q ≥ 1` the largest).
#[must_use]
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in
/// `0..=1`). Empty input yields 0.
///
/// The nearest-rank definition returns an element of the input (never
/// an interpolated midpoint): the [`nearest_rank`]-th smallest sample.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(q, sorted.len()) - 1]
}

/// The four-number latency summary (plus count and mean) shared by
/// load-test and traffic reports. Unit-agnostic: the caller decides
/// whether samples are milliseconds or cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Median ([`percentile`] at 0.50).
    pub p50: f64,
    /// 99th percentile ([`percentile`] at 0.99).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencySummary {
    /// Summarizes `samples` in any order (they are copied and sorted
    /// with [`f64::total_cmp`], so NaN-free inputs are totally ordered
    /// and the result is independent of input order).
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self::of_sorted(&sorted)
    }

    /// Summarizes an already ascending-sorted sample slice without
    /// copying it.
    #[must_use]
    pub fn of_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        LatencySummary {
            count: sorted.len() as u64,
            p50: percentile(sorted, 0.50),
            p99: percentile(sorted, 0.99),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_on_known_distributions() {
        // 1..=100: the q-th percentile is exactly the q-th element.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);

        // 10 samples: p50 is the 5th, p99 the 10th (ceil(9.9) = 10).
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);

        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_is_order_independent_and_pins_headline_numbers() {
        let asc: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut desc = asc.clone();
        desc.reverse();
        let a = LatencySummary::of(&asc);
        let b = LatencySummary::of(&desc);
        assert_eq!(a, b);
        assert_eq!(a.count, 100);
        assert_eq!(a.p50, 50.0);
        assert_eq!(a.p99, 99.0);
        assert_eq!(a.max, 100.0);
        assert!((a.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        assert_eq!(LatencySummary::of(&[]), LatencySummary::default());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = LatencySummary::of(&[3.0, 1.0, 2.0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
