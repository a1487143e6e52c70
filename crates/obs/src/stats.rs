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
///
/// Two constructors, one per kind of sample:
///
/// - [`of`](Self::of) takes host-time samples (`f64` milliseconds, as
///   `cim_bench::loadtest` measures them). It sorts a copy, because a
///   float mean depends on summation order and the ascending order is
///   what makes the result independent of input order.
/// - [`of_cycles`](Self::of_cycles) takes integer cycle counts (the
///   traffic simulator's latencies). It selects the order statistics in
///   place in `O(n)` and sums exactly in `u128`. It returns the same
///   bits as `of` on the same samples as `f64` whenever their total is
///   below 2^53 cycles.
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
        let Some(&max) = sorted.last() else {
            return Self::default();
        };
        LatencySummary {
            count: sorted.len() as u64,
            p50: percentile(&sorted, 0.50),
            p99: percentile(&sorted, 0.99),
            max,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// Summarizes integer cycle counts in any order, reordering the
    /// slice: `O(n)` selection instead of a sort.
    ///
    /// p50 and p99 are the [`nearest_rank`] order statistics: one
    /// `select_nth_unstable` places p50, a second one inside the part
    /// above it places p99, and `max` is the largest sample above p99
    /// (p99 itself when none lies above). The mean is the exact `u128`
    /// sum as `f64` over `n`. While the total is below 2^53 cycles every
    /// partial sum of integer samples is exact in `f64` too, so the
    /// result is bit-identical to [`of`](Self::of) on the same samples
    /// as `f64`. Empty input gives the all-zero summary.
    #[must_use]
    pub fn of_cycles(samples: &mut [u64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Self::default();
        }
        let i50 = nearest_rank(0.50, n) - 1;
        let i99 = nearest_rank(0.99, n) - 1;
        let (_, &mut p50, upper) = samples.select_nth_unstable(i50);
        let (p99, above) = if i99 == i50 {
            (p50, upper)
        } else {
            let (_, &mut p99, above) = upper.select_nth_unstable(i99 - i50 - 1);
            (p99, above)
        };
        let max = above.iter().copied().max().unwrap_or(p99);
        let total: u128 = samples.iter().map(|&c| u128::from(c)).sum();
        LatencySummary {
            count: n as u64,
            p50: p50 as f64,
            p99: p99 as f64,
            max: max as f64,
            mean: total as f64 / n as f64,
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

        // The selecting summary finds the same ranks, here from
        // descending input so both selections have to move samples.
        let quantiles = |mut v: Vec<u64>| {
            let s = LatencySummary::of_cycles(&mut v);
            (s.p50, s.p99, s.max)
        };
        assert_eq!(quantiles((1..=100).rev().collect()), (50.0, 99.0, 100.0));
        assert_eq!(quantiles((1..=10).rev().collect()), (5.0, 10.0, 10.0));
        assert_eq!(quantiles(vec![7]), (7.0, 7.0, 7.0));
        assert_eq!(quantiles(vec![]), (0.0, 0.0, 0.0));
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

        for cycles in [
            (1..=100).collect::<Vec<u64>>(),
            (1..=10).collect(),
            vec![7],
            vec![],
        ] {
            let as_f64: Vec<f64> = cycles.iter().map(|&c| c as f64).collect();
            let expected = LatencySummary::of(&as_f64);
            let mut asc = cycles.clone();
            let mut desc: Vec<u64> = cycles.into_iter().rev().collect();
            assert_eq!(LatencySummary::of_cycles(&mut asc), expected);
            assert_eq!(LatencySummary::of_cycles(&mut desc), expected);
        }
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

    fn bits(s: &LatencySummary) -> [u64; 5] {
        [
            s.count,
            s.p50.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
            s.mean.to_bits(),
        ]
    }

    proptest::proptest! {
        /// Selection in place equals the sorting summary bit for bit, in
        /// any input order: few distinct values (ties everywhere) and
        /// wide ones (totals far above 2^32, below 2^53).
        #[test]
        fn of_cycles_is_the_sorting_summary(
            samples in proptest::prop_oneof![
                proptest::collection::vec(0u64..50, 0..300),
                proptest::collection::vec(0u64..1 << 40, 0..300),
            ],
            rotate in 0usize..300,
        ) {
            let as_f64: Vec<f64> = samples.iter().map(|&c| c as f64).collect();
            let expected = bits(&LatencySummary::of(&as_f64));
            let mut drawn = samples.clone();
            proptest::prop_assert_eq!(bits(&LatencySummary::of_cycles(&mut drawn)), expected);
            let mid = rotate.min(samples.len());
            let mut turned = samples;
            turned.reverse();
            turned.rotate_left(mid);
            proptest::prop_assert_eq!(bits(&LatencySummary::of_cycles(&mut turned)), expected);
        }
    }
}
