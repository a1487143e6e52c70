//! Order statistics used by every reduction in the benchmark, over the
//! stack's own nearest-rank `percentile`: all of them return an observed
//! sample, never an interpolated value, so a reported number is always one
//! the run measured.

use cim_mlc::bench::stats::percentile;
pub use cim_mlc::traffic::SplitMix64;

/// Sorts ascending. Samples are finite by construction; a NaN would be a bug
/// in the harness, so it panics rather than silently mis-sorting.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The sample at quantile `q` in `0.0..=1.0`: the `ceil(q * n)`-th smallest
/// (the first for `q` = 0). Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    percentile(&sorted(samples), q)
}

/// The estimator for every host time the benchmark reports: contention and
/// slow machine modes only ever add time, so the lower quartile repeats far
/// better between runs than the median does (see README, "Machine modes").
pub fn lower_quartile(samples: &[f64]) -> f64 {
    quantile(samples, 0.25)
}

/// The median, taking the lower of the two middle samples for an even count.
pub fn lower_median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentiles a tail may be reported at, ascending, each with the share of
/// samples beyond it in parts per thousand (kept as an integer so that
/// "at least ten beyond" is decided exactly).
const TAIL_PERCENTILES: [(f64, u64); 6] = [
    (50.0, 500),
    (75.0, 250),
    (90.0, 100),
    (95.0, 50),
    (99.0, 10),
    (99.9, 1),
];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten samples
/// beyond it, with the sample at that percentile: `(percentile, value)`.
/// With fewer than 20 samples not even the median qualifies and the median is
/// returned anyway, so the caller always has a number to print next to the
/// sample count.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as u64;
    let pct = TAIL_PERCENTILES
        .iter()
        .filter(|&&(_, beyond)| n * beyond >= 10 * 1000)
        .map(|&(pct, _)| pct)
        .next_back()
        .unwrap_or(TAIL_PERCENTILES[0].0);
    (pct, quantile(samples, pct / 100.0))
}

/// Geometric mean of positive samples (0 for an empty slice).
pub fn geometric_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// A draw in `0..n` (`n` > 0) from the stack's SplitMix64, which every
/// workload seeds from `--seed`. The modulo bias is irrelevant at the sizes
/// shuffled here (a few hundred cases).
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_quartile_is_an_observed_sample_rounding_down() {
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0); // the ceil(1.0) = 1st
        assert_eq!(lower_quartile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 2.0); // the ceil(1.25) = 2nd
        assert_eq!(
            lower_quartile(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            3.0
        );
        assert_eq!(lower_quartile(&[7.5]), 7.5);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn lower_median_takes_the_lower_middle_of_an_even_count() {
        assert_eq!(lower_median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(lower_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(lower_median(&[10.0, 20.0]), 10.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 10 / (1 - p) samples are needed: 20 for p50, 40 for p75, 100 for
        // p90, 200 for p95, 1000 for p99, 10000 for p99.9.
        assert_eq!(tail(&ramp(19)).0, 50.0);
        assert_eq!(tail(&ramp(20)).0, 50.0);
        assert_eq!(tail(&ramp(99)).0, 75.0);
        assert_eq!(tail(&ramp(100)).0, 90.0);
        assert_eq!(tail(&ramp(128)).0, 90.0);
        assert_eq!(tail(&ramp(999)).0, 95.0);
        assert_eq!(tail(&ramp(1000)).0, 99.0);
        assert_eq!(tail(&ramp(10_000)).0, 99.9);
        // The value is the sample at that rank: of 1000 samples p99 is the
        // 990th, with 10 beyond it.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geometric_mean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_repeats_for_a_seed_and_is_a_permutation() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut v: Vec<u32> = (0..50).collect();
            shuffle(&mut rng, &mut v);
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut v = draw(7);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<u32>>());
    }
}
