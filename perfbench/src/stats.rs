//! Order statistics used by every reported timing.
//!
//! Percentiles are nearest-rank: the `q`-quantile of `n` sorted samples is
//! the sample at rank `ceil(q * n)`. A tail percentile is only reported when
//! at least [`MIN_BEYOND`] samples lie strictly beyond its rank, so a p99
//! needs at least 1,000 samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` (in `[0, 1]`) among `n` samples.
pub fn rank(q: f64, n: usize) -> usize {
    assert!(n > 0, "rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the `q`-quantile's rank.
pub fn beyond(q: f64, n: usize) -> usize {
    n - rank(q, n)
}

/// Nearest-rank `q`-quantile of an already sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(q, sorted.len()) - 1]
}

/// Sort a sample set in place and return the `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// A tail quantile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail_quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() || beyond(q, samples.len()) < MIN_BEYOND {
        return None;
    }
    Some(quantile(samples, q))
}

/// Median of a sample set (nearest rank; `0.0` when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_index() {
        assert_eq!(rank(0.5, 1), 1);
        assert_eq!(rank(0.5, 10), 5);
        assert_eq!(rank(0.99, 100), 99);
        assert_eq!(rank(0.99, 1000), 990);
        assert_eq!(rank(0.99, 1001), 991);
        assert_eq!(rank(0.0, 7), 1);
        assert_eq!(rank(1.0, 7), 7);
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(0.99, 999), 9);
        assert_eq!(beyond(0.99, 1000), 10);
        let mut short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_quantile(&mut short, 0.99), None);
        let mut enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&mut enough, 0.99), Some(989.0));
        // The p50 of a small set is always reportable this way.
        let mut small: Vec<f64> = (0..40).map(f64::from).collect();
        assert!(tail_quantile(&mut small, 0.5).is_some());
        assert_eq!(tail_quantile(&mut [], 0.5), None);
    }

    #[test]
    fn median_of_empty_is_zero() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
