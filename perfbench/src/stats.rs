//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 * n)`.
//! A percentile is only worth reporting when enough samples lie beyond
//! it; [`highest_supported_percentile`] picks the highest one that does.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles a run may report, highest first.
pub const PERCENTILE_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. `p` is
/// resolved to a tenth of a percent and the rank computed in integers,
/// so `p99.9` of 10 000 samples is rank 9990 exactly.
pub fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p <= 100).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    s[rank(p, s.len()) - 1]
}

/// Samples strictly beyond percentile `p` among `n` samples.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(p, n)
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at
/// least `min_tail` samples beyond it among `n`, or `None` when even
/// the median does not.
pub fn highest_supported_percentile(n: usize, min_tail: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .find(|&p| samples_beyond(p, n) >= min_tail)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        // Rank of p90 among 100 is 90: exactly ten samples beyond.
        assert_eq!(samples_beyond(90.0, 100), 10);
        assert_eq!(samples_beyond(90.0, 99), 9);
        assert_eq!(
            highest_supported_percentile(100, MIN_TAIL_SAMPLES),
            Some(90.0)
        );
        assert_eq!(
            highest_supported_percentile(99, MIN_TAIL_SAMPLES),
            Some(50.0)
        );
    }

    #[test]
    fn ladder_climbs_with_sample_count() {
        assert_eq!(highest_supported_percentile(0, MIN_TAIL_SAMPLES), None);
        assert_eq!(highest_supported_percentile(19, MIN_TAIL_SAMPLES), None);
        assert_eq!(
            highest_supported_percentile(20, MIN_TAIL_SAMPLES),
            Some(50.0)
        );
        assert_eq!(
            highest_supported_percentile(999, MIN_TAIL_SAMPLES),
            Some(90.0)
        );
        assert_eq!(
            highest_supported_percentile(1000, MIN_TAIL_SAMPLES),
            Some(99.0)
        );
        assert_eq!(
            highest_supported_percentile(10_000, MIN_TAIL_SAMPLES),
            Some(99.9)
        );
    }
}
