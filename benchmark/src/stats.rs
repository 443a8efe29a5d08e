//! Order statistics for the benchmark's reported numbers.
//!
//! Every timing the benchmark prints is a median over identical
//! repetitions; a tail percentile is reported only when at least
//! [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `p` in `(0, 1]`: the smallest sample with at
/// least `p` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub((p * n as f64).ceil() as usize)
}

/// The highest of `candidates` that still has [`MIN_TAIL`] samples beyond
/// it among `n`, or `None` if even the lowest does not.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && samples_beyond(n, p) >= MIN_TAIL)
        .max_by(f64::total_cmp)
}

/// First quartile, median, third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)` — the rule the driver
/// applies to ten runs, so `aa` reports the same spread it will see.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // position i·(n+1)/4 on a 1-based scale, clamped to the sample range
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Interquartile range as a share of the median (the driver's spread).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=144).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 72.0);
        assert_eq!(percentile(&v, 0.9), 130.0);
        assert_eq!(percentile(&v, 1.0), 144.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 144 jobs: 14 beyond p90, 7 beyond p95
        assert_eq!(samples_beyond(144, 0.90), 14);
        assert_eq!(samples_beyond(144, 0.95), 7);
        assert_eq!(
            highest_supported_percentile(144, &[0.90, 0.95, 0.99]),
            Some(0.90)
        );
        // 16 jobs support no tail at all
        assert_eq!(highest_supported_percentile(16, &[0.90, 0.95]), None);
        assert_eq!(highest_supported_percentile(0, &[0.90]), None);
        // 1000 jobs: exactly 10 beyond p99
        assert_eq!(
            highest_supported_percentile(1000, &[0.90, 0.99]),
            Some(0.99)
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 5.5).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 8.25).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!(q, [1.5, 4.0, 12.0]);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }
}
