//! Order statistics for timings: medians, quartiles and percentiles.

/// Sorts a copy of `values` (which must all be finite).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// The median (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads reported here match what an external checker computes from the
/// same numbers. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the clamped ends, as in Python: extrapolation.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The interquartile range as a share of the median (`0` when the median
/// is `0`).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of integer samples:
/// the smallest sample with at least `p`% of all samples at or below it.
/// `None` for no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&ten) - 5.5 / 5.5).abs() < 1e-12);
        let scaled: Vec<f64> = ten.iter().map(|x| x * 1000.0).collect();
        assert!((relative_iqr(&scaled) - relative_iqr(&ten)).abs() < 1e-12);
        assert_eq!(relative_iqr(&[4.0, 4.0, 4.0]), 0.0);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50));
        assert_eq!(percentile(&mut v, 99.0), Some(99));
        assert_eq!(percentile(&mut v, 100.0), Some(100));
        assert_eq!(percentile(&mut [5], 99.0), Some(5));
        assert_eq!(percentile(&mut [], 50.0), None);
    }
}
