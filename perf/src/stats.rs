//! Order statistics used by the report and by `compare`.

/// The `p`-quantile (`0 <= p <= 1`) of an ascending slice, by linear
/// interpolation between closest ranks. Empty input yields NaN.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a copy of `values` ascending (NaNs are a bug upstream).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// How many of `n` samples lie beyond the `p`-quantile. The reporting rule
/// of the metrics guide: quote a percentile only when this is ten or more.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The nudge keeps 100 x (1 - 0.9) = 9.999... from flooring to 9.
    (n as f64 * (1.0 - p) + 1e-9).floor() as usize
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // `delta` may be negative or above 4 at the clamped ends: the
        // reference implementation extrapolates there, and so do we.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance rule compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!((percentile(&[10.0, 20.0], 0.5) - 15.0).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 999 samples leaves 9 beyond it; of 1000, exactly ten.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(2000, 0.99), 20);
        // p90 needs 100 samples, the median 20.
        assert_eq!(samples_beyond(99, 0.90), 9);
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(19, 0.5), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0, 7.0, 7.0]).unwrap(), 0.0);
    }
}
