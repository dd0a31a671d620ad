//! Counters and statistical tallies.
//!
//! The paper reports each metric as a mean over 20 random graphs with a 95%
//! confidence interval; [`Tally`] reproduces that reporting (Student-t based
//! half-width), and [`CounterHandle`] backs the named event counters the
//! protocol actors bump during simulation.

/// Mutable handle to a named simulation counter.
///
/// Obtained through [`crate::Ctx::counter`]; the handle borrows one interned
/// slot of the simulation's [`dgmc_obs::MetricsRegistry`] for the duration
/// of one update, so bumping an existing counter neither hashes twice nor
/// allocates.
#[derive(Debug)]
pub struct CounterHandle<'a> {
    slot: &'a mut u64,
}

impl<'a> CounterHandle<'a> {
    pub(crate) fn from_slot(slot: &'a mut u64) -> Self {
        CounterHandle { slot }
    }

    /// Adds one to the counter.
    pub fn incr(self) {
        *self.slot += 1;
    }

    /// Adds `n` to the counter.
    pub fn add(self, n: u64) {
        *self.slot += n;
    }
}

/// Streaming mean/variance tally (Welford) with a 95% confidence interval.
///
/// # Examples
///
/// ```
/// use dgmc_des::stats::Tally;
/// let mut t = Tally::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     t.record(x);
/// }
/// assert!((t.mean() - 5.0).abs() < 1e-12);
/// assert!(t.ci95_half_width() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval around the mean,
    /// `t_{0.975, n-1} * std_err`.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        t_value_975((self.n - 1) as usize) * self.std_err()
    }

    /// Merges another tally into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

impl Extend<f64> for Tally {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Tally {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut t = Tally::new();
        t.extend(iter);
        t
    }
}

/// A fixed-bucket histogram over `[0, +inf)` with percentile queries.
///
/// Buckets grow geometrically (factor 2 from `first_bucket`), so the
/// histogram covers many orders of magnitude with bounded memory — suited
/// to convergence-time distributions whose tails matter.
///
/// # Examples
///
/// ```
/// use dgmc_des::stats::Histogram;
/// let mut h = Histogram::new(1.0, 16);
/// for x in [0.5, 1.5, 3.0, 3.5, 100.0] {
///     h.record(x);
/// }
/// assert_eq!(h.len(), 5);
/// assert!(h.percentile(0.5) <= h.percentile(0.95));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    first_bucket: f64,
    /// counts[i] covers [first*2^(i-1), first*2^i); counts[0] covers
    /// [0, first).
    counts: Vec<u64>,
    total: u64,
    max_seen: f64,
}

impl Histogram {
    /// Creates a histogram whose first bucket ends at `first_bucket` and
    /// which has `buckets` geometric buckets (values beyond the last bucket
    /// clamp into it).
    ///
    /// # Panics
    ///
    /// Panics if `first_bucket <= 0` or `buckets == 0`.
    pub fn new(first_bucket: f64, buckets: usize) -> Histogram {
        assert!(first_bucket > 0.0, "first bucket must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            first_bucket,
            counts: vec![0; buckets],
            total: 0,
            max_seen: 0.0,
        }
    }

    /// Records one non-negative observation (negatives clamp to zero).
    pub fn record(&mut self, x: f64) {
        let x = x.max(0.0);
        let idx = self.bucket_index(x);
        self.counts[idx] += 1;
        self.total += 1;
        self.max_seen = self.max_seen.max(x);
    }

    /// Index of the bucket covering `x`, comparing against the exact bucket
    /// boundaries `first * 2^i`.
    ///
    /// Doubling an f64 is exact, so the comparisons are too. The previous
    /// `(x / first).log2().floor()` formulation rounded the quotient at
    /// boundary values when `first` is not a power of two (e.g.
    /// `0.6 / 0.3 == 1.9999999999999998`), filing boundary samples one
    /// bucket low.
    fn bucket_index(&self, x: f64) -> usize {
        let last = self.counts.len() - 1;
        if x < self.first_bucket || last == 0 {
            return 0;
        }
        let mut upper = self.first_bucket * 2.0;
        let mut idx = 1;
        while x >= upper && idx < last {
            upper *= 2.0;
            idx += 1;
        }
        idx
    }

    /// Number of observations.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest observation seen.
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 < q <= 1`).
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.total == 0 {
            return 0.0;
        }
        let want = (q * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return if i == 0 {
                    self.first_bucket
                } else {
                    self.first_bucket * 2f64.powi(i as i32)
                };
            }
        }
        self.max_seen
    }

    /// Iterates over `(bucket_upper_bound, count)` for non-empty buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts.iter().enumerate().filter_map(move |(i, &c)| {
            if c == 0 {
                None
            } else {
                let bound = if i == 0 {
                    self.first_bucket
                } else {
                    self.first_bucket * 2f64.powi(i as i32)
                };
                Some((bound, c))
            }
        })
    }
}

/// Two-sided 97.5th percentile of Student's t distribution for `df` degrees
/// of freedom (so that ±t covers 95%).
fn t_value_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let t: Tally = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((t.mean() - mean).abs() < 1e-12);
        assert!((t.variance() - var).abs() < 1e-12);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn empty_and_singleton_tallies_are_safe() {
        let t = Tally::new();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.ci95_half_width(), 0.0);
        let mut s = Tally::new();
        s.record(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let mut small: Tally = (0..5).map(|i| (i % 2) as f64).collect();
        let mut large: Tally = (0..500).map(|i| (i % 2) as f64).collect();
        assert!(small.ci95_half_width() > large.ci95_half_width());
        // keep mutability used
        small.record(0.5);
        large.record(0.5);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..20).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Tally = xs.iter().copied().collect();
        let mut a: Tally = xs[..7].iter().copied().collect();
        let b: Tally = xs[7..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.len(), seq.len());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut t: Tally = [1.0, 2.0].into_iter().collect();
        let before = t.clone();
        t.merge(&Tally::new());
        assert_eq!(t, before);
        let mut e = Tally::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        assert!(t_value_975(1) > t_value_975(5));
        assert!(t_value_975(5) > t_value_975(30));
        assert!(t_value_975(30) > t_value_975(1000));
        assert!((t_value_975(1000) - 1.96).abs() < 1e-9);
        assert!(t_value_975(0).is_infinite());
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new(1.0, 8);
        for x in [0.1, 0.2, 0.9, 1.5, 3.0, 7.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.len(), 7);
        assert_eq!(h.max(), 100.0);
        // p50 falls in the [1,2) bucket -> bound 2.0 (4th of 7 values).
        assert_eq!(h.percentile(0.5), 2.0);
        assert!(h.percentile(1.0) >= h.percentile(0.5));
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets[0], (1.0, 3), "three sub-1 values");
    }

    #[test]
    fn histogram_boundary_values_land_in_the_upper_bucket() {
        // Bucket i covers [first*2^(i-1), first*2^i): a sample exactly on a
        // boundary belongs to the bucket above it. With first = 0.3 the old
        // log2-based indexing returned 1.9999999999999998 for 0.6/0.3 and
        // filed the sample one bucket low.
        for first in [0.3, 0.7, 1.0, 2.5] {
            let buckets = 10;
            let mut h = Histogram::new(first, buckets);
            let mut boundary = first;
            for i in 1..buckets {
                h.record(boundary); // == first * 2^(i-1), exact
                let counts: Vec<_> = h.buckets().collect();
                assert_eq!(
                    counts.last().unwrap(),
                    &(first * 2f64.powi(i as i32), 1),
                    "boundary {boundary} (first {first}) misbucketed"
                );
                boundary *= 2.0;
            }
            // Just below each boundary stays in the lower bucket.
            let mut h = Histogram::new(first, buckets);
            let below = first * (1.0 - f64::EPSILON);
            h.record(below);
            assert_eq!(h.buckets().next().unwrap(), (first, 1));
        }
    }

    #[test]
    fn histogram_regression_first_point_three() {
        let mut h = Histogram::new(0.3, 8);
        h.record(0.6);
        // 0.6 ∈ [0.6, 1.2) -> the bucket with upper bound 1.2.
        assert_eq!(h.buckets().next().unwrap(), (0.3 * 4.0, 1));
    }

    #[test]
    fn histogram_single_bucket_takes_everything() {
        let mut h = Histogram::new(1.0, 1);
        h.record(0.5);
        h.record(123.0);
        assert_eq!(h.len(), 2);
        assert_eq!(h.buckets().next().unwrap(), (1.0, 2));
    }

    #[test]
    fn histogram_clamps_extremes() {
        let mut h = Histogram::new(1.0, 4);
        h.record(-5.0); // clamps to 0
        h.record(1e12); // clamps to last bucket
        assert_eq!(h.len(), 2);
        assert_eq!(h.percentile(0.25), 1.0);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new(2.0, 4);
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        Histogram::new(1.0, 2).percentile(0.0);
    }

    #[test]
    fn ci95_uses_the_t_table() {
        let t: Tally = (0..19).map(|i| i as f64).collect();
        // 20 graphs per size in the paper -> df=19 uses the 2.093 entry.
        assert!((t.ci95_half_width() / t.std_err() - 2.101).abs() < 1e-9);
    }
}
