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
    fn ci95_uses_the_t_table() {
        let t: Tally = (0..19).map(|i| i as f64).collect();
        // 20 graphs per size in the paper -> df=19 uses the 2.093 entry.
        assert!((t.ci95_half_width() / t.std_err() - 2.101).abs() < 1e-9);
    }
}
