use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, in nanosecond ticks since the simulation epoch.
///
/// # Examples
///
/// ```
/// use dgmc_des::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::micros(10);
/// assert_eq!(t - SimTime::ZERO, SimDuration::micros(10));
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Raw nanosecond tick count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Constructs an instant from raw nanosecond ticks.
    pub fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// The instant as fractional microseconds (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "time went backwards");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time, in nanosecond ticks.
///
/// # Examples
///
/// ```
/// use dgmc_des::SimDuration;
/// assert_eq!(SimDuration::micros(2) * 3, SimDuration::micros(6));
/// assert_eq!(SimDuration::millis(1).as_nanos(), 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a span from nanoseconds.
    pub fn nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Constructs a span from microseconds.
    pub fn micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Constructs a span from milliseconds.
    pub fn millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Raw nanosecond tick count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as fractional microseconds (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns `true` if the span is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        assert!(!other.is_zero(), "cannot divide by a zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::nanos(1).as_nanos(), 1);
        assert_eq!(SimDuration::micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::millis(1).as_nanos(), 1_000_000);
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::micros(7);
        assert_eq!(t1 - t0, SimDuration::micros(7));
        let mut t = t1;
        t += SimDuration::micros(3);
        assert_eq!(t.as_nanos(), 10_000);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::micros(4) + SimDuration::micros(6);
        assert_eq!(d, SimDuration::micros(10));
        assert_eq!(d - SimDuration::micros(3), SimDuration::micros(7));
        assert_eq!(d * 2, SimDuration::micros(20));
        assert_eq!(d / 5, SimDuration::micros(2));
        assert!((d.ratio(SimDuration::micros(5)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::millis(1), SimTime::MAX);
        assert_eq!(
            SimDuration::ZERO - SimDuration::micros(1),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_in_microseconds() {
        assert_eq!(SimDuration::micros(1500).to_string(), "1500.000us");
        assert_eq!(
            (SimTime::ZERO + SimDuration::nanos(500)).to_string(),
            "0.500us"
        );
    }

    #[test]
    fn is_zero_and_ordering() {
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::nanos(1).is_zero());
        assert!(SimDuration::micros(1) < SimDuration::millis(1));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn ratio_by_zero_panics() {
        let _ = SimDuration::micros(1).ratio(SimDuration::ZERO);
    }
}
