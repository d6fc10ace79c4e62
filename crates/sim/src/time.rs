//! Virtual time for the simulation kernel.
//!
//! Time is kept as an unsigned count of microseconds since the start of the
//! simulation. Microsecond resolution is three orders of magnitude finer
//! than the millisecond-scale latencies in the paper's testbed (65–750 ms),
//! so rounding never disturbs the regenerated tables, while `u64` still
//! allows simulations of half a million virtual years.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (time zero).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since the epoch as a float, for reporting.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The span from `earlier` to `self`, saturating at zero if reversed.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from fractional milliseconds, rounding to microseconds.
    ///
    /// Negative or non-finite inputs clamp to zero; this keeps sampled
    /// latency distributions (which can in principle produce tiny negative
    /// values after shifting) well-formed without panicking mid-simulation.
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((ms * 1_000.0).round() as u64)
    }

    /// Microseconds in this span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this span (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds as a float, for reporting.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition of two spans.
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
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

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
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

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(75).as_micros(), 75_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_millis(65).as_millis(), 65);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
    }

    #[test]
    fn arithmetic_is_saturating() {
        let late = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(late, SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(
            SimDuration::from_millis(1) - SimDuration::from_millis(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn since_measures_elapsed_span() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(75);
        assert_eq!(b.since(a), SimDuration::from_millis(65));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_millis_f64(0.5);
        assert_eq!(d.as_micros(), 500);
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(format!("{}", SimDuration::from_micros(1_234)), "1.234ms");
        assert_eq!(format!("{}", SimTime::from_micros(250)), "t+0.250ms");
    }

    #[test]
    fn scalar_ops() {
        assert_eq!(
            SimDuration::from_millis(3) * 4,
            SimDuration::from_millis(12)
        );
        assert_eq!(
            SimDuration::from_millis(12) / 4,
            SimDuration::from_millis(3)
        );
    }
}
