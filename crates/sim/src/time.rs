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

    /// Builds a span from fractional milliseconds, rounding to microseconds
    /// (a half rounds up, as [`f64::round`] does).
    ///
    /// Negative or non-finite inputs clamp to zero; this keeps sampled
    /// latency distributions (which can in principle produce tiny negative
    /// values after shifting) well-formed without panicking mid-simulation.
    ///
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_micros(ms * 1_000.0))
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

/// `us.round() as u64` for a positive `us`, without the library call
/// behind [`f64::round`] in the common case: every sampled latency passes
/// through here. Below 2^52 the truncated whole and the remainder
/// `us - whole` are both exact, and comparing the remainder with 0.5 is
/// exactly `round`'s answer. At and above 2^52 every `f64` is whole.
fn round_micros(us: f64) -> u64 {
    const EXACT_BELOW: f64 = (1u64 << 52) as f64;
    if us >= EXACT_BELOW {
        return us.round() as u64;
    }
    let whole = us as u64;
    whole + u64::from(us - whole as f64 >= 0.5)
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

    /// `from_millis_f64` as it was, with the library `round`.
    fn rounded_by_libm(ms: f64) -> u64 {
        if !ms.is_finite() || ms <= 0.0 {
            return 0;
        }
        (ms * 1_000.0).round() as u64
    }

    fn agrees(ms: f64) {
        let got = SimDuration::from_millis_f64(ms).as_micros();
        let want = rounded_by_libm(ms);
        assert_eq!(got, want, "{ms:e} ms ({:#018x})", ms.to_bits());
    }

    /// The truncate-and-compare rounding equals `f64::round` bit for bit:
    /// on random bit patterns, on the latencies the simulator samples, on
    /// every half microsecond and the floats either side of it, and on
    /// the edges. A half added before truncating instead gives 1 µs for
    /// 0.49999999999999994 µs, whose sum with 0.5 rounds up to 1.0.
    #[test]
    fn rounding_is_bit_exact() {
        for us in [0.49999999999999994, 0.5, 1.5, 2.5, 4_503_599_627_370_497.0] {
            assert_eq!(round_micros(us), us.round() as u64, "{us:e} us");
        }
        let mut draw = 0x7157_u64;
        let mut next = || {
            draw = draw.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = draw;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..200_000 {
            agrees(f64::from_bits(next()));
            // [0, 1000) ms, 53 random bits.
            agrees((next() >> 11) as f64 / (1u64 << 53) as f64 * 1_000.0);
        }
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        for half_us in (1..2_000_000u64).step_by(2).chain([(1 << 53) - 1]) {
            let ms = half_us as f64 / 2_000.0;
            for ms in [below(ms), ms, above(ms)] {
                agrees(ms);
            }
        }
        let two_52_us = (1u64 << 52) as f64 / 1_000.0;
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            below(f64::MIN_POSITIVE),
            0.5 / 1_000.0,
            below(two_52_us),
            two_52_us,
            above(two_52_us),
            two_52_us * 3.0,
            u64::MAX as f64 / 1_000.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -1.0,
            -0.4,
            -f64::MAX,
        ];
        for ms in edges {
            agrees(ms);
        }
        assert_eq!(SimDuration::from_millis_f64(0.5e-3).as_micros(), 1);
        assert_eq!(SimDuration::from_millis_f64(below(0.5e-3)).as_micros(), 0);
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
