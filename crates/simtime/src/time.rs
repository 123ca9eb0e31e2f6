//! Integer-nanosecond virtual time.
//!
//! Simulated time is kept in `u64` nanoseconds. At that resolution a
//! clock can represent ~584 years of simulated execution, far beyond any
//! sweep in the paper (whose longest run is ~80 seconds). All arithmetic
//! saturates rather than wrapping so that a mis-calibrated cost model
//! degrades into "very slow" instead of into undefined orderings.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on a simulated clock, in nanoseconds since the epoch
/// (the start of the simulated run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// A count or clock that would pass `u64::MAX` if a period were added
/// to it the asked number of times. Stepping saturates; adding many
/// periods at once must not, so every `advance` in the stack is checked
/// and fails with this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overflow: the run's cycles do not fit 64-bit virtual time and counters"
        )
    }
}

impl std::error::Error for Overflow {}

/// `value + times · step`, checked — the one sum every fast-forwarded
/// quantity is advanced by.
#[inline]
pub fn advanced(value: u64, step: u64, times: u64) -> Result<u64, Overflow> {
    step.checked_mul(times)
        .and_then(|d| value.checked_add(d))
        .ok_or(Overflow)
}

impl SimTime {
    /// The simulated epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is later
    /// (clocks merged from different ranks may be briefly out of order).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants — the merge operation used when a
    /// message or a barrier synchronizes two ranks' clocks.
    #[inline]
    pub fn merge(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds. Negative and NaN inputs clamp
    /// to zero; values beyond the representable range (including +inf)
    /// saturate.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Construct from fractional nanoseconds, rounding to nearest.
    /// Negative and NaN inputs clamp to zero; +inf saturates.
    pub fn from_nanos_f64(ns: f64) -> Self {
        if ns.is_nan() || ns <= 0.0 {
            return SimDuration::ZERO;
        }
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration((ns + 0.5) as u64)
        }
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative float factor, saturating.
    pub fn mul_f64(self, factor: f64) -> Self {
        SimDuration::from_nanos_f64(self.0 as f64 * factor)
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        SimDuration(self.0.min(other.0))
    }

    /// Ratio of `self` to `other`; `f64::INFINITY` when `other` is zero
    /// and `self` nonzero; 1.0 when both are zero.
    pub fn ratio(self, other: Self) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_nanos(10) + SimDuration::from_nanos(5);
        assert_eq!(t, SimTime::from_nanos(15));
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let early = SimTime::from_nanos(3);
        let late = SimTime::from_nanos(9);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(late - early, SimDuration::from_nanos(6));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn addition_saturates_at_max() {
        let t = SimTime::from_nanos(u64::MAX) + SimDuration::from_secs(1);
        assert_eq!(t.as_nanos(), u64::MAX);
        let d = SimDuration::from_nanos(u64::MAX) + SimDuration::from_nanos(1);
        assert_eq!(d.as_nanos(), u64::MAX);
    }

    #[test]
    fn merge_takes_the_max() {
        let a = SimTime::from_nanos(7);
        let b = SimTime::from_nanos(4);
        assert_eq!(a.merge(b), a);
        assert_eq!(b.merge(a), a);
    }

    #[test]
    fn from_secs_f64_handles_pathological_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn from_nanos_f64_rounds_to_nearest() {
        assert_eq!(SimDuration::from_nanos_f64(1.4).as_nanos(), 1);
        assert_eq!(SimDuration::from_nanos_f64(1.6).as_nanos(), 2);
        assert_eq!(SimDuration::from_nanos_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2).mul_f64(0.25);
        assert_eq!(d, SimDuration::from_millis(500));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let z = SimDuration::ZERO;
        let one = SimDuration::from_nanos(1);
        assert_eq!(one.ratio(z), f64::INFINITY);
        assert_eq!(z.ratio(z), 1.0);
        assert!((SimDuration::from_secs(3).ratio(SimDuration::from_secs(2)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn division_by_zero_clamps_to_one() {
        assert_eq!(SimDuration::from_nanos(10) / 0, SimDuration::from_nanos(10));
        assert_eq!(SimDuration::from_nanos(10) / 2, SimDuration::from_nanos(5));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.00us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_folds_saturating() {
        let total: SimDuration = (0..5).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }
}
