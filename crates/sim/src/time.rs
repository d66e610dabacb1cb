//! Integer-nanosecond simulation time.
//!
//! Every simulator in the workspace shares this time base so that the memory
//! bus, flash channels, HDD mechanics and the storage manager can exchange
//! timestamps without unit confusion. `u64` nanoseconds cover ~584 years of
//! virtual time, far beyond any experiment here.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use nvhsm_sim::{SimTime, SimDuration};
/// let t = SimTime::from_us(2) + SimDuration::from_ns(500);
/// assert_eq!(t.as_ns(), 2_500);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use nvhsm_sim::SimDuration;
/// let d = SimDuration::from_ms(1) + SimDuration::from_us(5);
/// assert_eq!(d.as_ns(), 1_005_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinity" sentinel for busy-until fields.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time as fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond and clamping negatives to zero.
    pub fn from_us_f64(us: f64) -> Self {
        SimDuration(round_to_u64(us.max(0.0) * 1_000.0))
    }

    /// Creates a duration from fractional nanoseconds, rounding and clamping
    /// negatives to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        SimDuration(round_to_u64(ns.max(0.0)))
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration as fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The longer of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer count, saturating on overflow.
    pub fn saturating_mul(self, count: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(count))
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Elapsed time between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
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
        self.0 = self.0.saturating_add(rhs.0);
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
        self.0 = self.0.saturating_sub(rhs.0);
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// `x.round() as u64` (halves away from zero, saturating, NaN to 0)
/// without a `round` call: targets without SSE4.1 lower that call to a
/// software routine, and the bus, stall and flash timings round on every
/// request.
fn round_to_u64(x: f64) -> u64 {
    // At and above 2^52 every f64 is an integer.
    if x < TWO_POW_52 {
        let t = x as u64;
        // Exact (Sterbenz's lemma): t ≤ x < 2t for x ≥ 1, and t = 0 below.
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_rounds_like_std(x: f64) {
        assert_eq!(
            round_to_u64(x),
            x.round() as u64,
            "{x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_to_u64_matches_std_at_the_edges() {
        let two_64 = 18_446_744_073_709_551_616.0;
        let specials = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            0.49999999999999994,
            1.5,
            2.5,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            TWO_POW_52 - 0.5,
            TWO_POW_52 - 1.5,
            TWO_POW_52 * 2.0 - 1.0,
            two_64,
            1e30,
            f64::MAX,
        ];
        for x in specials {
            assert_rounds_like_std(x);
        }
        // A few ulps either side of 2^52 and 2^64.
        for base in [TWO_POW_52, two_64] {
            let bits = f64::to_bits(base);
            for d in 0..8 {
                assert_rounds_like_std(f64::from_bits(bits + d));
                assert_rounds_like_std(f64::from_bits(bits - d));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any bit pattern: NaNs, infinities, negatives, subnormals and
        /// values past 2^64 included.
        #[test]
        fn prop_round_to_u64_matches_std_on_any_bits(bits in 0u64..u64::MAX) {
            assert_rounds_like_std(f64::from_bits(bits));
        }

        /// Halves `k + 0.5` below 2^52 and their neighbours one ulp away,
        /// of either sign.
        #[test]
        fn prop_round_to_u64_matches_std_at_halves(k in 0u64..1 << 52) {
            let half = k as f64 + 0.5;
            for x in [half, f64::from_bits(half.to_bits() - 1), f64::from_bits(half.to_bits() + 1)] {
                assert_rounds_like_std(x);
                assert_rounds_like_std(-x);
            }
        }
    }

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
        assert_eq!(SimDuration::from_us(1), SimDuration::from_ns(1_000));
        assert_eq!(SimDuration::from_ms(1), SimDuration::from_us(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_ms(1_000));
    }

    #[test]
    fn arithmetic_round_trips() {
        let t0 = SimTime::from_us(10);
        let d = SimDuration::from_us(5);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration::from_ns(1), SimTime::MAX);
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_ns(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_ns(3).saturating_sub(SimDuration::from_ns(7)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_us_f64(1.5);
        assert_eq!(d.as_ns(), 1_500);
        assert!((d.as_us_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_us_f64(-2.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ns_f64(2.4).as_ns(), 2);
        assert_eq!(SimDuration::from_ns_f64(2.6).as_ns(), 3);
    }

    #[test]
    fn ordering_and_extrema() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_ns(5).max(SimDuration::from_ns(9)),
            SimDuration::from_ns(9)
        );
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(SimDuration::from_ns(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_us(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_us).sum();
        assert_eq!(total, SimDuration::from_us(10));
    }

    #[test]
    fn mul_div_scaling() {
        let d = SimDuration::from_us(3);
        assert_eq!(d * 4, SimDuration::from_us(12));
        assert_eq!(d / 3, SimDuration::from_us(1));
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }
}
