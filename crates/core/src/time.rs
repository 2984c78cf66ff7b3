//! Time arithmetic for microsecond-scale scheduling.
//!
//! Everything in the Tiny Quanta reproduction is measured in integer
//! nanoseconds of *virtual* (simulated) or *physical* time. [`Nanos`] is a
//! transparent `u64` newtype so that service times, quanta, deadlines and
//! sojourn times cannot be confused with plain counters. [`Cycles`] plays the
//! same role for raw timestamp-counter readings, and [`CpuFreq`] converts
//! between the two (the paper's testbed runs at 2.1 GHz).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A duration or instant measured in integer nanoseconds.
///
/// `Nanos` is used both as a point on a simulation's virtual clock and as a
/// duration; arithmetic is saturating-free (plain `u64` semantics) and
/// panics on overflow in debug builds, which is intentional: a simulation
/// that overflows `u64` nanoseconds (~584 years) is a bug.
///
/// # Example
///
/// ```
/// use tq_core::Nanos;
///
/// let quantum = Nanos::from_micros(2);
/// assert_eq!(quantum.as_nanos(), 2_000);
/// assert_eq!(quantum * 3, Nanos::from_micros(6));
/// assert_eq!(format!("{}", quantum), "2.000us");
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Nanos(pub u64);

/// `x.round() as u64` for every `f64`, with no call: on the baseline
/// x86-64 target (no SSE4.1) `round` and `floor` are out-of-line
/// routines, while `x as u64` is an inline truncating conversion. Below
/// 2^52 the fraction `x - trunc(x)` is exact in f64 (Sterbenz: the
/// operands are within a factor of two for x >= 1, and the truncation is
/// 0 below that), so the half-away-from-zero ties match `round` bit for
/// bit. From 2^52 every `f64` is an integer and the fraction is 0.
/// Negative values and NaN truncate to 0 with a fraction below 0.5, as
/// `round` then saturates; +∞ and values past `u64::MAX` saturate both
/// ways.
#[inline]
fn round_nonneg(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl Nanos {
    /// The zero duration / simulation epoch.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time; used as an "infinitely far" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a `Nanos` from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a `Nanos` from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a `Nanos` from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a `Nanos` from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a `Nanos` from fractional microseconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or non-finite.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "invalid duration: {us}");
        Nanos(round_nonneg(us * 1_000.0))
    }

    /// Creates a `Nanos` from fractional nanoseconds, rounding to the
    /// nearest (half away from zero) without a libm `round` call — for
    /// per-event hot paths like the arrival samplers.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or non-finite.
    #[inline]
    pub fn from_nanos_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns}");
        Nanos(round_nonneg(ns))
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in microseconds as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the value in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; clamps at [`Nanos::ZERO`].
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// Returns `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a float factor, rounding to the nearest nanosecond.
    ///
    /// Used for service-time inflation (e.g. probing overhead of 3% is
    /// `t.scale(1.03)`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        // `trunc(x) + (x - trunc(x) >= 0.5)` is exactly `x.round()`
        // (`round_nonneg`): the fractional part is computed exactly
        // (Sterbenz), so unlike `(x + 0.5).floor()` there is no 1-ULP tie
        // drift, and the truncation is an inline conversion where
        // `round` and `floor` are calls on the baseline x86-64 target.
        // This runs once per admitted job in the serving engines.
        let scaled = self.0 as f64 * factor;
        debug_assert!(scaled < (1u64 << 52) as f64, "scale overflows exact f64 range");
        Nanos(round_nonneg(scaled))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Nanos {
    /// Formats as microseconds with three decimals (e.g. `2.000us`), the
    /// natural unit at this timescale.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl From<Nanos> for u64 {
    fn from(n: Nanos) -> u64 {
        n.0
    }
}

/// A count of CPU timestamp-counter cycles (e.g. an `RDTSC` delta).
///
/// # Example
///
/// ```
/// use tq_core::{Cycles, CpuFreq};
///
/// let freq = CpuFreq::from_ghz(2.1);
/// let c = Cycles(2_100);
/// assert_eq!(freq.cycles_to_nanos(c).as_nanos(), 1_000);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero cycle count.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Wrapping subtraction, for deltas of a free-running counter.
    #[inline]
    pub fn wrapping_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.wrapping_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// A CPU clock frequency used to convert between [`Cycles`] and [`Nanos`].
///
/// The paper's testbed is an Intel Xeon Platinum 8176 at 2.1 GHz; that is
/// the default used throughout the simulators ([`CpuFreq::PAPER_TESTBED`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuFreq {
    hz: f64,
}

impl CpuFreq {
    /// The 2.1 GHz Xeon frequency of the paper's evaluation testbed.
    pub const PAPER_TESTBED: CpuFreq = CpuFreq { hz: 2.1e9 };

    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "invalid frequency: {ghz}GHz");
        CpuFreq { hz: ghz * 1e9 }
    }

    /// Creates a frequency from raw Hz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn from_hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "invalid frequency: {hz}Hz");
        CpuFreq { hz }
    }

    /// Returns the frequency in Hz.
    pub fn hz(self) -> f64 {
        self.hz
    }

    /// Converts a cycle count to nanoseconds (rounded).
    #[inline]
    pub fn cycles_to_nanos(self, c: Cycles) -> Nanos {
        Nanos(round_nonneg(c.0 as f64 * 1e9 / self.hz))
    }

    /// Converts nanoseconds to a cycle count (rounded).
    #[inline]
    pub fn nanos_to_cycles(self, n: Nanos) -> Cycles {
        Cycles(round_nonneg(n.0 as f64 * self.hz / 1e9))
    }
}

impl Default for CpuFreq {
    fn default() -> Self {
        CpuFreq::PAPER_TESTBED
    }
}

impl fmt::Display for CpuFreq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GHz", self.hz / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
        assert_eq!(Nanos::from_micros_f64(0.5), Nanos::from_nanos(500));
    }

    #[test]
    fn round_nonneg_is_bit_identical_to_round() {
        // The case `(x + 0.5).floor()` gets wrong: the largest f64 below
        // 0.5 rounds to 0, but adding 0.5 to it already lands on 1.0.
        let below_half = 0.5_f64.next_down();
        assert_eq!(round_nonneg(below_half), 0);
        assert_eq!((below_half + 0.5).floor() as u64, 1, "trap this test guards against");
        for x in [
            0.0, 0.25, 0.5, 0.75, 1.5, 2.5, 1e9 + 0.5, 123_456.499_999,
            below_half, 1e15 + 0.5, (1u64 << 53) as f64,
        ] {
            assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:?}");
        }
        // Dense sweep around ties.
        for i in 0..10_000u64 {
            let x = i as f64 * 0.083;
            assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:?}");
        }
        // Past the range durations take: negatives (whose `round` the cast
        // saturates to 0), NaN, both infinities, the ties and neighbours
        // of 2^52 where f64 stops holding fractions, and values at and
        // past `u64::MAX` (the cast saturates).
        let two52 = (1u64 << 52) as f64;
        let max = u64::MAX as f64;
        for x in [
            -0.0, -0.25, -0.5, -0.5_f64.next_down(), -0.75, -1.5, -2.5, -1e300,
            f64::MIN, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
            two52 - 0.5, two52 - 1.5, two52.next_down(), two52, two52.next_up(),
            two52 + 1.0, 2.0 * two52 + 2.0, (1u64 << 63) as f64,
            max.next_down(), max, max.next_up(), 1e30, f64::MAX,
            f64::MIN_POSITIVE, 5e-324,
        ] {
            assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:?}");
        }
        // Every normal power of two (and zero) with its neighbours, signs
        // both ways.
        for e in 0..2047u64 {
            let p = f64::from_bits(e << 52);
            for x in [p, p.next_down(), p.next_up(), p + 0.5, p - 0.5] {
                for x in [x, -x] {
                    assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:?}");
                }
            }
        }
        // A seeded sweep over raw bit patterns: every exponent, sign and
        // NaN payload the generator reaches.
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200_000 {
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            let x = f64::from_bits(bits);
            assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:?}");
        }
    }

    #[test]
    fn cpu_freq_conversions_round_to_nearest() {
        let f = CpuFreq::from_ghz(2.1);
        for c in [0, 1, 2, 3, 10, 1_000, 2_099, 123_456_789, u64::MAX / 4] {
            let want = (c as f64 * 1e9 / f.hz()).round() as u64;
            assert_eq!(f.cycles_to_nanos(Cycles(c)), Nanos(want), "{c} cycles");
        }
        for n in [0, 1, 2, 3, 10, 1_000, 476, 123_456_789, u64::MAX / 4] {
            let want = (n as f64 * f.hz() / 1e9).round() as u64;
            assert_eq!(f.nanos_to_cycles(Nanos(n)), Cycles(want), "{n} ns");
        }
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_nanos(1_500);
        let b = Nanos::from_nanos(500);
        assert_eq!(a + b, Nanos::from_micros(2));
        assert_eq!(a - b, Nanos::from_nanos(1_000));
        assert_eq!(a * 2, Nanos::from_nanos(3_000));
        assert_eq!(a / 3, Nanos::from_nanos(500));
        assert_eq!(a / b, 3);
        assert_eq!(a % b, Nanos::ZERO);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn nanos_scale_rounds() {
        assert_eq!(Nanos::from_nanos(1_000).scale(1.03), Nanos::from_nanos(1_030));
        assert_eq!(Nanos::from_nanos(3).scale(0.5), Nanos::from_nanos(2)); // 1.5 rounds to 2
        assert_eq!(Nanos::from_nanos(100).scale(0.0), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid scale factor")]
    fn nanos_scale_rejects_nan() {
        let _ = Nanos::from_nanos(1).scale(f64::NAN);
    }

    #[test]
    fn nanos_display_is_micros() {
        assert_eq!(Nanos::from_nanos(2_500).to_string(), "2.500us");
        assert_eq!(Nanos::ZERO.to_string(), "0.000us");
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = (1..=4u64).map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(10));
    }

    #[test]
    fn cycles_wrapping_delta() {
        // A counter that wrapped still yields the correct small delta.
        let before = Cycles(u64::MAX - 5);
        let after = Cycles(4);
        assert_eq!(after.wrapping_sub(before), Cycles(10));
    }

    #[test]
    fn freq_round_trips() {
        let f = CpuFreq::from_ghz(2.1);
        let n = Nanos::from_micros(5);
        let c = f.nanos_to_cycles(n);
        assert_eq!(c, Cycles(10_500));
        assert_eq!(f.cycles_to_nanos(c), n);
    }

    #[test]
    fn freq_display() {
        assert_eq!(CpuFreq::PAPER_TESTBED.to_string(), "2.10GHz");
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn freq_rejects_zero() {
        let _ = CpuFreq::from_ghz(0.0);
    }
}
