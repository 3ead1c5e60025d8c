//! Simulation time.
//!
//! Time is represented as an unsigned number of **nanoseconds** since the
//! start of the simulation. A `u64` covers more than 584 years, far beyond
//! the two-week experiments of the paper, while still resolving a fraction
//! of the 40.96 µs OFDM symbol.
//!
//! The module also provides mains-cycle helpers: HomePlug AV locks its
//! tone-map slots to the AC line cycle, so "where in the mains cycle are
//! we?" is a first-class question for the PHY.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// European mains frequency used throughout the reproduction (EPFL testbed).
pub const MAINS_HZ: u64 = 50;

/// Duration of half a mains cycle (10 ms at 50 Hz). HomePlug AV tone-map
/// slots partition the *half* cycle because the noise environment repeats
/// with double the mains frequency (IEEE 1901 §5).
pub const MAINS_HALF_CYCLE: Duration = Duration::from_micros(500_000 / MAINS_HZ);

/// HomePlug AV beacon period: two mains cycles (40 ms at 50 Hz, 33.3 ms at
/// 60 Hz — the paper's Figure 1 labels it "33.3/40 ms").
pub const BEACON_PERIOD: Duration = Duration::from_micros(2 * 1_000_000 / MAINS_HZ);

/// An instant in simulation time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(pub u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from hours (useful for the random-scale experiments).
    pub const fn from_hours(h: u64) -> Self {
        Time(h * 3_600_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whole seconds since simulation start (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Whole milliseconds since simulation start (truncated).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Phase within the *half* mains cycle, in `[0, 1)`. Tone-map slots are
    /// laid out over this interval.
    pub fn half_cycle_phase(self) -> f64 {
        (self.0 % MAINS_HALF_CYCLE.0) as f64 / MAINS_HALF_CYCLE.0 as f64
    }

    /// Index of the tone-map slot active at this instant, given `l` slots
    /// of equal duration over the half mains cycle (HomePlug AV uses
    /// `l = 6`).
    pub fn tonemap_slot(self, l: usize) -> usize {
        debug_assert!(l > 0);
        let slot = (self.half_cycle_phase() * l as f64) as usize;
        slot.min(l - 1)
    }

    /// Saturating subtraction between two instants.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Hour of the (simulated) day in `[0, 24)`, assuming the simulation
    /// starts at midnight of day 0.
    pub fn hour_of_day(self) -> f64 {
        let day_ns = 24 * 3_600_000_000_000u64;
        (self.0 % day_ns) as f64 / 3_600_000_000_000_f64
    }

    /// Day index since simulation start (day 0 is the first day).
    pub const fn day_index(self) -> u64 {
        self.0 / (24 * 3_600_000_000_000)
    }

    /// True on Saturdays and Sundays, with day 0 being a Monday. The paper's
    /// Figures 13-14 contrast weekday and weekend behaviour.
    pub const fn is_weekend(self) -> bool {
        matches!(self.day_index() % 7, 5 | 6)
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from fractional seconds; negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Construct from fractional microseconds; negative values clamp to zero.
    pub fn from_micros_f64(us: f64) -> Self {
        Duration((us.max(0.0) * 1e3).round() as u64)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mains_constants_are_consistent() {
        assert_eq!(MAINS_HALF_CYCLE.as_nanos(), 10_000_000);
        assert_eq!(BEACON_PERIOD.as_nanos(), 40_000_000);
    }

    #[test]
    fn tonemap_slot_partitions_half_cycle() {
        // 6 slots over 10 ms => each slot lasts 1.666... ms.
        let l = 6;
        assert_eq!(Time::ZERO.tonemap_slot(l), 0);
        assert_eq!(Time::from_micros(1_600).tonemap_slot(l), 0);
        assert_eq!(Time::from_micros(1_700).tonemap_slot(l), 1);
        assert_eq!(Time::from_micros(9_999).tonemap_slot(l), 5);
        // Periodicity over the half cycle: slot(t) == slot(t + 10 ms).
        for us in [0u64, 123, 4_000, 9_000] {
            let a = Time::from_micros(us).tonemap_slot(l);
            let b = Time::from_micros(us + 10_000).tonemap_slot(l);
            assert_eq!(a, b, "slot must repeat every half cycle");
        }
    }

    #[test]
    fn mains_phase_wraps() {
        // Phase 0 is the zero crossing at t = 0; the half cycle is 10 ms.
        assert_eq!(Time::ZERO.half_cycle_phase(), 0.0);
        let quarter = Time::from_micros(2_500);
        assert!((quarter.half_cycle_phase() - 0.25).abs() < 1e-12);
        let wrapped = Time::from_micros(12_500);
        assert!((wrapped.half_cycle_phase() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Time::from_millis(100);
        let d = Duration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(d * 4, Duration::from_millis(1));
        assert_eq!(Duration::from_millis(1) / 4, d);
    }

    #[test]
    fn day_and_weekend_accounting() {
        let monday_noon = Time::from_hours(12);
        assert_eq!(monday_noon.day_index(), 0);
        assert!(!monday_noon.is_weekend());
        assert!((monday_noon.hour_of_day() - 12.0).abs() < 1e-9);
        let saturday = Time::from_hours(5 * 24 + 3);
        assert!(saturday.is_weekend());
        let next_monday = Time::from_hours(7 * 24 + 1);
        assert!(!next_monday.is_weekend());
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(41)), "41.000us");
        assert_eq!(format!("{}", Duration::from_millis(20)), "20.000ms");
        assert_eq!(format!("{}", Duration::from_secs(3)), "3.000s");
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1.5), Duration::from_millis(1500));
    }
}
