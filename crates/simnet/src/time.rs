//! Virtual time for the discrete-event simulation.
//!
//! All simulation time is expressed in microseconds since the start of the
//! simulation. Using integer microseconds keeps event ordering exact and
//! reproducible (no floating-point drift), while still resolving the
//! sub-millisecond effects that matter here (link latencies, serialization
//! delays, retransmission timers).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in microseconds since simulation
/// start.
///
/// `SimTime` is a monotonically non-decreasing clock driven by the event
/// loop in [`crate::world::World`]. It is `Copy` and totally ordered.
///
/// # Examples
///
/// ```
/// use simnet::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(200);
/// assert_eq!(t.as_micros(), 200_000);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use simnet::time::SimDuration;
///
/// let d = SimDuration::from_millis(1) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 1_500);
/// assert_eq!(d * 2, SimDuration::from_millis(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for deadlines that are not currently armed.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of two instants.
    ///
    /// Returns `None` when `earlier` is later than `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Saturating addition of a duration (never wraps past [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// The length of this duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The length of this duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The length of this duration in seconds as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        self.0.checked_mul(factor).map(SimDuration)
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The virtual time needed to serialize `bytes` bytes onto a link of
    /// `bits_per_sec` capacity, rounded up to the next microsecond.
    ///
    /// # Examples
    ///
    /// ```
    /// use simnet::time::SimDuration;
    ///
    /// // 1500 bytes at 100 Mbit/s = 120 µs.
    /// let d = SimDuration::transmission(1500, 100_000_000);
    /// assert_eq!(d.as_micros(), 120);
    /// ```
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        // Every frame pays this once per hop: stay in 64 bits whenever the
        // product fits (any length under two terabytes).
        if let Some(bit_micros) = (bytes as u64).checked_mul(8_000_000) {
            return SimDuration(bit_micros.div_ceil(bits_per_sec));
        }
        let micros = (bytes as u128 * 8_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(micros.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_and_accessors() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn duration_construction_and_accessors() {
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_millis(5).as_millis(), 5);
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_micros(1).is_zero());
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        assert_eq!(t + d, SimTime::from_millis(150));
        assert_eq!(t - d, SimTime::from_millis(50));
        assert_eq!(SimTime::from_millis(150) - t, d);

        let mut u = t;
        u += d;
        assert_eq!(u, SimTime::from_millis(150));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn saturating_operations() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
        assert_eq!(early.checked_since(late), None);
        assert_eq!(late.checked_since(early), Some(SimDuration::from_millis(1)));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn transmission_delay() {
        // RS-232 at 115.2 kbps: 20 bytes = 160 bits ≈ 1389 µs.
        let d = SimDuration::transmission(20, 115_200);
        assert_eq!(d.as_micros(), 1_389);
        // 100 Mbit Ethernet, 1500-byte frame.
        assert_eq!(
            SimDuration::transmission(1500, 100_000_000).as_micros(),
            120
        );
        // Zero bandwidth means "infinite capacity" (no serialization delay).
        assert_eq!(SimDuration::transmission(1500, 0), SimDuration::ZERO);
        // Either side of where the 64-bit product stops fitting, and the
        // saturating far end.
        let edge = (u64::MAX / 8_000_000) as usize;
        for bytes in [edge - 1, edge, edge + 1, edge + 2] {
            let exact = (bytes as u128 * 8_000_000).div_ceil(7) as u64;
            assert_eq!(SimDuration::transmission(bytes, 7).as_micros(), exact);
        }
        assert_eq!(
            SimDuration::transmission(usize::MAX, 1).as_micros(),
            u64::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7µs");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }
}
