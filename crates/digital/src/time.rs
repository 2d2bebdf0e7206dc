use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulation time with nanosecond resolution.
///
/// Event-driven kernels must compare and order times exactly; floating-point
/// seconds accumulate rounding error over the millions of events a long
/// supercapacitor-charging run produces. `SimTime` therefore stores an integer
/// number of nanoseconds and converts to/from `f64` seconds only at the
/// analogue/digital boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime { nanos: 0 };

    /// The largest representable time (used as an "infinite" sentinel).
    pub const MAX: SimTime = SimTime { nanos: u64::MAX };

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime { nanos: micros * 1_000 }
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime { nanos: millis * 1_000_000 }
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime { nanos: secs * 1_000_000_000 }
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite values saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        let nanos = (secs * 1e9).round();
        if nanos >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime { nanos: nanos as u64 }
        }
    }

    /// The time expressed in whole nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// The time expressed in (fractional) seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime { nanos: self.nanos.checked_add(rhs.nanos).expect("simulation time overflow") }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime { nanos: self.nanos.checked_sub(rhs.nanos).expect("simulation time went negative") }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.nanos as f64 / 1e6)
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert_eq!((a + b).as_nanos(), 8_000_000);
        assert_eq!((a - b).as_nanos(), 2_000_000);
        assert!(a > b);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(8));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert!(format!("{}", SimTime::from_micros(12)).ends_with("us"));
        assert!(format!("{}", SimTime::from_millis(12)).ends_with("ms"));
        assert!(format!("{}", SimTime::from_secs(12)).ends_with('s'));
    }
}
