//! Virtual time for the discrete-event engine.
//!
//! Time is stored as an integer number of **nanoseconds** so that event
//! ordering is exact and runs are bit-for-bit reproducible. Floating-point
//! seconds are accepted and produced at the API boundary only.

use std::ops::Add;

/// Number of nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock.
///
/// `SimTime::ZERO` is the epoch at which every run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span between two [`SimTime`] instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from integer nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Builds an instant from (possibly fractional) seconds since the epoch.
    ///
    /// Negative and non-finite inputs saturate to zero; values beyond the
    /// representable range saturate to `u64::MAX` nanoseconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from integer nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Builds a span from integer microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Builds a span from integer seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(NANOS_PER_SEC))
    }

    /// Builds a span from (possibly fractional) seconds.
    ///
    /// Negative and non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// The span in integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    if secs.is_nan() || secs <= 0.0 {
        return 0;
    }
    let nanos = secs * NANOS_PER_SEC as f64;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrip() {
        let t = SimTime::from_nanos(1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!((t + d).as_nanos(), 1_750_000_000);
    }

    #[test]
    fn from_secs_f64_saturates() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::from_nanos(u64::MAX));
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_micros(2_000_000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5_000));
    }

    #[test]
    fn ordering_is_total_on_nanos() {
        let mut v = vec![SimTime::from_nanos(5), SimTime::from_nanos(1), SimTime::from_nanos(3)];
        v.sort();
        assert_eq!(v, vec![SimTime::from_nanos(1), SimTime::from_nanos(3), SimTime::from_nanos(5)]);
    }
}
