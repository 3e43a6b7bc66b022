//! Strongly-typed physical quantities.
//!
//! The paper mixes imperial units (miles for NFZ radii, feet for distances,
//! mph for the FAA speed cap) with SI units. Newtypes keep the conversions
//! explicit and rule out unit-confusion bugs in the sufficiency predicates.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Mean Earth radius in meters, used by the haversine formula.
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// Meters per statute mile.
pub const METERS_PER_MILE: f64 = 1_609.344;

/// Meters per foot.
pub const METERS_PER_FOOT: f64 = 0.3048;

/// The FAA speed cap for small UAVs: 100 mph (paper §IV-C1, 14 CFR 107.51).
///
/// This is the `v_max` used throughout the possible-traveling-range
/// computations.
pub const FAA_MAX_SPEED: Speed = Speed(44.704);

/// A distance, stored internally in meters.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Distance(f64);

impl Distance {
    /// The zero distance.
    pub const ZERO: Distance = Distance(0.0);

    /// Creates a distance from meters.
    pub fn from_meters(m: f64) -> Self {
        Distance(m)
    }

    /// Creates a distance from statute miles.
    pub fn from_miles(mi: f64) -> Self {
        Distance(mi * METERS_PER_MILE)
    }

    /// Creates a distance from feet.
    pub fn from_feet(ft: f64) -> Self {
        Distance(ft * METERS_PER_FOOT)
    }

    /// Creates a distance from kilometers.
    pub fn from_km(km: f64) -> Self {
        Distance(km * 1_000.0)
    }

    /// This distance in meters.
    pub fn meters(self) -> f64 {
        self.0
    }

    /// This distance in statute miles.
    pub fn miles(self) -> f64 {
        self.0 / METERS_PER_MILE
    }

    /// This distance in feet.
    pub fn feet(self) -> f64 {
        self.0 / METERS_PER_FOOT
    }

    /// This distance in kilometers.
    pub fn km(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Absolute value (distances arising from subtraction may be negative;
    /// e.g. a signed distance to a zone boundary).
    pub fn abs(self) -> Self {
        Distance(self.0.abs())
    }

    /// Returns the smaller of two distances.
    pub fn min(self, other: Self) -> Self {
        Distance(self.0.min(other.0))
    }

    /// Returns the larger of two distances.
    pub fn max(self, other: Self) -> Self {
        Distance(self.0.max(other.0))
    }

    /// `true` if the value is finite (not NaN or infinite).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Distance {
    type Output = Distance;
    fn add(self, rhs: Distance) -> Distance {
        Distance(self.0 + rhs.0)
    }
}

impl AddAssign for Distance {
    fn add_assign(&mut self, rhs: Distance) {
        self.0 += rhs.0;
    }
}

impl Sub for Distance {
    type Output = Distance;
    fn sub(self, rhs: Distance) -> Distance {
        Distance(self.0 - rhs.0)
    }
}

impl SubAssign for Distance {
    fn sub_assign(&mut self, rhs: Distance) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Distance {
    type Output = Distance;
    fn mul(self, rhs: f64) -> Distance {
        Distance(self.0 * rhs)
    }
}

impl Div<f64> for Distance {
    type Output = Distance;
    fn div(self, rhs: f64) -> Distance {
        Distance(self.0 / rhs)
    }
}

impl Div<Speed> for Distance {
    type Output = Duration;
    fn div(self, rhs: Speed) -> Duration {
        Duration::from_secs(self.0 / rhs.0)
    }
}

impl Neg for Distance {
    type Output = Distance;
    fn neg(self) -> Distance {
        Distance(-self.0)
    }
}

impl fmt::Display for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= METERS_PER_MILE {
            write!(f, "{:.2} mi", self.miles())
        } else {
            write!(f, "{:.1} m", self.0)
        }
    }
}

/// A speed, stored internally in meters per second.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Speed(f64);

impl Speed {
    /// Creates a speed from meters per second.
    pub fn from_mps(mps: f64) -> Self {
        Speed(mps)
    }

    /// Creates a speed from miles per hour.
    pub fn from_mph(mph: f64) -> Self {
        Speed(mph * METERS_PER_MILE / 3_600.0)
    }

    /// This speed in meters per second.
    pub fn mps(self) -> f64 {
        self.0
    }

    /// This speed in miles per hour.
    pub fn mph(self) -> f64 {
        self.0 * 3_600.0 / METERS_PER_MILE
    }
}

impl Mul<Duration> for Speed {
    type Output = Distance;
    fn mul(self, rhs: Duration) -> Distance {
        Distance(self.0 * rhs.0)
    }
}

impl Mul<f64> for Speed {
    type Output = Speed;
    fn mul(self, rhs: f64) -> Speed {
        Speed(self.0 * rhs)
    }
}

impl fmt::Display for Speed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} m/s", self.0)
    }
}

/// A span of time in seconds.
///
/// Unlike [`std::time::Duration`] this may be fractional and is cheap to do
/// arithmetic on; all simulation time in the workspace uses this type.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Duration(f64);

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration from (possibly fractional) seconds.
    pub fn from_secs(s: f64) -> Self {
        Duration(s)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Duration(ms / 1_000.0)
    }

    /// This duration in seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// This duration in milliseconds.
    pub fn millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Self) -> Self {
        Duration(self.0.max(other.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} s", self.0)
    }
}

/// An absolute point in time, in seconds since an arbitrary epoch.
///
/// The paper's samples carry a GPS timestamp; in this reproduction all
/// timestamps come from the simulation clock and only differences matter.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Timestamp(f64);

impl Timestamp {
    /// The epoch (t = 0).
    pub const EPOCH: Timestamp = Timestamp(0.0);

    /// Creates a timestamp from seconds since the epoch.
    pub fn from_secs(s: f64) -> Self {
        Timestamp(s)
    }

    /// Seconds since the epoch.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The (signed) duration from `earlier` to `self`.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0 - earlier.0)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mile_round_trip() {
        let d = Distance::from_miles(5.0);
        assert!((d.miles() - 5.0).abs() < 1e-12);
        assert!((d.meters() - 8046.72).abs() < 1e-9);
    }

    #[test]
    fn feet_round_trip() {
        let d = Distance::from_feet(30.0);
        assert!((d.feet() - 30.0).abs() < 1e-12);
        assert!((d.meters() - 9.144).abs() < 1e-12);
    }

    #[test]
    fn faa_max_speed_is_100_mph() {
        assert!((FAA_MAX_SPEED.mph() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn speed_times_duration_is_distance() {
        let d = Speed::from_mps(10.0) * Duration::from_secs(3.0);
        assert!((d.meters() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn distance_over_speed_is_duration() {
        let t = Distance::from_meters(100.0) / Speed::from_mps(25.0);
        assert!((t.secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn timestamp_arithmetic() {
        let t0 = Timestamp::from_secs(10.0);
        let t1 = t0 + Duration::from_secs(2.5);
        assert!((t1.secs() - 12.5).abs() < 1e-12);
        assert!((t1.since(t0).secs() - 2.5).abs() < 1e-12);
        assert!(((t1 - t0).secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn distance_ordering_and_minmax() {
        let a = Distance::from_meters(1.0);
        let b = Distance::from_meters(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn negative_distance_abs() {
        let d = Distance::from_meters(3.0) - Distance::from_meters(10.0);
        assert!(d.meters() < 0.0);
        assert!((d.abs().meters() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(format!("{}", Distance::from_meters(12.34)), "12.3 m");
        assert_eq!(format!("{}", Distance::from_miles(2.0)), "2.00 mi");
    }
}
