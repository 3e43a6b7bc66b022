//! Local tangent-plane (east/north) projection.
//!
//! The paper's geometry (ellipses, circles, distances) is planar. At the
//! scale of a drone flight (a few miles) the Earth is locally flat to within
//! centimeters, so we project WGS-84 coordinates onto an equirectangular
//! east/north plane centred at a chosen origin and do all geometry there.

use std::fmt;

use crate::units::{Distance, EARTH_RADIUS_M};
use crate::GeoPoint;

/// A position in a local east/north plane, in meters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Enu {
    /// Meters east of the plane origin.
    pub east: f64,
    /// Meters north of the plane origin.
    pub north: f64,
}

impl Enu {
    /// Creates an ENU position from east/north offsets in meters.
    pub fn new(east: f64, north: f64) -> Self {
        Enu { east, north }
    }

    /// Euclidean distance to `other` in the plane.
    pub fn distance_to(&self, other: &Enu) -> Distance {
        Distance::from_meters((self.east - other.east).hypot(self.north - other.north))
    }

    /// The midpoint of `self` and `other`.
    pub fn midpoint(&self, other: &Enu) -> Enu {
        Enu::new(
            (self.east + other.east) / 2.0,
            (self.north + other.north) / 2.0,
        )
    }
}

impl fmt::Display for Enu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.1} E, {:.1} N]", self.east, self.north)
    }
}

/// An equirectangular projection centred on an origin point.
///
/// Within ~50 km of the origin the projection error is well below GPS noise,
/// and crucially it preserves the *ordering* of distances, so sufficiency
/// decisions match those made on true great-circle distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTangentPlane {
    origin: GeoPoint,
    cos_lat0: f64,
}

impl LocalTangentPlane {
    /// Creates a plane tangent at `origin`.
    pub fn new(origin: GeoPoint) -> Self {
        LocalTangentPlane {
            origin,
            cos_lat0: origin.lat_rad().cos(),
        }
    }

    /// The origin this plane is tangent at.
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Projects a geographic point into the plane.
    pub fn project(&self, p: &GeoPoint) -> Enu {
        let dlat = (p.lat_deg() - self.origin.lat_deg()).to_radians();
        let dlon = (p.lon_deg() - self.origin.lon_deg()).to_radians();
        Enu {
            east: dlon * self.cos_lat0 * EARTH_RADIUS_M,
            north: dlat * EARTH_RADIUS_M,
        }
    }

    /// Inverse projection: recovers the geographic point for an ENU offset.
    ///
    /// # Panics
    ///
    /// Panics if the unprojected point leaves the valid latitude range,
    /// which cannot happen for offsets within the plane's ~50 km validity.
    pub fn unproject(&self, e: &Enu) -> GeoPoint {
        let lat = self.origin.lat_deg() + (e.north / EARTH_RADIUS_M).to_degrees();
        let lon = self.origin.lon_deg() + (e.east / (EARTH_RADIUS_M * self.cos_lat0)).to_degrees();
        GeoPoint::new(lat, lon).expect("unprojection within plane validity range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn origin_projects_to_zero() {
        let o = p(40.1, -88.2);
        let plane = LocalTangentPlane::new(o);
        let e = plane.project(&o);
        assert!(e.east.abs() < 1e-9 && e.north.abs() < 1e-9);
    }

    #[test]
    fn project_unproject_round_trip() {
        let plane = LocalTangentPlane::new(p(40.1, -88.2));
        for (lat, lon) in [(40.15, -88.25), (40.0, -88.0), (40.1, -88.2)] {
            let q = p(lat, lon);
            let rt = plane.unproject(&plane.project(&q));
            assert!((rt.lat_deg() - lat).abs() < 1e-12);
            assert!((rt.lon_deg() - lon).abs() < 1e-12);
        }
    }

    #[test]
    fn planar_distance_matches_haversine_at_short_range() {
        let o = p(40.1, -88.2);
        let plane = LocalTangentPlane::new(o);
        let q = o.destination(63.0, Distance::from_km(5.0));
        let planar = plane.project(&o).distance_to(&plane.project(&q));
        let sphere = o.distance_to(&q);
        let rel = (planar.meters() - sphere.meters()).abs() / sphere.meters();
        assert!(rel < 1e-3, "relative error {rel}");
    }

    #[test]
    fn east_displacement_maps_to_positive_east() {
        let o = p(40.0, -88.0);
        let plane = LocalTangentPlane::new(o);
        let q = o.destination(90.0, Distance::from_km(1.0));
        let e = plane.project(&q);
        assert!(e.east > 990.0 && e.east < 1010.0, "east {}", e.east);
        assert!(e.north.abs() < 10.0, "north {}", e.north);
    }

    #[test]
    fn midpoint_and_distance() {
        let a = Enu::new(0.0, 0.0);
        let b = Enu::new(6.0, 8.0);
        assert_eq!(a.midpoint(&b), Enu::new(3.0, 4.0));
        assert!((a.distance_to(&b).meters() - 10.0).abs() < 1e-12);
    }
}
