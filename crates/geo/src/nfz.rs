//! No-fly zones — the paper's `z = (lat, lon, r)`.

use std::fmt;

use crate::units::Distance;
use crate::{GeoError, GeoPoint};

/// A circular no-fly zone (paper §III-A): a centre point and a radius.
///
/// A drone whose position is ever inside the circle has violated the zone
/// owner's privacy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoFlyZone {
    center: GeoPoint,
    radius: Distance,
}

impl NoFlyZone {
    /// Creates a zone centred at `center` with the given `radius`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite; use
    /// [`NoFlyZone::try_new`] for fallible construction.
    pub fn new(center: GeoPoint, radius: Distance) -> Self {
        Self::try_new(center, radius).expect("radius must be positive and finite")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::NonPositiveDistance`] when `radius <= 0` or is
    /// not finite.
    pub fn try_new(center: GeoPoint, radius: Distance) -> Result<Self, GeoError> {
        if radius.meters() <= 0.0 || !radius.is_finite() {
            return Err(GeoError::NonPositiveDistance(radius.meters()));
        }
        Ok(NoFlyZone { center, radius })
    }

    /// The zone centre.
    pub fn center(&self) -> GeoPoint {
        self.center
    }

    /// The zone radius.
    pub fn radius(&self) -> Distance {
        self.radius
    }

    /// Signed distance from `p` to the zone *boundary*: positive outside,
    /// zero on the boundary, negative inside.
    ///
    /// This is the paper's `D_i = dist(S_i, center) − r`.
    pub fn boundary_distance(&self, p: &GeoPoint) -> Distance {
        self.center.distance_to(p) - self.radius
    }

    /// `true` if `p` lies strictly inside the zone (a privacy violation).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        self.boundary_distance(p).meters() < 0.0
    }

    /// `true` if the centre falls inside the axis-aligned rectangle with
    /// corners `(c1, c2)`, edges included: the zone-query predicate
    /// (paper step 2–3).
    pub fn center_within_rect(&self, c1: &GeoPoint, c2: &GeoPoint) -> bool {
        let (lat_lo, lat_hi) = ord(c1.lat_deg(), c2.lat_deg());
        let (lon_lo, lon_hi) = ord(c1.lon_deg(), c2.lon_deg());
        (lat_lo..=lat_hi).contains(&self.center.lat_deg())
            && (lon_lo..=lon_hi).contains(&self.center.lon_deg())
    }
}

impl fmt::Display for NoFlyZone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NFZ[{} r={}]", self.center, self.radius)
    }
}

/// An ordered collection of no-fly zones, e.g. the auditor's answer to a
/// zone query (paper step 2–3).
///
/// Only the *nearest* zone governs the adaptive sampling rate (paper
/// §IV-C3: "we only need to prove PoA sufficiency for the closest zone"),
/// so the key operation is [`ZoneSet::nearest`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ZoneSet {
    zones: Vec<NoFlyZone>,
}

impl ZoneSet {
    /// Creates an empty zone set.
    pub fn new() -> Self {
        ZoneSet::default()
    }

    /// Adds a zone to the set.
    pub fn push(&mut self, zone: NoFlyZone) {
        self.zones.push(zone);
    }

    /// Inserts a zone at `index`, shifting the zones after it — how a
    /// registry keeps the set in its own key order.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, zone: NoFlyZone) {
        self.zones.insert(index, zone);
    }

    /// Number of zones in the set.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Iterates over the zones.
    pub fn iter(&self) -> std::slice::Iter<'_, NoFlyZone> {
        self.zones.iter()
    }

    /// The zones as a slice.
    pub fn as_slice(&self) -> &[NoFlyZone] {
        &self.zones
    }

    /// The zones as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [NoFlyZone] {
        &mut self.zones
    }

    /// The zone whose *boundary* is nearest to `p` (paper's
    /// `FindNearestZone`), or `None` for an empty set.
    ///
    /// Nearness is by signed boundary distance, so a zone that `p` is
    /// inside (negative distance) always wins.
    pub fn nearest(&self, p: &GeoPoint) -> Option<&NoFlyZone> {
        self.nearest_with_distance(p).map(|(zone, _)| zone)
    }

    /// Signed distance from `p` to the nearest zone boundary, or `None`
    /// for an empty set. This is the quantity plotted in Fig. 8(a).
    pub fn nearest_boundary_distance(&self, p: &GeoPoint) -> Option<Distance> {
        self.nearest_with_distance(p).map(|(_, d)| d)
    }

    /// The [`nearest`](Self::nearest) zone together with its signed
    /// boundary distance from `p`, in one scan that measures each zone
    /// once. Of zones at the same distance, the first in the set wins.
    pub fn nearest_with_distance(&self, p: &GeoPoint) -> Option<(&NoFlyZone, Distance)> {
        let mut best: Option<(&NoFlyZone, Distance)> = None;
        for zone in &self.zones {
            let d = zone.boundary_distance(p);
            if best.is_none_or(|(_, b)| d.meters().total_cmp(&b.meters()).is_lt()) {
                best = Some((zone, d));
            }
        }
        best
    }

    /// `true` if `p` is inside any zone.
    pub fn any_contains(&self, p: &GeoPoint) -> bool {
        self.zones.iter().any(|z| z.contains(p))
    }
}

fn ord(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FromIterator<NoFlyZone> for ZoneSet {
    fn from_iter<I: IntoIterator<Item = NoFlyZone>>(iter: I) -> Self {
        ZoneSet {
            zones: iter.into_iter().collect(),
        }
    }
}

impl Extend<NoFlyZone> for ZoneSet {
    fn extend<I: IntoIterator<Item = NoFlyZone>>(&mut self, iter: I) {
        self.zones.extend(iter);
    }
}

impl<'a> IntoIterator for &'a ZoneSet {
    type Item = &'a NoFlyZone;
    type IntoIter = std::slice::Iter<'a, NoFlyZone>;
    fn into_iter(self) -> Self::IntoIter {
        self.zones.iter()
    }
}

impl IntoIterator for ZoneSet {
    type Item = NoFlyZone;
    type IntoIter = std::vec::IntoIter<NoFlyZone>;
    fn into_iter(self) -> Self::IntoIter {
        self.zones.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn zone(lat: f64, lon: f64, radius_m: f64) -> NoFlyZone {
        NoFlyZone::new(p(lat, lon), Distance::from_meters(radius_m))
    }

    #[test]
    fn rejects_non_positive_radius() {
        assert!(NoFlyZone::try_new(p(0.0, 0.0), Distance::from_meters(0.0)).is_err());
        assert!(NoFlyZone::try_new(p(0.0, 0.0), Distance::from_meters(-5.0)).is_err());
        assert!(NoFlyZone::try_new(p(0.0, 0.0), Distance::from_meters(f64::NAN)).is_err());
    }

    #[test]
    fn boundary_distance_signs() {
        let z = zone(40.0, -88.0, 1_000.0);
        let inside = p(40.0, -88.0);
        assert!(z.boundary_distance(&inside).meters() < 0.0);
        assert!(z.contains(&inside));
        let outside = z.center().destination(90.0, Distance::from_meters(2_000.0));
        let d = z.boundary_distance(&outside);
        assert!((d.meters() - 1_000.0).abs() < 1.0, "got {}", d.meters());
        assert!(!z.contains(&outside));
    }

    #[test]
    fn point_on_boundary_not_contained() {
        let z = zone(40.0, -88.0, 1_000.0);
        let on = z.center().destination(0.0, Distance::from_meters(1_000.0));
        // Within numerical tolerance the boundary itself is not "inside".
        assert!(z.boundary_distance(&on).meters().abs() < 0.01);
    }

    #[test]
    fn nearest_picks_closest_boundary() {
        let mut zs = ZoneSet::new();
        zs.push(zone(40.0, -88.0, 100.0)); // far
        zs.push(zone(40.01, -88.0, 100.0)); // near
        let q = p(40.012, -88.0);
        let n = zs.nearest(&q).unwrap();
        assert!((n.center().lat_deg() - 40.01).abs() < 1e-12);
    }

    #[test]
    fn nearest_prefers_containing_zone() {
        let mut zs = ZoneSet::new();
        // A big zone containing q, and a small zone whose boundary is closer
        // in absolute terms but q is outside it.
        zs.push(zone(40.0, -88.0, 5_000.0));
        zs.push(zone(40.05, -88.0, 10.0));
        let q = p(40.0, -88.0);
        let n = zs.nearest(&q).unwrap();
        assert!(n.contains(&q));
    }

    #[test]
    fn nearest_tie_goes_to_the_first_zone() {
        // Two zones of one radius mirrored across q's meridian: their
        // longitude offsets differ only in sign, so the distances tie
        // exactly, and the scan keeps the first, as `Iterator::min_by`
        // does.
        let west = zone(40.0, -0.001, 50.0);
        let east = zone(40.0, 0.001, 50.0);
        let q = p(40.0, 0.0);
        assert_eq!(
            west.boundary_distance(&q).meters(),
            east.boundary_distance(&q).meters()
        );
        for (first, second) in [(west, east), (east, west)] {
            let zs: ZoneSet = [first, second].into_iter().collect();
            let (n, d) = zs.nearest_with_distance(&q).unwrap();
            assert_eq!(n.center(), first.center());
            assert_eq!(zs.nearest(&q).unwrap().center(), first.center());
            assert_eq!(d, first.boundary_distance(&q));
            assert_eq!(zs.nearest_boundary_distance(&q), Some(d));
        }
    }

    #[test]
    fn nearest_of_empty_is_none() {
        let zs = ZoneSet::new();
        assert!(zs.nearest(&p(0.0, 0.0)).is_none());
        assert!(zs.nearest_boundary_distance(&p(0.0, 0.0)).is_none());
    }

    #[test]
    fn center_within_rect_filters() {
        let zones = [
            zone(40.0, -88.0, 10.0),
            zone(41.0, -88.0, 10.0),
            zone(40.5, -87.0, 10.0),
        ];
        // Rectangle corners in either order.
        let inside: Vec<_> = zones
            .iter()
            .filter(|z| z.center_within_rect(&p(40.9, -88.5), &p(39.9, -87.5)))
            .collect();
        assert_eq!(inside.len(), 1);
        assert!((inside[0].center().lat_deg() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn any_contains() {
        let zs: ZoneSet = [zone(40.0, -88.0, 1_000.0)].into_iter().collect();
        assert!(zs.any_contains(&p(40.0, -88.0)));
        assert!(!zs.any_contains(&p(41.0, -88.0)));
    }

    #[test]
    fn collect_and_extend() {
        let mut zs: ZoneSet = std::iter::once(zone(40.0, -88.0, 1.0)).collect();
        zs.extend([zone(41.0, -88.0, 1.0)]);
        assert_eq!(zs.len(), 2);
        assert_eq!(zs.iter().count(), 2);
        assert_eq!((&zs).into_iter().count(), 2);
        assert_eq!(zs.clone().into_iter().count(), 2);
    }
}
