//! The Zone Owner role.

use alidrone_geo::polygon::PolygonZone;
use alidrone_geo::{GeoError, NoFlyZone, Timestamp};

use crate::auditor::Auditor;
use crate::messages::Accusation;
use crate::{DroneId, ProtocolError, ZoneId};

/// A property owner who registers a no-fly zone over their land and may
/// report sighted drones (paper §III-A).
#[derive(Debug, Clone)]
pub struct ZoneOwner {
    zone: NoFlyZone,
    zone_id: Option<ZoneId>,
}

impl ZoneOwner {
    /// Creates an owner of a circular property zone.
    pub fn new(zone: NoFlyZone) -> Self {
        ZoneOwner {
            zone,
            zone_id: None,
        }
    }

    /// Creates an owner of a polygonal property; the zone stored is the
    /// polygon's smallest enclosing circle (§VII-B2).
    ///
    /// # Errors
    ///
    /// Propagates degenerate-polygon errors.
    pub fn with_polygon(polygon: &PolygonZone) -> Result<Self, GeoError> {
        Ok(ZoneOwner {
            zone: polygon.enclosing_zone(),
            zone_id: None,
        })
    }

    /// The property zone.
    pub fn zone(&self) -> &NoFlyZone {
        &self.zone
    }

    /// The issued zone id, if registered.
    pub fn zone_id(&self) -> Option<ZoneId> {
        self.zone_id
    }

    /// Step 1 — registers the zone with the auditor. The id is kept
    /// only once the registration commits.
    ///
    /// # Errors
    ///
    /// The auditor's refusal or a failed write, as
    /// [`Auditor::register_zone_durable`] reports it; [`zone_id`](Self::zone_id)
    /// then stays as it was.
    pub fn register_with(&mut self, auditor: &Auditor) -> Result<ZoneId, ProtocolError> {
        let id = auditor.register_zone_durable(self.zone)?;
        self.zone_id = Some(id);
        Ok(id)
    }

    /// Builds an accusation: "I saw `drone_id` near my zone at `time`".
    ///
    /// Returns `None` when the owner has not registered a zone yet (there
    /// is nothing to accuse against).
    pub fn report(&self, drone_id: DroneId, time: Timestamp) -> Option<Accusation> {
        Some(Accusation {
            zone_id: self.zone_id?,
            drone_id,
            time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::AuditorConfig;
    use crate::journal::MemBackend;
    use crate::test_support::{auditor_key, origin};
    use alidrone_geo::{Distance, GeoPoint};
    use std::sync::Arc;

    fn owner() -> ZoneOwner {
        ZoneOwner::new(NoFlyZone::new(origin(), Distance::from_meters(20.0)))
    }

    #[test]
    fn registration_issues_id() {
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let mut o = owner();
        assert!(o.zone_id().is_none());
        assert!(o.report(DroneId::new(1), Timestamp::EPOCH).is_none());
        let id = o.register_with(&auditor).unwrap();
        assert_eq!(o.zone_id(), Some(id));
        assert!(auditor.zone(id).is_some());
    }

    #[test]
    fn a_failed_registration_keeps_no_id() {
        let backend = Arc::new(MemBackend::new());
        let (auditor, _) = Auditor::recover(
            backend.clone(),
            AuditorConfig::default(),
            auditor_key().clone(),
        )
        .unwrap();
        let mut o = owner();
        backend.fail_next_append();
        assert!(matches!(
            o.register_with(&auditor),
            Err(ProtocolError::Storage(_))
        ));
        assert_eq!(o.zone_id(), None);
        assert!(o.report(DroneId::new(1), Timestamp::EPOCH).is_none());
        // Writes stay stopped after a failed append: the retry is
        // refused too, and the auditor serves no zone for either.
        assert!(o.register_with(&auditor).is_err());
        assert_eq!(o.zone_id(), None);
        assert!(auditor.zone(ZoneId::new(0)).is_none());
    }

    #[test]
    fn report_carries_ids_and_time() {
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let mut o = owner();
        let zid = o.register_with(&auditor).unwrap();
        let acc = o
            .report(DroneId::new(9), Timestamp::from_secs(55.0))
            .unwrap();
        assert_eq!(acc.zone_id, zid);
        assert_eq!(acc.drone_id, DroneId::new(9));
        assert!((acc.time.secs() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn polygon_owner_registers_enclosing_circle() {
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let verts: Vec<GeoPoint> = [0.0, 90.0, 180.0, 270.0]
            .iter()
            .map(|&b| origin().destination(b, Distance::from_meters(30.0)))
            .collect();
        let poly = PolygonZone::new(verts).unwrap();
        let mut o = ZoneOwner::with_polygon(&poly).unwrap();
        let id = o.register_with(&auditor).unwrap();
        let stored = auditor.zone(id).unwrap();
        assert!((stored.radius().meters() - 30.0).abs() < 0.5);
    }
}
