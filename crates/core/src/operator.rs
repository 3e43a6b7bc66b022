//! The Drone Operator role.

use std::fmt;

use alidrone_crypto::rng::Rng;
use alidrone_crypto::rsa::RsaPrivateKey;
use alidrone_geo::{Duration, GeoPoint, Timestamp, ZoneSet};
use alidrone_gps::{GpsDevice, SimClock};
use alidrone_tee::{TeeClient, GPS_SAMPLER_UUID};

use crate::auditor::{Auditor, VerificationReport};
use crate::flight::{run_flight, FlightRecord, SamplingStrategy};
use crate::messages::{PoaSubmission, Submission, ZoneQuery, ZoneResponse};
use crate::{DroneId, ProtocolError};

/// A drone operator: owns the operator keypair `D`, holds the drone's
/// TEE client, and speaks the protocol with the auditor.
///
/// Note that in the threat model the operator is the *adversary*; this
/// type implements the honest behaviour, and the attack suite builds
/// dishonest variants on top of the same primitives.
pub struct DroneOperator {
    key: RsaPrivateKey,
    tee: TeeClient,
    drone_id: Option<DroneId>,
}

impl DroneOperator {
    /// Creates an operator with their keypair and the drone's TEE.
    pub fn new(key: RsaPrivateKey, tee: TeeClient) -> Self {
        DroneOperator {
            key,
            tee,
            drone_id: None,
        }
    }

    /// The issued drone id, if registered.
    pub fn drone_id(&self) -> Option<DroneId> {
        self.drone_id
    }

    /// The TEE client for this drone.
    pub fn tee(&self) -> &TeeClient {
        &self.tee
    }

    /// Step 0 — registers with the auditor, submitting `D⁺` and `T⁺`.
    /// The id is kept only once the registration commits.
    ///
    /// # Errors
    ///
    /// The auditor's refusal or a failed write, as
    /// [`Auditor::register_drone_durable`] reports it;
    /// [`drone_id`](Self::drone_id) then stays as it was.
    pub fn register_with(&mut self, auditor: &Auditor) -> Result<DroneId, ProtocolError> {
        let id = auditor
            .register_drone_durable(self.key.public_key().clone(), self.tee.tee_public_key())?;
        self.drone_id = Some(id);
        Ok(id)
    }

    /// Steps 2–3 — queries the auditor for zones within the rectangular
    /// navigation area.
    ///
    /// # Errors
    ///
    /// Fails if the drone is unregistered or the auditor rejects the
    /// query.
    pub fn query_zones<R: Rng + ?Sized>(
        &self,
        auditor: &Auditor,
        corner1: GeoPoint,
        corner2: GeoPoint,
        rng: &mut R,
    ) -> Result<ZoneResponse, ProtocolError> {
        let drone_id = self
            .drone_id
            .ok_or(ProtocolError::Malformed("drone not registered"))?;
        let mut nonce = [0u8; 16];
        rng.fill_bytes(&mut nonce);
        let query = ZoneQuery::new_signed(drone_id, corner1, corner2, nonce, &self.key)?;
        auditor.handle_zone_query(&query)
    }

    /// Plans a compliant route to `goal` around the queried zones with
    /// the given clearance margin (paper §IV-B step 3: "the drone can
    /// use the NFZ information to compute a viable route to its
    /// destination").
    ///
    /// # Errors
    ///
    /// Wraps [`PlanError`](alidrone_geo::planner::PlanError) as a
    /// [`ProtocolError::Malformed`] (the caller has the typed planner
    /// available in `alidrone_geo::planner` when it needs detail).
    pub fn plan_route(
        &self,
        start: GeoPoint,
        goal: GeoPoint,
        zones: &ZoneSet,
        margin: alidrone_geo::Distance,
    ) -> Result<Vec<GeoPoint>, ProtocolError> {
        alidrone_geo::planner::plan_route(start, goal, zones, margin)
            .map_err(|_| ProtocolError::Malformed("no compliant route"))
    }

    /// Flies the drone: runs the sampling loop against the shared
    /// receiver and the TEE's GPS Sampler session.
    ///
    /// # Errors
    ///
    /// Propagates TEE/session failures.
    pub fn fly(
        &self,
        clock: &SimClock,
        receiver: &dyn GpsDevice,
        zones: &ZoneSet,
        strategy: SamplingStrategy,
        duration: Duration,
    ) -> Result<FlightRecord, ProtocolError> {
        let session = self.tee.open_session(GPS_SAMPLER_UUID)?;
        run_flight(clock, receiver, &session, zones, strategy, duration)
    }

    /// Step 4 — submits the flight's PoA to the auditor in plaintext.
    ///
    /// # Errors
    ///
    /// Fails if unregistered or the auditor rejects the transport.
    pub fn submit(
        &self,
        auditor: &Auditor,
        record: &FlightRecord,
        now: Timestamp,
    ) -> Result<VerificationReport, ProtocolError> {
        let drone_id = self
            .drone_id
            .ok_or(ProtocolError::Malformed("drone not registered"))?;
        auditor.verify(
            &Submission::plain(PoaSubmission {
                drone_id,
                window_start: record.window_start,
                window_end: record.window_end,
                poa: record.poa.clone(),
            }),
            now,
        )
    }

    /// Step 4, encrypted — the Adapter encrypts the PoA under the
    /// auditor's public key before it leaves the drone (paper §V-C).
    ///
    /// # Errors
    ///
    /// Adds encryption failures to those of [`submit`](Self::submit).
    pub fn submit_encrypted<R: Rng + ?Sized>(
        &self,
        auditor: &Auditor,
        record: &FlightRecord,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<VerificationReport, ProtocolError> {
        let drone_id = self
            .drone_id
            .ok_or(ProtocolError::Malformed("drone not registered"))?;
        let encrypted = record.poa.encrypt(auditor.public_encryption_key(), rng)?;
        auditor.verify(
            &Submission::encrypted(drone_id, record.window_start, record.window_end, encrypted),
            now,
        )
    }
}

impl fmt::Debug for DroneOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DroneOperator")
            .field("drone_id", &self.drone_id)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::AuditorConfig;
    use crate::test_support::{auditor_key, operator_key, origin, tee_key};
    use alidrone_crypto::rng::XorShift64;
    use alidrone_geo::trajectory::TrajectoryBuilder;
    use alidrone_geo::{Distance, NoFlyZone, Speed};
    use alidrone_gps::SimulatedReceiver;
    use alidrone_tee::{CostModel, SecureWorldBuilder};
    use std::sync::Arc;

    fn setup() -> (SimClock, Arc<SimulatedReceiver>, DroneOperator, Auditor) {
        let a = origin();
        let b = a.destination(90.0, Distance::from_meters(600.0));
        let traj = TrajectoryBuilder::start_at(a)
            .travel_to(b, Speed::from_mps(10.0))
            .build()
            .unwrap();
        let clock = SimClock::new();
        let receiver = Arc::new(SimulatedReceiver::from_trajectory(traj, clock.clone(), 5.0));
        let world = SecureWorldBuilder::new()
            .with_sign_key(tee_key().clone())
            .with_gps_device(Box::new(Arc::clone(&receiver)))
            .with_cost_model(CostModel::free())
            .build()
            .unwrap();
        let operator = DroneOperator::new(operator_key().clone(), world.client());
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        (clock, receiver, operator, auditor)
    }

    #[test]
    fn a_failed_registration_keeps_no_id() {
        let (_, _, mut operator, _) = setup();
        let backend = Arc::new(crate::journal::MemBackend::new());
        let (auditor, _) = Auditor::recover(
            backend.clone(),
            AuditorConfig::default(),
            auditor_key().clone(),
        )
        .unwrap();
        backend.fail_next_append();
        assert!(matches!(
            operator.register_with(&auditor),
            Err(ProtocolError::Storage(_))
        ));
        assert_eq!(operator.drone_id(), None);
        // Writes stay stopped after a failed append, so a retry is
        // refused the same way and still records no id.
        assert!(operator.register_with(&auditor).is_err());
        assert_eq!(operator.drone_id(), None);
    }

    #[test]
    fn full_honest_protocol_run() {
        let (clock, receiver, mut operator, auditor) = setup();
        let mut rng = XorShift64::seed_from_u64(41);

        // Registration.
        let id = operator.register_with(&auditor).unwrap();
        assert_eq!(operator.drone_id(), Some(id));

        // A zone near (but off) the flight path.
        auditor.register_zone(NoFlyZone::new(
            origin()
                .destination(90.0, Distance::from_meters(300.0))
                .destination(0.0, Distance::from_meters(100.0)),
            Distance::from_meters(30.0),
        ));

        // Zone query for the navigation area.
        let resp = operator
            .query_zones(
                &auditor,
                origin().destination(225.0, Distance::from_km(2.0)),
                origin().destination(45.0, Distance::from_km(2.0)),
                &mut rng,
            )
            .unwrap();
        assert_eq!(resp.zones.len(), 1);

        // Fly adaptively, then submit.
        let record = operator
            .fly(
                &clock,
                receiver.as_ref(),
                &resp.zone_set(),
                SamplingStrategy::Adaptive,
                Duration::from_secs(60.0),
            )
            .unwrap();
        let report = operator.submit(&auditor, &record, clock.now()).unwrap();
        assert!(report.is_compliant(), "verdict {}", report.verdict);
    }

    #[test]
    fn encrypted_submission_also_compliant() {
        let (clock, receiver, mut operator, auditor) = setup();
        let mut rng = XorShift64::seed_from_u64(43);
        operator.register_with(&auditor).unwrap();
        let record = operator
            .fly(
                &clock,
                receiver.as_ref(),
                &ZoneSet::new(),
                SamplingStrategy::FixedRate(1.0),
                Duration::from_secs(20.0),
            )
            .unwrap();
        let report = operator
            .submit_encrypted(&auditor, &record, clock.now(), &mut rng)
            .unwrap();
        assert!(report.is_compliant());
    }

    #[test]
    fn unregistered_operator_cannot_query_or_submit() {
        let (clock, receiver, operator, auditor) = setup();
        let mut rng = XorShift64::seed_from_u64(44);
        assert!(operator
            .query_zones(&auditor, origin(), origin(), &mut rng)
            .is_err());
        let record = operator
            .fly(
                &clock,
                receiver.as_ref(),
                &ZoneSet::new(),
                SamplingStrategy::FixedRate(1.0),
                Duration::from_secs(5.0),
            )
            .unwrap();
        assert!(operator.submit(&auditor, &record, clock.now()).is_err());
    }
}
