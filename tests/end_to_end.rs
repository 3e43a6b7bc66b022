//! End-to-end protocol tests spanning every crate: receiver → TEE →
//! sampler → PoA → auditor.

use std::sync::{Arc, OnceLock};

use alidrone::core::{
    AccusationOutcome, Auditor, AuditorConfig, DroneOperator, SamplingStrategy, ZoneOwner,
};
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, Duration, GeoPoint, NoFlyZone, Speed, Timestamp};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::obs::Obs;
use alidrone::tee::{CostModel, SecureWorldBuilder, TeeClient};
use alidrone_crypto::rng::XorShift64;

/// Per-seed key cache: 512-bit keygen in debug builds is slow enough
/// that regenerating per test would dominate the suite.
fn key(seed: u64) -> RsaPrivateKey {
    use std::collections::HashMap;
    use std::sync::Mutex;
    static KEYS: OnceLock<Mutex<HashMap<u64, RsaPrivateKey>>> = OnceLock::new();
    let cache = KEYS.get_or_init(Default::default);
    let mut map = cache.lock().unwrap();
    map.entry(seed)
        .or_insert_with(|| {
            let mut rng = XorShift64::seed_from_u64(seed);
            RsaPrivateKey::generate(512, &mut rng)
        })
        .clone()
}

fn pad() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).unwrap()
}

struct Rig {
    clock: SimClock,
    receiver: Arc<SimulatedReceiver>,
    tee: TeeClient,
    flight_time: Duration,
}

fn rig(route_dist_m: f64, tee_seed: u64) -> Rig {
    let end = pad().destination(90.0, Distance::from_meters(route_dist_m));
    let route = TrajectoryBuilder::start_at(pad())
        .travel_to(end, Speed::from_mph(30.0))
        .build()
        .unwrap();
    let flight_time = route.total_duration();
    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));
    let world = SecureWorldBuilder::new()
        .with_sign_key(key(tee_seed))
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_cost_model(CostModel::free())
        .build()
        .unwrap();
    Rig {
        clock,
        receiver,
        tee: world.client(),
        flight_time,
    }
}

fn auditor() -> Auditor {
    Auditor::new(AuditorConfig::default(), key(1))
}

#[test]
fn honest_flight_full_protocol() {
    let mut rng = XorShift64::seed_from_u64(100);
    let r = rig(900.0, 10);
    let auditor = auditor();
    let mut operator = DroneOperator::new(key(2), r.tee.clone());
    let drone_id = operator.register_with(&auditor).unwrap();

    // Zone owner registers a zone beside (not on) the route.
    let mut owner = ZoneOwner::new(NoFlyZone::new(
        pad()
            .destination(90.0, Distance::from_meters(450.0))
            .destination(0.0, Distance::from_meters(70.0)),
        Distance::from_feet(20.0),
    ));
    owner.register_with(&auditor).unwrap();

    let zones = operator
        .query_zones(
            &auditor,
            pad().destination(225.0, Distance::from_km(2.0)),
            pad().destination(45.0, Distance::from_km(2.0)),
            &mut rng,
        )
        .unwrap()
        .zone_set();
    assert_eq!(zones.len(), 1);

    let record = operator
        .fly(
            &r.clock,
            r.receiver.as_ref(),
            &zones,
            SamplingStrategy::Adaptive,
            r.flight_time,
        )
        .unwrap();
    let report = operator
        .submit_encrypted(&auditor, &record, r.clock.now(), &mut rng)
        .unwrap();
    assert!(report.is_compliant(), "verdict {}", report.verdict);

    // Owner accuses mid-flight; the stored PoA refutes it.
    let accusation = owner
        .report(drone_id, record.window_start + r.flight_time * 0.5)
        .unwrap();
    assert_eq!(
        auditor.handle_accusation(&accusation).unwrap(),
        AccusationOutcome::Refuted
    );
}

#[test]
fn violating_flight_is_caught_and_accusation_upheld() {
    let mut rng = XorShift64::seed_from_u64(101);
    let r = rig(900.0, 11);
    let auditor = auditor();
    let mut operator = DroneOperator::new(key(3), r.tee.clone());
    let drone_id = operator.register_with(&auditor).unwrap();

    // Zone directly on the route.
    let mut owner = ZoneOwner::new(NoFlyZone::new(
        pad().destination(90.0, Distance::from_meters(450.0)),
        Distance::from_feet(25.0),
    ));
    owner.register_with(&auditor).unwrap();

    let zones = auditor.zone_set();
    let record = operator
        .fly(
            &r.clock,
            r.receiver.as_ref(),
            &zones,
            SamplingStrategy::FixedRate(5.0),
            r.flight_time,
        )
        .unwrap();
    let report = operator
        .submit_encrypted(&auditor, &record, r.clock.now(), &mut rng)
        .unwrap();
    assert!(!report.is_compliant());

    let accusation = owner
        .report(drone_id, record.window_start + r.flight_time * 0.5)
        .unwrap();
    assert!(matches!(
        auditor.handle_accusation(&accusation).unwrap(),
        AccusationOutcome::Upheld { .. }
    ));
}

#[test]
fn multiple_drones_one_auditor() {
    let mut rng = XorShift64::seed_from_u64(102);
    let auditor = auditor();
    auditor.register_zone(NoFlyZone::new(
        pad().destination(0.0, Distance::from_km(10.0)),
        Distance::from_meters(100.0),
    ));
    let mut ids = Vec::new();
    for (i, dist) in [600.0, 900.0, 1_200.0].iter().enumerate() {
        let r = rig(*dist, 20 + i as u64);
        let mut operator = DroneOperator::new(key(30 + i as u64), r.tee.clone());
        let id = operator.register_with(&auditor).unwrap();
        ids.push(id);
        let record = operator
            .fly(
                &r.clock,
                r.receiver.as_ref(),
                &auditor.zone_set(),
                SamplingStrategy::Adaptive,
                r.flight_time,
            )
            .unwrap();
        let report = operator
            .submit_encrypted(&auditor, &record, r.clock.now(), &mut rng)
            .unwrap();
        assert!(report.is_compliant());
    }
    assert_eq!(auditor.drone_count(), 3);
    assert_eq!(auditor.stored_poa_count(), 3);
    // Ids are distinct.
    ids.dedup();
    assert_eq!(ids.len(), 3);
}

#[test]
fn nonce_replay_rejected_across_flights() {
    let mut rng = XorShift64::seed_from_u64(103);
    let r = rig(500.0, 12);
    let auditor = auditor();
    let mut operator = DroneOperator::new(key(4), r.tee.clone());
    operator.register_with(&auditor).unwrap();
    // Two queries with independent nonces succeed...
    operator
        .query_zones(&auditor, pad(), pad(), &mut rng)
        .unwrap();
    operator
        .query_zones(&auditor, pad(), pad(), &mut rng)
        .unwrap();
    // ...a verbatim replay of a captured query does not.
    let q = alidrone::core::ZoneQuery::new_signed(
        operator.drone_id().unwrap(),
        pad(),
        pad(),
        [9u8; 16],
        &key(4),
    )
    .unwrap();
    auditor.handle_zone_query(&q).unwrap();
    assert!(auditor.handle_zone_query(&q).is_err());
}

#[test]
fn poa_retention_expires() {
    let mut rng = XorShift64::seed_from_u64(104);
    let r = rig(500.0, 13);
    let auditor = auditor();
    let mut operator = DroneOperator::new(key(5), r.tee.clone());
    let drone_id = operator.register_with(&auditor).unwrap();
    let record = operator
        .fly(
            &r.clock,
            r.receiver.as_ref(),
            &auditor.zone_set(),
            SamplingStrategy::FixedRate(1.0),
            r.flight_time,
        )
        .unwrap();
    operator
        .submit_encrypted(&auditor, &record, r.clock.now(), &mut rng)
        .unwrap();
    assert_eq!(auditor.stored_poa_count(), 1);
    // Three days later the 2-day retention has purged it; a late
    // accusation can no longer be refuted.
    let mut owner = ZoneOwner::new(NoFlyZone::new(
        pad().destination(0.0, Distance::from_km(5.0)),
        Distance::from_meters(50.0),
    ));
    owner.register_with(&auditor).unwrap();
    auditor
        .purge_expired(Timestamp::from_secs(3.0 * 86_400.0))
        .unwrap();
    assert_eq!(auditor.stored_poa_count(), 0);
    let accusation = owner
        .report(drone_id, record.window_start + r.flight_time * 0.5)
        .unwrap();
    assert!(matches!(
        auditor.handle_accusation(&accusation).unwrap(),
        AccusationOutcome::Upheld { .. }
    ));
}

#[test]
fn tee_modelled_cost_tracks_flight() {
    let end = pad().destination(90.0, Distance::from_meters(500.0));
    let route = TrajectoryBuilder::start_at(pad())
        .travel_to(end, Speed::from_mph(30.0))
        .build()
        .unwrap();
    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));
    let obs = Obs::noop();
    let world = SecureWorldBuilder::new()
        .with_sign_key(key(14))
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_cost_model(CostModel::raspberry_pi_3())
        .with_obs(&obs)
        .build()
        .unwrap();
    let operator = DroneOperator::new(key(6), world.client());
    let record = operator
        .fly(
            &clock,
            receiver.as_ref(),
            &alidrone::geo::ZoneSet::new(),
            SamplingStrategy::FixedRate(2.0),
            Duration::from_secs(20.0),
        )
        .unwrap();
    let snap = obs.snapshot();
    let signatures = snap.counter("tee.signatures");
    assert_eq!(signatures as usize, record.sample_count());
    // Modelled busy time is the sum of the three cost histograms' sums.
    // Each GetGPSAuth pays sign_cost(512) = sign_1024 / 8 = 5.125 ms
    // plus two 0.75 ms switches and a 0.3 ms driver read.
    let busy_micros: u64 = [
        "tee.cost.world_switch",
        "tee.cost.read_gps",
        "tee.cost.sign",
    ]
    .iter()
    .map(|name| snap.histogram(name).map_or(0, |h| h.sum_micros))
    .sum();
    let per_call = (world.cost_model().get_gps_auth_cost(512).secs() * 1e6).round() as u64;
    assert_eq!(per_call, 6_925);
    assert_eq!(busy_micros, signatures * per_call);
}
