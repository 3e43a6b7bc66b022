//! Plan → fly → verify: the full loop of protocol step 3's implied
//! planner. A drone whose direct path crosses a registered zone plans a
//! detour, flies it, and the PoA verifies compliant; flying the direct
//! path instead is caught.

use std::sync::{Arc, OnceLock};

use alidrone::core::{Auditor, AuditorConfig, DroneOperator, SamplingStrategy, Verdict};
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::planner::route_is_clear;
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, GeoPoint, NoFlyZone, Speed};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::tee::{CostModel, SecureWorldBuilder};
use alidrone_crypto::rng::XorShift64;

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

/// Builds a trajectory following the planned waypoints at 30 mph.
fn trajectory_from_route(route: &[GeoPoint]) -> alidrone::geo::trajectory::Trajectory {
    let mut b = TrajectoryBuilder::start_at(route[0]);
    for wp in &route[1..] {
        b = b.travel_to(*wp, Speed::from_mph(30.0));
    }
    b.build().unwrap()
}

#[test]
fn planned_detour_flight_is_compliant_but_direct_is_not() {
    let mut rng = XorShift64::seed_from_u64(200);
    let goal = pad().destination(90.0, Distance::from_km(1.0));
    // Zone dead on the direct path.
    let zone = NoFlyZone::new(
        pad().destination(90.0, Distance::from_meters(500.0)),
        Distance::from_meters(60.0),
    );

    let auditor = Auditor::new(AuditorConfig::default(), key(201));
    auditor.register_zone(zone);
    let zones = auditor.zone_set();

    let fly = |route: &[GeoPoint], tee_seed: u64, auditor: &Auditor, rng: &mut XorShift64| {
        let traj = trajectory_from_route(route);
        let flight_time = traj.total_duration();
        let clock = SimClock::new();
        let receiver = Arc::new(SimulatedReceiver::from_trajectory(traj, clock.clone(), 5.0));
        let world = SecureWorldBuilder::new()
            .with_sign_key(key(tee_seed))
            .with_gps_device(Box::new(Arc::clone(&receiver)))
            .with_cost_model(CostModel::free())
            .build()
            .unwrap();
        let mut operator = DroneOperator::new(key(tee_seed + 100), world.client());
        operator.register_with(auditor).unwrap();
        let record = operator
            .fly(
                &clock,
                receiver.as_ref(),
                &auditor.zone_set(),
                SamplingStrategy::FixedRate(5.0),
                flight_time,
            )
            .unwrap();
        operator
            .submit_encrypted(auditor, &record, clock.now(), rng)
            .unwrap()
    };

    // Plan a detour and fly it.
    let planner_operator = DroneOperator::new(
        key(202),
        SecureWorldBuilder::new()
            .with_sign_key(key(203))
            .build()
            .unwrap()
            .client(),
    );
    let margin = Distance::from_meters(30.0);
    let route = planner_operator
        .plan_route(pad(), goal, &zones, margin)
        .unwrap();
    assert!(route.len() >= 3, "expected a detour waypoint");
    assert!(route_is_clear(&route, &zones, margin));
    let report = fly(&route, 210, &auditor, &mut rng);
    assert!(report.is_compliant(), "detour verdict {}", report.verdict);

    // Flying the direct line violates the zone.
    let direct = vec![pad(), goal];
    let report = fly(&direct, 220, &auditor, &mut rng);
    assert!(matches!(report.verdict, Verdict::InsideZone { .. }));
}

/// The corner-case this reproduction discovered: along a planned detour
/// with a sharp waypoint turn between zones, the paper's nearest-zone
/// trigger (Algorithm 1 as printed) fires too late and leaves an
/// insufficient pair, while the pairwise-safe variant does not.
#[test]
fn nearest_zone_heuristic_fails_at_sharp_turns_pairwise_fixes_it() {
    let goal = pad().destination(90.0, Distance::from_km(2.0));
    let auditor = Auditor::new(AuditorConfig::default(), key(401));
    for (east_m, north_m, r_m) in [
        (600.0, 0.0, 70.0),
        (1_100.0, 60.0, 50.0),
        (1_500.0, -50.0, 60.0),
    ] {
        auditor.register_zone(NoFlyZone::new(
            pad()
                .destination(90.0, Distance::from_meters(east_m))
                .destination(0.0, Distance::from_meters(north_m)),
            Distance::from_meters(r_m),
        ));
    }
    let zones = auditor.zone_set();
    let margin = Distance::from_meters(25.0);
    let planner_operator = DroneOperator::new(
        key(402),
        SecureWorldBuilder::new()
            .with_sign_key(key(403))
            .build()
            .unwrap()
            .client(),
    );
    let route = planner_operator
        .plan_route(pad(), goal, &zones, margin)
        .unwrap();
    assert!(route.len() >= 3, "need a turn to exercise the corner case");

    let insufficient = |strategy: SamplingStrategy, seed: u64| {
        let traj = trajectory_from_route(&route);
        let flight_time = traj.total_duration();
        let clock = SimClock::new();
        let receiver = Arc::new(SimulatedReceiver::from_trajectory(traj, clock.clone(), 5.0));
        let world = SecureWorldBuilder::new()
            .with_sign_key(key(seed))
            .with_gps_device(Box::new(Arc::clone(&receiver)))
            .with_cost_model(CostModel::free())
            .build()
            .unwrap();
        let operator = DroneOperator::new(key(seed + 50), world.client());
        let record = operator
            .fly(&clock, receiver.as_ref(), &zones, strategy, flight_time)
            .unwrap();
        alidrone::geo::sufficiency::count_insufficient_pairs(
            &record.poa.alibi(),
            &zones,
            alidrone::geo::FAA_MAX_SPEED,
        )
    };

    let nearest = insufficient(SamplingStrategy::Adaptive, 410);
    let pairwise = insufficient(SamplingStrategy::AdaptivePairwise, 420);
    assert!(
        nearest >= 1,
        "expected the nearest-zone rule to miss the turn (got {nearest})"
    );
    assert_eq!(pairwise, 0, "pairwise-safe variant must close the gap");
}

#[test]
fn planner_threads_multiple_zones_and_adaptive_poa_verifies() {
    let mut rng = XorShift64::seed_from_u64(300);
    let goal = pad().destination(90.0, Distance::from_km(2.0));
    let auditor = Auditor::new(AuditorConfig::default(), key(301));
    for i in 0..4 {
        auditor.register_zone(NoFlyZone::new(
            pad()
                .destination(90.0, Distance::from_meters(400.0 + i as f64 * 400.0))
                .destination(
                    0.0,
                    Distance::from_meters(if i % 2 == 0 { 40.0 } else { -40.0 }),
                ),
            Distance::from_meters(50.0),
        ));
    }
    let zones = auditor.zone_set();
    let margin = Distance::from_meters(25.0);

    let planner_operator = DroneOperator::new(
        key(302),
        SecureWorldBuilder::new()
            .with_sign_key(key(303))
            .build()
            .unwrap()
            .client(),
    );
    let route = planner_operator
        .plan_route(pad(), goal, &zones, margin)
        .unwrap();
    assert!(route_is_clear(&route, &zones, margin));

    let traj = trajectory_from_route(&route);
    let flight_time = traj.total_duration();
    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(traj, clock.clone(), 5.0));
    let world = SecureWorldBuilder::new()
        .with_sign_key(key(304))
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_cost_model(CostModel::free())
        .build()
        .unwrap();
    let mut operator = DroneOperator::new(key(305), world.client());
    operator.register_with(&auditor).unwrap();
    let record = operator
        .fly(
            &clock,
            receiver.as_ref(),
            &zones,
            SamplingStrategy::Adaptive,
            flight_time,
        )
        .unwrap();
    let report = operator
        .submit_encrypted(&auditor, &record, clock.now(), &mut rng)
        .unwrap();
    assert!(report.is_compliant(), "verdict {}", report.verdict);
}
