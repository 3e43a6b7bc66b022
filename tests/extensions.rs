//! Integration tests for the paper's §VII extensions, exercised through
//! the public cross-crate API.

use std::sync::{Arc, OnceLock};

use alidrone::core::privacy::{check_sealed_accusation, PrivatePoa};
use alidrone::core::symmetric::establish_flight_key;
use alidrone::core::{
    AccusationOutcome, Auditor, AuditorConfig, DroneOperator, SamplingStrategy, ZoneOwner,
};
use alidrone::crypto::dh::DhGroup;
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::polygon::PolygonZone;
use alidrone::geo::three_d::{CylinderZone, GpsSample3d, ReachableSet3d};
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, Duration, GeoPoint, NoFlyZone, Speed, Timestamp, FAA_MAX_SPEED};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::obs::Obs;
use alidrone::tee::{CostModel, SecureWorldBuilder, GPS_SAMPLER_UUID};
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

#[test]
fn polygon_zone_registration_end_to_end() {
    // §VII-B2: a zone owner registers an L-shaped lot; the auditor covers
    // it with the smallest enclosing circle and verification uses that.
    let auditor = Auditor::new(AuditorConfig::default(), key(80));
    let verts: Vec<GeoPoint> = [
        (0.0, 0.0),
        (60.0, 0.0),
        (60.0, 30.0),
        (30.0, 30.0),
        (30.0, 60.0),
        (0.0, 60.0),
    ]
    .iter()
    .map(|&(e, n)| {
        pad()
            .destination(90.0, Distance::from_meters(e))
            .destination(0.0, Distance::from_meters(n))
    })
    .collect();
    let poly = PolygonZone::new(verts.clone()).unwrap();
    let zid = ZoneOwner::with_polygon(&poly)
        .unwrap()
        .register_with(&auditor)
        .unwrap();
    let zone = auditor.zone(zid).unwrap();
    // Every vertex covered.
    for v in &verts {
        assert!(zone.boundary_distance(v).meters() <= 0.5);
    }
    // A point well inside the L is inside the covering circle.
    let inside = pad()
        .destination(90.0, Distance::from_meters(15.0))
        .destination(0.0, Distance::from_meters(15.0));
    assert!(zone.contains(&inside));
}

#[test]
fn three_d_overflight_legal_but_low_pass_is_not() {
    // §VII-B1: a cylinder NFZ up to 60 m; flying over at 200 m proves
    // alibi, skimming at 20 m does not.
    let zone = CylinderZone::new(
        pad(),
        Distance::from_meters(30.0),
        Distance::from_meters(60.0),
    )
    .unwrap();
    let west = pad().destination(270.0, Distance::from_meters(50.0));
    let east = pad().destination(90.0, Distance::from_meters(50.0));

    let high1 = GpsSample3d::new(
        west,
        Distance::from_meters(200.0),
        Timestamp::from_secs(0.0),
    )
    .unwrap();
    let high2 = GpsSample3d::new(
        east,
        Distance::from_meters(200.0),
        Timestamp::from_secs(3.0),
    )
    .unwrap();
    let e = ReachableSet3d::from_samples(&high1, &high2, FAA_MAX_SPEED).unwrap();
    assert!(!e.intersects_zone(&zone), "high overflight must be clear");

    let low1 =
        GpsSample3d::new(west, Distance::from_meters(20.0), Timestamp::from_secs(0.0)).unwrap();
    let low2 =
        GpsSample3d::new(east, Distance::from_meters(20.0), Timestamp::from_secs(3.0)).unwrap();
    let e = ReachableSet3d::from_samples(&low1, &low2, FAA_MAX_SPEED).unwrap();
    assert!(e.intersects_zone(&zone), "low pass must be suspect");
}

#[test]
fn privacy_preserving_flow_end_to_end() {
    let mut rng = XorShift64::seed_from_u64(81);
    // Fly past a zone, seal the PoA, settle an accusation with a
    // two-sample reveal.
    let end = pad().destination(90.0, Distance::from_km(1.0));
    let zone = NoFlyZone::new(
        pad()
            .destination(90.0, Distance::from_meters(500.0))
            .destination(0.0, Distance::from_meters(80.0)),
        Distance::from_feet(25.0),
    );
    let route = TrajectoryBuilder::start_at(pad())
        .travel_to(end, Speed::from_mph(25.0))
        .build()
        .unwrap();
    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));
    let world = SecureWorldBuilder::new()
        .with_sign_key(key(82))
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_cost_model(CostModel::free())
        .build()
        .unwrap();
    let operator = DroneOperator::new(key(83), world.client());
    let zones = std::iter::once(zone).collect();
    let record = operator
        .fly(
            &clock,
            receiver.as_ref(),
            &zones,
            SamplingStrategy::Adaptive,
            Duration::from_secs(80.0),
        )
        .unwrap();

    let private = PrivatePoa::seal(&record.poa, &mut rng);
    let accused = Timestamp::from_secs(40.0);
    let (i, j) = private.sealed().bracketing_indices(accused).unwrap();
    let reveals = private.reveal(&[i, j]).unwrap();
    let outcome = check_sealed_accusation(
        private.sealed(),
        &reveals,
        &world.client().tee_public_key(),
        &zone,
        accused,
        FAA_MAX_SPEED,
    )
    .unwrap();
    assert_eq!(outcome, AccusationOutcome::Refuted);

    // A reveal for the wrong entries cannot settle it.
    let wrong = private.reveal(&[0]).unwrap();
    assert!(check_sealed_accusation(
        private.sealed(),
        &wrong,
        &world.client().tee_public_key(),
        &zone,
        accused,
        FAA_MAX_SPEED,
    )
    .is_err());
}

#[test]
fn symmetric_flight_key_authenticates_trace() {
    let mut rng = XorShift64::seed_from_u64(84);
    let (drone, auditor_side) = establish_flight_key(&DhGroup::test_512(), &mut rng).unwrap();
    // Authenticate a whole synthetic trace and verify every tag.
    for t in 0..50 {
        let s = alidrone::geo::GpsSample::new(
            pad().destination(90.0, Distance::from_meters(t as f64 * 5.0)),
            Timestamp::from_secs(t as f64),
        );
        let m = drone.authenticate(s);
        assert!(auditor_side.verify(&m));
    }
    // A second flight's session rejects the first flight's tags.
    let (drone2, _) = establish_flight_key(&DhGroup::test_512(), &mut rng).unwrap();
    let s = alidrone::geo::GpsSample::new(pad(), Timestamp::from_secs(0.0));
    let m = drone.authenticate(s);
    let m2 = drone2.authenticate(s);
    assert_ne!(m.tag, m2.tag);
}

#[test]
fn batch_signing_amortises_to_one_signature() {
    let end = pad().destination(90.0, Distance::from_meters(600.0));
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
        .with_sign_key(key(85))
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_cost_model(CostModel::raspberry_pi_3())
        .with_obs(&obs)
        .build()
        .unwrap();
    let session = world.client().open_session(GPS_SAMPLER_UUID).unwrap();

    // Cache 20 samples over 20 s, then a single SignTrace.
    for _ in 0..20 {
        clock.advance(Duration::from_secs(1.0));
        session.cache_sample().unwrap();
    }
    let trace = session.sign_trace().unwrap();
    assert_eq!(trace.samples().len(), 20);
    trace.verify(&world.client().tee_public_key()).unwrap();
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("tee.signatures"),
        1,
        "exactly one RSA operation"
    );
    assert_eq!(snap.counter("tee.gps_reads"), 20);
    // The alibi inside the batch trace is well-formed.
    assert!(alidrone::geo::check_monotonic(trace.samples()).is_ok());
    // Batch mode saves 19 of 20 signatures; caching still pays world
    // switches, so the win over 20 individual GetGPSAuth calls is the
    // signature cost (which dominates at real key sizes — for 1024-bit
    // keys the per-call cost is ~43 ms of which ~41 ms is the RSA op).
    let busy = [
        "tee.cost.world_switch",
        "tee.cost.read_gps",
        "tee.cost.sign",
    ]
    .iter()
    .map(|name| snap.histogram(name).map_or(0, |h| h.sum_micros))
    .sum::<u64>() as f64
        / 1e6;
    let individual = world.cost_model().get_gps_auth_cost(512).secs();
    let sign = world.cost_model().sign_cost(512).secs();
    assert!(
        busy < 20.0 * individual - 18.0 * sign,
        "batch busy {busy:.4}s vs 20 individual {:.4}s",
        20.0 * individual
    );
}

#[test]
fn spoof_detector_declines_authenticity_service() {
    // §VII-A2: a spoofer teleports the receiver mid-flight; the secure-
    // world detector latches suspicious and the GPS Sampler refuses to
    // sign from then on.
    use alidrone::gps::{GpsDevice, GpsFix};
    use alidrone::tee::{PlausibilityDetector, TeeError};

    /// A receiver that reports honest motion for 5 updates and then
    /// teleports 100 km away (the spoofed position).
    struct SpoofedReceiver {
        clock: SimClock,
    }
    impl GpsDevice for SpoofedReceiver {
        fn latest_fix(&self) -> Option<GpsFix> {
            let t = self.clock.now().secs();
            let k = t.floor() as u64;
            let east = if k < 5 {
                k as f64 * 10.0
            } else {
                100_000.0 + k as f64 * 10.0
            };
            Some(GpsFix {
                sample: alidrone::geo::GpsSample::new(
                    pad().destination(90.0, Distance::from_meters(east)),
                    Timestamp::from_secs(k as f64),
                ),
                speed: alidrone::geo::Speed::from_mps(10.0),
                sequence: k,
            })
        }
        fn update_rate_hz(&self) -> f64 {
            1.0
        }
    }

    let clock = SimClock::new();
    let world = SecureWorldBuilder::new()
        .with_sign_key(key(90))
        .with_gps_device(Box::new(SpoofedReceiver {
            clock: clock.clone(),
        }))
        .with_spoof_detector(Box::new(PlausibilityDetector::new()))
        .with_cost_model(CostModel::free())
        .build()
        .unwrap();
    let session = world.client().open_session(GPS_SAMPLER_UUID).unwrap();

    // Honest phase: signing works.
    for k in 0..5 {
        clock.set(Timestamp::from_secs(k as f64 + 0.5));
        session.get_gps_auth().unwrap();
    }
    // After the teleport: authenticity service declined, and it stays
    // declined (latched) even if later fixes look locally plausible.
    clock.set(Timestamp::from_secs(5.5));
    assert_eq!(session.get_gps_auth().err(), Some(TeeError::AccessDenied));
    clock.set(Timestamp::from_secs(6.5));
    assert_eq!(session.get_gps_auth().err(), Some(TeeError::AccessDenied));
    // Raw (unauthenticated) reads still work — only authenticity is
    // withdrawn.
    assert!(session.read_gps_raw().is_ok());
    // Batch caching is an authenticity service too.
    assert_eq!(session.cache_sample().err(), Some(TeeError::AccessDenied));
}

#[test]
fn exact_criterion_auditor_accepts_marginal_flights() {
    // Ablation: a trace that the paper criterion rejects but the exact
    // ellipse test accepts (zone beside the path at the margin).
    use alidrone::geo::sufficiency::Criterion;
    let mut rng = XorShift64::seed_from_u64(86);

    let run_with = |criterion: Criterion, rng: &mut XorShift64| {
        let end = pad().destination(90.0, Distance::from_meters(600.0));
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
        let world = SecureWorldBuilder::new()
            .with_sign_key(key(87))
            .with_gps_device(Box::new(Arc::clone(&receiver)))
            .with_cost_model(CostModel::free())
            .build()
            .unwrap();
        let auditor = Auditor::new(
            AuditorConfig {
                criterion,
                ..AuditorConfig::default()
            },
            key(88),
        );
        auditor.register_zone(NoFlyZone::new(
            pad()
                .destination(90.0, Distance::from_meters(300.0))
                .destination(0.0, Distance::from_meters(40.0)),
            Distance::from_meters(15.0),
        ));
        let mut operator = DroneOperator::new(key(89), world.client());
        operator.register_with(&auditor).unwrap();
        // Sample sparsely on purpose (1 Hz): marginal sufficiency.
        let record = operator
            .fly(
                &clock,
                receiver.as_ref(),
                &auditor.zone_set(),
                SamplingStrategy::FixedRate(1.0),
                Duration::from_secs(44.0),
            )
            .unwrap();
        operator
            .submit_encrypted(&auditor, &record, clock.now(), rng)
            .unwrap()
    };

    let paper = run_with(Criterion::Paper, &mut rng);
    let exact = run_with(Criterion::Exact, &mut rng);
    // Exact is never stricter.
    if paper.is_compliant() {
        assert!(exact.is_compliant());
    }
    // And in this marginal geometry, exact accepts strictly more pairs.
    let insufficient = |r: &alidrone::core::VerificationReport| {
        r.sufficiency
            .as_ref()
            .map(|s| s.insufficient_count)
            .unwrap_or(usize::MAX)
    };
    assert!(insufficient(&exact) <= insufficient(&paper));
}
