//! A delivery fleet under one auditor: several drones, several zone
//! owners, mixed sampling strategies — the "Amazon Prime Air" setting
//! the paper's introduction motivates.
//!
//! Also demonstrates the two performance extensions of §VII-A1
//! (per-flight symmetric keys, DH + HMAC, and batch trace signing) and
//! a polygonal property registered by its enclosing circle (§VII-B2).
//!
//! Run: `cargo run --release --example delivery_fleet`

use std::error::Error;
use std::sync::Arc;

use alidrone::core::symmetric::establish_flight_key;
use alidrone::core::{Auditor, AuditorConfig, DroneOperator, SamplingStrategy, ZoneOwner};
use alidrone::crypto::dh::DhGroup;
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::polygon::PolygonZone;
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, Duration, GeoPoint, NoFlyZone, Speed};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::obs::Obs;
use alidrone::tee::{SecureWorldBuilder, GPS_SAMPLER_UUID};
use alidrone_crypto::rng::XorShift64;

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = XorShift64::seed_from_u64(8);
    let depot = GeoPoint::new(40.1164, -88.2434)?;

    let auditor = Auditor::new(
        AuditorConfig::default(),
        RsaPrivateKey::generate(512, &mut rng),
    );

    // Three homeowners register zones in the delivery area.
    let mut owners: Vec<ZoneOwner> = [(800.0, 60.0), (1_500.0, 90.0), (2_200.0, 45.0)]
        .iter()
        .map(|&(east_m, north_m)| {
            ZoneOwner::new(NoFlyZone::new(
                depot
                    .destination(90.0, Distance::from_meters(east_m))
                    .destination(0.0, Distance::from_meters(north_m)),
                Distance::from_feet(25.0),
            ))
        })
        .collect();
    // §VII-B2 — a fourth owner holds an L-shaped lot north of the
    // route; the auditor stores its smallest enclosing circle.
    let lot: Vec<GeoPoint> = [
        (0.0, 0.0),
        (60.0, 0.0),
        (60.0, 30.0),
        (30.0, 30.0),
        (30.0, 60.0),
        (0.0, 60.0),
    ]
    .iter()
    .map(|&(east_m, north_m)| {
        depot
            .destination(90.0, Distance::from_meters(1_200.0 + east_m))
            .destination(0.0, Distance::from_meters(150.0 + north_m))
    })
    .collect();
    owners.push(ZoneOwner::with_polygon(&PolygonZone::new(lot)?)?);
    for o in &mut owners {
        o.register_with(&auditor)?;
    }
    println!(
        "{} zones registered (one covers a polygonal lot, radius {:.1} m)",
        owners.len(),
        owners[3].zone().radius().meters()
    );

    // Three delivery drones with different destinations and strategies.
    let deliveries = [
        ("alpha", 1_000.0, SamplingStrategy::Adaptive),
        ("bravo", 2_000.0, SamplingStrategy::Adaptive),
        ("charlie", 3_000.0, SamplingStrategy::FixedRate(2.0)),
    ];
    for (name, dist_m, strategy) in deliveries {
        let dest = depot.destination(90.0, Distance::from_meters(dist_m));
        let route = TrajectoryBuilder::start_at(depot)
            .travel_to(dest, Speed::from_mph(35.0))
            .pause(Duration::from_secs(10.0)) // drop the package
            .build()?;
        let flight_time = route.total_duration();
        let clock = SimClock::new();
        let receiver = Arc::new(SimulatedReceiver::from_trajectory(
            route,
            clock.clone(),
            5.0,
        ));
        let world = SecureWorldBuilder::new()
            .with_generated_key(512, &mut rng)
            .with_gps_device(Box::new(Arc::clone(&receiver)))
            .build()?;
        let mut operator =
            DroneOperator::new(RsaPrivateKey::generate(512, &mut rng), world.client());
        let id = operator.register_with(&auditor)?;

        let zones = operator
            .query_zones(
                &auditor,
                depot.destination(225.0, Distance::from_km(4.0)),
                depot.destination(45.0, Distance::from_km(4.0)),
                &mut rng,
            )?
            .zone_set();

        let record = operator.fly(&clock, receiver.as_ref(), &zones, strategy, flight_time)?;
        let report = operator.submit_encrypted(&auditor, &record, clock.now(), &mut rng)?;
        println!(
            "{name:>8} ({id}): {:3} samples via {:<11} → {}",
            record.sample_count(),
            record.strategy,
            report.verdict
        );
        assert!(report.is_compliant());
    }

    // §VII-A1a — a fourth drone uses a per-flight symmetric key to avoid
    // per-sample RSA entirely.
    let (drone_session, auditor_session) = establish_flight_key(&DhGroup::test_512(), &mut rng)?;
    let sample = alidrone::geo::GpsSample::new(depot, alidrone::geo::Timestamp::from_secs(1.0));
    let mac_sample = drone_session.authenticate(sample);
    assert!(auditor_session.verify(&mac_sample));
    println!("\nsymmetric extension: per-flight HMAC key established and verified ✔");

    // §VII-A1b — batch signing: cache in secure memory, one RSA op total.
    let clock = SimClock::new();
    let route = TrajectoryBuilder::start_at(depot)
        .travel_to(
            depot.destination(0.0, Distance::from_meters(400.0)),
            Speed::from_mph(30.0),
        )
        .build()?;
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));
    let obs = Obs::noop();
    let world = SecureWorldBuilder::new()
        .with_generated_key(512, &mut rng)
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_obs(&obs)
        .build()?;
    let session = world.client().open_session(GPS_SAMPLER_UUID)?;
    for _ in 0..10 {
        clock.advance(Duration::from_secs(1.0));
        session.cache_sample()?;
    }
    let trace = session.sign_trace()?;
    trace.verify(&world.client().tee_public_key())?;
    println!(
        "batch extension: {} samples cached, 1 signature (tee.signatures counter: {}) ✔",
        trace.samples().len(),
        obs.snapshot().counter("tee.signatures")
    );
    Ok(())
}
