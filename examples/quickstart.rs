//! Quickstart: one honest drone proves NFZ compliance end to end.
//!
//! Walks the full AliDrone protocol (paper §IV-B):
//!
//! * step 0: drone registration (operator key `D⁺` + TEE key `T⁺`),
//! * step 1: zone registration by a zone owner,
//! * steps 2–3: signed zone query / response,
//! * step 4: flight with adaptive sampling, then PoA submission +
//!   verification.
//!
//! Run: `cargo run --example quickstart`

use std::error::Error;
use std::sync::Arc;

use alidrone::core::{Auditor, AuditorConfig, DroneOperator, SamplingStrategy, ZoneOwner};
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, GeoPoint, NoFlyZone, Speed};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::tee::SecureWorldBuilder;
use alidrone_crypto::rng::XorShift64;

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = XorShift64::seed_from_u64(2026);

    // --- The world: a launch pad, a delivery point, a neighbour's NFZ.
    let pad = GeoPoint::new(40.1164, -88.2434)?;
    let customer = pad.destination(90.0, Distance::from_km(1.2));
    let neighbour_home = pad
        .destination(90.0, Distance::from_meters(600.0))
        .destination(0.0, Distance::from_meters(90.0));

    // --- The drone hardware: a 30 mph flight plan on a 5 Hz GPS,
    //     with the receiver shared by the normal world (Adapter) and the
    //     secure world (GPS Driver).
    let route = TrajectoryBuilder::start_at(pad)
        .travel_to(customer, Speed::from_mph(30.0))
        .build()?;
    let flight_time = route.total_duration();
    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));

    // --- Manufacturing: the TEE keypair is burned in at the factory.
    //     (512-bit keys keep the example fast; the paper uses 1024/2048.)
    let world = SecureWorldBuilder::new()
        .with_generated_key(512, &mut rng)
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .build()?;

    // --- Roles.
    let auditor = Auditor::new(
        AuditorConfig::default(),
        RsaPrivateKey::generate(512, &mut rng),
    );
    let mut operator = DroneOperator::new(RsaPrivateKey::generate(512, &mut rng), world.client());
    let mut neighbour = ZoneOwner::new(NoFlyZone::new(neighbour_home, Distance::from_feet(20.0)));

    // Step 0/1 — registration.
    let drone_id = operator.register_with(&auditor)?;
    let zone_id = neighbour.register_with(&auditor)?;
    println!("registered {drone_id} and {zone_id}");

    // Step 2–3 — zone query for the navigation rectangle.
    let response = operator.query_zones(
        &auditor,
        pad.destination(225.0, Distance::from_km(2.0)),
        pad.destination(45.0, Distance::from_km(2.0)),
        &mut rng,
    )?;
    println!(
        "auditor returned {} zone(s) in the navigation area",
        response.zones.len()
    );

    // Step 4 — fly with adaptive sampling, then submit the PoA.
    let record = operator.fly(
        &clock,
        receiver.as_ref(),
        &response.zone_set(),
        SamplingStrategy::Adaptive,
        flight_time,
    )?;
    println!(
        "flight complete: {} authenticated samples over {:.0} s ({})",
        record.sample_count(),
        (record.window_end - record.window_start).secs(),
        record.strategy,
    );

    let report = operator.submit_encrypted(&auditor, &record, clock.now(), &mut rng)?;
    println!("auditor verdict: {}", report.verdict);
    assert!(report.is_compliant());

    // Later: the neighbour thinks they saw the drone overhead…
    let accusation = neighbour
        .report(drone_id, record.window_start + flight_time * 0.5)
        .expect("registered zone");
    let outcome = auditor.handle_accusation(&accusation)?;
    println!("accusation outcome: {outcome:?}");

    Ok(())
}
