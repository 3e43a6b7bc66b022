//! Route planning around no-fly zones (paper §IV-B step 3): query the
//! auditor, plan a compliant detour, fly it, and prove compliance.
//!
//! Run: `cargo run --example route_planning`

use std::error::Error;
use std::sync::Arc;

use alidrone::core::{Auditor, AuditorConfig, DroneOperator, SamplingStrategy};
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::planner::route_is_clear;
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, GeoPoint, NoFlyZone, Speed};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::tee::SecureWorldBuilder;
use alidrone_crypto::rng::XorShift64;

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = XorShift64::seed_from_u64(12);
    let depot = GeoPoint::new(40.1164, -88.2434)?;
    let customer = depot.destination(90.0, Distance::from_km(2.0));

    // Three zones sit between depot and customer.
    let auditor = Auditor::new(
        AuditorConfig::default(),
        RsaPrivateKey::generate(512, &mut rng),
    );
    for (east_m, north_m, r_m) in [
        (600.0, 0.0, 70.0),
        (1_100.0, 60.0, 50.0),
        (1_500.0, -50.0, 60.0),
    ] {
        auditor.register_zone(NoFlyZone::new(
            depot
                .destination(90.0, Distance::from_meters(east_m))
                .destination(0.0, Distance::from_meters(north_m)),
            Distance::from_meters(r_m),
        ));
    }

    // Build the drone; query zones; plan.
    let world = SecureWorldBuilder::new().with_generated_key(512, &mut rng);
    let mut planning_world = world; // receiver attached after planning
    let zones_resp;
    {
        // Registration needs only the TEE public key, so a receiver-less
        // world suffices for the query phase.
        let tmp_world = SecureWorldBuilder::new()
            .with_generated_key(512, &mut rng)
            .build()?;
        let mut operator =
            DroneOperator::new(RsaPrivateKey::generate(512, &mut rng), tmp_world.client());
        operator.register_with(&auditor)?;
        zones_resp = operator.query_zones(
            &auditor,
            depot.destination(225.0, Distance::from_km(3.0)),
            depot.destination(45.0, Distance::from_km(3.0)),
            &mut rng,
        )?;
    }
    let zones = zones_resp.zone_set();
    println!("auditor reports {} zones in the area", zones.len());

    let margin = Distance::from_meters(25.0);
    let route = alidrone::geo::planner::plan_route(depot, customer, &zones, margin)?;
    println!("planned route with {} waypoints:", route.len());
    for (i, wp) in route.iter().enumerate() {
        let d = depot.distance_to(wp);
        println!("  wp{i}: {} ({} from depot)", wp, d);
    }
    assert!(route_is_clear(&route, &zones, margin));
    println!("route keeps ≥ {margin} clearance from every zone ✔");

    // Fly the planned route with adaptive sampling and verify.
    let mut builder = TrajectoryBuilder::start_at(route[0]);
    for wp in &route[1..] {
        builder = builder.travel_to(*wp, Speed::from_mph(30.0));
    }
    let traj = builder.build()?;
    let flight_time = traj.total_duration();
    println!(
        "flight: {:.2} km over {:.0} s",
        traj.total_distance().km(),
        flight_time.secs()
    );

    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(traj, clock.clone(), 5.0));
    planning_world = planning_world.with_gps_device(Box::new(Arc::clone(&receiver)));
    let world = planning_world.build()?;
    let mut operator = DroneOperator::new(RsaPrivateKey::generate(512, &mut rng), world.client());
    operator.register_with(&auditor)?;
    let record = operator.fly(
        &clock,
        receiver.as_ref(),
        &zones,
        SamplingStrategy::AdaptivePairwise,
        flight_time,
    )?;
    let report = operator.submit_encrypted(&auditor, &record, clock.now(), &mut rng)?;
    println!(
        "flew {} authenticated samples → auditor verdict: {}",
        record.sample_count(),
        report.verdict
    );
    // Note: this flight uses the pairwise-safe adaptive variant. The
    // paper's nearest-zone trigger leaves one insufficient pair at the
    // sharp waypoint turn between two zones (see EXPERIMENTS.md).
    assert!(report.is_compliant());
    Ok(())
}
