//! The threat model in action (paper §III-B): a dishonest Drone Operator
//! tries every GPS-forgery strategy the paper lists, and the Auditor
//! catches each one.
//!
//! Attacks demonstrated:
//! 1. **Pre-computed route** — an innocuous trace signed with a key the
//!    operator controls (not the TEE's) → `BadSignature`.
//! 2. **Tampered samples** — moving a genuine signed sample's position →
//!    `BadSignature`.
//! 3. **Replay** — splicing a previously recorded signed sample back in →
//!    `NonMonotonic`.
//! 4. **Relay** — submitting another drone's genuinely-signed PoA →
//!    `BadSignature` (wrong `T⁺`).
//! 5. **Omission** — dropping the samples taken near the zone →
//!    `InsufficientAlibi`.
//! 6. **Actual violation** — flying through the zone and submitting the
//!    honest trace → `InsideZone`.
//!
//! Run: `cargo run --example dishonest_operator`

use std::error::Error;
use std::sync::Arc;

use alidrone::core::{
    Auditor, AuditorConfig, DroneOperator, PoaSubmission, ProofOfAlibi, SamplingStrategy,
    Submission, Verdict,
};
use alidrone::crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Speed};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::tee::{SecureWorldBuilder, SignedSample, TeeClient};
use alidrone_crypto::rng::XorShift64;

struct Setup {
    clock: SimClock,
    receiver: Arc<SimulatedReceiver>,
    tee: TeeClient,
}

/// Builds a drone whose route passes `offset_m` north of the zone line.
fn drone(rng: &mut XorShift64, start: GeoPoint, dist_m: f64) -> Result<Setup, Box<dyn Error>> {
    let end = start.destination(90.0, Distance::from_meters(dist_m));
    let route = TrajectoryBuilder::start_at(start)
        .travel_to(end, Speed::from_mph(30.0))
        .build()?;
    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));
    let world = SecureWorldBuilder::new()
        .with_generated_key(512, rng)
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .build()?;
    Ok(Setup {
        clock,
        receiver,
        tee: world.client(),
    })
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = XorShift64::seed_from_u64(666);
    let pad = GeoPoint::new(40.1164, -88.2434)?;

    let auditor = Auditor::new(
        AuditorConfig::default(),
        RsaPrivateKey::generate(512, &mut rng),
    );
    // The protected zone sits 100 m north of the halfway point.
    auditor.register_zone(NoFlyZone::new(
        pad.destination(90.0, Distance::from_meters(400.0))
            .destination(0.0, Distance::from_meters(100.0)),
        Distance::from_meters(30.0),
    ));

    // An honest flight to start from.
    let setup = drone(&mut rng, pad, 800.0)?;
    let mut operator =
        DroneOperator::new(RsaPrivateKey::generate(512, &mut rng), setup.tee.clone());
    operator.register_with(&auditor)?;
    let honest = operator.fly(
        &setup.clock,
        setup.receiver.as_ref(),
        &auditor.zone_set(),
        SamplingStrategy::Adaptive,
        alidrone::geo::Duration::from_secs(59.0),
    )?;
    let report = operator.submit(&auditor, &honest, setup.clock.now())?;
    println!("honest flight:          {}", report.verdict);
    assert!(report.is_compliant());

    let drone_id = operator.drone_id().unwrap();
    let submit = |auditor: &Auditor, poa: ProofOfAlibi| {
        auditor
            .verify(
                &Submission::plain(PoaSubmission {
                    drone_id,
                    window_start: honest.window_start,
                    window_end: honest.window_end,
                    poa,
                }),
                setup.clock.now(),
            )
            .expect("registered drone")
            .verdict
    };

    // 1. Pre-computed route: sign a fake trace with the operator's own key.
    let attacker_key = RsaPrivateKey::generate(512, &mut rng);
    let forged: ProofOfAlibi = honest
        .poa
        .alibi()
        .iter()
        .map(|s| {
            let sig = attacker_key.sign(&s.to_bytes(), HashAlg::Sha1).unwrap();
            SignedSample::from_parts(*s, sig, HashAlg::Sha1)
        })
        .collect();
    let verdict = submit(&auditor, forged);
    println!("pre-computed route:     {verdict}");
    assert!(matches!(verdict, Verdict::BadSignature { .. }));

    // 2. Tamper: shift one genuine sample 200 m south (away from the zone).
    let mut entries: Vec<SignedSample> = honest.poa.entries().to_vec();
    let idx = entries.len() / 2;
    let shifted = GpsSample::new(
        entries[idx]
            .sample()
            .point()
            .destination(180.0, Distance::from_meters(200.0)),
        entries[idx].sample().time(),
    );
    entries[idx] =
        SignedSample::from_parts(shifted, entries[idx].signature().to_vec(), HashAlg::Sha1);
    let verdict = submit(&auditor, ProofOfAlibi::from_entries(entries));
    println!("tampered sample:        {verdict}");
    assert!(matches!(verdict, Verdict::BadSignature { .. }));

    // 3. Replay: append an old signed sample to the end of the trace.
    let mut entries: Vec<SignedSample> = honest.poa.entries().to_vec();
    entries.push(entries[0].clone());
    let verdict = submit(&auditor, ProofOfAlibi::from_entries(entries));
    println!("replayed sample:        {verdict}");
    assert!(matches!(verdict, Verdict::NonMonotonic { .. }));

    // 4. Relay: a second drone's TEE signs the same route; the first
    //    drone submits it as its own.
    let other = drone(&mut rng, pad, 800.0)?;
    let mut other_operator =
        DroneOperator::new(RsaPrivateKey::generate(512, &mut rng), other.tee.clone());
    other_operator.register_with(&auditor)?;
    let other_flight = other_operator.fly(
        &other.clock,
        other.receiver.as_ref(),
        &auditor.zone_set(),
        SamplingStrategy::Adaptive,
        alidrone::geo::Duration::from_secs(59.0),
    )?;
    let verdict = submit(&auditor, other_flight.poa.clone());
    println!("relayed PoA:            {verdict}");
    assert!(matches!(verdict, Verdict::BadSignature { .. }));

    // 5. Omission: drop the middle of the honest trace (the part that
    //    proves the drone stayed beside the zone).
    let entries: Vec<SignedSample> = honest
        .poa
        .entries()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < 2 || *i + 2 >= honest.poa.len())
        .map(|(_, e)| e.clone())
        .collect();
    let verdict = submit(&auditor, ProofOfAlibi::from_entries(entries));
    println!("omitted samples:        {verdict}");
    assert!(matches!(verdict, Verdict::InsufficientAlibi { .. }));

    // 6. Actual violation: fly straight through the zone and submit the
    //    honest trace of that flight.
    let violating_start = pad.destination(0.0, Distance::from_meters(100.0));
    let bad = drone(&mut rng, violating_start, 800.0)?;
    let mut bad_operator =
        DroneOperator::new(RsaPrivateKey::generate(512, &mut rng), bad.tee.clone());
    bad_operator.register_with(&auditor)?;
    let bad_flight = bad_operator.fly(
        &bad.clock,
        bad.receiver.as_ref(),
        &auditor.zone_set(),
        SamplingStrategy::FixedRate(5.0),
        alidrone::geo::Duration::from_secs(59.0),
    )?;
    let report = bad_operator.submit(&auditor, &bad_flight, bad.clock.now())?;
    println!("actual violation:       {}", report.verdict);
    assert!(matches!(report.verdict, Verdict::InsideZone { .. }));

    println!("\nevery attack detected; only the honest compliant flight was accepted.");
    Ok(())
}
