//! Replicated auditor failover: kill the primary, keep verifying.
//!
//! Boots a primary [`arm`]ed over two followers: it write-ahead
//! journals every durable mutation and ships each record to both
//! followers, acknowledging only once a follower holds it durably
//! (`Quorum(1)`). Then the primary dies mid-flight:
//!
//! 1. registrations and a verified PoA land on the primary and
//!    replicate to both followers,
//! 2. the primary is killed; [`promote`] picks the most-caught-up
//!    follower, *fences* it (epoch bump), replays the shipped log and
//!    re-arms it over the survivor,
//! 3. the deposed primary's next write is rejected with a typed
//!    stale-epoch error — no split brain,
//! 4. the promoted primary keeps verifying PoAs, and the replication
//!    gauges read exactly zero lag once the survivor catches up.
//!
//! Run with: `cargo run --release --offline --example failover`

use std::sync::Arc;

use alidrone::core::journal::MemBackend;
use alidrone::core::repl::{arm, promote, Follower, ReplicationPolicy};
use alidrone::core::{Auditor, AuditorConfig, PoaSubmission, ProofOfAlibi, Submission};
use alidrone::crypto::rng::XorShift64;
use alidrone::crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone::geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Timestamp};
use alidrone::obs::Obs;
use alidrone::tee::SignedSample;

fn key(seed: u64) -> RsaPrivateKey {
    RsaPrivateKey::generate(512, &mut XorShift64::seed_from_u64(seed))
}

fn pad() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).expect("valid pad")
}

/// An honest alibi trace signed by the drone TEE key, starting at `t0`.
fn signed_samples(tee: &RsaPrivateKey, t0: f64, n: usize) -> Vec<SignedSample> {
    (0..n)
        .map(|i| {
            let sample = GpsSample::new(
                pad().destination(90.0, Distance::from_meters(10.0 * i as f64)),
                Timestamp::from_secs(t0 + i as f64),
            );
            let sig = tee.sign(&sample.to_bytes(), HashAlg::Sha1).expect("sign");
            SignedSample::from_parts(sample, sig, HashAlg::Sha1)
        })
        .collect()
}

fn submit(
    auditor: &Auditor,
    id: alidrone::core::DroneId,
    tee: &RsaPrivateKey,
    t0: f64,
) -> Result<String, Box<dyn std::error::Error>> {
    let outcome = auditor.verify(
        &Submission::plain(PoaSubmission {
            drone_id: id,
            window_start: Timestamp::from_secs(t0),
            window_end: Timestamp::from_secs(t0 + 2.0),
            poa: ProofOfAlibi::from_entries(signed_samples(tee, t0, 3)),
        }),
        Timestamp::from_secs(t0 + 10.0),
    )?;
    Ok(outcome.verdict.to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let obs = Obs::noop();
    let tee_key = key(0xD201);
    let operator_key = key(0x09E0);
    let auditor_key = key(0xA0D1);
    let policy = ReplicationPolicy::Quorum(1);

    // ---- 1. A replicated cluster at epoch 1 --------------------------
    let mut followers: Vec<(String, Arc<Follower>)> = (0..2)
        .map(|i| {
            let follower = Follower::new(Arc::new(MemBackend::new()));
            (format!("f{i}"), Arc::new(follower))
        })
        .collect();
    let (primary, _) = Auditor::recover_with_obs(
        Arc::new(MemBackend::new()),
        AuditorConfig::default(),
        auditor_key.clone(),
        &obs,
    )?;
    arm(&primary, &followers, policy, 1, &obs)?;
    let id = primary.register_drone_durable(
        operator_key.public_key().clone(),
        tee_key.public_key().clone(),
    )?;
    primary.register_zone_durable(NoFlyZone::new(
        pad().destination(0.0, Distance::from_km(1.0)),
        Distance::from_meters(50.0),
    ))?;
    let verdict = submit(&primary, id, &tee_key, 0.0)?;
    println!(
        "epoch {}: drone {id} registered, first PoA verdict: {verdict}",
        primary.current_epoch()
    );
    for (name, follower) in &followers {
        println!(
            "  follower {name}: {} records durable at offset {}",
            follower.record_count(),
            follower.acked_offset()
        );
    }
    let state_before_kill = primary.snapshot();

    // ---- 2. Kill the primary, promote a follower ---------------------
    let promotion = promote(
        &mut followers,
        policy,
        AuditorConfig::default(),
        auditor_key,
        &obs,
    )?;
    let promoted = promotion.auditor;
    println!(
        "primary killed; follower {} promoted, now serving epoch {}",
        promotion.follower,
        promoted.current_epoch()
    );
    assert_eq!(
        promoted.snapshot(),
        state_before_kill,
        "promoted state must be byte-identical to the primary's last \
         acknowledged state"
    );
    println!("  promoted state is byte-identical to the pre-kill state");

    // ---- 3. The deposed primary is fenced ----------------------------
    let err = primary
        .register_zone_durable(NoFlyZone::new(pad(), Distance::from_meters(10.0)))
        .expect_err("a deposed primary must not acknowledge writes");
    println!("  deposed primary rejected: {err}");

    // ---- 4. Verification continues on the new primary ----------------
    let verdict = submit(&promoted, id, &tee_key, 100.0)?;
    println!(
        "epoch {}: second PoA verdict on the promoted primary: {verdict}",
        promoted.current_epoch()
    );
    let snap = obs.snapshot();
    println!(
        "quiesced metrics: lag_bytes={} lag_records={} failovers={} epoch={}",
        snap.gauges["repl.lag_bytes"],
        snap.gauges["repl.lag_records"],
        snap.counter("repl.failovers"),
        snap.gauges["repl.epoch"],
    );
    assert_eq!(snap.gauges["repl.lag_bytes"], 0);
    assert_eq!(snap.counter("repl.failovers"), 1);
    Ok(())
}
