//! Batch-vs-serial verdict equivalence for the verification pipeline.
//!
//! An auditor with a [`VerifyPool`] installed fans per-entry signature
//! checks across worker threads and aborts a batch early at the first
//! failure; an auditor without one checks entries serially. The two must
//! be observationally identical: same verdict, same failing index, for
//! honest traces and for every signature-forgery strategy. This campaign
//! drives both through 50 deterministic seeds, each seed picking a trace
//! shape, an adversarial sample mutation, and a set of declared GPS-gap
//! markers that are honest, signed under the operator key, or retimed
//! after signing.

use std::sync::{Arc, OnceLock};

use alidrone_core::verify_pool::VerifyPool;
use alidrone_core::{
    Auditor, AuditorConfig, PoaSubmission, ProofOfAlibi, ProtocolError, Submission, Verdict,
};
use alidrone_crypto::rng::{Rng, XorShift64};
use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone_geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Timestamp};
use alidrone_obs::Obs;
use alidrone_tee::{SignedGapMarker, SignedSample};

const SEEDS: u64 = 50;

fn tee_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0xBA7C);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn forger_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0xBA7D);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn auditor_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0xBA7E);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn origin() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).unwrap()
}

fn in_range(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

/// A physically plausible honest trace, long enough that the pooled
/// auditor always takes the batched path (its floor is 4 entries).
fn arb_trace(rng: &mut XorShift64) -> Vec<SignedSample> {
    let n = 8 + rng.gen_range_u64(24) as usize;
    let speed = in_range(rng, 0.0, 40.0);
    let dt = in_range(rng, 0.2, 20.0);
    let bearing = in_range(rng, 0.0, 360.0);
    (0..n)
        .map(|i| {
            let s = GpsSample::new(
                origin().destination(bearing, Distance::from_meters(speed * dt * i as f64)),
                Timestamp::from_secs(dt * i as f64),
            );
            let sig = tee_key().sign(&s.to_bytes(), HashAlg::Sha1).unwrap();
            SignedSample::from_parts(s, sig, HashAlg::Sha1)
        })
        .collect()
}

/// The adversarial mutations a dishonest operator can apply without the
/// TEE key. `kind` cycles so the 50 seeds cover each several times.
fn mutate(trace: &mut [SignedSample], kind: u64, rng: &mut XorShift64) {
    let idx = rng.gen_range_u64(trace.len() as u64) as usize;
    let entry = &trace[idx];
    match kind {
        // Honest: leave the trace alone.
        0 => {}
        // Forge: re-sign one sample with a non-TEE key.
        1 => {
            let sig = forger_key()
                .sign(&entry.sample().to_bytes(), HashAlg::Sha1)
                .unwrap();
            trace[idx] = SignedSample::from_parts(*entry.sample(), sig, HashAlg::Sha1);
        }
        // Tamper: move a sample but keep its genuine signature.
        2 => {
            let moved = GpsSample::new(
                entry
                    .sample()
                    .point()
                    .destination(180.0, Distance::from_meters(250.0)),
                entry.sample().time(),
            );
            trace[idx] = SignedSample::from_parts(moved, entry.signature().to_vec(), HashAlg::Sha1);
        }
        // Corrupt: flip a byte of the signature itself.
        3 => {
            let mut sig = entry.signature().to_vec();
            let b = rng.gen_range_u64(sig.len() as u64) as usize;
            sig[b] ^= 0x40;
            trace[idx] = SignedSample::from_parts(*entry.sample(), sig, HashAlg::Sha1);
        }
        // Multi-forge: several bad entries — the reported index must be
        // the lowest one, exactly as the serial scan finds it.
        _ => {
            for _ in 0..3 {
                let i = rng.gen_range_u64(trace.len() as u64) as usize;
                let sig = forger_key()
                    .sign(&trace[i].sample().to_bytes(), HashAlg::Sha1)
                    .unwrap();
                trace[i] = SignedSample::from_parts(*trace[i].sample(), sig, HashAlg::Sha1);
            }
        }
    }
}

fn sign_gap(key: &RsaPrivateKey, start: Timestamp, end: Timestamp) -> SignedGapMarker {
    let sig = key
        .sign(&SignedGapMarker::signing_bytes(start, end), HashAlg::Sha1)
        .unwrap();
    SignedGapMarker::from_parts(start, end, sig, HashAlg::Sha1)
}

/// Two to four TEE-signed outage declarations (fewer if two land on
/// the same interval), each spanning a whole sample interval: no sample
/// sits strictly inside one, so honest markers never trip the
/// gap-contradiction check.
fn arb_gaps(trace: &[SignedSample], rng: &mut XorShift64) -> Vec<SignedGapMarker> {
    let mut starts: Vec<usize> = (0..2 + rng.gen_range_u64(3))
        .map(|_| rng.gen_range_u64(trace.len() as u64 - 1) as usize)
        .collect();
    starts.sort_unstable();
    starts.dedup();
    starts
        .into_iter()
        .map(|i| {
            sign_gap(
                tee_key(),
                trace[i].sample().time(),
                trace[i + 1].sample().time(),
            )
        })
        .collect()
}

/// A marker the auditor must reject: re-signed under the operator key
/// (which never holds T⁻), or retimed — start or end moved, the TEE
/// signature kept.
fn bad_gap(gap: &SignedGapMarker, retime: bool, rng: &mut XorShift64) -> SignedGapMarker {
    if !retime {
        return sign_gap(forger_key(), gap.start(), gap.end());
    }
    let shift = in_range(rng, 0.1, 5.0) * if rng.gen_bool() { 1.0 } else { -1.0 };
    let (start, end) = if rng.gen_bool() {
        (Timestamp::from_secs(gap.start().secs() + shift), gap.end())
    } else {
        (gap.start(), Timestamp::from_secs(gap.end().secs() + shift))
    };
    SignedGapMarker::from_parts(start, end, gap.signature().to_vec(), gap.hash_alg())
}

/// Gap-marker mutations: 0 honest, 1 operator-signed, 2 retimed, 3 one
/// of each on two different markers. Returns the lowest bad index — the
/// one a `BadGapMarker` verdict must name.
fn mutate_gaps(gaps: &mut [SignedGapMarker], kind: u64, rng: &mut XorShift64) -> Option<usize> {
    let n = gaps.len();
    let first = rng.gen_range_u64(n as u64) as usize;
    match kind {
        0 => None,
        1 | 2 => {
            gaps[first] = bad_gap(&gaps[first], kind == 2, rng);
            Some(first)
        }
        _ => {
            let second = if n > 1 {
                (first + 1 + rng.gen_range_u64(n as u64 - 1) as usize) % n
            } else {
                first
            };
            gaps[first] = bad_gap(&gaps[first], false, rng);
            gaps[second] = bad_gap(&gaps[second], true, rng);
            Some(first.min(second))
        }
    }
}

/// Builds a registered auditor, optionally with a verify pool installed.
fn auditor(pooled: bool) -> (Auditor, alidrone_core::DroneId) {
    let a = Auditor::new(AuditorConfig::default(), auditor_key().clone());
    if pooled {
        assert!(a.install_verify_pool(Arc::new(VerifyPool::new(4, &Obs::noop()))));
    }
    let id = a.register_drone(
        forger_key().public_key().clone(),
        tee_key().public_key().clone(),
    );
    a.register_zone(NoFlyZone::new(
        origin().destination(45.0, Distance::from_km(2.0)),
        Distance::from_meters(80.0),
    ));
    (a, id)
}

#[test]
fn batched_and_serial_verdicts_agree_across_seeds() {
    let mut bad_gap_verdicts = 0;
    let mut honest_gap_passes = 0;
    let mut refused_inverted = 0;
    for seed in 0..SEEDS {
        let mut rng = XorShift64::seed_from_u64(0x50A1 ^ seed);
        let mut trace = arb_trace(&mut rng);
        let sample_kind = seed % 5;
        mutate(&mut trace, sample_kind, &mut rng);
        let mut gaps = arb_gaps(&trace, &mut rng);
        let bad_gap = mutate_gaps(&mut gaps, (seed / 5) % 4, &mut rng);
        let window_start = trace.first().unwrap().sample().time();
        let window_end = trace.last().unwrap().sample().time();

        let (serial, serial_id) = auditor(false);
        let (pooled, pooled_id) = auditor(true);
        assert_eq!(serial_id, pooled_id);

        let mut poa = ProofOfAlibi::from_entries(trace.clone());
        for gap in &gaps {
            poa.push_gap(gap.clone());
        }
        let submission = |id| {
            Submission::plain(PoaSubmission {
                drone_id: id,
                window_start,
                window_end,
                poa: poa.clone(),
            })
        };
        // A retimed marker whose window inverted does not decode again:
        // both auditors refuse the PoA as malformed, as the wire does,
        // rather than store what their journal could not read back.
        if ProofOfAlibi::from_bytes(&poa.to_bytes()).is_err() {
            for (auditor, id) in [(&serial, serial_id), (&pooled, pooled_id)] {
                let refused = auditor.verify(&submission(id), Timestamp::EPOCH);
                assert!(
                    matches!(refused, Err(ProtocolError::Malformed(_))),
                    "seed {seed}: {refused:?}"
                );
            }
            assert_eq!(serial.stored_poa_count() + pooled.stored_poa_count(), 0);
            refused_inverted += 1;
            continue;
        }
        let a = serial
            .verify(&submission(serial_id), Timestamp::EPOCH)
            .unwrap();
        let b = pooled
            .verify(&submission(pooled_id), Timestamp::EPOCH)
            .unwrap();
        assert_eq!(
            a.verdict, b.verdict,
            "seed {seed}: batched verdict diverged from serial"
        );

        // Gap markers are checked only once every sample signature has
        // passed, so an honest sample stream exposes the marker verdict.
        if sample_kind == 0 {
            match bad_gap {
                Some(index) => {
                    assert_eq!(
                        b.verdict,
                        Verdict::BadGapMarker { index },
                        "seed {seed}: bad gap marker not rejected at its index"
                    );
                    bad_gap_verdicts += 1;
                }
                None => {
                    assert!(
                        !matches!(
                            b.verdict,
                            Verdict::BadSignature { .. }
                                | Verdict::BadGapMarker { .. }
                                | Verdict::GapContradiction { .. }
                        ),
                        "seed {seed}: honest markers rejected: {:?}",
                        b.verdict
                    );
                    honest_gap_passes += 1;
                }
            }
        }

        // Resubmission re-verifies from scratch; the verdict must not
        // change.
        let c = pooled
            .verify(&submission(pooled_id), Timestamp::EPOCH)
            .unwrap();
        assert_eq!(
            b.verdict, c.verdict,
            "seed {seed}: resubmitted verdict diverged"
        );
    }
    assert!(
        bad_gap_verdicts >= 6,
        "only {bad_gap_verdicts} bad-gap seeds"
    );
    assert!(
        honest_gap_passes >= 3,
        "only {honest_gap_passes} honest-gap seeds"
    );
    assert!(refused_inverted > 0, "no seed inverted a gap window");
}
