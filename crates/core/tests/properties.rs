//! Randomized tests for the protocol layer.
//!
//! Three classes of invariant:
//!
//! 1. **Parser robustness** — no byte string, however adversarial, may
//!    panic a decoder or round-trip into a different message.
//! 2. **Verification soundness** — a `Compliant` verdict must imply that
//!    no sample sits in any zone and every pair is sufficient, for
//!    arbitrary traces and zone layouts.
//! 3. **Reader parity** — a replication follower accepts exactly the
//!    journal images its own recovery would open cleanly, and a
//!    replicated primary serves exactly what recovery of its committed
//!    prefix holds.
//!
//! Inputs come from a seeded deterministic stream (no `proptest` — the
//! offline build has no crates.io), so failures reproduce exactly.
//! RSA signing in debug builds makes trace generation expensive; 64
//! cases keeps the suite fast while still exploring the space.

use std::sync::{Arc, OnceLock};

use alidrone_core::journal::{MemBackend, Record, FRAME_OVERHEAD, HEADER_LEN};
use alidrone_core::repl::{arm, Follower, ReplFrame, ReplicationPolicy};
use alidrone_core::wire::{
    encode_envelope, split_envelope, Request, Response, WireEnvelope, WireTraceContext,
    ENVELOPE_MAGIC,
};
use alidrone_core::{
    Auditor, AuditorConfig, DroneId, PoaSubmission, ProofOfAlibi, Submission, Verdict, ZoneId,
    ZoneQuery,
};
use alidrone_crypto::rng::{Rng, XorShift64};
use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone_geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Timestamp, FAA_MAX_SPEED};
use alidrone_obs::Obs;
use alidrone_tee::SignedSample;

const CASES: usize = 64;

fn tee_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0x9097);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn auditor_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0x9098);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn origin() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).unwrap()
}

fn in_range(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

fn arb_bytes(rng: &mut XorShift64, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range_u64(max_len as u64) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// A physically plausible signed trace: bounded speed, increasing
/// timestamps.
fn arb_trace(rng: &mut XorShift64) -> Vec<SignedSample> {
    let n = 2 + rng.gen_range_u64(18) as usize;
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

fn arb_zones(rng: &mut XorShift64) -> Vec<NoFlyZone> {
    let n = rng.gen_range_u64(8) as usize;
    (0..n)
        .map(|_| {
            NoFlyZone::new(
                origin().destination(
                    in_range(rng, 0.0, 360.0),
                    Distance::from_meters(in_range(rng, 10.0, 5_000.0)),
                ),
                Distance::from_meters(in_range(rng, 5.0, 200.0)),
            )
        })
        .collect()
}

/// Compliant verdicts are sound: no sample in any zone, every pair
/// sufficient, timestamps monotone.
#[test]
fn compliant_verdict_is_sound() {
    let mut rng = XorShift64::seed_from_u64(401);
    for _ in 0..CASES {
        let trace = arb_trace(&mut rng);
        let zones = arb_zones(&mut rng);
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let drone = auditor.register_drone(
            tee_key().public_key().clone(),
            tee_key().public_key().clone(),
        );
        for z in &zones {
            auditor.register_zone(*z);
        }
        let first = trace.first().unwrap().sample().time();
        let last = trace.last().unwrap().sample().time();
        let submission = Submission::plain(PoaSubmission {
            drone_id: drone,
            window_start: first,
            window_end: last,
            poa: ProofOfAlibi::from_entries(trace.clone()),
        });
        let report = auditor
            .verify(&submission, Timestamp::from_secs(0.0))
            .unwrap();
        if report.is_compliant() {
            let alibi: Vec<GpsSample> = trace.iter().map(|e| *e.sample()).collect();
            assert!(alidrone_geo::check_monotonic(&alibi).is_ok());
            for s in &alibi {
                for z in &zones {
                    assert!(!z.contains(&s.point()));
                }
            }
            let zone_set: alidrone_geo::ZoneSet = zones.iter().copied().collect();
            let suff = alidrone_geo::sufficiency::check_alibi(
                &alibi,
                &zone_set,
                FAA_MAX_SPEED,
                alidrone_geo::sufficiency::Criterion::Paper,
            );
            assert!(suff.is_sufficient());
        }
    }
}

/// Verification is deterministic: submitting the same PoA twice
/// yields the same verdict.
#[test]
fn verification_is_deterministic() {
    let mut rng = XorShift64::seed_from_u64(402);
    for _ in 0..CASES / 4 {
        let trace = arb_trace(&mut rng);
        let zones = arb_zones(&mut rng);
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let drone = auditor.register_drone(
            tee_key().public_key().clone(),
            tee_key().public_key().clone(),
        );
        for z in &zones {
            auditor.register_zone(*z);
        }
        let submission = Submission::plain(PoaSubmission {
            drone_id: drone,
            window_start: trace.first().unwrap().sample().time(),
            window_end: trace.last().unwrap().sample().time(),
            poa: ProofOfAlibi::from_entries(trace),
        });
        let a = auditor.verify(&submission, Timestamp::EPOCH).unwrap();
        let b = auditor.verify(&submission, Timestamp::EPOCH).unwrap();
        assert_eq!(a.verdict, b.verdict);
    }
}

/// PoA wire format round-trips for arbitrary well-formed traces.
#[test]
fn poa_wire_round_trip() {
    let mut rng = XorShift64::seed_from_u64(403);
    for _ in 0..CASES / 4 {
        let poa = ProofOfAlibi::from_entries(arb_trace(&mut rng));
        let rt = ProofOfAlibi::from_bytes(&poa.to_bytes()).unwrap();
        assert_eq!(poa, rt);
    }
}

/// Arbitrary bytes never panic the PoA / SignedSample parsers.
#[test]
fn poa_parser_never_panics() {
    let mut rng = XorShift64::seed_from_u64(404);
    for _ in 0..CASES * 4 {
        let bytes = arb_bytes(&mut rng, 400);
        let _ = ProofOfAlibi::from_bytes(&bytes);
        let _ = SignedSample::from_bytes(&bytes);
    }
}

/// Arbitrary bytes never panic the wire decoders.
#[test]
fn wire_parsers_never_panic() {
    let mut rng = XorShift64::seed_from_u64(405);
    for _ in 0..CASES * 4 {
        let bytes = arb_bytes(&mut rng, 400);
        let _ = Request::from_bytes(&bytes);
        let _ = Response::from_bytes(&bytes);
    }
}

/// Wire round trip for submit requests with arbitrary payloads.
#[test]
fn wire_submit_round_trip() {
    let mut rng = XorShift64::seed_from_u64(406);
    for _ in 0..CASES {
        let ws = in_range(&mut rng, -1.0e6, 1.0e6);
        let dur = in_range(&mut rng, 0.0, 1.0e5);
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(rng.gen_range_u64(1_000_000)),
            window_start: Timestamp::from_secs(ws),
            window_end: Timestamp::from_secs(ws + dur),
            poa: arb_bytes(&mut rng, 200),
        };
        assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
    }
}

/// Verdict wire encoding round-trips for arbitrary index payloads.
#[test]
fn wire_verdict_round_trip() {
    let mut rng = XorShift64::seed_from_u64(407);
    for _ in 0..CASES {
        let index = rng.gen_range_u64(1_000_000) as usize;
        let zone = rng.gen_range_u64(1_000_000);
        let npairs = rng.gen_range_u64(20) as usize;
        let pairs: Vec<usize> = (0..npairs)
            .map(|_| rng.gen_range_u64(1_000_000) as usize)
            .collect();
        for v in [
            Verdict::Compliant,
            Verdict::EmptyPoa,
            Verdict::WindowNotCovered,
            Verdict::BadSignature { index },
            Verdict::NonMonotonic { index },
            Verdict::ImpossibleTrace { index },
            Verdict::InsideZone {
                index,
                zone: ZoneId::new(zone),
            },
            Verdict::InsufficientAlibi {
                pair_indices: pairs.clone(),
            },
        ] {
            let resp = Response::Verdict(v.clone());
            assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
    }
}

/// Bare frames: any byte string not starting with the envelope magic —
/// which includes every encoded request, whose tags live in 1..=10 —
/// passes through `split_envelope` byte-identically with an empty
/// envelope.
#[test]
fn envelope_bare_frames_decode_identically() {
    let mut rng = XorShift64::seed_from_u64(409);
    for _ in 0..CASES * 4 {
        let bytes = arb_bytes(&mut rng, 400);
        if bytes.first() == Some(&ENVELOPE_MAGIC) {
            continue; // enveloped by construction, covered below
        }
        let (env, payload) = split_envelope(&bytes).expect("bare frame must parse");
        assert_eq!(env, WireEnvelope::default());
        assert_eq!(payload, &bytes[..]);
    }
    // And specifically: every encoded request is such a frame.
    let req = Request::SubmitPoa {
        drone_id: DroneId::new(7),
        window_start: Timestamp::from_secs(1.0),
        window_end: Timestamp::from_secs(2.0),
        poa: vec![1, 2, 3],
    };
    let bytes = req.to_bytes();
    assert_ne!(bytes[0], ENVELOPE_MAGIC);
    let (env, payload) = split_envelope(&bytes).unwrap();
    assert_eq!(env, WireEnvelope::default());
    assert_eq!(Request::from_bytes(payload).unwrap(), req);
}

/// A trace-carrying envelope with arbitrary ids, and a deadline budget
/// on every other draw.
fn arb_traced_envelope(rng: &mut XorShift64) -> WireEnvelope {
    WireEnvelope {
        trace: Some(WireTraceContext {
            trace_id: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
            span_id: rng.next_u64(),
        }),
        budget_micros: rng.next_u64().is_multiple_of(2).then(|| rng.next_u64()),
    }
}

/// The envelope round-trips arbitrary trace ids, budgets and payloads.
#[test]
fn envelope_round_trips_trace_ids() {
    let mut rng = XorShift64::seed_from_u64(410);
    for _ in 0..CASES * 2 {
        let env = arb_traced_envelope(&mut rng);
        let payload = arb_bytes(&mut rng, 200);
        let frame = encode_envelope(&env, &payload);
        let (got, got_payload) = split_envelope(&frame).expect("envelope must parse");
        assert_eq!(got, env);
        assert_eq!(got_payload, &payload[..]);
    }
}

/// Truncating an enveloped frame anywhere inside the header yields a
/// clean `ProtocolError`, never a panic; arbitrary bytes after the
/// magic never panic either.
#[test]
fn envelope_truncation_is_an_error_not_a_panic() {
    let mut rng = XorShift64::seed_from_u64(411);
    for _ in 0..CASES {
        let env = arb_traced_envelope(&mut rng);
        let frame = encode_envelope(&env, &arb_bytes(&mut rng, 50));
        // Any cut inside the header (27 bytes traced, 35 with a
        // budget) must fail cleanly.
        let header = if env.budget_micros.is_some() { 35 } else { 27 };
        for cut in 1..header {
            assert!(
                split_envelope(&frame[..cut]).is_err(),
                "cut at {cut} not detected"
            );
        }
    }
    for _ in 0..CASES * 2 {
        let mut bytes = arb_bytes(&mut rng, 60);
        bytes.insert(0, ENVELOPE_MAGIC);
        let _ = split_envelope(&bytes); // must not panic
    }
}

/// Corrupting any single byte of a serialized request never yields a
/// *different valid request of the same variant with same payload* —
/// i.e. decode either fails or differs.
#[test]
fn wire_corruption_never_silent() {
    let mut rng = XorShift64::seed_from_u64(408);
    for _ in 0..CASES * 2 {
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(rng.gen_range_u64(1_000)),
            window_start: Timestamp::from_secs(1.0),
            window_end: Timestamp::from_secs(2.0),
            poa: vec![1, 2, 3],
        };
        let mut bytes = req.to_bytes();
        let pos = rng.gen_range_u64(bytes.len() as u64) as usize;
        let bit = rng.gen_range_u64(8) as u8;
        bytes[pos] ^= 1 << bit;
        match Request::from_bytes(&bytes) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, req),
        }
    }
}

/// A follower accepts a shipped image as a `Snapshot` exactly when
/// recovery opens the same image cleanly (no torn tail to cut, no
/// refusal): both read it through the one journal frame walker and the
/// one audit-chain rule. The images are a real auditor journal (epoch,
/// zones, a drone, a Merkle checkpoint) and the same journal after a
/// compaction (a snapshot head, its state records, the epoch, one
/// later zone), each cut at every length and hit with seeded
/// single-bit flips, every header bit included.
#[test]
fn follower_accepts_exactly_what_recovery_opens_cleanly() {
    let backend = Arc::new(MemBackend::new());
    let config = AuditorConfig {
        checkpoint_interval: 2,
        ..AuditorConfig::default()
    };
    let (auditor, _) = Auditor::recover(backend.clone(), config, auditor_key().clone()).unwrap();
    auditor.begin_epoch(1).unwrap();
    auditor.register_zone(NoFlyZone::new(origin(), Distance::from_meters(100.0)));
    auditor.register_drone(
        auditor_key().public_key().clone(),
        tee_key().public_key().clone(),
    );
    auditor.register_zone(NoFlyZone::new(
        origin().destination(90.0, Distance::from_meters(500.0)),
        Distance::from_meters(50.0),
    ));
    let image = backend.bytes();
    let records = frame_records(&image);
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::AuditCheckpoint { .. })));
    // Every cut after the header or after a whole frame is clean.
    assert_eq!(follower_recovery_parity(&image, 409), records.len() + 1);

    auditor.compact_journal().unwrap();
    auditor.register_zone(NoFlyZone::new(
        origin().destination(0.0, Distance::from_meters(900.0)),
        Distance::from_meters(60.0),
    ));
    let image = backend.bytes();
    let records = frame_records(&image);
    let state = records
        .iter()
        .skip(1)
        .take_while(|r| r.is_audited())
        .count();
    assert!(matches!(records[0], Record::Snapshot(_)));
    assert_eq!(state, 3, "a drone and two zones");
    // A cut inside the snapshot's state records is refused by both.
    assert_eq!(
        follower_recovery_parity(&image, 410),
        records.len() + 1 - state
    );
}

/// The primary serves only what is committed. For seeded interleavings
/// of registrations, zone queries (some replaying an earlier nonce),
/// submissions, retention purges and compactions, with the follower's
/// next append failing now and then (so `Quorum(1)` is lost and the
/// write stays pending), the primary's `snapshot()` equals the
/// `snapshot()` of `Auditor::recover` over its committed prefix. With
/// one follower under `Quorum(1)` the commit point is that follower's
/// acked offset, so the committed prefix is the image it holds.
#[test]
fn primary_state_is_recovery_of_its_committed_prefix() {
    let config = AuditorConfig {
        checkpoint_interval: 3,
        ..AuditorConfig::default()
    };
    let mut rng = XorShift64::seed_from_u64(0xC0217);
    let traces: Vec<_> = (0..4).map(|_| arb_trace(&mut rng)).collect();
    let committed_state = |backend: &MemBackend| {
        let (recovered, _) = Auditor::recover(
            Arc::new(MemBackend::with_bytes(backend.bytes())),
            config.clone(),
            auditor_key().clone(),
        )
        .expect("a committed prefix recovers");
        recovered.snapshot()
    };
    for case in 0..CASES as u64 / 4 {
        let mut rng = XorShift64::seed_from_u64(0xC0217 + case);
        let held = Arc::new(MemBackend::new());
        let follower = Arc::new(Follower::new(held.clone()));
        let (primary, _) = Auditor::recover(
            Arc::new(MemBackend::new()),
            config.clone(),
            auditor_key().clone(),
        )
        .unwrap();
        let followers = [("f0".to_string(), follower)];
        arm(
            &primary,
            &followers,
            ReplicationPolicy::Quorum(1),
            1,
            &Obs::noop(),
        )
        .unwrap();
        let drone = primary
            .register_drone_durable(
                auditor_key().public_key().clone(),
                tee_key().public_key().clone(),
            )
            .unwrap();
        let mut nonces: Vec<[u8; 16]> = Vec::new();
        for step in 0..16 {
            if rng.gen_range_u64(3) == 0 {
                held.fail_next_append();
            }
            match rng.gen_range_u64(6) {
                0 => {
                    let zones = arb_zones(&mut rng);
                    if let Some(zone) = zones.first() {
                        let _ = primary.register_zone_durable(*zone);
                    }
                }
                1 => {
                    let _ = primary.register_drone_durable(
                        auditor_key().public_key().clone(),
                        tee_key().public_key().clone(),
                    );
                }
                2 => {
                    let mut nonce = [0u8; 16];
                    match nonces.len() {
                        n if n > 0 && rng.gen_range_u64(3) == 0 => {
                            nonce = nonces[rng.gen_range_u64(n as u64) as usize];
                        }
                        _ => {
                            rng.fill_bytes(&mut nonce);
                            nonces.push(nonce);
                        }
                    }
                    let corner = origin().destination(45.0, Distance::from_km(8.0));
                    let query = ZoneQuery::new_signed(
                        drone,
                        origin().destination(225.0, Distance::from_km(8.0)),
                        corner,
                        nonce,
                        auditor_key(),
                    )
                    .unwrap();
                    let _ = primary.handle_zone_query(&query);
                }
                3 | 4 => {
                    let entries = traces[rng.gen_range_u64(traces.len() as u64) as usize].clone();
                    let window_end = entries.last().unwrap().sample().time();
                    let submission = Submission::plain(PoaSubmission {
                        drone_id: drone,
                        window_start: Timestamp::EPOCH,
                        window_end,
                        poa: ProofOfAlibi::from_entries(entries),
                    });
                    let _ = primary.verify(&submission, Timestamp::from_secs(step as f64 * 3600.0));
                }
                _ if rng.gen_range_u64(2) == 0 => {
                    let _ = primary.purge_expired(Timestamp::from_secs(
                        step as f64 * 3600.0 + 2.0 * 86_400.0 - 4.0 * 3600.0,
                    ));
                }
                _ => {
                    let _ = primary.compact_journal();
                }
            }
            assert!(
                primary.snapshot() == committed_state(&held),
                "case {case} step {step}: the primary's state is not its committed prefix's"
            );
        }
    }
}

/// The records of a journal image, in order: after the header, each
/// frame is `len | crc | payload`.
fn frame_records(image: &[u8]) -> Vec<Record> {
    let mut records = Vec::new();
    let mut at = HEADER_LEN;
    while at < image.len() {
        let len = u32::from_be_bytes(image[at..at + 4].try_into().unwrap()) as usize;
        let payload = &image[at + FRAME_OVERHEAD..at + FRAME_OVERHEAD + len];
        records.push(Record::from_payload(payload).unwrap());
        at += FRAME_OVERHEAD + len;
    }
    records
}

/// Checks follower/recovery agreement on every cut of `image` and on
/// seeded bit flips of it; returns how many of them opened cleanly.
/// Wherever recovery succeeds with a record, a follower restarted over
/// the same bytes holds exactly the records recovery applied and takes
/// the recovered auditor's epoch.
fn follower_recovery_parity(image: &[u8], seed: u64) -> usize {
    let mut damaged: Vec<Vec<u8>> = (1..=image.len()).map(|n| image[..n].to_vec()).collect();
    let mut flip = |pos: usize, bit: u64| {
        let mut bytes = image.to_vec();
        bytes[pos] ^= 1 << bit;
        damaged.push(bytes);
    };
    for pos in 0..HEADER_LEN {
        for bit in 0..8 {
            flip(pos, bit);
        }
    }
    let mut rng = XorShift64::seed_from_u64(seed);
    for _ in 0..CASES * 4 {
        flip(
            rng.gen_range_u64(image.len() as u64) as usize,
            rng.gen_range_u64(8),
        );
    }

    let mut clean = 0;
    for bytes in &damaged {
        let recovered = Auditor::recover(
            Arc::new(MemBackend::with_bytes(bytes.clone())),
            AuditorConfig::default(),
            auditor_key().clone(),
        );
        if let Ok((auditor, report)) = &recovered {
            if report.records_applied >= 1 {
                let restarted = Follower::new(Arc::new(MemBackend::with_bytes(bytes.clone())));
                assert_eq!(
                    restarted.record_count(),
                    report.records_applied as u64,
                    "restart and recovery hold different records of a {}-byte image",
                    bytes.len()
                );
                assert_eq!(
                    restarted.current_epoch(),
                    auditor.current_epoch(),
                    "restart and recovery take different epochs from a {}-byte image",
                    bytes.len()
                );
            }
        }
        let opens_cleanly = recovered.is_ok_and(|(_, report)| !report.torn_tail);
        let follower = Follower::new(Arc::new(MemBackend::new()));
        let accepted = follower
            .apply(&ReplFrame::Snapshot {
                epoch: 1,
                image: bytes,
            })
            .is_ok();
        assert_eq!(
            accepted,
            opens_cleanly,
            "follower and recovery disagree on a {}-byte image",
            bytes.len()
        );
        clean += usize::from(opens_cleanly);
    }
    clean
}
