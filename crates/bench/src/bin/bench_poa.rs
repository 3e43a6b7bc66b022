//! The persistent PoA performance baseline runner.
//!
//! Measures a fixed list of protocol-critical operations — RSA
//! sign/verify, one drone-side TEE sample and its §VII-A1 ablations
//! (batch signing, symmetric MACs), the GPS fix alone, the eq. 1–3
//! geometry the auditor and the drone adapter run, end-to-end PoA
//! verification and decryption, zone queries over the wire codec,
//! journal appends, the audit log, a real loopback TCP round trip, the
//! metrics exporter — and writes the quantiles to a schema-versioned
//! `BENCH_poa.json` (see [`alidrone_bench::baseline`]). This case list
//! is the workspace's only benchmark registry. A committed baseline
//! plus `--diff` turns the file into a regression gate:
//!
//! ```text
//! cargo run -p alidrone-bench --release --bin bench_poa             # write BENCH_poa.json
//! cargo run -p alidrone-bench --release --bin bench_poa -- \
//!     --out new.json
//! cargo run -p alidrone-bench --release --bin bench_poa -- \
//!     --diff BENCH_poa.json new.json --threshold 0.25               # exit 1 on regression
//! ```
//!
//! `--samples N` (or `BENCH_POA_SAMPLES=N`) trades precision for wall
//! time. `--gate PREFIX,...` narrows which cases can fail the diff:
//! regressions in matching cases, and matching cases missing from the
//! new run, exit non-zero; the rest print as advisory. A prefix that
//! matches no case of the old baseline is an error. CI uses a reduced
//! sample count and gates only the CPU-bound cases (`rsa_sign_*`,
//! `rsa_verify_*`, `tee_sample_*`, `poa_verify_e2e_50`,
//! `merkle_proof_*`, `crc32_*`, `sha256_*`, `audit_append_*`,
//! `geo_check_alibi_*`, `follower_catchup_*`), which stay stable on
//! shared runners; the I/O-heavy cases (journal appends, TCP, the
//! exporter) remain advisory, and so does `repl_arm_two_followers_10k`,
//! whose time depends on the runner's core count.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

use alidrone_bench::baseline::{diff, Baseline, BenchCase, Gate};
use alidrone_bench::bench_key;
use alidrone_bench::harness::Bencher;
use alidrone_core::audit::{verify_inclusion, AuditChain};
use alidrone_core::journal::{crc32, Journal, MemBackend, Record, StorageBackend, FRAME_OVERHEAD};
use alidrone_core::repl::{
    Follower, InProcessLink, ReplAck, ReplFrame, ReplicationPolicy, Replicator,
};
use alidrone_core::symmetric::establish_flight_key;
use alidrone_core::verify_pool::VerifyPool;
use alidrone_core::wire::server::AuditorServer;
use alidrone_core::wire::tcp::{TcpServer, TcpTransport};
use alidrone_core::wire::transport::AuditorClient;
use alidrone_core::wire::{Request, Response};
use alidrone_core::{
    Auditor, AuditorConfig, DroneId, PoaSubmission, ProofOfAlibi, Submission, ZoneQuery,
};
use alidrone_crypto::dh::DhGroup;
use alidrone_crypto::rng::{Rng, XorShift64};
use alidrone_crypto::rsa::HashAlg;
use alidrone_crypto::sha256::sha256;
use alidrone_geo::polygon::smallest_enclosing_circle;
use alidrone_geo::sufficiency::{check_alibi, Criterion};
use alidrone_geo::trajectory::TrajectoryBuilder;
use alidrone_geo::{
    Distance, Enu, GeoPoint, GpsSample, NoFlyZone, Speed, Timestamp, ZoneSet, FAA_MAX_SPEED,
};
use alidrone_gps::{SimClock, SimulatedReceiver};
use alidrone_obs::{prometheus_text, Obs, ToJson};
use alidrone_tee::{SecureWorldBuilder, SignedSample, TeeSession, GPS_SAMPLER_UUID};

/// Default measurement samples per case (CI overrides this down).
const DEFAULT_SAMPLES: usize = 20;

/// Default regression slack for `--diff`: run-to-run noise on a warm
/// machine stays well inside 25%.
const DEFAULT_THRESHOLD: f64 = 0.25;

fn origin() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).expect("valid origin")
}

/// An eastbound 10 m/s trace signed with the cached 512-bit bench key
/// (the same construction the unit-test fixtures use).
fn signed_trace(n: usize) -> ProofOfAlibi {
    let key = bench_key(512);
    (0..n)
        .map(|i| {
            let s = GpsSample::new(
                origin().destination(90.0, Distance::from_meters(10.0 * i as f64)),
                Timestamp::from_secs(i as f64),
            );
            let sig = key
                .sign(&s.to_bytes(), HashAlg::Sha1)
                .expect("bench signing");
            SignedSample::from_parts(s, sig, HashAlg::Sha1)
        })
        .collect()
}

/// A GPS Sampler session over a secure world holding the cached bench
/// key, reading a receiver with a fix on a 30 mph eastbound track.
fn tee_session(bits: usize) -> (SimClock, TeeSession) {
    let end = origin().destination(90.0, Distance::from_km(100.0));
    let track = TrajectoryBuilder::start_at(origin())
        .travel_to(end, Speed::from_mph(30.0))
        .build()
        .expect("bench trajectory");
    let clock = SimClock::new();
    let receiver = SimulatedReceiver::from_trajectory(track, clock.clone(), 5.0);
    let world = SecureWorldBuilder::new()
        .with_sign_key(bench_key(bits).clone())
        .with_gps_device(Box::new(receiver))
        .build()
        .expect("bench secure world");
    clock.advance(alidrone_geo::Duration::from_secs(1.0));
    let session = world
        .client()
        .open_session(GPS_SAMPLER_UUID)
        .expect("GPS Sampler session");
    (clock, session)
}

/// `n` small (20 ft) zones spiralling out to ~5 km from the origin:
/// the registry the eq. 1 and nearest-zone cases scale with.
fn zone_set(n: usize) -> ZoneSet {
    (0..n)
        .map(|i| {
            let bearing = (i as f64 * 137.5) % 360.0;
            let dist = 100.0 + (i as f64 * 53.0) % 5_000.0;
            NoFlyZone::new(
                origin().destination(bearing, Distance::from_meters(dist)),
                Distance::from_feet(20.0),
            )
        })
        .collect()
}

/// A stored-verdict journal record whose payload is 2048 bytes, about
/// the size of one retained 1024-bit PoA and its verdict.
fn verdict_record(i: u64) -> Record {
    let poa = (0..2000u64)
        .map(|j| (i ^ j.wrapping_mul(31)) as u8)
        .collect();
    Record::PoaStored {
        drone: i % 16,
        window_start: i as f64,
        window_end: i as f64 + 30.0,
        poa,
        verdict: vec![0; 7],
        stored_at: i as f64 + 31.0,
    }
}

/// A journal of 10^4 stored verdicts with a Merkle checkpoint every 32,
/// as the auditor journals them (~20 MB).
fn verdict_journal_10k() -> Journal {
    let journal = Journal::open(Arc::new(MemBackend::new()), &[], 0).expect("open journal");
    let mut chain = AuditChain::new();
    for i in 0..10_000u64 {
        let payload = verdict_record(i).to_payload();
        chain.append(&payload);
        journal.append_payload(&payload).expect("append");
        if chain.size().is_multiple_of(32) {
            let checkpoint = Record::AuditCheckpoint {
                size: chain.size(),
                root: chain.root(),
                sig: vec![0x5A; 128],
            };
            journal.append_record(&checkpoint).expect("append");
        }
    }
    journal
}

fn case_from(name: &str, b: &Bencher) -> BenchCase {
    let median_ns = b.median_ns();
    BenchCase {
        name: name.to_string(),
        samples: b.sample_count() as u64,
        median_ns,
        p95_ns: b.p95_ns(),
        p99_ns: b.p99_ns(),
        throughput_per_sec: if median_ns > 0.0 {
            1e9 / median_ns
        } else {
            0.0
        },
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn report_case(case: &BenchCase) {
    println!(
        "{:<28} median {:>12}  p95 {:>12}  p99 {:>12}  {:>12.1}/s",
        case.name,
        human_time(case.median_ns),
        human_time(case.p95_ns),
        human_time(case.p99_ns),
        case.throughput_per_sec,
    );
}

/// Runs every case at `samples` samples each, in a fixed order so two
/// baseline files are diffable line by line.
fn run_cases(samples: usize) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let mut run = |name: &str, f: &mut dyn FnMut(&mut Bencher)| {
        let mut b = Bencher::with_samples(samples);
        f(&mut b);
        let case = case_from(name, &b);
        report_case(&case);
        cases.push(case);
    };

    // --- RSA primitives: the per-sample cost floor of the protocol.
    // A 1024-bit key signs its two 512-bit CRT halves on the Montgomery
    // kernel the machine's `montgomery` field names.
    let msg = b"alidrone bench message: one GPS sample's signing payload";
    for bits in [1024usize, 2048] {
        run(&format!("rsa_sign_{bits}"), &mut |b| {
            let key = bench_key(bits);
            b.iter(|| key.sign(msg, HashAlg::Sha1).expect("sign"));
        });
    }
    for bits in [1024usize, 2048] {
        run(&format!("rsa_verify_{bits}"), &mut |b| {
            let key = bench_key(bits);
            let sig = key.sign(msg, HashAlg::Sha1).expect("sign");
            b.iter(|| {
                key.public_key()
                    .verify(msg, &sig, HashAlg::Sha1)
                    .expect("verify")
            });
        });
    }

    // --- One drone-side sample: `GetGPSAuth` through the modelled
    // secure world (world switch in, driver read, NMEA parse, sign,
    // world switch out). The default cost model only keeps accounts,
    // it never sleeps, so this is the wall-clock unit behind the drone
    // side's per-sample latency.
    for bits in [1024usize, 2048] {
        run(&format!("tee_sample_{bits}"), &mut |b| {
            let (_clock, session) = tee_session(bits);
            b.iter(|| session.get_gps_auth().expect("GetGPSAuth"));
        });
    }

    // --- The GPS fix alone: world switch in, driver read, NMEA parse,
    // world switch out, no signature — the non-crypto share of a sample.
    run("tee_read_gps_raw", &mut |b| {
        let (_clock, session) = tee_session(1024);
        b.iter(|| session.read_gps_raw().expect("raw GPS read"));
    });

    // --- §VII-A1b batch signing: 30 samples cached in the secure world,
    // then one signature over the whole trace (compare 30 ×
    // `tee_sample_1024`).
    run("tee_batch_sign_30_1024", &mut |b| {
        let (_clock, session) = tee_session(1024);
        b.iter(|| {
            for _ in 0..30 {
                session.cache_sample().expect("cache sample");
            }
            session.sign_trace().expect("sign trace")
        });
    });

    // --- §VII-A1a symmetric authentication: one sample MACed with the
    // per-flight key (the DH exchange is once per flight, untimed).
    run("tee_hmac_sample", &mut |b| {
        let mut rng = XorShift64::seed_from_u64(5);
        let (drone, _auditor) =
            establish_flight_key(&DhGroup::modp_2048(), &mut rng).expect("flight key");
        let sample = GpsSample::new(origin(), Timestamp::from_secs(1.0));
        b.iter(|| drone.authenticate(black_box(sample)));
    });

    // --- The prepared-context fast path: Montgomery parameters are
    // computed once, so this is what a registered key's verify costs.
    run("rsa_verify_prepared_2048", &mut |b| {
        let key = bench_key(2048);
        let sig = key.sign(msg, HashAlg::Sha1).expect("sign");
        let verifier = key.public_key().verifier();
        b.iter(|| verifier.verify(msg, &sig, HashAlg::Sha1).expect("verify"));
    });

    // --- Eq. 1 over a whole 1000-sample trace (5 Hz, 10 m/s
    // eastbound) with the paper criterion, sized by zone count: every
    // consecutive pair against every zone.
    let trace: Vec<GpsSample> = (0..1_000)
        .map(|i| {
            GpsSample::new(
                origin().destination(90.0, Distance::from_meters(i as f64 * 2.0)),
                Timestamp::from_secs(i as f64 * 0.2),
            )
        })
        .collect();
    for zones_n in [10usize, 100] {
        run(&format!("geo_check_alibi_1k_{zones_n}z"), &mut |b| {
            let zones = zone_set(zones_n);
            b.iter(|| check_alibi(&trace, &zones, FAA_MAX_SPEED, Criterion::Paper));
        });
    }

    // --- The drone adapter's per-update lookup: the zone whose
    // boundary is nearest, out of 1000.
    run("geo_nearest_zone_1k", &mut |b| {
        let zones = zone_set(1_000);
        let p = origin().destination(45.0, Distance::from_meters(321.0));
        b.iter(|| zones.nearest(black_box(&p)).is_some());
    });

    // --- Polygon-zone registration (§VII-B2): Welzl's smallest
    // enclosing circle over 1000 vertices.
    run("geo_enclosing_circle_1k", &mut |b| {
        let mut rng = XorShift64::seed_from_u64(99);
        let pts: Vec<Enu> = (0..1_000)
            .map(|_| Enu::new(rng.gen_f64() * 1_000.0, rng.gen_f64() * 1_000.0))
            .collect();
        b.iter(|| smallest_enclosing_circle(black_box(&pts)));
    });

    // --- PoA verification end to end: 50 samples, one zone nearby
    // (signatures → monotonicity → feasibility → eq. 1), fresh auditor
    // per sample so stored proofs never accumulate into the timing.
    run("poa_verify_e2e_50", &mut |b| {
        let submission = Submission::plain(PoaSubmission {
            drone_id: DroneId::new(1),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(49.0),
            poa: signed_trace(50),
        });
        b.iter_batched(
            || {
                let a = Auditor::new(AuditorConfig::default(), bench_key(512).clone());
                a.register_zone(NoFlyZone::new(
                    origin().destination(0.0, Distance::from_km(5.0)),
                    Distance::from_meters(100.0),
                ));
                a.register_drone(
                    bench_key(512).public_key().clone(),
                    bench_key(512).public_key().clone(),
                );
                a
            },
            |a| {
                a.verify(&submission, Timestamp::from_secs(0.0))
                    .expect("verify submission")
            },
        );
    });

    // --- The same 50-sample verification with a verify pool installed:
    // per-entry signature checks fan across 4 workers plus the caller.
    run("poa_verify_batch_50", &mut |b| {
        let pool = Arc::new(VerifyPool::new(4, &Obs::noop()));
        let submission = Submission::plain(PoaSubmission {
            drone_id: DroneId::new(1),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(49.0),
            poa: signed_trace(50),
        });
        b.iter_batched(
            || {
                let a = Auditor::new(AuditorConfig::default(), bench_key(512).clone());
                a.register_zone(NoFlyZone::new(
                    origin().destination(0.0, Distance::from_km(5.0)),
                    Distance::from_meters(100.0),
                ));
                a.register_drone(
                    bench_key(512).public_key().clone(),
                    bench_key(512).public_key().clone(),
                );
                assert!(a.install_verify_pool(Arc::clone(&pool)));
                a
            },
            |a| {
                a.verify(&submission, Timestamp::from_secs(0.0))
                    .expect("verify submission")
            },
        );
    });

    // --- The auditor side of `submit_encrypted_poa` (§V-C): a
    // 50-sample PoA RSAES-encrypted block by block to a 1024-bit
    // auditor key, decrypted and reparsed.
    run("poa_decrypt_50", &mut |b| {
        let key = bench_key(1024);
        let mut rng = XorShift64::seed_from_u64(9);
        let encrypted = signed_trace(50)
            .encrypt(key.public_key(), &mut rng)
            .expect("encrypt PoA");
        b.iter(|| encrypted.decrypt(key).expect("decrypt PoA"));
    });

    // --- A signed zone query through the full wire path (decode →
    // admission → signature check → spatial lookup → encode). Each
    // sample consumes a fresh nonce; signing it happens in untimed
    // setup.
    run("zone_query_wire", &mut |b| {
        let obs = Obs::noop();
        let server = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            bench_key(512).clone(),
        ))
        .obs(&obs)
        .build();
        let drone = server.auditor().register_drone(
            bench_key(512).public_key().clone(),
            bench_key(512).public_key().clone(),
        );
        for i in 0..16u64 {
            server.auditor().register_zone(NoFlyZone::new(
                origin().destination((i as f64 * 137.5) % 360.0, Distance::from_km(1.0)),
                Distance::from_meters(50.0),
            ));
        }
        let mut nonce_counter = 0u64;
        let mut next_query = || {
            nonce_counter += 1;
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&nonce_counter.to_be_bytes());
            let q = ZoneQuery::new_signed(
                drone,
                origin(),
                origin().destination(45.0, Distance::from_km(3.0)),
                nonce,
                bench_key(512),
            )
            .expect("signed query");
            Request::QueryZones(q).to_bytes()
        };
        // Sanity: the query must actually succeed before it is timed.
        let reply = server.handle(&next_query(), Timestamp::from_secs(0.0));
        assert!(
            matches!(Response::from_bytes(&reply), Ok(Response::Zones(_))),
            "zone query must answer with zones, got {reply:?}"
        );
        b.iter_batched(next_query, |bytes| {
            server.handle(bytes, Timestamp::from_secs(0.0))
        });
    });

    // --- One durable journal append (frame + CRC + in-memory backend).
    run("journal_append", &mut |b| {
        let journal = Journal::open(Arc::new(MemBackend::new()), &[], 0).expect("open journal");
        let record = Record::RegisterZone {
            id: 1,
            lat_deg: 40.1164,
            lon_deg: -88.2434,
            radius_m: 120.0,
        };
        b.iter(|| journal.append_record(&record).expect("append"));
    });

    // --- The same append with synchronous Quorum(1) replication to two
    // in-process followers: frame + CRC + ship + durable follower ack.
    // A fresh journal per measurement keeps the shipped tail one record
    // long, so the case times the steady-state per-append cost instead
    // of an ever-growing log.
    run("journal_replicated_append", &mut |b| {
        let obs = Obs::noop();
        let record = Record::RegisterZone {
            id: 1,
            lat_deg: 40.1164,
            lon_deg: -88.2434,
            radius_m: 120.0,
        };
        let fresh = || {
            let journal = Journal::open(Arc::new(MemBackend::new()), &[], 0).expect("open journal");
            let mut replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1));
            for i in 0..2 {
                let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
                replicator = replicator.with_follower(
                    format!("f{i}"),
                    InProcessLink::new(Arc::new(Follower::new(backend))),
                );
            }
            // First sync ships the journal header so the timed append
            // replicates exactly one record.
            replicator.replicate(&journal).expect("initial sync");
            (journal, replicator)
        };
        b.iter_batched(fresh, |(journal, replicator)| {
            journal.append_record(&record).expect("append");
            replicator.replicate(journal).expect("replicate");
        });
    });

    // --- The marginal cost the tamper-evident log adds to every
    // audited journal append: encode the record payload, advance the
    // hash chain head, cache the leaf hash.
    run("audit_append_chain", &mut |b| {
        let record = Record::RegisterZone {
            id: 1,
            lat_deg: 40.1164,
            lon_deg: -88.2434,
            radius_m: 120.0,
        };
        let mut chain = AuditChain::new();
        b.iter(|| chain.append(&black_box(record.to_payload())));
    });

    // --- The same chain step over a stored-verdict-sized payload (the
    // ~2 KiB `PoaStored` records that dominate a real history): one
    // leaf hash over the payload, one fixed 72-byte chain step, and the
    // subtree hashes the leaf completes.
    run("audit_append_poa_2k", &mut |b| {
        let payload = verdict_record(0).to_payload();
        assert_eq!(payload.len(), 2048);
        let mut chain = AuditChain::new();
        b.iter(|| chain.append(black_box(&payload)));
    });

    // --- The journal frame checksum over 1 MiB: recovery and every
    // follower check it once per history byte.
    run("crc32_1mib", &mut |b| {
        let data: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        b.iter(|| crc32(black_box(&data)));
    });

    // --- SHA-256 over 1 MiB: recovery, every follower and every
    // audit append hash each history byte through it, on the kernel
    // the machine's `sha256` field names.
    run("sha256_1mib", &mut |b| {
        let data: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        b.iter(|| sha256(black_box(&data)));
    });

    // --- Follower catch-up: one `Snapshot` frame carrying a 10^4-record
    // history of stored verdicts (with a Merkle checkpoint every 32, as
    // the auditor journals them) into a fresh follower, which checks
    // every CRC, extends its audit chain over every record, checks
    // every checkpoint root, then persists the bytes.
    run("follower_catchup_10k", &mut |b| {
        let journal = verdict_journal_10k();
        let image = journal.read_durable().expect("read");
        let frame = ReplFrame::Snapshot {
            epoch: 1,
            image: image.bytes(),
        };
        let fresh = || Follower::new(Arc::new(MemBackend::new()));
        // Sanity: the whole frame must be accepted before it is timed.
        let ack = fresh().apply(&frame).expect("apply");
        assert_eq!(
            ack,
            ReplAck::Acked {
                offset: image.end()
            }
        );
        b.iter_batched(fresh, |follower| follower.apply(&frame));
    });

    // --- An arm over the same history: one replication round reads the
    // image once and ships it to two fresh followers at once, each on
    // its own core where there are two. It depends on the core count,
    // so no gate covers it.
    run("repl_arm_two_followers_10k", &mut |b| {
        let journal = verdict_journal_10k();
        let obs = Obs::noop();
        let arm = || {
            (0..2).fold(
                Replicator::new(&obs, ReplicationPolicy::Quorum(2)),
                |replicator, i| {
                    let follower = Follower::new(Arc::new(MemBackend::new()));
                    replicator
                        .with_follower(format!("f{i}"), InProcessLink::new(Arc::new(follower)))
                },
            )
        };
        arm().replicate(&journal).expect("both followers ack");
        b.iter_batched(arm, |replicator| replicator.replicate(&journal));
    });

    // --- Compaction and the recovery it bounds: an auditor holding
    // 1,000 stored 60-sample 1024-bit PoAs (~9.5 MB) writes its state
    // as a fresh journal image, which a new auditor then replays.
    run("compact_recover_1k", &mut |b| {
        let key = bench_key(1024);
        let backend = Arc::new(MemBackend::new());
        let recover = |backend: &Arc<MemBackend>| {
            Auditor::recover(
                Arc::clone(backend) as Arc<dyn StorageBackend>,
                AuditorConfig::default(),
                bench_key(512).clone(),
            )
            .expect("recover")
            .0
        };
        let auditor = recover(&backend);
        let drone = auditor.register_drone(key.public_key().clone(), key.public_key().clone());
        let poa: ProofOfAlibi = (0..60)
            .map(|i| {
                let s = GpsSample::new(
                    origin().destination(90.0, Distance::from_meters(10.0 * i as f64)),
                    Timestamp::from_secs(i as f64),
                );
                let sig = key.sign(&s.to_bytes(), HashAlg::Sha1).expect("sign");
                SignedSample::from_parts(s, sig, HashAlg::Sha1)
            })
            .collect();
        let submission = PoaSubmission {
            drone_id: drone,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(59.0),
            poa,
        };
        // Verified once, then its stored record repeated: the history
        // is what compaction pays for, not 1,000 verifications.
        let before = backend.len();
        let report = auditor
            .verify(&Submission::plain(submission), Timestamp::from_secs(60.0))
            .expect("verify");
        assert!(report.is_compliant());
        drop(auditor);
        let image = backend.bytes();
        let journal = Journal::open(backend.clone(), &image, image.len()).expect("open journal");
        // The verify appended one frame, the stored PoA's.
        let stored = image[before + FRAME_OVERHEAD..].to_vec();
        for _ in 1..1_000 {
            journal.append_payload(&stored).expect("append");
        }
        drop(journal);
        let auditor = recover(&backend);
        assert_eq!(auditor.stored_poa_count(), 1_000);
        b.iter(|| {
            auditor.compact_journal().expect("compact");
            recover(&backend)
        });
    });

    // --- Serving a transparency client at scale: one inclusion proof
    // out of a 64k-leaf audit tree, assembled from the chain's stored
    // complete-subtree hashes (O(log² n) node hashing at worst, none
    // at all for a perfect tree like this one).
    run("merkle_proof_64k", &mut |b| {
        let mut chain = AuditChain::new();
        for i in 0..65_536u64 {
            chain.append(&i.to_be_bytes());
        }
        let size = chain.size();
        let root = chain.root();
        // Sanity: the proof must actually verify before it is timed.
        let p = chain.prove_inclusion(12_345, size).expect("inclusion");
        assert!(verify_inclusion(&p.leaf, p.index, p.size, &p.path, &root));
        let mut idx = 1u64;
        b.iter(|| {
            // Deterministic LCG walk over the leaves, so every sample
            // proves a different index.
            idx = (idx.wrapping_mul(48_271) + 11) % size;
            chain.prove_inclusion(idx, size).expect("inclusion proof")
        });
    });

    // --- A full loopback TCP round trip: connect-once client, framed
    // health check through the threaded server.
    run("tcp_round_trip_health", &mut |b| {
        let obs = Obs::noop();
        let server = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                bench_key(512).clone(),
            ))
            .obs(&obs)
            .build(),
        );
        let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
        let mut client = AuditorClient::new(TcpTransport::new(tcp.local_addr()));
        b.iter(|| {
            client
                .health_check(Timestamp::from_secs(0.0))
                .expect("health check")
        });
        tcp.shutdown();
    });

    // --- Wire codec round trip of a realistic PoA submission frame.
    run("wire_codec_submit_poa_50", &mut |b| {
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(1),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(49.0),
            poa: signed_trace(50).to_bytes(),
        };
        b.iter(|| Request::from_bytes(&black_box(req.to_bytes())).expect("decode"));
    });

    // --- The exporter behind `GET /metrics`: a populated registry
    // rendered to Prometheus text.
    run("prometheus_export", &mut |b| {
        let obs = Obs::noop();
        for i in 0..64u64 {
            obs.counter(&format!("bench.counter_{i}")).add(i);
        }
        for i in 0..16u64 {
            let h = obs.histogram(&format!("bench.histogram_{i}"));
            for j in 0..100u64 {
                h.record_micros(j * 37 + i);
            }
        }
        let snap = obs.snapshot();
        b.iter(|| prometheus_text(&snap));
    });

    // --- The same exporter over a large registry: 2,048 counters and
    // 64 histograms of 100 samples each, rendered to Prometheus text.
    // It times the export's cost per family at a scale no soak's
    // registry reaches (a soak keeps two cohort series).
    run("prometheus_export_soak", &mut |b| {
        let obs = Obs::noop();
        for i in 0..2048u64 {
            obs.counter(&format!("fleet.drone.d{i}.ops")).add(i);
        }
        for i in 0..64u64 {
            let h = obs.histogram(&format!("server.latency.kind_{i}"));
            for j in 0..100u64 {
                h.record_micros(j * 37 + i);
            }
        }
        let snap = obs.snapshot();
        b.iter(|| prometheus_text(&snap));
    });

    cases
}

fn write_baseline(path: &str, samples: usize) -> Result<(), String> {
    println!("bench_poa: {samples} samples per case\n");
    let mut baseline = Baseline::new();
    baseline.cases = run_cases(samples);
    let text = baseline.to_json().to_pretty();
    std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))?;
    println!("\nwrote {} cases to {path}", baseline.cases.len());
    Ok(())
}

fn read_baseline(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Baseline::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn diff_baselines(
    old_path: &str,
    new_path: &str,
    threshold: f64,
    gate: &Gate,
) -> Result<bool, String> {
    let old = read_baseline(old_path)?;
    let new = read_baseline(new_path)?;
    gate.check_against(&old)
        .map_err(|e| format!("{old_path}: {e}"))?;
    if old.machine != new.machine {
        println!(
            "note: baselines come from different machines ({} vs {})",
            old.machine, new.machine
        );
    }
    let report = diff(&old, &new, threshold);
    println!(
        "bench-diff: {old_path} -> {new_path} (threshold {:.0}%)\n",
        threshold * 100.0
    );
    for delta in &report.deltas {
        let marker = match (delta.regressed, gate.covers(&delta.name)) {
            (true, true) => "REGRESSED",
            (true, false) => "regressed (advisory)",
            _ => "ok",
        };
        println!(
            "{:<28} {:>12} -> {:>12}  ({:+6.1}%)  {marker}",
            delta.name,
            human_time(delta.old_median_ns),
            human_time(delta.new_median_ns),
            (delta.ratio - 1.0) * 100.0,
        );
    }
    for name in &report.added {
        println!("{name:<28} (new case, no baseline)");
    }
    for name in &report.removed {
        let marker = if gate.covers(name) {
            "MISSING"
        } else {
            "missing (advisory)"
        };
        println!("{name:<28} (removed from new run)  {marker}");
    }
    let regressions = report.regressions().count();
    let failures = report.gate_failures(gate).len();
    println!(
        "\n{} case(s) compared, {regressions} regression(s), {} removed ({failures} gating)",
        report.deltas.len(),
        report.removed.len(),
    );
    Ok(failures == 0)
}

fn usage() -> String {
    "usage: bench_poa [--out PATH] [--samples N]\n       \
     bench_poa --diff OLD NEW [--threshold F] [--gate PREFIX,PREFIX,...]"
        .to_string()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_poa.json".to_string();
    let mut samples = std::env::var("BENCH_POA_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SAMPLES);
    let mut threshold = DEFAULT_THRESHOLD;
    let mut diff_paths: Option<(String, String)> = None;
    let mut gate = Gate::All;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).ok_or_else(usage)?.clone();
            }
            "--samples" => {
                i += 1;
                samples = args.get(i).and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--threshold" => {
                i += 1;
                threshold = args.get(i).and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--diff" => {
                let old = args.get(i + 1).ok_or_else(usage)?.clone();
                let new = args.get(i + 2).ok_or_else(usage)?.clone();
                diff_paths = Some((old, new));
                i += 2;
            }
            "--gate" => {
                i += 1;
                gate = Gate::prefixes(args.get(i).ok_or_else(usage)?);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }

    match diff_paths {
        Some((old, new)) => diff_baselines(&old, &new, threshold, &gate),
        None => {
            write_baseline(&out, samples.max(1))?;
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_poa: performance regressions detected");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_poa: {msg}");
            ExitCode::FAILURE
        }
    }
}
