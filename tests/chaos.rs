//! Chaos and crash-recovery suite: the robustness cap over the journal,
//! the fault plane, and degraded-mode GPS.
//!
//! Three groups:
//!
//! 1. **Crash-at-every-offset sweep** — a journaled auditor scenario is
//!    truncated at *every* byte offset and recovered; each recovery must
//!    be panic-free and land exactly on the state checkpoint implied by
//!    the surviving clean record prefix.
//! 2. **Seeded campaign** — 120 seeds drive transport drops/corruption
//!    and storage tears/failures/flips through the wire stack; clients
//!    see only `Ok` or typed [`ProtocolError`]s, server state stays
//!    coherent, a journal that recovers holds every registration and
//!    verdict answered `Ok`, and failing seeds replay bit-for-bit. A
//!    smaller sweep pushes TEE signing faults, NMEA corruption, GPS
//!    dropouts and clock jumps through whole flights.
//! 3. **Degraded GPS integration** — a fault-plane dropout window mid
//!    flight must surface as a signed gap marker in the PoA and as a
//!    measurably reduced sufficiency margin at the auditor.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use alidrone::chaos::{FaultPlane, FaultyGps, FaultyTransport};
use alidrone::core::journal::{
    Journal, MemBackend, Record, StorageBackend, FRAME_OVERHEAD, MAX_RECORD_LEN,
};
use alidrone::core::wire::server::AuditorServer;
use alidrone::core::wire::transport::{AuditorClient, InProcess};
use alidrone::core::{
    run_flight, Auditor, AuditorConfig, PoaSubmission, ProofOfAlibi, ProtocolError, RecoveryReport,
    SamplingStrategy, Submission, Verdict, ZoneQuery,
};
use alidrone::crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone::geo::trajectory::TrajectoryBuilder;
use alidrone::geo::{Distance, Duration, GeoPoint, GpsSample, NoFlyZone, Speed, Timestamp};
use alidrone::gps::{SimClock, SimulatedReceiver};
use alidrone::tee::{CostModel, SecureWorldBuilder, SignedSample, GPS_SAMPLER_UUID};
use alidrone_crypto::rng::XorShift64;

/// Per-seed key cache (512-bit keygen in debug builds is slow).
fn key(seed: u64) -> RsaPrivateKey {
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

/// An eastbound 10 m/s trace at one sample per second, signed by the
/// TEE key — the honest alibi used across the suite.
fn signed_samples(n: usize) -> Vec<SignedSample> {
    (0..n)
        .map(|i| {
            let sample = GpsSample::new(
                pad().destination(90.0, Distance::from_meters(10.0 * i as f64)),
                Timestamp::from_secs(i as f64),
            );
            let sig = key(1).sign(&sample.to_bytes(), HashAlg::Sha1).unwrap();
            SignedSample::from_parts(sample, sig, HashAlg::Sha1)
        })
        .collect()
}

// ------------------------------------------------- 1. crash-offset sweep

/// Builds a journaled scenario one durable mutation at a time, capturing
/// the auditor snapshot after each, then recovers from every truncation
/// of the journal image and checks the recovered state equals the
/// checkpoint for the surviving record prefix.
#[test]
fn recovery_is_exact_at_every_crash_offset() {
    let backend = Arc::new(MemBackend::new());
    let (auditor, report) = Auditor::recover(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap();
    assert_eq!(report.records_applied, 0);

    // Checkpoint 0: the empty auditor.
    let mut checkpoints = vec![auditor.snapshot()];

    // Each step appends exactly one journal record.
    let id = auditor.register_drone(key(2).public_key().clone(), key(1).public_key().clone());
    checkpoints.push(auditor.snapshot());
    auditor.register_zone(NoFlyZone::new(
        pad().destination(0.0, Distance::from_km(1.0)),
        Distance::from_meters(50.0),
    ));
    checkpoints.push(auditor.snapshot());
    let query = ZoneQuery::new_signed(
        id,
        pad().destination(225.0, Distance::from_km(2.0)),
        pad().destination(45.0, Distance::from_km(2.0)),
        [9u8; 16],
        &key(2),
    )
    .unwrap();
    auditor.handle_zone_query(&query).unwrap();
    checkpoints.push(auditor.snapshot());
    let poa = ProofOfAlibi::from_entries(signed_samples(3));
    auditor
        .verify(
            &Submission::plain(PoaSubmission {
                drone_id: id,
                window_start: Timestamp::from_secs(0.0),
                window_end: Timestamp::from_secs(2.0),
                poa,
            }),
            Timestamp::from_secs(10.0),
        )
        .unwrap();
    checkpoints.push(auditor.snapshot());

    let image = backend.bytes();
    let mut last_applied = 0usize;
    for cut in 0..=image.len() {
        let truncated = Arc::new(MemBackend::with_bytes(image[..cut].to_vec()));
        let (recovered, report) = Auditor::recover(
            Arc::clone(&truncated) as Arc<dyn StorageBackend>,
            AuditorConfig::default(),
            key(0),
        )
        .unwrap_or_else(|e| panic!("offset {cut}: truncation must recover, got {e}"));
        // Truncation can only lose a suffix of whole records.
        assert!(
            report.records_applied >= last_applied || report.records_applied == 0,
            "offset {cut}: applied count regressed"
        );
        last_applied = report.records_applied;
        assert_eq!(
            recovered.snapshot(),
            checkpoints[report.records_applied],
            "offset {cut}: recovered state must equal the checkpoint after \
             {} records",
            report.records_applied
        );
        // The torn journal was cleaned: the recovered auditor keeps
        // journaling, and a second recovery replays the new record too.
        recovered
            .register_zone_durable(NoFlyZone::new(pad(), Distance::from_meters(10.0)))
            .unwrap_or_else(|e| panic!("offset {cut}: journal died: {e}"));
        let (reread, _) = Auditor::recover(
            Arc::new(MemBackend::with_bytes(truncated.bytes())) as Arc<dyn StorageBackend>,
            AuditorConfig::default(),
            key(0),
        )
        .unwrap_or_else(|e| panic!("offset {cut}: re-recovery failed: {e}"));
        assert_eq!(
            reread.snapshot(),
            recovered.snapshot(),
            "offset {cut}: post-crash appends must replay"
        );
    }
    // The full image replays everything with no torn tail.
    let full = Arc::new(MemBackend::with_bytes(image.clone()));
    let (_, report) = Auditor::recover(
        full as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap();
    assert!(!report.torn_tail);
    assert_eq!(report.records_applied, checkpoints.len() - 1);
}

/// Compaction replaces the image atomically; recovery from the compacted
/// journal plus later appends matches live state.
#[test]
fn compaction_survives_crash_recovery() {
    let backend = Arc::new(MemBackend::new());
    let (auditor, _) = Auditor::recover(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap();
    auditor.register_drone(key(2).public_key().clone(), key(1).public_key().clone());
    auditor.register_zone(NoFlyZone::new(pad(), Distance::from_meters(25.0)));
    auditor.compact_journal().unwrap();
    auditor.register_zone(NoFlyZone::new(
        pad().destination(90.0, Distance::from_km(1.0)),
        Distance::from_meters(40.0),
    ));

    let (recovered, report) = Auditor::recover(
        Arc::new(MemBackend::with_bytes(backend.bytes())) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(recovered.snapshot(), auditor.snapshot());
    assert_eq!(recovered.zone_count(), 2);
    assert_eq!(recovered.drone_count(), 1);
}

/// Recovers a copy of `backend`'s image with the suite's auditor key.
fn recover_copy(backend: &MemBackend) -> (Auditor, RecoveryReport) {
    Auditor::recover(
        Arc::new(MemBackend::with_bytes(backend.bytes())) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap()
}

/// The signed tree head's `(size, root, chain_head)`.
fn tree_head(auditor: &Auditor) -> (u64, [u8; 32], [u8; 32]) {
    let sth = auditor.signed_tree_head().unwrap();
    (sth.size, sth.root, sth.chain_head)
}

/// A compaction racing registrations and submissions loses none of
/// them and doubles none: it reads the state under the journal lock,
/// and a stored PoA joins the in-memory log under that lock too, so
/// every record lands either in the compacted state or after the fresh
/// image, never in an image the replace then erases or in both.
#[test]
fn compaction_racing_appends_loses_none() {
    for round in 0..20 {
        let backend = Arc::new(MemBackend::new());
        let (auditor, _) = Auditor::recover(
            Arc::clone(&backend) as Arc<dyn StorageBackend>,
            AuditorConfig::default(),
            key(0),
        )
        .unwrap();
        let drone =
            auditor.register_drone(key(2).public_key().clone(), key(1).public_key().clone());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    auditor.compact_journal().unwrap();
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            });
            let submitter = s.spawn(|| {
                for i in 0..400 {
                    let at = Timestamp::from_secs(i as f64);
                    let submission = PoaSubmission {
                        drone_id: drone,
                        window_start: at,
                        window_end: at,
                        poa: ProofOfAlibi::from_entries(Vec::new()),
                    };
                    auditor.verify(&Submission::plain(submission), at).unwrap();
                }
            });
            for i in 0..400 {
                auditor.register_zone(NoFlyZone::new(
                    pad().destination(90.0, Distance::from_meters(20.0 * i as f64)),
                    Distance::from_meters(5.0),
                ));
            }
            submitter.join().unwrap();
            done.store(true, Ordering::Release);
        });
        let (recovered, _) = recover_copy(&backend);
        assert_eq!(recovered.zone_count(), 400, "round {round}");
        assert_eq!(recovered.stored_poa_count(), 400, "round {round}");
        assert_eq!(tree_head(&recovered), tree_head(&auditor), "round {round}");
        assert_eq!(recovered.snapshot(), auditor.snapshot(), "round {round}");
    }
}

/// Compaction writes state larger than one journal frame may hold
/// (16 MiB): each stored PoA is its own frame. The state is one signed
/// 60-sample PoA, verified once and its record appended until the
/// image passes the cap, so no per-item verify slows the test.
#[test]
fn compaction_holds_state_past_one_frame_cap() {
    let backend = Arc::new(MemBackend::new());
    let (auditor, _) = Auditor::recover(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap();
    let drone = auditor.register_drone(key(2).public_key().clone(), key(1).public_key().clone());
    let submission = PoaSubmission {
        drone_id: drone,
        window_start: Timestamp::from_secs(0.0),
        window_end: Timestamp::from_secs(59.0),
        poa: ProofOfAlibi::from_entries(signed_samples(60)),
    };
    let before = backend.len();
    let report = auditor
        .verify(&Submission::plain(submission), Timestamp::from_secs(60.0))
        .unwrap();
    assert!(report.is_compliant());
    drop(auditor);

    let image = backend.bytes();
    let journal = Journal::open(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        &image,
        image.len(),
    )
    .unwrap();
    // The verify appended one frame, the stored PoA's.
    let stored = image[before + FRAME_OVERHEAD..].to_vec();
    assert!(matches!(
        Record::from_payload(&stored),
        Ok(Record::PoaStored { .. })
    ));
    while backend.len() <= MAX_RECORD_LEN + MAX_RECORD_LEN / 8 {
        journal.append_payload(&stored).unwrap();
    }
    drop(journal);

    let (before, _) = recover_copy(&backend);
    let (live, report) = Auditor::recover(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .unwrap();
    assert!(!report.snapshot_loaded);
    live.compact_journal().unwrap();
    let (after, report) = recover_copy(&backend);
    assert!(report.snapshot_loaded);
    assert!(after.stored_poa_count() > 1000);
    assert_eq!(after.stored_poa_count(), before.stored_poa_count());
    assert_eq!(after.snapshot(), before.snapshot());
    assert_eq!(tree_head(&after), tree_head(&before));
}

// --------------------------------------------------- 2. seeded campaign

/// One campaign run: wire traffic through a fault-injected transport
/// against a journaling auditor whose backend also takes scheduled
/// faults. Returns an outcome log for replay comparison.
fn campaign_run(seed: u64) -> Vec<String> {
    let mut log = Vec::new();
    let plane = FaultPlane::new(seed);
    let backend = Arc::new(MemBackend::new());
    let (auditor, _) = Auditor::recover(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    )
    .expect("fresh backend recovers");
    let server = Arc::new(AuditorServer::builder(auditor).build());
    let storage = plane.storage("journal", Arc::clone(&backend));
    let transport = FaultyTransport::new(
        InProcess::shared(Arc::clone(&server), &alidrone::obs::Obs::noop()),
        &plane,
        "transport",
    )
    .drop_with(0.15)
    .corrupt_with(0.10);
    let mut client = AuditorClient::new(transport);
    let now = Timestamp::from_secs(5.0);

    // Scheduled storage fault before each durable op.
    log.push(format!("{:?}", storage.roll(0.10, 0.10, 0.05)));
    let id = match client.register_drone(
        key(2).public_key().clone(),
        key(1).public_key().clone(),
        now,
    ) {
        Ok(id) => {
            log.push(format!("drone {id}"));
            Some(id)
        }
        Err(e) => {
            log.push(format!("drone err {e}"));
            None
        }
    };
    let (mut zones, mut verdict) = (Vec::new(), false);
    for step in 0..3u8 {
        log.push(format!("{:?}", storage.roll(0.10, 0.10, 0.05)));
        match client.register_zone(
            NoFlyZone::new(
                pad().destination(f64::from(step) * 120.0, Distance::from_km(1.0)),
                Distance::from_meters(60.0),
            ),
            now,
        ) {
            Ok(zid) => {
                log.push(format!("zone {zid}"));
                zones.push(zid);
            }
            Err(e) => log.push(format!("zone err {e}")),
        }
    }
    if let Some(id) = id {
        log.push(format!("{:?}", storage.roll(0.10, 0.10, 0.05)));
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&seed.to_be_bytes());
        match client.query_rect(
            id,
            pad().destination(225.0, Distance::from_km(2.0)),
            pad().destination(45.0, Distance::from_km(2.0)),
            nonce,
            &key(2),
            now,
        ) {
            Ok(zones) => log.push(format!("query {} zones", zones.len())),
            Err(e) => log.push(format!("query err {e}")),
        }
        log.push(format!("{:?}", storage.roll(0.10, 0.10, 0.05)));
        let poa = ProofOfAlibi::from_entries(signed_samples(3));
        match client.submit_poa(
            id,
            (Timestamp::from_secs(0.0), Timestamp::from_secs(2.0)),
            &poa,
            Timestamp::from_secs(10.0),
        ) {
            Ok(judged) => {
                log.push(format!("verdict {judged}"));
                verdict = true;
            }
            Err(e) => log.push(format!("submit err {e}")),
        }
    }

    // Server-side coherence: counts never exceed what was attempted.
    assert!(server.auditor().drone_count() <= 1, "seed {seed}");
    assert!(server.auditor().zone_count() <= 3, "seed {seed}");

    // The journal image — possibly bit-flipped by the storage faults —
    // must recover cleanly or refuse with a *typed* storage error.
    match Auditor::recover(
        Arc::new(MemBackend::with_bytes(backend.bytes())) as Arc<dyn StorageBackend>,
        AuditorConfig::default(),
        key(0),
    ) {
        Ok((recovered, report)) => {
            log.push(format!(
                "recovered {} records torn={}",
                report.records_applied, report.torn_tail
            ));
            assert!(recovered.drone_count() <= 1, "seed {seed}");
            // Zero acked-then-lost: every call answered `Ok` committed.
            if let Some(id) = id {
                assert!(recovered.tee_public_key(id).is_some(), "seed {seed}");
            }
            for zid in zones {
                assert!(recovered.zone(zid).is_some(), "seed {seed}: zone {zid}");
            }
            assert!(!verdict || recovered.stored_poa_count() > 0, "seed {seed}");
        }
        Err(ProtocolError::Storage(e)) => log.push(format!("recovery refused: {e}")),
        Err(ProtocolError::Malformed(e)) => log.push(format!("recovery refused: {e}")),
        Err(other) => panic!("seed {seed}: recovery failed with untyped error {other}"),
    }
    log
}

/// ≥100 seeded runs: no panics, only typed errors, coherent state.
#[test]
fn transport_and_storage_campaign_is_typed_and_panic_free() {
    let mut succeeded = 0usize;
    let mut failed = 0usize;
    for seed in 0..120 {
        for line in campaign_run(seed) {
            if line.contains("err") || line.contains("refused") {
                failed += 1;
            } else {
                succeeded += 1;
            }
        }
    }
    // The fault rates are tuned so the campaign exercises both paths.
    assert!(succeeded > 0, "campaign never succeeded at anything");
    assert!(failed > 0, "campaign never injected a visible fault");
}

/// A failing (or any) seed replays its exact outcome log.
#[test]
fn campaign_seeds_replay_deterministically() {
    for seed in [3u64, 57, 111] {
        assert_eq!(campaign_run(seed), campaign_run(seed), "seed {seed}");
    }
}

/// Without retries every dropped registration is simply lost; the
/// server's registry must hold exactly the calls that landed, and state
/// from before a fault must survive it.
#[test]
fn server_state_persists_across_transport_faults() {
    let auditor = Auditor::new(AuditorConfig::default(), key(1));
    let transport = FaultyTransport::new(
        InProcess::new(AuditorServer::builder(auditor).build()),
        &FaultPlane::new(3),
        "transport",
    )
    .drop_with(1.0 / 3.0);
    let mut client = AuditorClient::new(transport);
    let mut registered = Vec::new();
    for _ in 0..9 {
        let zone = NoFlyZone::new(pad(), Distance::from_meters(10.0));
        match client.register_zone(zone, Timestamp::from_secs(1.0)) {
            Ok(id) => registered.push(id),
            Err(e) => assert!(matches!(e, ProtocolError::Transport(_)), "{e}"),
        }
    }
    assert!(
        !registered.is_empty() && registered.len() < 9,
        "the schedule must both drop and deliver, {} of 9 landed",
        registered.len()
    );
    let auditor = client.transport().inner().server().auditor();
    assert_eq!(auditor.zone_count(), registered.len());
    assert!(registered.iter().all(|id| auditor.zone(*id).is_some()));
}

/// TEE and GPS faults through whole flights: signing failures surface as
/// typed errors, dropouts and clock jumps never panic the sampler.
#[test]
fn tee_and_gps_fault_flights_stay_typed() {
    for seed in 0..20u64 {
        let plane = FaultPlane::new(seed);
        let route = TrajectoryBuilder::start_at(pad())
            .travel_to(
                pad().destination(90.0, Distance::from_meters(200.0)),
                Speed::from_mps(10.0),
            )
            .build()
            .unwrap();
        let clock = SimClock::new();
        let receiver = Arc::new(SimulatedReceiver::from_trajectory(
            route,
            clock.clone(),
            5.0,
        ));
        let faulty = Arc::new(
            FaultyGps::new(Arc::clone(&receiver), &plane, "gps")
                .dropout_windows(0.03, 8)
                .clock_jumps(0.01, 90.0),
        );
        let world = SecureWorldBuilder::new()
            .with_sign_key(key(1))
            .with_gps_device(Box::new(Arc::clone(&faulty)))
            .with_cost_model(CostModel::free())
            .with_sign_fault(plane.sign_fault("tee.sign", 0.05))
            .with_nmea_fault(plane.nmea_fault("tee.nmea", 0.2))
            .build()
            .unwrap();
        let client = world.client();
        let session = client.open_session(GPS_SAMPLER_UUID).unwrap();
        match run_flight(
            &clock,
            faulty.as_ref(),
            &session,
            &alidrone::geo::ZoneSet::new(),
            SamplingStrategy::FixedRate(1.0),
            Duration::from_secs(20.0),
        ) {
            Ok(record) => {
                // Whatever was signed must verify under the TEE key.
                for gap in record.poa.gaps() {
                    gap.verify(&client.tee_public_key())
                        .unwrap_or_else(|e| panic!("seed {seed}: bad gap marker: {e}"));
                }
            }
            // Injected faults must surface as typed protocol errors.
            Err(ProtocolError::Tee(_)) => {}
            Err(other) => panic!("seed {seed}: untyped flight failure {other}"),
        }
    }
}

// -------------------------------------- 3. degraded-GPS sufficiency cap

/// Scans for a plane seed whose GPS schedule opens exactly one dropout
/// window mid-flight (updates 55..=70 of a 5 Hz receiver) and nothing
/// else in the first 160 updates. The scan is deterministic, so the test
/// always runs the same seed.
fn dropout_seed(dropout_p: f64, window_len: u64) -> u64 {
    'seed: for seed in 0..20_000u64 {
        let plane = FaultPlane::new(seed);
        let clock = SimClock::new();
        let probe = FaultyGps::new(probe_receiver(clock), &plane, "gps")
            .dropout_windows(dropout_p, window_len);
        let opener = (55..=70u64).find(|k| probe.is_dropped(*k) && !probe.is_dropped(k - 1));
        let Some(k0) = opener else { continue };
        for k in 0..160u64 {
            let inside = k >= k0 && k < k0 + window_len;
            if probe.is_dropped(k) != inside {
                continue 'seed;
            }
        }
        return seed;
    }
    panic!("no suitable dropout seed in range");
}

fn probe_receiver(clock: SimClock) -> SimulatedReceiver {
    let traj = TrajectoryBuilder::start_at(pad())
        .pause(Duration::from_secs(60.0))
        .build()
        .unwrap();
    SimulatedReceiver::from_trajectory(traj, clock, 5.0)
}

fn flight_report(plane: Option<&FaultPlane>) -> (usize, Option<f64>, Verdict, Vec<f64>) {
    let route = TrajectoryBuilder::start_at(pad())
        .travel_to(
            pad().destination(90.0, Distance::from_meters(300.0)),
            Speed::from_mps(10.0),
        )
        .build()
        .unwrap();
    let clock = SimClock::new();
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));
    let device: Arc<dyn alidrone::gps::GpsDevice> = match plane {
        Some(plane) => {
            Arc::new(FaultyGps::new(Arc::clone(&receiver), plane, "gps").dropout_windows(0.002, 25))
        }
        None => receiver,
    };
    let world = SecureWorldBuilder::new()
        .with_sign_key(key(1))
        .with_gps_device(Box::new(Arc::clone(&device)))
        .with_cost_model(CostModel::free())
        .build()
        .unwrap();
    let client = world.client();
    let session = client.open_session(GPS_SAMPLER_UUID).unwrap();
    let record = run_flight(
        &clock,
        device.as_ref(),
        &session,
        &alidrone::geo::ZoneSet::new(),
        SamplingStrategy::FixedRate(1.0),
        Duration::from_secs(30.0),
    )
    .unwrap();
    for gap in record.poa.gaps() {
        gap.verify(&client.tee_public_key()).unwrap();
    }
    let gap_count = record.poa.gaps().len();

    // Audit against a zone 1 km off the flight path: the alibi should
    // hold, with a margin that gap accounting must erode.
    let auditor = Auditor::new(AuditorConfig::default(), key(0));
    let id = auditor.register_drone(key(2).public_key().clone(), key(1).public_key().clone());
    auditor.register_zone(NoFlyZone::new(
        pad().destination(0.0, Distance::from_km(1.0)),
        Distance::from_meters(50.0),
    ));
    let report = auditor
        .verify(
            &Submission::plain(PoaSubmission {
                drone_id: id,
                window_start: record.window_start,
                window_end: record.window_end,
                poa: record.poa.clone(),
            }),
            Timestamp::from_secs(100.0),
        )
        .unwrap();
    let sufficiency = report.sufficiency.expect("alibi reached sufficiency");
    let min_margin = sufficiency
        .pairs
        .iter()
        .map(|p| p.margin_m)
        .fold(f64::INFINITY, f64::min);
    let overlaps: Vec<f64> = sufficiency
        .pairs
        .iter()
        .map(|p| p.gap_overlap_secs)
        .collect();
    (
        gap_count,
        Some(min_margin).filter(|m| m.is_finite()),
        report.verdict,
        overlaps,
    )
}

/// The acceptance scenario: a fault-plane dropout yields signed gap
/// markers and a measurably smaller sufficiency margin than the clean
/// run of the same flight.
#[test]
fn gps_dropout_weakens_the_alibi_measurably() {
    let seed = dropout_seed(0.002, 25);
    let plane = FaultPlane::new(seed);

    let (clean_gaps, clean_margin, clean_verdict, clean_overlaps) = flight_report(None);
    assert_eq!(clean_gaps, 0);
    assert_eq!(clean_verdict, Verdict::Compliant);
    assert!(clean_overlaps.iter().all(|o| *o == 0.0));
    let clean_margin = clean_margin.expect("clean run has pairs");

    let (gaps, margin, verdict, overlaps) = flight_report(Some(&plane));
    assert_eq!(gaps, 1, "one dropout window, one signed gap marker");
    assert_eq!(verdict, Verdict::Compliant, "zone is 1 km away");
    assert!(
        overlaps.iter().any(|o| *o > 0.0),
        "the gapped pair must declare its overlap"
    );
    let margin = margin.expect("degraded run has pairs");
    assert!(
        margin + 10.0 < clean_margin,
        "declared gap must measurably erode the margin: \
         degraded {margin:.1} m vs clean {clean_margin:.1} m"
    );
}
