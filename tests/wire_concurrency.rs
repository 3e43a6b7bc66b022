//! Concurrency stress for the networked auditor: many client threads
//! hammer ONE `TcpServer` (one shared `Arc<AuditorServer>`) over real
//! loopback sockets with a mix of request kinds, and every request must
//! be answered, counted, and reflected in the final registry state —
//! with a clean drain on shutdown and no poisoned locks.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use alidrone::chaos::{FaultPlane, FaultyTransport};
use alidrone::core::wire::server::AuditorServer;
use alidrone::core::wire::tcp::{TcpServer, TcpTransport};
use alidrone::core::wire::transport::{AuditorClient, InProcess, RetryPolicy};
use alidrone::core::{Accusation, Auditor, AuditorConfig, ProofOfAlibi, ZoneQuery};
use alidrone::crypto::rng::XorShift64;
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::{Distance, GeoPoint, NoFlyZone, Timestamp};
use alidrone::obs::Obs;

const THREADS: usize = 8;
/// Iterations per thread; each iteration issues 4 requests, plus one
/// registration up front: 8 × (1 + 4 × 25) = 808 requests total.
const ITERS: usize = 25;

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

fn base() -> GeoPoint {
    GeoPoint::new(40.0, -88.0).unwrap()
}

#[test]
fn eight_threads_hammer_one_tcp_server() {
    let obs = Obs::noop();
    let server = Arc::new(
        AuditorServer::builder(Auditor::new(AuditorConfig::default(), key(1)))
            .obs(&obs)
            .workers(4)
            .read_timeout(Duration::from_millis(200))
            .build(),
    );
    let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).unwrap();
    let addr = tcp.local_addr();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let operator = key(100 + t as u64);
            let tee = key(200 + t as u64);
            let obs = obs.clone();
            thread::spawn(move || -> u64 {
                let mut sent = 0u64;
                let mut client = AuditorClient::with_obs(
                    TcpTransport::with_obs(addr, &obs)
                        .timeouts(Duration::from_secs(10), Duration::from_secs(10)),
                    &obs,
                )
                .retry(RetryPolicy::default())
                .deadline(Duration::from_secs(30));
                let now = Timestamp::from_secs(5.0);
                let drone = client
                    .register_drone(operator.public_key().clone(), tee.public_key().clone(), now)
                    .unwrap();
                sent += 1;
                for i in 0..ITERS {
                    // Each thread claims its own bearing so zones don't
                    // interfere with other threads' queries.
                    let center = base()
                        .destination(t as f64 * 40.0, Distance::from_km(2.0 + i as f64 / 10.0));
                    let zone = NoFlyZone::new(center, Distance::from_meters(15.0));
                    let zid = client.register_zone(zone, now).unwrap();
                    sent += 1;
                    let verdict = client
                        .submit_poa(
                            drone,
                            (Timestamp::from_secs(0.0), Timestamp::from_secs(2.0)),
                            &ProofOfAlibi::from_entries(vec![]),
                            now,
                        )
                        .unwrap();
                    assert_eq!(verdict.to_string(), "empty proof-of-alibi");
                    sent += 1;
                    let (refuted, _reason) = client
                        .accuse(
                            Accusation {
                                zone_id: zid,
                                drone_id: drone,
                                time: Timestamp::from_secs(1.0),
                            },
                            now,
                        )
                        .unwrap();
                    assert!(!refuted, "empty PoA cannot refute an accusation");
                    sent += 1;
                    let mut nonce = [0u8; 16];
                    nonce[..8].copy_from_slice(&((t * 1000 + i) as u64).to_be_bytes());
                    let zones = client
                        .query_rect(
                            drone,
                            center.destination(225.0, Distance::from_meters(500.0)),
                            center.destination(45.0, Distance::from_meters(500.0)),
                            nonce,
                            &operator,
                            now,
                        )
                        .unwrap();
                    sent += 1;
                    assert!(
                        zones.iter().any(|(id, _)| *id == zid),
                        "thread {t} query missed its own zone"
                    );
                }
                sent
            })
        })
        .collect();

    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, (THREADS * (1 + 4 * ITERS)) as u64);

    // Graceful drain: every request answered before the threads join.
    tcp.shutdown();

    // No request lost, no lock poisoned: the registries reconcile with
    // the client-side tally exactly.
    let auditor = server.auditor();
    assert_eq!(auditor.drone_count(), THREADS);
    assert_eq!(auditor.zone_count(), THREADS * ITERS);
    assert_eq!(auditor.stored_poa_count(), THREADS * ITERS);
    // Ids were issued concurrently, yet a whole-area query lists every
    // zone in id order.
    let operator = key(300);
    let drone =
        auditor.register_drone(operator.public_key().clone(), key(301).public_key().clone());
    let whole_area = ZoneQuery::new_signed(
        drone,
        GeoPoint::new(-90.0, -180.0).unwrap(),
        GeoPoint::new(90.0, 180.0).unwrap(),
        [0xFF; 16],
        &operator,
    )
    .unwrap();
    let ids: Vec<u64> = auditor
        .handle_zone_query(&whole_area)
        .unwrap()
        .zones
        .iter()
        .map(|(id, _)| id.value())
        .collect();
    assert_eq!(ids, (1..=(THREADS * ITERS) as u64).collect::<Vec<_>>());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("server.requests"), total);
    assert_eq!(snap.counter("server.malformed_frames"), 0);
    assert_eq!(snap.counter("server.connections"), THREADS as u64);
    // Nothing needed retrying on a healthy loopback... but if the
    // scheduler did force one, it must have been counted.
    assert_eq!(
        snap.counter("transport.calls"),
        total + snap.counter("transport.retries")
    );
}

#[test]
fn flaky_retry_is_deterministic_across_whole_runs() {
    // Same seed, same fault schedule → the same number of retries (and
    // so of physical calls), run after run — loss recovery is
    // reproducible.
    let run = |seed: u64| -> (u64, u64) {
        let obs = Obs::noop();
        let server = Arc::new(
            AuditorServer::builder(Auditor::new(AuditorConfig::default(), key(1)))
                .obs(&obs)
                .build(),
        );
        let transport = FaultyTransport::new(
            InProcess::shared(server, &obs),
            &FaultPlane::new(seed),
            "transport",
        )
        .drop_with(1.0 / 3.0);
        // Seed 0xABCD's schedule loses up to 4 calls in a row, so 5
        // attempts let every logical call land.
        let mut client = AuditorClient::with_obs(transport, &obs).retry(RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            jitter_seed: seed,
        });
        let now = Timestamp::from_secs(1.0);
        for i in 0..40u64 {
            let center = base().destination(0.0, Distance::from_km(1.0 + i as f64));
            client
                .register_zone(NoFlyZone::new(center, Distance::from_meters(10.0)), now)
                .unwrap();
        }
        let snap = obs.snapshot();
        (
            snap.counter("transport.retries"),
            snap.counter("server.requests"),
        )
    };
    let a = run(0xABCD);
    let b = run(0xABCD);
    assert_eq!(a, b, "same seed must reproduce the same retry schedule");
    assert!(
        a.0 >= 1,
        "a 1-in-3 drop rate over 40 calls must force retries"
    );
    assert_eq!(a.1, 40, "every logical request must eventually land");
}
