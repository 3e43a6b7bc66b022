//! Overload-protection campaign: admission control, deadline shedding
//! and rate limiting under deterministic load.
//!
//! Four groups:
//!
//! 1. **4× overload sweep** — 50 seeds drive 4× the worker capacity of
//!    a real TCP server whose handlers are slowed by the chaos plane.
//!    Clients must see only `Ok` or typed `Overloaded`/`Timeout`
//!    errors (no panics, no silent drops), the server's shed counters
//!    must reconcile exactly with client-observed rejections, and the
//!    p99 latency of *accepted* requests must stay within the client
//!    deadline.
//! 2. **Rate-limit replay sweep** — 50 seeds drive a seeded arrival
//!    schedule through a rate-limited server twice; the full response
//!    byte vectors must be identical (the shed schedule is a pure
//!    function of the seed).
//! 3. **Rate-limit refill** — a drained bucket sheds every call (each
//!    one counted in `server.shed.ratelimited`), and admits again once
//!    the request clock has refilled it.
//! 4. **Deadline propagation** — a stale-budget submission queued
//!    behind a slow worker is shed *before* verification: the client
//!    sees `Timeout`, and the server records the shed without ever
//!    running `submit_poa`.
//! 5. **Live introspection** — every overload run mounts the scrape
//!    endpoint; `GET /metrics` mid-flight must return valid Prometheus
//!    text with per-stage histograms, and once the run quiesces the
//!    per-stage `_sum`s must reconcile exactly with the per-request
//!    latency totals.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use alidrone::chaos::FaultPlane;
use alidrone::core::wire::server::{AuditorServer, RateLimitConfig};
use alidrone::core::wire::tcp::{TcpServer, TcpTransport};
use alidrone::core::wire::transport::{AuditorClient, InProcess};
use alidrone::core::wire::Request;
use alidrone::core::{Auditor, AuditorConfig, DroneId, ProtocolError};
use alidrone::geo::{Distance, GeoPoint, NoFlyZone, Timestamp};
use alidrone::obs::Obs;
use alidrone_crypto::rng::XorShift64;
use alidrone_crypto::rsa::RsaPrivateKey;

/// Shared auditor key (512-bit keygen in debug builds is slow).
fn key() -> RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| RsaPrivateKey::generate(512, &mut XorShift64::seed_from_u64(0x0AD5)))
        .clone()
}

fn zone() -> NoFlyZone {
    NoFlyZone::new(
        GeoPoint::new(40.0, -88.0).expect("valid point"),
        Distance::from_meters(50.0),
    )
}

fn now() -> Timestamp {
    Timestamp::from_secs(100.0)
}

/// Client-observed outcome of one logical call, bucketed for
/// reconciliation against the server's shed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Ok,
    Overloaded,
    Timeout,
    Other,
}

// ------------------------------------------------------- 1. 4× sweep

/// A minimal HTTP/1.0 GET against the scrape endpoint, returning the
/// response body (everything past the blank line).
fn http_get_body(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send scrape request");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("read scrape response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("http head/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "scrape failed: {head}");
    body.to_string()
}

/// The server's request pipeline stages, as exported to Prometheus.
const PIPELINE_STAGES: [&str; 4] = ["decode", "admission", "handle", "encode"];

/// The value of an unlabelled sample line, if present.
fn metric_value(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        let (metric, value) = line.rsplit_once(' ')?;
        if metric == name {
            value.parse().ok()
        } else {
            None
        }
    })
}

/// Structural validation of the exposition format: every line is a
/// `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample whose
/// name stays in the identifier charset and whose value parses as a
/// number — and the per-stage histograms must be present.
fn assert_valid_prometheus(body: &str, seed: u64) {
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "seed {seed}: unknown comment {line:?}"
            );
            continue;
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("seed {seed}: sample without value: {line:?}"));
        let name_end = metric.find('{').unwrap_or(metric.len());
        let name = &metric[..name_end];
        assert!(
            !name.is_empty()
                && !name.starts_with(|c: char| c.is_ascii_digit())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "seed {seed}: bad metric name in {line:?}"
        );
        if name_end < metric.len() {
            assert!(
                metric.ends_with('}'),
                "seed {seed}: unterminated labels in {line:?}"
            );
        }
        assert!(
            value.parse::<f64>().is_ok(),
            "seed {seed}: non-numeric value in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "seed {seed}: empty scrape");
    for stage in PIPELINE_STAGES {
        assert!(
            body.contains(&format!("server_stage_{stage}_bucket{{le=")),
            "seed {seed}: missing per-stage histogram for {stage:?}"
        );
    }
}

/// On a quiescent server, every executed request contributed the same
/// microseconds to each stage histogram as to its per-kind latency
/// histogram — so the scraped `_sum`s and `_count`s must reconcile.
fn assert_stage_sums_reconcile(body: &str, seed: u64) {
    let latency_lines = |suffix: &str| -> Vec<f64> {
        body.lines()
            .filter_map(|line| {
                let (metric, value) = line.rsplit_once(' ')?;
                (metric.starts_with("server_latency_") && metric.ends_with(suffix))
                    .then(|| value.parse::<f64>().expect("numeric sample"))
            })
            .collect()
    };
    let latency_sum: f64 = latency_lines("_sum").iter().sum();
    let latency_count: f64 = latency_lines("_count").iter().sum();

    for stage in PIPELINE_STAGES {
        let count = metric_value(body, &format!("server_stage_{stage}_count"))
            .unwrap_or_else(|| panic!("seed {seed}: no count for stage {stage:?}"));
        assert_eq!(
            count, latency_count,
            "seed {seed}: stage {stage:?} count diverges from executed requests"
        );
    }
    let stage_sum: f64 = PIPELINE_STAGES
        .iter()
        .map(|stage| {
            metric_value(body, &format!("server_stage_{stage}_sum"))
                .unwrap_or_else(|| panic!("seed {seed}: no sum for stage {stage:?}"))
        })
        .sum();
    // The underlying microsecond totals are equal integers; only the
    // µs → s float conversion leaves room for rounding.
    assert!(
        (stage_sum - latency_sum).abs() <= 1e-9 + latency_sum * 1e-12,
        "seed {seed}: stage sums {stage_sum} do not reconcile with latency totals {latency_sum}"
    );
    // Queue wait is measured per executed request too, but outside the
    // latency total (it precedes the pipeline).
    assert_eq!(
        metric_value(body, "server_stage_queue_wait_count"),
        Some(latency_count),
        "seed {seed}: queue-wait count diverges from executed requests"
    );
}

/// What one overload run produced: per-call client outcomes, server
/// counters, and two live `/metrics` scrapes (one mid-flight, one
/// after the clients quiesced).
struct OverloadRun {
    results: Vec<(Outcome, Duration)>,
    counters: HashMap<&'static str, u64>,
    midflight_metrics: String,
    quiesced_metrics: String,
}

/// One overload run: `threads` clients (each making `calls` sequential
/// register-zone calls over a fresh connection per call) against a
/// server with `workers` workers and a bounded admission queue.
/// Returns per-call (outcome, wall latency) plus the server's obs
/// snapshot counters.
fn overload_run(seed: u64) -> OverloadRun {
    const WORKERS: usize = 2;
    const THREADS: usize = 8; // 4× worker capacity
    const CALLS_PER_THREAD: usize = 3;
    const DEADLINE: Duration = Duration::from_millis(500);

    let plane = FaultPlane::new(seed);
    let obs = Obs::noop();
    let server = Arc::new(
        AuditorServer::builder(Auditor::new(AuditorConfig::default(), key()))
            .obs(&obs)
            .workers(WORKERS)
            .queue_cap(WORKERS)
            .read_timeout(Duration::from_millis(100))
            .handle_delay(plane.delay_hook("server.slow", 0.75, Duration::from_millis(3)))
            .scrape("127.0.0.1:0".parse().expect("loopback addr"))
            .build(),
    );
    let scrape_addr = server.scrape_addr().expect("scrape endpoint bound");
    let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    let addr = tcp.local_addr();

    let results = Arc::new(Mutex::new(Vec::new()));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let results = Arc::clone(&results);
            thread::spawn(move || {
                for _ in 0..CALLS_PER_THREAD {
                    // A fresh connection per logical call: a rejected
                    // connection is closed by the server, so reusing it
                    // would surface ambiguous transport errors instead
                    // of the typed rejection.
                    let transport = TcpTransport::new(addr)
                        .timeouts(Duration::from_secs(5), Duration::from_secs(5));
                    let mut client = AuditorClient::new(transport).deadline(DEADLINE);
                    let t0 = Instant::now();
                    let outcome = match client.register_zone(zone(), now()) {
                        Ok(_) => Outcome::Ok,
                        Err(ProtocolError::Overloaded { retry_after_ms }) => {
                            assert!(retry_after_ms > 0, "shed without a retry hint");
                            Outcome::Overloaded
                        }
                        Err(ProtocolError::Timeout) => Outcome::Timeout,
                        Err(_) => Outcome::Other,
                    };
                    results.lock().unwrap().push((outcome, t0.elapsed()));
                }
            })
        })
        .collect();
    // Live scrape while the client threads are still hammering: the
    // endpoint must answer without perturbing the campaign.
    let midflight_metrics = http_get_body(scrape_addr, "/metrics");
    for h in handles {
        h.join().expect("client thread");
    }
    // All clients joined and the queue drained, so this scrape is a
    // quiescent cut: stage sums can reconcile exactly.
    let quiesced_metrics = http_get_body(scrape_addr, "/metrics");
    tcp.shutdown();

    let snap = obs.snapshot();
    let mut counters = HashMap::new();
    for name in [
        "server.requests",
        "server.shed.queue_full",
        "server.shed.expired",
        "server.shed.ratelimited",
    ] {
        counters.insert(name, snap.counter(name));
    }
    let results = Arc::try_unwrap(results)
        .expect("all threads joined")
        .into_inner()
        .unwrap();
    OverloadRun {
        results,
        counters,
        midflight_metrics,
        quiesced_metrics,
    }
}

#[test]
fn four_x_overload_sheds_typed_errors_only_and_counters_reconcile() {
    const SEEDS: u64 = 50;
    const DEADLINE: Duration = Duration::from_millis(500);
    let mut total_shed = 0u64;
    let mut accepted_latencies: Vec<Duration> = Vec::new();

    for seed in 0..SEEDS {
        let run = overload_run(seed);
        let (results, counters) = (run.results, run.counters);
        assert_eq!(results.len(), 24, "seed {seed}: lost calls");

        // Live introspection rides the campaign: the mid-flight scrape
        // must already be well-formed, and the quiescent scrape's
        // per-stage sums must reconcile with the latency totals.
        assert_valid_prometheus(&run.midflight_metrics, seed);
        assert_valid_prometheus(&run.quiesced_metrics, seed);
        assert_stage_sums_reconcile(&run.quiesced_metrics, seed);

        let count = |o: Outcome| results.iter().filter(|(r, _)| *r == o).count() as u64;
        // Typed errors only: every call resolved to Ok, Overloaded or
        // Timeout — never a panic, connection reset, or silent drop.
        assert_eq!(
            count(Outcome::Other),
            0,
            "seed {seed}: untyped failures in {results:?}"
        );

        // Reconciliation: every client-observed rejection matches a
        // server-side shed counter, one for one. (No rate limiter in
        // this config, so Overloaded can only mean queue-full.)
        assert_eq!(counters["server.shed.ratelimited"], 0);
        assert_eq!(
            counters["server.shed.queue_full"],
            count(Outcome::Overloaded),
            "seed {seed}: queue-full sheds do not reconcile"
        );
        assert_eq!(
            counters["server.shed.expired"],
            count(Outcome::Timeout),
            "seed {seed}: expired sheds do not reconcile"
        );
        // Everything the server *handled* (including expired sheds,
        // which pass through the handler's admission checks) is a
        // client Ok or Timeout; queue-full rejects never reach it.
        assert_eq!(
            counters["server.requests"],
            count(Outcome::Ok) + count(Outcome::Timeout),
            "seed {seed}: handled-request accounting broken"
        );

        total_shed += counters["server.shed.queue_full"] + counters["server.shed.expired"];
        accepted_latencies.extend(
            results
                .iter()
                .filter(|(r, _)| *r == Outcome::Ok)
                .map(|(_, d)| *d),
        );
    }

    // The sweep must have produced real overload somewhere.
    assert!(
        total_shed > 0,
        "4x load never filled a 2-slot queue across {SEEDS} seeds"
    );
    // Accepted requests stay fast *because* the rest were shed: p99
    // within the client deadline.
    accepted_latencies.sort();
    assert!(!accepted_latencies.is_empty());
    let p99 = accepted_latencies[(accepted_latencies.len() - 1) * 99 / 100];
    assert!(
        p99 <= DEADLINE,
        "accepted p99 {p99:?} blew the {DEADLINE:?} deadline"
    );
}

// ------------------------------------------------ 2. rate-limit replay

/// Drives a seeded arrival schedule through a rate-limited server and
/// returns the exact response bytes, in order.
fn rate_limit_run(seed: u64) -> Vec<Vec<u8>> {
    let plane = FaultPlane::new(seed);
    let server = AuditorServer::builder(Auditor::new(AuditorConfig::default(), key()))
        .rate_limit(RateLimitConfig {
            tokens_per_sec: 25.0,
            burst: 20.0,
            retry_after_cap_ms: 2_000,
        })
        .build();
    let arrivals = plane.stream("arrivals");
    let mut t = 0.0f64;
    (0..40)
        .map(|i| {
            // Seeded inter-arrival in [0, 0.4) s; two drones interleave
            // so both buckets see pressure.
            t += arrivals.below(400) as f64 / 1000.0;
            let req = Request::SubmitPoa {
                drone_id: DroneId::new(1 + (i % 2)),
                window_start: Timestamp::from_secs(0.0),
                window_end: Timestamp::from_secs(1.0),
                poa: vec![0xAB; 8],
            };
            server.handle(&req.to_bytes(), Timestamp::from_secs(t))
        })
        .collect()
}

#[test]
fn rate_limited_response_schedule_replays_byte_identically() {
    const SEEDS: u64 = 50;
    let mut shed_seen = false;
    let mut admitted_seen = false;
    for seed in 0..SEEDS {
        let first = rate_limit_run(seed);
        let second = rate_limit_run(seed);
        assert_eq!(first, second, "seed {seed}: shed schedule not replayable");
        // Overloaded responses are tagged 7 (first byte); anything else
        // was admitted to the handler.
        shed_seen |= first.iter().any(|r| r.first() == Some(&7));
        admitted_seen |= first.iter().any(|r| r.first() != Some(&7));
    }
    assert!(shed_seen, "no seed ever tripped the rate limiter");
    assert!(admitted_seen, "rate limiter shed everything");
}

// -------------------------------------------------- 3. rate-limit refill

#[test]
fn drained_bucket_sheds_until_the_request_clock_refills_it() {
    let obs = Obs::noop();
    // SubmitPoa costs 10 tokens; a 10-token bucket admits exactly one
    // burst, then sheds until the request clock refills it.
    let server = AuditorServer::builder(Auditor::new(AuditorConfig::default(), key()))
        .obs(&obs)
        .rate_limit(RateLimitConfig {
            tokens_per_sec: 10.0,
            burst: 10.0,
            retry_after_cap_ms: 5_000,
        })
        .build();
    let mut client = AuditorClient::with_obs(InProcess::shared(Arc::new(server), &obs), &obs);
    let submit = |c: &mut AuditorClient<InProcess>, t: f64| {
        c.submit_poa(
            DroneId::new(1),
            (Timestamp::from_secs(0.0), Timestamp::from_secs(1.0)),
            &alidrone::core::ProofOfAlibi::from_entries(Vec::new()),
            Timestamp::from_secs(t),
        )
    };
    let shed = |r: Result<_, ProtocolError>| matches!(r, Err(ProtocolError::Overloaded { .. }));

    // t=0: one admitted burst (the server answers), then three sheds,
    // each counted once.
    assert!(!shed(submit(&mut client, 0.0)));
    for _ in 0..3 {
        assert!(shed(submit(&mut client, 0.0)));
    }
    assert_eq!(obs.snapshot().counter("server.shed.ratelimited"), 3);

    // Load subsides: the bucket has refilled on the request clock, so
    // the next call is admitted and no further shed is counted.
    assert!(!shed(submit(&mut client, 20.0)));
    assert_eq!(obs.snapshot().counter("server.shed.ratelimited"), 3);
}

// -------------------------------------------- 4. deadline propagation

#[test]
fn stale_deadline_submission_is_shed_before_verification() {
    let obs = Obs::noop();
    let server = Arc::new(
        AuditorServer::builder(Auditor::new(AuditorConfig::default(), key()))
            .obs(&obs)
            .workers(1)
            .read_timeout(Duration::from_millis(100))
            .handle_delay(|| Duration::from_millis(80))
            .build(),
    );
    let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    let addr = tcp.local_addr();

    // Occupy the single worker for ~80 ms.
    let occupier = thread::spawn(move || {
        let mut c = AuditorClient::new(TcpTransport::new(addr));
        c.register_zone(zone(), now()).expect("occupier call");
    });
    thread::sleep(Duration::from_millis(30));

    // This submission's 25 ms budget expires while it waits behind the
    // occupier; the server must shed it without running submit_poa.
    let mut stale = AuditorClient::new(TcpTransport::new(addr)).deadline(Duration::from_millis(25));
    let err = stale
        .submit_poa(
            DroneId::new(1),
            (Timestamp::from_secs(0.0), Timestamp::from_secs(1.0)),
            &alidrone::core::ProofOfAlibi::from_entries(Vec::new()),
            now(),
        )
        .unwrap_err();
    assert_eq!(err, ProtocolError::Timeout);

    occupier.join().expect("occupier thread");
    tcp.shutdown();

    let snap = obs.snapshot();
    assert_eq!(snap.counter("server.shed.expired"), 1);
    // Shed *before* execution: the submit handler never ran, so its
    // latency histogram is empty and nothing was stored.
    assert_eq!(
        snap.histogram("server.latency.submit_poa")
            .expect("pre-registered")
            .count,
        0
    );
    assert_eq!(server.auditor().stored_poa_count(), 0);
}

// --------------------------------------------- health under pressure

#[test]
fn health_checks_survive_total_rate_limiting() {
    // A zero-capacity bucket sheds every costed request, but health
    // checks short-circuit before admission control.
    let server = AuditorServer::builder(Auditor::new(AuditorConfig::default(), key()))
        .rate_limit(RateLimitConfig {
            tokens_per_sec: 0.0,
            burst: 0.0,
            retry_after_cap_ms: 1_000,
        })
        .build();
    let mut c = AuditorClient::new(InProcess::new(server));
    assert!(matches!(
        c.register_zone(zone(), now()).unwrap_err(),
        ProtocolError::Overloaded { .. }
    ));
    assert_eq!(c.health_check(now()).unwrap(), (0, 0));
}
