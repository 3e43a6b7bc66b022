//! Networked-deployment smoke: the airport scenario's PoA submitted
//! over a real loopback TCP socket and compared, frame for frame,
//! against the same submission delivered in-process — then once more
//! through a seeded lossy transport (`alidrone-chaos`) with client-side
//! retry.
//!
//! Exercises the paper's Fig. 4 deployment shape (drone → network →
//! AliDrone Server) end to end: length-framed wire protocol, threaded
//! TCP server, per-call deadlines, idempotent-only retry.
//!
//! Run with `cargo run -p alidrone-sim --release --bin exp_tcp`.
//! Pass `--overload` for the overload-protection smoke instead: a
//! burst at 4× worker capacity against a bounded admission queue,
//! asserting typed-errors-only shedding and counter reconciliation.
//!
//! Either mode accepts `--scrape[=ADDR]` (default `127.0.0.1:0`) to
//! mount a live introspection endpoint on the auditor server: while the
//! run is in flight, `curl http://ADDR/metrics` returns the live
//! Prometheus snapshot and `curl http://ADDR/dump` the JSON
//! flight-recorder view. With the flag set, the overload smoke also
//! scrapes itself once and asserts a known metric line — the
//! scrape-endpoint smoke CI runs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use alidrone_core::wire::server::AuditorServer;
use alidrone_core::wire::tcp::{TcpServer, TcpTransport};
use alidrone_core::wire::transport::{AuditorClient, RetryPolicy};
use alidrone_core::{Auditor, AuditorConfig, ProtocolError, SamplingStrategy};
use alidrone_crypto::rng::XorShift64;
use alidrone_crypto::rsa::RsaPrivateKey;
use alidrone_geo::{Distance, GeoPoint, NoFlyZone, Timestamp};
use alidrone_obs::Obs;
use alidrone_sim::net::{submit_run, WireMode, WireOptions};
use alidrone_sim::runner::{experiment_key, run_scenario};
use alidrone_sim::scenarios::airport;
use alidrone_tee::CostModel;

/// Overload smoke: 8 clients (4× the 2 workers) hammer a server whose
/// handlers are artificially slowed, with a 2-slot admission queue.
/// Every rejection must be a typed `Overloaded`/`Timeout`, and the
/// server's shed counters must reconcile with what clients observed.
fn overload_smoke(scrape: Option<SocketAddr>) {
    println!("== exp_tcp --overload: admission control under 4x load ==");
    let obs = Obs::noop();
    let auditor_key = RsaPrivateKey::generate(512, &mut XorShift64::seed_from_u64(0x7C9));
    let mut builder = AuditorServer::builder(Auditor::new(AuditorConfig::default(), auditor_key))
        .obs(&obs)
        .workers(2)
        .queue_cap(2)
        .read_timeout(Duration::from_millis(100))
        .handle_delay(|| Duration::from_millis(3));
    if let Some(addr) = scrape {
        builder = builder.scrape(addr);
    }
    let server = Arc::new(builder.build());
    if let Some(addr) = server.scrape_addr() {
        println!("scrape endpoint live: curl http://{addr}/metrics");
    }
    let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    let addr = tcp.local_addr();

    let tallies = Arc::new(Mutex::new([0u64; 3])); // ok / overloaded / timeout
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let tallies = Arc::clone(&tallies);
            thread::spawn(move || {
                for _ in 0..3 {
                    let mut client = AuditorClient::new(TcpTransport::new(addr))
                        .deadline(Duration::from_millis(500));
                    let zone = NoFlyZone::new(
                        GeoPoint::new(40.0, -88.0).expect("valid point"),
                        Distance::from_meters(50.0),
                    );
                    let slot = match client.register_zone(zone, Timestamp::from_secs(10.0)) {
                        Ok(_) => 0,
                        Err(ProtocolError::Overloaded { .. }) => 1,
                        Err(ProtocolError::Timeout) => 2,
                        Err(other) => panic!("untyped overload failure: {other}"),
                    };
                    tallies.lock().expect("tally lock")[slot] += 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Self-scrape while the campaign's counters are live: the CI
    // scrape-endpoint smoke (start server, fetch /metrics, assert a
    // known metric line).
    if let Some(scrape_addr) = server.scrape_addr() {
        let body = http_get(scrape_addr, "/metrics");
        assert!(
            body.contains("server_requests_total"),
            "scrape missing server_requests_total:\n{body}"
        );
        assert!(
            body.contains("server_stage_handle_bucket"),
            "scrape missing per-stage histograms:\n{body}"
        );
        let shown: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("server_requests_total") || l.starts_with("server_shed"))
            .collect();
        println!("live scrape of {scrape_addr}:");
        for line in shown {
            println!("  {line}");
        }
    }
    tcp.shutdown();

    let [ok, overloaded, timeout] = *tallies.lock().expect("tally lock");
    let snap = obs.snapshot();
    println!("clients:  {ok} ok, {overloaded} shed (queue), {timeout} shed (deadline)");
    for name in [
        "server.requests",
        "server.shed.queue_full",
        "server.shed.expired",
        "server.shed.ratelimited",
    ] {
        println!("  {:26} {}", name, snap.counter(name));
    }
    assert_eq!(ok + overloaded + timeout, 24, "every call must resolve");
    assert_eq!(
        snap.counter("server.shed.queue_full"),
        overloaded,
        "queue-full sheds must reconcile with client-observed rejections"
    );
    assert_eq!(
        snap.counter("server.shed.expired"),
        timeout,
        "expired sheds must reconcile with client-observed timeouts"
    );
    println!("\nexp_tcp --overload OK");
}

/// A minimal HTTP/1.0 GET, returning head + body as one string.
fn http_get(addr: SocketAddr, path: &str) -> String {
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
    raw
}

/// `--scrape` / `--scrape=ADDR` → the address to mount the live
/// introspection endpoint on (bare flag picks an OS-assigned port).
fn scrape_arg() -> Option<SocketAddr> {
    for arg in std::env::args() {
        if arg == "--scrape" {
            return Some("127.0.0.1:0".parse().expect("loopback addr"));
        }
        if let Some(addr) = arg.strip_prefix("--scrape=") {
            return Some(addr.parse().unwrap_or_else(|e| {
                panic!("bad --scrape address {addr:?}: {e}");
            }));
        }
    }
    None
}

fn main() {
    let scrape = scrape_arg();
    if std::env::args().any(|a| a == "--overload") {
        overload_smoke(scrape);
        return;
    }
    let scenario = airport();
    println!("== exp_tcp: PoA over loopback TCP ({}) ==", scenario.name);

    let run = run_scenario(
        &scenario,
        SamplingStrategy::Adaptive,
        experiment_key(),
        CostModel::raspberry_pi_3(),
    )
    .expect("adaptive run");
    println!(
        "flight: {} authenticated samples over {:.0} s",
        run.sample_count(),
        scenario.duration.secs()
    );

    let mut rng = XorShift64::seed_from_u64(0x7C9);
    let auditor_key = RsaPrivateKey::generate(512, &mut rng);
    let operator_key = RsaPrivateKey::generate(512, &mut rng);

    // Same PoA, two transports, fresh auditor each (same key, so the
    // signed responses are comparable).
    let local = submit_run(
        &run,
        &scenario,
        WireMode::InProcess,
        auditor_key.clone(),
        &operator_key,
        WireOptions::default(),
    )
    .expect("in-process submission");
    let networked = submit_run(
        &run,
        &scenario,
        WireMode::Tcp,
        auditor_key.clone(),
        &operator_key,
        WireOptions {
            scrape,
            ..WireOptions::default()
        },
    )
    .expect("tcp submission");

    println!("in-process verdict: {}", local.verdict);
    println!("tcp        verdict: {}", networked.verdict);
    assert_eq!(local.verdict, networked.verdict, "verdicts must agree");
    assert_eq!(
        local.response_frames, networked.response_frames,
        "response frames must be byte-identical across transports"
    );
    println!(
        "byte parity: {} response frames identical across transports",
        local.response_frames.len()
    );

    // Lossy TCP with retry: each physical call is dropped with
    // probability 0.3 on the fixed-seed chaos schedule (which loses the
    // second call); the retry layer replays idempotent requests with
    // seeded backoff, so the outcome is the same — and reproducible.
    let lossy = WireOptions {
        drop_p: 0.3,
        retry: Some(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0x5EED,
        }),
        scrape: None,
    };
    let retried = submit_run(
        &run,
        &scenario,
        WireMode::Tcp,
        auditor_key,
        &operator_key,
        lossy,
    )
    .expect("lossy tcp submission with retry");
    assert_eq!(
        retried.verdict, local.verdict,
        "retry must not change the verdict"
    );
    assert_eq!(
        retried.response_frames, local.response_frames,
        "retry must not change the response frames"
    );
    println!("lossy tcp  verdict: {} (after retries)", retried.verdict);

    // Only the lossy run has a retry policy, so its retries are the
    // whole count: a schedule that dropped nothing must not pass.
    let snap = run.obs.snapshot();
    assert!(
        snap.counter("transport.retries") >= 1,
        "the lossy run must have retried at least once"
    );
    println!("\ncounters:");
    for name in [
        "server.requests",
        "server.connections",
        "transport.calls",
        "transport.retries",
        "transport.timeouts",
    ] {
        println!("  {:26} {}", name, snap.counter(name));
    }
    println!("\nexp_tcp OK");
}
