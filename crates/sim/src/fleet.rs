//! Fleet soak driver: thousands of concurrent seeded drone flights
//! against the real TCP auditor, judged by SLOs over scraped windows.
//!
//! A soak is a staged load campaign. [`run_fleet`] boots one
//! [`AuditorServer`] on a loopback socket (with its live `/metrics`
//! endpoint mounted), registers a fleet of drones, then drives a
//! sequence of [`PhaseSpec`] load phases — ramp, steady state, a
//! barrier-synchronised swarm burst, a chaos-degraded phase with
//! request corruption from [`alidrone_chaos`], and recovery. A
//! GPS-dropout cohort of the fleet (stateless membership via
//! [`FaultPlane::cohort`]) submits a degraded flight record whose PoA
//! carries signed gap markers; the rest submit a clean record.
//!
//! While the phases run, a sampler thread scrapes `/metrics`, parses
//! the exposition text back into [`MetricsSnapshot`]s
//! ([`parse_prometheus_text`]) and feeds a [`SnapshotRing`], over which
//! an [`SloEngine`] raises breach / burn-rate events live. Phase
//! *verdicts*, by contrast, are computed from quiesced phase-boundary
//! scrapes (all workers joined, nothing in flight), so the per-phase
//! counter deltas — and therefore the SLO verdicts — are exactly
//! reproducible for a given seed. Wall-clock-shaped data (window
//! timings, latency quantiles) is reported but deliberately excluded
//! from the determinism signature. Every phase — the staged load, the
//! tamper-mode transparency phase, the failover phase — runs through
//! one worker driver and is closed by one boundary-judging step; load
//! is counted per GPS cohort (`fleet.cohort.{healthy,gps_dropout}.ops`),
//! so the series stay bounded at any fleet size.
//!
//! The outcome serialises to a schema-versioned `SOAK_report.json`
//! ([`soak_report_json`]) that [`check_report`] can re-validate from
//! the JSON alone: verdicts present, per-phase request deltas matching
//! the op ledger, windowed series reconciling exactly with the
//! server's final counters, and breach expectations met.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration as StdDuration;

use alidrone_chaos::{Cohort, FaultPlane, FaultyGps, FaultyTransport};
use alidrone_core::audit::{verify_consistency, verify_inclusion};
use alidrone_core::journal::{MemBackend, StorageBackend};
use alidrone_core::repl::{arm, promote, Follower, ReplicationPolicy};
use alidrone_core::wire::server::AuditorServer;
use alidrone_core::wire::tcp::{TcpServer, TcpTransport};
use alidrone_core::wire::transport::{AuditorClient, Transport};
use alidrone_core::{
    run_flight, Auditor, AuditorConfig, DroneId, FlightRecord, ProtocolError, SamplingStrategy,
    ZoneQuery,
};
use alidrone_geo::trajectory::TrajectoryBuilder;
use alidrone_geo::{Distance, Duration, GeoPoint, NoFlyZone, Timestamp, ZoneSet};
use alidrone_gps::{GpsDevice, SimClock, SimulatedReceiver};
use alidrone_obs::{
    parse_prometheus_text, Counter, CounterReconciliation, Json, MetricsSnapshot, Obs,
    SeriesWindow, Slo, SloEngine, SloEvent, SloRule, SloStatus, SnapshotRing, ToJson,
};
use alidrone_tee::{CostModel, SecureWorldBuilder, GPS_SAMPLER_UUID};

use crate::runner::experiment_key;

/// Version stamp of the `SOAK_report.json` layout. Bump on any
/// breaking change so downstream checkers can refuse unknown layouts.
pub const SOAK_SCHEMA_VERSION: u64 = 2;

/// Ack policy of the replicated soak, at boot and after promotion.
const REPL_POLICY: ReplicationPolicy = ReplicationPolicy::Quorum(1);

/// Server error counters as they appear in a *parsed scrape* (names
/// come back sanitized: dots become underscores, `_total` stripped).
pub const SCRAPED_ERROR_KEYS: [&str; 8] = [
    "server_errors_malformed",
    "server_errors_unknown_drone",
    "server_errors_unknown_zone",
    "server_errors_bad_signature",
    "server_errors_nonce_replayed",
    "server_errors_decrypt_failed",
    "server_errors_internal",
    "server_errors_deadline_expired",
];

/// Shed counters as they appear in a parsed scrape.
pub const SCRAPED_SHED_KEYS: [&str; 3] = [
    "server_shed_expired",
    "server_shed_ratelimited",
    "server_shed_queue_full",
];

/// Scraped name of the total-request counter.
pub const SCRAPED_REQUESTS: &str = "server_requests";

/// One load phase of the soak.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Phase name (stable — shows up in the report and CI asserts).
    pub name: &'static str,
    /// Requests issued per active drone in this phase.
    pub ops_per_drone: u32,
    /// Fraction of the fleet that is active (staged load ramps).
    pub active_fraction: f64,
    /// Request-corruption probability on every client transport
    /// ([`FaultyTransport::corrupt_requests_with`]) — the chaos knob
    /// that makes the *server's* error counters move.
    pub corrupt_requests_p: f64,
    /// When set, workers rendezvous on a barrier before their first
    /// request: the whole phase lands as one swarm burst.
    pub burst: bool,
    /// Whether this phase is expected to breach at least one SLO.
    /// [`check_report`] fails on any mismatch, in either direction.
    pub expect_breach: bool,
}

/// Shape of a fleet soak campaign.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed for every fault schedule, cohort draw and request mix.
    pub seed: u64,
    /// Fleet size (drones registered up front).
    pub drones: usize,
    /// Concurrent client worker threads per phase.
    pub clients: usize,
    /// Auditor server worker threads.
    pub server_workers: usize,
    /// Server admission queue capacity. Sized generously by default so
    /// healthy phases never shed — shedding would make verdicts
    /// timing-dependent.
    pub queue_cap: usize,
    /// Sampler scrape period (wall time).
    pub sample_every: StdDuration,
    /// Capacity of the [`SnapshotRing`] fed by the sampler.
    pub ring_cap: usize,
    /// Fraction of the fleet in the GPS-dropout cohort.
    pub gps_dropout_fraction: f64,
    /// Run the campaign against a *replicated* primary (journal +
    /// two in-process followers under `Quorum(1)`) and append a
    /// kill-and-promote failover phase after the load phases: the
    /// primary's listener dies, [`promote`] picks, fences, recovers and
    /// re-arms the most-caught-up follower behind a fresh listener,
    /// and clients fail over via the multi-endpoint transport. The
    /// phase is machine-checked in the report like any other, plus a
    /// dedicated `failover` section.
    pub failover: bool,
    /// Append a transparency phase after the load phases: a cohort of
    /// clients (one per drone) submits a verdict, then fetches the
    /// signed tree head, an inclusion proof for its own verdict, and a
    /// consistency proof between two successive heads — verifying all
    /// of them **offline** with the `alidrone_core::audit` library.
    /// Every check lands in `fleet.audit_proof_checks` /
    /// `fleet.audit_proof_failures`, the phase is judged like any
    /// other (including the zero-failure `audit_proofs` SLO), and a
    /// dedicated `transparency` section is machine-checked in the
    /// report.
    pub tamper: bool,
    /// The staged load phases, run in order against one server.
    pub phases: Vec<PhaseSpec>,
}

impl FleetConfig {
    /// The default five-phase campaign at `drones` fleet size:
    /// ramp → steady → swarm burst → chaos-degraded → recovery.
    pub fn soak(seed: u64, drones: usize) -> FleetConfig {
        FleetConfig {
            seed,
            drones: drones.max(1),
            clients: 8,
            server_workers: 4,
            queue_cap: 4096,
            sample_every: StdDuration::from_millis(1000),
            ring_cap: 256,
            gps_dropout_fraction: 0.15,
            failover: false,
            tamper: false,
            phases: default_phases(),
        }
    }

    /// A CI-sized campaign: ~200 drones, sub-minute wall time.
    pub fn smoke(seed: u64) -> FleetConfig {
        FleetConfig {
            clients: 4,
            sample_every: StdDuration::from_millis(400),
            ..FleetConfig::soak(seed, 200)
        }
    }
}

fn default_phases() -> Vec<PhaseSpec> {
    vec![
        PhaseSpec {
            name: "ramp",
            ops_per_drone: 2,
            active_fraction: 0.25,
            corrupt_requests_p: 0.0,
            burst: false,
            expect_breach: false,
        },
        PhaseSpec {
            name: "steady",
            ops_per_drone: 3,
            active_fraction: 1.0,
            corrupt_requests_p: 0.0,
            burst: false,
            expect_breach: false,
        },
        PhaseSpec {
            name: "burst",
            ops_per_drone: 2,
            active_fraction: 1.0,
            corrupt_requests_p: 0.0,
            burst: true,
            expect_breach: false,
        },
        PhaseSpec {
            name: "degraded",
            ops_per_drone: 3,
            active_fraction: 1.0,
            corrupt_requests_p: 0.35,
            burst: false,
            expect_breach: true,
        },
        PhaseSpec {
            name: "recovery",
            ops_per_drone: 2,
            active_fraction: 1.0,
            corrupt_requests_p: 0.0,
            burst: false,
            expect_breach: false,
        },
    ]
}

/// The SLO set a fleet soak is judged by. Rules reference *scraped*
/// (sanitized) counter names because they evaluate over windows built
/// from parsed `/metrics` text, not the in-process registry.
pub fn fleet_slos() -> Vec<Slo> {
    let bad: Vec<String> = SCRAPED_ERROR_KEYS.iter().map(|s| (*s).into()).collect();
    vec![
        Slo::new(
            "availability",
            SloRule::Availability {
                total: SCRAPED_REQUESTS.into(),
                bad: bad.clone(),
                min_ratio: 0.99,
            },
        ),
        Slo::new(
            "shed_ratio",
            SloRule::MaxRatio {
                num: SCRAPED_SHED_KEYS.iter().map(|s| (*s).into()).collect(),
                den: SCRAPED_REQUESTS.into(),
                max_ratio: 0.05,
            },
        ),
        Slo::new(
            "submit_p99",
            SloRule::P99Below {
                histogram: "server_latency_submit_poa".into(),
                max_micros: 2_000_000.0,
            },
        ),
        Slo::new(
            "error_burn",
            SloRule::BurnRate {
                total: SCRAPED_REQUESTS.into(),
                bad,
                target: 0.99,
                fast_windows: 2,
                slow_windows: 6,
                max_burn: 5.0,
            },
        ),
        // Replication-lag levels must be exactly zero on a quiesced
        // boundary scrape. Absent gauges (non-replicated soaks) read
        // as zero, so these rules are unconditional.
        Slo::new(
            "repl_lag_bytes",
            SloRule::GaugeBelow {
                gauge: "repl_lag_bytes".into(),
                max: 0,
            },
        ),
        Slo::new(
            "repl_lag_records",
            SloRule::GaugeBelow {
                gauge: "repl_lag_records".into(),
                max: 0,
            },
        ),
        // Audit-transparency integrity: not one offline proof
        // verification may fail, ever. Zero checks (non-tamper soaks)
        // reads healthy, so the rule is unconditional.
        Slo::new(
            "audit_proofs",
            SloRule::MaxRatio {
                num: vec!["fleet_audit_proof_failures".into()],
                den: "fleet_audit_proof_checks".into(),
                max_ratio: 0.0,
            },
        ),
    ]
}

/// What one phase did and how it was judged.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase name from the spec.
    pub name: &'static str,
    /// The spec's breach expectation, echoed for the report checker.
    pub expect_breach: bool,
    /// Whether any SLO verdict came back unhealthy.
    pub breached: bool,
    /// Requests the op ledger says this phase issued.
    pub ops: u64,
    /// `server_requests` delta across the phase's quiesced boundary
    /// scrapes. Must equal `ops`: every op is exactly one frame.
    pub requests_delta: u64,
    /// Sum of all `server_errors_*` deltas across the phase.
    pub errors_delta: u64,
    /// Sum of all `server_shed_*` deltas across the phase.
    pub shed_delta: u64,
    /// Phase window bounds (wall seconds; informational only).
    pub start_secs: f64,
    /// See `start_secs`.
    pub end_secs: f64,
    /// Per-SLO verdicts over the phase window.
    pub verdicts: Vec<SloStatus>,
}

impl ToJson for PhaseOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("expect_breach", Json::Bool(self.expect_breach)),
            ("breached", Json::Bool(self.breached)),
            ("ops", Json::Num(self.ops as f64)),
            ("requests_delta", Json::Num(self.requests_delta as f64)),
            ("errors_delta", Json::Num(self.errors_delta as f64)),
            ("shed_delta", Json::Num(self.shed_delta as f64)),
            ("start_secs", Json::Num(self.start_secs)),
            ("end_secs", Json::Num(self.end_secs)),
            (
                "verdicts",
                Json::arr(self.verdicts.iter().map(ToJson::to_json)),
            ),
        ])
    }
}

/// What the kill-and-promote phase of a replicated soak did.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Leadership epoch while the original primary served.
    pub epoch_before: u64,
    /// Epoch after promotion (must be `epoch_before + 1`).
    pub epoch_after: u64,
    /// Name of the follower that won promotion (highest acked offset).
    pub promoted_follower: String,
    /// Journal records the promoted follower replayed on recovery.
    pub records_replayed: u64,
    /// Requests issued against the original primary in this phase.
    pub pre_kill_ops: u64,
    /// Requests issued after the kill (served by the promoted
    /// primary, reached via endpoint rotation).
    pub post_kill_ops: u64,
    /// `transport.endpoint_rotations` at campaign end: connections
    /// that rotated off the dead primary's refused endpoint.
    pub endpoint_rotations: u64,
    /// `repl.failovers` at campaign end (exactly one).
    pub failovers: u64,
}

impl ToJson for FailoverOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epoch_before", Json::Num(self.epoch_before as f64)),
            ("epoch_after", Json::Num(self.epoch_after as f64)),
            ("promoted_follower", Json::str(&self.promoted_follower)),
            ("records_replayed", Json::Num(self.records_replayed as f64)),
            ("pre_kill_ops", Json::Num(self.pre_kill_ops as f64)),
            ("post_kill_ops", Json::Num(self.post_kill_ops as f64)),
            (
                "endpoint_rotations",
                Json::Num(self.endpoint_rotations as f64),
            ),
            ("failovers", Json::Num(self.failovers as f64)),
        ])
    }
}

/// What the transparency phase of a tamper-mode soak verified: every
/// proof fetched over the wire, checked **offline** against nothing but
/// the auditor's public key.
#[derive(Debug, Clone)]
pub struct TransparencyOutcome {
    /// Signed tree size before the cohort submitted its verdicts.
    pub tree_size_before: u64,
    /// Signed tree size after — must have advanced by at least one
    /// audited record per drone.
    pub tree_size_after: u64,
    /// Offline verifications attempted (tree-head signatures,
    /// inclusion proofs, consistency proofs).
    pub proof_checks: u64,
    /// Verifications that failed. Any non-zero value is a soak
    /// failure: either the log was tampered with or the proof pipeline
    /// is broken.
    pub proof_failures: u64,
}

impl ToJson for TransparencyOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tree_size_before", Json::Num(self.tree_size_before as f64)),
            ("tree_size_after", Json::Num(self.tree_size_after as f64)),
            ("proof_checks", Json::Num(self.proof_checks as f64)),
            ("proof_failures", Json::Num(self.proof_failures as f64)),
        ])
    }
}

/// Everything a finished soak produced.
#[derive(Debug)]
pub struct SoakOutcome {
    /// The campaign seed.
    pub seed: u64,
    /// Fleet size.
    pub drones: usize,
    /// Client worker threads per phase.
    pub clients: usize,
    /// Per-phase ledgers and verdicts, in execution order.
    pub phases: Vec<PhaseOutcome>,
    /// The sampler's windowed time-series (plus phase boundaries).
    pub ring: SnapshotRing,
    /// Live SLO transitions raised while the campaign ran.
    pub slo_events: Vec<SloEvent>,
    /// Per-counter accounting: series totals vs final scrape.
    pub reconciliation: Vec<CounterReconciliation>,
    /// Total requests issued by the op ledger.
    pub total_ops: u64,
    /// Client-visible typed errors (corrupted frames bounced by the
    /// server come back as typed error responses).
    pub client_errors: u64,
    /// Whether the final scrape agreed with the server registry read
    /// directly (sanitized-name comparison on the request/error
    /// counters) — the scrape pipeline's own integrity check.
    pub scrape_matches_registry: bool,
    /// The kill-and-promote ledger when [`FleetConfig::failover`] was
    /// set; `None` for non-replicated soaks.
    pub failover: Option<FailoverOutcome>,
    /// The proof-verification ledger when [`FleetConfig::tamper`] was
    /// set; `None` otherwise.
    pub transparency: Option<TransparencyOutcome>,
}

// ------------------------------------------------------------ helpers

/// Infallible constructor for the fleet's fixed, known-valid points.
fn pt(lat: f64, lon: f64) -> GeoPoint {
    GeoPoint::new(lat, lon).expect("valid fleet coordinates")
}

/// Stateless splitmix-style mix used for the request-kind schedule and
/// query nonces: pure in (key, n), so workers need no shared RNG.
fn mix64(key: u64, n: u64) -> u64 {
    let mut z = key ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal HTTP/1.1 GET returning the response body.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no header/body split in scrape response",
        )),
    }
}

/// Scrapes `/metrics` and parses the text back into a snapshot —
/// the same path any external monitor would take.
fn scrape_snapshot(addr: SocketAddr) -> std::io::Result<MetricsSnapshot> {
    Ok(parse_prometheus_text(&http_get(addr, "/metrics")?))
}

/// A hover flight record signed by the shared experiment TEE key;
/// `degraded` routes the receiver through [`FaultyGps`] dropout
/// windows so the PoA carries signed gap markers.
fn make_record(plane: &FaultPlane, degraded: bool) -> FlightRecord {
    let clock = SimClock::new();
    let route = TrajectoryBuilder::start_at(pt(40.0, -88.0))
        .pause(Duration::from_secs(60.0))
        .build()
        .expect("hover trajectory");
    let receiver = Arc::new(SimulatedReceiver::from_trajectory(
        route,
        clock.clone(),
        5.0,
    ));
    let gps: Arc<dyn GpsDevice> = if degraded {
        Arc::new(FaultyGps::new(receiver, plane, "fleet.gps").dropout_windows(0.08, 8))
    } else {
        receiver
    };
    let world = SecureWorldBuilder::new()
        .with_sign_key(experiment_key())
        .with_gps_device(Box::new(Arc::clone(&gps)))
        .with_cost_model(CostModel::free())
        .build()
        .expect("tee world");
    let session = world
        .client()
        .open_session(GPS_SAMPLER_UUID)
        .expect("session");
    run_flight(
        &clock,
        gps.as_ref(),
        &session,
        &ZoneSet::new(),
        SamplingStrategy::FixedRate(1.0),
        Duration::from_secs(20.0),
    )
    .expect("fleet flight")
}

/// Sampler/engine state shared between the sampler thread and the
/// phase-boundary observations on the driver thread.
struct SoakState {
    ring: SnapshotRing,
    engine: SloEngine,
    events: Vec<SloEvent>,
}

/// Scrape, feed the ring, run the live SLO evaluation. Returns the
/// (time, snapshot) pair for phase-window bookkeeping.
fn observe_scrape(
    state: &Mutex<SoakState>,
    obs: &Obs,
    addr: SocketAddr,
) -> (Timestamp, MetricsSnapshot) {
    // Scrape under the lock: the sampler thread and the phase-boundary
    // observations both feed the ring, and a snapshot observed after a
    // newer one would count the increments between them twice.
    let mut guard = state.lock().expect("soak state");
    let snap = scrape_snapshot(addr).expect("scrape endpoint");
    let t = obs.now();
    let SoakState {
        ring,
        engine,
        events,
    } = &mut *guard;
    ring.observe(t, snap.clone());
    events.extend(engine.evaluate(ring));
    (t, snap)
}

// ----------------------------------------------------------- campaign

/// What every phase's workers share: where requests go, the fleet
/// itself, and the counters each request lands in.
struct Fleet {
    clients: usize,
    now: Timestamp,
    drones: Vec<DroneId>,
    gps_cohort: Cohort,
    /// Flight records by GPS cohort: `[healthy, gps_dropout]`.
    records: [FlightRecord; 2],
    /// Requests by GPS cohort (`fleet.cohort.{healthy,gps_dropout}.ops`).
    cohort_ops: [Arc<Counter>; 2],
    /// Every request the fleet issues (`fleet.ops`).
    ops: Arc<Counter>,
    /// Requests that came back as an error (`fleet.client_errors`).
    errors: Arc<Counter>,
}

/// One drone's turn on a phase worker: who it is, the record it files,
/// and the worker's client its requests go through.
struct Turn<'a, T> {
    /// Fleet index (the key of the drone's request slots).
    index: usize,
    id: DroneId,
    record: &'a FlightRecord,
    cohort_ops: &'a Counter,
    client: &'a mut AuditorClient<T>,
    fleet: &'a Fleet,
}

impl<T: Transport> Turn<'_, T> {
    /// Issues one request: counts it into `fleet.ops` and the drone's
    /// cohort counter, and a failure into `fleet.client_errors`.
    fn request<R>(
        &mut self,
        call: impl FnOnce(&mut AuditorClient<T>) -> Result<R, ProtocolError>,
    ) -> Option<R> {
        self.fleet.ops.inc();
        self.cohort_ops.inc();
        let result = call(self.client);
        if result.is_err() {
            self.fleet.errors.inc();
        }
        result.ok()
    }

    /// Files the drone's flight record.
    fn submit(&mut self) -> Option<()> {
        let (id, record, now) = (self.id, self.record, self.fleet.now);
        self.request(|c| {
            c.submit_poa(
                id,
                (record.window_start, record.window_end),
                &record.poa,
                now,
            )
            .map(|_| ())
        })
    }
}

impl Fleet {
    /// Runs `step` for each of the first `active` drones, split into
    /// contiguous chunks over the client workers. Worker `w` sends
    /// through `connect(w)`; with `burst` every worker waits on one
    /// barrier before its first request, so the phase lands as one
    /// swarm. Returns the requests issued.
    fn drive<T, C, S>(&self, active: usize, burst: bool, connect: C, step: S) -> u64
    where
        T: Transport,
        C: Fn(usize) -> T + Sync,
        S: Fn(&mut Turn<'_, T>) + Sync,
    {
        let before = self.ops.get();
        let workers = self.clients.max(1);
        let chunk = active.div_ceil(workers);
        let barrier = Barrier::new(workers);
        thread::scope(|s| {
            for w in 0..workers {
                let (connect, step, barrier) = (&connect, &step, &barrier);
                s.spawn(move || {
                    let mut client = AuditorClient::new(connect(w));
                    if burst {
                        barrier.wait();
                    }
                    let lo = (w * chunk).min(active);
                    for index in lo..(lo + chunk).min(active) {
                        let cohort = usize::from(self.gps_cohort.contains(index as u64));
                        step(&mut Turn {
                            index,
                            id: self.drones[index],
                            record: &self.records[cohort],
                            cohort_ops: &self.cohort_ops[cohort],
                            client: &mut client,
                            fleet: self,
                        });
                    }
                });
            }
        });
        self.ops.get() - before
    }
}

/// Closes phases on quiesced boundary scrapes: each phase is judged
/// over the window from the previous boundary to its own.
struct Judge<'a> {
    state: &'a Mutex<SoakState>,
    obs: &'a Obs,
    scrape_addr: SocketAddr,
    /// `fleet.ops` — the op ledger each phase's count comes from.
    ops: &'a Counter,
    /// The previous boundary: its time, scrape and `fleet.ops`.
    prev: (Timestamp, MetricsSnapshot, u64),
    phases: Vec<PhaseOutcome>,
}

impl<'a> Judge<'a> {
    /// Takes the baseline boundary.
    fn new(
        state: &'a Mutex<SoakState>,
        obs: &'a Obs,
        scrape_addr: SocketAddr,
        ops: &'a Counter,
    ) -> Judge<'a> {
        let (t, snap) = observe_scrape(state, obs, scrape_addr);
        Judge {
            state,
            obs,
            scrape_addr,
            ops,
            prev: (t, snap, ops.get()),
            phases: Vec::new(),
        }
    }

    /// Every worker has joined, so one scrape sees the phase's exact
    /// final counters; the window since the previous boundary is judged
    /// by every SLO.
    fn close(&mut self, name: &'static str, expect_breach: bool) {
        let (t_end, snap_end) = observe_scrape(self.state, self.obs, self.scrape_addr);
        let ops_end = self.ops.get();
        let (t_start, snap_start, ops_start) = &self.prev;
        let window = SeriesWindow::between(*t_start, snap_start, t_end, &snap_end);
        let verdicts = self
            .state
            .lock()
            .expect("soak state")
            .engine
            .verdicts_for(&window);
        self.phases.push(PhaseOutcome {
            name,
            expect_breach,
            breached: verdicts.iter().any(|v| !v.healthy),
            ops: ops_end - ops_start,
            requests_delta: window.counter_delta(SCRAPED_REQUESTS),
            errors_delta: window.counter_sum(SCRAPED_ERROR_KEYS),
            shed_delta: window.counter_sum(SCRAPED_SHED_KEYS),
            start_secs: t_start.secs(),
            end_secs: t_end.secs(),
            verdicts,
        });
        self.prev = (t_end, snap_end, ops_end);
    }
}

/// Runs the whole soak campaign and returns its outcome.
///
/// # Panics
///
/// Panics when the loopback server cannot be bound, a flight record
/// cannot be produced, or the scrape endpoint disappears — a soak with
/// a broken harness must fail loudly, not report vacuous health.
#[allow(clippy::too_many_lines)]
pub fn run_fleet(cfg: &FleetConfig) -> SoakOutcome {
    let plane = FaultPlane::new(cfg.seed);
    let now = Timestamp::from_secs(600.0);
    let obs = Obs::wall();
    // One keypair serves as operator key, TEE key and auditor key, so
    // every drone's records verify under every registration.
    let key = experiment_key();

    // Replicated mode journals the primary and ships every record to
    // two in-process followers under Quorum(1); the follower handles
    // stay with the driver for the kill-and-promote phase.
    let (auditor, repl_followers) = if cfg.failover {
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let (auditor, _) =
            Auditor::recover_with_obs(backend, AuditorConfig::default(), key.clone(), &obs)
                .expect("journaled primary recovers");
        let followers: Vec<(String, Arc<Follower>)> = (0..2)
            .map(|i| {
                let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
                (format!("f{i}"), Arc::new(Follower::new(backend)))
            })
            .collect();
        arm(&auditor, &followers, REPL_POLICY, 1, &obs).expect("epoch 1 replicates");
        (auditor, Some(followers))
    } else {
        (
            Auditor::with_obs(AuditorConfig::default(), key.clone(), &obs),
            None,
        )
    };
    // The scrape endpoint is owned by the `AuditorServer`, so holding
    // this Arc keeps `/metrics` alive across the failover phase even
    // after the request listener is shut down.
    let server = Arc::new(
        AuditorServer::builder(auditor)
            .obs(&obs)
            .workers(cfg.server_workers)
            .queue_cap(cfg.queue_cap)
            .scrape(SocketAddr::from(([127, 0, 0, 1], 0)))
            .build(),
    );
    let scrape_addr = server.scrape_addr().expect("scrape endpoint mounted");
    let mut listener = Some(
        TcpServer::bind(("127.0.0.1", 0), Arc::clone(&server)).expect("bind auditor listener"),
    );
    let addr = listener.as_ref().expect("listener just bound").local_addr();

    // Registration (setup traffic, lands before the phase-0 baseline
    // scrape so it never pollutes a phase window).
    let public = key.public_key();
    let mut setup = AuditorClient::new(TcpTransport::new(addr));
    let drones: Vec<DroneId> = (0..cfg.drones)
        .map(|_| {
            setup
                .register_drone(public.clone(), public.clone(), now)
                .expect("register drone")
        })
        .collect();
    setup
        .register_zone(
            NoFlyZone::new(pt(40.05, -88.0), Distance::from_meters(500.0)),
            now,
        )
        .expect("register zone");

    // The GPS-dropout cohort files the degraded record (declared
    // gaps), the rest the clean one.
    let fleet = Fleet {
        clients: cfg.clients,
        now,
        drones,
        gps_cohort: plane.cohort("fleet.gps_dropout", cfg.gps_dropout_fraction),
        records: [make_record(&plane, false), make_record(&plane, true)],
        cohort_ops: [
            obs.counter("fleet.cohort.healthy.ops"),
            obs.counter("fleet.cohort.gps_dropout.ops"),
        ],
        ops: obs.counter("fleet.ops"),
        errors: obs.counter("fleet.client_errors"),
    };

    let state = Arc::new(Mutex::new(SoakState {
        ring: SnapshotRing::new(cfg.ring_cap),
        engine: SloEngine::new(&obs, fleet_slos()),
        events: Vec::new(),
    }));

    // Background sampler: the live monitoring path. Its windows feed
    // burn-rate alerting and the report's series; determinism-checked
    // verdicts come from the quiesced boundary scrapes instead.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let obs = obs.clone();
        let period = cfg.sample_every;
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(period);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let (_t, _snap) = observe_scrape(&state, &obs, scrape_addr);
            }
        })
    };

    // Baseline boundary after setup, before any phase traffic.
    let mut judge = Judge::new(&state, &obs, scrape_addr, &fleet.ops);

    let kind_key = cfg.seed ^ 0xF1EE_7001;
    for (pi, phase) in cfg.phases.iter().enumerate() {
        let active = ((cfg.drones as f64) * phase.active_fraction).round() as usize;
        let connect = |w: usize| {
            FaultyTransport::new(
                TcpTransport::new(addr),
                &plane,
                &format!("fleet.p{pi}.w{w}"),
            )
            .corrupt_requests_with(phase.corrupt_requests_p)
        };
        fleet.drive(active.clamp(1, cfg.drones), phase.burst, connect, |t| {
            let (id, index) = (t.id, t.index as u64);
            for j in 0..u64::from(phase.ops_per_drone) {
                let slot = ((pi as u64) << 40) | (index << 16) | j;
                match mix64(kind_key, slot) % 10 {
                    0..=4 => {
                        t.submit();
                    }
                    5..=7 => {
                        t.request(|c| c.health_check(now));
                    }
                    _ => {
                        let mut nonce = [0u8; 16];
                        nonce[..8].copy_from_slice(&mix64(kind_key, slot ^ 0xA5A5).to_le_bytes());
                        nonce[8..].copy_from_slice(&mix64(kind_key, slot ^ 0x5A5A).to_le_bytes());
                        t.request(|c| {
                            let query = ZoneQuery::new_signed(
                                id,
                                pt(39.99, -88.01),
                                pt(40.01, -87.99),
                                nonce,
                                &key,
                            )?;
                            c.query_zones(query, now)
                        });
                    }
                }
            }
        });
        judge.close(phase.name, phase.expect_breach);
    }

    // --------------------------------------------- transparency phase
    // Tamper mode: every drone submits one more verdict, then acts as
    // its own third-party auditor — fetch the signed tree head, an
    // inclusion proof for its own verdict, a second head, and a
    // consistency proof between the two, verifying all of them with
    // the offline `alidrone_core::audit` library. Runs before the
    // failover phase so the primary listener is still serving.
    let transparency = cfg.tamper.then(|| {
        let checks = obs.counter("fleet.audit_proof_checks");
        let failures = obs.counter("fleet.audit_proof_failures");
        let check = |ok: bool| {
            checks.inc();
            if !ok {
                failures.inc();
            }
        };

        // Baseline head on the driver, before any cohort traffic. The
        // driver's three requests count in `fleet.ops` but in no cohort.
        fleet.ops.inc();
        let head0 = setup.fetch_tree_head(now).expect("baseline tree head");
        check(head0.verify(public));

        fleet.drive(
            cfg.drones,
            false,
            |_| TcpTransport::new(addr),
            |t| {
                // Own verdict first: guarantees a leaf to prove.
                if t.submit().is_none() {
                    return;
                }
                let Some(sth) = t.request(|c| c.fetch_tree_head(now)) else {
                    return;
                };
                check(sth.verify(public));
                // Inclusion of this drone's verdict, pinned at the verified
                // head — other workers keep appending, so "current size"
                // would race.
                let id = t.id;
                if let Some(p) = t.request(|c| c.fetch_inclusion_proof(id, sth.size, now)) {
                    check(
                        p.size == sth.size
                            && verify_inclusion(&p.leaf, p.index, p.size, &p.path, &sth.root),
                    );
                }
                let Some(sth2) = t.request(|c| c.fetch_tree_head(now)) else {
                    return;
                };
                check(sth2.verify(public) && sth2.size >= sth.size);
                if let Some(c) = t.request(|c| c.fetch_consistency_proof(sth.size, sth2.size, now))
                {
                    check(
                        c.old_size == sth.size
                            && c.new_size == sth2.size
                            && verify_consistency(
                                c.old_size, c.new_size, &c.path, &sth.root, &sth2.root,
                            ),
                    );
                }
            },
        );

        // Final head on the driver: the whole phase must be consistent
        // with the baseline — append-only, nothing rewritten.
        fleet.ops.inc();
        let head1 = setup.fetch_tree_head(now).expect("final tree head");
        check(head1.verify(public));
        fleet.ops.inc();
        let cons = setup
            .fetch_consistency_proof(head0.size, head1.size, now)
            .expect("baseline-to-final consistency proof");
        check(
            cons.old_size == head0.size
                && cons.new_size == head1.size
                && verify_consistency(head0.size, head1.size, &cons.path, &head0.root, &head1.root),
        );

        // Judged like any other phase, including the zero-failure
        // audit_proofs SLO.
        judge.close("transparency", false);
        TransparencyOutcome {
            tree_size_before: head0.size,
            tree_size_after: head1.size,
            proof_checks: checks.get(),
            proof_failures: failures.get(),
        }
    });

    // ------------------------------------------- kill-and-promote phase
    let mut listener_b: Option<TcpServer> = None;
    let mut server_b: Option<Arc<AuditorServer>> = None;
    let failover = repl_followers.map(|mut followers| {
        // One submission per drone through a given endpoint list.
        let submit_all = |endpoints: Vec<SocketAddr>| {
            fleet.drive(
                cfg.drones,
                false,
                |_| TcpTransport::multi(endpoints.clone(), &obs),
                |t| {
                    t.submit();
                },
            )
        };

        // Normal traffic against the primary, then fail-stop: shut its
        // listener so every new connection is refused.
        let pre_kill_ops = submit_all(vec![addr]);
        listener
            .take()
            .expect("primary listener alive until the kill")
            .shutdown();
        let promotion = promote(
            &mut followers,
            REPL_POLICY,
            AuditorConfig::default(),
            key.clone(),
            &obs,
        )
        .expect("promotion");
        let epoch_after = promotion.auditor.current_epoch();
        let b = Arc::new(
            AuditorServer::builder(promotion.auditor)
                .obs(&obs)
                .workers(cfg.server_workers)
                .queue_cap(cfg.queue_cap)
                .build(),
        );
        let lb = TcpServer::bind(("127.0.0.1", 0), Arc::clone(&b)).expect("bind promoted listener");
        let addr_b = lb.local_addr();
        server_b = Some(b);
        listener_b = Some(lb);

        // Post-kill traffic: the endpoint list still leads with the
        // dead primary, so every fresh connection exercises the
        // refused-endpoint rotation before landing on the promoted one.
        let post_kill_ops = submit_all(vec![addr, addr_b]);

        // Judged like any other phase, including the zero-lag
        // replication SLOs.
        judge.close("failover", false);
        let final_counters = obs.snapshot();
        FailoverOutcome {
            epoch_before: 1,
            epoch_after,
            promoted_follower: promotion.follower,
            records_replayed: promotion.report.records_applied as u64,
            pre_kill_ops,
            post_kill_ops,
            endpoint_rotations: final_counters.counter("transport.endpoint_rotations"),
            failovers: final_counters.counter("repl.failovers"),
        }
    });

    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread");
    if let Some(l) = listener.take() {
        l.shutdown();
    }
    if let Some(l) = listener_b.take() {
        l.shutdown();
    }
    drop(server_b);

    // Integrity of the scrape pipeline itself: the final parsed scrape
    // must agree with the registry read directly.
    let Judge {
        phases,
        prev: (_, last_scrape, _),
        ..
    } = judge;
    let direct = obs.snapshot();
    let scrape_matches_registry = last_scrape.counter(SCRAPED_REQUESTS)
        == direct.counter("server.requests")
        && last_scrape.counter("server_malformed_frames")
            == direct.counter("server.malformed_frames")
        && last_scrape.counter("fleet_ops") == direct.counter("fleet.ops");

    let state = match Arc::try_unwrap(state) {
        Ok(m) => m.into_inner().expect("soak state"),
        Err(_) => unreachable!("sampler joined, no other holders"),
    };
    let reconciliation = state.ring.reconcile_all();

    SoakOutcome {
        seed: cfg.seed,
        drones: cfg.drones,
        clients: cfg.clients,
        total_ops: phases.iter().map(|p| p.ops).sum(),
        phases,
        ring: state.ring,
        slo_events: state.events,
        reconciliation,
        client_errors: fleet.errors.get(),
        scrape_matches_registry,
        failover,
        transparency,
    }
}

// ------------------------------------------------------------- report

/// Serialises a [`SoakOutcome`] to the schema-versioned soak report.
pub fn soak_report_json(outcome: &SoakOutcome) -> Json {
    Json::obj([
        ("schema_version", Json::Num(SOAK_SCHEMA_VERSION as f64)),
        ("kind", Json::str("alidrone_soak_report")),
        ("seed", Json::Num(outcome.seed as f64)),
        ("drones", Json::Num(outcome.drones as f64)),
        ("clients", Json::Num(outcome.clients as f64)),
        (
            "totals",
            Json::obj([
                ("ops", Json::Num(outcome.total_ops as f64)),
                ("client_errors", Json::Num(outcome.client_errors as f64)),
                (
                    "scrape_matches_registry",
                    Json::Bool(outcome.scrape_matches_registry),
                ),
            ]),
        ),
        (
            "failover",
            outcome
                .failover
                .as_ref()
                .map_or(Json::Null, ToJson::to_json),
        ),
        (
            "transparency",
            outcome
                .transparency
                .as_ref()
                .map_or(Json::Null, ToJson::to_json),
        ),
        (
            "phases",
            Json::arr(outcome.phases.iter().map(ToJson::to_json)),
        ),
        (
            "slo_events",
            Json::arr(outcome.slo_events.iter().map(ToJson::to_json)),
        ),
        ("series", outcome.ring.to_json()),
        (
            "reconciliation",
            Json::arr(outcome.reconciliation.iter().map(ToJson::to_json)),
        ),
    ])
}

/// Machine-checks a soak report from the JSON alone: schema version,
/// verdict presence, op-ledger/request-counter agreement, exact series
/// reconciliation, scrape-vs-registry agreement, and breach
/// expectations. Returns the first violated invariant.
///
/// # Errors
///
/// A human-readable description of the first failed check.
pub fn check_report(report: &Json) -> Result<(), String> {
    let version = report
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SOAK_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != expected {SOAK_SCHEMA_VERSION}"
        ));
    }
    let phases = report
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("missing phases array")?;
    if phases.is_empty() {
        return Err("phases array is empty".into());
    }
    for phase in phases {
        let name = phase
            .get("name")
            .and_then(Json::as_str)
            .ok_or("phase missing name")?;
        let verdicts = phase
            .get("verdicts")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("phase {name}: missing verdicts"))?;
        if verdicts.is_empty() {
            return Err(format!("phase {name}: no SLO verdicts"));
        }
        let any_unhealthy = verdicts
            .iter()
            .any(|v| v.get("healthy").and_then(Json::as_bool) == Some(false));
        let breached = phase
            .get("breached")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("phase {name}: missing breached flag"))?;
        if breached != any_unhealthy {
            return Err(format!(
                "phase {name}: breached flag {breached} disagrees with verdicts"
            ));
        }
        let expect = phase
            .get("expect_breach")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("phase {name}: missing expect_breach"))?;
        if expect != breached {
            return Err(format!(
                "phase {name}: expected breach={expect}, observed breach={breached}"
            ));
        }
        let ops = phase
            .get("ops")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("phase {name}: missing ops"))?;
        let requests = phase
            .get("requests_delta")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("phase {name}: missing requests_delta"))?;
        if ops == 0 {
            return Err(format!("phase {name}: op ledger is empty"));
        }
        if ops != requests {
            return Err(format!(
                "phase {name}: op ledger says {ops} requests, server counted {requests}"
            ));
        }
    }
    let recon = report
        .get("reconciliation")
        .and_then(Json::as_arr)
        .ok_or("missing reconciliation array")?;
    if recon.is_empty() {
        return Err("reconciliation array is empty".into());
    }
    for row in recon {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        if row.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("counter {name} failed series reconciliation"));
        }
    }
    if report
        .get("totals")
        .and_then(|t| t.get("scrape_matches_registry"))
        .and_then(Json::as_bool)
        != Some(true)
    {
        return Err("final scrape disagreed with the server registry".into());
    }
    let windows = report
        .get("series")
        .and_then(|s| s.get("windows"))
        .and_then(Json::as_arr)
        .ok_or("missing series.windows")?;
    if windows.is_empty() {
        return Err("series has no windows".into());
    }
    // Replicated soaks carry a failover section; `null` (plain soak)
    // is fine, anything else must describe exactly one clean
    // kill-and-promote.
    if let Some(fo) = report.get("failover").filter(|f| !matches!(f, Json::Null)) {
        let num = |key: &str| {
            fo.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("failover: missing {key}"))
        };
        let (before, after) = (num("epoch_before")?, num("epoch_after")?);
        if after != before + 1 {
            return Err(format!(
                "failover: epoch went {before} -> {after}, expected a single bump"
            ));
        }
        if num("failovers")? != 1 {
            return Err("failover: repl.failovers must be exactly 1".into());
        }
        if num("records_replayed")? == 0 {
            return Err("failover: promoted follower replayed no records".into());
        }
        if num("pre_kill_ops")? == 0 || num("post_kill_ops")? == 0 {
            return Err("failover: phase must issue traffic on both sides of the kill".into());
        }
        if num("endpoint_rotations")? == 0 {
            return Err("failover: no client ever rotated off the dead primary".into());
        }
        if !phases
            .iter()
            .any(|p| p.get("name").and_then(Json::as_str) == Some("failover"))
        {
            return Err("failover: section present but no failover phase in ledger".into());
        }
    }
    // Tamper soaks carry a transparency section; `null` (plain soak)
    // is fine, anything else must describe a cohort that checked
    // proofs and saw not one of them fail.
    if let Some(tr) = report
        .get("transparency")
        .filter(|t| !matches!(t, Json::Null))
    {
        let num = |key: &str| {
            tr.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("transparency: missing {key}"))
        };
        if num("proof_checks")? == 0 {
            return Err("transparency: no proofs were ever checked".into());
        }
        if num("proof_failures")? != 0 {
            return Err(format!(
                "transparency: {} offline proof verifications failed",
                num("proof_failures")?
            ));
        }
        let (before, after) = (num("tree_size_before")?, num("tree_size_after")?);
        if after <= before {
            return Err(format!(
                "transparency: audit tree never advanced ({before} -> {after})"
            ));
        }
        if !phases
            .iter()
            .any(|p| p.get("name").and_then(Json::as_str) == Some("transparency"))
        {
            return Err("transparency: section present but no transparency phase in ledger".into());
        }
    }
    Ok(())
}

/// The deterministic projection of an outcome: everything that must be
/// bit-identical across two runs with the same seed. Wall-clock-shaped
/// data (window timings, latency values) is deliberately excluded.
pub fn determinism_signature(outcome: &SoakOutcome) -> String {
    let mut sig = String::new();
    for p in &outcome.phases {
        sig.push_str(p.name);
        sig.push_str(&format!(
            ":ops={},req={},err={},shed={},breached={}[",
            p.ops, p.requests_delta, p.errors_delta, p.shed_delta, p.breached
        ));
        for v in &p.verdicts {
            sig.push_str(&format!("{}={};", v.name, v.healthy));
        }
        sig.push(']');
        sig.push('\n');
    }
    sig.push_str(&format!(
        "total_ops={},client_errors={}",
        outcome.total_ops, outcome.client_errors
    ));
    if let Some(fo) = &outcome.failover {
        sig.push_str(&format!(
            "\nfailover:epoch={}->{},promoted={},pre={},post={}",
            fo.epoch_before,
            fo.epoch_after,
            fo.promoted_follower,
            fo.pre_kill_ops,
            fo.post_kill_ops
        ));
    }
    if let Some(tr) = &outcome.transparency {
        sig.push_str(&format!(
            "\ntransparency:tree={}->{},checks={},failures={}",
            tr.tree_size_before, tr.tree_size_after, tr.proof_checks, tr.proof_failures
        ));
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> FleetConfig {
        FleetConfig {
            clients: 2,
            sample_every: StdDuration::from_millis(150),
            ..FleetConfig::soak(seed, 12)
        }
    }

    /// One tiny fleet end-to-end: phases reconcile with the op ledger,
    /// the degraded phase breaches while healthy phases pass, the
    /// report machine-checks after a JSON round trip, and a second run
    /// with the same seed produces an identical determinism signature.
    #[test]
    fn tiny_fleet_is_deterministic_and_machine_checkable() {
        let first = run_fleet(&tiny_config(42));
        assert_eq!(first.phases.len(), 5);
        for p in &first.phases {
            assert_eq!(
                p.ops, p.requests_delta,
                "phase {}: op ledger vs server requests",
                p.name
            );
            assert_eq!(p.expect_breach, p.breached, "phase {}", p.name);
        }
        assert!(first.reconciliation.iter().all(CounterReconciliation::ok));
        assert!(first.scrape_matches_registry);
        // Load is counted per GPS cohort: both cohort series reconcile,
        // and together they account for every request in the op ledger.
        let final_count = |name: &str| {
            let row = first
                .reconciliation
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("no {name} series"));
            assert!(row.ok(), "{name} failed reconciliation");
            row.expected
        };
        let healthy = final_count("fleet_cohort_healthy_ops");
        let dropout = final_count("fleet_cohort_gps_dropout_ops");
        assert!(healthy > 0 && dropout > 0, "both cohorts carry load");
        assert_eq!(healthy + dropout, final_count("fleet_ops"));
        assert_eq!(healthy + dropout, first.total_ops);

        let report = soak_report_json(&first);
        let round_tripped = Json::parse(&report.to_pretty()).expect("report parses");
        check_report(&round_tripped).expect("report machine-checks");

        let second = run_fleet(&tiny_config(42));
        assert_eq!(
            determinism_signature(&first),
            determinism_signature(&second),
            "same seed must reproduce phase verdicts and ledgers"
        );
    }

    /// A replicated tiny fleet: the campaign runs against a journaled
    /// primary shipping to two followers, then the failover phase
    /// kills the primary, promotes the most-caught-up follower, and
    /// the phase — including the zero-lag replication SLOs — judges
    /// clean on the quiesced boundary. The report's failover section
    /// machine-checks after a JSON round trip.
    #[test]
    fn tiny_failover_fleet_promotes_and_machine_checks() {
        let cfg = FleetConfig {
            failover: true,
            ..tiny_config(11)
        };
        let outcome = run_fleet(&cfg);
        let fo = outcome.failover.as_ref().expect("failover ledger");
        assert_eq!((fo.epoch_before, fo.epoch_after), (1, 2));
        assert_eq!(fo.failovers, 1);
        assert!(fo.records_replayed > 0, "promotion replayed nothing");
        assert!(
            fo.endpoint_rotations >= 1,
            "no client rotated off the dead primary"
        );
        let phase = outcome
            .phases
            .iter()
            .find(|p| p.name == "failover")
            .expect("failover phase in ledger");
        assert_eq!(phase.ops, phase.requests_delta);
        assert!(
            !phase.breached,
            "failover phase breached: {:?}",
            phase.verdicts
        );
        assert!(phase
            .verdicts
            .iter()
            .any(|v| v.name == "repl_lag_bytes" && v.healthy));
        let report = soak_report_json(&outcome);
        let round_tripped = Json::parse(&report.to_pretty()).expect("report parses");
        check_report(&round_tripped).expect("failover report machine-checks");
    }

    /// A tamper-mode tiny fleet: every drone submits a verdict and then
    /// audits the server — signed tree head, inclusion proof for its
    /// own verdict, consistency proof across successive heads — all
    /// verified offline. Zero proof failures, the `audit_proofs` SLO
    /// judges healthy on the phase boundary, and the report's
    /// transparency section machine-checks after a JSON round trip.
    #[test]
    fn tiny_tamper_fleet_verifies_proofs_and_machine_checks() {
        let cfg = FleetConfig {
            tamper: true,
            ..tiny_config(23)
        };
        let outcome = run_fleet(&cfg);
        let tr = outcome.transparency.as_ref().expect("transparency ledger");
        assert_eq!(
            tr.proof_failures, 0,
            "offline proof verification failed during the soak"
        );
        // 4 checks per drone (two head signatures, inclusion,
        // consistency) plus 3 driver-side checks.
        assert_eq!(tr.proof_checks, 4 * outcome.drones as u64 + 3);
        assert!(
            tr.tree_size_after >= tr.tree_size_before + outcome.drones as u64,
            "audit tree advanced {} -> {}, expected at least one leaf per drone",
            tr.tree_size_before,
            tr.tree_size_after
        );
        let phase = outcome
            .phases
            .iter()
            .find(|p| p.name == "transparency")
            .expect("transparency phase in ledger");
        assert_eq!(phase.ops, phase.requests_delta);
        assert!(
            !phase.breached,
            "transparency phase breached: {:?}",
            phase.verdicts
        );
        assert!(phase
            .verdicts
            .iter()
            .any(|v| v.name == "audit_proofs" && v.healthy));
        let report = soak_report_json(&outcome);
        let round_tripped = Json::parse(&report.to_pretty()).expect("report parses");
        check_report(&round_tripped).expect("tamper report machine-checks");
    }

    /// The checker rejects reports whose breach expectations are not
    /// met, so CI cannot greenlight a soak that silently stopped
    /// injecting chaos.
    #[test]
    fn check_report_rejects_expectation_mismatch() {
        let outcome = run_fleet(&tiny_config(7));
        let mut report = soak_report_json(&outcome);
        // Flip the degraded phase's expectation in the JSON.
        if let Json::Obj(ref mut fields) = report {
            let phases = fields
                .iter_mut()
                .find(|(k, _)| k == "phases")
                .map(|(_, v)| v)
                .expect("phases");
            if let Json::Arr(ref mut items) = phases {
                let degraded = items
                    .iter_mut()
                    .find(|p| p.get("name").and_then(Json::as_str) == Some("degraded"))
                    .expect("degraded phase");
                if let Json::Obj(ref mut pf) = degraded {
                    for (k, v) in pf.iter_mut() {
                        if k == "expect_breach" {
                            *v = Json::Bool(false);
                        }
                    }
                }
            }
        }
        let err = check_report(&report).expect_err("mismatch must fail");
        assert!(err.contains("degraded"), "unexpected error: {err}");
    }
}
