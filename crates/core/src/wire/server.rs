//! The AliDrone Server's request loop: bytes in, bytes out.
//!
//! [`AuditorServer::handle`] takes `&self` — the server owns no mutable
//! state outside the auditor's interior locks and one mutex around the
//! latest crash dump — so a single instance behind an `Arc` can serve
//! requests from any number of threads (the
//! [`TcpServer`](crate::wire::tcp::TcpServer) worker pool does exactly
//! that).

use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use alidrone_geo::Timestamp;
use alidrone_obs::{
    Counter, FlightRecorder, Gauge, Histogram, Level, Obs, RecorderDump, ScrapeServer,
    ScrapeSources, SlowExemplar, SlowTable, StageTimer,
};

use crate::auditor::{AccusationOutcome, Auditor};
use crate::messages::{PoaSubmission, Submission};
use crate::poa::ProofOfAlibi;
use crate::verify_pool::VerifyPool;
use crate::wire::{
    request_cost, request_kind_index, source_drone, split_envelope, ErrorCode, Request, Response,
    REQUEST_KINDS,
};
use crate::ProtocolError;

/// Server-side span names, indexed like [`REQUEST_KINDS`].
const SERVER_SPAN_NAMES: [&str; 10] = [
    "server.register_drone",
    "server.register_zone",
    "server.query_zones",
    "server.submit_poa",
    "server.submit_encrypted_poa",
    "server.accuse",
    "server.health_check",
    "server.tree_head",
    "server.inclusion_proof",
    "server.consistency_proof",
];

/// The wire error codes, for per-code counter names. Indexed in the
/// same order as [`error_code_index`].
const ERROR_CODES: [&str; 8] = [
    "malformed",
    "unknown_drone",
    "unknown_zone",
    "bad_signature",
    "nonce_replayed",
    "decrypt_failed",
    "internal",
    "deadline_expired",
];

fn error_code_index(code: ErrorCode) -> usize {
    match code {
        ErrorCode::Malformed => 0,
        ErrorCode::UnknownDrone => 1,
        ErrorCode::UnknownZone => 2,
        ErrorCode::BadSignature => 3,
        ErrorCode::NonceReplayed => 4,
        ErrorCode::DecryptFailed => 5,
        ErrorCode::Internal => 6,
        ErrorCode::DeadlineExpired => 7,
    }
}

/// Pre-registered metric handles (steady-state updates never touch the
/// registry lock).
#[derive(Debug)]
struct ServerMetrics {
    /// Wall-clock handling latency per request kind
    /// (`server.latency.<kind>`). Latency is always measured in wall
    /// time — even under a simulated clock — because it reflects real
    /// verification CPU cost (RSA, sufficiency checks), which the sim
    /// clock does not model.
    latency: [Arc<Histogram>; 10],
    /// Error responses per wire code (`server.errors.<code>`).
    errors: [Arc<Counter>; 8],
    /// Frames that failed to decode at all (`server.malformed_frames`).
    malformed_frames: Arc<Counter>,
    /// All frames seen, decodable or not (`server.requests`).
    requests: Arc<Counter>,
    /// Requests shed because their propagated deadline budget expired
    /// while queued (`server.shed.expired`).
    shed_expired: Arc<Counter>,
    /// Requests shed by the per-drone token-bucket rate limiter
    /// (`server.shed.ratelimited`).
    shed_ratelimited: Arc<Counter>,
    /// Requests currently executing in handler threads
    /// (`server.inflight`).
    inflight: Arc<Gauge>,
    /// Admission-queue depth (`server.queue_depth`) — written by the
    /// networked front end, read here for [`Response::Healthy`]. Shared
    /// by metric name through the registry.
    queue_depth: Arc<Gauge>,
    /// Per-stage latency histograms (`server.stage.<stage>`), indexed
    /// like [`PIPELINE_STAGES`]. For executed requests the stage sums
    /// (decode + admission + handle + encode) reconcile *exactly* with
    /// the per-kind totals in `latency`, because the per-kind total is
    /// computed as the sum of the same stage marks.
    stages: [Arc<Histogram>; 4],
    /// Admission-queue wait for executed requests
    /// (`server.stage.queue_wait`). Kept out of the reconciling stage
    /// set: the wait happens before the handler thread picks the frame
    /// up, so it is not part of handling latency.
    stage_queue_wait: Arc<Histogram>,
    /// Bounded slowest-request exemplar table, exported via the scrape
    /// endpoint (`/metrics` gauges + `/dump` JSON).
    slow: Arc<SlowTable>,
}

/// The reconciling pipeline stages, in request order. `queue_wait` is
/// reported separately (see [`ServerMetrics::stage_queue_wait`]).
const PIPELINE_STAGES: [&str; 4] = ["decode", "admission", "handle", "encode"];

/// How many slowest-request exemplars the server retains.
const SLOW_TABLE_CAPACITY: usize = 32;

impl ServerMetrics {
    fn new(obs: &Obs) -> Self {
        ServerMetrics {
            latency: REQUEST_KINDS.map(|kind| obs.histogram(&format!("server.latency.{kind}"))),
            errors: ERROR_CODES.map(|code| obs.counter(&format!("server.errors.{code}"))),
            malformed_frames: obs.counter("server.malformed_frames"),
            requests: obs.counter("server.requests"),
            shed_expired: obs.counter("server.shed.expired"),
            shed_ratelimited: obs.counter("server.shed.ratelimited"),
            inflight: obs.gauge("server.inflight"),
            queue_depth: obs.gauge("server.queue_depth"),
            stages: PIPELINE_STAGES.map(|stage| obs.histogram(&format!("server.stage.{stage}"))),
            stage_queue_wait: obs.histogram("server.stage.queue_wait"),
            slow: Arc::new(SlowTable::new(SLOW_TABLE_CAPACITY)),
        }
    }

    fn stage_histogram(&self, stage: &str) -> Option<&Arc<Histogram>> {
        PIPELINE_STAGES
            .iter()
            .position(|s| *s == stage)
            .map(|i| &self.stages[i])
    }
}

/// Per-drone token-bucket admission limits. Costs come from
/// [`request_cost`]: a PoA verification consumes 10 tokens against the
/// submitting drone's bucket while registrations and queries consume 1,
/// so one chatty drone re-submitting heavy proofs cannot starve
/// everyone else. Refill is driven by the request clock (`now`), which
/// keeps limiter decisions deterministic under a simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Sustained admission rate, in cost tokens per second per drone.
    pub tokens_per_sec: f64,
    /// Bucket capacity — the largest burst admitted from a cold bucket.
    pub burst: f64,
    /// Upper bound on the `retry_after_ms` hint returned to shed
    /// clients, so a deeply indebted bucket never tells a client to go
    /// away for minutes.
    pub retry_after_cap_ms: u64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            tokens_per_sec: 100.0,
            burst: 200.0,
            retry_after_cap_ms: 5_000,
        }
    }
}

/// Bucket key for requests that carry no drone id (registrations,
/// accusations): they share one anonymous bucket rather than bypassing
/// the limiter. Drone ids are issued sequentially from 1, so this
/// sentinel cannot collide.
const ANON_BUCKET: u64 = u64::MAX;

/// Hard cap on tracked buckets; reaching it clears the map (re-entering
/// drones restart from a full burst, which momentarily *loosens* the
/// limiter — safe in the shedding direction that matters).
const MAX_BUCKETS: usize = 65_536;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_refill_secs: f64,
}

/// Injectable per-request handler latency, used by the chaos plane to
/// simulate slow verification under overload without burning real RSA
/// cycles. Called once per dispatched request; the handler thread
/// sleeps for the returned duration before executing.
pub struct HandleDelay(Box<dyn Fn() -> Duration + Send + Sync>);

impl HandleDelay {
    /// Wraps a delay function.
    pub fn new<F: Fn() -> Duration + Send + Sync + 'static>(f: F) -> Self {
        HandleDelay(Box::new(f))
    }
}

impl fmt::Debug for HandleDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HandleDelay(..)")
    }
}

/// Serving knobs consumed by the networked front end
/// ([`TcpServer`](crate::wire::tcp::TcpServer)); the in-process
/// [`handle`](AuditorServer::handle) path ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads handling decoded frames.
    pub workers: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Bounded admission-queue depth in front of the worker pool.
    /// Connections arriving with the queue full are rejected with a
    /// typed [`Response::Overloaded`] instead of queueing unboundedly.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            read_timeout: Duration::from_secs(5),
            queue_cap: 64,
        }
    }
}

/// Wraps an [`Auditor`] behind the byte-level protocol, the way the
/// deployed AliDrone Server would sit behind a socket.
///
/// Construct with [`AuditorServer::builder`]. All request handling goes
/// through [`handle(&self)`](AuditorServer::handle), so share one
/// instance across threads with `Arc<AuditorServer>`.
#[derive(Debug)]
pub struct AuditorServer {
    auditor: Auditor,
    obs: Obs,
    metrics: ServerMetrics,
    recorder: Option<Arc<FlightRecorder>>,
    last_crash_dump: Mutex<Option<RecorderDump>>,
    serve: ServeConfig,
    rate_limit: Option<RateLimitConfig>,
    buckets: Mutex<HashMap<u64, Bucket>>,
    handle_delay: Option<HandleDelay>,
    /// The live introspection endpoint, when mounted via
    /// [`AuditorServerBuilder::scrape`]. Owned so it shuts down with
    /// the server.
    scrape: Option<ScrapeServer>,
}

/// Builder for [`AuditorServer`] — one place for every construction
/// knob: observability, flight recorder, and serving limits.
#[derive(Debug)]
pub struct AuditorServerBuilder {
    auditor: Auditor,
    obs: Obs,
    recorder: Option<Arc<FlightRecorder>>,
    serve: ServeConfig,
    rate_limit: Option<RateLimitConfig>,
    handle_delay: Option<HandleDelay>,
    scrape: Option<SocketAddr>,
}

impl AuditorServerBuilder {
    /// Routes the server's metrics, events, and request spans into
    /// `obs` (default: a private no-op registry).
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Attaches a flight recorder (normally the same one installed as
    /// the obs subscriber). With one attached, the server captures a
    /// crash dump automatically on malformed frames and error
    /// responses; the latest dump is kept in
    /// [`last_crash_dump`](AuditorServer::last_crash_dump).
    pub fn flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Worker-thread count for the networked front end (default 4).
    pub fn workers(mut self, n: usize) -> Self {
        self.serve.workers = n.max(1);
        self
    }

    /// Per-connection socket read timeout (default 5 s).
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.serve.read_timeout = d;
        self
    }

    /// Bounded admission-queue depth for the networked front end
    /// (default 64; clamped to ≥ 1).
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.serve.queue_cap = cap.max(1);
        self
    }

    /// Enables the per-drone token-bucket rate limiter (default: off —
    /// admission is bounded only by the queue).
    pub fn rate_limit(mut self, cfg: RateLimitConfig) -> Self {
        self.rate_limit = Some(cfg);
        self
    }

    /// Injects artificial per-request handler latency (chaos testing).
    pub fn handle_delay<F: Fn() -> Duration + Send + Sync + 'static>(mut self, f: F) -> Self {
        self.handle_delay = Some(HandleDelay::new(f));
        self
    }

    /// Mounts a live introspection endpoint on `addr` (port 0 for an
    /// OS-assigned port — read it back with
    /// [`AuditorServer::scrape_addr`]). The endpoint serves
    /// `GET /metrics` (Prometheus text of the server's registry, the
    /// slowest-request exemplars, and the flight recorder's drop
    /// counters) and `GET /dump` (a JSON flight-recorder view).
    pub fn scrape(mut self, addr: SocketAddr) -> Self {
        self.scrape = Some(addr);
        self
    }

    /// Finalises the server. Infallible: if a scrape endpoint was
    /// requested and its port cannot be bound, the server still builds
    /// — the failure is reported as a `Warn` event and
    /// [`AuditorServer::scrape_addr`] returns `None`.
    pub fn build(self) -> AuditorServer {
        let metrics = ServerMetrics::new(&self.obs);
        // Large PoA batches fan their per-entry signature checks across
        // a machine-sized pool instead of running serially on the
        // request worker. Keeps a pool the caller installed on the
        // auditor directly.
        let _ = self
            .auditor
            .install_verify_pool(Arc::new(VerifyPool::for_machine(&self.obs)));
        let scrape = self.scrape.and_then(|addr| {
            let mut sources =
                ScrapeSources::new(&self.obs).with_slow_table(Arc::clone(&metrics.slow));
            if let Some(rec) = &self.recorder {
                sources = sources.with_recorder(Arc::clone(rec));
            }
            match ScrapeServer::bind(addr, sources) {
                Ok(server) => Some(server),
                Err(e) => {
                    let message = e.to_string();
                    self.obs
                        .emit(Level::Warn, "wire.server", "scrape_bind_failed", |f| {
                            f.field("addr", format!("{addr}")).field("error", message);
                        });
                    None
                }
            }
        });
        AuditorServer {
            auditor: self.auditor,
            metrics,
            obs: self.obs,
            recorder: self.recorder,
            last_crash_dump: Mutex::new(None),
            serve: self.serve,
            rate_limit: self.rate_limit,
            buckets: Mutex::new(HashMap::new()),
            handle_delay: self.handle_delay,
            scrape,
        }
    }
}

impl AuditorServer {
    /// Starts building a server around an auditor; see
    /// [`AuditorServerBuilder`] for the knobs.
    pub fn builder(auditor: Auditor) -> AuditorServerBuilder {
        AuditorServerBuilder {
            auditor,
            obs: Obs::noop(),
            recorder: None,
            serve: ServeConfig::default(),
            rate_limit: None,
            handle_delay: None,
            scrape: None,
        }
    }

    /// The most recent automatic flight-recorder dump, if any protocol
    /// failure has occurred since a recorder was attached. Cloned out
    /// from behind the dump mutex, so callers hold no lock.
    pub fn last_crash_dump(&self) -> Option<RecorderDump> {
        // Invariant: holders of this lock only clone/replace the Option,
        // so a poisoned lock still guards structurally sound data.
        self.last_crash_dump
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Read access to the wrapped auditor (e.g. for inspection in
    /// tests). Every auditor entry point takes `&self`, so this is all
    /// the access anyone needs — there is no `auditor_mut`.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// The serving knobs the networked front end should honour.
    pub fn serve_config(&self) -> ServeConfig {
        self.serve
    }

    /// The observability handle the server reports into (shared with
    /// the networked front end so connection counters land in the same
    /// registry).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The bound address of the live introspection endpoint, when one
    /// was mounted (and bound successfully).
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(|s| s.local_addr())
    }

    /// The slowest-request exemplar table (shared with the scrape
    /// endpoint; handy for tests and post-mortem tooling).
    pub fn slow_table(&self) -> Arc<SlowTable> {
        Arc::clone(&self.metrics.slow)
    }

    /// Handles one request frame. Never fails: malformed input or
    /// protocol errors become [`Response::Error`] frames.
    ///
    /// Equivalent to [`handle_at`](Self::handle_at) with a zero queue
    /// wait — in-process callers have no admission queue, so their
    /// deadline budget can never have expired in one.
    pub fn handle(&self, request_bytes: &[u8], now: Timestamp) -> Vec<u8> {
        self.handle_at(request_bytes, now, Duration::ZERO)
    }

    /// Handles one request frame that waited `queue_wait` in the
    /// admission queue before reaching a handler thread.
    ///
    /// Frames may arrive bare or wrapped in the trace envelope (see
    /// [`split_envelope`](crate::wire::split_envelope())); with
    /// an envelope, the per-request server span joins the caller's
    /// trace as a child of the caller's span. Before dispatching, the
    /// request runs the admission gauntlet **in shed-cheapest-first
    /// order**, none of which touches the auditor:
    ///
    /// 1. [`Request::HealthCheck`] short-circuits with
    ///    [`Response::Healthy`] — probes are never shed;
    /// 2. a propagated deadline budget smaller than `queue_wait` sheds
    ///    the request with [`ErrorCode::DeadlineExpired`]
    ///    (`server.shed.expired`) — the client has already given up, so
    ///    executing it would burn verification CPU for nobody;
    /// 3. the per-drone token bucket (when configured) sheds with
    ///    [`Response::Overloaded`] (`server.shed.ratelimited`).
    pub fn handle_at(&self, request_bytes: &[u8], now: Timestamp, queue_wait: Duration) -> Vec<u8> {
        self.metrics.requests.inc();
        // Stage attribution: the timer marks decode → admission →
        // handle → encode, and the per-kind latency total is the SUM of
        // those marks — so the stage histograms reconcile exactly with
        // the per-kind totals. Stages are committed only for executed
        // requests; health checks and shed requests record no latency
        // (they never reach the auditor).
        let mut timer = StageTimer::start();
        let mut executed: Option<usize> = None;
        let mut trace: Option<(u128, u64)> = None;
        let decoded = split_envelope(request_bytes)
            .and_then(|(env, payload)| Request::from_bytes(payload).map(|req| (env, req)));
        timer.mark("decode");
        let response = match decoded {
            Ok((env, req)) => {
                let kind = request_kind_index(&req);
                if matches!(req, Request::HealthCheck) {
                    // Served from the wire layer without touching the
                    // auditor, exempt from every shedding check.
                    Response::Healthy {
                        queue_depth: self.metrics.queue_depth.get().max(0) as u32,
                        inflight: self.metrics.inflight.get().max(0) as u32,
                    }
                } else if env
                    .budget_micros
                    .is_some_and(|budget| queue_wait.as_micros() >= u128::from(budget))
                {
                    let waited = queue_wait.as_micros() as u64;
                    self.metrics.shed_expired.inc();
                    self.metrics.errors[error_code_index(ErrorCode::DeadlineExpired)].inc();
                    self.obs
                        .emit(Level::Warn, "wire.server", "shed_expired", |f| {
                            f.field("kind", REQUEST_KINDS[kind])
                                .field("queue_wait_us", waited);
                        });
                    Response::Error {
                        code: ErrorCode::DeadlineExpired,
                        message: format!("deadline budget expired after {waited}us in queue"),
                    }
                } else if let Some(retry_after_ms) = self.rate_limit_shed(&req, now) {
                    self.metrics.shed_ratelimited.inc();
                    self.obs
                        .emit(Level::Warn, "wire.server", "shed_ratelimited", |f| {
                            f.field("kind", REQUEST_KINDS[kind])
                                .field("retry_after_ms", retry_after_ms);
                        });
                    Response::Overloaded { retry_after_ms }
                } else {
                    timer.mark("admission");
                    if let Some(delay) = &self.handle_delay {
                        std::thread::sleep((delay.0)());
                    }
                    let span = match env.trace {
                        Some(ctx) => self.obs.span_with_remote_parent(
                            SERVER_SPAN_NAMES[kind],
                            ctx.trace_id,
                            ctx.span_id,
                        ),
                        None => self.obs.enter_span(SERVER_SPAN_NAMES[kind]),
                    };
                    trace = span.context().map(|c| (c.trace_id, c.span_id));
                    self.metrics.inflight.add(1);
                    let resp = self.dispatch(req, now);
                    self.metrics.inflight.add(-1);
                    span.finish();
                    timer.mark("handle");
                    executed = Some(kind);
                    if let Response::Error { code, .. } = &resp {
                        let code = *code;
                        self.metrics.errors[error_code_index(code)].inc();
                        self.obs
                            .emit(Level::Warn, "wire.server", "error_response", |f| {
                                f.field("kind", REQUEST_KINDS[kind])
                                    .field("code", ERROR_CODES[error_code_index(code)]);
                            });
                        self.capture_crash_dump("error_response");
                    }
                    resp
                }
            }
            Err(e) => {
                // Undecodable frames used to vanish into a bare error
                // string; now they are counted and the frame length is
                // surfaced in both the event and the response.
                let frame_len = request_bytes.len();
                self.metrics.malformed_frames.inc();
                self.metrics.errors[error_code_index(ErrorCode::Malformed)].inc();
                self.obs
                    .emit(Level::Warn, "wire.server", "malformed_frame", |f| {
                        f.field("frame_len", frame_len as u64);
                    });
                self.capture_crash_dump("malformed_frame");
                Response::Error {
                    code: ErrorCode::Malformed,
                    message: format!("malformed frame ({frame_len} bytes): {e}"),
                }
            }
        };
        let bytes = response.to_bytes();
        if let Some(kind) = executed {
            timer.mark("encode");
            let queue_wait_micros = queue_wait.as_micros() as u64;
            self.metrics
                .stage_queue_wait
                .record_micros(queue_wait_micros);
            for &(stage, micros) in timer.stages() {
                if let Some(h) = self.metrics.stage_histogram(stage) {
                    h.record_micros(micros);
                }
            }
            let total = timer.total_micros();
            self.metrics.latency[kind].record_micros(total);
            self.metrics.slow.offer(SlowExemplar {
                kind: REQUEST_KINDS[kind].to_string(),
                total_micros: total,
                queue_wait_micros,
                stages: timer.into_stages(),
                trace_id: trace.map(|t| t.0),
                span_id: trace.map(|t| t.1),
            });
        }
        bytes
    }

    /// Token-bucket admission check. Returns `Some(retry_after_ms)`
    /// when the request must be shed, `None` when admitted (including
    /// when no limiter is configured or the request is free).
    ///
    /// Refill is computed from the request clock (`now`), never wall
    /// time, so a simulated-clock campaign replays the exact same
    /// admit/shed schedule from one seed. Out-of-order timestamps
    /// (concurrent workers racing) clamp the refill delta to zero
    /// rather than underflowing.
    fn rate_limit_shed(&self, req: &Request, now: Timestamp) -> Option<u64> {
        let cfg = self.rate_limit.as_ref()?;
        let cost = f64::from(request_cost(req));
        if cost == 0.0 {
            return None;
        }
        let key = source_drone(req).map_or(ANON_BUCKET, |d| d.value());
        // Invariant: bucket entries are plain Copy data mutated in
        // place; a poisoned lock still guards structurally sound state.
        let mut buckets = self.buckets.lock().unwrap_or_else(|p| p.into_inner());
        if buckets.len() >= MAX_BUCKETS && !buckets.contains_key(&key) {
            buckets.clear();
        }
        let bucket = buckets.entry(key).or_insert(Bucket {
            tokens: cfg.burst,
            last_refill_secs: now.secs(),
        });
        let dt = (now.secs() - bucket.last_refill_secs).max(0.0);
        if dt > 0.0 {
            bucket.last_refill_secs = now.secs();
            bucket.tokens = (bucket.tokens + dt * cfg.tokens_per_sec).min(cfg.burst);
        }
        if bucket.tokens >= cost {
            bucket.tokens -= cost;
            None
        } else {
            let deficit = cost - bucket.tokens;
            let wait_ms = (deficit / cfg.tokens_per_sec * 1000.0).ceil() as u64;
            Some(wait_ms.clamp(1, cfg.retry_after_cap_ms))
        }
    }

    /// Freezes the attached recorder into a crash dump (including the
    /// event/span that triggered it, which the subscriber has already
    /// seen by the time this runs).
    fn capture_crash_dump(&self, reason: &'static str) {
        if let Some(rec) = &self.recorder {
            let dump = rec.dump();
            self.obs
                .emit(Level::Info, "wire.server", "flight_recorder_dump", |f| {
                    f.field("reason", reason)
                        .field("spans", dump.spans.len())
                        .field("events", dump.events.len());
                });
            // Invariant: the slot only ever holds a whole replaced
            // Option, so writing through a poisoned lock is sound.
            *self
                .last_crash_dump
                .lock()
                .unwrap_or_else(|p| p.into_inner()) = Some(dump);
        }
    }

    fn dispatch(&self, req: Request, now: Timestamp) -> Response {
        match req {
            Request::RegisterDrone {
                operator_public,
                tee_public,
            } => match self
                .auditor
                .register_drone_durable(operator_public, tee_public)
            {
                Ok(id) => Response::DroneRegistered(id),
                Err(e) => error_response(e),
            },
            Request::RegisterZone { zone } => match self.auditor.register_zone_durable(zone) {
                Ok(id) => Response::ZoneRegistered(id),
                Err(e) => error_response(e),
            },
            Request::QueryZones(q) => match self.auditor.handle_zone_query(&q) {
                Ok(resp) => Response::Zones(resp.zones),
                Err(e) => error_response(e),
            },
            Request::SubmitPoa {
                drone_id,
                window_start,
                window_end,
                poa,
            } => match ProofOfAlibi::from_bytes(&poa) {
                Ok(poa) => {
                    let submission = Submission::plain(PoaSubmission {
                        drone_id,
                        window_start,
                        window_end,
                        poa,
                    });
                    match self.auditor.verify(&submission, now) {
                        Ok(report) => Response::Verdict(report.verdict),
                        Err(e) => error_response(e),
                    }
                }
                Err(e) => error_response(e),
            },
            Request::SubmitEncryptedPoa {
                drone_id,
                window_start,
                window_end,
                blocks,
            } => {
                let encrypted = crate::poa::EncryptedPoa::from_blocks(blocks);
                let submission =
                    Submission::encrypted(drone_id, window_start, window_end, encrypted);
                match self.auditor.verify(&submission, now) {
                    Ok(report) => Response::Verdict(report.verdict),
                    Err(e) => error_response(e),
                }
            }
            Request::Accuse(a) => match self.auditor.handle_accusation(&a) {
                Ok(AccusationOutcome::Refuted) => Response::Accusation {
                    refuted: true,
                    reason: String::new(),
                },
                Ok(AccusationOutcome::Upheld { reason }) => Response::Accusation {
                    refuted: false,
                    reason,
                },
                Err(e) => error_response(e),
            },
            Request::FetchTreeHead => match self.auditor.signed_tree_head() {
                Ok(sth) => Response::TreeHead(sth),
                Err(e) => error_response(e),
            },
            Request::FetchInclusionProof {
                drone_id,
                tree_size,
            } => match self.auditor.audit_inclusion_proof(drone_id, tree_size) {
                Ok(proof) => Response::InclusionProof(proof),
                Err(e) => error_response(e),
            },
            Request::FetchConsistencyProof { old_size, new_size } => {
                match self.auditor.audit_consistency_proof(old_size, new_size) {
                    Ok(proof) => Response::ConsistencyProof(proof),
                    Err(e) => error_response(e),
                }
            }
            // Short-circuited in handle_at before dispatch; kept here
            // for exhaustiveness (and correctness should a future
            // caller dispatch directly).
            Request::HealthCheck => Response::Healthy {
                queue_depth: self.metrics.queue_depth.get().max(0) as u32,
                inflight: self.metrics.inflight.get().max(0) as u32,
            },
        }
    }
}

fn error_response(e: ProtocolError) -> Response {
    if let ProtocolError::Overloaded { retry_after_ms } = e {
        return Response::Overloaded { retry_after_ms };
    }
    let code = match &e {
        ProtocolError::UnknownDrone(_) => ErrorCode::UnknownDrone,
        ProtocolError::UnknownZone(_) => ErrorCode::UnknownZone,
        ProtocolError::QuerySignatureInvalid => ErrorCode::BadSignature,
        ProtocolError::NonceReplayed => ErrorCode::NonceReplayed,
        ProtocolError::Crypto(_) => ErrorCode::DecryptFailed,
        ProtocolError::Malformed(_) | ProtocolError::Geo(_) => ErrorCode::Malformed,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::AuditorConfig;
    use crate::messages::ZoneQuery;
    use crate::test_support::{auditor_key, operator_key, origin, signed_samples, tee_key};
    use crate::{DroneId, Verdict};
    use alidrone_geo::{Distance, NoFlyZone};

    fn server() -> AuditorServer {
        AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .build()
    }

    fn now() -> Timestamp {
        Timestamp::from_secs(50.0)
    }

    fn register(server: &AuditorServer) -> DroneId {
        let req = Request::RegisterDrone {
            operator_public: operator_key().public_key().clone(),
            tee_public: tee_key().public_key().clone(),
        };
        match Response::from_bytes(&server.handle(&req.to_bytes(), now())).unwrap() {
            Response::DroneRegistered(id) => id,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn register_and_submit_over_the_wire() {
        let s = server();
        let id = register(&s);
        // Register a far zone.
        let zreq = Request::RegisterZone {
            zone: NoFlyZone::new(
                origin().destination(0.0, Distance::from_km(50.0)),
                Distance::from_meters(100.0),
            ),
        };
        let resp = Response::from_bytes(&s.handle(&zreq.to_bytes(), now())).unwrap();
        assert!(matches!(resp, Response::ZoneRegistered(_)));

        // Submit a compliant PoA.
        let poa = ProofOfAlibi::from_entries(signed_samples(6));
        let req = Request::SubmitPoa {
            drone_id: id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(5.0),
            poa: poa.to_bytes(),
        };
        let resp = Response::from_bytes(&s.handle(&req.to_bytes(), now())).unwrap();
        assert_eq!(resp, Response::Verdict(Verdict::Compliant));
        assert_eq!(s.auditor().stored_poa_count(), 1);
    }

    #[test]
    fn malformed_frame_yields_error_response() {
        let s = server();
        let resp = Response::from_bytes(&s.handle(&[0xFF, 0x01], now())).unwrap();
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
    }

    #[test]
    fn malformed_frame_is_counted_and_reported_with_length() {
        use alidrone_obs::FlightRecorder;
        use std::sync::Arc;

        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(8));
        obs.set_subscriber(recorder.clone());
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .build();

        let frame = [0xFF, 0x01, 0x02];
        let resp = Response::from_bytes(&s.handle(&frame, now())).unwrap();
        let Response::Error { code, message } = resp else {
            panic!("expected error response");
        };
        assert_eq!(code, ErrorCode::Malformed);
        assert!(message.contains("3 bytes"), "message: {message}");

        let snap = obs.snapshot();
        assert_eq!(snap.counter("server.malformed_frames"), 1);
        assert_eq!(snap.counter("server.errors.malformed"), 1);
        let events = recorder.events();
        let ev = events
            .iter()
            .find(|e| e.message == "malformed_frame")
            .expect("malformed_frame event");
        assert_eq!(ev.level, Level::Warn);
        assert_eq!(ev.field("frame_len").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn request_latency_and_error_codes_are_tracked() {
        let obs = Obs::noop();
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .build();

        // A successful registration and an unknown-drone submission.
        let req = Request::RegisterDrone {
            operator_public: operator_key().public_key().clone(),
            tee_public: tee_key().public_key().clone(),
        };
        s.handle(&req.to_bytes(), now());
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(404),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(1.0),
            poa: ProofOfAlibi::new().to_bytes(),
        };
        s.handle(&req.to_bytes(), now());

        let snap = obs.snapshot();
        assert_eq!(snap.counter("server.requests"), 2);
        assert_eq!(
            snap.histogram("server.latency.register_drone")
                .unwrap()
                .count,
            1
        );
        assert_eq!(
            snap.histogram("server.latency.submit_poa").unwrap().count,
            1
        );
        assert!(snap.histogram("server.latency.accuse").unwrap().count == 0);
        assert_eq!(snap.counter("server.errors.unknown_drone"), 1);
        assert_eq!(snap.counter("server.errors.internal"), 0);
    }

    #[test]
    fn unknown_drone_error_code() {
        let s = server();
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(404),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(1.0),
            poa: ProofOfAlibi::new().to_bytes(),
        };
        let resp = Response::from_bytes(&s.handle(&req.to_bytes(), now())).unwrap();
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownDrone,
                ..
            }
        ));
    }

    #[test]
    fn replayed_query_error_code() {
        let s = server();
        let id = register(&s);
        let q = ZoneQuery::new_signed(id, origin(), origin(), [3u8; 16], operator_key()).unwrap();
        let req = Request::QueryZones(q).to_bytes();
        let first = Response::from_bytes(&s.handle(&req, now())).unwrap();
        assert!(matches!(first, Response::Zones(_)));
        let second = Response::from_bytes(&s.handle(&req, now())).unwrap();
        assert!(matches!(
            second,
            Response::Error {
                code: ErrorCode::NonceReplayed,
                ..
            }
        ));
    }

    #[test]
    fn encrypted_submission_over_the_wire() {
        use alidrone_crypto::rng::XorShift64;
        let mut rng = XorShift64::seed_from_u64(55);
        let s = server();
        let id = register(&s);
        let poa = ProofOfAlibi::from_entries(signed_samples(4));
        let enc = poa
            .encrypt(s.auditor().public_encryption_key(), &mut rng)
            .unwrap();
        let req = Request::SubmitEncryptedPoa {
            drone_id: id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(3.0),
            blocks: enc.blocks().to_vec(),
        };
        let resp = Response::from_bytes(&s.handle(&req.to_bytes(), now())).unwrap();
        assert_eq!(resp, Response::Verdict(Verdict::Compliant));
    }

    #[test]
    fn garbage_encrypted_blocks_yield_decrypt_error() {
        let s = server();
        let id = register(&s);
        let req = Request::SubmitEncryptedPoa {
            drone_id: id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(1.0),
            blocks: vec![vec![0xAA; 64]],
        };
        let resp = Response::from_bytes(&s.handle(&req.to_bytes(), now())).unwrap();
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::DecryptFailed,
                ..
            }
        ));
    }

    #[test]
    fn enveloped_request_adopts_the_wire_trace() {
        use crate::wire::{encode_envelope, WireEnvelope, WireTraceContext};
        use std::sync::Arc;

        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(16));
        obs.set_subscriber(recorder.clone());
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .build();
        let req = Request::RegisterDrone {
            operator_public: operator_key().public_key().clone(),
            tee_public: tee_key().public_key().clone(),
        };
        let env = WireEnvelope {
            trace: Some(WireTraceContext {
                trace_id: 0xFACE,
                span_id: 0xBEEF,
            }),
            budget_micros: None,
        };
        let frame = encode_envelope(&env, &req.to_bytes());
        let resp = Response::from_bytes(&s.handle(&frame, now())).unwrap();
        assert!(matches!(resp, Response::DroneRegistered(_)));
        let spans = recorder.spans();
        let server_span = spans
            .iter()
            .find(|sp| sp.name == "server.register_drone")
            .expect("server span");
        assert_eq!(server_span.context.trace_id, 0xFACE);
        assert_eq!(server_span.context.parent_id, Some(0xBEEF));
    }

    #[test]
    fn untraced_server_still_accepts_enveloped_frames() {
        use crate::wire::{encode_envelope, WireEnvelope, WireTraceContext};
        let s = server();
        let req = Request::RegisterDrone {
            operator_public: operator_key().public_key().clone(),
            tee_public: tee_key().public_key().clone(),
        };
        let env = WireEnvelope {
            trace: Some(WireTraceContext {
                trace_id: 1,
                span_id: 2,
            }),
            budget_micros: None,
        };
        let resp = Response::from_bytes(&s.handle(&encode_envelope(&env, &req.to_bytes()), now()))
            .unwrap();
        assert!(matches!(resp, Response::DroneRegistered(_)));
    }

    #[test]
    fn malformed_frame_and_error_response_dump_the_recorder() {
        use std::sync::Arc;

        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(32));
        obs.set_subscriber(recorder.clone());
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .flight_recorder(recorder)
        .build();
        assert!(s.last_crash_dump().is_none());

        // Build up some context first, then trip the malformed path.
        let req = Request::RegisterDrone {
            operator_public: operator_key().public_key().clone(),
            tee_public: tee_key().public_key().clone(),
        };
        s.handle(&req.to_bytes(), now());
        s.handle(&[0xFF, 0x01], now());
        let dump = s.last_crash_dump().expect("malformed frame dumps");
        assert!(!dump.is_empty());
        assert!(dump
            .spans
            .iter()
            .any(|sp| sp.name == "server.register_drone"));

        // An error response (unknown drone) refreshes the dump.
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(404),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(1.0),
            poa: ProofOfAlibi::new().to_bytes(),
        };
        s.handle(&req.to_bytes(), now());
        let dump = s.last_crash_dump().expect("error response dumps");
        assert!(dump.spans.iter().any(|sp| sp.name == "server.submit_poa"));
        // The dump itself is reported as an event for live observers.
        assert!(dump
            .events
            .iter()
            .any(|e| e.message == "flight_recorder_dump"));
    }

    #[test]
    fn server_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AuditorServer>();
        assert_send_sync::<Auditor>();

        // Serve the same Arc'd instance from two threads at once.
        let s = Arc::new(server());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || register(&s))
            })
            .collect();
        let ids: Vec<DroneId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_ne!(ids[0], ids[1]);
        assert_eq!(s.auditor().drone_count(), 2);
    }

    #[test]
    fn builder_sets_serve_config() {
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .workers(9)
        .read_timeout(Duration::from_millis(250))
        .queue_cap(17)
        .build();
        assert_eq!(
            s.serve_config(),
            ServeConfig {
                workers: 9,
                read_timeout: Duration::from_millis(250),
                queue_cap: 17,
            }
        );
        // Zero workers is clamped to one.
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .workers(0)
        .build();
        assert_eq!(s.serve_config().workers, 1);
    }

    #[test]
    fn builder_wires_obs_and_recorder() {
        let recorder = Arc::new(FlightRecorder::new(8));
        let obs = Obs::noop();
        obs.set_subscriber(recorder.clone());
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .flight_recorder(recorder)
        .build();
        register(&s);
        assert_eq!(s.auditor().drone_count(), 1);
    }

    #[test]
    fn health_check_answers_without_touching_the_auditor() {
        let obs = Obs::noop();
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .build();
        let resp =
            Response::from_bytes(&s.handle(&Request::HealthCheck.to_bytes(), now())).unwrap();
        assert_eq!(
            resp,
            Response::Healthy {
                queue_depth: 0,
                inflight: 0,
            }
        );
        // No auditor state touched, no latency recorded for it.
        assert_eq!(s.auditor().drone_count(), 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("server.requests"), 1);
        assert_eq!(
            snap.histogram("server.latency.health_check").unwrap().count,
            0
        );
    }

    #[test]
    fn expired_budget_sheds_before_the_auditor_runs() {
        use crate::wire::{encode_envelope, WireEnvelope};

        let obs = Obs::noop();
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .build();
        let id = register(&s);
        let poa = ProofOfAlibi::from_entries(signed_samples(4));
        let req = Request::SubmitPoa {
            drone_id: id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(3.0),
            poa: poa.to_bytes(),
        };
        // The frame carries a 2 ms budget but waited 5 ms in the queue.
        let frame = encode_envelope(
            &WireEnvelope {
                trace: None,
                budget_micros: Some(2_000),
            },
            &req.to_bytes(),
        );
        let resp =
            Response::from_bytes(&s.handle_at(&frame, now(), Duration::from_millis(5))).unwrap();
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::DeadlineExpired,
                ..
            }
        ));
        // Shed before execution: nothing stored, no verify latency.
        assert_eq!(s.auditor().stored_poa_count(), 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("server.shed.expired"), 1);
        assert_eq!(snap.counter("server.errors.deadline_expired"), 1);
        assert_eq!(
            snap.histogram("server.latency.submit_poa").unwrap().count,
            0
        );

        // The same frame with a roomy budget executes normally.
        let frame = encode_envelope(
            &WireEnvelope {
                trace: None,
                budget_micros: Some(10_000_000),
            },
            &req.to_bytes(),
        );
        let resp =
            Response::from_bytes(&s.handle_at(&frame, now(), Duration::from_millis(5))).unwrap();
        assert_eq!(resp, Response::Verdict(Verdict::Compliant));
        assert_eq!(s.auditor().stored_poa_count(), 1);
    }

    #[test]
    fn rate_limiter_sheds_with_retry_hint_and_refills_on_the_request_clock() {
        let obs = Obs::noop();
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .rate_limit(RateLimitConfig {
            tokens_per_sec: 10.0,
            burst: 20.0,
            retry_after_cap_ms: 5_000,
        })
        .build();
        let id = register(&s);
        let poa = ProofOfAlibi::from_entries(signed_samples(4));
        let submit = Request::SubmitPoa {
            drone_id: id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(3.0),
            poa: poa.to_bytes(),
        }
        .to_bytes();

        // Burst 20, cost 10 per submission: two admit, the third sheds.
        let t = Timestamp::from_secs(50.0);
        for _ in 0..2 {
            let resp = Response::from_bytes(&s.handle(&submit, t)).unwrap();
            assert_eq!(resp, Response::Verdict(Verdict::Compliant));
        }
        let resp = Response::from_bytes(&s.handle(&submit, t)).unwrap();
        let Response::Overloaded { retry_after_ms } = resp else {
            panic!("expected Overloaded, got {resp:?}");
        };
        // Deficit is 10 tokens at 10/s = exactly 1000 ms.
        assert_eq!(retry_after_ms, 1_000);
        assert_eq!(obs.snapshot().counter("server.shed.ratelimited"), 1);

        // One simulated second later the bucket has refilled enough.
        let resp = Response::from_bytes(&s.handle(&submit, Timestamp::from_secs(51.0))).unwrap();
        assert_eq!(resp, Response::Verdict(Verdict::Compliant));

        // Registrations (cost 1, anonymous bucket) are untouched by the
        // drone's exhausted bucket.
        register(&s);
    }

    #[test]
    fn rate_limit_schedule_is_deterministic() {
        // Same seed-free construction + same request/clock schedule
        // twice → byte-identical response vectors.
        let run = || -> Vec<Vec<u8>> {
            let s = AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                auditor_key().clone(),
            ))
            .rate_limit(RateLimitConfig {
                tokens_per_sec: 2.0,
                burst: 3.0,
                retry_after_cap_ms: 9_000,
            })
            .build();
            let id = register(&s);
            let q = |nonce: u8| {
                Request::QueryZones(
                    ZoneQuery::new_signed(id, origin(), origin(), [nonce; 16], operator_key())
                        .unwrap(),
                )
                .to_bytes()
            };
            (0..10u8)
                .map(|i| s.handle(&q(i), Timestamp::from_secs(50.0 + f64::from(i) * 0.1)))
                .collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stage_sums_reconcile_exactly_with_latency_totals() {
        let obs = Obs::noop();
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .build();

        // A mix of executed, shed-free, and never-executed requests.
        let id = register(&s);
        let poa = ProofOfAlibi::from_entries(signed_samples(4));
        let submit = Request::SubmitPoa {
            drone_id: id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(3.0),
            poa: poa.to_bytes(),
        };
        s.handle(&submit.to_bytes(), now());
        let q = ZoneQuery::new_signed(id, origin(), origin(), [9u8; 16], operator_key()).unwrap();
        s.handle(&Request::QueryZones(q).to_bytes(), now());
        s.handle(&Request::HealthCheck.to_bytes(), now()); // no stages
        s.handle(&[0xFF], now()); // malformed: no stages

        let snap = obs.snapshot();
        let latency_count: u64 = REQUEST_KINDS
            .iter()
            .map(|k| {
                snap.histogram(&format!("server.latency.{k}"))
                    .unwrap()
                    .count
            })
            .sum();
        let latency_sum: u64 = REQUEST_KINDS
            .iter()
            .map(|k| {
                snap.histogram(&format!("server.latency.{k}"))
                    .unwrap()
                    .sum_micros
            })
            .sum();
        assert_eq!(latency_count, 3, "register + submit + query executed");
        for stage in PIPELINE_STAGES {
            let h = snap.histogram(&format!("server.stage.{stage}")).unwrap();
            assert_eq!(h.count, latency_count, "stage {stage} count");
        }
        let stage_sum: u64 = PIPELINE_STAGES
            .iter()
            .map(|stage| {
                snap.histogram(&format!("server.stage.{stage}"))
                    .unwrap()
                    .sum_micros
            })
            .sum();
        // Exact, not approximate: totals are computed as the sum of the
        // same stage marks the stage histograms record.
        assert_eq!(stage_sum, latency_sum);
        // Queue wait is tracked per executed request but excluded from
        // the reconciling set.
        assert_eq!(
            snap.histogram("server.stage.queue_wait").unwrap().count,
            latency_count
        );
    }

    #[test]
    fn slow_table_captures_executed_requests_with_stage_breakdown() {
        let s = server();
        let id = register(&s);
        let poa = ProofOfAlibi::from_entries(signed_samples(4));
        let req = Request::SubmitPoa {
            drone_id: id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(3.0),
            poa: poa.to_bytes(),
        };
        s.handle(&req.to_bytes(), now());

        let entries = s.slow_table().entries();
        assert_eq!(entries.len(), 2, "register + submit");
        // Slowest first: RSA verification makes the submission dominate.
        assert_eq!(entries[0].kind, "submit_poa");
        let stage_names: Vec<&str> = entries[0].stages.iter().map(|&(n, _)| n).collect();
        assert_eq!(stage_names, vec!["decode", "admission", "handle", "encode"]);
        assert_eq!(
            entries[0].total_micros,
            entries[0].stages.iter().map(|&(_, us)| us).sum::<u64>()
        );
        // Untraced requests still rank; they just carry no trace join.
        assert!(entries[0].trace_id.is_none());
    }

    #[test]
    fn scrape_endpoint_serves_the_server_registry_live() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;

        let obs = Obs::noop();
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .scrape("127.0.0.1:0".parse().unwrap())
        .build();
        let addr = s.scrape_addr().expect("scrape endpoint bound");
        register(&s);

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200"), "{body}");
        assert!(body.contains("server_requests_total 1"), "{body}");
        assert!(
            body.contains("server_slowest_seconds{rank=\"0\",kind=\"register_drone\""),
            "{body}"
        );
        assert!(body.contains("server_stage_handle_count 1"), "{body}");
    }

    #[test]
    fn scrape_bind_failure_degrades_to_an_event_not_a_panic() {
        use alidrone_obs::FlightRecorder;

        // Occupy a port, then ask the server to scrape-bind the same
        // one.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(8));
        obs.set_subscriber(recorder.clone());
        let s = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            auditor_key().clone(),
        ))
        .obs(&obs)
        .scrape(addr)
        .build();
        assert!(s.scrape_addr().is_none());
        assert!(recorder
            .events()
            .iter()
            .any(|e| e.message == "scrape_bind_failed"));
        // The server still serves requests.
        register(&s);
    }

    #[test]
    fn accusation_over_the_wire() {
        let s = server();
        let id = register(&s);
        let zreq = Request::RegisterZone {
            zone: NoFlyZone::new(
                origin().destination(0.0, Distance::from_km(50.0)),
                Distance::from_meters(100.0),
            ),
        };
        let zid = match Response::from_bytes(&s.handle(&zreq.to_bytes(), now())).unwrap() {
            Response::ZoneRegistered(z) => z,
            other => panic!("{other:?}"),
        };
        // Without any stored PoA the accusation is upheld.
        let areq = Request::Accuse(crate::Accusation {
            zone_id: zid,
            drone_id: id,
            time: Timestamp::from_secs(2.0),
        });
        let resp = Response::from_bytes(&s.handle(&areq.to_bytes(), now())).unwrap();
        match resp {
            Response::Accusation { refuted, reason } => {
                assert!(!refuted);
                assert!(!reason.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }
}
