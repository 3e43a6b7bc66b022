//! Transports and the typed client.
//!
//! The deployed system speaks this protocol over a socket
//! ([`TcpTransport`](crate::wire::tcp::TcpTransport)); the reproduction
//! also provides an in-process transport (direct function call). Seeded
//! transport faults live in the `alidrone-chaos` crate
//! (`FaultyTransport`), which wraps any [`Transport`].
//!
//! [`Transport::call`] takes `&self`: every transport keeps its state
//! behind interior locks or atomics, so transports — and the
//! [`AuditorClient`] above them — are `Send + Sync` and shareable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alidrone_geo::{GeoPoint, NoFlyZone, Timestamp};
use alidrone_obs::{Counter, Level, Obs, SpanContext};

use crate::messages::{Accusation, ZoneQuery};
use crate::wire::server::AuditorServer;
use crate::wire::{
    encode_envelope, request_kind_index, Request, Response, WireEnvelope, WireTraceContext,
};
use crate::{DroneId, ProtocolError, Verdict, ZoneId};

/// Client-side span names, indexed like
/// [`REQUEST_KINDS`](crate::wire::REQUEST_KINDS).
const WIRE_SPAN_NAMES: [&str; 10] = [
    "wire.register_drone",
    "wire.register_zone",
    "wire.query_zones",
    "wire.submit_poa",
    "wire.submit_encrypted_poa",
    "wire.accuse",
    "wire.health_check",
    "wire.tree_head",
    "wire.inclusion_proof",
    "wire.consistency_proof",
];

/// A request/response byte transport.
///
/// `call` takes `&self` so one transport can serve concurrent callers;
/// implementations guard any connection or schedule state internally.
pub trait Transport {
    /// Sends one request frame and returns the response frame.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for transport-level loss —
    /// [`ProtocolError::Transport`] for a lost frame,
    /// [`ProtocolError::Timeout`] for an elapsed socket deadline.
    fn call(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, ProtocolError>;
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn call(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, ProtocolError> {
        (**self).call(request, now)
    }
}

impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn call(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, ProtocolError> {
        (**self).call(request, now)
    }
}

/// Pre-registered transport traffic counters.
#[derive(Debug)]
struct TrafficMetrics {
    calls: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

impl TrafficMetrics {
    fn new(obs: &Obs) -> Self {
        TrafficMetrics {
            calls: obs.counter("transport.calls"),
            bytes_in: obs.counter("transport.bytes_in"),
            bytes_out: obs.counter("transport.bytes_out"),
        }
    }
}

/// Direct in-process delivery to an [`AuditorServer`].
///
/// Holds the server behind an `Arc`, so the same instance can also be
/// served by other transports (or inspected) concurrently.
#[derive(Debug)]
pub struct InProcess {
    server: Arc<AuditorServer>,
    metrics: TrafficMetrics,
}

impl InProcess {
    /// Wraps a server (traffic counters go to a private registry).
    pub fn new(server: AuditorServer) -> Self {
        InProcess::with_obs(server, &Obs::noop())
    }

    /// Wraps a server, counting calls and bytes in/out into `obs`.
    pub fn with_obs(server: AuditorServer, obs: &Obs) -> Self {
        InProcess::shared(Arc::new(server), obs)
    }

    /// Wraps an already-shared server — e.g. the same instance a
    /// [`TcpServer`](crate::wire::tcp::TcpServer) is serving.
    pub fn shared(server: Arc<AuditorServer>, obs: &Obs) -> Self {
        InProcess {
            server,
            metrics: TrafficMetrics::new(obs),
        }
    }

    /// Access to the wrapped server.
    pub fn server(&self) -> &AuditorServer {
        &self.server
    }
}

impl Transport for InProcess {
    fn call(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, ProtocolError> {
        self.metrics.calls.inc();
        self.metrics.bytes_in.add(request.len() as u64);
        let response = self.server.handle(request, now);
        self.metrics.bytes_out.add(response.len() as u64);
        Ok(response)
    }
}

/// Retry policy for [`AuditorClient`]: bounded exponential backoff with
/// deterministic, seedable jitter.
///
/// Retries apply **only** to transport-level losses
/// ([`ProtocolError::is_transport`]) of **idempotent** request kinds
/// ([`Request::is_idempotent`]) — a lost zone query is surfaced to the
/// caller rather than replayed, because its nonce is already burned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per logical call (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter sequence: the same seed reproduces the same
    /// backoff schedule exactly (tested — determinism is part of the
    /// contract).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x5EED,
        }
    }
}

/// A typed protocol client over any transport.
///
/// With an [`Obs`] handle attached (and a subscriber installed), every
/// request opens a `wire.<kind>` span whose trace context rides the
/// frame envelope to the server, stitching client and server spans
/// into one trace. Without one, requests go out as bare pre-envelope
/// frames.
///
/// With a [`RetryPolicy`] attached, each attempt additionally opens a
/// `wire.attempt` child span (and it is the *attempt's* context that
/// rides the envelope), so a retried call renders as one `wire.<kind>`
/// span with several attempt spans, each parenting its server span.
/// Retries increment the `transport.retries` counter; blown deadlines
/// increment `transport.timeouts`.
#[derive(Debug)]
pub struct AuditorClient<T> {
    transport: T,
    obs: Obs,
    trace_parent: Option<SpanContext>,
    retry: Option<RetryPolicy>,
    /// Jitter RNG state, advanced per retry (xorshift64).
    jitter_state: u64,
    /// Wall-clock budget per logical call, spanning all attempts. Also
    /// propagated to the server as a remaining-budget envelope field so
    /// it can shed requests that have already expired in its queue.
    deadline: Option<Duration>,
    retries: Arc<Counter>,
    timeouts: Arc<Counter>,
}

impl<T: Transport> AuditorClient<T> {
    /// Creates a client over `transport` (untraced).
    pub fn new(transport: T) -> Self {
        AuditorClient::with_obs(transport, &Obs::noop())
    }

    /// Creates a client whose wire spans flow into `obs`.
    pub fn with_obs(transport: T, obs: &Obs) -> Self {
        AuditorClient {
            transport,
            obs: obs.clone(),
            trace_parent: None,
            retry: None,
            jitter_state: 0,
            deadline: None,
            retries: obs.counter("transport.retries"),
            timeouts: obs.counter("transport.timeouts"),
        }
    }

    /// Attaches a retry policy: transport-level failures of idempotent
    /// requests are resent with exponential backoff.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.jitter_state = policy.jitter_seed.max(1);
        self.retry = Some(policy);
        self
    }

    /// Caps the wall-clock time one logical call may spend across all
    /// its attempts (backoffs included). On expiry the call returns
    /// [`ProtocolError::Timeout`].
    ///
    /// The *remaining* budget also rides each request's envelope
    /// (microseconds, relative — no clock sync needed), letting the
    /// server shed requests that expired while queued instead of
    /// executing them. Clients without a deadline send byte-identical
    /// pre-budget frames.
    pub fn deadline(mut self, per_call: Duration) -> Self {
        self.deadline = Some(per_call);
        self
    }

    /// Parents subsequent wire spans under `parent` instead of the
    /// handle's current span — e.g. under a completed flight span, so
    /// a post-landing submission joins the flight's trace. `None`
    /// restores automatic parenting.
    pub fn set_trace_parent(&mut self, parent: Option<SpanContext>) {
        self.trace_parent = parent;
    }

    /// Shared access to the underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Next jitter sample in `[0, cap]` (xorshift64 — deterministic for
    /// a given [`RetryPolicy::jitter_seed`]).
    fn next_jitter(&mut self, cap: Duration) -> Duration {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        let cap_us = cap.as_micros() as u64;
        if cap_us == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(x % (cap_us + 1))
    }

    /// Backoff before retry number `retry_no` (1-based): exponential
    /// from `base_backoff`, capped, plus jitter of up to half itself.
    fn backoff_for(&mut self, policy: &RetryPolicy, retry_no: u32) -> Duration {
        let exp = policy
            .base_backoff
            .saturating_mul(1u32 << retry_no.saturating_sub(1).min(20));
        let capped = exp.min(policy.max_backoff);
        capped + self.next_jitter(capped / 2)
    }

    /// Decodes a response frame into either a typed response or the
    /// typed error it encodes: `Overloaded` responses become
    /// [`ProtocolError::Overloaded`], `DeadlineExpired` server sheds
    /// become [`ProtocolError::Timeout`], and the error codes callers
    /// branch on map to their typed forms.
    fn decode_response(bytes: &[u8]) -> Result<Response, ProtocolError> {
        match Response::from_bytes(bytes)? {
            Response::Overloaded { retry_after_ms } => {
                Err(ProtocolError::Overloaded { retry_after_ms })
            }
            Response::Error { code, .. } => Err(match code {
                crate::wire::ErrorCode::NonceReplayed => ProtocolError::NonceReplayed,
                crate::wire::ErrorCode::BadSignature => ProtocolError::QuerySignatureInvalid,
                // The server shed the request unexecuted because its
                // budget expired in queue; to the caller that is a
                // deadline miss.
                crate::wire::ErrorCode::DeadlineExpired => ProtocolError::Timeout,
                _ => ProtocolError::Malformed("server error"),
            }),
            resp => Ok(resp),
        }
    }

    fn roundtrip(&mut self, req: &Request, now: Timestamp) -> Result<Response, ProtocolError> {
        let kind = request_kind_index(req);
        let name = WIRE_SPAN_NAMES[kind];
        let span = match &self.trace_parent {
            Some(parent) => self.obs.span_with_parent(name, Some(parent)),
            None => self.obs.enter_span(name),
        };
        let payload = req.to_bytes();
        let started = Instant::now();
        let mut attempt = 0u32;
        // `span` stays live (and on the handle's span stack) until this
        // function returns, so it covers transport, server handling on
        // in-process transports, and response decoding.
        loop {
            attempt += 1;
            // Remaining budget for this attempt. Zero means the
            // deadline passed during a backoff or a slow attempt: fail
            // fast rather than send a request the server would shed.
            let budget_micros = match self.deadline {
                Some(deadline) => {
                    let remaining = deadline.saturating_sub(started.elapsed());
                    if remaining.is_zero() {
                        self.timeouts.inc();
                        return Err(ProtocolError::Timeout);
                    }
                    // µs of any practical deadline fit u64; the cast
                    // saturates only past ~584k years.
                    Some(remaining.as_micros().min(u128::from(u64::MAX)) as u64)
                }
                None => None,
            };
            // Only a retry-capable client opens per-attempt spans: a
            // plain client keeps the historical single-span shape, so
            // the server span parents directly on `wire.<kind>`.
            let attempt_span = self
                .retry
                .is_some()
                .then(|| self.obs.enter_span("wire.attempt"));
            let envelope_ctx = attempt_span
                .as_ref()
                .and_then(|s| s.context())
                .or_else(|| span.context());
            let env = WireEnvelope {
                trace: envelope_ctx.map(|ctx| WireTraceContext {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                }),
                budget_micros,
            };
            let frame = encode_envelope(&env, &payload);
            let outcome = self
                .transport
                .call(&frame, now)
                .and_then(|bytes| Self::decode_response(&bytes));
            if let Some(s) = attempt_span {
                s.finish();
            }
            let err = match outcome {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            // Shed errors (`Overloaded`) are retryable for ANY request
            // kind — the server rejected before execution, so a resend
            // cannot double-apply. Transport losses stay
            // idempotent-only.
            let retryable = err.is_shed() || (err.is_transport() && req.is_idempotent());
            match self.retry {
                Some(policy) if retryable && attempt < policy.max_attempts.max(1) => {
                    let mut backoff = self.backoff_for(&policy, attempt);
                    if let ProtocolError::Overloaded { retry_after_ms } = &err {
                        // The server's shed hint floors the backoff.
                        backoff = backoff.max(Duration::from_millis(*retry_after_ms));
                    }
                    if let Some(deadline) = self.deadline {
                        // Never start a backoff the deadline cannot
                        // absorb: fail fast with Timeout instead.
                        if started.elapsed() + backoff >= deadline {
                            self.timeouts.inc();
                            return Err(ProtocolError::Timeout);
                        }
                    }
                    self.retries.inc();
                    self.obs.emit(Level::Warn, "wire.client", "retrying", |f| {
                        f.field("kind", crate::wire::REQUEST_KINDS[kind])
                            .field("attempt", attempt as u64)
                            .field("backoff_us", backoff.as_micros() as u64)
                            .field("error", err.to_string());
                    });
                    std::thread::sleep(backoff);
                }
                _ => {
                    if matches!(err, ProtocolError::Timeout) {
                        self.timeouts.inc();
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Registers a drone; returns the issued id.
    ///
    /// # Errors
    ///
    /// Transport loss, framing, or server-side rejection.
    pub fn register_drone(
        &mut self,
        operator_public: alidrone_crypto::rsa::RsaPublicKey,
        tee_public: alidrone_crypto::rsa::RsaPublicKey,
        now: Timestamp,
    ) -> Result<DroneId, ProtocolError> {
        match self.roundtrip(
            &Request::RegisterDrone {
                operator_public,
                tee_public,
            },
            now,
        )? {
            Response::DroneRegistered(id) => Ok(id),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Registers a zone; returns the issued id.
    #[allow(missing_docs)]
    pub fn register_zone(
        &mut self,
        zone: NoFlyZone,
        now: Timestamp,
    ) -> Result<ZoneId, ProtocolError> {
        match self.roundtrip(&Request::RegisterZone { zone }, now)? {
            Response::ZoneRegistered(id) => Ok(id),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Sends a signed zone query.
    #[allow(missing_docs)]
    pub fn query_zones(
        &mut self,
        query: ZoneQuery,
        now: Timestamp,
    ) -> Result<Vec<(ZoneId, NoFlyZone)>, ProtocolError> {
        match self.roundtrip(&Request::QueryZones(query), now)? {
            Response::Zones(z) => Ok(z),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Submits a plaintext PoA; returns the verdict.
    #[allow(missing_docs)]
    pub fn submit_poa(
        &mut self,
        drone_id: DroneId,
        window: (Timestamp, Timestamp),
        poa: &crate::ProofOfAlibi,
        now: Timestamp,
    ) -> Result<Verdict, ProtocolError> {
        match self.roundtrip(
            &Request::SubmitPoa {
                drone_id,
                window_start: window.0,
                window_end: window.1,
                poa: poa.to_bytes(),
            },
            now,
        )? {
            Response::Verdict(v) => Ok(v),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Submits an encrypted PoA; returns the verdict.
    #[allow(missing_docs)]
    pub fn submit_encrypted_poa(
        &mut self,
        drone_id: DroneId,
        window: (Timestamp, Timestamp),
        encrypted: &crate::EncryptedPoa,
        now: Timestamp,
    ) -> Result<Verdict, ProtocolError> {
        match self.roundtrip(
            &Request::SubmitEncryptedPoa {
                drone_id,
                window_start: window.0,
                window_end: window.1,
                blocks: encrypted.blocks().to_vec(),
            },
            now,
        )? {
            Response::Verdict(v) => Ok(v),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Files an accusation; returns `(refuted, reason)`.
    #[allow(missing_docs)]
    pub fn accuse(
        &mut self,
        accusation: Accusation,
        now: Timestamp,
    ) -> Result<(bool, String), ProtocolError> {
        match self.roundtrip(&Request::Accuse(accusation), now)? {
            Response::Accusation { refuted, reason } => Ok((refuted, reason)),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Probes server liveness; returns `(queue_depth, inflight)`. The
    /// server answers health checks without touching the auditor — and
    /// exempts them from shedding — so probes survive overload.
    #[allow(missing_docs)]
    pub fn health_check(&mut self, now: Timestamp) -> Result<(u32, u32), ProtocolError> {
        match self.roundtrip(&Request::HealthCheck, now)? {
            Response::Healthy {
                queue_depth,
                inflight,
            } => Ok((queue_depth, inflight)),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Fetches the auditor's current signed tree head. Verify it
    /// offline with
    /// [`SignedTreeHead::verify`](crate::audit::SignedTreeHead::verify)
    /// against the auditor's public key — the client never has to trust
    /// the transport.
    #[allow(missing_docs)]
    pub fn fetch_tree_head(
        &mut self,
        now: Timestamp,
    ) -> Result<crate::audit::SignedTreeHead, ProtocolError> {
        match self.roundtrip(&Request::FetchTreeHead, now)? {
            Response::TreeHead(sth) => Ok(sth),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Fetches a Merkle inclusion proof for the drone's latest stored
    /// verdict, against the tree of `tree_size` entries (`0` = current).
    /// Verify offline with
    /// [`audit::verify_inclusion`](crate::audit::verify_inclusion).
    #[allow(missing_docs)]
    pub fn fetch_inclusion_proof(
        &mut self,
        drone_id: DroneId,
        tree_size: u64,
        now: Timestamp,
    ) -> Result<crate::audit::InclusionProof, ProtocolError> {
        match self.roundtrip(
            &Request::FetchInclusionProof {
                drone_id,
                tree_size,
            },
            now,
        )? {
            Response::InclusionProof(proof) => Ok(proof),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Fetches a consistency proof between two tree sizes (`new_size`
    /// of `0` = current). Verify offline with
    /// [`audit::verify_consistency`](crate::audit::verify_consistency)
    /// to check the log is append-only between two observed heads.
    #[allow(missing_docs)]
    pub fn fetch_consistency_proof(
        &mut self,
        old_size: u64,
        new_size: u64,
        now: Timestamp,
    ) -> Result<crate::audit::ConsistencyProof, ProtocolError> {
        match self.roundtrip(&Request::FetchConsistencyProof { old_size, new_size }, now)? {
            Response::ConsistencyProof(proof) => Ok(proof),
            _ => Err(ProtocolError::Malformed("unexpected response kind")),
        }
    }

    /// Convenience: builds and sends a query for a rectangle.
    #[allow(missing_docs)]
    pub fn query_rect(
        &mut self,
        drone_id: DroneId,
        corner1: GeoPoint,
        corner2: GeoPoint,
        nonce: [u8; 16],
        operator_key: &alidrone_crypto::rsa::RsaPrivateKey,
        now: Timestamp,
    ) -> Result<Vec<(ZoneId, NoFlyZone)>, ProtocolError> {
        let q = ZoneQuery::new_signed(drone_id, corner1, corner2, nonce, operator_key)?;
        self.query_zones(q, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::{Auditor, AuditorConfig};
    use crate::test_support::{auditor_key, operator_key, origin, signed_samples, tee_key};
    use crate::wire::split_envelope;
    use crate::ProofOfAlibi;
    use alidrone_geo::Distance;

    fn client() -> AuditorClient<InProcess> {
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        AuditorClient::new(InProcess::new(AuditorServer::builder(auditor).build()))
    }

    fn now() -> Timestamp {
        Timestamp::from_secs(10.0)
    }

    #[test]
    fn typed_client_full_flow() {
        let mut c = client();
        let id = c
            .register_drone(
                operator_key().public_key().clone(),
                tee_key().public_key().clone(),
                now(),
            )
            .unwrap();
        let zid = c
            .register_zone(
                NoFlyZone::new(
                    origin().destination(0.0, Distance::from_km(50.0)),
                    Distance::from_meters(100.0),
                ),
                now(),
            )
            .unwrap();
        let zones = c
            .query_rect(
                id,
                origin().destination(225.0, Distance::from_km(100.0)),
                origin().destination(45.0, Distance::from_km(100.0)),
                [1u8; 16],
                operator_key(),
                now(),
            )
            .unwrap();
        assert_eq!(
            zones,
            vec![(zid, c.transport().server().auditor().zone(zid).unwrap())]
        );

        let poa = ProofOfAlibi::from_entries(signed_samples(5));
        let verdict = c
            .submit_poa(
                id,
                (Timestamp::from_secs(0.0), Timestamp::from_secs(4.0)),
                &poa,
                now(),
            )
            .unwrap();
        assert_eq!(verdict, Verdict::Compliant);

        let (refuted, _) = c
            .accuse(
                Accusation {
                    zone_id: zid,
                    drone_id: id,
                    time: Timestamp::from_secs(2.0),
                },
                now(),
            )
            .unwrap();
        assert!(refuted);
    }

    #[test]
    fn replayed_query_maps_to_typed_error() {
        let mut c = client();
        let id = c
            .register_drone(
                operator_key().public_key().clone(),
                tee_key().public_key().clone(),
                now(),
            )
            .unwrap();
        let q = ZoneQuery::new_signed(id, origin(), origin(), [2u8; 16], operator_key()).unwrap();
        c.query_zones(q.clone(), now()).unwrap();
        assert_eq!(
            c.query_zones(q, now()).unwrap_err(),
            ProtocolError::NonceReplayed
        );
    }

    #[test]
    fn dropped_requests_surface_as_errors() {
        // First call passes, second is lost, third passes.
        let mut c = AuditorClient::new(Script::new(vec![zone_ok(), lost(), zone_ok()]));
        c.register_zone(zone(), now()).unwrap();
        assert!(matches!(
            c.register_zone(zone(), now()).unwrap_err(),
            ProtocolError::Transport(_)
        ));
        c.register_zone(zone(), now()).unwrap();
    }

    #[test]
    fn corrupted_responses_are_rejected_not_misparsed() {
        // The response's first byte is flipped in transit: the client
        // must error, never return a bogus typed value.
        let mut c = AuditorClient::new(Script::new(vec![corrupted(zone_ok())]));
        assert!(c.register_zone(zone(), now()).is_err());
    }

    #[test]
    fn in_process_traffic_counters_accumulate() {
        let obs = Obs::noop();
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let server = AuditorServer::builder(auditor).obs(&obs).build();
        let mut c = AuditorClient::new(InProcess::with_obs(server, &obs));
        for _ in 0..4 {
            c.register_zone(zone(), now()).unwrap();
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("transport.calls"), 4);
        assert!(snap.counter("transport.bytes_in") > 0);
        assert!(snap.counter("transport.bytes_out") > 0);
        assert_eq!(snap.counter("server.requests"), 4);
    }

    #[test]
    fn traced_client_stitches_client_and_server_spans() {
        use alidrone_obs::FlightRecorder;

        let obs = Obs::noop();
        let rec = Arc::new(FlightRecorder::new(64));
        obs.set_subscriber(rec.clone());
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let server = AuditorServer::builder(auditor).obs(&obs).build();
        let mut c = AuditorClient::with_obs(InProcess::with_obs(server, &obs), &obs);
        c.register_zone(NoFlyZone::new(origin(), Distance::from_meters(10.0)), now())
            .unwrap();

        let spans = rec.spans();
        let wire = spans
            .iter()
            .find(|s| s.name == "wire.register_zone")
            .expect("client span");
        let server_span = spans
            .iter()
            .find(|s| s.name == "server.register_zone")
            .expect("server span");
        assert_eq!(server_span.context.trace_id, wire.context.trace_id);
        assert_eq!(server_span.context.parent_id, Some(wire.context.span_id));
        assert_eq!(wire.context.parent_id, None);
    }

    #[test]
    fn untraced_client_sends_bare_frames_the_server_accepts() {
        // The server has tracing on; the client does not. Old-style
        // bare frames must keep working and produce root server spans.
        use alidrone_obs::FlightRecorder;

        let obs = Obs::noop();
        let rec = Arc::new(FlightRecorder::new(16));
        obs.set_subscriber(rec.clone());
        let auditor = Auditor::new(AuditorConfig::default(), auditor_key().clone());
        let server = AuditorServer::builder(auditor).obs(&obs).build();
        let mut c = AuditorClient::new(InProcess::new(server));
        c.register_zone(NoFlyZone::new(origin(), Distance::from_meters(10.0)), now())
            .unwrap();
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "server.register_zone");
        assert_eq!(spans[0].context.parent_id, None);
    }

    fn fast_retry(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(400),
            jitter_seed: seed,
        }
    }

    #[test]
    fn retry_recovers_idempotent_calls_from_transport_loss() {
        let obs = Obs::noop();
        // Physical schedule: 1 ok, 2 lost, 3 ok, 4 lost, 5 ok, … — after
        // the first call every logical call burns one retry, so 6
        // logical calls = 11 physical = 5 retries. Pinned exactly to
        // catch schedule drift.
        let mut outcomes = vec![zone_ok()];
        for _ in 0..5 {
            outcomes.extend([lost(), zone_ok()]);
        }
        let script = Arc::new(Script::new(outcomes));
        let mut c = AuditorClient::with_obs(Arc::clone(&script), &obs).retry(fast_retry(7));
        for _ in 0..6 {
            c.register_zone(zone(), now()).unwrap();
        }
        assert_eq!(script.calls(), 11);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("transport.retries"), 5);
        assert_eq!(snap.counter("transport.timeouts"), 0);
    }

    #[test]
    fn non_idempotent_queries_are_never_retried() {
        let obs = Obs::noop();
        let script = Arc::new(Script::new(vec![lost(), zone_ok()]));
        let mut c = AuditorClient::with_obs(Arc::clone(&script), &obs).retry(fast_retry(1));
        let id = DroneId::new(1); // never reaches the server anyway
        let q = ZoneQuery::new_signed(id, origin(), origin(), [9u8; 16], operator_key()).unwrap();
        let err = c.query_zones(q, now()).unwrap_err();
        assert!(err.is_transport());
        // One attempt only: the nonce is burned server-side on first
        // delivery, so a replayed query could never succeed.
        assert_eq!(script.calls(), 1);
        assert_eq!(obs.snapshot().counter("transport.retries"), 0);
    }

    #[test]
    fn exhausted_retries_surface_the_transport_error() {
        let obs = Obs::noop();
        // Every call is lost (an exhausted script keeps failing).
        let script = Arc::new(Script::new(Vec::new()));
        let mut c = AuditorClient::with_obs(Arc::clone(&script), &obs).retry(fast_retry(2));
        let err = c.register_zone(zone(), now()).unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)));
        assert_eq!(script.calls(), 3);
        assert_eq!(obs.snapshot().counter("transport.retries"), 2); // 3 attempts
    }

    #[test]
    fn deadline_caps_the_retry_loop_with_timeout() {
        let obs = Obs::noop();
        let mut c = AuditorClient::with_obs(Script::new(Vec::new()), &obs)
            .retry(RetryPolicy {
                max_attempts: 100,
                base_backoff: Duration::from_millis(40),
                max_backoff: Duration::from_millis(40),
                jitter_seed: 3,
            })
            .deadline(Duration::from_millis(20));
        let err = c.register_zone(zone(), now()).unwrap_err();
        assert_eq!(err, ProtocolError::Timeout);
        assert_eq!(obs.snapshot().counter("transport.timeouts"), 1);
    }

    #[test]
    fn transports_and_client_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InProcess>();
        assert_send_sync::<AuditorClient<InProcess>>();
        assert_send_sync::<Script>();
    }

    /// Scriptable transport: pops one pre-programmed outcome per call
    /// and records every frame it was handed.
    struct Script {
        outcomes: std::sync::Mutex<std::collections::VecDeque<Result<Vec<u8>, ProtocolError>>>,
        frames: std::sync::Mutex<Vec<Vec<u8>>>,
    }

    impl Script {
        fn new(outcomes: Vec<Result<Vec<u8>, ProtocolError>>) -> Self {
            Script {
                outcomes: std::sync::Mutex::new(outcomes.into()),
                frames: std::sync::Mutex::new(Vec::new()),
            }
        }

        fn frames(&self) -> Vec<Vec<u8>> {
            self.frames.lock().unwrap().clone()
        }

        fn calls(&self) -> usize {
            self.frames.lock().unwrap().len()
        }
    }

    impl Transport for Script {
        fn call(&self, request: &[u8], _now: Timestamp) -> Result<Vec<u8>, ProtocolError> {
            self.frames.lock().unwrap().push(request.to_vec());
            self.outcomes
                .lock()
                .unwrap()
                .pop_front()
                .unwrap_or_else(|| Err(ProtocolError::Transport("script exhausted".into())))
        }
    }

    fn lost() -> Result<Vec<u8>, ProtocolError> {
        Err(ProtocolError::Transport("lost".into()))
    }

    fn zone_ok() -> Result<Vec<u8>, ProtocolError> {
        Ok(Response::ZoneRegistered(ZoneId::new(1)).to_bytes())
    }

    /// `outcome` with its first byte flipped in transit.
    fn corrupted(outcome: Result<Vec<u8>, ProtocolError>) -> Result<Vec<u8>, ProtocolError> {
        outcome.map(|mut frame| {
            frame[0] ^= 0x55;
            frame
        })
    }

    fn overloaded(retry_after_ms: u64) -> Result<Vec<u8>, ProtocolError> {
        Ok(Response::Overloaded { retry_after_ms }.to_bytes())
    }

    fn zone() -> NoFlyZone {
        NoFlyZone::new(origin(), Distance::from_meters(10.0))
    }

    #[test]
    fn deadline_expiring_mid_backoff_times_out_without_another_attempt() {
        // Attempt 1 fails instantly; the computed backoff (≥ 40 ms)
        // cannot fit in the 5 ms deadline, so the client must return
        // Timeout after exactly ONE transport call — no futile retry,
        // no sleep.
        let obs = Obs::noop();
        let script = Arc::new(Script::new(vec![lost()]));
        let mut c = AuditorClient::with_obs(Arc::clone(&script), &obs)
            .retry(RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(40),
                max_backoff: Duration::from_millis(40),
                jitter_seed: 9,
            })
            .deadline(Duration::from_millis(5));
        let t0 = Instant::now();
        assert_eq!(
            c.register_zone(zone(), now()).unwrap_err(),
            ProtocolError::Timeout
        );
        // Well under one backoff: the client did not sleep.
        assert!(t0.elapsed() < Duration::from_millis(40));
        assert_eq!(script.calls(), 1);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("transport.retries"), 0);
        assert_eq!(snap.counter("transport.timeouts"), 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_for_a_seed() {
        use alidrone_obs::FlightRecorder;

        let run = |seed: u64| -> Vec<u64> {
            let obs = Obs::noop();
            let recorder = Arc::new(FlightRecorder::new(32));
            obs.set_subscriber(recorder.clone());
            let script = Script::new(vec![lost(), lost(), lost(), lost(), zone_ok()]);
            let mut c = AuditorClient::with_obs(script, &obs).retry(RetryPolicy {
                max_attempts: 5,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(400),
                jitter_seed: seed,
            });
            c.register_zone(zone(), now()).unwrap();
            recorder
                .events()
                .iter()
                .filter(|e| e.message == "retrying")
                .map(|e| e.field("backoff_us").unwrap().as_u64().unwrap())
                .collect()
        };
        let a = run(0xFEED);
        let b = run(0xFEED);
        assert_eq!(a.len(), 4);
        assert_eq!(a, b, "same seed must reproduce the backoff schedule");
        assert_ne!(a, run(0xBEEF), "different seeds should diverge");
        // Exponential shape survives the jitter: base doubles each
        // retry (50, 100, 200, 400 µs) and jitter adds ≤ half.
        for (i, &backoff) in a.iter().enumerate() {
            let base = 50u64 << i.min(3);
            assert!(
                backoff >= base && backoff <= base + base / 2,
                "{i}: {backoff}"
            );
        }
    }

    #[test]
    fn overloaded_responses_map_to_typed_error_and_floor_the_backoff() {
        use alidrone_obs::FlightRecorder;

        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(8));
        obs.set_subscriber(recorder.clone());
        let script = Arc::new(Script::new(vec![overloaded(25), zone_ok()]));
        let mut c = AuditorClient::with_obs(Arc::clone(&script), &obs).retry(fast_retry(4));
        // The shed is retried (even though backoff jitter alone would
        // be µs-scale, the 25 ms hint floors it) and the retry lands.
        c.register_zone(zone(), now()).unwrap();
        assert_eq!(script.calls(), 2);
        let retrying: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.message == "retrying")
            .collect();
        assert_eq!(retrying.len(), 1);
        let backoff_us = retrying[0].field("backoff_us").unwrap().as_u64().unwrap();
        assert!(backoff_us >= 25_000, "hint not honored: {backoff_us}µs");
    }

    #[test]
    fn shed_errors_are_retried_even_for_non_idempotent_queries() {
        // An Overloaded shed happened before execution — no nonce was
        // burned — so even a zone query may resend. Contrast with
        // `non_idempotent_queries_are_never_retried` (transport loss).
        let script = Arc::new(Script::new(vec![
            overloaded(1),
            Ok(Response::Zones(Vec::new()).to_bytes()),
        ]));
        let mut c = AuditorClient::new(Arc::clone(&script)).retry(fast_retry(5));
        let q = ZoneQuery::new_signed(
            DroneId::new(1),
            origin(),
            origin(),
            [7u8; 16],
            operator_key(),
        )
        .unwrap();
        assert_eq!(c.query_zones(q, now()).unwrap(), Vec::new());
        assert_eq!(script.calls(), 2);
    }

    #[test]
    fn deadline_client_sends_remaining_budget_in_the_envelope() {
        let script = Arc::new(Script::new(vec![zone_ok()]));
        let mut c = AuditorClient::new(Arc::clone(&script)).deadline(Duration::from_millis(250));
        c.register_zone(zone(), now()).unwrap();
        let frames = script.frames();
        assert_eq!(frames.len(), 1);
        let (env, payload) = split_envelope(&frames[0]).unwrap();
        // Untraced client → no trace context, but the budget rides.
        assert!(env.trace.is_none());
        let budget = env.budget_micros.expect("budget field missing");
        assert!(budget > 0 && budget <= 250_000, "budget {budget}µs");
        assert_eq!(payload, Request::RegisterZone { zone: zone() }.to_bytes());
    }

    #[test]
    fn deadline_free_client_sends_byte_identical_legacy_frames() {
        // The overload machinery must not perturb the wire format for
        // clients that don't opt in: no deadline → bare legacy frame.
        let script = Arc::new(Script::new(vec![zone_ok()]));
        let mut c = AuditorClient::new(Arc::clone(&script));
        c.register_zone(zone(), now()).unwrap();
        assert_eq!(
            script.frames()[0],
            Request::RegisterZone { zone: zone() }.to_bytes()
        );
    }

    #[test]
    fn health_check_round_trips_queue_stats() {
        let mut c = client();
        assert_eq!(c.health_check(now()).unwrap(), (0, 0));
    }
}
