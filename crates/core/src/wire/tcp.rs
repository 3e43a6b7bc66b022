//! Networked serving over `std::net`: the paper's Fig. 4 deployment,
//! where drones reach the AliDrone Server through a socket.
//!
//! # Framing
//!
//! Both directions carry the existing codec frames unchanged, one per
//! length-prefixed TCP message:
//!
//! ```text
//! request:  | u32 len (BE) | f64 now_secs (BE) | request frame… |
//! response: | u32 len (BE) | response frame…                    |
//! ```
//!
//! The `request frame` is byte-for-byte what [`AuditorServer::handle`]
//! accepts in-process — bare or wrapped in the `0xE7` trace envelope —
//! so verdicts, PoA outcomes, and stitched traces are identical over
//! TCP and over [`InProcess`](crate::wire::transport::InProcess). The
//! `now_secs` prologue carries the caller's (possibly simulated) clock
//! in-frame, keeping simulation runs deterministic across the socket.
//!
//! # Threading model
//!
//! [`TcpServer`] runs one accept thread plus a bounded worker pool
//! ([`ServeConfig::workers`](crate::wire::server::ServeConfig)); each accepted connection passes
//! through a **bounded admission queue**
//! ([`ServeConfig::queue_cap`](crate::wire::server::ServeConfig)) to
//! one worker, which owns it for its lifetime and streams frames
//! sequentially (concurrency comes from connections, not from frames
//! within one). A connection arriving with the queue full is answered
//! with a typed [`Response::Overloaded`] and closed — counted in
//! `server.shed.queue_full` — instead of queueing unboundedly; health
//! probes are exempt and answered even at the admission edge. Workers
//! set each connection's read timeout from
//! [`ServeConfig::read_timeout`](crate::wire::server::ServeConfig::read_timeout)
//! (the write timeout is a fixed 5 s); an idle read timeout between
//! frames is the shutdown-check point, while a stall *mid-frame* drops
//! the connection. The accept loop blocks in `accept` (no polling);
//! [`TcpServer::shutdown`] wakes it with a throwaway self-connection,
//! then drains: in-flight requests finish and their responses are
//! written before threads join.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use alidrone_geo::Timestamp;
use alidrone_obs::{Counter, Level, Obs};

use crate::wire::codec::{extract_frame, read_frame, write_frame};
use crate::wire::server::AuditorServer;
use crate::wire::transport::Transport;
use crate::wire::{request_kind_from_tag, split_envelope, Response};
use crate::ProtocolError;

/// Hard cap on one TCP message body (matches the codec's own limit).
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// How long the admission-reject path waits for the rejected peer's
/// request frame before giving up. Reading the frame first means the
/// peer's written bytes are consumed, so closing the socket delivers
/// the [`Response::Overloaded`] instead of a TCP reset.
const REJECT_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Bound on the wake-connection dial during shutdown.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-connection socket write timeout on the server side.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Floor for per-connection socket read deadlines, which doubles as the
/// worst-case shutdown latency for a worker blocked in a read (and the
/// accept loop's pause after a failed `accept`).
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

/// `retry_after_ms` hint sent with queue-full rejections, and with
/// writes an auditor refuses while its last write's quorum is lost.
pub(crate) const QUEUE_FULL_RETRY_AFTER_MS: u64 = 100;

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// -------------------------------------------------------------- TcpServer

/// A listening front end serving one shared [`AuditorServer`] over TCP.
///
/// Created with [`TcpServer::bind`]; serving starts immediately on
/// background threads. Dropping the handle shuts down gracefully, or
/// call [`shutdown`](TcpServer::shutdown) explicitly to join the
/// threads and observe completion.
#[derive(Debug)]
pub struct TcpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an OS-assigned loopback port) and
    /// starts serving `server` with the worker count and timeouts from
    /// its [`ServeConfig`](crate::wire::server::ServeConfig).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, server: Arc<AuditorServer>) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let cfg = server.serve_config();
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = server.obs().counter("server.connections");
        let shed_queue_full = server.obs().counter("server.shed.queue_full");
        let queue_depth = server.obs().gauge("server.queue_depth");
        let workers_busy = server.obs().gauge("server.workers.busy");
        // Bounded admission queue: `try_send` fails instead of queueing
        // unboundedly, which is the whole point.
        let (tx, rx) = mpsc::sync_channel::<(TcpStream, Instant)>(cfg.queue_cap);
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..cfg.workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let server = Arc::clone(&server);
                let shutdown = Arc::clone(&shutdown);
                let queue_depth = Arc::clone(&queue_depth);
                let workers_busy = Arc::clone(&workers_busy);
                thread::spawn(move || loop {
                    // Blocking recv: the accept thread drops `tx` on
                    // shutdown, which unblocks every idle worker with
                    // `Err(Disconnected)` once the queue is drained.
                    let next = match rx.lock() {
                        Ok(queue) => queue.recv(),
                        // A sibling worker panicked while holding the
                        // queue: treat it like a closed queue and exit
                        // instead of cascading the panic pool-wide.
                        Err(_) => break,
                    };
                    match next {
                        Ok((stream, queued_at)) => {
                            queue_depth.add(-1);
                            // Pool saturation gauge: `workers.busy`
                            // pinned at the worker count while
                            // `queue_depth` grows is the live signature
                            // of overload.
                            workers_busy.add(1);
                            let served = serve_connection(
                                &server,
                                stream,
                                queued_at,
                                &shutdown,
                                cfg.read_timeout,
                            );
                            workers_busy.add(-1);
                            if let Err(e) = served {
                                server.obs().emit(
                                    Level::Warn,
                                    "wire.tcp",
                                    "connection_error",
                                    |f| {
                                        f.field("error", e.to_string());
                                    },
                                );
                            }
                        }
                        // Accept loop gone and queue drained.
                        Err(_) => break,
                    }
                })
            })
            .collect();

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_server = Arc::clone(&server);
        let accept_thread = thread::spawn(move || {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if accept_shutdown.load(Ordering::SeqCst) {
                            // Possibly the shutdown wake connection;
                            // either way, stop accepting.
                            break;
                        }
                        connections.inc();
                        // Responses go out as two writes (length prefix,
                        // then body); without NODELAY, Nagle holds the
                        // body until the client's delayed ACK (~40 ms
                        // per round trip on loopback).
                        let _ = stream.set_nodelay(true);
                        // Workers use blocking reads with timeouts.
                        if stream.set_nonblocking(false).is_err() {
                            continue;
                        }
                        match tx.try_send((stream, Instant::now())) {
                            Ok(()) => {
                                queue_depth.add(1);
                            }
                            Err(TrySendError::Full((stream, _))) => {
                                reject_or_probe(&accept_server, stream, &shed_queue_full);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        if accept_shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        thread::sleep(SHUTDOWN_POLL);
                    }
                }
            }
            // Dropping `tx` lets idle workers exit once the queue is dry.
        });

        Ok(TcpServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stops accepting, lets workers finish (and
    /// answer) every request already received, then joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept thread blocks in `accept` — wake it with a
        // throwaway connection so shutdown is prompt without polling.
        // Fall back to plain loopback when the bound address is not
        // directly dialable (e.g. 0.0.0.0).
        let woke = TcpStream::connect_timeout(&self.local_addr, WAKE_CONNECT_TIMEOUT)
            .or_else(|_| {
                TcpStream::connect_timeout(
                    &SocketAddr::from(([127, 0, 0, 1], self.local_addr.port())),
                    WAKE_CONNECT_TIMEOUT,
                )
            })
            .is_ok();
        if let Some(t) = self.accept_thread.take() {
            if woke {
                let _ = t.join();
            } else {
                // Both wake dials failed: the accept thread may be
                // parked in `accept` forever, and until it exits it
                // holds the queue sender that unblocks idle workers.
                // Joining could hang shutdown — detach everything
                // instead; the OS reclaims the threads at process exit.
                self.workers.clear();
                return;
            }
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Answers a connection the admission queue had no room for. The
/// rejected peer's request frame is read first (so its bytes are
/// consumed and the close delivers our response rather than a reset),
/// then a typed [`Response::Overloaded`] is written and the connection
/// closed. Health probes are the exception: they are answered properly
/// even at the admission edge, so monitoring survives overload.
/// `server.shed.queue_full` counts only rejections whose response was
/// actually written — the counter reconciles against client-observed
/// typed rejections.
fn reject_or_probe(server: &AuditorServer, mut stream: TcpStream, shed_queue_full: &Counter) {
    if stream
        .set_read_timeout(Some(REJECT_READ_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)))
        .is_err()
    {
        return;
    }
    let Ok(body) = read_frame(&mut stream, MAX_FRAME) else {
        // No frame arrived in time: nothing to answer.
        return;
    };
    if is_health_probe(&body) {
        let response = handle_framed(server, &body, Duration::ZERO);
        let _ = write_frame(&mut stream, &response, MAX_FRAME);
        return;
    }
    let response = Response::Overloaded {
        retry_after_ms: QUEUE_FULL_RETRY_AFTER_MS,
    }
    .to_bytes();
    if write_frame(&mut stream, &response, MAX_FRAME).is_ok() {
        shed_queue_full.inc();
        server
            .obs()
            .emit(Level::Warn, "wire.tcp", "shed_queue_full", |f| {
                f.field("retry_after_ms", QUEUE_FULL_RETRY_AFTER_MS);
            });
    }
}

/// `true` when a framed body (now-prologue + possibly enveloped
/// payload) carries a health-check request.
fn is_health_probe(body: &[u8]) -> bool {
    let Some(payload) = body.get(8..) else {
        return false;
    };
    match split_envelope(payload) {
        Ok((_, req)) => {
            req.first().copied().and_then(request_kind_from_tag) == Some("health_check")
        }
        Err(_) => false,
    }
}

/// Serves one connection until the peer closes, shutdown drains it, or
/// an error/mid-frame stall drops it.
fn serve_connection(
    server: &AuditorServer,
    mut stream: TcpStream,
    queued_at: Instant,
    shutdown: &AtomicBool,
    read_timeout: Duration,
) -> io::Result<()> {
    stream.set_read_timeout(Some(read_timeout.max(SHUTDOWN_POLL)))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 8192];
    // Queue-wait accounting for deadline shedding: the first frame
    // batch waited in the admission queue with the connection itself;
    // later batches are stamped when their bytes arrive. The stamp
    // stays fixed while a batch drains, so a frame queued behind
    // earlier frames on the same connection accrues their handling
    // time as its own wait.
    let mut batch_arrival = queued_at;
    // The first bytes of a freshly dequeued connection were sent while
    // it sat in the admission queue, so their wait starts at
    // `queued_at` — NOT at the moment the worker finally read them.
    let mut first_batch = true;
    loop {
        // Serve every complete frame already received — including after
        // shutdown, so in-flight requests drain with responses.
        while let Some(body) = extract_frame(&mut buf, MAX_FRAME)? {
            let response = handle_framed(server, &body, batch_arrival.elapsed());
            write_frame(&mut stream, &response, MAX_FRAME)?;
        }
        if shutdown.load(Ordering::SeqCst) && buf.is_empty() {
            return Ok(());
        }
        match stream.read(&mut tmp) {
            // Peer closed; a partial trailing frame is a peer bug but
            // not ours to report.
            Ok(0) => return Ok(()),
            Ok(n) => {
                if buf.is_empty() && !first_batch {
                    batch_arrival = Instant::now();
                }
                first_batch = false;
                buf.extend_from_slice(&tmp[..n]);
            }
            Err(ref e) if is_timeout(e) && buf.is_empty() => {
                // Idle between frames: loop around to re-check
                // shutdown. Further waiting is the peer's silence, not
                // queueing — don't let it count against a budget.
                first_batch = false;
                batch_arrival = Instant::now();
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Mid-frame stall or hard error: drop the connection.
            Err(e) => return Err(e),
        }
    }
}

/// Unpacks the `now_secs` prologue and hands the frame to the server
/// along with how long it waited before a handler thread got to it.
/// A body too short to carry the prologue is fed through anyway so it
/// lands in the server's malformed-frame accounting.
fn handle_framed(server: &AuditorServer, body: &[u8], queue_wait: Duration) -> Vec<u8> {
    match body.get(..8) {
        Some(prologue) => {
            // Invariant: `get(..8)` returned `Some`, so the slice is
            // exactly 8 bytes and the conversion cannot fail.
            let now = f64::from_be_bytes(prologue.try_into().expect("8-byte slice"));
            server.handle_at(&body[8..], Timestamp::from_secs(now), queue_wait)
        }
        None => server.handle_at(body, Timestamp::from_secs(0.0), queue_wait),
    }
}

// ------------------------------------------------------------ TcpTransport

/// A client-side [`Transport`] over one TCP connection.
///
/// Connects lazily on the first call and keeps the stream behind a
/// mutex, so the transport is `Send + Sync`; calls on one transport
/// serialise (use one transport per thread for parallelism — the
/// server end is concurrent across connections).
///
/// A write failure on a *reused* stream means the pooled connection
/// died since the last call (server restart, idle drop): the transport
/// reconnects once and resends, emitting `transport.reconnects`. A
/// *read* failure is never resent here — whether the request executed
/// is unknown, so the typed error surfaces and only the
/// [`AuditorClient`](crate::wire::transport::AuditorClient) retry
/// layer, which knows idempotency, may resend. A failed dial surfaces
/// the same way, as a retryable [`ProtocolError::Transport`] (or
/// [`ProtocolError::Timeout`]): spacing out redials is the
/// [`RetryPolicy`](crate::wire::transport::RetryPolicy) backoff's job,
/// not the transport's.
///
/// # Failover
///
/// [`TcpTransport::multi`] takes an *endpoint list* (a replicated
/// auditor cluster, see [`crate::repl`]). Dials distinguish failure
/// classes: **connection refused** means nothing is listening — a dead
/// or deposed primary — so the transport rotates to the next endpoint
/// *immediately*, within the same call (counted in
/// `transport.endpoint_rotations`). Transient errors (timeouts, resets)
/// stay on the same endpoint and fail the call; so does a full cycle of
/// refusals — every endpoint dead. Combined with the
/// [`AuditorClient`](crate::wire::transport::AuditorClient) retry
/// layer, in-flight *idempotent* requests transparently retry against
/// the promoted primary; non-idempotent ones surface their typed
/// [`ProtocolError`] to the caller.
#[derive(Debug)]
pub struct TcpTransport {
    endpoints: Vec<SocketAddr>,
    /// Index of the endpoint currently dialed (rotates on refusal).
    active: AtomicUsize,
    stream: Mutex<Option<TcpStream>>,
    read_timeout: Duration,
    write_timeout: Duration,
    calls: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    reconnects: Arc<Counter>,
    endpoint_rotations: Arc<Counter>,
    obs: Obs,
}

impl TcpTransport {
    /// A transport for `addr` (untraced; connects on first use).
    pub fn new(addr: SocketAddr) -> Self {
        TcpTransport::with_obs(addr, &Obs::noop())
    }

    /// As [`new`](Self::new), counting traffic into `obs` under the
    /// same `transport.*` names the in-process transport uses, plus
    /// `transport.reconnects`.
    pub fn with_obs(addr: SocketAddr, obs: &Obs) -> Self {
        TcpTransport::multi(vec![addr], obs)
    }

    /// A transport over an *endpoint list* — a replicated cluster whose
    /// primary may move. Dials start at `endpoints[0]` and rotate (in
    /// list order, wrapping) whenever the active endpoint refuses the
    /// connection; see the type docs for the failure-class rules.
    ///
    /// # Panics
    ///
    /// When `endpoints` is empty.
    pub fn multi(endpoints: Vec<SocketAddr>, obs: &Obs) -> Self {
        assert!(!endpoints.is_empty(), "endpoint list must be non-empty");
        TcpTransport {
            endpoints,
            active: AtomicUsize::new(0),
            stream: Mutex::new(None),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            calls: obs.counter("transport.calls"),
            bytes_in: obs.counter("transport.bytes_in"),
            bytes_out: obs.counter("transport.bytes_out"),
            reconnects: obs.counter("transport.reconnects"),
            endpoint_rotations: obs.counter("transport.endpoint_rotations"),
            obs: obs.clone(),
        }
    }

    /// Socket-level read/write timeouts (default 5 s each). An elapsed
    /// read timeout surfaces as [`ProtocolError::Timeout`].
    pub fn timeouts(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// The endpoint this transport currently dials (rotates across
    /// [`multi`](Self::multi) endpoints on refused connections).
    pub fn addr(&self) -> SocketAddr {
        self.endpoints[self.active.load(Ordering::Relaxed) % self.endpoints.len()]
    }

    /// The full endpoint list, in rotation order.
    pub fn endpoints(&self) -> &[SocketAddr] {
        &self.endpoints
    }

    fn connect(&self) -> Result<TcpStream, ProtocolError> {
        // One pass over the ring: a refused endpoint (nothing listening
        // — dead or deposed primary) rotates immediately; a transient
        // failure stays put and fails the call. A full cycle of
        // refusals means the whole cluster is dark.
        let mut refused_all: Option<io::Error> = None;
        for _ in 0..self.endpoints.len() {
            let idx = self.active.load(Ordering::Relaxed) % self.endpoints.len();
            let addr = self.endpoints[idx];
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(self.read_timeout))
                        .and_then(|()| stream.set_write_timeout(Some(self.write_timeout)))
                        .map_err(io_to_protocol)?;
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    let next = (idx + 1) % self.endpoints.len();
                    self.active.store(next, Ordering::Relaxed);
                    if self.endpoints.len() > 1 {
                        self.endpoint_rotations.inc();
                        let to = self.endpoints[next].to_string();
                        self.obs
                            .emit(Level::Warn, "wire.tcp", "endpoint_rotate", |f| {
                                f.field("refused", addr.to_string())
                                    .field("to", to.as_str());
                            });
                    }
                    refused_all = Some(e);
                }
                Err(e) => return Err(io_to_protocol(e)),
            }
        }
        // Invariant: the loop ran >= 1 time (endpoints is non-empty)
        // and every arm either returned or set `refused_all`.
        Err(io_to_protocol(
            refused_all.expect("full refusal cycle recorded an error"),
        ))
    }
}

fn io_to_protocol(e: io::Error) -> ProtocolError {
    if is_timeout(&e) {
        ProtocolError::Timeout
    } else {
        ProtocolError::Transport(e.to_string())
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, ProtocolError> {
        self.calls.inc();
        self.bytes_in.add(request.len() as u64);
        let mut body = Vec::with_capacity(8 + request.len());
        body.extend_from_slice(&now.secs().to_be_bytes());
        body.extend_from_slice(request);

        let mut guard = self.stream.lock().unwrap_or_else(|poisoned| {
            // A previous call panicked mid-frame, so the pooled stream
            // may hold half-written bytes: drop it and start clean.
            let mut guard = poisoned.into_inner();
            *guard = None;
            guard
        });
        let reused = guard.is_some();
        if guard.is_none() {
            *guard = Some(self.connect()?);
        }
        // Invariant: the branch above just ensured the slot is `Some`.
        let stream = guard.as_mut().expect("stream just ensured");
        if let Err(e) = write_frame(stream, &body, MAX_FRAME) {
            if !reused {
                *guard = None;
                return Err(io_to_protocol(e));
            }
            // Broken pipe on a pooled connection: reconnect and resend.
            // Safe because the request bytes never reached a live
            // server — the failure was on write, not read.
            self.reconnects.inc();
            self.obs.emit(Level::Warn, "wire.tcp", "reconnecting", |f| {
                f.field("error", e.to_string());
            });
            *guard = Some(self.connect()?);
            // Invariant: the line above just stored a fresh stream.
            write_frame(guard.as_mut().expect("fresh stream"), &body, MAX_FRAME).map_err(|e| {
                *guard = None;
                io_to_protocol(e)
            })?;
        }
        // Invariant: every error path above returned early, and every
        // surviving path left a connected stream in the slot.
        match read_frame(guard.as_mut().expect("stream present"), MAX_FRAME) {
            Ok(response) => {
                self.bytes_out.add(response.len() as u64);
                Ok(response)
            }
            Err(e) => {
                // The response is lost and the stream state unknown:
                // drop it so the next call starts clean.
                *guard = None;
                Err(io_to_protocol(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::{Auditor, AuditorConfig};
    use crate::test_support::{auditor_key, operator_key, origin, tee_key};
    use crate::wire::transport::AuditorClient;
    use crate::wire::{ErrorCode, Request, Response};
    use alidrone_geo::{Distance, NoFlyZone};

    fn spawn_server(workers: usize) -> (TcpServer, Arc<AuditorServer>, Obs) {
        let obs = Obs::noop();
        let server = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                auditor_key().clone(),
            ))
            .obs(&obs)
            .workers(workers)
            .read_timeout(Duration::from_millis(200))
            .build(),
        );
        let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).unwrap();
        (tcp, server, obs)
    }

    fn now() -> Timestamp {
        Timestamp::from_secs(42.0)
    }

    #[test]
    fn register_and_query_over_loopback() {
        let (tcp, server, _obs) = spawn_server(2);
        let mut client = AuditorClient::new(TcpTransport::new(tcp.local_addr()));
        let id = client
            .register_drone(
                operator_key().public_key().clone(),
                tee_key().public_key().clone(),
                now(),
            )
            .unwrap();
        let zid = client
            .register_zone(NoFlyZone::new(origin(), Distance::from_meters(25.0)), now())
            .unwrap();
        assert_eq!(server.auditor().drone_count(), 1);
        assert_eq!(server.auditor().zone_count(), 1);
        let zones = client
            .query_rect(
                id,
                origin().destination(225.0, Distance::from_km(1.0)),
                origin().destination(45.0, Distance::from_km(1.0)),
                [7u8; 16],
                operator_key(),
                now(),
            )
            .unwrap();
        assert_eq!(zones.len(), 1);
        assert_eq!(zones[0].0, zid);
        tcp.shutdown();
    }

    #[test]
    fn malformed_tcp_body_gets_an_error_response() {
        let (tcp, _server, obs) = spawn_server(1);
        let mut stream = TcpStream::connect(tcp.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Too short to even carry the now-prologue.
        write_frame(&mut stream, &[0xAB, 0xCD], MAX_FRAME).unwrap();
        let resp = Response::from_bytes(&read_frame(&mut stream, MAX_FRAME).unwrap()).unwrap();
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
        assert_eq!(obs.snapshot().counter("server.malformed_frames"), 1);
        tcp.shutdown();
    }

    #[test]
    fn now_prologue_carries_the_callers_clock() {
        // The server stores PoAs stamped with the *request's* timestamp,
        // not its own wall clock — submit at a chosen sim time and check
        // the retention boundary honours it.
        let (tcp, server, _obs) = spawn_server(1);
        let mut client = AuditorClient::new(TcpTransport::new(tcp.local_addr()));
        let id = client
            .register_drone(
                operator_key().public_key().clone(),
                tee_public(),
                Timestamp::from_secs(0.0),
            )
            .unwrap();
        let poa = crate::ProofOfAlibi::from_entries(crate::test_support::signed_samples(3));
        client
            .submit_poa(
                id,
                (Timestamp::from_secs(0.0), Timestamp::from_secs(2.0)),
                &poa,
                Timestamp::from_secs(1_000.0),
            )
            .unwrap();
        let stored = server.auditor().latest_stored(id).unwrap();
        assert_eq!(stored.stored_at, Timestamp::from_secs(1_000.0));
        tcp.shutdown();
    }

    fn tee_public() -> alidrone_crypto::rsa::RsaPublicKey {
        tee_key().public_key().clone()
    }

    #[test]
    fn connection_counter_and_multiple_clients() {
        let (tcp, server, obs) = spawn_server(2);
        for _ in 0..3 {
            let mut client = AuditorClient::new(TcpTransport::new(tcp.local_addr()));
            client
                .register_zone(NoFlyZone::new(origin(), Distance::from_meters(10.0)), now())
                .unwrap();
        }
        assert_eq!(server.auditor().zone_count(), 3);
        tcp.shutdown();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("server.connections"), 3);
        assert_eq!(snap.counter("server.requests"), 3);
    }

    #[test]
    fn transport_reconnects_after_server_restart_on_same_port() {
        let (tcp, _server, _obs) = spawn_server(1);
        let addr = tcp.local_addr();
        let obs = Obs::noop();
        let transport = TcpTransport::with_obs(addr, &obs);
        let req = Request::RegisterZone {
            zone: NoFlyZone::new(origin(), Distance::from_meters(10.0)),
        };
        transport.call(&req.to_bytes(), now()).unwrap();

        // Kill the server; the pooled stream is now dead.
        tcp.shutdown();
        let server2 = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                auditor_key().clone(),
            ))
            .build(),
        );
        let tcp2 = TcpServer::bind(addr, Arc::clone(&server2)).unwrap();

        // The first call may surface the stale-stream failure (written
        // bytes vanished into the dead socket's buffer); the transport
        // reconnects on the write-failure path or drops the stream on
        // the read-failure path, so a bounded number of calls must get
        // through without constructing a new transport.
        let mut ok = false;
        for _ in 0..3 {
            if transport.call(&req.to_bytes(), now()).is_ok() {
                ok = true;
                break;
            }
        }
        assert!(ok, "transport never recovered after server restart");
        assert!(server2.auditor().zone_count() >= 1);
        tcp2.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_without_polling() {
        // With a blocking accept loop and long socket timeouts, only
        // the wake connection makes shutdown fast. Guard against a
        // regression to timeout-bounded shutdown (the old worst case
        // was the 5 s read timeout).
        let server = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                auditor_key().clone(),
            ))
            .build(),
        );
        let tcp = TcpServer::bind("127.0.0.1:0", server).unwrap();
        let t0 = Instant::now();
        tcp.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn queue_full_connections_get_typed_overloaded() {
        // One worker, admission queue of one. Occupy the worker with a
        // slow request and park a second connection in the queue; the
        // third connection must be rejected with Overloaded, not hang.
        let obs = Obs::noop();
        let server = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                auditor_key().clone(),
            ))
            .obs(&obs)
            .workers(1)
            .queue_cap(1)
            .read_timeout(Duration::from_millis(200))
            .handle_delay(|| Duration::from_millis(400))
            .build(),
        );
        let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).unwrap();
        let addr = tcp.local_addr();

        let frame = |req: &Request| {
            let mut body = now().secs().to_be_bytes().to_vec();
            body.extend_from_slice(&req.to_bytes());
            body
        };
        let zone_req = Request::RegisterZone {
            zone: NoFlyZone::new(origin(), Distance::from_meters(10.0)),
        };

        // Occupy the single worker.
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut busy, &frame(&zone_req), MAX_FRAME).unwrap();
        thread::sleep(Duration::from_millis(100));
        // Fill the one queue slot.
        let _parked = TcpStream::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        // Overflow: this connection must be shed with a typed response.
        let mut shed = TcpStream::connect(addr).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut shed, &frame(&zone_req), MAX_FRAME).unwrap();
        let resp = Response::from_bytes(&read_frame(&mut shed, MAX_FRAME).unwrap()).unwrap();
        assert_eq!(
            resp,
            Response::Overloaded {
                retry_after_ms: QUEUE_FULL_RETRY_AFTER_MS,
            }
        );
        // The occupied worker still answers its slow request.
        let resp = Response::from_bytes(&read_frame(&mut busy, MAX_FRAME).unwrap()).unwrap();
        assert!(matches!(resp, Response::ZoneRegistered(_)));
        drop(busy);
        tcp.shutdown();
        assert_eq!(obs.snapshot().counter("server.shed.queue_full"), 1);
    }

    #[test]
    fn health_probe_survives_a_full_admission_queue() {
        let obs = Obs::noop();
        let server = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                auditor_key().clone(),
            ))
            .obs(&obs)
            .workers(1)
            .queue_cap(1)
            .read_timeout(Duration::from_millis(200))
            .handle_delay(|| Duration::from_millis(400))
            .build(),
        );
        let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).unwrap();
        let addr = tcp.local_addr();

        let frame = |req: &Request| {
            let mut body = now().secs().to_be_bytes().to_vec();
            body.extend_from_slice(&req.to_bytes());
            body
        };
        let zone_req = Request::RegisterZone {
            zone: NoFlyZone::new(origin(), Distance::from_meters(10.0)),
        };
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut busy, &frame(&zone_req), MAX_FRAME).unwrap();
        thread::sleep(Duration::from_millis(100));
        let _parked = TcpStream::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(50));
        // The queue is full, but a health probe is still answered.
        let mut probe = TcpStream::connect(addr).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut probe, &frame(&Request::HealthCheck), MAX_FRAME).unwrap();
        let resp = Response::from_bytes(&read_frame(&mut probe, MAX_FRAME).unwrap()).unwrap();
        assert!(matches!(resp, Response::Healthy { .. }), "{resp:?}");
        drop(busy);
        tcp.shutdown();
        // The probe was not a queue-full shed.
        assert_eq!(obs.snapshot().counter("server.shed.queue_full"), 0);
    }

    #[test]
    fn refused_endpoints_rotate_in_deterministic_order() {
        // Three dead loopback ports: every dial is refused, so each
        // call walks the full ring. The rotation order must be the
        // list order, wrapping, identically across runs.
        let dead: Vec<SocketAddr> = (0..3)
            .map(|_| {
                TcpListener::bind("127.0.0.1:0")
                    .unwrap()
                    .local_addr()
                    .unwrap()
            })
            .collect();
        let run = || -> (u64, Vec<String>) {
            use alidrone_obs::FlightRecorder;
            let obs = Obs::noop();
            let recorder = Arc::new(FlightRecorder::new(64));
            obs.set_subscriber(recorder.clone());
            let transport = TcpTransport::multi(dead.clone(), &obs);
            let req = Request::HealthCheck.to_bytes();
            for _ in 0..2 {
                assert!(transport.call(&req, now()).is_err());
            }
            let order: Vec<String> = recorder
                .events()
                .iter()
                .filter(|e| e.message == "endpoint_rotate")
                .map(|e| e.field("refused").unwrap().as_str().unwrap().to_string())
                .collect();
            (
                obs.snapshot().counter("transport.endpoint_rotations"),
                order,
            )
        };
        let (count_a, order_a) = run();
        let (count_b, order_b) = run();
        // Two calls x three endpoints: six rotations, list order wrapped.
        assert_eq!(count_a, 6);
        assert_eq!(count_a, count_b);
        assert_eq!(order_a, order_b);
        let expected: Vec<String> = dead.iter().cycle().take(6).map(|a| a.to_string()).collect();
        assert_eq!(order_a, expected);
    }

    #[test]
    fn refused_primary_fails_over_to_live_endpoint_without_backoff() {
        // Endpoint 0 is dead (refused), endpoint 1 serves: the first
        // call must rotate and succeed within the same call — refusal
        // is failover, not a transient to wait out.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let (tcp, server, _sobs) = spawn_server(1);
        let obs = Obs::noop();
        let transport = TcpTransport::multi(vec![dead, tcp.local_addr()], &obs);
        let mut client = AuditorClient::new(transport);
        client
            .register_zone(NoFlyZone::new(origin(), Distance::from_meters(10.0)), now())
            .unwrap();
        assert_eq!(server.auditor().zone_count(), 1);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("transport.endpoint_rotations"), 1);
        tcp.shutdown();
    }

    #[test]
    fn idempotent_requests_retry_against_promoted_endpoint() {
        // A two-endpoint client pinned to a live "primary"; kill it,
        // boot a replacement on the *other* endpoint, and the next
        // idempotent call must land there via refused-rotation plus
        // the client retry layer — no typed error escapes.
        let (tcp_a, _server_a, _oa) = spawn_server(1);
        let addr_a = tcp_a.local_addr();
        let addr_b = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let obs = Obs::noop();
        let transport = TcpTransport::multi(vec![addr_a, addr_b], &obs);
        let mut client = AuditorClient::new(transport);
        client
            .register_zone(NoFlyZone::new(origin(), Distance::from_meters(10.0)), now())
            .unwrap();

        // Failover: A dies, B starts serving.
        tcp_a.shutdown();
        let server_b = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                auditor_key().clone(),
            ))
            .build(),
        );
        let tcp_b = TcpServer::bind(addr_b, Arc::clone(&server_b)).unwrap();

        // register_zone is idempotent at the wire layer, so the retry
        // layer may resend it across the failover.
        client
            .register_zone(NoFlyZone::new(origin(), Distance::from_meters(20.0)), now())
            .unwrap();
        assert!(server_b.auditor().zone_count() >= 1);
        tcp_b.shutdown();
    }

    #[test]
    fn graceful_shutdown_answers_inflight_requests() {
        let (tcp, server, _obs) = spawn_server(2);
        let addr = tcp.local_addr();
        // Park a request on the wire, then shut down while it is being
        // handled: the response must still arrive.
        let handle = thread::spawn(move || {
            let mut client = AuditorClient::new(TcpTransport::new(addr));
            client.register_zone(NoFlyZone::new(origin(), Distance::from_meters(10.0)), now())
        });
        // Give the request time to hit a worker, then drain.
        thread::sleep(Duration::from_millis(50));
        tcp.shutdown();
        handle.join().unwrap().unwrap();
        assert_eq!(server.auditor().zone_count(), 1);
    }
}
