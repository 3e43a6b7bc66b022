//! A live introspection endpoint: the smallest HTTP server that can
//! answer a Prometheus scrape.
//!
//! The workspace is offline and std-only, so this is a hand-rolled
//! HTTP/1.0 GET handler over `std::net` — no routing table, no
//! keep-alive, one short-lived connection per scrape (exactly what
//! Prometheus and `curl` send). Two paths exist:
//!
//! * `GET /metrics` — [`prometheus_text`] of a live snapshot, plus the
//!   slowest-request exemplar gauges and the flight recorder's
//!   retained/dropped counts when those sources are mounted.
//! * `GET /dump` — a JSON flight-recorder view: the metrics snapshot,
//!   the recorder's retained spans/events, and the slowest-N exemplar
//!   table, all in one self-contained document.
//!
//! Anything else is answered `404`; non-GET methods get `405`. The
//! listener accepts on one background thread and serves each
//! connection on its own short-lived thread, so a slow scraper cannot
//! wedge a concurrent one (a soak runs a sampler *and* humans with
//! `curl` against the same port). The serve loop tolerates request
//! heads split across writes and answers pipelined requests in order,
//! each response carrying its own `Content-Length`. Shutdown stays
//! prompt via the same wake-connection trick the TCP front end uses.

use crate::export::prometheus_text;
use crate::json::{Json, ToJson};
use crate::recorder::FlightRecorder;
use crate::stage::SlowTable;
use crate::Obs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Bound on one scrape request head (we only need the request line).
const MAX_REQUEST_BYTES: usize = 4096;

/// Bound on requests answered over one pipelined connection.
const MAX_PIPELINED_REQUESTS: usize = 32;

/// Socket timeouts for scrape connections: a scraper that stalls this
/// long is dropped rather than wedging the listener thread.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on the shutdown wake-connection dial.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// What a [`ScrapeServer`] exposes: the metrics registry always, the
/// flight recorder and slowest-request table when mounted.
#[derive(Debug, Clone)]
pub struct ScrapeSources {
    obs: Obs,
    recorder: Option<Arc<FlightRecorder>>,
    slow: Option<Arc<SlowTable>>,
}

impl ScrapeSources {
    /// Sources exposing `obs`'s metrics only.
    pub fn new(obs: &Obs) -> ScrapeSources {
        ScrapeSources {
            obs: obs.clone(),
            recorder: None,
            slow: None,
        }
    }

    /// Also expose a flight recorder (retained spans/events in `/dump`,
    /// retained/dropped counts in `/metrics`).
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> ScrapeSources {
        self.recorder = Some(recorder);
        self
    }

    /// Also expose a slowest-request exemplar table.
    pub fn with_slow_table(mut self, slow: Arc<SlowTable>) -> ScrapeSources {
        self.slow = Some(slow);
        self
    }

    /// The `/metrics` body: live snapshot + exemplars + recorder counts.
    pub fn metrics_body(&self) -> String {
        let mut body = prometheus_text(&self.obs.snapshot());
        if let Some(slow) = &self.slow {
            body.push_str(&slow.prometheus_text("server.slowest_seconds"));
        }
        if let Some(rec) = &self.recorder {
            body.push_str(&recorder_prometheus(rec));
        }
        body
    }

    /// The `/dump` body: one JSON document for post-mortem tooling.
    pub fn dump_body(&self) -> String {
        Json::obj([
            ("metrics", self.obs.snapshot().to_json()),
            (
                "recorder",
                match &self.recorder {
                    Some(rec) => rec.dump().to_json(),
                    None => Json::Null,
                },
            ),
            (
                "slow_table",
                match &self.slow {
                    Some(slow) => slow.to_json(),
                    None => Json::Null,
                },
            ),
        ])
        .to_pretty()
    }
}

/// Renders a recorder's occupancy and drop counters as Prometheus
/// samples, making buffer-sizing visible to a live scrape.
fn recorder_prometheus(rec: &FlightRecorder) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    };
    counter(
        "flight_recorder_dropped_spans_total",
        "Spans evicted from the flight recorder to make room.",
        rec.dropped_spans(),
    );
    counter(
        "flight_recorder_dropped_events_total",
        "Events evicted from the flight recorder to make room.",
        rec.dropped_events(),
    );
    let mut gauge = |name: &str, help: &str, v: usize| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
        ));
    };
    gauge(
        "flight_recorder_spans",
        "Spans currently retained by the flight recorder.",
        rec.spans().len(),
    );
    gauge(
        "flight_recorder_events",
        "Events currently retained by the flight recorder.",
        rec.events().len(),
    );
    out
}

/// A live scrape endpoint bound to a local port.
///
/// Created with [`ScrapeServer::bind`]; serving starts immediately on a
/// background thread. Dropping the handle (or calling
/// [`shutdown`](ScrapeServer::shutdown)) stops the listener.
#[derive(Debug)]
pub struct ScrapeServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (port 0 for an OS-assigned port) and starts
    /// answering scrapes of `sources`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, sources: ScrapeSources) -> io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let thread_shutdown = Arc::clone(&shutdown);
        let thread = thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if thread_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // One short-lived thread per connection: scrapes
                    // are cheap reads, but a stalled client must not
                    // block a concurrent sampler. IO timeouts bound
                    // each thread's lifetime.
                    let conn_sources = sources.clone();
                    thread::spawn(move || {
                        let _ = serve_scrape(stream, &conn_sources);
                    });
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    if thread_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    thread::sleep(Duration::from_millis(10));
                }
            }
        });

        Ok(ScrapeServer {
            local_addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the listener and joins its thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; fall
        // back to plain loopback when the bound address is a wildcard.
        let woke = TcpStream::connect_timeout(&self.local_addr, WAKE_CONNECT_TIMEOUT)
            .or_else(|_| {
                TcpStream::connect_timeout(
                    &SocketAddr::from(([127, 0, 0, 1], self.local_addr.port())),
                    WAKE_CONNECT_TIMEOUT,
                )
            })
            .is_ok();
        if let Some(t) = self.thread.take() {
            if woke {
                let _ = t.join();
            }
            // Wake failed: leave the thread parked in accept; the OS
            // reclaims it at process exit. Joining would hang shutdown.
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Serves one connection: reads until request heads are complete
/// (tolerating heads split across writes), answers every buffered head
/// in order, and closes once the client stops pipelining (buffer
/// drained after at least one answer), hits EOF, or exceeds the
/// pipelining cap.
fn serve_scrape(mut stream: TcpStream, sources: &ScrapeSources) -> io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 1024];
    let mut served = 0usize;
    loop {
        let n = match stream.read(&mut tmp) {
            Ok(n) => n,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let eof = n == 0;
        buf.extend_from_slice(&tmp[..n]);

        // Drain every complete head currently buffered.
        let mut heads = Vec::new();
        while let Some(end) = head_end(&buf) {
            heads.push(String::from_utf8_lossy(&buf[..end]).into_owned());
            buf.drain(..end);
            if served + heads.len() >= MAX_PIPELINED_REQUESTS {
                break;
            }
        }
        // A head that can never complete within the cap is a bad
        // request; a trailing partial head at EOF is answered by
        // whatever its request line parses to.
        let oversized = heads.is_empty() && buf.len() >= MAX_REQUEST_BYTES;
        if (eof || oversized) && !buf.is_empty() {
            heads.push(String::from_utf8_lossy(&buf).into_owned());
            buf.clear();
        }
        let done = eof
            || oversized
            || (!heads.is_empty() && buf.is_empty())
            || served + heads.len() >= MAX_PIPELINED_REQUESTS;
        let total = heads.len();
        for (i, head) in heads.iter().enumerate() {
            let close = done && i + 1 == total;
            write_response(&mut stream, sources, head, close)?;
            served += 1;
        }
        if done {
            break;
        }
    }
    stream.flush()
}

/// The position just past the `\r\n\r\n` ending the first complete
/// request head in `buf`, if any.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Routes one request head and writes its response, always with an
/// exact `Content-Length` so pipelined clients can frame the stream.
fn write_response(
    stream: &mut TcpStream,
    sources: &ScrapeSources,
    head: &str,
    close: bool,
) -> io::Result<()> {
    let (status, content_type, body) = match parse_request_line(head) {
        Some(("GET", path)) => match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                sources.metrics_body(),
            ),
            "/dump" => ("200 OK", "application/json", sources.dump_body()),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        },
        Some((_, _)) => (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n".to_string(),
        ),
        None => ("400 Bad Request", "text/plain", "bad request\n".to_string()),
    };
    let connection = if close { "close" } else { "keep-alive" };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Splits `GET /path HTTP/1.x` into (method, path); query strings are
/// stripped so `/metrics?probe=1` still resolves.
fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let path = path.split('?').next().unwrap_or(path);
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::SlowExemplar;
    use crate::Level;

    /// A minimal HTTP GET client for the tests.
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
        (head.to_string(), body.to_string())
    }

    fn sources_with_everything() -> (Obs, Arc<FlightRecorder>, Arc<SlowTable>, ScrapeSources) {
        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(8));
        obs.set_subscriber(recorder.clone());
        let slow = Arc::new(SlowTable::new(4));
        let sources = ScrapeSources::new(&obs)
            .with_recorder(recorder.clone())
            .with_slow_table(slow.clone());
        (obs, recorder, slow, sources)
    }

    #[test]
    fn metrics_path_serves_live_prometheus_text() {
        let (obs, _rec, slow, sources) = sources_with_everything();
        obs.counter("server.requests").add(3);
        slow.offer(SlowExemplar {
            kind: "submit_poa".into(),
            total_micros: 1_234,
            queue_wait_micros: 0,
            stages: vec![("handle", 1_234)],
            trace_id: None,
            span_id: None,
        });
        let server = ScrapeServer::bind("127.0.0.1:0", sources).unwrap();
        let (head, body) = http_get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("server_requests_total 3"), "{body}");
        assert!(body.contains("server_slowest_seconds{rank=\"0\""), "{body}");
        assert!(
            body.contains("flight_recorder_dropped_spans_total 0"),
            "{body}"
        );

        // The scrape is live: bump a counter and scrape again.
        obs.counter("server.requests").add(4);
        let (_, body) = http_get(server.local_addr(), "/metrics");
        assert!(body.contains("server_requests_total 7"), "{body}");
        server.shutdown();
    }

    #[test]
    fn dump_path_serves_recorder_and_slow_table_json() {
        let (obs, _rec, _slow, sources) = sources_with_everything();
        obs.emit(Level::Warn, "wire", "malformed_frame", |f| {
            f.field("frame_len", 9u64);
        });
        obs.enter_span("server.submit_poa").finish();
        let server = ScrapeServer::bind("127.0.0.1:0", sources).unwrap();
        let (head, body) = http_get(server.local_addr(), "/dump");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let parsed = Json::parse(&body).unwrap();
        assert!(parsed.get("metrics").unwrap().get("counters").is_some());
        let recorder = parsed.get("recorder").unwrap();
        assert_eq!(
            recorder
                .get("spans")
                .unwrap()
                .at(0)
                .unwrap()
                .get("name")
                .unwrap()
                .as_str(),
            Some("server.submit_poa")
        );
        assert!(parsed.get("slow_table").unwrap().get("slowest").is_some());
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_get_typed_statuses() {
        let obs = Obs::noop();
        let server = ScrapeServer::bind("127.0.0.1:0", ScrapeSources::new(&obs)).unwrap();
        let (head, _) = http_get(server.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn query_strings_are_stripped() {
        let obs = Obs::noop();
        obs.counter("x").inc();
        let server = ScrapeServer::bind("127.0.0.1:0", ScrapeSources::new(&obs)).unwrap();
        let (head, body) = http_get(server.local_addr(), "/metrics?seed=1");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("x_total 1"), "{body}");
        server.shutdown();
    }

    /// Splits a raw byte stream of HTTP responses using each response's
    /// `Content-Length` to frame its body.
    fn split_responses(raw: &str) -> Vec<(String, String)> {
        let mut rest = raw;
        let mut out = Vec::new();
        while !rest.is_empty() {
            let (head, after) = rest.split_once("\r\n\r\n").expect("response head");
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("Content-Length header")
                .parse()
                .unwrap();
            out.push((head.to_string(), after[..len].to_string()));
            rest = &after[len..];
        }
        out
    }

    #[test]
    fn pipelined_requests_each_get_full_framed_responses() {
        let obs = Obs::noop();
        obs.counter("x").add(9);
        let server = ScrapeServer::bind("127.0.0.1:0", ScrapeSources::new(&obs)).unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(
                b"GET /metrics HTTP/1.0\r\nHost: a\r\n\r\nGET /metrics HTTP/1.0\r\nHost: b\r\n\r\n",
            )
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();

        let responses = split_responses(&raw);
        assert_eq!(responses.len(), 2, "{raw}");
        for (head, body) in &responses {
            assert!(head.starts_with("HTTP/1.0 200"), "{head}");
            assert!(body.contains("x_total 9"), "{body}");
        }
        // The stream framed exactly: nothing left over, final response
        // announces the close.
        assert!(responses[1].0.contains("Connection: close"));
        server.shutdown();
    }

    #[test]
    fn request_head_split_across_writes_is_tolerated() {
        let obs = Obs::noop();
        obs.counter("x").inc();
        let server = ScrapeServer::bind("127.0.0.1:0", ScrapeSources::new(&obs)).unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"GET /met").unwrap();
        stream.flush().unwrap();
        thread::sleep(Duration::from_millis(50));
        stream
            .write_all(b"rics HTTP/1.0\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(body.contains("x_total 1"), "{body}");
        server.shutdown();
    }

    #[test]
    fn concurrent_scrapes_get_consistent_full_bodies() {
        let obs = Obs::noop();
        obs.counter("soak.requests").inc();
        let server = Arc::new(ScrapeServer::bind("127.0.0.1:0", ScrapeSources::new(&obs)).unwrap());

        // A mutator keeps the registry moving mid-scrape, as a live
        // soak would.
        let stop = Arc::new(AtomicBool::new(false));
        let mutator = {
            let obs = obs.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let c = obs.counter("soak.requests");
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    obs.histogram("soak.latency").record_micros(250);
                }
            })
        };

        let clients: Vec<_> = (0..2)
            .map(|_| {
                let addr = server.local_addr();
                thread::spawn(move || {
                    for _ in 0..5 {
                        let (head, body) = http_get(addr, "/metrics");
                        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
                        let advertised: usize = head
                            .lines()
                            .find_map(|l| l.strip_prefix("Content-Length: "))
                            .expect("Content-Length header")
                            .parse()
                            .unwrap();
                        // The body is exactly as long as advertised and
                        // internally consistent Prometheus text.
                        assert_eq!(advertised, body.len());
                        assert!(body.contains("soak_requests_total"), "{body}");
                        assert!(body.ends_with('\n'), "truncated body");
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        mutator.join().unwrap();
        Arc::try_unwrap(server).unwrap().shutdown();
    }

    #[test]
    fn shutdown_is_prompt() {
        let obs = Obs::noop();
        let server = ScrapeServer::bind("127.0.0.1:0", ScrapeSources::new(&obs)).unwrap();
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}
