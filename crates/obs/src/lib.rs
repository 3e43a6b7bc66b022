//! Hand-rolled observability for the AliDrone reproduction.
//!
//! The paper's evaluation (Table II costs, Figs. 6–8 sampling
//! behaviour) is an observability exercise the prototype performed by
//! hand. This crate makes that first-class: a metrics registry of
//! atomic [`Counter`]s / [`Gauge`]s / [`Histogram`]s, traced
//! [`Span`]s, and structured [`Event`]s with levels and typed fields —
//! all std-only, like the rest of the workspace's from-scratch stack
//! (the build environment has no crates.io access).
//!
//! # Design
//!
//! Everything hangs off a cheaply-cloneable [`Obs`] handle:
//!
//! * **Metrics** are pre-registered by name; the registry locks only at
//!   registration, so steady-state updates are single atomic RMWs.
//! * **Time is injected** via the [`Clock`] trait. The simulator passes
//!   an adapter over its `SimClock`, so spans and events are stamped
//!   in *simulated* time; benchmarks and real servers use
//!   [`WallClock`]. Paper-modelled costs (world switches, signatures)
//!   are recorded directly into histograms from the TEE cost model.
//! * **Spans trace; they never feed histograms.** A span's times come
//!   from the injected clock, which under a simulation (or the
//!   never-moving clock of [`Obs::noop`]) says nothing about how long
//!   the work took. Latency histograms are fed at the call site from
//!   `std::time::Instant`, next to the span that traces the same work.
//! * **Events are pull-gated**: [`Obs::emit`] takes a closure that
//!   builds fields, and only runs it when a subscriber is installed.
//!   The disabled path is one atomic load — no allocation, no
//!   formatting (a test enforces this with a counting allocator).
//! * **Export** is the hand-rolled [`Json`] document model, shared with
//!   the sim's figure exporter.
//!
//! # Example
//!
//! ```
//! use alidrone_obs::{FlightRecorder, Level, Obs};
//! use alidrone_geo::Duration;
//! use std::sync::Arc;
//!
//! let obs = Obs::wall();
//! let requests = obs.counter("server.requests");
//! let latency = obs.histogram("server.latency");
//!
//! let recorder = Arc::new(FlightRecorder::new(64));
//! obs.set_subscriber(recorder.clone());
//!
//! requests.inc();
//! latency.record(Duration::from_millis(1.5));
//! obs.emit(Level::Info, "server", "request_done", |f| {
//!     f.field("code", 200u64);
//! });
//!
//! assert_eq!(obs.snapshot().counter("server.requests"), 1);
//! assert_eq!(recorder.events()[0].field("code").unwrap().as_u64(), Some(200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod scrape;
pub mod slo;
mod span;
pub mod stage;
pub mod timeseries;

pub use clock::{Clock, ManualClock, WallClock};
pub use event::{Event, FieldSet, Level, Subscriber, Value};
pub use export::{
    chrome_trace, escape_label_value, parse_prometheus_text, prometheus_text, sanitize_metric_name,
};
pub use json::{Json, JsonError, ToJson};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use recorder::{FlightRecorder, RecorderDump};
pub use scrape::{ScrapeServer, ScrapeSources};
pub use slo::{Slo, SloEngine, SloEvent, SloEventKind, SloRule, SloStatus};
pub use span::{Span, SpanContext, SpanRecord};
pub use stage::{SlowExemplar, SlowTable, StageTimer};
pub use timeseries::{CounterReconciliation, SeriesWindow, SnapshotRing};

use alidrone_crypto::rng::{Rng, XorShift64};
use alidrone_geo::Timestamp;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Default seed for the trace/span id stream. Deterministic on purpose:
/// two runs of the same simulation produce the same ids, so traces can
/// be diffed. Override per-handle with [`Obs::seed_trace_ids`].
const DEFAULT_TRACE_SEED: u64 = 0xA11D_0E7A_CE1D_5EED;

struct ObsInner {
    clock: Arc<dyn Clock>,
    registry: Registry,
    has_subscriber: AtomicBool,
    subscriber: Mutex<Option<Arc<dyn Subscriber>>>,
    /// Deterministic id stream for traces and spans.
    trace_ids: Mutex<XorShift64>,
    /// Live traced spans, innermost last. New traced spans parent on
    /// the top. The workspace drives one logical flow per handle
    /// (simulation and request loops are synchronous), so a per-handle
    /// stack is the honest model; a multi-threaded server would move
    /// this to thread-local storage.
    span_stack: Mutex<Vec<SpanContext>>,
}

/// The shared observability handle.
///
/// Clone freely — clones share one registry, clock, and subscriber
/// slot. Components accept an `Obs` at construction and pre-register
/// the handles they will update.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("subscribed", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// An observability handle reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Obs {
        Obs {
            inner: Arc::new(ObsInner {
                clock,
                registry: Registry::new(),
                has_subscriber: AtomicBool::new(false),
                subscriber: Mutex::new(None),
                trace_ids: Mutex::new(XorShift64::seed_from_u64(DEFAULT_TRACE_SEED)),
                span_stack: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A handle on wall time.
    pub fn wall() -> Obs {
        Obs::new(Arc::new(WallClock::new()))
    }

    /// A do-nothing-visible handle: metrics still count (atomics are
    /// cheaper than a branch worth caring about) but no subscriber is
    /// installed, so `emit` closures never run. The default for
    /// components constructed without explicit instrumentation.
    pub fn noop() -> Obs {
        Obs::new(Arc::new(ManualClock::new()))
    }

    /// The injected clock's current time.
    pub fn now(&self) -> Timestamp {
        self.inner.clock.now()
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Gets or creates a named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.inner.registry.counter(name)
    }

    /// Gets or creates a named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.inner.registry.gauge(name)
    }

    /// Gets or creates a named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.inner.registry.histogram(name)
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Installs the subscriber that will receive events (replacing any
    /// previous one).
    pub fn set_subscriber(&self, sub: Arc<dyn Subscriber>) {
        *self.inner.subscriber.lock().unwrap() = Some(sub);
        self.inner.has_subscriber.store(true, Ordering::Release);
    }

    /// Removes the subscriber; subsequent `emit` calls revert to the
    /// zero-allocation disabled path.
    pub fn clear_subscriber(&self) {
        self.inner.has_subscriber.store(false, Ordering::Release);
        *self.inner.subscriber.lock().unwrap() = None;
    }

    /// `true` when a subscriber is installed.
    pub fn enabled(&self) -> bool {
        self.inner.has_subscriber.load(Ordering::Acquire)
    }

    /// Emits a structured event.
    ///
    /// `fields` runs only when a subscriber is installed — when none
    /// is, the whole call is one atomic load.
    pub fn emit(
        &self,
        level: Level,
        target: &'static str,
        message: &'static str,
        fields: impl FnOnce(&mut FieldSet),
    ) {
        if !self.enabled() {
            return;
        }
        let mut set = FieldSet::default();
        fields(&mut set);
        let event = Event {
            time: self.now(),
            level,
            target,
            message,
            fields: set.fields,
        };
        if let Some(sub) = self.inner.subscriber.lock().unwrap().as_ref() {
            sub.on_event(&event);
        }
    }

    /// Reseeds the deterministic trace/span id stream.
    ///
    /// Ids default to a fixed seed so repeated simulations produce
    /// identical traces; inject a different seed to make independent
    /// handles draw disjoint id streams.
    pub fn seed_trace_ids(&self, seed: u64) {
        *self.inner.trace_ids.lock().unwrap() = XorShift64::seed_from_u64(seed);
    }

    /// Starts a traced span named `name`, parented on the innermost
    /// live traced span (or rooting a fresh trace when there is none).
    ///
    /// Tracing is subscriber-gated like [`emit`](Obs::emit): without a
    /// subscriber this returns an untraced span — one atomic load, no
    /// ids drawn, nothing reported — so the call is safe on hot paths.
    pub fn enter_span(&self, name: &'static str) -> Span {
        Span::build(self.clone(), name, self.make_context(None))
    }

    /// Starts a traced span whose parent arrived from elsewhere — the
    /// wire envelope's `(trace_id, span_id)` pair. The new span joins
    /// that trace as a child of `parent_span_id` and becomes the
    /// current parent for spans opened while it is live.
    pub fn span_with_remote_parent(
        &self,
        name: &'static str,
        trace_id: u128,
        parent_span_id: u64,
    ) -> Span {
        Span::build(
            self.clone(),
            name,
            self.make_context(Some((trace_id, Some(parent_span_id)))),
        )
    }

    /// Starts a traced span explicitly parented on `parent` (which may
    /// be a span that has already finished — e.g. a wire submission
    /// parented under the completed flight span). With `None` this is
    /// [`enter_span`](Obs::enter_span).
    pub fn span_with_parent(&self, name: &'static str, parent: Option<&SpanContext>) -> Span {
        match parent {
            Some(p) => self.span_with_remote_parent(name, p.trace_id, p.span_id),
            None => self.enter_span(name),
        }
    }

    /// The innermost live traced span, if any.
    pub fn current_span(&self) -> Option<SpanContext> {
        self.inner.span_stack.lock().unwrap().last().copied()
    }

    /// Builds and pushes a context for a new traced span, or returns
    /// `None` (untraced) when no subscriber is installed. `explicit`
    /// overrides the stack-derived parent with `(trace_id, parent_id)`.
    fn make_context(&self, explicit: Option<(u128, Option<u64>)>) -> Option<SpanContext> {
        if !self.enabled() {
            return None;
        }
        let (trace_id, parent_id) = match explicit {
            Some(pair) => pair,
            None => match self.current_span() {
                Some(parent) => (parent.trace_id, Some(parent.span_id)),
                None => (self.next_trace_id(), None),
            },
        };
        let ctx = SpanContext {
            trace_id,
            span_id: self.next_span_id(),
            parent_id,
        };
        self.inner.span_stack.lock().unwrap().push(ctx);
        Some(ctx)
    }

    fn next_span_id(&self) -> u64 {
        let mut rng = self.inner.trace_ids.lock().unwrap();
        loop {
            let id = rng.next_u64();
            if id != 0 {
                return id;
            }
        }
    }

    fn next_trace_id(&self) -> u128 {
        let mut rng = self.inner.trace_ids.lock().unwrap();
        loop {
            let id = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            if id != 0 {
                return id;
            }
        }
    }

    /// Removes a finished traced span from the live stack. Pops by id,
    /// not position, so out-of-order drops cannot corrupt the stack.
    pub(crate) fn exit_span(&self, ctx: SpanContext) {
        let mut stack = self.inner.span_stack.lock().unwrap();
        if let Some(pos) = stack.iter().rposition(|c| c.span_id == ctx.span_id) {
            stack.remove(pos);
        }
    }

    /// Hands a completed span to the subscriber, if one is installed.
    pub(crate) fn deliver_span(&self, record: &SpanRecord) {
        if !self.enabled() {
            return;
        }
        if let Some(sub) = self.inner.subscriber.lock().unwrap().as_ref() {
            sub.on_span(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alidrone_geo::Duration;

    #[test]
    fn emit_without_subscriber_runs_no_closure() {
        let obs = Obs::noop();
        let mut ran = false;
        obs.emit(Level::Info, "t", "m", |_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn emit_with_subscriber_delivers_fields_and_time() {
        let clock = Arc::new(ManualClock::new());
        clock.set(Timestamp::from_secs(42.0));
        let obs = Obs::new(clock);
        let recorder = Arc::new(FlightRecorder::new(4));
        obs.set_subscriber(recorder.clone());
        obs.emit(Level::Warn, "wire", "malformed_frame", |f| {
            f.field("frame_len", 3u64);
        });
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time.secs(), 42.0);
        assert_eq!(events[0].level, Level::Warn);
        assert_eq!(events[0].field("frame_len").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn clear_subscriber_restores_disabled_path() {
        let obs = Obs::wall();
        let recorder = Arc::new(FlightRecorder::new(4));
        obs.set_subscriber(recorder.clone());
        obs.emit(Level::Info, "t", "a", |_| {});
        obs.clear_subscriber();
        obs.emit(Level::Info, "t", "b", |_| {});
        assert_eq!(recorder.events().len(), 1);
        assert!(!obs.enabled());
    }

    #[test]
    fn clones_share_registry_and_subscriber() {
        let obs = Obs::noop();
        let other = obs.clone();
        obs.counter("shared").inc();
        assert_eq!(other.snapshot().counter("shared"), 1);
        let recorder = Arc::new(FlightRecorder::new(4));
        other.set_subscriber(recorder.clone());
        obs.emit(Level::Debug, "t", "via_original", |_| {});
        assert_eq!(recorder.events().len(), 1);
    }

    #[test]
    fn span_through_obs_records_sim_time() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::new(clock.clone());
        let recorder = Arc::new(FlightRecorder::new(4));
        obs.set_subscriber(recorder.clone());
        let span = obs.enter_span("flight.step");
        clock.advance(Duration::from_secs(1.5));
        drop(span);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 1);
        assert!((spans[0].duration().secs() - 1.5).abs() < 1e-9);
    }
}
