//! Hierarchical spans: the scopes a trace is built from.
//!
//! A [`Span`] covers the time between its creation and its drop (or
//! explicit [`finish`](Span::finish)) on the observability handle's
//! injected clock. While a subscriber is installed, spans from
//! [`Obs::enter_span`](crate::Obs::enter_span) and friends carry a
//! [`SpanContext`] — trace id, span id, optional parent — and report a
//! completed [`SpanRecord`] to the [`Subscriber`](crate::Subscriber)
//! when they end. With tracing disabled the same calls return untraced
//! spans that record nothing, so instrumentation left in hot paths
//! costs one atomic load and no allocation.
//!
//! Spans never feed histograms: the injected clock may be simulated
//! (or, under [`Obs::noop`](crate::Obs::noop), never move), so latency
//! histograms are timed with `std::time::Instant` at the call site.
//!
//! Parenting is automatic: the handle keeps a stack of live traced
//! spans, and a new traced span becomes a child of the stack top (or
//! the root of a fresh trace when the stack is empty). Remote parents —
//! a trace context carried over the wire — are attached explicitly via
//! [`Obs::span_with_remote_parent`](crate::Obs::span_with_remote_parent).

use crate::json::{Json, ToJson};
use crate::Obs;
use alidrone_geo::{Duration, Timestamp};

/// Identity of one span within one trace.
///
/// Ids are drawn from the handle's deterministic xorshift stream (see
/// [`Obs::seed_trace_ids`](crate::Obs::seed_trace_ids)); `trace_id` is
/// shared by every span of one causal chain, `parent_id` is `None` for
/// trace roots and for spans whose parent lives on the other side of
/// the wire (the remote parent's id is still recorded — see
/// [`SpanContext::parent_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Identifier shared by every span in one trace.
    pub trace_id: u128,
    /// This span's identifier (unique within the trace, never zero).
    pub span_id: u64,
    /// The parent span's id, `None` for trace roots.
    pub parent_id: Option<u64>,
}

impl SpanContext {
    /// The trace id as a 32-digit lowercase hex string (the wire/export
    /// form — u128s do not survive JSON's f64 numbers).
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// The span id as a 16-digit lowercase hex string.
    pub fn span_id_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }
}

/// A completed traced span, as delivered to
/// [`Subscriber::on_span`](crate::Subscriber::on_span).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span's operation name (`"server.submit_poa"`).
    pub name: &'static str,
    /// Trace/span/parent identity.
    pub context: SpanContext,
    /// When the span began (sim or wall time, per the installed clock).
    pub start: Timestamp,
    /// When the span ended.
    pub end: Timestamp,
}

impl SpanRecord {
    /// The span's total duration.
    pub fn duration(&self) -> Duration {
        self.end.since(self.start)
    }
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("trace_id", Json::Str(self.context.trace_id_hex())),
            ("span_id", Json::Str(self.context.span_id_hex())),
            (
                "parent_id",
                match self.context.parent_id {
                    Some(p) => Json::Str(format!("{p:016x}")),
                    None => Json::Null,
                },
            ),
            ("start_s", Json::Num(self.start.secs())),
            ("end_s", Json::Num(self.end.secs())),
        ])
    }
}

/// A scope of a trace; a traced span reports a [`SpanRecord`] when it
/// ends.
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    name: &'static str,
    context: Option<SpanContext>,
    start: Timestamp,
    finished: bool,
}

impl Span {
    pub(crate) fn build(obs: Obs, name: &'static str, context: Option<SpanContext>) -> Span {
        let start = obs.now();
        Span {
            obs,
            name,
            context,
            start,
            finished: false,
        }
    }

    /// When the span started.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// The span's operation name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The trace identity, when this span is traced (a subscriber was
    /// installed at creation). Use it to stamp the trace context onto
    /// wire frames.
    pub fn context(&self) -> Option<&SpanContext> {
        self.context.as_ref()
    }

    /// Time elapsed so far.
    pub fn elapsed(&self) -> Duration {
        self.obs.now().since(self.start)
    }

    /// Ends the span now and returns the recorded duration.
    pub fn finish(mut self) -> Duration {
        let end = self.obs.now();
        self.complete(end);
        end.since(self.start)
    }

    /// Ends the span with an explicitly *modelled* duration: the span
    /// is recorded as `[start, start + duration)` regardless of how
    /// much injected-clock time passed. Used where the cost is a model,
    /// not a measurement — e.g. the TEE's table-driven signing cost,
    /// which the simulation clock does not advance through.
    pub fn finish_with(mut self, duration: Duration) {
        let end = self.start + duration;
        self.complete(end);
    }

    /// Ends the span without recording anything (e.g. the operation
    /// was aborted and its latency would pollute the distribution). A
    /// traced span still leaves the live-span stack, but no
    /// [`SpanRecord`] is reported.
    pub fn cancel(mut self) {
        self.finished = true;
        if let Some(ctx) = self.context {
            self.obs.exit_span(ctx);
        }
    }

    fn complete(&mut self, end: Timestamp) {
        if self.finished {
            return;
        }
        self.finished = true;
        if let Some(ctx) = self.context {
            self.obs.exit_span(ctx);
            self.obs.deliver_span(&SpanRecord {
                name: self.name,
                context: ctx,
                start: self.start,
                end,
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = self.obs.now();
        self.complete(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::recorder::FlightRecorder;
    use std::sync::Arc;

    fn manual_obs() -> (Obs, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (Obs::new(clock.clone()), clock)
    }

    fn traced_obs() -> (Obs, Arc<ManualClock>, Arc<FlightRecorder>) {
        let (obs, clock) = manual_obs();
        let rec = Arc::new(FlightRecorder::new(16));
        obs.set_subscriber(rec.clone());
        (obs, clock, rec)
    }

    #[test]
    fn drop_reports_elapsed_time() {
        let (obs, clock, rec) = traced_obs();
        {
            let _span = obs.enter_span("op");
            clock.advance(Duration::from_millis(5.0));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert!((spans[0].duration().millis() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn finish_returns_duration_and_reports_once() {
        let (obs, clock, rec) = traced_obs();
        let span = obs.enter_span("op");
        clock.advance(Duration::from_secs(2.0));
        let d = span.finish();
        assert!((d.secs() - 2.0).abs() < 1e-9);
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn cancel_reports_nothing() {
        let (obs, clock, rec) = traced_obs();
        let span = obs.enter_span("op");
        clock.advance(Duration::from_secs(1.0));
        span.cancel();
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn elapsed_tracks_the_injected_clock() {
        let (obs, clock) = manual_obs();
        let span = obs.enter_span("op");
        assert_eq!(span.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_millis(300.0));
        assert!((span.elapsed().millis() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn untraced_span_has_no_context() {
        // Tracing entry points degrade to untraced without a subscriber.
        let (obs, _clock) = manual_obs();
        assert!(obs.enter_span("op.traced").context().is_none());
    }

    #[test]
    fn traced_spans_nest_via_the_stack() {
        let (obs, clock) = manual_obs();
        let rec = Arc::new(FlightRecorder::new(16));
        obs.set_subscriber(rec.clone());

        let root = obs.enter_span("root");
        let root_ctx = *root.context().unwrap();
        clock.advance(Duration::from_secs(1.0));
        let child = obs.enter_span("child");
        let child_ctx = *child.context().unwrap();
        clock.advance(Duration::from_secs(1.0));
        child.finish();
        root.finish();

        assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
        assert_eq!(child_ctx.parent_id, Some(root_ctx.span_id));
        assert_eq!(root_ctx.parent_id, None);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        // Children complete first.
        assert_eq!(spans[0].name, "child");
        assert!((spans[0].duration().secs() - 1.0).abs() < 1e-9);
        assert_eq!(spans[1].name, "root");
        assert!((spans[1].duration().secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sibling_spans_share_a_parent_and_trace() {
        let (obs, _clock) = manual_obs();
        let rec = Arc::new(FlightRecorder::new(16));
        obs.set_subscriber(rec.clone());
        let root = obs.enter_span("root");
        let a = obs.enter_span("a").context().copied().unwrap();
        // `a` finished (dropped) before `b` starts.
        let b = obs.enter_span("b").context().copied().unwrap();
        let root_ctx = *root.context().unwrap();
        assert_eq!(a.parent_id, Some(root_ctx.span_id));
        assert_eq!(b.parent_id, Some(root_ctx.span_id));
        assert_eq!(a.trace_id, root_ctx.trace_id);
        assert_eq!(b.trace_id, root_ctx.trace_id);
        assert_ne!(a.span_id, b.span_id);
    }

    #[test]
    fn finish_with_records_the_modelled_duration() {
        let (obs, _clock) = manual_obs();
        let rec = Arc::new(FlightRecorder::new(4));
        obs.set_subscriber(rec.clone());
        let span = obs.enter_span("tee.sign");
        // The manual clock never advances, but the modelled cost does.
        span.finish_with(Duration::from_millis(217.0));
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert!((spans[0].duration().millis() - 217.0).abs() < 1e-9);
    }

    #[test]
    fn cancelled_traced_span_leaves_the_stack() {
        let (obs, _clock) = manual_obs();
        let rec = Arc::new(FlightRecorder::new(4));
        obs.set_subscriber(rec.clone());
        let root = obs.enter_span("root");
        let root_id = root.context().unwrap().span_id;
        let child = obs.enter_span("child");
        child.cancel();
        // The cancelled child must not linger as the current parent.
        assert_eq!(obs.current_span().map(|c| c.span_id), Some(root_id));
        assert!(rec.spans().is_empty());
        root.finish();
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn remote_parent_attaches_to_the_wire_context() {
        let (obs, _clock) = manual_obs();
        let rec = Arc::new(FlightRecorder::new(4));
        obs.set_subscriber(rec.clone());
        let span = obs.span_with_remote_parent("server.handle", 0xABCD, 77);
        let ctx = *span.context().unwrap();
        assert_eq!(ctx.trace_id, 0xABCD);
        assert_eq!(ctx.parent_id, Some(77));
        // Children created while it is live join the remote trace.
        let child = obs.enter_span("auditor.verify");
        assert_eq!(child.context().unwrap().trace_id, 0xABCD);
        assert_eq!(child.context().unwrap().parent_id, Some(ctx.span_id));
    }

    #[test]
    fn hex_forms_are_fixed_width() {
        let ctx = SpanContext {
            trace_id: 0xF,
            span_id: 0x2,
            parent_id: None,
        };
        assert_eq!(ctx.trace_id_hex().len(), 32);
        assert_eq!(ctx.span_id_hex().len(), 16);
        assert!(ctx.trace_id_hex().ends_with('f'));
    }

    #[test]
    fn span_record_json_shape() {
        let rec = SpanRecord {
            name: "wire.submit_poa",
            context: SpanContext {
                trace_id: 1,
                span_id: 2,
                parent_id: Some(3),
            },
            start: Timestamp::from_secs(1.0),
            end: Timestamp::from_secs(2.5),
        };
        let json = Json::parse(&rec.to_json().to_compact()).unwrap();
        assert_eq!(json.get("name").unwrap().as_str(), Some("wire.submit_poa"));
        assert_eq!(
            json.get("parent_id").unwrap().as_str(),
            Some("0000000000000003")
        );
        assert_eq!(json.get("end_s").unwrap().as_f64(), Some(2.5));
    }
}
