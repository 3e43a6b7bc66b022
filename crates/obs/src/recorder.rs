//! The flight recorder: a bounded black box of recent spans + events.
//!
//! Aviation flight recorders keep the last few minutes of telemetry so
//! a crash can be reconstructed after the fact. This is the same idea
//! for the PoA pipeline: a [`FlightRecorder`] subscribes to the
//! observability handle, retains the most recent N completed spans and
//! N events in ring buffers, and [`dump`](FlightRecorder::dump)s them
//! on demand — the auditor server triggers a dump automatically when a
//! malformed frame or error response crosses the wire, turning a
//! protocol failure into a self-contained crash report.

use crate::event::{Event, Subscriber};
use crate::json::{Json, ToJson};
use crate::span::SpanRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A bounded subscriber retaining the most recent spans and events.
#[derive(Debug)]
pub struct FlightRecorder {
    span_capacity: usize,
    event_capacity: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
    events: Mutex<VecDeque<Event>>,
    dropped_spans: AtomicU64,
    dropped_events: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` spans and `capacity`
    /// events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder::with_capacities(capacity, capacity)
    }

    /// A recorder with independent span and event bounds.
    pub fn with_capacities(span_capacity: usize, event_capacity: usize) -> Self {
        FlightRecorder {
            span_capacity: span_capacity.max(1),
            event_capacity: event_capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
            events: Mutex::new(VecDeque::new()),
            dropped_spans: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
        }
    }

    /// A copy of the retained spans, oldest first (completion order:
    /// children before their parents).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().iter().cloned().collect()
    }

    /// A copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// How many spans were evicted to make room.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    /// How many events were evicted to make room.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events.load(Ordering::Relaxed)
    }

    /// Freezes the recorder's current contents into a dump. The
    /// recorder keeps recording afterwards.
    pub fn dump(&self) -> RecorderDump {
        RecorderDump {
            spans: self.spans(),
            events: self.events(),
            dropped_spans: self.dropped_spans(),
            dropped_events: self.dropped_events(),
        }
    }
}

impl Subscriber for FlightRecorder {
    fn on_event(&self, event: &Event) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.event_capacity {
            q.pop_front();
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(event.clone());
    }

    fn on_span(&self, span: &SpanRecord) {
        let mut q = self.spans.lock().unwrap();
        if q.len() == self.span_capacity {
            q.pop_front();
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(span.clone());
    }
}

/// A frozen flight-recorder snapshot: the crash-dump format.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderDump {
    /// Retained completed spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Spans evicted before the dump.
    pub dropped_spans: u64,
    /// Events evicted before the dump.
    pub dropped_events: u64,
}

impl RecorderDump {
    /// `true` when the dump captured nothing at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }
}

impl ToJson for RecorderDump {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "spans",
                Json::Arr(self.spans.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "events",
                Json::Arr(self.events.iter().map(|e| e.to_json()).collect()),
            ),
            ("dropped_spans", Json::Num(self.dropped_spans as f64)),
            ("dropped_events", Json::Num(self.dropped_events as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanContext;
    use crate::{Level, Obs};
    use alidrone_geo::Timestamp;
    use std::sync::Arc;

    fn span(name: &'static str, id: u64) -> SpanRecord {
        SpanRecord {
            name,
            context: SpanContext {
                trace_id: 1,
                span_id: id,
                parent_id: None,
            },
            start: Timestamp::from_secs(0.0),
            end: Timestamp::from_secs(1.0),
        }
    }

    #[test]
    fn retains_the_most_recent_spans() {
        let rec = FlightRecorder::new(2);
        rec.on_span(&span("a", 1));
        rec.on_span(&span("b", 2));
        rec.on_span(&span("c", 3));
        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(rec.dropped_spans(), 1);
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn retains_the_most_recent_events() {
        let obs = Obs::noop();
        let rec = Arc::new(FlightRecorder::new(2));
        obs.set_subscriber(rec.clone());
        for message in ["a", "b", "c"] {
            obs.emit(Level::Info, "test", message, |_| {});
        }
        let messages: Vec<_> = rec.events().iter().map(|e| e.message).collect();
        assert_eq!(messages, vec!["b", "c"]);
        assert_eq!(rec.dropped_events(), 1);
        assert_eq!(rec.dropped_spans(), 0);
    }

    #[test]
    fn records_both_streams_through_an_obs_handle() {
        let obs = Obs::noop();
        let rec = Arc::new(FlightRecorder::new(8));
        obs.set_subscriber(rec.clone());
        obs.emit(Level::Warn, "wire", "malformed_frame", |f| {
            f.field("frame_len", 4u64);
        });
        obs.enter_span("server.submit_poa").finish();
        let dump = rec.dump();
        assert!(!dump.is_empty());
        assert_eq!(dump.events.len(), 1);
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.spans[0].name, "server.submit_poa");
    }

    #[test]
    fn dump_round_trips_through_json() {
        let rec = FlightRecorder::new(4);
        rec.on_span(&span("x", 9));
        let dump = rec.dump();
        let parsed = Json::parse(&dump.to_json().to_pretty()).unwrap();
        let spans = parsed.get("spans").unwrap();
        assert_eq!(
            spans.at(0).unwrap().get("name").unwrap().as_str(),
            Some("x")
        );
        assert_eq!(parsed.get("dropped_spans").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn dump_does_not_drain_the_recorder() {
        let rec = FlightRecorder::new(4);
        rec.on_span(&span("x", 1));
        let first = rec.dump();
        let second = rec.dump();
        assert_eq!(first, second);
        assert_eq!(rec.spans().len(), 1);
    }
}
