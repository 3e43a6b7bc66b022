//! Structured events: levels, key-value fields, subscribers.
//!
//! An event is a timestamped message plus typed fields — the auditable
//! trail the paper's evaluation kept by hand (per-sample costs,
//! sampling-rate changes). Emission is pull-gated: the caller passes a
//! closure that builds fields, and the closure only runs when a
//! subscriber is installed, so the disabled path costs one atomic load
//! and never allocates.

use crate::json::{Json, ToJson};
use crate::span::SpanRecord;
use alidrone_geo::Timestamp;
use std::fmt;

/// Event severity, lowest to highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained tracing (per-sample decisions).
    Debug,
    /// Normal operational milestones.
    Info,
    /// Something suspicious but recoverable (malformed frame, fault injected).
    Warn,
    /// A failed operation.
    Error,
}

impl Level {
    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text (allocated only on the enabled path).
    Str(String),
}

impl Value {
    /// The unsigned payload, if that is what this is.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string payload, if that is what this is.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::Num(*v as f64),
            Value::I64(v) => Json::Num(*v as f64),
            Value::F64(v) => Json::Num(*v),
            Value::Bool(v) => Json::Bool(*v),
            Value::Str(v) => Json::Str(v.clone()),
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When it happened (sim or wall time, per the installed clock).
    pub time: Timestamp,
    /// Severity.
    pub level: Level,
    /// The emitting component, dotted-path style (`"wire.server"`).
    pub target: &'static str,
    /// Human-readable summary.
    pub message: &'static str,
    /// Typed key-value fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Field lookup by key (first match).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("t".to_string(), Json::Num(self.time.secs())),
            ("level".to_string(), Json::str(self.level.as_str())),
            ("target".to_string(), Json::str(self.target)),
            ("message".to_string(), Json::str(self.message)),
        ];
        if !self.fields.is_empty() {
            pairs.push((
                "fields".to_string(),
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(pairs)
    }
}

/// Accumulates fields for an event under construction.
///
/// Handed to the emit closure; `field` calls chain.
#[derive(Debug, Default)]
pub struct FieldSet {
    pub(crate) fields: Vec<(&'static str, Value)>,
}

impl FieldSet {
    /// Adds one field.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        self.fields.push((key, value.into()));
        self
    }
}

/// Receives every emitted event and completed traced span.
pub trait Subscriber: Send + Sync {
    /// Called once per event, in emission order per thread.
    fn on_event(&self, event: &Event);

    /// Called once per completed traced span (children before parents,
    /// in completion order). Default is a no-op, for event-only
    /// subscribers.
    fn on_span(&self, _span: &SpanRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(msg: &'static str, t: f64) -> Event {
        Event {
            time: Timestamp::from_secs(t),
            level: Level::Info,
            target: "test",
            message: msg,
            fields: vec![("n", Value::U64(1))],
        }
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::Warn.to_string(), "warn");
    }

    #[test]
    fn field_lookup() {
        let e = ev("y", 1.0);
        assert_eq!(e.field("n").unwrap().as_u64(), Some(1));
        assert!(e.field("missing").is_none());
    }

    #[test]
    fn event_json_shape() {
        let mut e = ev("rate_change", 12.5);
        e.fields.push(("d1_m", Value::F64(321.0)));
        let json = e.to_json();
        assert_eq!(json.get("t").unwrap().as_f64(), Some(12.5));
        assert_eq!(json.get("message").unwrap().as_str(), Some("rate_change"));
        assert_eq!(
            json.get("fields").unwrap().get("d1_m").unwrap().as_f64(),
            Some(321.0)
        );
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::from(3usize).as_u64(), Some(3));
        assert_eq!(Value::from(2u64).as_f64(), Some(2.0));
        assert_eq!(Value::from("zone").as_str(), Some("zone"));
        assert_eq!(Value::from(-4i64).as_f64(), Some(-4.0));
    }
}
