//! A declarative SLO engine over windowed metric series.
//!
//! Rules ([`SloRule`]) are declared once against counter/histogram
//! *names* and evaluated window by window against a
//! [`SnapshotRing`]:
//!
//! * **Availability** — `(total − Σ bad) / total ≥ min_ratio` per
//!   window.
//! * **MaxRatio** — `Σ num / den ≤ max_ratio` per window (shed ratios,
//!   drop ratios).
//! * **P99Below** — the *window's* p99 (re-estimated from bucket
//!   deltas, not the cumulative histogram) stays under a deadline.
//! * **GaugeBelow** — the window's closing gauge value stays under a
//!   bound (replication lag, queue depths).
//! * **BurnRate** — the Google-SRE multi-window alert: with error
//!   budget `1 − target`, the burn rate is
//!   `(bad / total) / (1 − target)`; the rule breaches only when the
//!   burn exceeds `max_burn` over **both** the fast and the slow
//!   trailing window spans, so a single noisy window cannot page and a
//!   slow leak cannot hide.
//!
//! Evaluations update `slo.healthy.<name>` / `slo.value_milli.<name>`
//! gauges in the registry (so every `/metrics` scrape carries `slo_*`
//! samples), emit breach-transition events through the installed
//! subscriber, and return
//! the transitions as typed [`SloEvent`]s for machine-readable reports.
//!
//! Empty windows evaluate healthy: an SLO over `0/0` traffic is
//! vacuously met, which keeps idle phases from paging.

use crate::json::{Json, ToJson};
use crate::timeseries::{SeriesWindow, SnapshotRing};
use crate::{Level, Obs};
use alidrone_geo::Timestamp;

/// One declarative service-level objective.
#[derive(Debug, Clone)]
pub struct Slo {
    /// Stable identifier (used in gauge names, events and reports).
    pub name: String,
    /// The rule to evaluate.
    pub rule: SloRule,
}

impl Slo {
    /// A named SLO.
    pub fn new(name: impl Into<String>, rule: SloRule) -> Slo {
        Slo {
            name: name.into(),
            rule,
        }
    }
}

/// The rule shapes the engine evaluates (see module docs).
#[derive(Debug, Clone)]
pub enum SloRule {
    /// `(total − Σ bad) / total ≥ min_ratio` per window.
    Availability {
        /// Counter naming all attempts.
        total: String,
        /// Counters naming failed attempts (summed).
        bad: Vec<String>,
        /// Minimum acceptable good-ratio in `[0, 1]`.
        min_ratio: f64,
    },
    /// `Σ num / den ≤ max_ratio` per window.
    MaxRatio {
        /// Numerator counters (summed).
        num: Vec<String>,
        /// Denominator counter.
        den: String,
        /// Maximum acceptable ratio.
        max_ratio: f64,
    },
    /// The window's p99 of `histogram` stays at or under `max_micros`.
    P99Below {
        /// Histogram name.
        histogram: String,
        /// Deadline in microseconds.
        max_micros: f64,
    },
    /// The window's *closing* value of `gauge` stays at or under
    /// `max`. Level-triggered (replication lag, queue depths): a
    /// quiesced system must read at or under the bound at every window
    /// boundary; a missing gauge reads 0 and is healthy.
    GaugeBelow {
        /// Gauge name.
        gauge: String,
        /// Maximum acceptable closing value.
        max: i64,
    },
    /// Multi-window error-budget burn-rate alert.
    BurnRate {
        /// Counter naming all attempts.
        total: String,
        /// Counters naming failed attempts (summed).
        bad: Vec<String>,
        /// The SLO target in `[0, 1)`; the error budget is `1 − target`.
        target: f64,
        /// Trailing windows for the fast (paging) condition.
        fast_windows: usize,
        /// Trailing windows for the slow (confirming) condition.
        slow_windows: usize,
        /// Breach when both burn rates exceed this factor.
        max_burn: f64,
    },
}

/// The outcome of evaluating one SLO against one window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The SLO's name.
    pub name: String,
    /// Whether the objective held.
    pub healthy: bool,
    /// The measured value (ratio, p99 µs, or burn factor).
    pub value: f64,
    /// The bound the value was compared to.
    pub threshold: f64,
}

impl ToJson for SloStatus {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("healthy", Json::Bool(self.healthy)),
            ("value", Json::Num(self.value)),
            ("threshold", Json::Num(self.threshold)),
        ])
    }
}

/// What kind of transition an [`SloEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloEventKind {
    /// A rule went from healthy to breached.
    BreachStart,
    /// A rule recovered.
    BreachEnd,
    /// A burn-rate rule started breaching (the paging condition).
    BurnRateAlert,
}

impl SloEventKind {
    /// Stable lowercase label for exports and event messages.
    pub fn label(&self) -> &'static str {
        match self {
            SloEventKind::BreachStart => "breach_start",
            SloEventKind::BreachEnd => "breach_end",
            SloEventKind::BurnRateAlert => "burn_rate_alert",
        }
    }
}

/// A typed SLO state transition.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEvent {
    /// When the transition was observed (the closing window's end).
    pub time: Timestamp,
    /// The SLO that transitioned.
    pub slo: String,
    /// What happened.
    pub kind: SloEventKind,
    /// The measured value at transition.
    pub value: f64,
    /// The rule's bound.
    pub threshold: f64,
}

impl ToJson for SloEvent {
    fn to_json(&self) -> Json {
        Json::obj([
            ("time_secs", Json::Num(self.time.secs())),
            ("slo", Json::str(self.slo.clone())),
            ("kind", Json::str(self.kind.label())),
            ("value", Json::Num(self.value)),
            ("threshold", Json::Num(self.threshold)),
        ])
    }
}

/// Evaluates a fixed set of [`Slo`]s window by window, tracking breach
/// state and exporting `slo_*` gauges.
#[derive(Debug)]
pub struct SloEngine {
    obs: Obs,
    slos: Vec<Slo>,
    healthy: Vec<bool>,
}

impl SloEngine {
    /// An engine over `slos`, exporting gauges and events through
    /// `obs`. Every rule starts healthy.
    pub fn new(obs: &Obs, slos: Vec<Slo>) -> SloEngine {
        let n = slos.len();
        SloEngine {
            obs: obs.clone(),
            slos,
            healthy: vec![true; n],
        }
    }

    /// The declared rules.
    pub fn slos(&self) -> &[Slo] {
        &self.slos
    }

    /// Evaluates every rule against the ring's latest window (burn-rate
    /// rules read their trailing spans from the ring), updates the
    /// `slo_*` gauges, emits transition events to the subscriber, and
    /// returns the transitions.
    pub fn evaluate(&mut self, ring: &SnapshotRing) -> Vec<SloEvent> {
        let Some(window) = ring.latest() else {
            return Vec::new();
        };
        let at = window.end;
        let mut transitions = Vec::new();
        for i in 0..self.slos.len() {
            let slo = self.slos[i].clone();
            let status = eval_rule(&slo.name, &slo.rule, window, Some(ring));
            self.export_gauges(&status);
            if status.healthy != self.healthy[i] {
                let kind = match (&slo.rule, status.healthy) {
                    (_, true) => SloEventKind::BreachEnd,
                    (SloRule::BurnRate { .. }, false) => SloEventKind::BurnRateAlert,
                    (_, false) => SloEventKind::BreachStart,
                };
                let event = SloEvent {
                    time: at,
                    slo: slo.name.clone(),
                    kind,
                    value: status.value,
                    threshold: status.threshold,
                };
                self.emit(&event);
                transitions.push(event);
            }
            self.healthy[i] = status.healthy;
        }
        transitions
    }

    /// Evaluates every rule against one standalone window — phase
    /// verdicts in soak reports. Burn-rate rules treat the window as
    /// both their fast and slow span. No state, gauges or events are
    /// touched.
    pub fn verdicts_for(&self, window: &SeriesWindow) -> Vec<SloStatus> {
        self.slos
            .iter()
            .map(|slo| eval_rule(&slo.name, &slo.rule, window, None))
            .collect()
    }

    fn export_gauges(&self, status: &SloStatus) {
        self.obs
            .gauge(&format!("slo.healthy.{}", status.name))
            .set(i64::from(status.healthy));
        self.obs
            .gauge(&format!("slo.value_milli.{}", status.name))
            .set((status.value * 1000.0) as i64);
    }

    fn emit(&self, event: &SloEvent) {
        let level = match event.kind {
            SloEventKind::BreachEnd => Level::Info,
            _ => Level::Warn,
        };
        let message = match event.kind {
            SloEventKind::BreachStart => "slo_breach_start",
            SloEventKind::BreachEnd => "slo_breach_end",
            SloEventKind::BurnRateAlert => "slo_burn_rate_alert",
        };
        let (slo, value, threshold) = (event.slo.clone(), event.value, event.threshold);
        self.obs.emit(level, "slo", message, |f| {
            f.field("slo", slo.as_str());
            f.field("value", value);
            f.field("threshold", threshold);
        });
    }
}

/// Ratio of bad to total over a set of windows; `None` with no traffic.
fn burn_ratio<'a>(
    windows: impl Iterator<Item = &'a SeriesWindow>,
    total: &str,
    bad: &[String],
) -> Option<f64> {
    let mut requests = 0u64;
    let mut errors = 0u64;
    for w in windows {
        requests += w.counter_delta(total);
        errors += w.counter_sum(bad.iter().map(String::as_str));
    }
    if requests == 0 {
        None
    } else {
        Some(errors.min(requests) as f64 / requests as f64)
    }
}

fn eval_rule(
    name: &str,
    rule: &SloRule,
    window: &SeriesWindow,
    ring: Option<&SnapshotRing>,
) -> SloStatus {
    match rule {
        SloRule::Availability {
            total,
            bad,
            min_ratio,
        } => {
            let requests = window.counter_delta(total);
            let errors = window
                .counter_sum(bad.iter().map(String::as_str))
                .min(requests);
            let (value, healthy) = if requests == 0 {
                (1.0, true)
            } else {
                let ratio = (requests - errors) as f64 / requests as f64;
                (ratio, ratio >= *min_ratio)
            };
            SloStatus {
                name: name.to_string(),
                healthy,
                value,
                threshold: *min_ratio,
            }
        }
        SloRule::MaxRatio {
            num,
            den,
            max_ratio,
        } => {
            let denom = window.counter_delta(den);
            let numer = window.counter_sum(num.iter().map(String::as_str));
            let (value, healthy) = if denom == 0 {
                (0.0, true)
            } else {
                let ratio = numer as f64 / denom as f64;
                (ratio, ratio <= *max_ratio)
            };
            SloStatus {
                name: name.to_string(),
                healthy,
                value,
                threshold: *max_ratio,
            }
        }
        SloRule::P99Below {
            histogram,
            max_micros,
        } => {
            let p99 = window.p99_micros(histogram);
            SloStatus {
                name: name.to_string(),
                healthy: p99 <= *max_micros,
                value: p99,
                threshold: *max_micros,
            }
        }
        SloRule::GaugeBelow { gauge, max } => {
            let value = window.gauge(gauge);
            SloStatus {
                name: name.to_string(),
                healthy: value <= *max,
                value: value as f64,
                threshold: *max as f64,
            }
        }
        SloRule::BurnRate {
            total,
            bad,
            target,
            fast_windows,
            slow_windows,
            max_burn,
        } => {
            let budget = (1.0 - target).max(f64::EPSILON);
            let (fast, slow) = match ring {
                Some(ring) => (
                    burn_ratio(ring.recent(*fast_windows), total, bad),
                    burn_ratio(ring.recent(*slow_windows), total, bad),
                ),
                // Standalone (phase) evaluation: the one window is both
                // spans.
                None => {
                    let r = burn_ratio(std::iter::once(window), total, bad);
                    (r, r)
                }
            };
            let fast_burn = fast.map_or(0.0, |r| r / budget);
            let slow_burn = slow.map_or(0.0, |r| r / budget);
            // The alert fires only when both spans agree; the reported
            // value is the binding (smaller) burn.
            let value = fast_burn.min(slow_burn);
            SloStatus {
                name: name.to_string(),
                healthy: !(fast_burn > *max_burn && slow_burn > *max_burn),
                value,
                threshold: *max_burn,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::FlightRecorder;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn snap(counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn slos() -> Vec<Slo> {
        vec![
            Slo::new(
                "availability",
                SloRule::Availability {
                    total: "req".into(),
                    bad: vec!["err".into()],
                    min_ratio: 0.99,
                },
            ),
            Slo::new(
                "shed",
                SloRule::MaxRatio {
                    num: vec!["shed".into()],
                    den: "req".into(),
                    max_ratio: 0.05,
                },
            ),
            Slo::new(
                "burn",
                SloRule::BurnRate {
                    total: "req".into(),
                    bad: vec!["err".into()],
                    target: 0.99,
                    fast_windows: 2,
                    slow_windows: 4,
                    max_burn: 10.0,
                },
            ),
        ]
    }

    /// The `slo.healthy.*` gauges `evaluate` exported, in rule-name
    /// order.
    fn healthy_gauges(obs: &Obs) -> Vec<i64> {
        obs.snapshot()
            .gauges
            .iter()
            .filter(|(name, _)| name.starts_with("slo.healthy."))
            .map(|(_, &v)| v)
            .collect()
    }

    fn feed(ring: &mut SnapshotRing, t: f64, req: u64, err: u64, shed: u64) {
        ring.observe(
            Timestamp::from_secs(t),
            snap(&[("req", req), ("err", err), ("shed", shed)]),
        );
    }

    #[test]
    fn healthy_traffic_stays_healthy_and_empty_windows_are_vacuous() {
        let obs = Obs::noop();
        let mut engine = SloEngine::new(&obs, slos());
        let mut ring = SnapshotRing::new(16);
        feed(&mut ring, 0.0, 0, 0, 0);
        feed(&mut ring, 1.0, 100, 0, 1);
        assert!(engine.evaluate(&ring).is_empty());
        assert_eq!(healthy_gauges(&obs), [1, 1, 1]);
        // An idle window: no traffic, vacuously healthy.
        feed(&mut ring, 2.0, 100, 0, 1);
        assert!(engine.evaluate(&ring).is_empty());
        assert_eq!(healthy_gauges(&obs), [1, 1, 1]);
    }

    #[test]
    fn breaches_transition_once_and_recover() {
        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(16));
        obs.set_subscriber(recorder.clone());
        let mut engine = SloEngine::new(&obs, slos());
        let mut ring = SnapshotRing::new(16);
        feed(&mut ring, 0.0, 0, 0, 0);
        feed(&mut ring, 1.0, 100, 0, 0);
        engine.evaluate(&ring);

        // 40% errors: availability and (eventually) burn rate breach.
        feed(&mut ring, 2.0, 200, 40, 0);
        let events = engine.evaluate(&ring);
        assert!(events
            .iter()
            .any(|e| e.slo == "availability" && e.kind == SloEventKind::BreachStart));
        // Same state next window: no duplicate transition.
        feed(&mut ring, 3.0, 300, 80, 0);
        let again = engine.evaluate(&ring);
        assert!(!again
            .iter()
            .any(|e| e.slo == "availability" && e.kind == SloEventKind::BreachStart));

        // Recovery.
        feed(&mut ring, 4.0, 400, 80, 0);
        let recovered = engine.evaluate(&ring);
        assert!(recovered
            .iter()
            .any(|e| e.slo == "availability" && e.kind == SloEventKind::BreachEnd));

        // Transitions reached the subscriber too.
        assert!(recorder
            .events()
            .iter()
            .any(|e| e.message == "slo_breach_start"));
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        let obs = Obs::noop();
        let mut engine = SloEngine::new(&obs, slos());
        let mut ring = SnapshotRing::new(16);
        feed(&mut ring, 0.0, 0, 0, 0);
        // Three clean windows, then one terrible one: the fast span
        // (last 2 windows) burns hot but the slow span (last 4) still
        // includes enough clean traffic that, once diluted, the burn
        // stays under the factor — no alert on the first bad window.
        feed(&mut ring, 1.0, 1000, 0, 0);
        feed(&mut ring, 2.0, 2000, 0, 0);
        feed(&mut ring, 3.0, 3000, 0, 0);
        engine.evaluate(&ring);
        feed(&mut ring, 4.0, 3400, 160, 0);
        engine.evaluate(&ring);
        // fast = 160/1400 / 0.01 ≈ 11.4 > 10, slow = 160/3400 / 0.01 ≈
        // 4.7 < 10 → still healthy.
        assert_eq!(obs.snapshot().gauges["slo.healthy.burn"], 1);

        // Sustained errors: both spans exceed the factor → alert.
        feed(&mut ring, 5.0, 3800, 320, 0);
        let events = engine.evaluate(&ring);
        assert!(events
            .iter()
            .any(|e| e.slo == "burn" && e.kind == SloEventKind::BurnRateAlert));
    }

    #[test]
    fn gauges_are_exported_for_scrapes() {
        let obs = Obs::noop();
        let mut engine = SloEngine::new(&obs, slos());
        let mut ring = SnapshotRing::new(4);
        feed(&mut ring, 0.0, 0, 0, 0);
        feed(&mut ring, 1.0, 100, 20, 0);
        engine.evaluate(&ring);
        let snap = obs.snapshot();
        assert_eq!(snap.gauges["slo.healthy.availability"], 0);
        assert_eq!(snap.gauges["slo.healthy.shed"], 1);
        assert_eq!(snap.gauges["slo.value_milli.availability"], 800);
        let text = crate::export::prometheus_text(&snap);
        assert!(text.contains("slo_healthy_availability 0"), "{text}");
    }

    #[test]
    fn gauge_rule_checks_closing_level() {
        let obs = Obs::noop();
        let mut engine = SloEngine::new(
            &obs,
            vec![Slo::new(
                "repl_lag",
                SloRule::GaugeBelow {
                    gauge: "repl.lag_bytes".into(),
                    max: 0,
                },
            )],
        );
        let gsnap = |lag: i64| MetricsSnapshot {
            counters: BTreeMap::new(),
            gauges: [("repl.lag_bytes".to_string(), lag)].into(),
            histograms: BTreeMap::new(),
        };
        let mut ring = SnapshotRing::new(8);
        ring.observe(Timestamp::from_secs(0.0), gsnap(0));
        ring.observe(Timestamp::from_secs(1.0), gsnap(0));
        assert!(engine.evaluate(&ring).is_empty());
        // A window closing with lag breaches...
        ring.observe(Timestamp::from_secs(2.0), gsnap(512));
        let events = engine.evaluate(&ring);
        assert!(events
            .iter()
            .any(|e| e.slo == "repl_lag" && e.kind == SloEventKind::BreachStart));
        // ...and recovers once the close reads 0 again (quiesced).
        ring.observe(Timestamp::from_secs(3.0), gsnap(0));
        let events = engine.evaluate(&ring);
        assert!(events
            .iter()
            .any(|e| e.slo == "repl_lag" && e.kind == SloEventKind::BreachEnd));
        // Standalone phase verdicts see the same closing level.
        let window = SeriesWindow::between(
            Timestamp::from_secs(0.0),
            &gsnap(0),
            Timestamp::from_secs(1.0),
            &gsnap(3),
        );
        let verdicts = engine.verdicts_for(&window);
        assert!(!verdicts[0].healthy);
        assert!((verdicts[0].value - 3.0).abs() < 1e-9);
    }

    #[test]
    fn standalone_verdicts_judge_one_window() {
        let obs = Obs::noop();
        let engine = SloEngine::new(&obs, slos());
        let window = SeriesWindow::between(
            Timestamp::from_secs(0.0),
            &snap(&[("req", 0), ("err", 0), ("shed", 0)]),
            Timestamp::from_secs(10.0),
            &snap(&[("req", 1000), ("err", 300), ("shed", 10)]),
        );
        let verdicts = engine.verdicts_for(&window);
        assert_eq!(verdicts.len(), 3);
        let avail = verdicts.iter().find(|s| s.name == "availability").unwrap();
        assert!(!avail.healthy);
        assert!((avail.value - 0.7).abs() < 1e-9);
        let shed = verdicts.iter().find(|s| s.name == "shed").unwrap();
        assert!(shed.healthy);
    }
}
