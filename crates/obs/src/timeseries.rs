//! Windowed time-series over metrics snapshots.
//!
//! End-of-run snapshot totals answer "how much", not "when". This
//! module turns periodic [`MetricsSnapshot`]s — taken in-process or
//! parsed back from a `/metrics` scrape — into a bounded ring of
//! [`SeriesWindow`]s: per-window counter deltas (hence rates), gauge
//! readings, and per-window latency distributions rebuilt from
//! histogram bucket deltas (hence per-window quantiles). Any counter or
//! histogram in the registry becomes a rate-over-time series with no
//! external dependencies.
//!
//! Time is injected: [`SnapshotRing::observe`] takes the timestamp from
//! the caller, and the [`SnapshotRing::sample`] convenience reads the
//! [`Obs`] handle's clock — simulated time under `SimClock`, wall time
//! in a live soak.
//!
//! # Reconciliation
//!
//! The ring preserves an exact accounting identity even after eviction:
//! for every counter,
//!
//! ```text
//! first observed value + evicted deltas + retained window deltas
//!     == last observed value
//! ```
//!
//! [`SnapshotRing::reconcile_all`] checks this for every counter in the
//! latest snapshot; the fleet soak report uses it to prove its
//! per-window series add up to the server's final counters.

use crate::json::{Json, ToJson};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::Obs;
use alidrone_geo::Timestamp;
use std::collections::{BTreeMap, VecDeque};

/// One closed window of metric activity: everything that happened
/// between two consecutive snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindow {
    /// When the window opened (the earlier snapshot's time).
    pub start: Timestamp,
    /// When the window closed (the later snapshot's time).
    pub end: Timestamp,
    /// Counter increments inside the window.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings at the window's close (gauges are point-in-time,
    /// so a window carries the closing value, not a delta).
    pub gauges: BTreeMap<String, i64>,
    /// Per-window latency distributions: bucket deltas with quantiles
    /// re-estimated over just this window's observations.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl SeriesWindow {
    /// Builds the window between two cumulative snapshots. Counters
    /// subtract (saturating — a restarted registry reads as zero
    /// activity, never underflow); histograms subtract bucket-wise via
    /// [`HistogramSnapshot::delta_since`]; gauges carry the closing
    /// value.
    pub fn between(
        start: Timestamp,
        earlier: &MetricsSnapshot,
        end: Timestamp,
        later: &MetricsSnapshot,
    ) -> SeriesWindow {
        let counters = later
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), v.saturating_sub(earlier.counter(name))))
            .collect();
        let histograms = later
            .histograms
            .iter()
            .map(|(name, h)| {
                let delta = match earlier.histogram(name) {
                    Some(prev) => h.delta_since(prev),
                    None => h.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        SeriesWindow {
            start,
            end,
            counters,
            gauges: later.gauges.clone(),
            histograms,
        }
    }

    /// Window length in seconds (clamped at zero).
    pub fn duration_secs(&self) -> f64 {
        (self.end.secs() - self.start.secs()).max(0.0)
    }

    /// The counter's increment inside this window (0 when absent).
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of several counters' increments — error and shed families
    /// are split across names.
    pub fn counter_sum<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> u64 {
        names.into_iter().map(|n| self.counter_delta(n)).sum()
    }

    /// The counter's rate over this window, per second (0 for a
    /// zero-length window).
    pub fn rate(&self, name: &str) -> f64 {
        let secs = self.duration_secs();
        if secs <= 0.0 {
            0.0
        } else {
            self.counter_delta(name) as f64 / secs
        }
    }

    /// The gauge's value at this window's *close* (0 when absent) —
    /// gauges are levels, not flows, so the boundary reading is the
    /// window's value.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// This window's latency distribution for `name`, if observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// This window's p99 for `name`, microseconds (0 when the
    /// histogram is absent or saw nothing this window).
    pub fn p99_micros(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.p99_micros)
    }
}

impl ToJson for SeriesWindow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("start_secs", Json::Num(self.start.secs())),
            ("end_secs", Json::Num(self.end.secs())),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One counter's accounting check: does the series add up to the final
/// counter?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterReconciliation {
    /// The counter name.
    pub name: String,
    /// First observed value + evicted deltas + retained window deltas.
    pub series_total: u64,
    /// The last observed cumulative value.
    pub expected: u64,
}

impl CounterReconciliation {
    /// `true` when the series reconciles exactly.
    pub fn ok(&self) -> bool {
        self.series_total == self.expected
    }
}

impl ToJson for CounterReconciliation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("series_total", Json::Num(self.series_total as f64)),
            ("final", Json::Num(self.expected as f64)),
            ("ok", Json::Bool(self.ok())),
        ])
    }
}

/// A bounded ring of snapshot-delta windows.
///
/// Feed it cumulative snapshots with [`observe`](SnapshotRing::observe)
/// (or [`sample`](SnapshotRing::sample)); each pair of consecutive
/// snapshots closes one [`SeriesWindow`]. When the ring is full the
/// oldest window is evicted, but its counter deltas are folded into an
/// evicted-total map so [`reconcile_all`](SnapshotRing::reconcile_all)
/// stays exact over the whole run.
#[derive(Debug, Clone)]
pub struct SnapshotRing {
    cap: usize,
    windows: VecDeque<SeriesWindow>,
    first: Option<(Timestamp, MetricsSnapshot)>,
    last: Option<(Timestamp, MetricsSnapshot)>,
    evicted_windows: u64,
    evicted_counters: BTreeMap<String, u64>,
}

impl SnapshotRing {
    /// A ring retaining at most `cap` windows (`cap` is clamped to at
    /// least 1).
    pub fn new(cap: usize) -> SnapshotRing {
        SnapshotRing {
            cap: cap.max(1),
            windows: VecDeque::new(),
            first: None,
            last: None,
            evicted_windows: 0,
            evicted_counters: BTreeMap::new(),
        }
    }

    /// Feeds one cumulative snapshot taken at `t`. The first call sets
    /// the baseline; every later call closes a window against the
    /// previous snapshot.
    pub fn observe(&mut self, t: Timestamp, snapshot: MetricsSnapshot) {
        match self.last.take() {
            None => {
                self.first = Some((t, snapshot.clone()));
                self.last = Some((t, snapshot));
            }
            Some((prev_t, prev)) => {
                let window = SeriesWindow::between(prev_t, &prev, t, &snapshot);
                if self.windows.len() == self.cap {
                    if let Some(evicted) = self.windows.pop_front() {
                        self.evicted_windows += 1;
                        for (name, delta) in evicted.counters {
                            *self.evicted_counters.entry(name).or_insert(0) += delta;
                        }
                    }
                }
                self.windows.push_back(window);
                self.last = Some((t, snapshot));
            }
        }
    }

    /// Snapshots `obs` at its own clock's current time and feeds the
    /// result — simulated time under a `SimClock` bridge, wall time on
    /// a live server.
    pub fn sample(&mut self, obs: &Obs) {
        self.observe(obs.now(), obs.snapshot());
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &SeriesWindow> {
        self.windows.iter()
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&SeriesWindow> {
        self.windows.back()
    }

    /// The last `n` windows, oldest first.
    pub fn recent(&self, n: usize) -> impl Iterator<Item = &SeriesWindow> {
        self.windows
            .iter()
            .skip(self.windows.len().saturating_sub(n))
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` before any window has closed.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted to honour the capacity bound.
    pub fn evicted_windows(&self) -> u64 {
        self.evicted_windows
    }

    /// The first observed cumulative snapshot (the baseline), if any.
    pub fn first(&self) -> Option<&(Timestamp, MetricsSnapshot)> {
        self.first.as_ref()
    }

    /// The latest observed cumulative snapshot, if any.
    pub fn last(&self) -> Option<&(Timestamp, MetricsSnapshot)> {
        self.last.as_ref()
    }

    /// `(window end, delta)` for one counter over the retained windows.
    pub fn counter_series(&self, name: &str) -> Vec<(Timestamp, u64)> {
        self.windows
            .iter()
            .map(|w| (w.end, w.counter_delta(name)))
            .collect()
    }

    /// The accounting check for one counter (see module docs).
    pub fn reconcile_counter(&self, name: &str) -> CounterReconciliation {
        let base = self.first.as_ref().map_or(0, |(_, s)| s.counter(name));
        let evicted = self.evicted_counters.get(name).copied().unwrap_or(0);
        let retained: u64 = self.windows.iter().map(|w| w.counter_delta(name)).sum();
        let expected = self.last.as_ref().map_or(0, |(_, s)| s.counter(name));
        CounterReconciliation {
            name: name.to_string(),
            series_total: base + evicted + retained,
            expected,
        }
    }

    /// The accounting check for every counter in the latest snapshot.
    pub fn reconcile_all(&self) -> Vec<CounterReconciliation> {
        let Some((_, last)) = &self.last else {
            return Vec::new();
        };
        last.counters
            .keys()
            .map(|name| self.reconcile_counter(name))
            .collect()
    }
}

impl ToJson for SnapshotRing {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cap", Json::Num(self.cap as f64)),
            ("evicted_windows", Json::Num(self.evicted_windows as f64)),
            (
                "first_secs",
                match &self.first {
                    Some((t, _)) => Json::Num(t.secs()),
                    None => Json::Null,
                },
            ),
            (
                "last_secs",
                match &self.last {
                    Some((t, _)) => Json::Num(t.secs()),
                    None => Json::Null,
                },
            ),
            (
                "windows",
                Json::Arr(self.windows.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use alidrone_geo::Duration;
    use std::sync::Arc;

    fn snap(counters: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn windows_carry_deltas_and_rates() {
        let mut ring = SnapshotRing::new(8);
        ring.observe(Timestamp::from_secs(0.0), snap(&[("req", 10)]));
        ring.observe(Timestamp::from_secs(2.0), snap(&[("req", 16)]));
        assert_eq!(ring.len(), 1);
        let w = ring.latest().unwrap();
        assert_eq!(w.counter_delta("req"), 6);
        assert_eq!(w.rate("req"), 3.0);
        assert_eq!(w.counter_delta("absent"), 0);
        assert_eq!(
            ring.counter_series("req"),
            vec![(Timestamp::from_secs(2.0), 6)]
        );
    }

    #[test]
    fn eviction_preserves_exact_reconciliation() {
        let mut ring = SnapshotRing::new(2);
        for i in 0..=10u64 {
            ring.observe(
                Timestamp::from_secs(i as f64),
                snap(&[("req", 100 + i * 7)]),
            );
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted_windows(), 8);
        let rec = ring.reconcile_counter("req");
        assert!(rec.ok(), "{rec:?}");
        assert_eq!(rec.expected, 170);
        for rec in ring.reconcile_all() {
            assert!(rec.ok(), "{rec:?}");
        }
    }

    #[test]
    fn counters_appearing_mid_stream_still_reconcile() {
        let mut ring = SnapshotRing::new(4);
        ring.observe(Timestamp::from_secs(0.0), snap(&[("a", 1)]));
        ring.observe(Timestamp::from_secs(1.0), snap(&[("a", 2), ("late", 5)]));
        ring.observe(Timestamp::from_secs(2.0), snap(&[("a", 3), ("late", 9)]));
        for rec in ring.reconcile_all() {
            assert!(rec.ok(), "{rec:?}");
        }
        assert_eq!(
            ring.counter_series("late"),
            vec![
                (Timestamp::from_secs(1.0), 5),
                (Timestamp::from_secs(2.0), 4),
            ]
        );
    }

    #[test]
    fn histogram_windows_get_their_own_quantiles() {
        let obs = Obs::noop();
        let h = obs.histogram("lat");
        let mut ring = SnapshotRing::new(8);
        for _ in 0..50 {
            h.record(Duration::from_millis(1.0));
        }
        ring.observe(Timestamp::from_secs(0.0), obs.snapshot());
        for _ in 0..10 {
            h.record(Duration::from_millis(200.0));
        }
        ring.observe(Timestamp::from_secs(1.0), obs.snapshot());
        // The cumulative p99 would be dominated by the 50 fast
        // observations; the *window* p99 sees only the slow ones.
        let w = ring.latest().unwrap();
        let win = w.histogram("lat").unwrap();
        assert_eq!(win.count, 10);
        assert!(win.p50_micros >= 131_072.0, "{win:?}");
        assert!(w.p99_micros("lat") >= 131_072.0);
        assert_eq!(w.p99_micros("absent"), 0.0);
    }

    #[test]
    fn sample_reads_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::new(clock.clone());
        obs.counter("c").inc();
        let mut ring = SnapshotRing::new(4);
        clock.set(Timestamp::from_secs(5.0));
        ring.sample(&obs);
        obs.counter("c").add(3);
        clock.set(Timestamp::from_secs(8.0));
        ring.sample(&obs);
        let w = ring.latest().unwrap();
        assert_eq!(w.start.secs(), 5.0);
        assert_eq!(w.end.secs(), 8.0);
        assert_eq!(w.counter_delta("c"), 3);
        assert_eq!(w.rate("c"), 1.0);
    }

    #[test]
    fn empty_and_single_observation_edges() {
        let mut ring = SnapshotRing::new(4);
        assert!(ring.is_empty());
        assert!(ring.reconcile_all().is_empty());
        assert!(ring.latest().is_none());
        ring.observe(Timestamp::from_secs(0.0), snap(&[("x", 9)]));
        // One observation = a baseline, no window yet — but the
        // degenerate reconciliation already holds.
        assert!(ring.is_empty());
        let rec = ring.reconcile_counter("x");
        assert!(rec.ok());
        assert_eq!(rec.expected, 9);
    }

    #[test]
    fn json_export_round_trips() {
        let mut ring = SnapshotRing::new(4);
        ring.observe(Timestamp::from_secs(0.0), snap(&[("req", 0)]));
        ring.observe(Timestamp::from_secs(1.0), snap(&[("req", 4)]));
        let doc = Json::parse(&ring.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("evicted_windows").unwrap().as_u64(), Some(0));
        let w = doc.get("windows").unwrap().at(0).unwrap();
        assert_eq!(
            w.get("counters").unwrap().get("req").unwrap().as_u64(),
            Some(4)
        );
    }
}
