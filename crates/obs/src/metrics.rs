//! Atomic metric primitives and the registry that names them.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s handed
//! out by a [`Registry`]; the registry takes a lock only at
//! registration time, so steady-state updates are plain atomic
//! read-modify-writes with no allocation — cheap enough to leave on in
//! a request loop or inside the modelled secure world.
//!
//! Histograms use fixed power-of-two buckets over microseconds, which
//! spans sub-microsecond wire dispatch up to the ~217 ms modelled cost
//! of a 2048-bit TEE signature in one 32-bucket array. Quantiles come
//! from linear interpolation inside the bucket where the rank falls —
//! the usual fixed-bucket estimator (same shape as Prometheus
//! `histogram_quantile`).

use crate::json::{Json, ToJson};
use alidrone_geo::Duration;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets. Bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i)` microseconds; bucket 0 covers `[0, 1) µs`; the last
/// bucket absorbs everything larger (≈ 36 min and up).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

fn bucket_index(micros: u64) -> usize {
    // 0 → bucket 0; otherwise position of the highest set bit + 1,
    // clamped into the array.
    ((64 - micros.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The exclusive upper bound of bucket `i`, in microseconds — `None`
/// for the final catch-all bucket (+∞). Bucket 0 is `[0, 1)` µs,
/// bucket `i ≥ 1` is `[2^(i-1), 2^i)` µs. Exporters (Prometheus `le`
/// labels) use this to reconstruct the bucket boundaries.
pub fn bucket_upper_micros(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

impl Histogram {
    /// Records one observation, rounded to the nearest microsecond (a
    /// whole-µs duration such as `from_millis(0.009)` lands on 9 µs even
    /// when its `f64` seconds read 8.999… µs).
    ///
    /// Negative durations (possible when a simulated clock is rewound)
    /// clamp to zero rather than corrupt the distribution.
    pub fn record(&self, d: Duration) {
        let micros = (d.secs() * 1e6).max(0.0).round() as u64;
        self.record_micros(micros);
    }

    /// Records one observation given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time summary with interpolated quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum_micros = self.sum_micros.load(Ordering::Relaxed);
        let q = |p: f64| estimate_quantile(&buckets, count, p);
        HistogramSnapshot {
            count,
            sum_micros,
            p50_micros: q(0.50),
            p95_micros: q(0.95),
            p99_micros: q(0.99),
            buckets,
        }
    }
}

/// Quantile estimate from power-of-two buckets: walk to the bucket
/// containing the rank, then interpolate within its `[lo, hi)` range.
fn estimate_quantile(buckets: &[u64], count: u64, p: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = p * count as f64;
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let next = cumulative + n;
        if next as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = (1u64 << i) as f64;
            let within = ((rank - cumulative as f64) / n as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * within;
        }
        cumulative = next;
    }
    // Rank fell past the end (rounding); return the top of the last
    // occupied bucket.
    let last = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
    (1u64 << last) as f64
}

/// A frozen view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_micros: u64,
    /// Estimated median, microseconds.
    pub p50_micros: f64,
    /// Estimated 95th percentile, microseconds.
    pub p95_micros: f64,
    /// Estimated 99th percentile, microseconds.
    pub p99_micros: f64,
    /// Raw per-bucket counts (length [`HISTOGRAM_BUCKETS`]); bucket
    /// boundaries come from [`bucket_upper_micros`]. Exporters need
    /// the full distribution, not just the interpolated quantiles.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_millis(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Rebuilds a snapshot from raw per-bucket counts and a sum: the
    /// count is the bucket total and the quantiles are re-estimated
    /// with the same interpolation [`Histogram::snapshot`] uses.
    /// Exporters that parse the exposition format back (the soak
    /// sampler) and window-delta derivation both go through here so
    /// every snapshot's quantiles mean the same thing.
    pub fn from_buckets(buckets: Vec<u64>, sum_micros: u64) -> HistogramSnapshot {
        let count: u64 = buckets.iter().sum();
        let q = |p: f64| estimate_quantile(&buckets, count, p);
        HistogramSnapshot {
            count,
            sum_micros,
            p50_micros: q(0.50),
            p95_micros: q(0.95),
            p99_micros: q(0.99),
            buckets,
        }
    }

    /// The distribution observed *between* `earlier` and `self`:
    /// bucket-wise and sum-wise saturating subtraction, with the window
    /// quantiles re-estimated from the bucket deltas. This is what
    /// turns two cumulative scrapes into a per-window latency
    /// distribution.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        HistogramSnapshot::from_buckets(buckets, self.sum_micros.saturating_sub(earlier.sum_micros))
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum_ms", Json::Num(self.sum_micros as f64 / 1_000.0)),
            ("mean_ms", Json::Num(self.mean_millis())),
            ("p50_ms", Json::Num(self.p50_micros / 1_000.0)),
            ("p95_ms", Json::Num(self.p95_micros / 1_000.0)),
            ("p99_ms", Json::Num(self.p99_micros / 1_000.0)),
        ])
    }
}

/// Names metrics and hands out shared handles.
///
/// Registration is idempotent: asking twice for the same name returns
/// the same underlying metric, so independent components can share a
/// counter by name.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Gets or creates the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Gets or creates the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Everything the registry knew at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 when absent — reads like a fresh counter).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_directions() {
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::default();
        // 100 observations of ~1 ms, 5 of ~100 ms.
        for _ in 0..100 {
            h.record(Duration::from_millis(1.0));
        }
        for _ in 0..5 {
            h.record(Duration::from_millis(100.0));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 105);
        // p50 in the bucket containing 1000 µs: [512, 1024).
        assert!(s.p50_micros >= 512.0 && s.p50_micros <= 1024.0, "{s:?}");
        // p99 in the bucket containing 100_000 µs: [65536, 131072).
        assert!(
            s.p99_micros >= 65_536.0 && s.p99_micros <= 131_072.0,
            "{s:?}"
        );
        assert!((s.mean_millis() - (100.0 + 500.0) / 105.0).abs() < 0.2);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_micros, 0.0);
        assert_eq!(s.mean_millis(), 0.0);
    }

    #[test]
    fn negative_duration_clamps_to_zero() {
        let h = Histogram::default();
        h.record(Duration::from_secs(-1.0));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_micros, 0);
    }

    #[test]
    fn record_rounds_to_the_nearest_microsecond() {
        let h = Histogram::default();
        // 0.009 ms is 8.999999999999998 µs in f64; truncation read 8.
        h.record(Duration::from_millis(0.009));
        assert_eq!(h.snapshot().sum_micros, 9);
        // Every whole-µs duration up to 99.999 ms records exactly.
        let h = Histogram::default();
        let mut expected = 0u64;
        for us in 1..100_000u64 {
            h.record(Duration::from_millis(us as f64 / 1000.0));
            expected += us;
        }
        assert_eq!(h.snapshot().sum_micros, expected);
    }

    #[test]
    fn registry_reuses_handles_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x"), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("req.total").add(7);
        r.gauge("inflight").set(-2);
        r.histogram("lat").record(Duration::from_millis(3.0));
        let json = r.snapshot().to_json();
        let parsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("req.total")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .unwrap()
                .get("inflight")
                .unwrap()
                .as_f64(),
            Some(-2.0)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("lat")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn bucket_upper_bounds_are_exclusive() {
        // A value exactly at a bucket's upper bound must land in the
        // NEXT bucket: bucket 0 is [0, 1) µs, bucket i ≥ 1 is
        // [2^(i-1), 2^i) µs.
        let h = Histogram::default();
        h.record_micros(0); // bucket 0: [0, 1)
        h.record_micros(1); // == upper of bucket 0 → bucket 1
        h.record_micros(2); // == upper of bucket 1 → bucket 2
        h.record_micros(3); // inside bucket 2: [2, 4)
        h.record_micros(4); // == upper of bucket 2 → bucket 3
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[3], 1);
        // The boundary rule holds for every finite bucket upper bound.
        for i in 0..HISTOGRAM_BUCKETS {
            if let Some(upper) = bucket_upper_micros(i) {
                assert_eq!(bucket_index(upper), i + 1, "upper of bucket {i}");
                assert_eq!(
                    bucket_index(upper.saturating_sub(1)),
                    i,
                    "below upper of {i}"
                );
            }
        }
        // Huge values clamp into the final +Inf bucket instead of
        // indexing out of range.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn delta_since_yields_the_window_distribution() {
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(Duration::from_millis(1.0));
        }
        let first = h.snapshot();
        for _ in 0..5 {
            h.record(Duration::from_millis(100.0));
        }
        let second = h.snapshot();
        let window = second.delta_since(&first);
        assert_eq!(window.count, 5);
        assert_eq!(window.sum_micros, 500_000);
        // All 5 window observations are ~100 ms, so even the median
        // lands in the [65536, 131072) µs bucket.
        assert!(window.p50_micros >= 65_536.0 && window.p50_micros <= 131_072.0);
        // Degenerate window: nothing happened between two snapshots.
        let empty = second.delta_since(&second);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99_micros, 0.0);
    }

    #[test]
    fn from_buckets_matches_live_snapshot() {
        let h = Histogram::default();
        h.record_micros(3);
        h.record_micros(700);
        h.record_micros(70_000);
        let live = h.snapshot();
        let rebuilt = HistogramSnapshot::from_buckets(live.buckets.clone(), live.sum_micros);
        assert_eq!(rebuilt, live);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::new());
        let c = r.counter("hits");
        let h = r.histogram("lat");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.record_micros(10);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.snapshot().count, 4000);
    }
}
