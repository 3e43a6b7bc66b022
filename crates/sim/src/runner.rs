//! Executes a scenario under a sampling strategy against the full stack
//! (simulated receiver → TEE → sampler → PoA).

use std::sync::Arc;

use alidrone_core::sampling::{self};
use alidrone_core::{run_flight_with_hook, FlightRecord, ProtocolError, SamplingStrategy};
use alidrone_crypto::rsa::RsaPrivateKey;
use alidrone_geo::Timestamp;
use alidrone_gps::{SimClock, SimulatedReceiver};
use alidrone_obs::{Event, FlightRecorder, MetricsSnapshot, Obs, SpanContext, SpanRecord};
use alidrone_tee::{CostLedger, CostModel, SecureWorldBuilder, TeeClient, GPS_SAMPLER_UUID};

use crate::scenarios::Scenario;

// `sampling` is re-exported so experiment binaries can reach policies
// without an extra dependency edge.
pub use sampling::SamplingPolicy;

/// Bridges the simulator's [`SimClock`] into the observability
/// [`Clock`](alidrone_obs::Clock) trait, so events and spans recorded
/// during a scenario are stamped in *simulated* time.
#[derive(Debug, Clone)]
pub struct SimClockBridge(pub SimClock);

impl alidrone_obs::Clock for SimClockBridge {
    fn now(&self) -> alidrone_geo::Timestamp {
        self.0.now()
    }
}

/// Events retained per scenario run (a long fixed-rate flight can emit
/// thousands; the recorder keeps the most recent ones and counts drops).
const EVENT_CAPACITY: usize = 4096;

/// Completed spans retained by the run's flight recorder (a 1 Hz
/// fixed-rate flight completes ~1300 sample/sign spans; keep them all).
const SPAN_CAPACITY: usize = 8192;

/// Sim-time spacing between periodic metrics snapshots in
/// [`ScenarioRun::timeline`]. Sixty sim-seconds keeps even a multi-hour
/// soak's timeline small while still resolving rate changes.
const TIMELINE_INTERVAL_SECS: f64 = 60.0;

/// The output of one scenario execution.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The flight record (PoA + per-update events).
    pub record: FlightRecord,
    /// The TEE cost ledger accumulated during the run.
    pub ledger: CostLedger,
    /// Number of insufficient PoA pairs (Fig. 8(c) counter) against the
    /// scenario's zones.
    pub insufficient_pairs: usize,
    /// The TEE client (for signature verification in callers).
    pub tee: TeeClient,
    /// Metric totals at the end of the flight (world switches,
    /// signature counts by key size, sampler decisions, modelled cost
    /// histograms).
    pub metrics: MetricsSnapshot,
    /// Structured events captured during the flight, stamped in sim
    /// time (most recent `EVENT_CAPACITY`).
    pub events: Vec<Event>,
    /// The live observability handle the run used. Share it with e.g.
    /// an [`AuditorServer`](alidrone_core::wire::server::AuditorServer)
    /// to accumulate wire metrics in the same registry, then
    /// re-snapshot.
    pub obs: Obs,
    /// The flight recorder that subscribed for the whole run; it stays
    /// subscribed (through [`ScenarioRun::obs`]) so submission spans
    /// recorded after the flight land in the same recorder.
    pub recorder: Arc<FlightRecorder>,
    /// Spans completed *during* the flight (the recorder keeps
    /// accumulating afterwards; see [`ScenarioRun::recorder`]).
    pub spans: Vec<SpanRecord>,
    /// The root `flight` span's context, for parenting post-flight work
    /// into the same trace via
    /// [`AuditorClient::set_trace_parent`](alidrone_core::wire::transport::AuditorClient::set_trace_parent).
    pub flight_span: Option<SpanContext>,
    /// Periodic metrics snapshots taken on *sim* time (one roughly
    /// every `TIMELINE_INTERVAL_SECS` of flight, starting at the
    /// first step). Unlike the single end-of-run [`metrics`] total,
    /// consecutive deltas here show rate-over-time across a long soak;
    /// see [`ScenarioRun::counter_timeline`].
    ///
    /// [`metrics`]: ScenarioRun::metrics
    pub timeline: Vec<(Timestamp, MetricsSnapshot)>,
}

impl ScenarioRun {
    /// Authenticated samples recorded.
    pub fn sample_count(&self) -> usize {
        self.record.sample_count()
    }

    /// Per-interval deltas of counter `name` across the run: each entry
    /// is `(interval_end_time, increment_since_previous_snapshot)`,
    /// closed by a final interval from the last periodic snapshot to the
    /// end-of-run [`metrics`](ScenarioRun::metrics) total. Summing the
    /// deltas reproduces the final counter value exactly.
    pub fn counter_timeline(&self, name: &str) -> Vec<(Timestamp, u64)> {
        let mut out = Vec::with_capacity(self.timeline.len() + 1);
        let mut prev = 0u64;
        for (t, snap) in &self.timeline {
            let v = snap.counter(name);
            out.push((*t, v.saturating_sub(prev)));
            prev = v;
        }
        let end = self.record.window_end;
        out.push((end, self.metrics.counter(name).saturating_sub(prev)));
        out
    }
}

/// Runs `scenario` under `strategy`, signing with `sign_key` and
/// accounting costs with `cost_model`.
///
/// The run instruments the whole stack: a fresh [`Obs`] on the
/// scenario's sim clock collects TEE and sampler metrics plus
/// structured events, returned in [`ScenarioRun::metrics`] /
/// [`ScenarioRun::events`].
///
/// # Errors
///
/// Propagates TEE construction and flight errors.
pub fn run_scenario(
    scenario: &Scenario,
    strategy: SamplingStrategy,
    sign_key: RsaPrivateKey,
    cost_model: CostModel,
) -> Result<ScenarioRun, ProtocolError> {
    let clock = SimClock::new();
    let obs = Obs::new(Arc::new(SimClockBridge(clock.clone())));
    let recorder = Arc::new(FlightRecorder::with_capacities(
        SPAN_CAPACITY,
        EVENT_CAPACITY,
    ));
    obs.set_subscriber(recorder.clone());

    let mut receiver = SimulatedReceiver::from_trajectory(
        scenario.trajectory.clone(),
        clock.clone(),
        scenario.hw_rate_hz,
    );
    for &k in &scenario.dropouts {
        receiver.drop_update(k);
    }
    let receiver = Arc::new(receiver);

    let world = SecureWorldBuilder::new()
        .with_sign_key(sign_key)
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_cost_model(cost_model)
        .with_obs(&obs)
        .build()?;
    let tee = world.client();
    let ledger = world.ledger();

    let session = tee.open_session(GPS_SAMPLER_UUID)?;
    // The root span of the run's trace: every `drone.sample` (and the
    // `tee.sign` under it) nests here, and callers can parent
    // post-flight submission spans to it via `flight_span`.
    let flight_root = obs.enter_span("flight");
    let flight_span = flight_root.context().copied();
    // Periodic snapshots on sim time: a soak's rate-over-time series,
    // not just end-of-run totals.
    let mut timeline: Vec<(Timestamp, MetricsSnapshot)> = Vec::new();
    let record = run_flight_with_hook(
        &clock,
        receiver.as_ref(),
        &session,
        &scenario.zones,
        strategy,
        scenario.duration,
        &obs,
        &mut |t| {
            let due = timeline
                .last()
                .is_none_or(|(last, _)| t.secs() - last.secs() >= TIMELINE_INTERVAL_SECS);
            if due {
                timeline.push((t, obs.snapshot()));
            }
        },
    );
    flight_root.finish();
    let record = record?;

    let insufficient_pairs = alidrone_geo::sufficiency::count_insufficient_pairs(
        &record.poa.alibi(),
        &scenario.zones,
        alidrone_geo::FAA_MAX_SPEED,
    );

    Ok(ScenarioRun {
        record,
        ledger,
        insufficient_pairs,
        tee,
        metrics: obs.snapshot(),
        events: recorder.events(),
        obs,
        spans: recorder.spans(),
        recorder,
        flight_span,
        timeline,
    })
}

/// A cached 512-bit signing key for fast experiment runs where the key
/// size only matters through the cost model.
pub fn experiment_key() -> RsaPrivateKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        use alidrone_crypto::rng::XorShift64;
        let mut rng = XorShift64::seed_from_u64(0x51D);
        RsaPrivateKey::generate(512, &mut rng)
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{airport, residential};

    #[test]
    fn airport_adaptive_vs_fixed_shape() {
        // Fig. 6's headline: 1 Hz fixed collects ~649 samples, adaptive
        // collects ~14 (an order-of-magnitude-plus gap with the same
        // sufficiency).
        let s = airport();
        let fixed = run_scenario(
            &s,
            SamplingStrategy::FixedRate(1.0),
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        let adaptive = run_scenario(
            &s,
            SamplingStrategy::Adaptive,
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        assert!(
            (fixed.sample_count() as i64 - 649).abs() <= 2,
            "fixed 1 Hz collected {}",
            fixed.sample_count()
        );
        assert!(
            adaptive.sample_count() >= 8 && adaptive.sample_count() <= 30,
            "adaptive collected {}",
            adaptive.sample_count()
        );
        // Starting 30 ft from the boundary, the first pairs cannot be
        // sufficient at any rate ≤ 5 Hz (boundary-distance sum ≈ 26 m
        // against a 1 s budget of 44.7 m) — a geometric fact the paper
        // does not surface. Both strategies incur only those unavoidable
        // initial pairs and nothing else.
        assert!(
            fixed.insufficient_pairs <= 3,
            "fixed 1 Hz: {} insufficient",
            fixed.insufficient_pairs
        );
        assert!(
            adaptive.insufficient_pairs <= fixed.insufficient_pairs + 1,
            "adaptive {} vs fixed {}",
            adaptive.insufficient_pairs,
            fixed.insufficient_pairs
        );
    }

    #[test]
    fn residential_insufficiency_ordering() {
        // Fig. 8(c)'s shape: 2 Hz ≫ 3 Hz ≫ 5 Hz ≈ adaptive ≥ 1 (the
        // dropout) with absolute paper values 39 / 9 / ~1 / 1.
        let s = residential();
        let run = |strategy| {
            run_scenario(&s, strategy, experiment_key(), CostModel::free())
                .unwrap()
                .insufficient_pairs
        };
        let c2 = run(SamplingStrategy::FixedRate(2.0));
        let c3 = run(SamplingStrategy::FixedRate(3.0));
        let c5 = run(SamplingStrategy::FixedRate(5.0));
        let ca = run(SamplingStrategy::Adaptive);
        assert!(c2 > c3, "2 Hz {c2} vs 3 Hz {c3}");
        assert!(c3 > c5, "3 Hz {c3} vs 5 Hz {c5}");
        assert!(ca <= c5 + 1, "adaptive {ca} vs 5 Hz {c5}");
        assert!(ca >= 1, "adaptive must show the dropout-induced pair");
        assert!(
            c2 >= 15,
            "2 Hz should produce tens of insufficient pairs, got {c2}"
        );
    }

    #[test]
    fn residential_adaptive_saves_samples_in_sparse_stretch() {
        let s = residential();
        let adaptive = run_scenario(
            &s,
            SamplingStrategy::Adaptive,
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        let five = run_scenario(
            &s,
            SamplingStrategy::FixedRate(5.0),
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        assert!(
            adaptive.sample_count() < five.sample_count(),
            "adaptive {} >= 5 Hz {}",
            adaptive.sample_count(),
            five.sample_count()
        );
    }

    #[test]
    fn ledger_counts_signatures() {
        let s = airport();
        let run = run_scenario(
            &s,
            SamplingStrategy::Adaptive,
            experiment_key(),
            CostModel::raspberry_pi_3(),
        )
        .unwrap();
        let snap = run.ledger.snapshot();
        assert_eq!(snap.signatures as usize, run.sample_count());
        assert!(snap.busy.secs() > 0.0);
    }

    #[test]
    fn scenario_run_carries_metrics_and_events() {
        let s = airport();
        let run = run_scenario(
            &s,
            SamplingStrategy::Adaptive,
            experiment_key(),
            CostModel::raspberry_pi_3(),
        )
        .unwrap();
        let ledger = run.ledger.snapshot();
        // The obs counters mirror the ledger.
        assert_eq!(
            run.metrics.counter("tee.world_switches"),
            ledger.world_switches
        );
        assert_eq!(run.metrics.counter("tee.signatures"), ledger.signatures);
        assert_eq!(
            run.metrics.counter("tee.signatures.rsa_512"),
            ledger.signatures
        );
        // Sampler decisions cover every fresh hardware update.
        let decisions = run.metrics.counter("sampler.decisions.sample")
            + run.metrics.counter("sampler.decisions.skip");
        assert!(decisions > 0);
        assert_eq!(
            run.metrics.counter("sampler.decisions.sample") as usize,
            // The landing anchor is recorded outside the policy.
            run.sample_count() - 1,
        );
        // Rate-change events are stamped in sim time and carry the
        // Algorithm 1 distance terms.
        let rate_changes: Vec<_> = run
            .events
            .iter()
            .filter(|e| e.message == "rate_change")
            .collect();
        assert!(!rate_changes.is_empty());
        for ev in &rate_changes {
            assert!(ev.field("d1_m").unwrap().as_f64().is_some());
            assert!(ev.field("d2_m").unwrap().as_f64().is_some());
            assert!(ev.time.secs() >= 0.0 && ev.time.secs() <= s.duration.secs());
        }
    }

    #[test]
    fn timeline_snapshots_resolve_rate_over_time() {
        let s = airport();
        let run = run_scenario(
            &s,
            SamplingStrategy::FixedRate(1.0),
            experiment_key(),
            CostModel::raspberry_pi_3(),
        )
        .unwrap();
        // One snapshot per TIMELINE_INTERVAL_SECS of sim time, plus the
        // initial one at the first step.
        let expected = (s.duration.secs() / TIMELINE_INTERVAL_SECS) as usize + 1;
        assert_eq!(
            run.timeline.len(),
            expected,
            "duration {}",
            s.duration.secs()
        );
        // Snapshots are stamped in sim time, strictly increasing, and
        // counters are monotone across them.
        for pair in run.timeline.windows(2) {
            assert!(pair[1].0.secs() > pair[0].0.secs());
            assert!(pair[1].1.counter("tee.signatures") >= pair[0].1.counter("tee.signatures"));
        }
        // Deltas reconstruct the end-of-run total exactly — the whole
        // point: a soak's rate-over-time, not just its total.
        let deltas = run.counter_timeline("tee.signatures");
        let total: u64 = deltas.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, run.metrics.counter("tee.signatures"));
        // A steady 1 Hz flight signs in every interval, so interior
        // deltas are non-zero.
        assert!(deltas[1..deltas.len() - 1].iter().all(|&(_, d)| d > 0));
    }

    #[test]
    fn timeline_counters_are_monotone_and_reconcile_for_every_counter() {
        let s = airport();
        let run = run_scenario(
            &s,
            SamplingStrategy::FixedRate(1.0),
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        // Cumulative snapshots never regress and never lose a counter.
        for pair in run.timeline.windows(2) {
            for (name, &v) in &pair[1].1.counters {
                assert!(v >= pair[0].1.counter(name), "{name} regressed");
            }
            for name in pair[0].1.counters.keys() {
                assert!(pair[1].1.counters.contains_key(name), "{name} vanished");
            }
        }
        // The end-of-run total dominates the last periodic snapshot.
        let (_, last) = run.timeline.last().unwrap();
        for (name, &v) in &last.counters {
            assert!(run.metrics.counter(name) >= v, "{name}");
        }
        // Every counter's window deltas sum to its final total, exactly.
        for name in run.metrics.counters.keys() {
            let sum: u64 = run.counter_timeline(name).iter().map(|&(_, d)| d).sum();
            assert_eq!(sum, run.metrics.counter(name), "{name}");
        }
    }

    #[test]
    fn counter_timeline_handles_single_and_empty_windows() {
        use alidrone_geo::trajectory::TrajectoryBuilder;
        use alidrone_geo::{Duration, GeoPoint, ZoneSet};
        // A 30 s hover: shorter than one timeline interval, so only the
        // initial snapshot exists.
        let trajectory = TrajectoryBuilder::start_at(GeoPoint::new(40.0, -88.0).unwrap())
            .pause(Duration::from_secs(60.0))
            .build()
            .unwrap();
        let s = crate::scenarios::Scenario {
            name: "tiny",
            trajectory,
            zones: ZoneSet::new(),
            hw_rate_hz: 1.0,
            dropouts: Vec::new(),
            duration: Duration::from_secs(30.0),
        };
        let run = run_scenario(
            &s,
            SamplingStrategy::FixedRate(1.0),
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        assert_eq!(run.timeline.len(), 1, "single initial snapshot");
        let deltas = run.counter_timeline("tee.signatures");
        assert_eq!(deltas.len(), 2, "initial interval + closing interval");
        let total: u64 = deltas.iter().map(|&(_, d)| d).sum();
        assert_eq!(total, run.metrics.counter("tee.signatures"));
        assert!(total > 0);
        // The closing interval ends exactly at the flight's end.
        assert_eq!(
            deltas.last().unwrap().0.secs(),
            run.record.window_end.secs()
        );

        // No periodic snapshot at all: the closing interval alone
        // carries the whole total.
        let mut bare = run.clone();
        bare.timeline.clear();
        let deltas = bare.counter_timeline("tee.signatures");
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].1, bare.metrics.counter("tee.signatures"));

        // A counter that never fired reconciles to zero everywhere.
        assert!(run
            .counter_timeline("no.such.counter")
            .iter()
            .all(|&(_, d)| d == 0));
    }

    #[test]
    fn poa_signatures_verify() {
        let s = residential();
        let run = run_scenario(
            &s,
            SamplingStrategy::Adaptive,
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        for e in run.record.poa.entries() {
            e.verify(&run.tee.tee_public_key()).unwrap();
        }
    }
}
