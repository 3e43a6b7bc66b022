//! Executes a scenario under a sampling strategy against the full stack
//! (simulated receiver → TEE → sampler → PoA).

use std::sync::Arc;

use alidrone_core::sampling::{self};
use alidrone_core::{run_flight_with_hook, FlightRecord, ProtocolError, SamplingStrategy};
use alidrone_crypto::rsa::RsaPrivateKey;
use alidrone_gps::{SimClock, SimulatedReceiver};
use alidrone_obs::{
    Event, FlightRecorder, MetricsSnapshot, Obs, SnapshotRing, SpanContext, SpanRecord,
};
use alidrone_tee::{CostModel, SecureWorldBuilder, TeeClient, GPS_SAMPLER_UUID};

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

/// Windows [`ScenarioRun::timeline`] retains: four hours of flight at
/// one window per `TIMELINE_INTERVAL_SECS`. Older windows are evicted
/// into the ring's exact reconciliation totals.
const TIMELINE_WINDOWS: usize = 240;

/// The output of one scenario execution.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The flight record (PoA + per-update events).
    pub record: FlightRecord,
    /// Number of insufficient PoA pairs (Fig. 8(c) counter) against the
    /// scenario's zones.
    pub insufficient_pairs: usize,
    /// The TEE client (for signature verification in callers).
    pub tee: TeeClient,
    /// Metric totals at the end of the flight (world switches,
    /// signature counts by key size, sampler decisions, modelled cost
    /// histograms — their sums add up to the modelled TEE busy time).
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
    /// Metric windows on *sim* time: the ring observes a snapshot at
    /// the first step, then roughly every `TIMELINE_INTERVAL_SECS` of
    /// flight, then the end-of-run [`metrics`] total at the flight's
    /// end. Unlike that single total, the windows' deltas show rate
    /// over time across a long soak, and
    /// [`SnapshotRing::reconcile_all`] proves they add up to it.
    ///
    /// [`metrics`]: ScenarioRun::metrics
    pub timeline: SnapshotRing,
}

impl ScenarioRun {
    /// Authenticated samples recorded.
    pub fn sample_count(&self) -> usize {
        self.record.sample_count()
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

    let session = tee.open_session(GPS_SAMPLER_UUID)?;
    // The root span of the run's trace: every `drone.sample` (and the
    // `tee.sign` under it) nests here, and callers can parent
    // post-flight submission spans to it via `flight_span`.
    let flight_root = obs.enter_span("flight");
    let flight_span = flight_root.context().copied();
    // Periodic snapshots on sim time: a soak's rate-over-time series,
    // not just end-of-run totals.
    let mut timeline = SnapshotRing::new(TIMELINE_WINDOWS);
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
                timeline.observe(t, obs.snapshot());
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
    let metrics = obs.snapshot();
    timeline.observe(record.window_end, metrics.clone());

    Ok(ScenarioRun {
        record,
        insufficient_pairs,
        tee,
        metrics,
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
    fn scenario_run_carries_metrics_and_events() {
        let s = airport();
        let run = run_scenario(
            &s,
            SamplingStrategy::Adaptive,
            experiment_key(),
            CostModel::raspberry_pi_3(),
        )
        .unwrap();
        // One signature per authenticated sample, two world switches per
        // SMC, and each modelled 512-bit signature (5.125 ms) recorded
        // once in the cost histogram.
        let signatures = run.metrics.counter("tee.signatures");
        assert_eq!(signatures as usize, run.sample_count());
        assert_eq!(run.metrics.counter("tee.signatures.rsa_512"), signatures);
        assert_eq!(
            run.metrics.counter("tee.world_switches"),
            2 * run.metrics.counter("tee.smc_invokes")
        );
        let sign = run.metrics.histogram("tee.cost.sign").unwrap();
        assert_eq!(sign.count, signatures);
        assert_eq!(sign.sum_micros, signatures * 5_125);
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

    /// Every counter's windows sum to its end-of-run total: the ring's
    /// baseline is taken before the first sample, so every counter
    /// starts there at zero, and `reconcile_all` checks baseline +
    /// evicted + retained deltas against the final snapshot, which is
    /// the run's `metrics`.
    fn assert_windows_sum_to_totals(run: &ScenarioRun) {
        let (_, baseline) = run.timeline.first().unwrap();
        assert!(baseline.counters.values().all(|&v| v == 0), "{baseline:?}");
        let (end, last) = run.timeline.last().unwrap();
        assert_eq!(end.secs(), run.record.window_end.secs());
        assert_eq!(last, &run.metrics);
        let reconciled = run.timeline.reconcile_all();
        assert_eq!(reconciled.len(), run.metrics.counters.len());
        for rec in reconciled {
            assert!(rec.ok(), "{rec:?}");
        }
    }

    #[test]
    fn timeline_windows_resolve_rate_over_time_and_reconcile() {
        let s = airport();
        let run = run_scenario(
            &s,
            SamplingStrategy::FixedRate(1.0),
            experiment_key(),
            CostModel::raspberry_pi_3(),
        )
        .unwrap();
        // One window per TIMELINE_INTERVAL_SECS of sim time, plus the
        // closing window to the end-of-run total.
        let expected = (s.duration.secs() / TIMELINE_INTERVAL_SECS) as usize + 1;
        assert_eq!(
            run.timeline.len(),
            expected,
            "duration {}",
            s.duration.secs()
        );
        assert_eq!(run.timeline.evicted_windows(), 0);
        // Windows are stamped in sim time and tile the flight.
        let windows: Vec<_> = run.timeline.windows().collect();
        for pair in windows.windows(2) {
            assert!(pair[0].end.secs() > pair[0].start.secs());
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_windows_sum_to_totals(&run);
        // A steady 1 Hz flight signs in every full interval.
        let series = run.timeline.counter_series("tee.signatures");
        assert!(series[..series.len() - 1].iter().all(|&(_, d)| d > 0));
    }

    #[test]
    fn flight_shorter_than_one_interval_is_one_reconciling_window() {
        use alidrone_geo::trajectory::TrajectoryBuilder;
        use alidrone_geo::{Duration, GeoPoint, ZoneSet};
        // A 30 s hover: shorter than one timeline interval, so only the
        // initial snapshot and the end-of-run total exist.
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
        assert_eq!(run.timeline.len(), 1, "one window, first step to end");
        let window = run.timeline.latest().unwrap();
        assert_eq!(window.start, run.record.window_start);
        assert!(window.counter_delta("tee.signatures") > 0);
        assert_windows_sum_to_totals(&run);
        // A counter that never fired reconciles to zero everywhere.
        assert!(run
            .timeline
            .counter_series("no.such.counter")
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
