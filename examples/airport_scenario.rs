//! Field study 1 (paper §VI-A2): driving away from a 5-mile airport NFZ.
//!
//! Reproduces the Fig. 6 experiment through the example API rather than
//! the experiment harness: builds the scenario, runs 1 Hz fixed-rate and
//! adaptive sampling, and shows the sample-count gap and where the
//! adaptive samples concentrate. The adaptive run's observability
//! handle is then shared with a wire-level auditor server, and the
//! combined metrics snapshot — request latencies by request type, world
//! switches, signature counts by key size, sampler rate-change events —
//! is printed as JSON.
//!
//! Run: `cargo run --release --example airport_scenario`

use std::error::Error;

use alidrone::core::wire::server::AuditorServer;
use alidrone::core::wire::transport::{AuditorClient, InProcess};
use alidrone::core::{Auditor, AuditorConfig, SamplingStrategy, Verdict};
use alidrone::crypto::rng::XorShift64;
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::geo::Timestamp;
use alidrone::obs::{Json, MetricsSnapshot, ToJson};
use alidrone::sim::metrics::fig6_series;
use alidrone::sim::power::per_sample_cost;
use alidrone::sim::report::render_metrics;
use alidrone::sim::runner::{experiment_key, run_scenario};
use alidrone::sim::scenarios::airport;
use alidrone::tee::CostModel;

fn main() -> Result<(), Box<dyn Error>> {
    let scenario = airport();
    println!(
        "airport scenario: NFZ radius {:.0} mi, drive {:.0} s at 1 Hz GPS",
        scenario.zones.iter().next().unwrap().radius().miles(),
        scenario.duration.secs()
    );

    let fixed = run_scenario(
        &scenario,
        SamplingStrategy::FixedRate(1.0),
        experiment_key(),
        CostModel::raspberry_pi_3(),
    )?;
    let adaptive = run_scenario(
        &scenario,
        SamplingStrategy::Adaptive,
        experiment_key(),
        CostModel::raspberry_pi_3(),
    )?;

    // Secure-world time a run records: the sum of the `tee.cost.*`
    // histograms (world switches, GPS reads, signatures). Table II
    // charges each sample `per_sample_cost`, which also counts the
    // Adapter's encryption of the sample — a cost no run records.
    let busy_secs = |metrics: &MetricsSnapshot| {
        [
            "tee.cost.world_switch",
            "tee.cost.read_gps",
            "tee.cost.sign",
        ]
        .iter()
        .filter_map(|name| metrics.histogram(name))
        .map(|h| h.sum_micros)
        .sum::<u64>() as f64
            / 1e6
    };
    let table2_secs = |samples: usize| {
        per_sample_cost(&CostModel::raspberry_pi_3(), experiment_key().bits()).secs()
            * samples as f64
    };
    println!(
        "\n1 Hz fixed-rate : {:4} samples, {} signatures, {:.1} s secure-world time, {:.1} s Table II CPU",
        fixed.sample_count(),
        fixed.metrics.counter("tee.signatures"),
        busy_secs(&fixed.metrics),
        table2_secs(fixed.sample_count())
    );
    println!(
        "adaptive        : {:4} samples, {} signatures, {:.2} s secure-world time, {:.2} s Table II CPU",
        adaptive.sample_count(),
        adaptive.metrics.counter("tee.signatures"),
        busy_secs(&adaptive.metrics),
        table2_secs(adaptive.sample_count())
    );
    println!(
        "reduction       : {:.1}x fewer samples (paper: 649 → 14, 46x)",
        fixed.sample_count() as f64 / adaptive.sample_count() as f64
    );

    // Where do the adaptive samples land?
    println!("\nadaptive sample positions (distance to NFZ boundary):");
    let series = fig6_series(&adaptive.record);
    let mut last = 0usize;
    for p in &series {
        if p.cumulative_samples > last {
            last = p.cumulative_samples;
            println!("  sample {last:2} at {:8.0} ft", p.distance_ft);
        }
    }
    println!("\ngaps grow geometrically with distance — exactly the Fig. 6 shape.");

    // Submit the adaptive PoA over the wire. The server shares the
    // scenario run's obs handle, so wire latency histograms and error
    // counters land in the same registry as the TEE and sampler
    // metrics.
    let obs = adaptive.obs.clone();
    let mut rng = XorShift64::seed_from_u64(0xA1B0);
    let auditor_key = RsaPrivateKey::generate(512, &mut rng);
    let operator_key = RsaPrivateKey::generate(512, &mut rng);
    let server = std::sync::Arc::new(
        AuditorServer::builder(Auditor::new(AuditorConfig::default(), auditor_key))
            .obs(&obs)
            .build(),
    );
    let mut client = AuditorClient::new(InProcess::shared(server.clone(), &obs));

    let now = Timestamp::from_secs(scenario.duration.secs() + 60.0);
    let drone = client.register_drone(
        operator_key.public_key().clone(),
        adaptive.tee.tee_public_key(),
        now,
    )?;
    for zone in scenario.zones.iter() {
        client.register_zone(*zone, now)?;
    }
    let verdict = client.submit_poa(
        drone,
        (adaptive.record.window_start, adaptive.record.window_end),
        &adaptive.record.poa,
        now,
    )?;
    // Starting 30 ft from the boundary, the first pair cannot be
    // sufficient at any hardware rate (see the runner tests): the
    // auditor flags exactly those unavoidable initial pairs.
    println!("\nwire submission verdict: {verdict:?}");
    assert!(matches!(
        verdict,
        Verdict::Compliant | Verdict::InsufficientAlibi { .. }
    ));
    // One garbage frame, to show the malformed-frame accounting.
    let _ = server.handle(&[0xDE, 0xAD, 0xBE, 0xEF], now);

    println!("\nmetrics:\n{}", render_metrics(&obs.snapshot()));

    // The full snapshot plus the sampler's rate-change events, as JSON.
    let rate_changes: Vec<Json> = adaptive
        .events
        .iter()
        .filter(|e| e.message == "rate_change" || e.message == "anchor_sample")
        .map(|e| e.to_json())
        .collect();
    let doc = Json::obj([
        ("metrics", obs.snapshot().to_json()),
        ("sampler_events", Json::Arr(rate_changes)),
    ]);
    println!("metrics snapshot (JSON):\n{}", doc.to_pretty());
    Ok(())
}
