//! Workspace-level soak smoke: a small fleet campaign end to end
//! through the `alidrone` facade — real TCP auditor, scrape-fed
//! time-series, SLO verdicts, machine-checked report.
//!
//! The full campaign lives in `exp_soak` (and CI's `make soak-smoke`);
//! this test keeps the path — fleet driver, sampler, SLO engine,
//! report schema — under `cargo test` at a size that stays fast.

use std::time::Duration;

use alidrone::obs::Json;
use alidrone::sim::fleet::{check_report, run_fleet, soak_report_json, FleetConfig};

fn small_config() -> FleetConfig {
    FleetConfig {
        clients: 2,
        sample_every: Duration::from_millis(200),
        ..FleetConfig::soak(0xA11B1, 16)
    }
}

/// The degraded phase must be flagged as an SLO breach while every
/// healthy phase passes, the per-phase op ledger must agree with the
/// server's request counter, and the serialised report must survive a
/// disk-shaped round trip through the machine checker.
#[test]
fn small_fleet_soak_breaches_only_where_expected() {
    let outcome = run_fleet(&small_config());

    let breached: Vec<&str> = outcome
        .phases
        .iter()
        .filter(|p| p.breached)
        .map(|p| p.name)
        .collect();
    assert_eq!(breached, ["degraded"], "only the chaos phase may breach");
    for p in &outcome.phases {
        assert_eq!(p.ops, p.requests_delta, "phase {}", p.name);
    }
    assert!(outcome.reconciliation.iter().all(|r| r.ok()));
    assert!(outcome.scrape_matches_registry);

    let text = soak_report_json(&outcome).to_pretty();
    let parsed = Json::parse(&text).expect("report parses");
    check_report(&parsed).expect("report machine-checks");
}
