//! Fleet soak experiment: thousands of seeded drone flights against
//! the real TCP auditor, judged by windowed SLOs, reported as a
//! machine-checkable `SOAK_report.json`.
//!
//! Runs the staged campaign from [`alidrone_sim::fleet`]: ramp →
//! steady → swarm burst → chaos-degraded (request corruption +
//! GPS-dropout cohort) → recovery, with a sampler thread scraping the
//! live `/metrics` endpoint into a windowed time-series the SLO engine
//! evaluates as the load runs. The written report is re-parsed from
//! disk and machine-checked ([`fleet::check_report`]), so the file CI
//! archives is the file that was validated.
//!
//! Usage:
//!
//! ```text
//! cargo run -p alidrone-sim --release --bin exp_soak             # 2000 drones
//! cargo run -p alidrone-sim --release --bin exp_soak -- --smoke  # ~200 drones, runs twice,
//!                                                                # asserts determinism
//! ```
//!
//! Flags: `--smoke`, `--failover` (replicated primary + two
//! followers; a kill-and-promote phase runs after the load phases and
//! its ledger lands in the report's `failover` section), `--tamper`
//! (transparency phase: every drone fetches the signed tree head plus
//! inclusion/consistency proofs for its own verdicts and verifies them
//! offline; ledger lands in the report's `transparency` section),
//! `--drones N`, `--seed N`, `--out PATH` (default
//! `target/SOAK_report.json`).

use std::time::Instant;

use alidrone_obs::Json;
use alidrone_sim::fleet::{
    self, check_report, determinism_signature, run_fleet, soak_report_json, FleetConfig,
};

fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args.next();
        }
        if let Some(rest) = arg.strip_prefix(&format!("{name}=")) {
            return Some(rest.to_string());
        }
    }
    None
}

fn summarise(outcome: &fleet::SoakOutcome, elapsed_secs: f64) {
    println!(
        "  {} drones, {} ops, {} client-visible errors, {:.1}s wall",
        outcome.drones, outcome.total_ops, outcome.client_errors, elapsed_secs
    );
    println!(
        "  series: {} windows ({} evicted), {} counters reconciled",
        outcome.ring.len(),
        outcome.ring.evicted_windows(),
        outcome.reconciliation.len()
    );
    for p in &outcome.phases {
        let verdicts: Vec<String> = p
            .verdicts
            .iter()
            .map(|v| format!("{}={}", v.name, if v.healthy { "ok" } else { "BREACH" }))
            .collect();
        println!(
            "  phase {:<9} ops={:<6} errors={:<5} {} [{}]",
            p.name,
            p.ops,
            p.errors_delta,
            if p.breached { "BREACHED" } else { "healthy " },
            verdicts.join(", ")
        );
    }
    for e in &outcome.slo_events {
        println!(
            "  slo event: {} {} (value {:.4} vs {:.4})",
            e.slo,
            e.kind.label(),
            e.value,
            e.threshold
        );
    }
}

fn run_once(cfg: &FleetConfig) -> (fleet::SoakOutcome, f64) {
    let started = Instant::now();
    let outcome = run_fleet(cfg);
    (outcome, started.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let failover = std::env::args().any(|a| a == "--failover");
    let tamper = std::env::args().any(|a| a == "--tamper");
    let seed: u64 = flag_value("--seed").map_or(42, |v| v.parse().expect("--seed takes a u64"));
    let drones: usize =
        flag_value("--drones").map_or(2000, |v| v.parse().expect("--drones takes a count"));
    let out = flag_value("--out").unwrap_or_else(|| "target/SOAK_report.json".into());

    let mut cfg = if smoke {
        FleetConfig::smoke(seed)
    } else {
        FleetConfig::soak(seed, drones)
    };
    cfg.failover = failover;
    cfg.tamper = tamper;
    println!(
        "== exp_soak: {} drones, seed {seed}, {} phases{}{} ==",
        cfg.drones,
        cfg.phases.len(),
        if tamper { " + audit transparency" } else { "" },
        if failover {
            " + kill-and-promote failover"
        } else {
            ""
        }
    );

    let (outcome, elapsed) = run_once(&cfg);
    summarise(&outcome, elapsed);

    // Hard gates: breach expectations met (degraded phase flagged,
    // healthy phases clean) and exact accounting, straight from the
    // outcome before anything touches disk.
    for p in &outcome.phases {
        assert!(!p.verdicts.is_empty(), "phase {}: no SLO verdicts", p.name);
        assert_eq!(
            p.expect_breach, p.breached,
            "phase {}: expected breach={}, observed breach={}",
            p.name, p.expect_breach, p.breached
        );
        assert_eq!(
            p.ops, p.requests_delta,
            "phase {}: op ledger disagrees with server request counter",
            p.name
        );
    }
    assert!(
        outcome.reconciliation.iter().all(|r| r.ok()),
        "windowed series failed final-counter reconciliation"
    );
    assert!(
        outcome.scrape_matches_registry,
        "parsed scrape disagreed with the server registry"
    );
    if failover {
        let fo = outcome
            .failover
            .as_ref()
            .expect("--failover run must produce a failover ledger");
        println!(
            "  failover: epoch {} -> {}, promoted {}, {} records replayed, \
             {} endpoint rotations",
            fo.epoch_before,
            fo.epoch_after,
            fo.promoted_follower,
            fo.records_replayed,
            fo.endpoint_rotations
        );
        assert_eq!(fo.epoch_after, fo.epoch_before + 1, "epoch must bump once");
        assert_eq!(fo.failovers, 1, "exactly one failover must be recorded");
        assert!(
            fo.endpoint_rotations >= 1,
            "no client rotated off the dead primary"
        );
    }
    if tamper {
        let tr = outcome
            .transparency
            .as_ref()
            .expect("--tamper run must produce a transparency ledger");
        println!(
            "  transparency: audit tree {} -> {}, {} proofs checked offline, {} failures",
            tr.tree_size_before, tr.tree_size_after, tr.proof_checks, tr.proof_failures
        );
        assert_eq!(
            tr.proof_failures, 0,
            "offline audit proof verification failed"
        );
        assert!(tr.proof_checks > 0, "no audit proofs were ever checked");
        assert!(
            tr.tree_size_after > tr.tree_size_before,
            "audit tree never advanced during the transparency phase"
        );
    }

    // The smoke mode doubles as the determinism gate: a second run
    // with the same seed must reproduce every verdict and ledger.
    if smoke {
        println!("-- second run (determinism check) --");
        let (second, elapsed2) = run_once(&cfg);
        summarise(&second, elapsed2);
        assert_eq!(
            determinism_signature(&outcome),
            determinism_signature(&second),
            "same seed produced different verdicts or ledgers"
        );
        println!("   determinism: two runs, identical signatures");
    }
    // One `signature: ` line per signature line, for the make targets
    // to diff against crates/sim/golden/soak_*.sig.
    for line in determinism_signature(&outcome).lines() {
        println!("signature: {line}");
    }

    let report = soak_report_json(&outcome);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&out, report.to_pretty()).expect("write soak report");

    // Validate the bytes on disk, not the in-memory object: what CI
    // archives is what was checked.
    let written = std::fs::read_to_string(&out).expect("re-read soak report");
    let parsed = Json::parse(&written).expect("soak report parses");
    check_report(&parsed).unwrap_or_else(|e| panic!("soak report failed machine-check: {e}"));

    println!("   report: {out} (schema v{})", fleet::SOAK_SCHEMA_VERSION);
    println!("   all SLO verdicts matched expectations; series reconciled exactly");
}
