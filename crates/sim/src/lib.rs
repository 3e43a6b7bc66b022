//! Field-study scenarios, metrics, and the power model reproducing the
//! AliDrone ICDCS 2018 evaluation (§VI).
//!
//! The paper evaluates AliDrone with two synthetic-hardware-free assets:
//!
//! * **Field studies** (§VI-A) — recorded drive traces replayed into the
//!   GPS sampler: an *airport* scenario (one 5-mile NFZ, drive away
//!   ~3 miles) and a *residential* scenario (94 house NFZs of 20 ft
//!   radius along a ~1 mile route). [`scenarios`] regenerates both with
//!   the published geometry.
//! * **Laboratory benchmarks** (§VI-B, Table II) — CPU / power / memory
//!   for fixed 2/3/5 Hz sampling and the two field studies, at 1024- and
//!   2048-bit key sizes. [`power`] implements the Kaup et al. power
//!   model (eq. 4) over the TEE [`CostModel`](alidrone_tee::CostModel).
//!
//! [`runner`] executes a scenario under any sampling strategy and
//! [`metrics`] post-processes flight records into the exact series the
//! paper's figures plot. One binary per figure/table regenerates it:
//! `exp_fig6`, `exp_fig8`, `exp_table2` (plus `exp_all`).
//!
//! Beyond the paper, [`fleet`] scales the evaluation to a soak
//! harness: staged multi-thousand-drone campaigns over real loopback
//! TCP, judged live by scraped metric windows against declarative
//! SLOs, written out as a machine-checked `SOAK_report.json`
//! (`exp_soak`); with `--failover` the fleet runs against a
//! replicated primary whose listener is killed mid-campaign, a
//! follower is promoted, and clients ride through on multi-endpoint
//! transports — the kill-and-promote phase is machine-checked into
//! the report's `failover` section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod export;
pub mod fleet;
pub mod metrics;
pub mod net;
pub mod power;
pub mod report;
pub mod runner;
pub mod scenarios;
