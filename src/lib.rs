//! AliDrone — a from-scratch Rust reproduction of *AliDrone: Enabling
//! Trustworthy Proof-of-Alibi for Commercial Drone Compliance*
//! (Liu, Hojjati, Bates, Nahrstedt — ICDCS 2018).
//!
//! This facade crate re-exports the workspace's crates under one root:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geo`] | `alidrone-geo` | geodesy, reachable-set ellipses, NFZs, sufficiency (eq. 1–3) |
//! | [`crypto`] | `alidrone-crypto` | big integers, RSA PKCS#1 v1.5, SHA-1/256, HMAC, ChaCha20, DH |
//! | [`nmea`] | `alidrone-nmea` | NMEA 0183 parsing/encoding (RMC, GGA) |
//! | [`gps`] | `alidrone-gps` | simulated receiver, virtual clock, trace replay |
//! | [`tee`] | `alidrone-tee` | the TrustZone/OP-TEE model: worlds, TAs, key isolation, cost model |
//! | [`core`] | `alidrone-core` | the PoA protocol: auditor, operator, zone owner, Algorithm 1 |
//! | [`obs`] | `alidrone-obs` | metrics, spans, structured events, JSON export |
//! | [`chaos`] | `alidrone-chaos` | seeded fault plane: transport/storage/TEE/GPS fault injection |
//! | [`sim`] | `alidrone-sim` | field-study scenarios, power model, experiment harness |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a full registration → zone query →
//! flight → verification round trip, and `DESIGN.md` / `EXPERIMENTS.md`
//! for the paper-reproduction map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use alidrone_chaos as chaos;
pub use alidrone_core as core;
pub use alidrone_crypto as crypto;
pub use alidrone_geo as geo;
pub use alidrone_gps as gps;
pub use alidrone_nmea as nmea;
pub use alidrone_obs as obs;
pub use alidrone_sim as sim;
pub use alidrone_tee as tee;
