//! The persistent performance baseline of the AliDrone workspace.
//!
//! The `bench_poa` binary is the one benchmark runner: it measures a
//! fixed case list — one case per protocol layer, from RSA and the TEE
//! sample through eq. 1–3 geometry, PoA verification, the wire codec,
//! the journal, replication and the audit log — on the [`harness`]
//! driver, and persists the quantiles to the repo-root
//! `BENCH_poa.json` via [`baseline`], with a `--diff` regression gate
//! (`make bench-json` / `make bench-diff`).
//!
//! Real wall-clock numbers here are for *this* machine; the paper-shape
//! comparison lives in the `exp_*` binaries, which use the calibrated
//! Raspberry Pi 3 cost model instead.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod harness;

use std::sync::OnceLock;

use alidrone_crypto::rng::XorShift64;
use alidrone_crypto::rsa::RsaPrivateKey;

/// Cached keys by size: keygen (especially 2048-bit) must happen once
/// per process, not once per benchmark iteration batch.
pub fn bench_key(bits: usize) -> &'static RsaPrivateKey {
    static K512: OnceLock<RsaPrivateKey> = OnceLock::new();
    static K1024: OnceLock<RsaPrivateKey> = OnceLock::new();
    static K2048: OnceLock<RsaPrivateKey> = OnceLock::new();
    let (cell, seed) = match bits {
        512 => (&K512, 0xB512u64),
        1024 => (&K1024, 0xB1024),
        2048 => (&K2048, 0xB2048),
        _ => panic!("no cached bench key for {bits} bits"),
    };
    cell.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(seed);
        RsaPrivateKey::generate(bits, &mut rng)
    })
}
