//! A software model of ARM TrustZone / OP-TEE for the AliDrone
//! reproduction.
//!
//! The AliDrone prototype (paper §II-C, §IV-C2, §V) runs on a Raspberry
//! Pi 3 with OP-TEE: a *secure world* hosts the GPS Driver (a
//! pseudo-trusted application with direct access to the GPS peripheral)
//! and the GPS Sampler (a trusted application holding the TEE sign key
//! `T⁻`), while the *normal world* runs the Adapter daemon that decides
//! *when* to ask for an authenticated sample. We have no TrustZone
//! hardware, so this crate models the architecture in software with the
//! two properties that matter preserved **by construction**:
//!
//! 1. **Key isolation.** The TEE sign key lives inside [`SecureWorld`],
//!    which is never exposed; the only handle the normal world gets is a
//!    [`TeeClient`], whose API can return *signatures* and the *public*
//!    key but not private key material. This API boundary stands in for
//!    the hardware world boundary.
//! 2. **Cost shape.** Every secure-world invocation is metered by a
//!    calibratable [`CostModel`] (world switches + signing time, with
//!    Raspberry Pi 3 defaults derived from the paper's Table II), so the
//!    evaluation harness reproduces the paper's CPU/power numbers.
//!
//! The GlobalPlatform flavour of the API is kept: sessions are opened to
//! trusted applications by [`Uuid`], commands carry [`Param`] lists, and
//! errors mirror `TEE_Result` codes.
//!
//! # Example
//!
//! ```
//! use alidrone_gps::{SimClock, SimulatedReceiver};
//! use alidrone_geo::trajectory::TrajectoryBuilder;
//! use alidrone_geo::{Distance, Duration, GeoPoint, Speed};
//! use alidrone_tee::{SecureWorldBuilder, GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH};
//! use alidrone_crypto::rng::XorShift64;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = GeoPoint::new(40.0, -88.0)?;
//! let b = a.destination(90.0, Distance::from_km(1.0));
//! let traj = TrajectoryBuilder::start_at(a)
//!     .travel_to(b, Speed::from_mph(30.0))
//!     .build()?;
//! let clock = SimClock::new();
//! let receiver = SimulatedReceiver::from_trajectory(traj, clock.clone(), 5.0);
//!
//! let mut rng = XorShift64::seed_from_u64(1);
//! let world = SecureWorldBuilder::new()
//!     .with_generated_key(512, &mut rng) // test-size key
//!     .with_gps_device(Box::new(receiver))
//!     .build()?;
//! let client = world.client();
//!
//! clock.advance(Duration::from_secs(2.0));
//! let session = client.open_session(GPS_SAMPLER_UUID)?;
//! let signed = session.get_gps_auth()?;       // convenience wrapper
//! signed.verify(&client.tee_public_key())?;   // normal world can verify
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cost;
mod error;
mod keystore;
mod sampler;
pub mod spoof;
mod storage;
#[cfg(test)]
mod test_support;
mod uuid;
mod world;

pub use client::{TeeClient, TeeSession};
pub use cost::CostModel;
pub use error::TeeError;
pub use sampler::{SignedGapMarker, SignedSample, SignedSample3d, SignedTrace};
pub use spoof::{Environment, PlausibilityDetector, SpoofDetector, TrustingDetector};
pub use storage::SecureStorage;
pub use uuid::Uuid;
pub use world::{NmeaFaultHook, Param, SecureWorld, SecureWorldBuilder, SignFaultHook};

/// UUID of the GPS Sampler trusted application.
pub const GPS_SAMPLER_UUID: Uuid = Uuid::from_u128(0x8aaaf200_2450_11e4_abe2_0002a5d5c51b);

/// Command id: produce an authenticated GPS sample (`GetGPSAuth`,
/// paper §IV-C2). No input params; output is `[Bytes(sample), Bytes(sig)]`.
pub const CMD_GET_GPS_AUTH: u32 = 1;

/// Command id: return the TEE verification key `T⁺` as
/// `[Bytes(modulus), Bytes(exponent)]`.
pub const CMD_GET_PUBLIC_KEY: u32 = 2;

/// Command id: read the raw (unsigned) GPS sample the secure-world driver
/// currently sees — used by diagnostics and tests; output `[Bytes(sample)]`.
pub const CMD_READ_GPS_RAW: u32 = 3;

/// Command id: batch mode (paper §VII-A1b "sign all traces at once") —
/// sample the GPS and *cache* the sample in secure memory without
/// signing. Output `[Value(cached_count)]`.
pub const CMD_CACHE_SAMPLE: u32 = 4;

/// Command id: batch mode — sign the entire cached trace with one RSA
/// operation and clear the cache. Output `[Bytes(trace), Bytes(sig)]`.
pub const CMD_SIGN_TRACE: u32 = 5;

/// Command id: 3-D variant of `GetGPSAuth` (paper §VII-B1) — produce an
/// authenticated 4-tuple `(lat, lon, alt, t)` sample. Requires a 3-D
/// GPS device; output `[Bytes(sample3d 32B), Bytes(sig)]`.
pub const CMD_GET_GPS_AUTH_3D: u32 = 6;

/// Command id: degraded mode — sign a declared GPS-outage window
/// (`SignGap`). Input `[Bytes(start f64 BE || end f64 BE)]` (16 bytes);
/// output `[Bytes(sig)]`. Safe to expose to the normal world because a
/// declared gap only ever *weakens* the alibi.
pub const CMD_SIGN_GAP: u32 = 7;
