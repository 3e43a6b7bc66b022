//! From-scratch cryptographic primitives for the AliDrone reproduction.
//!
//! The AliDrone prototype (ICDCS 2018, §V) relies on the OP-TEE crypto
//! API for exactly two algorithms: `TEE_ALG_RSASSA_PKCS1_V1_5_SHA1` to
//! sign GPS tuples inside the secure world, and `RSAES_PKCS1_v1_5` to
//! encrypt the Proof-of-Alibi for the auditor. The workspace's allowed
//! dependency set contains no cryptography crates, so this crate
//! implements those algorithms — and the primitives the paper's §VII
//! extensions need — from scratch:
//!
//! * [`bigint::BigUint`] — arbitrary-precision arithmetic (Knuth D
//!   division, modular inverse) with a Montgomery fast path for modular
//!   exponentiation: [`bigint::MontgomeryContext`] precomputes the
//!   domain parameters per modulus and runs an allocation-free
//!   sliding-window ladder, fixed at the modulus's width of 4 to 64
//!   words. An 8-word modulus (a 1024-bit key's CRT primes) runs a
//!   `mulx`/`adcx`/`adox` kernel when the CPU reports BMI2 and ADX, and
//!   every other modulus the portable 64-bit CIOS kernel
//!   ([`bigint::backend`] names which); results are identical either
//!   way.
//! * [`prime`] — Miller–Rabin testing and RSA prime generation.
//! * [`rsa`] — RSASSA-PKCS1-v1.5 (SHA-1/SHA-256) and RSAES-PKCS1-v1.5,
//!   with [`rsa::RsaVerifier`] holding the per-key precomputation for
//!   hot verify paths.
//! * [`sha1`], [`sha256`], [`hmac`] — hashes and MACs. SHA-256 feeds
//!   every whole block through [`sha256::compress_blocks`], which runs a
//!   SHA-NI kernel when the CPU reports the SHA extensions and the
//!   portable FIPS 180-4 compression otherwise
//!   ([`sha256::backend`] names which); digests are identical either
//!   way.
//! * [`crc32`] — the CRC-32 that frames every journal record. An input
//!   of 64 bytes or more folds on a PCLMULQDQ kernel when the CPU
//!   reports PCLMULQDQ and SSE4.1, and everything else runs
//!   slicing-by-8 ([`crc32::backend`] names which); checksums are
//!   identical either way.
//! * [`chacha20`] — the one-time-key cipher for the privacy-preserving
//!   PoA extension (§VII-B3).
//! * [`dh`] — ephemeral Diffie–Hellman for per-flight symmetric keys
//!   (§VII-A1a).
//! * [`rng`] — a vendored deterministic xorshift64* generator behind a
//!   minimal [`Rng`](rng::Rng) trait (the build environment has no
//!   crates.io access, so `rand` is hand-rolled like everything else).
//!
//! # Security note
//!
//! **Research quality only.** Nothing here is constant-time, blinded, or
//! hardened against fault attacks; the paper explicitly scopes side
//! channels out of its threat model (§III-B) and so does this
//! reproduction. Do not reuse this crate outside the simulation.
//!
//! The crate denies `unsafe` code and documents every `unsafe` block.
//! There are three exemptions, each entered only after runtime
//! detection has confirmed the CPU features its kernel uses, and each
//! with its portable code as the test oracle:
//!
//! * the SHA-256 dispatch calls the `#[target_feature]` SHA-NI kernel,
//!   which is itself safe code with no raw-pointer access;
//! * the CRC-32 dispatch calls the `#[target_feature]` PCLMULQDQ
//!   folding kernel after detecting `pclmulqdq` and `sse4.1`. The
//!   kernel is safe code too: it reads its input only through checked
//!   slices of whole 16-byte blocks and builds its vectors with
//!   `_mm_set_epi64x`;
//! * the Montgomery kernel for 8-word moduli runs two `asm!` blocks on
//!   `mulx`/`adcx`/`adox` (BMI2 and ADX), reachable only through a
//!   token that detection alone creates. Each reads only its fixed
//!   8-word operands and the 9 words of modulus and `n'`, and writes
//!   only stack it reserves and releases itself.
//!
//! # Example
//!
//! ```
//! use alidrone_crypto::rng::XorShift64;
//! use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey};
//!
//! # fn main() -> Result<(), alidrone_crypto::CryptoError> {
//! let mut rng = XorShift64::seed_from_u64(1);
//! let key = RsaPrivateKey::generate(512, &mut rng); // test-size key
//! let sig = key.sign(b"(40.1, -88.2) @ 12.0s", HashAlg::Sha1)?;
//! key.public_key().verify(b"(40.1, -88.2) @ 12.0s", &sig, HashAlg::Sha1)?;
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod bigint;
pub mod chacha20;
pub mod crc32;
pub mod dh;
mod error;
pub mod hmac;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use error::CryptoError;
