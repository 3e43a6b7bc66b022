//! Randomized property tests for the cryptographic substrate.
//!
//! The big-integer layer underpins every signature in the system, so its
//! algebraic laws get the heaviest scrutiny: a silent `divrem` bug would
//! produce signatures that fail verification (best case) or verify keys
//! that accept forgeries (worst case).
//!
//! Each property runs over a deterministic stream of vendored-xorshift
//! inputs (no `proptest` — the offline build has no crates.io), so a
//! failure reproduces exactly by rerunning the test.

use alidrone_crypto::bigint::BigUint;
use alidrone_crypto::chacha20::{chacha20_decrypt, chacha20_encrypt};
use alidrone_crypto::hmac::{hmac_sha256, hmac_sha256_verify};
use alidrone_crypto::rng::{Rng, XorShift64};
use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone_crypto::sha256::sha256;
use std::sync::OnceLock;

const CASES: usize = 64;

fn test_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0xBEEF);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

/// Random bytes with length uniform in `[0, max_len)`, biased toward
/// interesting shapes (empty, leading zeros) like the old proptest
/// generators were.
fn rand_bytes(rng: &mut XorShift64, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range_u64(max_len as u64) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    // One case in eight gets a zeroed prefix to exercise normalisation.
    if !v.is_empty() && rng.gen_range_u64(8) == 0 {
        let cut = rng.gen_range_u64(v.len() as u64) as usize;
        for b in &mut v[..cut] {
            *b = 0;
        }
    }
    v
}

/// A BigUint from 0 to ~2^256.
fn arb_biguint(rng: &mut XorShift64) -> BigUint {
    BigUint::from_bytes_be(&rand_bytes(rng, 32))
}

fn arb_nonzero(rng: &mut XorShift64) -> BigUint {
    let b = arb_biguint(rng);
    if b.is_zero() {
        BigUint::one()
    } else {
        b
    }
}

#[test]
fn add_commutative_and_associative() {
    let mut rng = XorShift64::seed_from_u64(1);
    for _ in 0..CASES {
        let (a, b, c) = (
            arb_biguint(&mut rng),
            arb_biguint(&mut rng),
            arb_biguint(&mut rng),
        );
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }
}

#[test]
fn add_sub_round_trip() {
    let mut rng = XorShift64::seed_from_u64(2);
    for _ in 0..CASES {
        let (a, b) = (arb_biguint(&mut rng), arb_biguint(&mut rng));
        assert_eq!(a.add(&b).sub(&b), a);
    }
}

#[test]
fn mul_commutative_and_distributive() {
    let mut rng = XorShift64::seed_from_u64(3);
    for _ in 0..CASES {
        let (a, b, c) = (
            arb_biguint(&mut rng),
            arb_biguint(&mut rng),
            arb_biguint(&mut rng),
        );
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}

/// The fundamental division law: a = q·d + r with r < d.
#[test]
fn divrem_law() {
    let mut rng = XorShift64::seed_from_u64(4);
    for _ in 0..CASES {
        let a = arb_biguint(&mut rng);
        let d = arb_nonzero(&mut rng);
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }
}

#[test]
fn shl_shr_round_trip_and_power_of_two() {
    let mut rng = XorShift64::seed_from_u64(5);
    for _ in 0..CASES {
        let a = arb_biguint(&mut rng);
        let n = rng.gen_range_u64(200) as usize;
        assert_eq!(a.shl(n).shr(n), a);
        let small = n % 64;
        let pow = BigUint::one().shl(small);
        assert_eq!(a.shl(small), a.mul(&pow));
    }
}

#[test]
fn bytes_and_hex_round_trips() {
    let mut rng = XorShift64::seed_from_u64(6);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 64);
        let v = BigUint::from_bytes_be(&bytes);
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        assert_eq!(BigUint::from_hex(&v.to_hex()).unwrap(), v);
    }
}

/// Modular exponentiation law: x^(a+b) = x^a · x^b (mod m), over the
/// odd moduli `mod_pow` admits.
#[test]
fn mod_pow_additive_exponents() {
    let mut rng = XorShift64::seed_from_u64(7);
    for _ in 0..CASES / 2 {
        let x = arb_biguint(&mut rng);
        let a = rng.gen_range_u64(1_000);
        let b = rng.gen_range_u64(1_000);
        let m = arb_biguint(&mut rng).shl(1).add(&BigUint::one());
        let lhs = x.mod_pow(&BigUint::from_u64(a + b), &m);
        let rhs = x
            .mod_pow(&BigUint::from_u64(a), &m)
            .mul_mod(&x.mod_pow(&BigUint::from_u64(b), &m), &m);
        assert_eq!(lhs, rhs);
    }
}

/// Modular inverse, when it exists, actually inverts.
#[test]
fn mod_inverse_inverts() {
    let mut rng = XorShift64::seed_from_u64(8);
    for _ in 0..CASES {
        let a = arb_nonzero(&mut rng);
        let m = arb_nonzero(&mut rng);
        if let Some(inv) = a.mod_inverse(&m) {
            assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
            assert!(inv < m);
        } else if !m.is_one() && !m.is_zero() {
            // No inverse ⇒ gcd must be nontrivial.
            assert!(!a.gcd(&m).is_one());
        }
    }
}

#[test]
fn gcd_divides_both() {
    let mut rng = XorShift64::seed_from_u64(9);
    for _ in 0..CASES {
        let a = arb_nonzero(&mut rng);
        let b = arb_nonzero(&mut rng);
        let g = a.gcd(&b);
        assert!(a.rem(&g).is_zero());
        assert!(b.rem(&g).is_zero());
    }
}

/// RSA sign/verify over arbitrary messages.
#[test]
fn rsa_sign_verify() {
    let mut rng = XorShift64::seed_from_u64(10);
    let key = test_key();
    for _ in 0..16 {
        let msg = rand_bytes(&mut rng, 200);
        let sig = key.sign(&msg, HashAlg::Sha1).unwrap();
        assert!(key.public_key().verify(&msg, &sig, HashAlg::Sha1).is_ok());
    }
}

/// A single-bit signature flip always fails verification.
#[test]
fn rsa_flipped_signature_rejected() {
    let mut rng = XorShift64::seed_from_u64(11);
    let key = test_key();
    for _ in 0..16 {
        let msg = rand_bytes(&mut rng, 64);
        let mut sig = key.sign(&msg, HashAlg::Sha256).unwrap();
        let idx = rng.gen_range_u64(sig.len() as u64) as usize;
        let bit = rng.gen_range_u64(8) as u8;
        sig[idx] ^= 1 << bit;
        assert!(key
            .public_key()
            .verify(&msg, &sig, HashAlg::Sha256)
            .is_err());
    }
}

/// RSA encrypt/decrypt round trip for any payload that fits.
#[test]
fn rsa_encrypt_decrypt() {
    let mut rng = XorShift64::seed_from_u64(12);
    let key = test_key();
    for _ in 0..16 {
        let msg = rand_bytes(&mut rng, 53);
        let ct = key.public_key().encrypt(&msg, &mut rng).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), msg);
    }
}

/// ChaCha20 round trip for arbitrary payload, key, nonce.
#[test]
fn chacha_round_trip() {
    let mut rng = XorShift64::seed_from_u64(13);
    for _ in 0..CASES {
        let msg = rand_bytes(&mut rng, 512);
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let ct = chacha20_encrypt(&key, &nonce, &msg);
        assert_eq!(ct.len(), msg.len());
        assert_eq!(chacha20_decrypt(&key, &nonce, &ct), msg);
    }
}

/// HMAC verification accepts genuine tags and rejects modified ones.
#[test]
fn hmac_verify_consistent() {
    let mut rng = XorShift64::seed_from_u64(14);
    for _ in 0..CASES {
        let key = rand_bytes(&mut rng, 80);
        let msg = rand_bytes(&mut rng, 256);
        let tag = hmac_sha256(&key, &msg);
        assert!(hmac_sha256_verify(&key, &msg, &tag));
        let mut bad = tag;
        let flip = rng.gen_range_u64(32) as usize;
        bad[flip] ^= 0x80;
        assert!(!hmac_sha256_verify(&key, &msg, &bad));
    }
}

/// Incremental chunked hashing equals the one-shot digest.
#[test]
fn hash_chunking_invariant() {
    let mut rng = XorShift64::seed_from_u64(15);
    for _ in 0..CASES {
        let msg = rand_bytes(&mut rng, 600);
        let chunk = 1 + rng.gen_range_u64(63) as usize;
        let mut h256 = alidrone_crypto::sha256::Sha256::new();
        let mut h1 = alidrone_crypto::sha1::Sha1::new();
        for c in msg.chunks(chunk) {
            h256.update(c);
            h1.update(c);
        }
        assert_eq!(h256.finalize(), sha256(&msg));
        assert_eq!(h1.finalize(), alidrone_crypto::sha1::sha1(&msg));
    }
}
