//! The secure-world key store.
//!
//! Holds the TEE sign keypair `T = (T⁺, T⁻)` that is "generated at
//! manufacturing time" and whose private half "is only accessible by
//! TEE" (paper §IV-B step 0). The type is `pub(crate)`: nothing outside
//! this crate can reach the private key, and the crate's public surface
//! only ever returns signatures and the public key.

use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey, RsaPublicKey};
use alidrone_crypto::CryptoError;

/// The signature hash: SHA-1, as in the paper's prototype. Every
/// signed sample's bytes still carry a hash tag, which its verifier
/// reads.
pub(crate) const SIGN_HASH: HashAlg = HashAlg::Sha1;

/// The in-enclave key store. Not exported from the crate.
pub(crate) struct KeyStore {
    sign_key: RsaPrivateKey,
}

impl KeyStore {
    /// Installs the manufacturing-time sign key.
    pub(crate) fn new(sign_key: RsaPrivateKey) -> Self {
        KeyStore { sign_key }
    }

    /// The verification key `T⁺`, exportable to the normal world.
    pub(crate) fn public_key(&self) -> RsaPublicKey {
        self.sign_key.public_key().clone()
    }

    /// Key size in bits (drives the cost model).
    pub(crate) fn key_bits(&self) -> usize {
        self.sign_key.bits()
    }

    /// Signs `data` with `T⁻`. Only callable from inside the secure
    /// world.
    pub(crate) fn sign(&self, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.sign_key.sign(data, SIGN_HASH)
    }
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately omits key material.
        f.debug_struct("KeyStore")
            .field("key_bits", &self.key_bits())
            .field("hash_alg", &SIGN_HASH)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alidrone_crypto::rng::XorShift64;

    #[test]
    fn signs_and_public_verifies() {
        let mut rng = XorShift64::seed_from_u64(21);
        let ks = KeyStore::new(RsaPrivateKey::generate(512, &mut rng));
        let sig = ks.sign(b"payload").unwrap();
        ks.public_key()
            .verify(b"payload", &sig, HashAlg::Sha1)
            .unwrap();
        assert_eq!(ks.key_bits(), 512);
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let mut rng = XorShift64::seed_from_u64(22);
        let key = RsaPrivateKey::generate(512, &mut rng);
        let modulus_hex = key.public_key().modulus().to_hex();
        let ks = KeyStore::new(key);
        let dbg = format!("{ks:?}");
        assert!(!dbg.contains(&modulus_hex));
        assert!(dbg.contains("key_bits"));
    }
}
