//! The Proof-of-Alibi container.

use std::fmt;

use alidrone_crypto::rng::Rng;
use alidrone_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use alidrone_geo::sufficiency::GapWindow;
use alidrone_geo::{GpsSample, Timestamp};
use alidrone_tee::{SignedGapMarker, SignedSample};

use crate::wire::codec::{Reader, Writer};
use crate::ProtocolError;

/// The fewest bytes one framed sample entry takes: a length prefix and
/// a [`SignedSample`] (algorithm tag, 24-byte sample, signature length)
/// with an empty signature.
const MIN_ENTRY_LEN: usize = 4 + 27;
/// The fewest bytes one framed gap marker takes: a length prefix and a
/// [`SignedGapMarker`] (algorithm tag, two `f64`s, signature length).
const MIN_GAP_LEN: usize = 4 + 19;

/// A Proof-of-Alibi: the ordered sequence of TEE-signed GPS samples
/// recorded during one flight (paper §IV-C2):
///
/// ```text
/// PoA = {(S₀, Sig(S₀, T⁻)), (S₁, Sig(S₁, T⁻)), …}
/// ```
///
/// A degraded-mode flight additionally carries *signed gap markers*:
/// TEE-attested declarations of GPS-outage windows. Gaps are admissions
/// against interest — they can only ever weaken the alibi — so the
/// container keeps them alongside the samples and the auditor accounts
/// for them during sufficiency checking.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProofOfAlibi {
    entries: Vec<SignedSample>,
    gaps: Vec<SignedGapMarker>,
}

impl ProofOfAlibi {
    /// Creates an empty PoA.
    pub fn new() -> Self {
        ProofOfAlibi::default()
    }

    /// Creates a PoA from recorded entries.
    pub fn from_entries(entries: Vec<SignedSample>) -> Self {
        ProofOfAlibi {
            entries,
            gaps: Vec::new(),
        }
    }

    /// Appends an authenticated sample.
    pub fn push(&mut self, entry: SignedSample) {
        self.entries.push(entry);
    }

    /// Appends a signed GPS-outage declaration (degraded mode).
    pub fn push_gap(&mut self, gap: SignedGapMarker) {
        self.gaps.push(gap);
    }

    /// The signed entries.
    pub fn entries(&self) -> &[SignedSample] {
        &self.entries
    }

    /// The signed gap markers declared for this flight.
    pub fn gaps(&self) -> &[SignedGapMarker] {
        &self.gaps
    }

    /// The declared outage windows, stripped of signatures — the shape
    /// [`alidrone_geo::sufficiency::check_alibi_with_gaps`] consumes.
    pub fn gap_windows(&self) -> Vec<GapWindow> {
        self.gaps
            .iter()
            .map(|g| GapWindow {
                start: g.start(),
                end: g.end(),
            })
            .collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The *alibi* — the bare GPS trace without signatures (paper §IV-C1:
    /// `alibi := {S₀, S₁, …, Sₙ}`).
    pub fn alibi(&self) -> Vec<GpsSample> {
        self.entries.iter().map(|e| *e.sample()).collect()
    }

    /// Timestamp of the first sample, if any.
    pub fn first_time(&self) -> Option<Timestamp> {
        self.entries.first().map(|e| e.sample().time())
    }

    /// Timestamp of the last sample, if any.
    pub fn last_time(&self) -> Option<Timestamp> {
        self.entries.last().map(|e| e.sample().time())
    }

    /// Serialises to a length-prefixed wire format:
    /// `[count: u32 BE] ([entry_len: u32 BE][entry])*`, followed — only
    /// when gaps were declared — by a gap section
    /// `[gap_count: u32 BE] ([gap_len: u32 BE][gap])*`. Gapless PoAs
    /// keep the original byte layout, so pre-gap images parse unchanged.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_bytes(&e.to_bytes());
        }
        if !self.gaps.is_empty() {
            w.put_u32(self.gaps.len() as u32);
            for g in &self.gaps {
                w.put_bytes(&g.to_bytes());
            }
        }
        w.into_bytes()
    }

    /// Parses the wire format of [`to_bytes`](Self::to_bytes). An image
    /// that ends right after the sample entries (the pre-gap layout)
    /// parses as a PoA with no declared gaps.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Malformed`] on truncation or invalid
    /// entries.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(bytes);
        let count = r.get_count(MIN_ENTRY_LEN)?;
        let mut entries = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            entries.push(
                SignedSample::from_bytes(r.get_bytes()?)
                    .map_err(|_| ProtocolError::Malformed("poa entry"))?,
            );
        }
        let mut gaps = Vec::new();
        if r.remaining() > 0 {
            let gap_count = r.get_count(MIN_GAP_LEN)?;
            gaps.reserve(gap_count.min(1 << 16));
            for _ in 0..gap_count {
                gaps.push(
                    SignedGapMarker::from_bytes(r.get_bytes()?)
                        .map_err(|_| ProtocolError::Malformed("poa gap"))?,
                );
            }
        }
        r.finish()?;
        Ok(ProofOfAlibi { entries, gaps })
    }

    /// Encrypts the PoA for the auditor with `RSAES_PKCS1_v1_5` under the
    /// auditor's public encryption key (paper §IV-C2: the Adapter "is
    /// responsible for encrypting the PoA with the public encryption key
    /// of the AliDrone Server", §V-C).
    ///
    /// RSA encrypts at most `k − 11` bytes per operation, so the wire
    /// bytes are chunked; each chunk becomes one RSA ciphertext block.
    ///
    /// # Errors
    ///
    /// Propagates RSA failures (e.g. an invalid key).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        auditor_key: &RsaPublicKey,
        rng: &mut R,
    ) -> Result<EncryptedPoa, ProtocolError> {
        let plain = self.to_bytes();
        let chunk_size = auditor_key.modulus_len() - 11;
        let mut blocks = Vec::with_capacity(plain.len() / chunk_size + 1);
        for chunk in plain.chunks(chunk_size) {
            blocks.push(auditor_key.encrypt(chunk, rng)?);
        }
        Ok(EncryptedPoa { blocks })
    }
}

impl fmt::Display for ProofOfAlibi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PoA[{} samples", self.len())?;
        if let (Some(a), Some(b)) = (self.first_time(), self.last_time()) {
            write!(f, ", {} → {}", a, b)?;
        }
        if !self.gaps.is_empty() {
            write!(f, ", {} gaps", self.gaps.len())?;
        }
        write!(f, "]")
    }
}

impl FromIterator<SignedSample> for ProofOfAlibi {
    fn from_iter<I: IntoIterator<Item = SignedSample>>(iter: I) -> Self {
        ProofOfAlibi {
            entries: iter.into_iter().collect(),
            gaps: Vec::new(),
        }
    }
}

impl Extend<SignedSample> for ProofOfAlibi {
    fn extend<I: IntoIterator<Item = SignedSample>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// A PoA encrypted for the auditor: a sequence of RSAES-PKCS1-v1.5
/// blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptedPoa {
    blocks: Vec<Vec<u8>>,
}

impl EncryptedPoa {
    /// Reassembles an encrypted PoA from raw ciphertext blocks (e.g.
    /// received over the wire).
    pub fn from_blocks(blocks: Vec<Vec<u8>>) -> Self {
        EncryptedPoa { blocks }
    }

    /// The raw ciphertext blocks.
    pub fn blocks(&self) -> &[Vec<u8>] {
        &self.blocks
    }

    /// Number of RSA blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total ciphertext size in bytes.
    pub fn ciphertext_len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Decrypts with the auditor's private key and reassembles the PoA.
    ///
    /// # Errors
    ///
    /// Returns a crypto error for undecryptable blocks or a
    /// [`ProtocolError::Malformed`] for a corrupted payload.
    pub fn decrypt(&self, auditor_key: &RsaPrivateKey) -> Result<ProofOfAlibi, ProtocolError> {
        let mut plain = Vec::new();
        for block in &self.blocks {
            plain.extend_from_slice(&auditor_key.decrypt(block)?);
        }
        ProofOfAlibi::from_bytes(&plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{auditor_key, signed_samples};

    #[test]
    fn wire_round_trip() {
        let poa = ProofOfAlibi::from_entries(signed_samples(5));
        let rt = ProofOfAlibi::from_bytes(&poa.to_bytes()).unwrap();
        assert_eq!(poa, rt);
    }

    #[test]
    fn empty_poa_round_trip() {
        let poa = ProofOfAlibi::new();
        assert!(poa.is_empty());
        assert!(poa.first_time().is_none());
        let rt = ProofOfAlibi::from_bytes(&poa.to_bytes()).unwrap();
        assert!(rt.is_empty());
    }

    #[test]
    fn from_bytes_rejects_truncation_and_garbage() {
        let poa = ProofOfAlibi::from_entries(signed_samples(3));
        let bytes = poa.to_bytes();
        assert!(ProofOfAlibi::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(ProofOfAlibi::from_bytes(&[1, 2, 3]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ProofOfAlibi::from_bytes(&trailing).is_err());
    }

    #[test]
    fn gap_markers_round_trip_and_stay_backward_compatible() {
        use crate::test_support::signed_gap;
        let mut poa = ProofOfAlibi::from_entries(signed_samples(3));
        poa.push_gap(signed_gap(0.5, 1.5));
        poa.push_gap(signed_gap(1.8, 2.0));
        let rt = ProofOfAlibi::from_bytes(&poa.to_bytes()).unwrap();
        assert_eq!(rt, poa);
        assert_eq!(rt.gaps().len(), 2);
        let windows = rt.gap_windows();
        assert_eq!(windows[0].start.secs(), 0.5);
        assert_eq!(windows[1].end.secs(), 2.0);

        // A gapless PoA keeps the pre-gap byte layout, and those bytes
        // still parse (no gap section required).
        let gapless = ProofOfAlibi::from_entries(signed_samples(3));
        let old_layout = gapless.to_bytes();
        assert!(poa.to_bytes().len() > old_layout.len());
        let parsed = ProofOfAlibi::from_bytes(&old_layout).unwrap();
        assert!(parsed.gaps().is_empty());
    }

    #[test]
    fn truncated_gap_section_is_malformed() {
        use crate::test_support::signed_gap;
        let mut poa = ProofOfAlibi::from_entries(signed_samples(2));
        poa.push_gap(signed_gap(0.2, 0.9));
        let bytes = poa.to_bytes();
        assert!(ProofOfAlibi::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    /// The wire bytes are pinned: the sample section, and the gap
    /// section a gapless PoA leaves out. Entries carry a two-byte
    /// stand-in signature — parsing checks framing, not signatures.
    #[test]
    fn wire_bytes_are_pinned() {
        const GAPLESS: [u8; 70] = [
            0, 0, 0, 2, // entry count
            0, 0, 0, 29, // entry 0 length
            2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0, 0, 2,
            0xAB, 0xCD, //
            0, 0, 0, 29, // entry 1 length
            2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 2,
            0xAB, 0xCD,
        ];
        const GAP_SECTION: [u8; 29] = [
            0, 0, 0, 1, // gap count
            0, 0, 0, 21, // gap 0 length
            2, 0x3F, 0xE0, 0, 0, 0, 0, 0, 0, 0x3F, 0xF8, 0, 0, 0, 0, 0, 0, 0, 2, 0xEF, 0x01,
        ];
        let entry = |bytes: &[u8]| SignedSample::from_bytes(bytes).unwrap();
        let gapless =
            ProofOfAlibi::from_entries(vec![entry(&GAPLESS[8..37]), entry(&GAPLESS[41..70])]);
        assert_eq!(gapless.to_bytes(), GAPLESS);
        assert_eq!(ProofOfAlibi::from_bytes(&GAPLESS).unwrap(), gapless);

        let mut gapped = gapless.clone();
        gapped.push_gap(SignedGapMarker::from_bytes(&GAP_SECTION[8..]).unwrap());
        let expected = [&GAPLESS[..], &GAP_SECTION[..]].concat();
        assert_eq!(gapped.to_bytes(), expected);
        assert_eq!(ProofOfAlibi::from_bytes(&expected).unwrap(), gapped);
    }

    #[test]
    fn alibi_strips_signatures() {
        let poa = ProofOfAlibi::from_entries(signed_samples(4));
        let alibi = poa.alibi();
        assert_eq!(alibi.len(), 4);
        assert!(alidrone_geo::check_monotonic(&alibi).is_ok());
    }

    #[test]
    fn times_are_first_and_last() {
        let poa = ProofOfAlibi::from_entries(signed_samples(4));
        assert!(poa.first_time().unwrap() < poa.last_time().unwrap());
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        use alidrone_crypto::rng::XorShift64;
        let mut rng = XorShift64::seed_from_u64(5);
        let poa = ProofOfAlibi::from_entries(signed_samples(6));
        let enc = poa.encrypt(auditor_key().public_key(), &mut rng).unwrap();
        assert!(enc.block_count() > 1, "multi-block for realistic sizes");
        assert!(enc.ciphertext_len() >= poa.to_bytes().len());
        let dec = enc.decrypt(auditor_key()).unwrap();
        assert_eq!(dec, poa);
    }

    #[test]
    fn decrypt_with_wrong_key_fails() {
        use alidrone_crypto::rng::XorShift64;
        let mut rng = XorShift64::seed_from_u64(6);
        let poa = ProofOfAlibi::from_entries(signed_samples(2));
        let enc = poa.encrypt(auditor_key().public_key(), &mut rng).unwrap();
        let other = alidrone_crypto::rsa::RsaPrivateKey::generate(512, &mut rng);
        assert!(enc.decrypt(&other).is_err());
    }

    #[test]
    fn collect_and_extend() {
        let mut poa: ProofOfAlibi = signed_samples(2).into_iter().collect();
        poa.extend(signed_samples(2));
        assert_eq!(poa.len(), 4);
    }
}
