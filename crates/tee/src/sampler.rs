//! The GPS Sampler trusted application and its output type.
//!
//! The GPS Sampler "runs in non-privileged mode in the secure world. It
//! exposes an interface `GetGPSAuth` to the Adapter to produce an
//! authenticated GPS sample. It reads the parsed GPS data from the
//! underlying GPS Driver and signs the data with the TEE sign key `T⁻`"
//! (paper §IV-C2).

use std::fmt;

use alidrone_crypto::rsa::{HashAlg, RsaPublicKey, RsaVerifier};
use alidrone_geo::three_d::GpsSample3d;
use alidrone_geo::GpsSample;

use alidrone_geo::Timestamp;

use crate::world::{Param, WorldInner};
use crate::{
    TeeError, CMD_CACHE_SAMPLE, CMD_GET_GPS_AUTH, CMD_GET_GPS_AUTH_3D, CMD_GET_PUBLIC_KEY,
    CMD_READ_GPS_RAW, CMD_SIGN_GAP, CMD_SIGN_TRACE,
};

/// Secure-storage object id for the batch-mode sample cache.
const TRACE_CACHE_ID: &str = "gps-sampler/trace-cache";

/// An authenticated GPS sample: the atom of a Proof-of-Alibi.
///
/// `PoA = {(S₀, Sig(S₀, T⁻)), (S₁, Sig(S₁, T⁻)), …}` — this type is one
/// element of that sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedSample {
    sample: GpsSample,
    signature: Vec<u8>,
    hash_alg: HashAlg,
}

impl SignedSample {
    /// Reassembles a signed sample from its parts (e.g. after network
    /// transfer). No verification is performed here — call
    /// [`verify`](Self::verify).
    pub fn from_parts(sample: GpsSample, signature: Vec<u8>, hash_alg: HashAlg) -> Self {
        SignedSample {
            sample,
            signature,
            hash_alg,
        }
    }

    /// The GPS sample.
    pub fn sample(&self) -> &GpsSample {
        &self.sample
    }

    /// The TEE signature over [`GpsSample::to_bytes`].
    pub fn signature(&self) -> &[u8] {
        &self.signature
    }

    /// The hash algorithm inside the signature.
    pub fn hash_alg(&self) -> HashAlg {
        self.hash_alg
    }

    /// Verifies the signature under the TEE verification key `T⁺`.
    ///
    /// One-shot convenience over [`verify_with`](Self::verify_with) —
    /// callers checking many samples under the same key should prepare
    /// an [`RsaVerifier`] once and reuse it.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SignatureInvalid`] when the signature does not
    /// verify (tampered sample, tampered signature, or wrong drone key).
    pub fn verify(&self, tee_public: &RsaPublicKey) -> Result<(), TeeError> {
        self.verify_with(&tee_public.verifier())
    }

    /// Verifies the signature with a prepared `T⁺` verifier, skipping
    /// the per-key precomputation.
    ///
    /// # Errors
    ///
    /// Same as [`verify`](Self::verify).
    pub fn verify_with(&self, verifier: &RsaVerifier) -> Result<(), TeeError> {
        verifier
            .verify(&self.sample.to_bytes(), &self.signature, self.hash_alg)
            .map_err(|_| TeeError::SignatureInvalid)
    }

    /// Serialises to the wire format
    /// `[alg: u8][sample: 24B][sig_len: u16 BE][sig]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(27 + self.signature.len());
        out.push(match self.hash_alg {
            HashAlg::Sha1 => 1,
            HashAlg::Sha256 => 2,
        });
        out.extend_from_slice(&self.sample.to_bytes());
        out.extend_from_slice(&(self.signature.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses the wire format produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::MalformedData`] on truncation or unknown
    /// algorithm tags.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TeeError> {
        if bytes.len() < 27 {
            return Err(TeeError::MalformedData("signed sample too short"));
        }
        let hash_alg = match bytes[0] {
            1 => HashAlg::Sha1,
            2 => HashAlg::Sha256,
            _ => return Err(TeeError::MalformedData("unknown hash algorithm tag")),
        };
        let sample_bytes: [u8; 24] = bytes[1..25].try_into().expect("24 bytes");
        let sample = GpsSample::from_bytes(&sample_bytes)
            .map_err(|_| TeeError::MalformedData("invalid sample coordinates"))?;
        let sig_len = u16::from_be_bytes([bytes[25], bytes[26]]) as usize;
        if bytes.len() != 27 + sig_len {
            return Err(TeeError::MalformedData("signature length mismatch"));
        }
        Ok(SignedSample {
            sample,
            signature: bytes[27..].to_vec(),
            hash_alg,
        })
    }
}

impl fmt::Display for SignedSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "signed {}", self.sample)
    }
}

/// An authenticated 3-D GPS sample (paper §VII-B1): the 4-tuple
/// `(lat, lon, alt, t)` signed under `T⁻`.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedSample3d {
    sample: GpsSample3d,
    signature: Vec<u8>,
    hash_alg: HashAlg,
}

impl SignedSample3d {
    /// Reassembles a signed 3-D sample from its parts.
    pub fn from_parts(sample: GpsSample3d, signature: Vec<u8>, hash_alg: HashAlg) -> Self {
        SignedSample3d {
            sample,
            signature,
            hash_alg,
        }
    }

    /// The 3-D sample.
    pub fn sample(&self) -> &GpsSample3d {
        &self.sample
    }

    /// The TEE signature over [`GpsSample3d::to_bytes`].
    pub fn signature(&self) -> &[u8] {
        &self.signature
    }

    /// Verifies the signature under `T⁺`.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SignatureInvalid`] on any tampering —
    /// including of the altitude, which is the field a dishonest
    /// operator would forge to turn a low pass into a legal overflight.
    pub fn verify(&self, tee_public: &RsaPublicKey) -> Result<(), TeeError> {
        self.verify_with(&tee_public.verifier())
    }

    /// Verifies with a prepared `T⁺` verifier.
    ///
    /// # Errors
    ///
    /// Same as [`verify`](Self::verify).
    pub fn verify_with(&self, verifier: &RsaVerifier) -> Result<(), TeeError> {
        verifier
            .verify(&self.sample.to_bytes(), &self.signature, self.hash_alg)
            .map_err(|_| TeeError::SignatureInvalid)
    }
}

/// Domain separator for gap-marker signing bytes. The serialised marker
/// is 23 bytes — never 24 (a [`GpsSample`]) nor a multiple of 24 (a
/// batch trace) — so a gap signature can never be replayed as a sample
/// signature or vice versa.
const GAP_DOMAIN: &[u8; 7] = b"ALIDGAP";

/// A signed declaration that the sampler had **no usable GPS fix** over
/// `[start, end]` (degraded-mode operation).
///
/// When the receiver goes stale mid-flight the paper's prototype would
/// simply record nothing, leaving an unmarked hole in the sample stream.
/// A gap marker turns the hole into attested evidence: the auditor's
/// sufficiency check inflates the travel budget of pairs overlapping a
/// declared gap, so missing samples *weaken* the alibi instead of
/// vanishing.
///
/// Gap signing is safe to expose to the (adversarial) normal world: a
/// forged or spurious gap is an admission against interest — it can only
/// make the drone's alibi weaker, never stronger.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedGapMarker {
    start: Timestamp,
    end: Timestamp,
    signature: Vec<u8>,
    hash_alg: HashAlg,
}

impl SignedGapMarker {
    /// Reassembles a gap marker from its parts. No verification is
    /// performed here — call [`verify`](Self::verify).
    pub fn from_parts(
        start: Timestamp,
        end: Timestamp,
        signature: Vec<u8>,
        hash_alg: HashAlg,
    ) -> Self {
        SignedGapMarker {
            start,
            end,
            signature,
            hash_alg,
        }
    }

    /// When the outage began.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// When a fix next became available (or the flight ended).
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// The TEE signature over the domain-separated gap bytes.
    pub fn signature(&self) -> &[u8] {
        &self.signature
    }

    /// The hash algorithm inside the signature.
    pub fn hash_alg(&self) -> HashAlg {
        self.hash_alg
    }

    /// The bytes the TEE signs: `"ALIDGAP" || start f64 BE || end f64 BE`.
    pub fn signing_bytes(start: Timestamp, end: Timestamp) -> [u8; 23] {
        let mut out = [0u8; 23];
        out[..7].copy_from_slice(GAP_DOMAIN);
        out[7..15].copy_from_slice(&start.secs().to_be_bytes());
        out[15..23].copy_from_slice(&end.secs().to_be_bytes());
        out
    }

    /// Verifies the signature under the TEE verification key `T⁺`.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SignatureInvalid`] on tampering.
    pub fn verify(&self, tee_public: &RsaPublicKey) -> Result<(), TeeError> {
        self.verify_with(&tee_public.verifier())
    }

    /// Verifies with a prepared `T⁺` verifier.
    ///
    /// # Errors
    ///
    /// Same as [`verify`](Self::verify).
    pub fn verify_with(&self, verifier: &RsaVerifier) -> Result<(), TeeError> {
        verifier
            .verify(
                &Self::signing_bytes(self.start, self.end),
                &self.signature,
                self.hash_alg,
            )
            .map_err(|_| TeeError::SignatureInvalid)
    }

    /// Serialises to the wire format
    /// `[alg: u8][start: f64 BE][end: f64 BE][sig_len: u16 BE][sig]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(19 + self.signature.len());
        out.push(match self.hash_alg {
            HashAlg::Sha1 => 1,
            HashAlg::Sha256 => 2,
        });
        out.extend_from_slice(&self.start.secs().to_be_bytes());
        out.extend_from_slice(&self.end.secs().to_be_bytes());
        out.extend_from_slice(&(self.signature.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses the wire format produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::MalformedData`] on truncation, non-finite
    /// times, an inverted window, or unknown algorithm tags.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TeeError> {
        if bytes.len() < 19 {
            return Err(TeeError::MalformedData("gap marker too short"));
        }
        let hash_alg = match bytes[0] {
            1 => HashAlg::Sha1,
            2 => HashAlg::Sha256,
            _ => return Err(TeeError::MalformedData("unknown hash algorithm tag")),
        };
        let start = f64::from_be_bytes(bytes[1..9].try_into().expect("8 bytes"));
        let end = f64::from_be_bytes(bytes[9..17].try_into().expect("8 bytes"));
        if !start.is_finite() || !end.is_finite() || end <= start {
            return Err(TeeError::MalformedData("invalid gap window"));
        }
        let sig_len = u16::from_be_bytes([bytes[17], bytes[18]]) as usize;
        if bytes.len() != 19 + sig_len {
            return Err(TeeError::MalformedData("signature length mismatch"));
        }
        Ok(SignedGapMarker {
            start: Timestamp::from_secs(start),
            end: Timestamp::from_secs(end),
            signature: bytes[19..].to_vec(),
            hash_alg,
        })
    }
}

impl fmt::Display for SignedGapMarker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "signed gap [{:.3}, {:.3}]",
            self.start.secs(),
            self.end.secs()
        )
    }
}

/// A whole GPS trace signed with a single RSA operation — the output of
/// batch mode (paper §VII-A1b). Compare with per-sample [`SignedSample`]s:
/// one signature amortised over the flight instead of one per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedTrace {
    samples: Vec<GpsSample>,
    trace_bytes: Vec<u8>,
    signature: Vec<u8>,
    hash_alg: HashAlg,
}

impl SignedTrace {
    /// Reassembles a signed trace from the raw concatenated sample bytes
    /// and the signature over them.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::MalformedData`] if `trace_bytes` is not a
    /// whole number of 24-byte samples or contains invalid coordinates.
    pub fn from_parts(
        trace_bytes: Vec<u8>,
        signature: Vec<u8>,
        hash_alg: HashAlg,
    ) -> Result<Self, TeeError> {
        if trace_bytes.is_empty() || !trace_bytes.len().is_multiple_of(24) {
            return Err(TeeError::MalformedData("trace length not 24-byte aligned"));
        }
        let mut samples = Vec::with_capacity(trace_bytes.len() / 24);
        for chunk in trace_bytes.chunks_exact(24) {
            let arr: [u8; 24] = chunk.try_into().expect("24 bytes");
            samples.push(
                GpsSample::from_bytes(&arr)
                    .map_err(|_| TeeError::MalformedData("invalid sample in trace"))?,
            );
        }
        Ok(SignedTrace {
            samples,
            trace_bytes,
            signature,
            hash_alg,
        })
    }

    /// The decoded samples.
    pub fn samples(&self) -> &[GpsSample] {
        &self.samples
    }

    /// The signature over the concatenated sample bytes.
    pub fn signature(&self) -> &[u8] {
        &self.signature
    }

    /// Verifies the single trace signature under `T⁺`.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SignatureInvalid`] on any tampering.
    pub fn verify(&self, tee_public: &RsaPublicKey) -> Result<(), TeeError> {
        self.verify_with(&tee_public.verifier())
    }

    /// Verifies with a prepared `T⁺` verifier.
    ///
    /// # Errors
    ///
    /// Same as [`verify`](Self::verify).
    pub fn verify_with(&self, verifier: &RsaVerifier) -> Result<(), TeeError> {
        verifier
            .verify(&self.trace_bytes, &self.signature, self.hash_alg)
            .map_err(|_| TeeError::SignatureInvalid)
    }
}

/// Secure-world command dispatch for the GPS Sampler TA.
pub(crate) fn invoke(
    world: &WorldInner,
    cmd: u32,
    params: &[Param],
) -> Result<Vec<Param>, TeeError> {
    match cmd {
        CMD_GET_GPS_AUTH => {
            if !params.is_empty() {
                return Err(TeeError::BadParameters("GetGPSAuth takes no parameters"));
            }
            let sample = world.driver_read_gps_checked()?;
            let bytes = sample.to_bytes();
            let signature = world.keystore_sign(&bytes)?;
            Ok(vec![Param::Bytes(bytes.to_vec()), Param::Bytes(signature)])
        }
        CMD_GET_PUBLIC_KEY => {
            let pk = world.public_key();
            Ok(vec![
                Param::Bytes(pk.modulus().to_bytes_be()),
                Param::Bytes(pk.exponent().to_bytes_be()),
            ])
        }
        CMD_GET_GPS_AUTH_3D => {
            if !params.is_empty() {
                return Err(TeeError::BadParameters("GetGPSAuth3d takes no parameters"));
            }
            let sample = world.driver_read_gps_3d_checked()?;
            let bytes = sample.to_bytes();
            let signature = world.keystore_sign(&bytes)?;
            Ok(vec![Param::Bytes(bytes.to_vec()), Param::Bytes(signature)])
        }
        CMD_READ_GPS_RAW => {
            let sample = world.driver_read_gps()?;
            Ok(vec![Param::Bytes(sample.to_bytes().to_vec())])
        }
        CMD_CACHE_SAMPLE => {
            // §VII-A1b: "caches the GPS samples in the secure memory and
            // sign the whole trace at once. This is feasible because the
            // flight time of drones are usually no more than 30 minutes
            // and the size of each GPS sample is small."
            let sample = world.driver_read_gps_checked()?;
            let mut storage = world.storage_mut();
            let mut buf = storage.get(TRACE_CACHE_ID).unwrap_or(&[]).to_vec();
            buf.extend_from_slice(&sample.to_bytes());
            let count = (buf.len() / 24) as u64;
            storage.put(TRACE_CACHE_ID, buf);
            Ok(vec![Param::Value(count)])
        }
        CMD_SIGN_TRACE => {
            let mut storage = world.storage_mut();
            let trace = storage
                .delete(TRACE_CACHE_ID)
                .map_err(|_| TeeError::NoData)?;
            drop(storage);
            if trace.is_empty() {
                return Err(TeeError::NoData);
            }
            let signature = world.keystore_sign(&trace)?;
            Ok(vec![Param::Bytes(trace), Param::Bytes(signature)])
        }
        CMD_SIGN_GAP => {
            // Degraded mode: attest a GPS outage window. The window
            // arrives from the (untrusted) normal world, which is safe
            // because a declared gap only ever weakens the alibi.
            let [Param::Bytes(window)] = params else {
                return Err(TeeError::BadParameters("SignGap takes one byte buffer"));
            };
            if window.len() != 16 {
                return Err(TeeError::BadParameters("SignGap window must be 16 bytes"));
            }
            let start = f64::from_be_bytes(window[..8].try_into().expect("8 bytes"));
            let end = f64::from_be_bytes(window[8..].try_into().expect("8 bytes"));
            if !start.is_finite() || !end.is_finite() || end <= start {
                return Err(TeeError::BadParameters("SignGap window invalid"));
            }
            let bytes = SignedGapMarker::signing_bytes(
                Timestamp::from_secs(start),
                Timestamp::from_secs(end),
            );
            let signature = world.keystore_sign(&bytes)?;
            Ok(vec![Param::Bytes(signature)])
        }
        other => Err(TeeError::NotSupported(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alidrone_geo::{GeoPoint, Timestamp};

    fn sample() -> GpsSample {
        GpsSample::new(
            GeoPoint::new(40.1, -88.2).unwrap(),
            Timestamp::from_secs(17.5),
        )
    }

    #[test]
    fn wire_round_trip() {
        let s = SignedSample::from_parts(sample(), vec![0xAA; 64], HashAlg::Sha1);
        let rt = SignedSample::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(s, rt);
    }

    #[test]
    fn wire_round_trip_sha256() {
        let s = SignedSample::from_parts(sample(), vec![0x55; 128], HashAlg::Sha256);
        let rt = SignedSample::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(rt.hash_alg(), HashAlg::Sha256);
        assert_eq!(rt.signature().len(), 128);
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let s = SignedSample::from_parts(sample(), vec![0xAA; 64], HashAlg::Sha1);
        let bytes = s.to_bytes();
        assert!(SignedSample::from_bytes(&bytes[..10]).is_err());
        assert!(SignedSample::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn from_bytes_rejects_unknown_alg() {
        let s = SignedSample::from_parts(sample(), vec![0xAA; 4], HashAlg::Sha1);
        let mut bytes = s.to_bytes();
        bytes[0] = 9;
        assert_eq!(
            SignedSample::from_bytes(&bytes),
            Err(TeeError::MalformedData("unknown hash algorithm tag"))
        );
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let s = SignedSample::from_parts(sample(), vec![0xAA; 4], HashAlg::Sha1);
        let mut bytes = s.to_bytes();
        bytes.push(0);
        assert!(SignedSample::from_bytes(&bytes).is_err());
    }

    #[test]
    fn gap_marker_wire_round_trip() {
        let g = SignedGapMarker::from_parts(
            Timestamp::from_secs(10.0),
            Timestamp::from_secs(14.5),
            vec![0xBB; 64],
            HashAlg::Sha1,
        );
        let rt = SignedGapMarker::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(g, rt);
        assert_eq!(rt.start().secs(), 10.0);
        assert_eq!(rt.end().secs(), 14.5);
    }

    #[test]
    fn gap_marker_rejects_inverted_or_truncated() {
        let g = SignedGapMarker::from_parts(
            Timestamp::from_secs(5.0),
            Timestamp::from_secs(2.0),
            vec![0xBB; 8],
            HashAlg::Sha1,
        );
        assert!(SignedGapMarker::from_bytes(&g.to_bytes()).is_err());
        let ok = SignedGapMarker::from_parts(
            Timestamp::from_secs(2.0),
            Timestamp::from_secs(5.0),
            vec![0xBB; 8],
            HashAlg::Sha1,
        );
        let bytes = ok.to_bytes();
        assert!(SignedGapMarker::from_bytes(&bytes[..10]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SignedGapMarker::from_bytes(&trailing).is_err());
    }

    #[test]
    fn gap_signing_bytes_cannot_collide_with_samples() {
        // 23 bytes: not a 24-byte sample, not a multiple of 24 (trace).
        let b =
            SignedGapMarker::signing_bytes(Timestamp::from_secs(0.0), Timestamp::from_secs(1.0));
        assert_eq!(b.len(), 23);
        assert_eq!(&b[..7], b"ALIDGAP");
    }
}
