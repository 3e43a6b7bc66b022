//! The normal-world client API (the GlobalPlatform TEE Client API of
//! Fig. 1, as seen by the Adapter daemon).

use std::fmt;

use alidrone_crypto::rsa::RsaPublicKey;
use alidrone_geo::GpsSample;

use crate::keystore::SIGN_HASH;
use crate::world::Param;
use crate::{SecureWorld, SignedSample, TeeError, Uuid, CMD_GET_GPS_AUTH, CMD_READ_GPS_RAW};

/// A normal-world handle to the TEE. All it can do is open sessions to
/// trusted applications and read public metadata — private key material
/// never crosses this boundary.
#[derive(Clone)]
pub struct TeeClient {
    world: SecureWorld,
}

impl TeeClient {
    pub(crate) fn new(world: SecureWorld) -> Self {
        TeeClient { world }
    }

    /// Opens a session to the trusted application `uuid`.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ItemNotFound`] when no TA with that UUID is
    /// installed (tee-supplicant could not locate it).
    pub fn open_session(&self, uuid: Uuid) -> Result<TeeSession, TeeError> {
        if !self.world.has_ta(uuid) {
            return Err(TeeError::ItemNotFound);
        }
        Ok(TeeSession {
            world: self.world.clone(),
            uuid,
        })
    }

    /// The TEE verification key `T⁺`, which the drone operator submits
    /// to the auditor at registration (paper §IV-B step 0).
    pub fn tee_public_key(&self) -> RsaPublicKey {
        self.world.inner.public_key()
    }
}

impl fmt::Debug for TeeClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeClient").finish_non_exhaustive()
    }
}

/// An open session to a trusted application.
#[derive(Clone)]
pub struct TeeSession {
    world: SecureWorld,
    uuid: Uuid,
}

impl TeeSession {
    /// The UUID of the TA this session talks to.
    pub fn uuid(&self) -> Uuid {
        self.uuid
    }

    /// Raw command invocation (crosses the modelled world boundary and
    /// pays its cost).
    ///
    /// # Errors
    ///
    /// Propagates the TA's `TEE_Result`-style error.
    pub fn invoke(&self, cmd: u32, params: &[Param]) -> Result<Vec<Param>, TeeError> {
        self.world.smc_invoke(self.uuid, cmd, params)
    }

    /// `GetGPSAuth` (paper §IV-C2): ask the GPS Sampler TA for the
    /// current sample signed under `T⁻`.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NoData`] when the receiver has no fix, plus
    /// any dispatch errors.
    pub fn get_gps_auth(&self) -> Result<SignedSample, TeeError> {
        let out = self.invoke(CMD_GET_GPS_AUTH, &[])?;
        if out.len() != 2 {
            return Err(TeeError::MalformedData("GetGPSAuth output arity"));
        }
        let sample_bytes: [u8; 24] = out[0]
            .as_bytes()?
            .try_into()
            .map_err(|_| TeeError::MalformedData("sample length"))?;
        let sample = GpsSample::from_bytes(&sample_bytes)
            .map_err(|_| TeeError::MalformedData("sample coordinates"))?;
        Ok(SignedSample::from_parts(
            sample,
            out[1].as_bytes()?.to_vec(),
            SIGN_HASH,
        ))
    }

    /// 3-D `GetGPSAuth` (paper §VII-B1): the 4-tuple sample signed under
    /// `T⁻`. Requires the world to have a 3-D GPS device.
    ///
    /// # Errors
    ///
    /// [`TeeError::MissingComponent`] without a 3-D device,
    /// [`TeeError::NoData`] without a fix.
    pub fn get_gps_auth_3d(&self) -> Result<crate::SignedSample3d, TeeError> {
        let out = self.invoke(crate::CMD_GET_GPS_AUTH_3D, &[])?;
        if out.len() != 2 {
            return Err(TeeError::MalformedData("GetGPSAuth3d output arity"));
        }
        let bytes: [u8; 32] = out[0]
            .as_bytes()?
            .try_into()
            .map_err(|_| TeeError::MalformedData("sample3d length"))?;
        let sample = alidrone_geo::three_d::GpsSample3d::from_bytes(&bytes)
            .map_err(|_| TeeError::MalformedData("sample3d fields"))?;
        Ok(crate::SignedSample3d::from_parts(
            sample,
            out[1].as_bytes()?.to_vec(),
            SIGN_HASH,
        ))
    }

    /// Batch mode (paper §VII-A1b): sample the GPS into the secure cache
    /// without signing. Returns the number of cached samples.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NoData`] when the receiver has no fix.
    pub fn cache_sample(&self) -> Result<u64, TeeError> {
        let out = self.invoke(crate::CMD_CACHE_SAMPLE, &[])?;
        out.first()
            .ok_or(TeeError::MalformedData("empty output"))?
            .as_value()
    }

    /// Batch mode: sign the whole cached trace with one RSA operation and
    /// clear the cache.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NoData`] when nothing has been cached.
    pub fn sign_trace(&self) -> Result<crate::SignedTrace, TeeError> {
        let out = self.invoke(crate::CMD_SIGN_TRACE, &[])?;
        if out.len() != 2 {
            return Err(TeeError::MalformedData("SignTrace output arity"));
        }
        crate::SignedTrace::from_parts(
            out[0].as_bytes()?.to_vec(),
            out[1].as_bytes()?.to_vec(),
            SIGN_HASH,
        )
    }

    /// Degraded mode: ask the TEE to sign a declared GPS-outage window
    /// `[start, end]`. A forged gap only ever weakens the alibi (it is
    /// an admission against interest), so the normal world may initiate
    /// this freely.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadParameters`] for a non-finite or inverted
    /// window, plus any dispatch errors.
    pub fn sign_gap(
        &self,
        start: alidrone_geo::Timestamp,
        end: alidrone_geo::Timestamp,
    ) -> Result<crate::SignedGapMarker, TeeError> {
        let mut window = Vec::with_capacity(16);
        window.extend_from_slice(&start.secs().to_be_bytes());
        window.extend_from_slice(&end.secs().to_be_bytes());
        let out = self.invoke(crate::CMD_SIGN_GAP, &[Param::Bytes(window)])?;
        if out.len() != 1 {
            return Err(TeeError::MalformedData("SignGap output arity"));
        }
        Ok(crate::SignedGapMarker::from_parts(
            start,
            end,
            out[0].as_bytes()?.to_vec(),
            SIGN_HASH,
        ))
    }

    /// Reads the raw (unsigned) sample the secure-world driver sees.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::NoData`] when the receiver has no fix.
    pub fn read_gps_raw(&self) -> Result<GpsSample, TeeError> {
        let out = self.invoke(CMD_READ_GPS_RAW, &[])?;
        let bytes: [u8; 24] = out
            .first()
            .ok_or(TeeError::MalformedData("empty output"))?
            .as_bytes()?
            .try_into()
            .map_err(|_| TeeError::MalformedData("sample length"))?;
        GpsSample::from_bytes(&bytes).map_err(|_| TeeError::MalformedData("sample coordinates"))
    }
}

impl fmt::Debug for TeeSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeSession")
            .field("uuid", &self.uuid)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_key, TestReceiver};
    use crate::{CostModel, SecureWorldBuilder, GPS_SAMPLER_UUID};
    use alidrone_obs::Obs;

    fn client() -> TeeClient {
        SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_gps_device(Box::new(TestReceiver::fixed(40.1, -88.2, 12.0)))
            .with_cost_model(CostModel::free())
            .build()
            .unwrap()
            .client()
    }

    #[test]
    fn open_session_to_known_ta() {
        let c = client();
        let s = c.open_session(GPS_SAMPLER_UUID).unwrap();
        assert_eq!(s.uuid(), GPS_SAMPLER_UUID);
    }

    #[test]
    fn open_session_to_unknown_ta_fails() {
        let c = client();
        assert_eq!(
            c.open_session(Uuid::from_u128(1)).err(),
            Some(TeeError::ItemNotFound)
        );
    }

    #[test]
    fn get_gps_auth_verifies_under_public_key() {
        let c = client();
        let s = c.open_session(GPS_SAMPLER_UUID).unwrap();
        let signed = s.get_gps_auth().unwrap();
        signed.verify(&c.tee_public_key()).unwrap();
        assert!((signed.sample().lat_deg() - 40.1).abs() < 1e-4);
        assert!((signed.sample().time().secs() - 12.0).abs() < 0.01);
    }

    #[test]
    fn tampered_sample_fails_verification() {
        let c = client();
        let s = c.open_session(GPS_SAMPLER_UUID).unwrap();
        let signed = s.get_gps_auth().unwrap();
        // Move the claimed position: forged alibi.
        let forged_sample = GpsSample::new(
            alidrone_geo::GeoPoint::new(41.0, -88.2).unwrap(),
            signed.sample().time(),
        );
        let forged = SignedSample::from_parts(
            forged_sample,
            signed.signature().to_vec(),
            signed.hash_alg(),
        );
        assert_eq!(
            forged.verify(&c.tee_public_key()),
            Err(TeeError::SignatureInvalid)
        );
    }

    #[test]
    fn read_gps_raw_matches_signed_position() {
        let c = client();
        let s = c.open_session(GPS_SAMPLER_UUID).unwrap();
        let raw = s.read_gps_raw().unwrap();
        let signed = s.get_gps_auth().unwrap();
        assert!(raw.point().distance_to(&signed.sample().point()).meters() < 0.5);
    }

    #[test]
    fn batch_mode_caches_then_signs_once() {
        let obs = Obs::noop();
        let c = SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_gps_device(Box::new(TestReceiver::fixed(40.1, -88.2, 12.0)))
            .with_obs(&obs)
            .build()
            .unwrap()
            .client();
        let s = c.open_session(GPS_SAMPLER_UUID).unwrap();
        assert_eq!(s.cache_sample().unwrap(), 1);
        assert_eq!(s.cache_sample().unwrap(), 2);
        assert_eq!(s.cache_sample().unwrap(), 3);
        // No signatures were produced while caching.
        assert_eq!(obs.snapshot().counter("tee.signatures"), 0);
        let trace = s.sign_trace().unwrap();
        assert_eq!(trace.samples().len(), 3);
        trace.verify(&c.tee_public_key()).unwrap();
        assert_eq!(obs.snapshot().counter("tee.signatures"), 1);
        // Cache was cleared by signing.
        assert_eq!(s.sign_trace().err(), Some(TeeError::NoData));
    }

    #[test]
    fn tampered_batch_trace_rejected() {
        let c = client();
        let s = c.open_session(GPS_SAMPLER_UUID).unwrap();
        s.cache_sample().unwrap();
        s.cache_sample().unwrap();
        let trace = s.sign_trace().unwrap();
        // Rebuild with one sample's bytes altered.
        let mut bytes: Vec<u8> = trace
            .samples()
            .iter()
            .flat_map(|smp| smp.to_bytes())
            .collect();
        bytes[30] ^= 0x01;
        let forged = crate::SignedTrace::from_parts(
            bytes,
            trace.signature().to_vec(),
            alidrone_crypto::rsa::HashAlg::Sha1,
        )
        .unwrap();
        assert_eq!(
            forged.verify(&c.tee_public_key()),
            Err(TeeError::SignatureInvalid)
        );
    }

    #[test]
    fn sign_gap_verifies_and_rejects_inverted_window() {
        use alidrone_geo::Timestamp;
        let c = client();
        let s = c.open_session(GPS_SAMPLER_UUID).unwrap();
        let marker = s
            .sign_gap(Timestamp::from_secs(10.0), Timestamp::from_secs(20.0))
            .unwrap();
        marker.verify(&c.tee_public_key()).unwrap();
        // A tampered window fails verification.
        let forged = crate::SignedGapMarker::from_parts(
            Timestamp::from_secs(10.0),
            Timestamp::from_secs(15.0),
            marker.signature().to_vec(),
            marker.hash_alg(),
        );
        assert_eq!(
            forged.verify(&c.tee_public_key()),
            Err(TeeError::SignatureInvalid)
        );
        // Inverted windows never reach the signer.
        assert!(matches!(
            s.sign_gap(Timestamp::from_secs(20.0), Timestamp::from_secs(10.0)),
            Err(TeeError::BadParameters(_))
        ));
    }

    #[test]
    fn signature_from_wrong_tee_rejected() {
        // Relay attack: a sample signed by drone A presented as drone B's.
        let a = client();
        let mut rng = alidrone_crypto::rng::XorShift64::seed_from_u64(777);
        let other_world = SecureWorldBuilder::new()
            .with_generated_key(512, &mut rng)
            .build()
            .unwrap();
        let sa = a.open_session(GPS_SAMPLER_UUID).unwrap();
        let signed = sa.get_gps_auth().unwrap();
        assert_eq!(
            signed.verify(&other_world.client().tee_public_key()),
            Err(TeeError::SignatureInvalid)
        );
    }
}
