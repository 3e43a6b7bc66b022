//! The secure world: OP-TEE core state and the SMC dispatch boundary.

use std::fmt;
use std::sync::Arc;

use alidrone_crypto::rng::Rng;
use alidrone_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use alidrone_geo::three_d::GpsSample3d;
use alidrone_geo::{GpsSample, Timestamp};
use alidrone_gps::nmea_feed::{burst_to_sample, fix_to_burst};
use alidrone_gps::{GpsDevice, GpsDevice3d};
use alidrone_obs::{Counter, Histogram, Level, Obs};
use std::sync::Mutex;

use crate::keystore::KeyStore;
use crate::spoof::{Environment, SpoofDetector, TrustingDetector};
use crate::{sampler, CostModel, SecureStorage, TeeClient, TeeError, Uuid};

/// A GlobalPlatform-style invocation parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// A pair of 32-bit values packed as one u64 (`TEE_PARAM_TYPE_VALUE`).
    Value(u64),
    /// A memory reference (`TEE_PARAM_TYPE_MEMREF`).
    Bytes(Vec<u8>),
}

impl Param {
    /// The byte payload of a `Bytes` parameter.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadParameters`] for a `Value` parameter.
    pub fn as_bytes(&self) -> Result<&[u8], TeeError> {
        match self {
            Param::Bytes(b) => Ok(b),
            Param::Value(_) => Err(TeeError::BadParameters("expected memref parameter")),
        }
    }

    /// The numeric payload of a `Value` parameter.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadParameters`] for a `Bytes` parameter.
    pub fn as_value(&self) -> Result<u64, TeeError> {
        match self {
            Param::Value(v) => Ok(*v),
            Param::Bytes(_) => Err(TeeError::BadParameters("expected value parameter")),
        }
    }
}

/// Pre-registered secure-world metric handles: the world's one account
/// of its work. The counters say how often each secure-world operation
/// ran; each time one runs, its `tee.cost.*` histogram records its
/// *modelled* cost from the [`CostModel`], so each histogram's count
/// equals its counter and the three histogram sums add up to the
/// modelled busy time on the calibrated target.
struct TeeMetrics {
    world_switches: Arc<Counter>,
    smc_invokes: Arc<Counter>,
    signatures: Arc<Counter>,
    /// Signature count by key size (`tee.signatures.rsa_<bits>`).
    signatures_by_bits: Arc<Counter>,
    gps_reads: Arc<Counter>,
    cost_world_switch: Arc<Histogram>,
    cost_sign: Arc<Histogram>,
    cost_read_gps: Arc<Histogram>,
}

impl TeeMetrics {
    fn new(obs: &Obs, key_bits: usize) -> Self {
        TeeMetrics {
            world_switches: obs.counter("tee.world_switches"),
            smc_invokes: obs.counter("tee.smc_invokes"),
            signatures: obs.counter("tee.signatures"),
            signatures_by_bits: obs.counter(&format!("tee.signatures.rsa_{key_bits}")),
            gps_reads: obs.counter("tee.gps_reads"),
            cost_world_switch: obs.histogram("tee.cost.world_switch"),
            cost_sign: obs.histogram("tee.cost.sign"),
            cost_read_gps: obs.histogram("tee.cost.read_gps"),
        }
    }
}

/// Fault hook deciding whether the next sign operation fails (returns
/// `true` to inject a failure). Installed by the chaos plane via
/// [`SecureWorldBuilder::with_sign_fault`]; the hook itself is a plain
/// closure so the TEE crate stays independent of the chaos crate.
pub type SignFaultHook = Box<dyn Fn() -> bool + Send + Sync>;

/// Fault hook mutating the NMEA burst the GPS driver reads (truncation,
/// garbling) before it is parsed. Installed via
/// [`SecureWorldBuilder::with_nmea_fault`].
pub type NmeaFaultHook = Box<dyn Fn(String) -> String + Send + Sync>;

/// Internal secure-world state. Only reachable through SMC dispatch.
pub(crate) struct WorldInner {
    keystore: KeyStore,
    storage: Mutex<SecureStorage>,
    gps: Option<Box<dyn GpsDevice>>,
    gps3d: Option<Box<dyn GpsDevice3d>>,
    cost_model: CostModel,
    spoof: Box<dyn SpoofDetector>,
    obs: Obs,
    metrics: TeeMetrics,
    sign_fault: Option<SignFaultHook>,
    nmea_fault: Option<NmeaFaultHook>,
}

impl WorldInner {
    /// The GPS Driver PTA: reads the receiver's latest NMEA output and
    /// parses it back into a sample — the same `$GPRMC` path the real
    /// kernel-space driver takes through libnmea (paper §V-B).
    pub(crate) fn driver_read_gps(&self) -> Result<GpsSample, TeeError> {
        self.driver_read_gps_inner().map(|(s, _)| s)
    }

    /// As [`driver_read_gps`](Self::driver_read_gps) but also returns
    /// the spoof detector's judgement; authenticity services consult it
    /// (paper §VII-A2).
    pub(crate) fn driver_read_gps_checked(&self) -> Result<GpsSample, TeeError> {
        let (sample, env) = self.driver_read_gps_inner()?;
        if env == Environment::Suspicious {
            return Err(TeeError::AccessDenied);
        }
        Ok(sample)
    }

    /// The 3-D driver path (§VII-B1): reads the GGA-equipped receiver
    /// and returns the 4-tuple sample, consulting the spoof detector.
    pub(crate) fn driver_read_gps_3d_checked(&self) -> Result<GpsSample3d, TeeError> {
        let gps3d = self
            .gps3d
            .as_ref()
            .ok_or(TeeError::MissingComponent("3d gps device"))?;
        let fix3d = gps3d.latest_fix_3d().ok_or(TeeError::NoData)?;
        self.metrics.gps_reads.inc();
        self.metrics.cost_read_gps.record(self.cost_model.read_gps);
        if self.spoof.observe(&fix3d.fix) == Environment::Suspicious {
            return Err(TeeError::AccessDenied);
        }
        // Altitude rides on the GGA sentence; round-trip it like the
        // 2-D path round-trips RMC.
        let line = alidrone_gps::nmea_feed::fix_to_gga(&fix3d.fix, fix3d.alt.meters());
        let gga: alidrone_nmea::Gga = line
            .parse()
            .map_err(|_| TeeError::MalformedData("gga parse"))?;
        GpsSample3d::new(
            fix3d.fix.sample.point(),
            alidrone_geo::Distance::from_meters(gga.altitude_m),
            fix3d.fix.sample.time(),
        )
        .map_err(|_| TeeError::MalformedData("3d sample"))
    }

    fn driver_read_gps_inner(&self) -> Result<(GpsSample, Environment), TeeError> {
        // A 3-D device also serves the 2-D path.
        let fix = if let Some(gps) = self.gps.as_ref() {
            gps.latest_fix()
        } else if let Some(gps3d) = self.gps3d.as_ref() {
            gps3d.latest_fix()
        } else {
            return Err(TeeError::MissingComponent("gps device"));
        };
        let fix = fix.ok_or(TeeError::NoData)?;
        self.metrics.gps_reads.inc();
        self.metrics.cost_read_gps.record(self.cost_model.read_gps);
        let env = self.spoof.observe(&fix);
        // Round-trip through the NMEA wire format for fidelity: the
        // driver sees the receiver's full UART burst (RMC+GGA+VTG+GSA)
        // and picks the $GPRMC line out of it, exactly as the real
        // kernel-space driver does. RMC timestamps wrap at 24 h, so
        // recover the day base from the fix's own timestamp.
        let day_base =
            Timestamp::from_secs((fix.sample.time().secs() / 86_400.0).floor() * 86_400.0);
        let mut burst = fix_to_burst(&fix, 0.0);
        // Injected UART-level fault: the chaos plane may truncate or
        // garble the burst here, exactly where real serial noise lands.
        if let Some(garble) = &self.nmea_fault {
            burst = garble(burst);
        }
        let sample =
            burst_to_sample(&burst, day_base).map_err(|_| TeeError::MalformedData("nmea parse"))?;
        Ok((sample, env))
    }

    /// Signs on behalf of the GPS Sampler TA, with cost accounting.
    pub(crate) fn keystore_sign(&self, data: &[u8]) -> Result<Vec<u8>, TeeError> {
        // Injected crypto-engine fault (chaos plane): fail before any
        // cost is charged, as a hardware sign failure would.
        if self.sign_fault.as_ref().is_some_and(|h| h()) {
            self.obs
                .emit(Level::Warn, "tee.world", "sign_fault_injected", |_| {});
            return Err(TeeError::CryptoFailure("injected sign fault".into()));
        }
        // The span's extent is the *modelled* signing cost, not host CPU
        // time: the sim clock does not advance through `sign`, so the
        // span is closed with `finish_with` at the cost model's duration
        // (the cost histogram keeps sole ownership of the metric — the
        // span only gives the trace view).
        let span = self.obs.enter_span("tee.sign");
        let sig = self.keystore.sign(data);
        let cost = self.cost_model.sign_cost(self.keystore.key_bits());
        span.finish_with(cost);
        let sig = sig?;
        self.metrics.signatures.inc();
        self.metrics.signatures_by_bits.inc();
        self.metrics.cost_sign.record(cost);
        Ok(sig)
    }

    /// The exportable verification key `T⁺`.
    pub(crate) fn public_key(&self) -> RsaPublicKey {
        self.keystore.public_key()
    }

    /// Locked access to secure storage, for TAs running in the secure
    /// world. A poisoned lock is adopted: every storage critical section
    /// is a single non-panicking `BTreeMap` operation, so the data is
    /// structurally sound even after a panicking holder.
    pub(crate) fn storage_mut(&self) -> std::sync::MutexGuard<'_, SecureStorage> {
        self.storage.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        keystore: KeyStore,
        gps: Option<Box<dyn GpsDevice>>,
        gps3d: Option<Box<dyn GpsDevice3d>>,
        cost_model: CostModel,
        spoof: Box<dyn SpoofDetector>,
        obs: Obs,
        sign_fault: Option<SignFaultHook>,
        nmea_fault: Option<NmeaFaultHook>,
    ) -> Self {
        let metrics = TeeMetrics::new(&obs, keystore.key_bits());
        WorldInner {
            keystore,
            storage: Mutex::new(SecureStorage::new()),
            gps,
            gps3d,
            cost_model,
            spoof,
            obs,
            metrics,
            sign_fault,
            nmea_fault,
        }
    }
}

/// The secure world. Cheap to clone (shared state); hand the normal
/// world a [`TeeClient`] via [`SecureWorld::client`].
#[derive(Clone)]
pub struct SecureWorld {
    pub(crate) inner: Arc<WorldInner>,
}

impl SecureWorld {
    /// Creates a client handle — the normal world's only way in.
    pub fn client(&self) -> TeeClient {
        TeeClient::new(self.clone())
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost_model
    }

    /// The SMC boundary: every normal-world invocation funnels through
    /// here, paying two world switches.
    pub(crate) fn smc_invoke(
        &self,
        ta: Uuid,
        cmd: u32,
        params: &[Param],
    ) -> Result<Vec<Param>, TeeError> {
        self.inner.metrics.smc_invokes.inc();
        self.inner.metrics.world_switches.add(2);
        // Each direction of the switch is one histogram observation, so
        // count == world_switches and sum == modelled switch time.
        self.inner
            .metrics
            .cost_world_switch
            .record(self.inner.cost_model.world_switch);
        self.inner
            .metrics
            .cost_world_switch
            .record(self.inner.cost_model.world_switch);
        let result = if ta == crate::GPS_SAMPLER_UUID {
            sampler::invoke(&self.inner, cmd, params)
        } else {
            Err(TeeError::ItemNotFound)
        };
        if let Err(e) = &result {
            let failed = *e != TeeError::NoData;
            if failed {
                self.inner
                    .obs
                    .emit(Level::Warn, "tee.world", "smc_failed", |f| {
                        f.field("cmd", cmd as u64);
                    });
            }
        }
        result
    }

    /// Whether a trusted application with this UUID exists.
    pub(crate) fn has_ta(&self, ta: Uuid) -> bool {
        ta == crate::GPS_SAMPLER_UUID
    }
}

impl fmt::Debug for SecureWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureWorld")
            .field("keystore", &self.inner.keystore)
            .field("has_gps", &self.inner.gps.is_some())
            .finish_non_exhaustive()
    }
}

/// Builder for [`SecureWorld`].
///
/// The TEE keypair is "generated at manufacturing time" (paper §IV-B);
/// building the world is the manufacturing step.
pub struct SecureWorldBuilder {
    sign_key: Option<RsaPrivateKey>,
    gps: Option<Box<dyn GpsDevice>>,
    gps3d: Option<Box<dyn GpsDevice3d>>,
    cost_model: CostModel,
    spoof: Box<dyn SpoofDetector>,
    obs: Obs,
    sign_fault: Option<SignFaultHook>,
    nmea_fault: Option<NmeaFaultHook>,
}

impl SecureWorldBuilder {
    /// Starts a builder with the Raspberry Pi 3 cost model and the
    /// paper's SHA-1 signature algorithm.
    pub fn new() -> Self {
        SecureWorldBuilder {
            sign_key: None,
            gps: None,
            gps3d: None,
            cost_model: CostModel::raspberry_pi_3(),
            spoof: Box::new(TrustingDetector),
            obs: Obs::noop(),
            sign_fault: None,
            nmea_fault: None,
        }
    }

    /// Routes secure-world metrics (world switches, signatures by key
    /// size, modelled per-op costs) and events into `obs`.
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Installs an existing sign key (e.g. a cached test key).
    pub fn with_sign_key(mut self, key: RsaPrivateKey) -> Self {
        self.sign_key = Some(key);
        self
    }

    /// Generates a fresh sign key of `bits` bits.
    pub fn with_generated_key<R: Rng + ?Sized>(mut self, bits: usize, rng: &mut R) -> Self {
        self.sign_key = Some(RsaPrivateKey::generate(bits, rng));
        self
    }

    /// Attaches the GPS receiver the secure-world driver will read.
    pub fn with_gps_device(mut self, gps: Box<dyn GpsDevice>) -> Self {
        self.gps = Some(gps);
        self
    }

    /// Attaches a 3-D (altitude-reporting) receiver (§VII-B1). Serves
    /// both the 2-D commands and `CMD_GET_GPS_AUTH_3D`.
    pub fn with_gps_device_3d(mut self, gps: Box<dyn GpsDevice3d>) -> Self {
        self.gps3d = Some(gps);
        self
    }

    /// Overrides the cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Installs a GPS-spoofing detector (paper §VII-A2); the GPS
    /// Sampler declines authenticity services while the detector judges
    /// the environment suspicious. Defaults to [`TrustingDetector`].
    pub fn with_spoof_detector(mut self, detector: Box<dyn SpoofDetector>) -> Self {
        self.spoof = detector;
        self
    }

    /// Installs a deterministic sign-fault hook (chaos plane): whenever
    /// the hook returns `true`, the next secure-world sign operation
    /// fails with a typed [`TeeError::CryptoFailure`].
    pub fn with_sign_fault(mut self, hook: SignFaultHook) -> Self {
        self.sign_fault = Some(hook);
        self
    }

    /// Installs a deterministic NMEA-fault hook (chaos plane): the hook
    /// may truncate or garble the receiver's UART burst before the
    /// secure-world driver parses it, surfacing as a typed
    /// [`TeeError::MalformedData`].
    pub fn with_nmea_fault(mut self, hook: NmeaFaultHook) -> Self {
        self.nmea_fault = Some(hook);
        self
    }

    /// Builds the world.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::MissingComponent`] when no sign key was
    /// provided (a GPS device is optional — key-only worlds are useful
    /// for registration flows and tests).
    pub fn build(self) -> Result<SecureWorld, TeeError> {
        let key = self
            .sign_key
            .ok_or(TeeError::MissingComponent("sign key"))?;
        Ok(SecureWorld {
            inner: Arc::new(WorldInner::new(
                KeyStore::new(key),
                self.gps,
                self.gps3d,
                self.cost_model,
                self.spoof,
                self.obs,
                self.sign_fault,
                self.nmea_fault,
            )),
        })
    }
}

impl Default for SecureWorldBuilder {
    fn default() -> Self {
        SecureWorldBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_key, TestReceiver};
    use crate::{CMD_GET_GPS_AUTH, CMD_GET_PUBLIC_KEY, GPS_SAMPLER_UUID};

    fn world_with_gps() -> SecureWorld {
        SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_gps_device(Box::new(TestReceiver::fixed(40.1, -88.2, 12.0)))
            .with_cost_model(CostModel::raspberry_pi_3())
            .build()
            .unwrap()
    }

    #[test]
    fn build_without_key_fails() {
        assert_eq!(
            SecureWorldBuilder::new().build().err(),
            Some(TeeError::MissingComponent("sign key"))
        );
    }

    #[test]
    fn build_without_gps_is_ok_but_sampling_fails() {
        let world = SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .build()
            .unwrap();
        let r = world.smc_invoke(GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH, &[]);
        assert_eq!(r, Err(TeeError::MissingComponent("gps device")));
    }

    #[test]
    fn unknown_ta_is_item_not_found() {
        let world = world_with_gps();
        let bogus = Uuid::from_u128(42);
        assert_eq!(
            world.smc_invoke(bogus, CMD_GET_GPS_AUTH, &[]),
            Err(TeeError::ItemNotFound)
        );
        assert!(!world.has_ta(bogus));
        assert!(world.has_ta(GPS_SAMPLER_UUID));
    }

    #[test]
    fn unknown_command_not_supported() {
        let world = world_with_gps();
        assert_eq!(
            world.smc_invoke(GPS_SAMPLER_UUID, 999, &[]),
            Err(TeeError::NotSupported(999))
        );
    }

    #[test]
    fn get_gps_auth_returns_sample_and_signature() {
        let world = world_with_gps();
        let out = world
            .smc_invoke(GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH, &[])
            .unwrap();
        assert_eq!(out.len(), 2);
        let sample_bytes = out[0].as_bytes().unwrap();
        let sig = out[1].as_bytes().unwrap();
        assert_eq!(sample_bytes.len(), 24);
        assert_eq!(sig.len(), 64); // 512-bit test key
                                   // Signature verifies under the exported public key.
        let pk = world.inner.public_key();
        pk.verify(sample_bytes, sig, alidrone_crypto::rsa::HashAlg::Sha1)
            .unwrap();
    }

    #[test]
    fn get_gps_auth_rejects_parameters() {
        let world = world_with_gps();
        assert!(matches!(
            world.smc_invoke(GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH, &[Param::Value(1)]),
            Err(TeeError::BadParameters(_))
        ));
    }

    #[test]
    fn get_public_key_round_trips() {
        let world = world_with_gps();
        let out = world
            .smc_invoke(GPS_SAMPLER_UUID, CMD_GET_PUBLIC_KEY, &[])
            .unwrap();
        let n = alidrone_crypto::bigint::BigUint::from_bytes_be(out[0].as_bytes().unwrap());
        let e = alidrone_crypto::bigint::BigUint::from_bytes_be(out[1].as_bytes().unwrap());
        let pk = RsaPublicKey::new(n, e).unwrap();
        assert_eq!(&pk, test_key().public_key());
    }

    #[test]
    fn every_operation_is_accounted_once_at_model_cost() {
        use crate::{CMD_CACHE_SAMPLE, CMD_GET_GPS_AUTH_3D, CMD_SIGN_GAP, CMD_SIGN_TRACE};
        let obs = Obs::noop();
        let world = SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_gps_device_3d(Box::new(TestReceiver::fixed(40.1, -88.2, 12.0)))
            .with_cost_model(CostModel::raspberry_pi_3())
            .with_obs(&obs)
            .build()
            .unwrap();
        let mut gap = 10f64.to_be_bytes().to_vec();
        gap.extend_from_slice(&20f64.to_be_bytes());
        for (cmd, params) in [
            (CMD_GET_PUBLIC_KEY, vec![]),
            (CMD_GET_GPS_AUTH, vec![]),
            (CMD_GET_GPS_AUTH_3D, vec![]),
            (CMD_CACHE_SAMPLE, vec![]),
            (CMD_SIGN_TRACE, vec![]),
            (CMD_SIGN_GAP, vec![Param::Bytes(gap)]),
        ] {
            world.smc_invoke(GPS_SAMPLER_UUID, cmd, &params).unwrap();
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("tee.smc_invokes"), 6);
        assert_eq!(snap.counter("tee.world_switches"), 12);
        assert_eq!(snap.counter("tee.gps_reads"), 3);
        assert_eq!(snap.counter("tee.signatures"), 4);
        // The test key is 512-bit: the by-size counter carries the size
        // in its name.
        assert_eq!(snap.counter("tee.signatures.rsa_512"), 4);
        // Each histogram observes its operation once per run at the
        // model's cost: 0.75 ms per switch direction, 0.3 ms per driver
        // read, and sign_1024 × (512/1024)³ = 5.125 ms per signature.
        for (histogram, counter, micros) in [
            ("tee.cost.world_switch", "tee.world_switches", 750),
            ("tee.cost.read_gps", "tee.gps_reads", 300),
            ("tee.cost.sign", "tee.signatures", 5_125),
        ] {
            let h = snap.histogram(histogram).unwrap();
            assert_eq!(h.count, snap.counter(counter), "{histogram}");
            assert_eq!(h.sum_micros, h.count * micros, "{histogram}");
        }
    }

    #[test]
    fn failed_smc_emits_warning_event() {
        use alidrone_obs::FlightRecorder;
        let obs = Obs::noop();
        let recorder = Arc::new(FlightRecorder::new(8));
        obs.set_subscriber(recorder.clone());
        let world = SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_obs(&obs)
            .build()
            .unwrap();
        let _ = world.smc_invoke(GPS_SAMPLER_UUID, 999, &[]);
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].message, "smc_failed");
        assert_eq!(events[0].field("cmd").unwrap().as_u64(), Some(999));
    }

    #[test]
    fn no_fix_is_no_data() {
        let world = SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_gps_device(Box::new(TestReceiver::no_fix()))
            .build()
            .unwrap();
        assert_eq!(
            world.smc_invoke(GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH, &[]),
            Err(TeeError::NoData)
        );
    }

    #[test]
    fn param_accessors() {
        assert_eq!(Param::Value(7).as_value().unwrap(), 7);
        assert!(Param::Value(7).as_bytes().is_err());
        assert_eq!(Param::Bytes(vec![1]).as_bytes().unwrap(), &[1]);
        assert!(Param::Bytes(vec![1]).as_value().is_err());
    }

    #[test]
    fn secure_storage_reachable_only_in_crate() {
        let world = world_with_gps();
        world.inner.storage_mut().put("obj", vec![1, 2]);
        assert_eq!(world.inner.storage_mut().get("obj").unwrap(), &[1, 2]);
    }

    #[test]
    fn injected_sign_fault_is_typed_crypto_failure() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Deterministic schedule: fail every second sign.
        let calls = AtomicU64::new(0);
        let obs = Obs::noop();
        let world = SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_gps_device(Box::new(TestReceiver::fixed(40.1, -88.2, 12.0)))
            .with_obs(&obs)
            .with_sign_fault(Box::new(move || {
                calls.fetch_add(1, Ordering::Relaxed) % 2 == 1
            }))
            .build()
            .unwrap();
        let ok = world.smc_invoke(GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH, &[]);
        assert!(ok.is_ok());
        let err = world.smc_invoke(GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH, &[]);
        assert!(matches!(err, Err(TeeError::CryptoFailure(_))), "{err:?}");
        // No cost was charged for the failed sign.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("tee.signatures"), 1);
        assert_eq!(snap.histogram("tee.cost.sign").unwrap().count, 1);
    }

    #[test]
    fn injected_nmea_garbling_is_typed_malformed_data() {
        let world = SecureWorldBuilder::new()
            .with_sign_key(test_key().clone())
            .with_gps_device(Box::new(TestReceiver::fixed(40.1, -88.2, 12.0)))
            .with_nmea_fault(Box::new(|burst: String| {
                // Truncate mid-sentence: the RMC line never survives.
                burst[..burst.len().min(10)].to_string()
            }))
            .build()
            .unwrap();
        assert_eq!(
            world.smc_invoke(GPS_SAMPLER_UUID, CMD_GET_GPS_AUTH, &[]),
            Err(TeeError::MalformedData("nmea parse"))
        );
    }
}
