//! Shared fixtures for this crate's unit tests.

use std::sync::OnceLock;

use alidrone_crypto::rng::XorShift64;
use alidrone_crypto::rsa::RsaPrivateKey;
use alidrone_geo::{Distance, GeoPoint, GpsSample, Speed, Timestamp};
use alidrone_gps::{GpsDevice, GpsDevice3d, GpsFix, GpsFix3d};

/// A cached 512-bit RSA key: keygen in debug builds is slow enough that
/// regenerating per test would dominate the suite.
pub(crate) fn test_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0x7EE);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

/// A trivial receiver for tests: either a constant fix or no fix at all.
pub(crate) struct TestReceiver {
    fix: Option<GpsFix>,
}

impl TestReceiver {
    /// Always reports the same fix.
    pub(crate) fn fixed(lat: f64, lon: f64, t: f64) -> Self {
        TestReceiver {
            fix: Some(GpsFix {
                sample: GpsSample::new(
                    GeoPoint::new(lat, lon).expect("valid test coords"),
                    Timestamp::from_secs(t),
                ),
                speed: Speed::from_mps(0.0),
                sequence: 0,
            }),
        }
    }

    /// Cold receiver: never has a fix.
    pub(crate) fn no_fix() -> Self {
        TestReceiver { fix: None }
    }
}

impl GpsDevice for TestReceiver {
    fn latest_fix(&self) -> Option<GpsFix> {
        self.fix
    }

    fn update_rate_hz(&self) -> f64 {
        5.0
    }
}

/// Serves the 3-D commands too, at a constant 30 m altitude.
impl GpsDevice3d for TestReceiver {
    fn latest_fix_3d(&self) -> Option<GpsFix3d> {
        self.fix.map(|fix| GpsFix3d {
            fix,
            alt: Distance::from_meters(30.0),
        })
    }
}
