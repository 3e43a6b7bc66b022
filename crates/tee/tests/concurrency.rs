//! Concurrency tests: the secure world is shared state — the Adapter,
//! a telemetry daemon, and diagnostics can all hold sessions at once.
//! The model must stay consistent under parallel invocation (the real
//! OP-TEE serialises entries into the TA; our model's locks play that
//! role).

use std::sync::Arc;

use alidrone_crypto::rng::XorShift64;
use alidrone_crypto::rsa::RsaPrivateKey;
use alidrone_geo::{GeoPoint, GpsSample, Speed, Timestamp};
use alidrone_gps::{GpsDevice, GpsFix};
use alidrone_obs::Obs;
use alidrone_tee::{CostModel, SecureWorldBuilder, GPS_SAMPLER_UUID};

struct FixedReceiver;

impl GpsDevice for FixedReceiver {
    fn latest_fix(&self) -> Option<GpsFix> {
        Some(GpsFix {
            sample: GpsSample::new(
                GeoPoint::new(40.0, -88.0).expect("valid"),
                Timestamp::from_secs(1.0),
            ),
            speed: Speed::from_mps(0.0),
            sequence: 0,
        })
    }

    fn update_rate_hz(&self) -> f64 {
        5.0
    }
}

fn key() -> RsaPrivateKey {
    let mut rng = XorShift64::seed_from_u64(0xC0C0);
    RsaPrivateKey::generate(512, &mut rng)
}

#[test]
fn parallel_get_gps_auth_is_consistent() {
    let obs = Obs::noop();
    let world = SecureWorldBuilder::new()
        .with_sign_key(key())
        .with_gps_device(Box::new(FixedReceiver))
        .with_cost_model(CostModel::raspberry_pi_3())
        .with_obs(&obs)
        .build()
        .unwrap();
    let client = world.client();
    let pk = Arc::new(client.tee_public_key());

    const THREADS: usize = 8;
    const PER_THREAD: usize = 20;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let client = client.clone();
            let pk = Arc::clone(&pk);
            s.spawn(move || {
                let session = client.open_session(GPS_SAMPLER_UUID).unwrap();
                for _ in 0..PER_THREAD {
                    let signed = session.get_gps_auth().unwrap();
                    signed.verify(&pk).unwrap();
                }
            });
        }
    });

    let snap = obs.snapshot();
    let calls = (THREADS * PER_THREAD) as u64;
    assert_eq!(snap.counter("tee.signatures"), calls);
    assert_eq!(snap.counter("tee.gps_reads"), calls);
    assert_eq!(snap.counter("tee.world_switches"), 2 * calls);
    // Busy time adds up exactly (no lost updates under contention):
    // 2 × 750 µs switches + 300 µs read + 5125 µs 512-bit sign a call.
    let busy: u64 = [
        "tee.cost.world_switch",
        "tee.cost.read_gps",
        "tee.cost.sign",
    ]
    .iter()
    .map(|name| snap.histogram(name).unwrap().sum_micros)
    .sum();
    assert_eq!(busy, calls * 6_925);
}

#[test]
fn parallel_batch_caching_counts_every_sample() {
    let world = SecureWorldBuilder::new()
        .with_sign_key(key())
        .with_gps_device(Box::new(FixedReceiver))
        .with_cost_model(CostModel::free())
        .build()
        .unwrap();
    let client = world.client();

    const THREADS: usize = 4;
    const PER_THREAD: usize = 25;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let client = client.clone();
            s.spawn(move || {
                let session = client.open_session(GPS_SAMPLER_UUID).unwrap();
                for _ in 0..PER_THREAD {
                    session.cache_sample().unwrap();
                }
            });
        }
    });

    let session = client.open_session(GPS_SAMPLER_UUID).unwrap();
    let trace = session.sign_trace().unwrap();
    assert_eq!(trace.samples().len(), THREADS * PER_THREAD);
    trace.verify(&client.tee_public_key()).unwrap();
}

#[test]
fn sessions_are_independently_cloneable() {
    let world = SecureWorldBuilder::new()
        .with_sign_key(key())
        .with_gps_device(Box::new(FixedReceiver))
        .with_cost_model(CostModel::free())
        .build()
        .unwrap();
    let client = world.client();
    let s1 = client.open_session(GPS_SAMPLER_UUID).unwrap();
    let s2 = s1.clone();
    let a = s1.get_gps_auth().unwrap();
    let b = s2.get_gps_auth().unwrap();
    // Same fix, same deterministic signature.
    assert_eq!(a, b);
}
