//! Deterministic fault injection for the AliDrone reproduction.
//!
//! Robustness claims are only as good as the failures they were tested
//! against, and failures found by randomized testing are only useful if
//! they *replay*. This crate provides one [`FaultPlane`] per campaign
//! run, seeded once; every component's fault schedule is a pure
//! function of that seed plus a stable injection-point name, so a
//! failing seed reproduces the exact same drops, corruptions, torn
//! writes and GPS blackouts on every rerun.
//!
//! # Injection points
//!
//! | layer | wrapper / hook | faults |
//! |---|---|---|
//! | transport | [`FaultyTransport`] | dropped requests, corrupted requests and responses |
//! | replication | [`FaultyLink`] | lost ships, campaign-controlled partitions |
//! | server | [`FaultPlane::delay_hook`] | injected latency: slow request handlers (overload campaigns) |
//! | storage | [`StorageFaults`] | torn appends, bit flips, full-disk errors |
//! | TEE | [`FaultPlane::sign_fault`], [`FaultPlane::nmea_fault`] | signing failures, NMEA truncation/garbling |
//! | GPS | [`FaultyGps`] | dropout windows, clock jumps |
//!
//! Transport, TEE and storage faults draw from stateful [`FaultStream`]s
//! (one deterministic draw per event, in event order). GPS faults are
//! keyed *statelessly* per update sequence number, so a fix's fate does
//! not depend on how often the sampler polled — only on the seed.
//!
//! ```
//! use alidrone_chaos::FaultPlane;
//!
//! let plane = FaultPlane::new(42);
//! let s = plane.stream("demo");
//! let first: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
//! // Same seed + same name => the identical schedule.
//! let s2 = FaultPlane::new(42).stream("demo");
//! let again: Vec<u64> = (0..4).map(|_| s2.next_u64()).collect();
//! assert_eq!(first, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alidrone_core::journal::MemBackend;
use alidrone_core::repl::{ReplAck, ReplError, ReplFrame, ReplLink};
use alidrone_core::wire::transport::Transport;
use alidrone_core::ProtocolError;
use alidrone_geo::{GpsSample, Timestamp};
use alidrone_gps::{GpsDevice, GpsFix};
use alidrone_tee::{NmeaFaultHook, SignFaultHook};

// ------------------------------------------------------------------ rng

/// One SplitMix64 step: advances `state` and returns the output word.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless mix of a key and a counter (for per-sequence GPS faults).
fn mix(key: u64, n: u64) -> u64 {
    let mut state = key ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// FNV-1a over the injection-point name, so each name gets an
/// independent stream from the same plane seed.
fn fnv1a64(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Maps a raw draw onto `[0, 1)` for probability comparisons.
fn unit(draw: u64) -> f64 {
    // 53 mantissa bits: exact in f64, uniform enough for fault rates.
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------- FaultPlane

/// The root of a deterministic fault campaign: one seed, many streams.
///
/// Every injection point derives its schedule from
/// `seed ^ fnv1a64(name)`, so adding a new fault point never perturbs
/// the schedules of existing ones, and a failing campaign seed replays
/// bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlane {
    seed: u64,
}

impl FaultPlane {
    /// A plane for `seed`. Equal seeds yield equal schedules at every
    /// injection point.
    pub fn new(seed: u64) -> Self {
        FaultPlane { seed }
    }

    /// The campaign seed (log this with every failure report).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The derived key for a named injection point.
    fn key(&self, name: &str) -> u64 {
        self.seed ^ fnv1a64(name)
    }

    /// A stateful fault stream for the injection point `name`.
    pub fn stream(&self, name: &str) -> FaultStream {
        FaultStream::new(self.key(name))
    }

    /// A TEE signing-failure hook: each signing attempt fails with
    /// probability `p`, on a schedule owned by `name`.
    ///
    /// Pass to
    /// [`SecureWorldBuilder::with_sign_fault`](alidrone_tee::SecureWorldBuilder::with_sign_fault).
    pub fn sign_fault(&self, name: &str, p: f64) -> SignFaultHook {
        let stream = self.stream(name);
        Box::new(move || stream.chance(p))
    }

    /// An NMEA corruption hook: with probability `p` a sentence is
    /// truncated at a schedule-chosen byte (or, when the draw lands in
    /// the upper half, garbled by flipping one byte) before the secure
    /// GPS reader parses it.
    ///
    /// Pass to
    /// [`SecureWorldBuilder::with_nmea_fault`](alidrone_tee::SecureWorldBuilder::with_nmea_fault).
    pub fn nmea_fault(&self, name: &str, p: f64) -> NmeaFaultHook {
        let stream = self.stream(name);
        Box::new(move |sentence: String| {
            if !stream.chance(p) || sentence.is_empty() {
                return sentence;
            }
            let draw = stream.next_u64();
            let at = (draw as usize) % sentence.len();
            if draw & 1 == 0 {
                // Truncation: the tail of the sentence never arrived.
                sentence[..at].to_string()
            } else {
                // Garbling: one byte flipped in transit on the UART.
                let mut bytes = sentence.into_bytes();
                bytes[at] ^= 0x20;
                String::from_utf8_lossy(&bytes).into_owned()
            }
        })
    }

    /// A per-call latency hook: with probability `p` a call takes
    /// `delay` longer, on a schedule owned by `name`. The return type
    /// matches
    /// [`AuditorServerBuilder::handle_delay`](alidrone_core::wire::server::AuditorServerBuilder::handle_delay),
    /// so overload campaigns can slow the server's handlers down
    /// deterministically and drive its admission queue to capacity.
    pub fn delay_hook(
        &self,
        name: &str,
        p: f64,
        delay: Duration,
    ) -> Box<dyn Fn() -> Duration + Send + Sync> {
        let stream = self.stream(name);
        Box::new(move || {
            if stream.chance(p) {
                delay
            } else {
                Duration::ZERO
            }
        })
    }

    /// A storage-fault driver for `backend`, scheduled by `name`.
    pub fn storage(&self, name: &str, backend: Arc<MemBackend>) -> StorageFaults {
        StorageFaults {
            stream: self.stream(name),
            backend,
        }
    }

    /// A stateless membership test selecting roughly `fraction` of any
    /// id space, keyed by `name`.
    ///
    /// Fleet campaigns use this to pick cohorts ("7% of drones fly with
    /// degraded GPS") without materialising the fleet: membership is a
    /// pure function of `(seed, name, id)`, so every worker thread
    /// agrees on who is in the cohort and replays agree across runs.
    pub fn cohort(&self, name: &str, fraction: f64) -> Cohort {
        Cohort {
            key: self.key(name),
            fraction: fraction.clamp(0.0, 1.0),
        }
    }
}

/// A deterministic fractional subset of an id space (see
/// [`FaultPlane::cohort`]).
#[derive(Debug, Clone, Copy)]
pub struct Cohort {
    key: u64,
    fraction: f64,
}

impl Cohort {
    /// Whether `id` is in the cohort. Pure: no draws are consumed, so
    /// calling this in any order from any thread is replay-safe.
    pub fn contains(&self, id: u64) -> bool {
        unit(mix(self.key, id)) < self.fraction
    }

    /// The selected fraction (clamped to `[0, 1]`).
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

// --------------------------------------------------------- FaultStream

/// A deterministic stream of fault decisions for one injection point.
///
/// The state is atomic so a stream can be captured by `Send + Sync`
/// hooks; under concurrent callers the *set* of draws is fixed but
/// their assignment to callers follows scheduling order, so campaigns
/// that must replay exactly should drive each stream from one thread.
#[derive(Debug)]
pub struct FaultStream {
    state: AtomicU64,
}

impl FaultStream {
    fn new(key: u64) -> Self {
        FaultStream {
            state: AtomicU64::new(key),
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&self) -> u64 {
        let mut prev = self.state.load(Ordering::Relaxed);
        loop {
            let mut next = prev;
            let out = splitmix64(&mut next);
            match self
                .state
                .compare_exchange_weak(prev, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return out,
                Err(actual) => prev = actual,
            }
        }
    }

    /// One Bernoulli trial: `true` with probability `p` (clamped to
    /// `[0, 1]`). Always consumes exactly one draw.
    pub fn chance(&self, p: f64) -> bool {
        unit(self.next_u64()) < p.clamp(0.0, 1.0)
    }

    /// A uniform draw in `0..n` (`0` when `n == 0`).
    pub fn below(&self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

// ----------------------------------------------------- FaultyTransport

/// Seeded probabilistic faults over any [`Transport`] — the one
/// transport fault injector, used by the campaigns, the sim's lossy
/// wire mode and the retry tests alike.
///
/// Faults are Bernoulli draws from the plane's stream, so they are
/// exactly replayable from the seed. Injected faults keep the existing
/// wire semantics: a dropped request surfaces as a typed
/// [`ProtocolError::Transport`] (retryable, like a real lost frame), and
/// a corrupted response has its first byte XOR-flipped, so client-side
/// decode errors stay typed. Latency is injected on the server side
/// instead, with [`FaultPlane::delay_hook`].
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    stream: FaultStream,
    /// Request-corruption draws own `<name>.corrupt_req`, so enabling
    /// them never perturbs the drop/corrupt schedule.
    corrupt_req_stream: FaultStream,
    drop_p: f64,
    corrupt_p: f64,
    corrupt_req_p: f64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` on the plane's `name` schedule, with no faults
    /// enabled yet.
    pub fn new(inner: T, plane: &FaultPlane, name: &str) -> Self {
        FaultyTransport {
            inner,
            stream: plane.stream(name),
            corrupt_req_stream: plane.stream(&format!("{name}.corrupt_req")),
            drop_p: 0.0,
            corrupt_p: 0.0,
            corrupt_req_p: 0.0,
        }
    }

    /// Drops each request with probability `p`.
    pub fn drop_with(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Corrupts each response with probability `p`.
    pub fn corrupt_with(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self
    }

    /// Corrupts each *request* with probability `p`: one byte at a
    /// schedule-chosen offset is XOR-flipped before the frame reaches
    /// the wire.
    ///
    /// Response corruption (the [`corrupt_with`](Self::corrupt_with)
    /// fault) is invisible to the server; request corruption is the
    /// fault that makes the *server's* error counters move — the shape
    /// a soak needs when its SLOs are judged from scraped server
    /// metrics. Draws come from a dedicated `<name>.corrupt_req`
    /// stream, so enabling this never perturbs existing schedules.
    pub fn corrupt_requests_with(mut self, p: f64) -> Self {
        self.corrupt_req_p = p;
        self
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn call(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, ProtocolError> {
        // All draws happen on every call, so the schedule downstream
        // of a call does not depend on whether this one was dropped.
        let dropped = self.stream.chance(self.drop_p);
        let corrupted = self.stream.chance(self.corrupt_p);
        if dropped {
            return Err(ProtocolError::Transport("chaos: request lost".into()));
        }
        let mangled;
        let request = if self.corrupt_req_p > 0.0
            && self.corrupt_req_stream.chance(self.corrupt_req_p)
            && !request.is_empty()
        {
            let at = self.corrupt_req_stream.below(request.len() as u64) as usize;
            let mut copy = request.to_vec();
            copy[at] ^= 0x55;
            mangled = copy;
            &mangled[..]
        } else {
            request
        };
        let mut resp = self.inner.call(request, now)?;
        if corrupted {
            if let Some(b) = resp.get_mut(0) {
                *b ^= 0x55;
            }
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------- FaultyLink

/// Seeded faults over a replication [`ReplLink`]
/// (see [`alidrone_core::repl`]): probabilistic ship loss plus a
/// campaign-controlled **partition switch** for kill/promote and
/// catch-up scenarios.
///
/// A dropped or partitioned ship surfaces as the typed
/// [`ReplError::Transport`] of a lost exchange; the follower never
/// sees the frame, so the primary's retry resumes from the follower's
/// true acked offset — exactly the heal path the catch-up protocol
/// must survive.
pub struct FaultyLink<L> {
    inner: L,
    stream: FaultStream,
    drop_p: f64,
    partitioned: Arc<std::sync::atomic::AtomicBool>,
}

impl<L: ReplLink> FaultyLink<L> {
    /// Wraps `inner` on the plane's `name` schedule, connected (no
    /// partition) and with no drop faults enabled.
    pub fn new(inner: L, plane: &FaultPlane, name: &str) -> Self {
        FaultyLink {
            inner,
            stream: plane.stream(name),
            drop_p: 0.0,
            partitioned: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }

    /// Loses each shipped frame with probability `p`.
    pub fn drop_with(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// A handle that partitions/heals this link from campaign code
    /// (clone it before handing the link to the replicator).
    pub fn partition_switch(&self) -> PartitionSwitch {
        PartitionSwitch {
            partitioned: Arc::clone(&self.partitioned),
        }
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: ReplLink> ReplLink for FaultyLink<L> {
    fn ship(&self, frame: &ReplFrame) -> Result<ReplAck, ReplError> {
        if self.partitioned.load(Ordering::Acquire) {
            return Err(ReplError::Transport("chaos: link partitioned".into()));
        }
        // Draw on every ship so downstream schedules don't depend on
        // this frame's fate.
        if self.stream.chance(self.drop_p) {
            return Err(ReplError::Transport("chaos: ship lost".into()));
        }
        self.inner.ship(frame)
    }
}

/// Campaign-side control over a [`FaultyLink`]'s partition state.
#[derive(Debug, Clone)]
pub struct PartitionSwitch {
    partitioned: Arc<std::sync::atomic::AtomicBool>,
}

impl PartitionSwitch {
    /// Cuts the link: every ship fails with a transport error.
    pub fn partition(&self) {
        self.partitioned.store(true, Ordering::Release);
    }

    /// Heals the link; the next replicate resumes catch-up.
    pub fn heal(&self) {
        self.partitioned.store(false, Ordering::Release);
    }
}

// ------------------------------------------------------- StorageFaults

/// Drives the [`MemBackend`] fault knobs from a plane stream.
///
/// The backend's knobs are one-shot (`tear_next_append`,
/// `fail_next_append`); call [`roll`](StorageFaults::roll) before each
/// batch of auditor operations to arm at most one fault according to
/// the schedule.
#[derive(Debug)]
pub struct StorageFaults {
    stream: FaultStream,
    backend: Arc<MemBackend>,
}

impl StorageFaults {
    /// Rolls the schedule once and arms at most one fault on the
    /// backend: a torn append (probability `tear_p`, keeping a
    /// schedule-chosen prefix of up to 16 bytes), a failed append
    /// (`fail_p`), or a bit flip in the existing image (`flip_p`,
    /// skipped while the journal is empty). Returns what was armed.
    pub fn roll(&self, tear_p: f64, fail_p: f64, flip_p: f64) -> ArmedFault {
        // Fixed draw count per roll keeps the schedule replayable.
        let tear = self.stream.chance(tear_p);
        let fail = self.stream.chance(fail_p);
        let flip = self.stream.chance(flip_p);
        let keep = self.stream.below(16) as usize;
        let offset = self.stream.below(u64::MAX);
        let mask = (self.stream.below(255) + 1) as u8;
        if tear {
            self.backend.tear_next_append(keep);
            ArmedFault::TornAppend { keep }
        } else if fail {
            self.backend.fail_next_append();
            ArmedFault::FailedAppend
        } else if flip && !self.backend.is_empty() {
            let offset = (offset % self.backend.len() as u64) as usize;
            self.backend.flip_bits(offset, mask);
            ArmedFault::BitFlip { offset, mask }
        } else {
            ArmedFault::None
        }
    }
}

/// What [`StorageFaults::roll`] armed, for campaign logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmedFault {
    /// No fault this roll.
    None,
    /// The next append keeps only `keep` bytes (a torn write).
    TornAppend {
        /// Bytes of the record that reach the medium.
        keep: usize,
    },
    /// The next append fails outright (full disk / I/O error).
    FailedAppend,
    /// One bit pattern flipped in the stored image.
    BitFlip {
        /// Byte offset of the flip.
        offset: usize,
        /// XOR mask applied at `offset`.
        mask: u8,
    },
}

// ----------------------------------------------------------- FaultyGps

/// Seeded GPS degradation over any [`GpsDevice`].
///
/// Faults are keyed per update *sequence number*, statelessly: whether
/// update `k` is swallowed or time-shifted depends only on the plane
/// seed and `k`, never on how often (or from how many threads) the
/// sampler polled. Dropouts come in windows — once a window opens at
/// update `k`, updates `k..k + len` all vanish — which is what drives
/// the TEE sampler's staleness detector into declaring a signed gap.
#[derive(Debug)]
pub struct FaultyGps<G> {
    inner: G,
    key: u64,
    dropout_p: f64,
    dropout_len: u64,
    jump_p: f64,
    jump_secs: f64,
}

impl<G: GpsDevice> FaultyGps<G> {
    /// Wraps `device` on the plane's `name` schedule, with no faults
    /// enabled yet.
    pub fn new(device: G, plane: &FaultPlane, name: &str) -> Self {
        FaultyGps {
            inner: device,
            key: plane.key(name),
            dropout_p: 0.0,
            dropout_len: 0,
            jump_p: 0.0,
            jump_secs: 0.0,
        }
    }

    /// Opens a dropout window with probability `p` at each update; a
    /// window swallows `len` consecutive updates (the receiver reports
    /// no fix at all, as under a blackout).
    pub fn dropout_windows(mut self, p: f64, len: u64) -> Self {
        self.dropout_p = p;
        self.dropout_len = len.max(1);
        self
    }

    /// Jumps a fix's timestamp forward by `secs` with probability `p`
    /// per update (a receiver clock glitch).
    pub fn clock_jumps(mut self, p: f64, secs: f64) -> Self {
        self.jump_p = p;
        self.jump_secs = secs;
        self
    }

    /// The wrapped device.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Whether update `seq` falls inside a dropout window.
    pub fn is_dropped(&self, seq: u64) -> bool {
        if self.dropout_p <= 0.0 {
            return false;
        }
        // `seq` is covered if any of the last `len` updates (itself
        // included) opened a window.
        let first = seq.saturating_sub(self.dropout_len - 1);
        (first..=seq).any(|k| unit(mix(self.key ^ 0xD80F, k)) < self.dropout_p)
    }

    fn jumped(&self, seq: u64) -> bool {
        self.jump_p > 0.0 && unit(mix(self.key ^ 0xC10C, seq)) < self.jump_p
    }
}

impl<G: GpsDevice> GpsDevice for FaultyGps<G> {
    fn latest_fix(&self) -> Option<GpsFix> {
        let mut fix = self.inner.latest_fix()?;
        if self.is_dropped(fix.sequence) {
            return None;
        }
        if self.jumped(fix.sequence) {
            let jumped = Timestamp::from_secs(fix.sample.time().secs() + self.jump_secs);
            fix.sample = GpsSample::new(fix.sample.point(), jumped);
        }
        Some(fix)
    }

    fn update_rate_hz(&self) -> f64 {
        self.inner.update_rate_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alidrone_core::journal::StorageBackend;
    use alidrone_core::wire::server::AuditorServer;
    use alidrone_core::wire::transport::InProcess;
    use alidrone_core::{Auditor, AuditorConfig};
    use alidrone_crypto::rng::XorShift64;
    use alidrone_crypto::rsa::RsaPrivateKey;
    use alidrone_geo::trajectory::TrajectoryBuilder;
    use alidrone_geo::{Distance, Duration, GeoPoint, NoFlyZone};
    use alidrone_gps::{SimClock, SimulatedReceiver};

    fn key() -> RsaPrivateKey {
        RsaPrivateKey::generate(512, &mut XorShift64::seed_from_u64(0xC405))
    }

    /// A stationary receiver: enough trajectory to cover the test span.
    fn hovering_receiver(clock: SimClock, rate_hz: f64) -> SimulatedReceiver {
        let traj = TrajectoryBuilder::start_at(GeoPoint::new(40.0, -88.0).expect("valid point"))
            .pause(Duration::from_secs(200.0))
            .build()
            .expect("valid trajectory");
        SimulatedReceiver::from_trajectory(traj, clock, rate_hz)
    }

    #[test]
    fn streams_replay_and_names_are_independent() {
        let a: Vec<u64> = {
            let s = FaultPlane::new(7).stream("x");
            (0..8).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let s = FaultPlane::new(7).stream("x");
            (0..8).map(|_| s.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let s = FaultPlane::new(7).stream("y");
            (0..8).map(|_| s.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let s = FaultPlane::new(8).stream("x");
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed + name must replay");
        assert_ne!(a, c, "different names must diverge");
        assert_ne!(a, d, "different seeds must diverge");
    }

    #[test]
    fn chance_respects_extremes() {
        let s = FaultPlane::new(1).stream("edge");
        for _ in 0..64 {
            assert!(!s.chance(0.0));
            assert!(s.chance(1.0));
        }
    }

    #[test]
    fn faulty_transport_drops_are_typed_and_replayable() {
        let run = |seed: u64| -> Vec<bool> {
            let auditor = Auditor::new(AuditorConfig::default(), key());
            let plane = FaultPlane::new(seed);
            let transport = FaultyTransport::new(
                InProcess::new(AuditorServer::builder(auditor).build()),
                &plane,
                "transport",
            )
            .drop_with(0.5);
            let req = alidrone_core::wire::Request::RegisterZone {
                zone: NoFlyZone::new(
                    GeoPoint::new(40.0, -88.0).expect("valid point"),
                    Distance::from_meters(50.0),
                ),
            };
            (0..20)
                .map(|i| {
                    match transport.call(&req.to_bytes(), Timestamp::from_secs(f64::from(i))) {
                        Ok(_) => true,
                        Err(ProtocolError::Transport(_)) => false,
                        Err(other) => panic!("untyped fault surfaced: {other}"),
                    }
                })
                .collect()
        };
        let first = run(99);
        assert_eq!(first, run(99), "same seed must replay the drop pattern");
        assert!(first.iter().any(|ok| *ok) && first.iter().any(|ok| !*ok));
    }

    #[test]
    fn delay_hook_schedules_replay() {
        let pattern = |seed: u64| -> Vec<bool> {
            let hook =
                FaultPlane::new(seed).delay_hook("slow", 0.5, std::time::Duration::from_millis(1));
            (0..32)
                .map(|_| hook() > std::time::Duration::ZERO)
                .collect()
        };
        let a = pattern(11);
        assert_eq!(a, pattern(11));
        assert!(a.iter().any(|d| *d) && a.iter().any(|d| !*d));
    }

    #[test]
    fn cohorts_are_stateless_proportional_and_replayable() {
        let plane = FaultPlane::new(5);
        let cohort = plane.cohort("gps_dropout", 0.25);
        let members: Vec<u64> = (0..10_000).filter(|&id| cohort.contains(id)).collect();
        let frac = members.len() as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "selected {frac}");
        // Membership is a pure function of (seed, name, id): a fresh
        // plane agrees exactly, in any evaluation order.
        let again = FaultPlane::new(5).cohort("gps_dropout", 0.25);
        assert!((0..10_000)
            .rev()
            .all(|id| again.contains(id) == cohort.contains(id)));
        // A different name keys a different subset.
        let other = plane.cohort("swarm_burst", 0.25);
        assert!((0..10_000).any(|id| cohort.contains(id) != other.contains(id)));
        // Extremes select nobody / everybody.
        assert!((0..100).all(|id| !plane.cohort("none", 0.0).contains(id)));
        assert!((0..100).all(|id| plane.cohort("all", 1.0).contains(id)));
    }

    #[test]
    fn request_corruption_is_server_visible_and_replayable() {
        // Unlike response corruption (a client-side fault the server
        // never sees), corrupted requests must move the *server's*
        // error counters — that is what a soak's scraped SLOs judge.
        let run = |seed: u64| -> (u64, u64, u64) {
            let obs = alidrone_obs::Obs::noop();
            let auditor = Auditor::with_obs(AuditorConfig::default(), key(), &obs);
            let plane = FaultPlane::new(seed);
            let transport = FaultyTransport::new(
                InProcess::with_obs(AuditorServer::builder(auditor).obs(&obs).build(), &obs),
                &plane,
                "fleet",
            )
            .corrupt_requests_with(0.5);
            // A health check frame is one tag byte, so every corrupted
            // frame is guaranteed to fail decode on the server.
            let req = alidrone_core::wire::Request::HealthCheck;
            for i in 0..40 {
                // The server answers malformed frames with typed error
                // responses, so the call itself never fails.
                transport
                    .call(&req.to_bytes(), Timestamp::from_secs(f64::from(i)))
                    .expect("corruption must not drop the call");
            }
            let snap = obs.snapshot();
            (
                snap.counter("server.requests"),
                snap.counter("server.malformed_frames"),
                snap.counter("server.errors.malformed"),
            )
        };
        let (requests, malformed, errors) = run(77);
        assert_eq!(requests, 40, "every frame reaches the server");
        assert!(malformed > 0, "some corrupted frames must fail decode");
        assert_eq!((requests, malformed, errors), run(77), "seed must replay");
    }

    #[test]
    fn storage_faults_arm_the_backend_deterministically() {
        let arm = |seed: u64| {
            let backend = Arc::new(MemBackend::new());
            backend.append(b"0123456789abcdef").unwrap();
            let faults = FaultPlane::new(seed).storage("journal", Arc::clone(&backend));
            let armed: Vec<ArmedFault> = (0..16).map(|_| faults.roll(0.2, 0.2, 0.2)).collect();
            (armed, backend.bytes())
        };
        let (a1, b1) = arm(3);
        let (a2, b2) = arm(3);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert!(a1.iter().any(|f| *f != ArmedFault::None));
    }

    #[test]
    fn gps_dropout_windows_swallow_consecutive_updates() {
        let clock = SimClock::new();
        let receiver = hovering_receiver(clock.clone(), 5.0);
        let plane = FaultPlane::new(1234);
        let gps = FaultyGps::new(receiver, &plane, "gps").dropout_windows(0.08, 10);

        // Drive simulated time and record which sequences surface.
        let mut seen = Vec::new();
        for step in 0..400 {
            clock.set(Timestamp::from_secs(f64::from(step) * 0.2));
            if let Some(fix) = gps.latest_fix() {
                seen.push(fix.sequence);
            }
        }
        assert!(!seen.is_empty(), "dropouts must not swallow everything");
        assert!(seen.len() < 400, "some updates must be dropped");
        // Dropout decisions are per-sequence, not per-poll.
        for s in &seen {
            assert!(!gps.is_dropped(*s));
        }

        // Windows: a dropped sequence extends `len` updates forward.
        let opener = (0..400u64)
            .find(|s| unit(mix(plane.key("gps") ^ 0xD80F, *s)) < 0.08)
            .expect("some window must open in 400 updates");
        for k in opener..(opener + 10).min(400) {
            assert!(gps.is_dropped(k), "update {k} inside the window");
        }
    }

    #[test]
    fn gps_clock_jumps_shift_time_only() {
        let clock = SimClock::new();
        let receiver = hovering_receiver(clock.clone(), 1.0);
        let gps = FaultyGps::new(receiver, &FaultPlane::new(5), "clock").clock_jumps(1.0, 120.0);
        clock.set(Timestamp::from_secs(3.0));
        let fix = gps.latest_fix().expect("fix available");
        let clean = gps.inner().latest_fix().expect("fix available");
        assert!((fix.sample.time().secs() - clean.sample.time().secs() - 120.0).abs() < 1e-9);
        assert_eq!(fix.sample.point(), clean.sample.point());
        assert_eq!(fix.sequence, clean.sequence);
    }

    #[test]
    fn nmea_fault_hook_truncates_or_garbles() {
        let plane = FaultPlane::new(77);
        let hook = plane.nmea_fault("nmea", 1.0);
        let sentence = "$GPRMC,123519,A,4807.038,N,01131.000,E,022.4,084.4,230394,003.1,W*6A";
        let mangled = hook(sentence.to_string());
        assert_ne!(mangled, sentence, "p=1 must always corrupt");
        // And the schedule replays.
        let hook2 = FaultPlane::new(77).nmea_fault("nmea", 1.0);
        assert_eq!(mangled, hook2(sentence.to_string()));
    }

    #[test]
    fn sign_fault_hook_replays() {
        let plane = FaultPlane::new(21);
        let hook = plane.sign_fault("tee", 0.5);
        let pattern: Vec<bool> = (0..32).map(|_| hook()).collect();
        let hook2 = FaultPlane::new(21).sign_fault("tee", 0.5);
        let again: Vec<bool> = (0..32).map(|_| hook2()).collect();
        assert_eq!(pattern, again);
        assert!(pattern.iter().any(|b| *b) && pattern.iter().any(|b| !*b));
    }
}
