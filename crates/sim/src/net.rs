//! Wire-phase execution of a scenario run: submit the flight's PoA to
//! an auditor over a chosen transport.
//!
//! The flight itself (sampling, signing) is transport-agnostic — this
//! module takes a finished [`ScenarioRun`] and drives the protocol's
//! networked half (register drone, register zones, submit PoA) either
//! in-process or over a real loopback TCP socket, always through an
//! `alidrone-chaos` [`FaultyTransport`] on a fixed seed: with
//! [`WireOptions::drop_p`] above 0 the run is lossy, and a client
//! [`RetryPolicy`] lets idempotent requests survive the drops.
//!
//! Every response frame is captured verbatim, so two
//! submissions of the same run over different transports can be
//! compared byte-for-byte: the auditor's verdicts must not depend on
//! how the frames travelled.

use std::sync::{Arc, Mutex};

use alidrone_chaos::{FaultPlane, FaultyTransport};
use alidrone_core::wire::server::AuditorServer;
use alidrone_core::wire::tcp::{TcpServer, TcpTransport};
use alidrone_core::wire::transport::{AuditorClient, InProcess, RetryPolicy, Transport};
use alidrone_core::{Auditor, AuditorConfig, DroneId, ProtocolError, Verdict, ZoneId};
use alidrone_crypto::rsa::RsaPrivateKey;
use alidrone_geo::Timestamp;

use crate::runner::ScenarioRun;
use crate::scenarios::Scenario;

/// Which transport carries the wire phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Direct in-process delivery ([`InProcess`]).
    InProcess,
    /// A real TCP round trip over a loopback socket
    /// ([`TcpServer`] + [`TcpTransport`]).
    Tcp,
}

/// Seed of the [`FaultPlane`] behind every [`submit_run`] transport.
/// Its `"wire"` drop draws run `.X.X....` at `drop_p = 0.5` and
/// `.X......` at `0.3` (`X` = dropped physical call).
const WIRE_FAULT_SEED: u64 = 0x3F1;

/// Options for [`submit_run`] beyond the transport choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireOptions {
    /// Probability that each physical call is dropped
    /// ([`FaultyTransport::drop_with`]) on a fixed-seed schedule, so a
    /// lossy run replays exactly (default 0: lossless).
    /// Pair with `retry` so idempotent requests survive the drops.
    pub drop_p: f64,
    /// Client retry policy; `None` keeps the legacy fail-fast client.
    pub retry: Option<RetryPolicy>,
    /// Mount a live introspection endpoint on this address (see
    /// [`AuditorServerBuilder::scrape`](alidrone_core::wire::server::AuditorServerBuilder::scrape)),
    /// so the submission can be watched with `curl <addr>/metrics`
    /// mid-flight.
    pub scrape: Option<std::net::SocketAddr>,
}

/// What the wire phase produced.
#[derive(Debug)]
pub struct WireReport {
    /// The issued drone id.
    pub drone: DroneId,
    /// The issued zone ids, in scenario iteration order.
    pub zones: Vec<ZoneId>,
    /// The auditor's verdict on the PoA.
    pub verdict: Verdict,
    /// Every response frame the client saw, in request order —
    /// byte-comparable across transports (only requests carry the trace
    /// envelope, so responses need no unwrapping).
    pub response_frames: Vec<Vec<u8>>,
}

/// A [`Transport`] decorator that records each response frame for later
/// comparison.
#[derive(Debug)]
struct Recording<T> {
    inner: T,
    frames: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl<T: Transport> Transport for Recording<T> {
    fn call(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, ProtocolError> {
        let response = self.inner.call(request, now)?;
        self.frames
            .lock()
            .expect("frame log lock")
            .push(response.clone());
        Ok(response)
    }
}

/// Submits `run`'s PoA to a fresh auditor over the chosen transport:
/// registers the drone and every scenario zone, submits, and returns
/// the verdict with the captured response frames.
///
/// The server shares the run's obs handle and flight recorder, and the
/// client parents its wire spans under the run's `flight` span — so the
/// submission lands in the same stitched trace whichever transport
/// carried it (over TCP, via the wire trace envelope).
///
/// # Errors
///
/// Propagates socket and protocol failures (a dropped non-retryable
/// frame surfaces here).
pub fn submit_run(
    run: &ScenarioRun,
    scenario: &Scenario,
    mode: WireMode,
    auditor_key: RsaPrivateKey,
    operator_key: &RsaPrivateKey,
    opts: WireOptions,
) -> Result<WireReport, ProtocolError> {
    let obs = run.obs.clone();
    let mut builder = AuditorServer::builder(Auditor::with_obs(
        AuditorConfig::default(),
        auditor_key,
        &obs,
    ))
    .obs(&obs)
    .flight_recorder(run.recorder.clone());
    if let Some(addr) = opts.scrape {
        builder = builder.scrape(addr);
    }
    let server = Arc::new(builder.build());
    if let Some(addr) = server.scrape_addr() {
        println!("scrape endpoint live: curl http://{addr}/metrics");
    }

    // The TCP listener must outlive the client calls; hold it here and
    // shut it down gracefully at the end.
    let mut tcp = None;
    let raw: Box<dyn Transport + Send + Sync> = match mode {
        WireMode::InProcess => Box::new(InProcess::shared(Arc::clone(&server), &obs)),
        WireMode::Tcp => {
            let listener = TcpServer::bind(("127.0.0.1", 0), Arc::clone(&server))
                .map_err(|e| ProtocolError::Transport(e.to_string()))?;
            let transport = TcpTransport::with_obs(listener.local_addr(), &obs);
            tcp = Some(listener);
            Box::new(transport)
        }
    };
    let raw =
        FaultyTransport::new(raw, &FaultPlane::new(WIRE_FAULT_SEED), "wire").drop_with(opts.drop_p);
    let frames = Arc::new(Mutex::new(Vec::new()));
    let mut client = AuditorClient::with_obs(
        Recording {
            inner: raw,
            frames: Arc::clone(&frames),
        },
        &obs,
    );
    if let Some(policy) = opts.retry {
        client = client.retry(policy);
    }
    client.set_trace_parent(run.flight_span);

    let now = Timestamp::from_secs(scenario.duration.secs() + 60.0);
    let drone = client.register_drone(
        operator_key.public_key().clone(),
        run.tee.tee_public_key(),
        now,
    )?;
    let mut zones = Vec::new();
    for zone in scenario.zones.iter() {
        zones.push(client.register_zone(*zone, now)?);
    }
    let verdict = client.submit_poa(
        drone,
        (run.record.window_start, run.record.window_end),
        &run.record.poa,
        now,
    )?;

    if let Some(listener) = tcp {
        listener.shutdown();
    }
    let response_frames = frames.lock().expect("frame log lock").clone();
    Ok(WireReport {
        drone,
        zones,
        verdict,
        response_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{experiment_key, run_scenario};
    use crate::scenarios::airport;
    use alidrone_core::SamplingStrategy;
    use alidrone_crypto::rng::XorShift64;
    use alidrone_tee::CostModel;

    fn keys() -> (RsaPrivateKey, RsaPrivateKey) {
        let mut rng = XorShift64::seed_from_u64(0x0DDC0FFE);
        (
            RsaPrivateKey::generate(512, &mut rng),
            RsaPrivateKey::generate(512, &mut rng),
        )
    }

    #[test]
    fn tcp_and_in_process_submissions_agree_byte_for_byte() {
        let scenario = airport();
        let run = run_scenario(
            &scenario,
            SamplingStrategy::Adaptive,
            experiment_key(),
            CostModel::free(),
        )
        .unwrap();
        let (auditor_key, operator_key) = keys();

        let local = submit_run(
            &run,
            &scenario,
            WireMode::InProcess,
            auditor_key.clone(),
            &operator_key,
            WireOptions::default(),
        )
        .unwrap();
        let networked = submit_run(
            &run,
            &scenario,
            WireMode::Tcp,
            auditor_key,
            &operator_key,
            WireOptions::default(),
        )
        .unwrap();

        assert_eq!(local.verdict, networked.verdict);
        assert_eq!(local.drone, networked.drone);
        assert_eq!(local.zones, networked.zones);
        assert_eq!(
            local.response_frames, networked.response_frames,
            "response frames must be byte-identical across transports"
        );
    }
}
