//! End-to-end tracing tests: a full airport-scenario PoA must appear as
//! ONE stitched trace — drone-side sample spans (with the TEE sign span
//! as their child), the client's wire span, and the server's request
//! span with the auditor's verify span under it, all sharing a trace id.
//! A call the retry layer replays after a transport fault stays one
//! trace too, with one attempt span per try.

use std::sync::Arc;
use std::time::Duration;

use alidrone::chaos::{FaultPlane, FaultyTransport};
use alidrone::core::wire::server::AuditorServer;
use alidrone::core::wire::transport::{AuditorClient, InProcess, RetryPolicy};
use alidrone::core::{Auditor, AuditorConfig, SamplingStrategy};
use alidrone::geo::{Distance, GeoPoint, NoFlyZone, Timestamp};
use alidrone::obs::export::chrome_trace;
use alidrone::obs::{FlightRecorder, Json, Obs, SpanRecord};
use alidrone::sim::runner::{experiment_key, run_scenario, ScenarioRun};
use alidrone::sim::scenarios::airport;
use alidrone::tee::CostModel;
use alidrone_crypto::rng::XorShift64;
use alidrone_crypto::rsa::RsaPrivateKey;

/// Runs the airport scenario adaptively and submits its PoA through a
/// traced in-process wire stack sharing the run's obs handle.
fn traced_submission() -> (ScenarioRun, AuditorClient<InProcess>) {
    let scenario = airport();
    let run = run_scenario(
        &scenario,
        SamplingStrategy::Adaptive,
        experiment_key(),
        CostModel::raspberry_pi_3(),
    )
    .expect("adaptive run");

    let obs = run.obs.clone();
    let mut rng = XorShift64::seed_from_u64(0x7e57);
    let auditor_key = RsaPrivateKey::generate(512, &mut rng);
    let operator_key = RsaPrivateKey::generate(512, &mut rng);
    let auditor = Auditor::with_obs(AuditorConfig::default(), auditor_key, &obs);
    let server = Arc::new(
        AuditorServer::builder(auditor)
            .obs(&obs)
            .flight_recorder(run.recorder.clone())
            .build(),
    );
    let mut client = AuditorClient::with_obs(InProcess::shared(server, &obs), &obs);
    client.set_trace_parent(run.flight_span);

    let now = Timestamp::from_secs(scenario.duration.secs() + 60.0);
    let drone = client
        .register_drone(
            operator_key.public_key().clone(),
            run.tee.tee_public_key(),
            now,
        )
        .expect("register drone");
    for zone in scenario.zones.iter() {
        client.register_zone(*zone, now).expect("register zone");
    }
    client
        .submit_poa(
            drone,
            (run.record.window_start, run.record.window_end),
            &run.record.poa,
            now,
        )
        .expect("submit poa");
    (run, client)
}

fn by_name<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

#[test]
fn airport_poa_is_one_stitched_trace() {
    let (run, _client) = traced_submission();
    let spans = run.recorder.spans();
    assert_eq!(
        run.recorder.dropped_spans(),
        0,
        "recorder must hold the whole trace"
    );

    let flight = run.flight_span.expect("traced run has a flight span");
    for name in [
        "flight",
        "drone.sample",
        "tee.sign",
        "wire.submit_poa",
        "server.submit_poa",
        "auditor.verify",
    ] {
        let found = by_name(&spans, name);
        assert!(!found.is_empty(), "no {name} span recorded");
        for s in &found {
            assert_eq!(
                s.context.trace_id, flight.trace_id,
                "{name} span is not in the flight's trace"
            );
        }
    }

    // Parenting: tee.sign under drone.sample under flight; the wire
    // span under flight; server.submit_poa under the wire span;
    // auditor.verify under server.submit_poa.
    let sample_ids: Vec<u64> = by_name(&spans, "drone.sample")
        .iter()
        .map(|s| s.context.span_id)
        .collect();
    for sign in by_name(&spans, "tee.sign") {
        let parent = sign.context.parent_id.expect("tee.sign has a parent");
        assert!(
            sample_ids.contains(&parent),
            "tee.sign parented outside drone.sample"
        );
    }
    for sample in by_name(&spans, "drone.sample") {
        assert_eq!(sample.context.parent_id, Some(flight.span_id));
    }
    let wire = by_name(&spans, "wire.submit_poa");
    assert_eq!(wire.len(), 1);
    assert_eq!(wire[0].context.parent_id, Some(flight.span_id));
    let server = by_name(&spans, "server.submit_poa");
    assert_eq!(server.len(), 1);
    assert_eq!(server[0].context.parent_id, Some(wire[0].context.span_id));
    let verify = by_name(&spans, "auditor.verify");
    assert_eq!(verify.len(), 1);
    assert_eq!(verify[0].context.parent_id, Some(server[0].context.span_id));

    // The exported document is valid Chrome trace JSON: it survives the
    // hand-rolled parser and exposes one complete event per span.
    let doc = chrome_trace(&spans, &run.recorder.events());
    let parsed = Json::parse(&doc.to_pretty()).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    assert_eq!(complete, spans.len());
}

#[test]
fn malformed_frame_dumps_the_flight_recorder() {
    let (_run, client) = traced_submission();
    let server = client.transport().server();
    assert!(server.last_crash_dump().is_none());
    let now = Timestamp::from_secs(1_000.0);
    let _ = server.handle(&[0xDE, 0xAD, 0xBE, 0xEF], now);
    let dump = server
        .last_crash_dump()
        .expect("malformed frame must dump the recorder");
    assert!(!dump.is_empty(), "dump must carry the trace so far");
    assert!(!dump.spans.is_empty());
    assert!(dump.spans.iter().any(|s| s.name == "server.submit_poa"));
}

#[test]
fn retried_call_is_one_trace_with_attempt_spans() {
    let obs = Obs::noop();
    let rec = Arc::new(FlightRecorder::new(64));
    obs.set_subscriber(rec.clone());
    let auditor_key = RsaPrivateKey::generate(512, &mut XorShift64::seed_from_u64(0x7e58));
    let auditor = Auditor::new(AuditorConfig::default(), auditor_key);
    let server = AuditorServer::builder(auditor).obs(&obs).build();
    // This seed's drop schedule at p = 0.5 starts `.X.`: physical call
    // 1 lands, call 2 is lost, so logical call #2 takes attempts 2
    // and 3.
    let transport = FaultyTransport::new(
        InProcess::with_obs(server, &obs),
        &FaultPlane::new(0x3F1),
        "wire",
    )
    .drop_with(0.5);
    let mut c = AuditorClient::with_obs(transport, &obs).retry(RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(400),
        jitter_seed: 11,
    });
    let zone = NoFlyZone::new(
        GeoPoint::new(40.0, -88.0).unwrap(),
        Distance::from_meters(10.0),
    );
    let now = Timestamp::from_secs(10.0);
    c.register_zone(zone, now).unwrap();
    c.register_zone(zone, now).unwrap();
    assert_eq!(obs.snapshot().counter("transport.retries"), 1);

    let spans = rec.spans();
    let wire = by_name(&spans, "wire.register_zone");
    assert_eq!(wire.len(), 2);
    let retried = wire[1];
    // Two attempt spans under the second wire span, one trace id.
    let attempts: Vec<_> = by_name(&spans, "wire.attempt")
        .into_iter()
        .filter(|s| s.context.parent_id == Some(retried.context.span_id))
        .collect();
    assert_eq!(attempts.len(), 2);
    // The server span of the successful attempt parents on that
    // attempt's span, in the same trace.
    let server_spans: Vec<_> = by_name(&spans, "server.register_zone")
        .into_iter()
        .filter(|s| s.context.trace_id == retried.context.trace_id)
        .collect();
    assert_eq!(server_spans.len(), 1);
    assert_eq!(
        server_spans[0].context.parent_id,
        Some(attempts[1].context.span_id)
    );
}
