//! Transport parity for a full sim scenario: the airport flight's PoA
//! submitted in-process and over a loopback TCP socket must produce
//! byte-identical responses — and the TCP path must still stitch ONE
//! trace per request, with the client's per-attempt spans parenting the
//! server-side span across the socket (via the wire trace envelope).

use std::time::Duration;

use alidrone::core::wire::transport::RetryPolicy;
use alidrone::core::SamplingStrategy;
use alidrone::crypto::rng::XorShift64;
use alidrone::crypto::rsa::RsaPrivateKey;
use alidrone::obs::SpanRecord;
use alidrone::sim::net::{submit_run, WireMode, WireOptions};
use alidrone::sim::runner::{experiment_key, run_scenario};
use alidrone::sim::scenarios::airport;
use alidrone::tee::CostModel;

fn by_name<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

#[test]
fn tcp_submission_matches_in_process_and_stitches_one_trace_per_request() {
    let scenario = airport();
    let run = run_scenario(
        &scenario,
        SamplingStrategy::Adaptive,
        experiment_key(),
        CostModel::free(),
    )
    .expect("adaptive run");

    let mut rng = XorShift64::seed_from_u64(0x9A17);
    let auditor_key = RsaPrivateKey::generate(512, &mut rng);
    let operator_key = RsaPrivateKey::generate(512, &mut rng);

    let local = submit_run(
        &run,
        &scenario,
        WireMode::InProcess,
        auditor_key.clone(),
        &operator_key,
        WireOptions::default(),
    )
    .expect("in-process submission");

    // The TCP pass additionally drops each physical call with
    // probability 0.5; the fixed-seed schedule loses calls 2 and 4, so
    // the retry layer is forced to replay — the outcome must not change.
    let networked = submit_run(
        &run,
        &scenario,
        WireMode::Tcp,
        auditor_key,
        &operator_key,
        WireOptions {
            drop_p: 0.5,
            retry: Some(RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(5),
                jitter_seed: 0x5EED,
            }),
            scrape: None,
        },
    )
    .expect("tcp submission");

    // The fault path ran: only the TCP pass retries, so a schedule
    // that dropped nothing cannot pass vacuously.
    assert!(run.obs.snapshot().counter("transport.retries") >= 1);

    // Byte parity: same verdict, same ids, same response frames.
    assert_eq!(local.verdict, networked.verdict);
    assert_eq!(local.drone, networked.drone);
    assert_eq!(local.zones, networked.zones);
    assert_eq!(
        local.response_frames, networked.response_frames,
        "response frames must be byte-identical across transports"
    );

    // Trace stitching. Both submissions parent under the run's flight
    // span, so every wire/server/attempt span shares the flight trace.
    let spans = run.recorder.spans();
    let flight = run.flight_span.expect("traced run has a flight span");
    let wire_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("wire.") && s.name != "wire.attempt")
        .map(|s| s.context.span_id)
        .collect();
    // 2 submissions × 3 requests each.
    assert_eq!(wire_ids.len(), 6);

    let attempts = by_name(&spans, "wire.attempt");
    assert!(
        attempts.len() >= 4,
        "dropped calls must force extra attempts, saw {}",
        attempts.len()
    );
    for a in &attempts {
        assert_eq!(a.context.trace_id, flight.trace_id);
        let parent = a.context.parent_id.expect("attempt has a parent");
        assert!(
            wire_ids.contains(&parent),
            "wire.attempt parented outside its logical wire span"
        );
    }

    let attempt_ids: Vec<u64> = attempts.iter().map(|a| a.context.span_id).collect();
    let server_spans: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name.starts_with("server."))
        .collect();
    // Every request was served twice (once per transport) — six server
    // spans, all in the flight's trace.
    assert_eq!(server_spans.len(), 6);
    let mut under_attempt = 0;
    for s in &server_spans {
        assert_eq!(s.context.trace_id, flight.trace_id);
        let parent = s.context.parent_id.expect("server span has a parent");
        if attempt_ids.contains(&parent) {
            under_attempt += 1;
        } else {
            assert!(
                wire_ids.contains(&parent),
                "server span parented outside the client's spans"
            );
        }
    }
    // The TCP (retrying) submission's three server spans hang off
    // attempt spans — proving the envelope carried the attempt context
    // across the socket; the in-process (no-retry) three hang directly
    // off their wire spans.
    assert_eq!(under_attempt, 3);
}
