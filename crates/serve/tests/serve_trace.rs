//! Observability-plane integration tests: response trace metadata, the
//! flight recorder's cross-thread-count determinism, probe/workload
//! counter separation, SLO monitors, and the breach-triggered dump —
//! all against real servers on loopback.

mod common;

use common::*;
use oftec::faults::FaultKind;
use oftec_serve::{FaultPlan, ServeConfig};
use serde::Value;

fn steady_line(rpm: f64, amps: f64, id: u64) -> String {
    format!(r#"{{"cmd":"steady","id":{id},"benchmark":"qsort","rpm":{rpm},"amps":{amps}}}"#)
}

/// The `trace` object from a response envelope.
fn trace_obj(line: &str) -> Vec<(String, Value)> {
    field(&envelope(line), "trace")
        .as_map()
        .expect("trace object")
        .to_vec()
}

/// Stage names present in a response's trace, in stamp order.
fn stage_names(line: &str) -> Vec<String> {
    field(&trace_obj(line), "stages")
        .as_map()
        .expect("stages map")
        .iter()
        .map(|(k, _)| k.trim_end_matches("_us").to_string())
        .collect()
}

fn trace_field_str(line: &str, key: &str) -> String {
    field(&trace_obj(line), key)
        .as_str()
        .expect("string trace field")
        .to_string()
}

#[test]
fn workload_responses_carry_trace_metadata() {
    let server = TestServer::start(test_config());
    let mut conn = Conn::open(server.addr);

    // A solve miss walks the whole pipeline: every stage is stamped.
    let miss = conn.request(&steady_line(3100.0, 1.1, 1));
    assert!(is_ok(&miss), "solve must succeed: {miss}");
    let id = trace_field_str(&miss, "id");
    assert_eq!(id.len(), 16, "trace id is 16 hex chars: {id}");
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(
        stage_names(&miss),
        ["parse", "cache", "queue", "batch", "solve"],
        "miss path stamps all five stages: {miss}"
    );
    let outcome = trace_field_str(&miss, "outcome");
    assert!(
        ["reduced", "fallback", "full"].contains(&outcome.as_str()),
        "solved outcome names the solve path: {outcome}"
    );

    // A repeat is answered from the cache on the connection thread.
    let hit = conn.request(&steady_line(3100.0, 1.1, 2));
    assert!(cached_flag(&hit), "repeat must hit: {hit}");
    assert_eq!(trace_field_str(&hit, "outcome"), "cache_hit");
    assert_eq!(stage_names(&hit), ["parse", "cache"]);
    assert_ne!(
        trace_field_str(&hit, "id"),
        id,
        "each request gets its own trace id"
    );

    // Typed errors are traced too, with the cause as the outcome.
    let bad = conn.request(r#"{"cmd":"steady","benchmark":"doom"}"#);
    assert_eq!(error_kind(&bad), "unknown_benchmark");
    assert_eq!(trace_field_str(&bad, "outcome"), "parse");

    // Probes stay untraced: control-plane traffic is not a workload.
    let health = conn.request(r#"{"cmd":"health"}"#);
    assert!(field(&envelope(&health), "trace").as_map().is_none());

    // `result` stays the last envelope field even with a trace present
    // (the test helpers and downstream parsers rely on it).
    let result_pos = miss.find("\"result\":").expect("result field");
    let trace_pos = miss.find("\"trace\":").expect("trace field");
    assert!(trace_pos < result_pos, "trace precedes result: {miss}");
    server.stop();
}

/// The same single-connection request script must leave bit-identical
/// flight-recorder contents (durations redacted) at any executor width:
/// trace ids are (connection, sequence) hashes and stage/outcome
/// attribution never depends on scheduling.
#[test]
fn flight_recorder_is_deterministic_across_thread_counts() {
    let run = |threads: usize| -> (Vec<String>, String) {
        let server = TestServer::start(ServeConfig {
            threads,
            ..test_config()
        });
        let mut conn = Conn::open(server.addr);
        let mut ids = Vec::new();
        // Miss, repeat (hit), a second point, malformed JSON, unknown
        // benchmark, an expired deadline: every outcome class the
        // pipeline can produce without fault injection.
        for req in [
            steady_line(2900.0, 0.9, 1),
            steady_line(2900.0, 0.9, 2),
            steady_line(3500.0, 1.7, 3),
            "{not json".to_string(),
            r#"{"cmd":"steady","id":4,"benchmark":"doom"}"#.to_string(),
            r#"{"cmd":"steady","id":5,"benchmark":"qsort","rpm":3000,"amps":1.0,"deadline_ms":0,"no_cache":true}"#
                .to_string(),
        ] {
            let resp = conn.request(&req);
            ids.push(trace_field_str(&resp, "id"));
        }
        let flight = conn.request(r#"{"cmd":"trace","limit":64,"redact":true}"#);
        assert!(is_ok(&flight), "trace endpoint answers: {flight}");
        let payload = result_json(&flight);
        server.stop();
        (ids, payload)
    };
    let (ids_1, flight_1) = run(1);
    let (ids_8, flight_8) = run(8);
    assert_eq!(ids_1, ids_8, "trace ids must not depend on OFTEC_THREADS");
    assert_eq!(
        flight_1, flight_8,
        "redacted flight-recorder contents must be bit-identical"
    );
    // The recorder actually saw the script: six records, errors retained.
    assert!(flight_1.contains("\"recorded\":6"), "{flight_1}");
    for outcome in ["cache_hit", "parse", "deadline"] {
        assert!(
            flight_1.contains(&format!("\"outcome\":\"{outcome}\"")),
            "flight recorder must retain a '{outcome}' record: {flight_1}"
        );
    }
}

/// `serve.responses_ok` must count workload responses exactly: probe
/// traffic (health/metrics/trace/slo) touches only `serve.probes`. This
/// pins the invariant that a load generator's metrics side channel can
/// never make the server's ok-count disagree with the client's.
#[test]
fn probes_never_touch_workload_response_counters() {
    let server = TestServer::start(test_config());
    let mut conn = Conn::open(server.addr);
    // Probe flurry + exactly one workload request.
    conn.request(r#"{"cmd":"health"}"#);
    conn.request(r#"{"cmd":"metrics","format":"prometheus"}"#);
    conn.request(r#"{"cmd":"trace"}"#);
    conn.request(r#"{"cmd":"slo"}"#);
    let solve = conn.request(&steady_line(2750.0, 1.3, 9));
    assert!(is_ok(&solve));
    let after = conn.request(r#"{"cmd":"metrics"}"#);
    assert_eq!(
        counter(&after, "serve.responses_ok"),
        1,
        "exactly the one workload response counts as ok"
    );
    assert_eq!(counter(&after, "serve.responses_err"), 0);
    assert_eq!(
        counter(&after, "serve.requests"),
        1,
        "probes are not workload requests"
    );
    // The four probes plus the `after` metrics call itself.
    assert_eq!(counter(&after, "serve.probes"), 5);
    server.stop();
}

/// Counters belong to the server that counted them: two servers alive in
/// one process, fed different traffic, each report exactly their own.
#[test]
fn two_servers_in_one_process_report_their_own_counters() {
    let a = TestServer::start(test_config());
    let b = TestServer::start(test_config());
    let mut conn_a = Conn::open(a.addr);
    let mut conn_b = Conn::open(b.addr);
    // A: one miss, then two hits on the same point. B: one miss, one
    // malformed request and a health probe, interleaved with A's traffic.
    assert!(is_ok(&conn_a.request(&steady_line(3050.0, 1.2, 1))));
    assert!(is_ok(&conn_b.request(&steady_line(3050.0, 1.2, 1))));
    assert!(cached_flag(&conn_a.request(&steady_line(3050.0, 1.2, 2))));
    assert_eq!(error_kind(&conn_b.request("{not json")), "bad_request");
    assert!(cached_flag(&conn_a.request(&steady_line(3050.0, 1.2, 3))));
    assert!(is_ok(&conn_b.request(r#"{"cmd":"health"}"#)));

    // Each `metrics` call counts itself as a probe.
    let metrics_a = conn_a.request(r#"{"cmd":"metrics"}"#);
    let metrics_b = conn_b.request(r#"{"cmd":"metrics"}"#);
    for (name, want_a, want_b) in [
        ("serve.requests", 3, 2),
        ("serve.responses_ok", 3, 1),
        ("serve.cache.hits", 2, 0),
        ("serve.probes", 1, 2),
    ] {
        assert_eq!(counter(&metrics_a, name), want_a, "server A {name}");
        assert_eq!(counter(&metrics_b, name), want_b, "server B {name}");
    }
    a.stop();
    b.stop();
}

#[test]
fn slo_endpoint_reports_all_monitors_and_fault_bursts_breach() {
    let server = TestServer::start(ServeConfig {
        fault: Some(FaultPlan {
            kind: FaultKind::Error,
            every: 1,
        }),
        flight_dump: Some(format!(
            "{}/oftec-flight-{}.jsonl",
            std::env::temp_dir().display(),
            std::process::id()
        )),
        ..test_config()
    });
    let mut conn = Conn::open(server.addr);

    // Quiet state: four monitors, none breached, none with enough data.
    let quiet = conn.request(r#"{"cmd":"slo"}"#);
    assert!(is_ok(&quiet), "slo endpoint answers: {quiet}");
    let monitors = |line: &str| -> Vec<Vec<(String, Value)>> {
        let result: Value = serde_json::from_str(&result_json(line)).expect("slo payload");
        field(result.as_map().expect("slo object"), "monitors")
            .as_seq()
            .expect("monitors array")
            .iter()
            .map(|m| m.as_map().expect("monitor object").to_vec())
            .collect()
    };
    let quiet_monitors = monitors(&quiet);
    let names: Vec<String> = quiet_monitors
        .iter()
        .map(|m| field(m, "name").as_str().expect("name").to_string())
        .collect();
    assert_eq!(
        names,
        [
            "serve.slo.shed_rate",
            "serve.slo.solver_error_rate",
            "serve.slo.fallback_rate",
            "serve.slo.residual_drift"
        ]
    );
    for m in &quiet_monitors {
        assert_eq!(field(m, "breached").as_bool(), Some(false));
    }

    // Every solve faults: after `min_count` responses the solver-error
    // monitor must breach, and the breach dumps the flight recorder.
    for i in 0..10u64 {
        let resp = conn.request(&format!(
            r#"{{"cmd":"steady","id":{i},"benchmark":"qsort","rpm":{},"amps":1.0,"no_cache":true}}"#,
            2400.0 + 10.0 * i as f64
        ));
        assert_eq!(error_kind(&resp), "thermal");
        assert_eq!(trace_field_str(&resp, "outcome"), "solver");
    }
    let burst_monitors = monitors(&conn.request(r#"{"cmd":"slo"}"#));
    let solver = burst_monitors
        .iter()
        .find(|m| field(m, "name").as_str() == Some("serve.slo.solver_error_rate"))
        .expect("solver monitor");
    assert_eq!(field(solver, "breached").as_bool(), Some(true));
    assert!(field(solver, "breaches").as_f64().unwrap_or(0.0) >= 1.0);
    assert!(field(solver, "mean").as_f64().unwrap_or(0.0) > 0.5);

    // The recorder retained the failures and the dump file exists.
    let flight = conn.request(r#"{"cmd":"trace","limit":16}"#);
    assert!(flight.contains("\"outcome\":\"solver\""), "{flight}");
    let dump = format!(
        "{}/oftec-flight-{}.jsonl",
        std::env::temp_dir().display(),
        std::process::id()
    );
    let dumped = std::fs::read_to_string(&dump).expect("flight dump written on breach");
    assert!(
        dumped.lines().any(|l| l.contains("\"ok\":false")),
        "dump holds the failing traces: {dumped}"
    );
    let _ = std::fs::remove_file(&dump);
    server.stop();
}
