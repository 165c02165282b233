//! Fault-injection coverage: a [`FaultyModel`] wired behind the server via
//! the `CoolingModel` trait. Injected NaNs, errors, and panics mid-batch
//! must yield typed error responses for the affected request while the
//! rest of the batch — and the server — survive.

mod common;

use common::*;
use oftec::faults::FaultKind;
use oftec_power::Benchmark;
use oftec_serve::{reference_payload, FaultPlan, ServeConfig, SolveKind, SolveSpec};
use oftec_thermal::PackageConfig;
use std::time::Duration;

fn faulty_config(kind: FaultKind, every: usize) -> ServeConfig {
    ServeConfig {
        fault: Some(FaultPlan { kind, every }),
        ..test_config()
    }
}

fn steady_line(rpm: f64, id: u64) -> String {
    format!(
        r#"{{"cmd":"steady","id":{id},"benchmark":"qsort","rpm":{rpm},"amps":1.2,"no_cache":true}}"#
    )
}

fn steady_reference(rpm: f64) -> String {
    let spec = SolveSpec {
        kind: SolveKind::Steady,
        benchmark: Benchmark::Quicksort,
        scale: 1.0,
        rpm,
        amps: 1.2,
        omega_points: 0,
        current_points: 0,
        no_cache: true,
        deadline_ms: None,
    };
    reference_payload(&PackageConfig::dac14_coarse(), &spec, None).expect("reference solve")
}

#[test]
fn every_third_solve_panics_deterministically_and_server_survives() {
    let server = TestServer::start(faulty_config(FaultKind::Panic, 3));
    let mut conn = Conn::open(server.addr);
    // Sequential requests → one executor item each → the fault sequence
    // is exactly 1..=9, so items 3, 6, 9 inject.
    let responses: Vec<(f64, String)> = (1..=9u64)
        .map(|i| {
            let rpm = 2000.0 + 100.0 * i as f64;
            (rpm, conn.request(&steady_line(rpm, i)))
        })
        .collect();
    for (i, (rpm, resp)) in responses.iter().enumerate() {
        let seq = i + 1;
        if seq % 3 == 0 {
            assert!(!is_ok(resp), "request {seq} must draw the panic: {resp}");
            assert_eq!(error_kind(resp), "panic");
        } else {
            assert!(is_ok(resp), "request {seq} must survive: {resp}");
            assert_eq!(
                result_json(resp),
                steady_reference(*rpm),
                "surviving request {seq} must be bit-identical to the direct solve"
            );
        }
    }
    // The panics were contained and counted; the server is still healthy.
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "serve.panics"), 3);
    assert!(is_ok(&conn.request(r#"{"cmd":"health"}"#)));
    server.stop();
}

#[test]
fn panic_mid_batch_only_fails_the_affected_requests() {
    // A wide batch window coalesces the concurrent burst into shared
    // batches, so injected panics land mid-batch.
    let server = TestServer::start(ServeConfig {
        batch_window: Duration::from_millis(25),
        batch_max: 16,
        ..faulty_config(FaultKind::Panic, 3)
    });
    let responses: Vec<(f64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=9u64)
            .map(|i| {
                let addr = server.addr;
                scope.spawn(move || {
                    let rpm = 2000.0 + 100.0 * i as f64;
                    let mut conn = Conn::open(addr);
                    (rpm, conn.request(&steady_line(rpm, i)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    // Which request draws a fault depends on arrival order, but the draw
    // sequence itself is deterministic: exactly 3 of 9 items inject.
    let panics: Vec<_> = responses.iter().filter(|(_, r)| !is_ok(r)).collect();
    assert_eq!(
        panics.len(),
        3,
        "exactly every third item panics: {responses:?}"
    );
    for (_, resp) in &panics {
        assert_eq!(error_kind(resp), "panic");
    }
    for (rpm, resp) in responses.iter().filter(|(_, r)| is_ok(r)) {
        assert_eq!(
            result_json(resp),
            steady_reference(*rpm),
            "batch-mates of a panicking item must still be bit-identical"
        );
    }
    let mut conn = Conn::open(server.addr);
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "serve.panics"), 3);
    server.stop();
}

#[test]
fn injected_errors_become_typed_thermal_responses() {
    let server = TestServer::start(faulty_config(FaultKind::Error, 1));
    let mut conn = Conn::open(server.addr);
    for i in 0..3u64 {
        let resp = conn.request(&steady_line(2500.0 + 50.0 * i as f64, i));
        assert!(!is_ok(&resp));
        assert_eq!(
            error_kind(&resp),
            "thermal",
            "injected Err surfaces as-is: {resp}"
        );
    }
    // Errors are not panics.
    let metrics = conn.request(r#"{"cmd":"metrics"}"#);
    assert_eq!(counter(&metrics, "serve.panics"), 0);
    server.stop();
}

#[test]
fn injected_nan_is_screened_as_non_finite() {
    let server = TestServer::start(faulty_config(FaultKind::NonFinite, 1));
    let mut conn = Conn::open(server.addr);
    let resp = conn.request(&steady_line(2800.0, 1));
    assert!(!is_ok(&resp));
    assert_eq!(
        error_kind(&resp),
        "non_finite",
        "poisoned solutions must never serialize as results: {resp}"
    );
    // The connection and server outlive the poisoned solve.
    assert!(is_ok(&conn.request(r#"{"cmd":"health"}"#)));
    server.stop();
}
