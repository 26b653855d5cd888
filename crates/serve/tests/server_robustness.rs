//! End-to-end robustness envelope: real sockets, real worker pool, every
//! failure mode driven deterministically through the seeded chaos
//! middleware and asserted from the client side.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use wavm3_obs::reqtrace::TailSampler;
use wavm3_serve::http::{roundtrip, ClientResponse};
use wavm3_serve::{BreakerConfig, ChaosConfig, DrainReport, ObsOptions, ServeConfig, ServerHandle};

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn post(
    handle: &ServerHandle,
    path: &str,
    body: &str,
    headers: &[(&str, String)],
) -> ClientResponse {
    let mut stream = connect(handle);
    roundtrip(&mut stream, "POST", path, headers, body.as_bytes()).expect("roundtrip")
}

fn get(handle: &ServerHandle, path: &str) -> ClientResponse {
    let mut stream = connect(handle);
    roundtrip(&mut stream, "GET", path, &[], b"").expect("roundtrip")
}

fn degraded_flag(response: &ClientResponse) -> bool {
    let v: serde::Value = serde_json::from_str(&response.body_text()).expect("json body");
    matches!(v.get("degraded"), Some(serde::Value::Bool(true)))
}

fn quiet() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn predict_and_plan_answer_with_real_coefficients() {
    let handle = wavm3_serve::start(quiet()).expect("start");
    let predict = post(
        &handle,
        "/predict",
        r#"{"kind": "live", "ram_mib": 4096}"#,
        &[],
    );
    assert_eq!(predict.status, 200, "{}", predict.body_text());
    let v: serde::Value = serde_json::from_str(&predict.body_text()).unwrap();
    assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("live"));
    assert!(!degraded_flag(&predict));
    match v.get("total_energy_j") {
        Some(serde::Value::F64(e)) => assert!(*e > 0.0 && e.is_finite(), "{e}"),
        other => panic!("total_energy_j missing or non-float: {other:?}"),
    }

    let plan = post(
        &handle,
        "/plan",
        r#"{"kind": "non_live", "ram_mib": 2048, "machine_set": "O"}"#,
        &[],
    );
    assert_eq!(plan.status, 200, "{}", plan.body_text());
    let v: serde::Value = serde_json::from_str(&plan.body_text()).unwrap();
    assert_eq!(v.get("machine_set").and_then(|k| k.as_str()), Some("O"));
    assert!(matches!(v.get("est_bytes"), Some(serde::Value::U64(b)) if *b > 0));

    let health = get(&handle, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"breaker\": \"closed\""));

    let report = handle.join();
    assert_eq!(report.accepted, report.completed + report.shed);
}

#[test]
fn malformed_and_unknown_requests_stay_client_errors() {
    let handle = wavm3_serve::start(quiet()).expect("start");
    let bad = post(&handle, "/predict", "{not json", &[]);
    assert_eq!(bad.status, 400);
    assert!(bad.body_text().contains("bad_request"));

    let missing = post(&handle, "/predict", r#"{"ram_mib": 512}"#, &[]);
    assert_eq!(missing.status, 400);
    assert!(missing
        .body_text()
        .contains("missing required field `kind`"));

    let nowhere = get(&handle, "/nope");
    assert_eq!(nowhere.status, 404);

    let wrong_method = get(&handle, "/predict");
    assert_eq!(wrong_method.status, 405);

    let snapshot = handle.registry().snapshot();
    assert_eq!(
        snapshot.counters.get("serve.responses.client_error"),
        Some(&2)
    );
    // Client bugs never feed the breaker.
    assert!(!snapshot.counters.contains_key("serve.breaker.opened"));
    handle.join();
}

#[test]
fn injected_latency_beyond_the_deadline_is_a_503_with_retry_after() {
    let cfg = ServeConfig {
        chaos: ChaosConfig {
            seed: 5,
            latency_probability: 1.0,
            min_latency_ms: 200,
            max_latency_ms: 200,
            error_probability: 0.0,
            drop_probability: 0.0,
        },
        ..quiet()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let response = post(
        &handle,
        "/predict",
        r#"{"kind": "live", "ram_mib": 1024}"#,
        &[("x-wavm3-deadline-ms", "100".to_string())],
    );
    assert_eq!(response.status, 503, "{}", response.body_text());
    assert!(response.body_text().contains("deadline_exceeded"));
    assert_eq!(response.header("retry-after"), Some("1"));

    let snapshot = handle.registry().snapshot();
    assert_eq!(snapshot.counters.get("serve.deadline.breached"), Some(&1));
    assert_eq!(
        snapshot.counters.get("serve.chaos.latency_injected"),
        Some(&1)
    );
    handle.join();
}

#[test]
fn breaker_trips_to_the_degraded_fast_path_instead_of_erroring() {
    let cfg = ServeConfig {
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown_us: 3_600_000_000, // stay open for the whole test
            probe_quota: 1,
            probe_successes: 1,
        },
        chaos: ChaosConfig {
            seed: 11,
            latency_probability: 0.0,
            min_latency_ms: 0,
            max_latency_ms: 0,
            error_probability: 1.0,
            drop_probability: 0.0,
        },
        workers: 1, // serialise so the failure order is exact
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let body = r#"{"kind": "live", "ram_mib": 4096}"#;

    // Three consecutive injected failures trip the breaker...
    for i in 0..3 {
        let response = post(&handle, "/predict", body, &[]);
        assert_eq!(
            response.status,
            500,
            "request {i}: {}",
            response.body_text()
        );
        assert!(response.body_text().contains("injected_fault"));
    }
    // ...and every later request degrades to last-known-good instead of
    // surfacing the (still firing) injected fault.
    for i in 0..4 {
        let response = post(&handle, "/predict", body, &[]);
        assert_eq!(
            response.status,
            200,
            "request {i}: {}",
            response.body_text()
        );
        assert!(degraded_flag(&response), "request {i} must be degraded");
        let v: serde::Value = serde_json::from_str(&response.body_text()).unwrap();
        assert_eq!(v.get("breaker").and_then(|b| b.as_str()), Some("open"));
        match v.get("total_energy_j") {
            Some(serde::Value::F64(e)) => assert!(*e > 0.0, "degraded estimate must be usable"),
            other => panic!("degraded response without energy: {other:?}"),
        }
    }
    let health = get(&handle, "/healthz");
    assert!(health.body_text().contains("\"breaker\": \"open\""));

    let snapshot = handle.registry().snapshot();
    assert_eq!(
        snapshot.counters.get("serve.responses.server_error"),
        Some(&3)
    );
    assert_eq!(snapshot.counters.get("serve.responses.degraded"), Some(&4));
    assert_eq!(snapshot.counters.get("serve.breaker.opened"), Some(&1));
    handle.join();
}

#[test]
fn overload_sheds_with_429_and_never_hangs() {
    // One worker stuck 300 ms per request + a one-slot queue: a burst of
    // five connections must produce a mix of 200s and 429s, all answered.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        chaos: ChaosConfig {
            seed: 3,
            latency_probability: 1.0,
            min_latency_ms: 300,
            max_latency_ms: 300,
            error_probability: 0.0,
            drop_probability: 0.0,
        },
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let addr = handle.local_addr();
    let clients: Vec<_> = (0..5)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                roundtrip(
                    &mut stream,
                    "POST",
                    "/predict",
                    &[],
                    br#"{"kind": "live", "ram_mib": 1024}"#,
                )
                .expect("every connection gets an answer")
            })
        })
        .collect();
    let responses: Vec<ClientResponse> = clients
        .into_iter()
        .map(|t| t.join().expect("client"))
        .collect();

    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 429).count();
    assert_eq!(
        ok + shed,
        5,
        "statuses: {:?}",
        responses.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    assert!(shed >= 1, "a one-slot queue under a 5-burst must shed");
    assert!(ok >= 2, "the worker plus queue slot must still serve");
    for r in responses.iter().filter(|r| r.status == 429) {
        assert_eq!(r.header("retry-after"), Some("1"));
        assert!(r.body_text().contains("overloaded"));
    }

    let report = handle.join();
    assert_eq!(report.accepted, 5);
    assert_eq!(report.shed as usize, shed);
    assert_eq!(report.accepted, report.completed + report.shed);
}

#[test]
fn graceful_drain_finishes_every_accepted_request() {
    // Every request takes ~150 ms; shutdown fires while all of them are
    // queued or in flight. None may be dropped.
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        chaos: ChaosConfig {
            seed: 9,
            latency_probability: 1.0,
            min_latency_ms: 150,
            max_latency_ms: 150,
            error_probability: 0.0,
            drop_probability: 0.0,
        },
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let addr = handle.local_addr();
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                roundtrip(
                    &mut stream,
                    "POST",
                    "/plan",
                    &[],
                    br#"{"kind": "non_live", "ram_mib": 2048}"#,
                )
            })
        })
        .collect();
    // Let the burst land, then drain while requests are still sleeping
    // in the chaos latency stage.
    std::thread::sleep(Duration::from_millis(60));
    let report = handle.join();

    assert_eq!(report.accepted, 6);
    assert_eq!(
        report.accepted,
        report.completed + report.shed,
        "drain must account for every accepted connection"
    );
    for client in clients {
        let response = client.join().expect("client thread").expect("response");
        assert!(
            response.status == 200 || response.status == 429,
            "in-flight request must be answered, got {}",
            response.status
        );
    }
}

/// Chaos that holds every request in a worker for `ms` milliseconds.
fn fixed_latency(seed: u64, ms: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        latency_probability: 1.0,
        min_latency_ms: ms,
        max_latency_ms: ms,
        error_probability: 0.0,
        drop_probability: 0.0,
    }
}

/// Poll a registry counter until it reaches `want` (bounded wait).
fn wait_for_counter(handle: &ServerHandle, name: &str, want: u64) {
    let started = Instant::now();
    loop {
        let seen = handle
            .registry()
            .snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0);
        if seen >= want {
            return;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{name} stuck at {seen}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Connect on this thread, so the connection's place in the listen
/// backlog is fixed, then send one `/predict` and read the reply on
/// another.
fn send_predict(addr: SocketAddr) -> std::thread::JoinHandle<ClientResponse> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    std::thread::spawn(move || {
        roundtrip(
            &mut stream,
            "POST",
            "/predict",
            &[],
            br#"{"kind": "live", "ram_mib": 1024}"#,
        )
        .expect("roundtrip")
    })
}

#[test]
fn join_on_an_idle_server_returns_promptly() {
    // The accept thread blocks in accept(); join must wake it, also when
    // the listener is bound to the unspecified address.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let cfg = ServeConfig {
            addr: addr.to_string(),
            ..quiet()
        };
        let handle = wavm3_serve::start(cfg).expect("start");
        let started = Instant::now();
        let report = handle.join();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(200),
            "{addr}: join took {took:?}"
        );
        assert_eq!(
            report,
            DrainReport {
                accepted: 0,
                completed: 0,
                shed: 0,
                chaos_dropped: 0,
            },
            "{addr}: the wake connection must not be counted"
        );
    }
}

#[test]
fn shutdown_from_another_thread_mid_request_accounts_for_every_client() {
    const CLIENTS: u64 = 6;
    let cfg = ServeConfig {
        workers: CLIENTS as usize,
        chaos: fixed_latency(4, 200),
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let addr = handle.local_addr();
    let clients: Vec<_> = (0..CLIENTS).map(|_| send_predict(addr)).collect();
    // Every client is accepted and asleep in a worker's chaos stage.
    wait_for_counter(&handle, "serve.chaos.latency_injected", CLIENTS);
    std::thread::scope(|s| {
        s.spawn(|| handle.shutdown());
    });
    // A connection after shutdown is never accepted (it may be refused
    // outright once the listener is gone).
    let late = TcpStream::connect(addr);
    let report = handle.join();
    drop(late);

    assert_eq!(report.accepted, CLIENTS);
    assert_eq!(report.accepted, report.completed + report.shed);
    assert_eq!(report.shed, 0);
    for client in clients {
        let response = client.join().expect("client thread");
        assert_eq!(response.status, 200, "{}", response.body_text());
    }
}

#[test]
fn the_wake_connection_leaves_no_access_log_line_and_no_trace() {
    let dir = std::env::temp_dir().join(format!("wavm3-serve-wake-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cfg = ServeConfig {
        obs: ObsOptions {
            access_log: Some(dir.join("access.log")),
            trace_out: Some(dir.clone()),
            collect_traces: true,
            sampler: TailSampler {
                seed: 1,
                keep_1_in: 1,
                tail_latency_ms: f64::INFINITY,
            },
            ..ObsOptions::default()
        },
        ..quiet()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    for _ in 0..3 {
        let r = post(
            &handle,
            "/predict",
            r#"{"kind": "live", "ram_mib": 1024}"#,
            &[],
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
    }
    // shutdown() and join() each open a wake connection.
    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.accepted, 3);

    let log = std::fs::read_to_string(dir.join("access.log")).expect("access log");
    assert_eq!(log.lines().count(), 3, "{log}");
    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans");
    assert_eq!(spans.lines().count(), 3, "{spans}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stalled_client_on_a_full_queue_holds_admission_for_at_most_the_shed_drain_timeout() {
    // Mirrors the server's SHED_DRAIN_TIMEOUT: the accept thread waits at
    // most this long for a shed connection's request before its 429.
    const SHED_DRAIN_TIMEOUT: Duration = Duration::from_millis(500);
    const MARGIN: Duration = Duration::from_millis(400);
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        default_deadline_ms: 10_000,
        chaos: fixed_latency(2, 1_000),
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let addr = handle.local_addr();

    // A holds the only worker, B the only queue slot.
    let a = send_predict(addr);
    wait_for_counter(&handle, "serve.chaos.latency_injected", 1);
    let b = send_predict(addr);
    // C connects and sends nothing: it is shed, and the accept thread
    // waits on its request for up to SHED_DRAIN_TIMEOUT.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // D is well-formed and queued behind C in the backlog.
    let sent = Instant::now();
    let d = send_predict(addr).join().expect("client thread");
    let waited = sent.elapsed();
    assert_eq!(d.status, 429, "{}", d.body_text());
    assert_eq!(d.header("retry-after"), Some("1"));
    assert!(
        waited < SHED_DRAIN_TIMEOUT + MARGIN,
        "a stalled client held admission for {waited:?}"
    );

    let mut raw = Vec::new();
    stalled.read_to_end(&mut raw).expect("stalled reply");
    assert!(raw.starts_with(b"HTTP/1.1 429 "), "{raw:?}");
    let report = handle.join();
    for client in [a, b] {
        let response = client.join().expect("client thread");
        assert_eq!(response.status, 200, "{}", response.body_text());
    }
    assert_eq!(report.accepted, 4);
    assert_eq!(report.shed, 2);
    assert_eq!(report.accepted, report.completed + report.shed);
}
