//! `serve-mixed`: an in-process `wavm3-serve` server (default
//! `ServeConfig`, chaos off) driven over loopback by the benchmark's own
//! client with seeded `/predict` and `/plan` bodies — first a closed
//! phase at `nproc` connections, then an open phase at two fixed rates.

use crate::spans::Recorder;
use crate::stats::{self, median, Shot, SplitMix};
use crate::{iterate, sys, Ctx, Outcome};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wavm3_migration::MigrationKind;
use wavm3_models::{paper, EnergyModel, HostRole, Wavm3Model};
use wavm3_obs::reqtrace::TailSampler;
use wavm3_serve::api::kind_label;
use wavm3_serve::http::roundtrip;
use wavm3_serve::{ApiRequest, ObsOptions, PlanResponse, PredictResponse, ServeConfig};

/// Open-loop rates, requests per second.
pub const LOW_RPS: f64 = 200.0;
/// See [`LOW_RPS`].
pub const HIGH_RPS: f64 = 500.0;

/// Distinct request bodies generated from the seed.
const BODIES: usize = 512;
/// Bodies whose index is a multiple of this are checked byte for byte.
const CHECK_EVERY: usize = 8;
/// Requests per iteration in each phase.
const CLOSED_REQUESTS: usize = 1000;
const LOW_REQUESTS: usize = 400;
const HIGH_REQUESTS: usize = 600;
/// Server start-ups timed after each iteration; `setup_s` is the median
/// over the run.
const SERVER_SETUPS: usize = 40;
/// How long the client waits for a reply before counting a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Iterations a pass needs so the low-rate p99 has 10 samples beyond it.
const MIN_ITERATIONS: usize = 3;

/// One generated request.
struct Body {
    path: &'static str,
    json: String,
    /// The exact 200 body the server must return, for checked bodies.
    expected: Option<String>,
}

fn model_for(kind: MigrationKind) -> Wavm3Model {
    match kind {
        MigrationKind::NonLive => paper::wavm3_non_live(),
        MigrationKind::Live | MigrationKind::PostCopy => paper::wavm3_live(),
    }
}

fn parse_body(json: &str) -> Result<ApiRequest, String> {
    let value: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    ApiRequest::from_value(&value)
}

/// `ApiRequest::plan` plus `predict_energy`, rendered the way a healthy
/// server answers (breaker closed, not degraded).
fn expected_response(req: &ApiRequest, is_plan: bool) -> String {
    let plan = req.plan();
    let record = plan.to_record();
    let model = model_for(req.kind);
    let source = model.predict_energy(HostRole::Source, &record);
    let target = model.predict_energy(HostRole::Target, &record);
    let downtime_ms = plan.est_downtime.as_secs_f64() * 1e3;
    let duration_s = (plan.phases.me - plan.phases.ms).as_secs_f64();
    let body = if is_plan {
        serde_json::to_string(&PlanResponse {
            kind: kind_label(req.kind).to_string(),
            machine_set: req.set_label().to_string(),
            est_bytes: plan.est_bytes,
            est_downtime_ms: downtime_ms,
            est_bandwidth_bps: plan.est_bandwidth_bps,
            est_precopy_rounds: plan.est_precopy_rounds as u64,
            est_duration_s: duration_s,
            samples: plan.samples.len() as u64,
            degraded: false,
            breaker: "closed".to_string(),
        })
    } else {
        serde_json::to_string(&PredictResponse {
            kind: kind_label(req.kind).to_string(),
            machine_set: req.set_label().to_string(),
            source_energy_j: source,
            target_energy_j: target,
            total_energy_j: source + target,
            downtime_ms,
            duration_s,
            est_bytes: plan.est_bytes,
            degraded: false,
            breaker: "closed".to_string(),
        })
    };
    body.expect("responses serialise")
}

/// Seeded bodies: all three mechanisms on both machine sets, about a
/// third `/plan`, about a quarter carrying truth energies (the drift
/// monitor's write path).
fn bodies(seed: u64) -> Vec<Body> {
    let mut rng = SplitMix::new(seed, 0x5e7e);
    (0..BODIES)
        .map(|i| {
            let kind = ["live", "non_live", "post_copy"][i % 3];
            let set = ["M", "O"][(i / 3) % 2];
            let path = if rng.unit() < 0.35 { "/plan" } else { "/predict" };
            let mut json = format!(
                "{{\"kind\": \"{kind}\", \"machine_set\": \"{set}\", \"ram_mib\": {}, \"vcpus\": {}, \
                 \"vm_cpu_fraction\": {:.4}, \"working_set_fraction\": {:.4}, \"page_write_rate\": {:.1}, \
                 \"source_other_cores\": {:.3}, \"target_other_cores\": {:.3}",
                512 * (1 + rng.below(8)),
                1 + rng.below(4),
                rng.range(0.1, 0.9),
                rng.range(0.1, 0.6),
                rng.range(500.0, 8000.0),
                rng.range(0.0, 6.0),
                rng.range(0.0, 6.0),
            );
            if rng.unit() < 0.25 {
                let req = parse_body(&format!("{json}}}")).expect("generated bodies parse");
                let record = req.plan().to_record();
                let model = model_for(req.kind);
                for (field, role) in [
                    ("truth_source_energy_j", HostRole::Source),
                    ("truth_target_energy_j", HostRole::Target),
                ] {
                    let truth = model.predict_energy(role, &record) * rng.range(0.97, 1.03);
                    json.push_str(&format!(", \"{field}\": {:.6}", truth.max(1e-3)));
                }
            }
            json.push('}');
            let expected = (i % CHECK_EVERY == 0).then(|| {
                let req = parse_body(&json).expect("generated bodies parse");
                expected_response(&req, path == "/plan")
            });
            Body {
                path,
                json,
                expected,
            }
        })
        .collect()
}

/// Poisson arrival offsets for `n` requests at `rate`, fixed by the seed.
fn arrivals(seed: u64, salt: u64, n: usize, rate: f64) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed, salt);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let at = Duration::from_secs_f64(t);
            t += -(1.0 - rng.unit()).ln() / rate;
            at
        })
        .collect()
}

/// A trace id the client supplies, so server spans join client timings.
fn trace_id(seed: u64, phase: u64, iteration: usize, i: usize) -> String {
    format!(
        "{:016x}{:016x}",
        seed | 1 << 63,
        phase << 48 | (iteration as u64) << 24 | i as u64
    )
}

/// One request's client-side outcome.
struct Res {
    shot: Shot,
    status: u16,
    trace: String,
    mismatch: bool,
}

fn send(addr: SocketAddr, body: &Body, trace: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let resp = roundtrip(
        &mut stream,
        "POST",
        body.path,
        &[("x-wavm3-trace-id", trace.to_string())],
        body.json.as_bytes(),
    )?;
    Ok((resp.status, resp.body))
}

/// Send `due.len()` requests over `threads` connections; request `i`
/// waits for `due[i]` (all zero in the closed phase, so each connection
/// sends its next request as soon as the previous one completes).
fn phase(
    addr: SocketAddr,
    bodies: &[Body],
    due: &[Duration],
    threads: usize,
    trace: impl Fn(usize) -> String + Sync,
) -> (Vec<Res>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut results: Vec<Res> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= due.len() {
                            return out;
                        }
                        if let Some(wait) = due[i].checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let body = &bodies[i % bodies.len()];
                        let trace = trace(i);
                        let sent = start.elapsed();
                        let reply = send(addr, body, &trace);
                        let done = start.elapsed();
                        let status = reply.as_ref().map_or(0, |r| r.0);
                        let mismatch = match (&reply, &body.expected) {
                            (Ok((200, got)), Some(want)) => got != want.as_bytes(),
                            _ => false,
                        };
                        out.push(Res {
                            shot: Shot {
                                due: due[i],
                                sent,
                                done,
                                ok: status == 200,
                            },
                            status,
                            trace,
                            mismatch,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    results.sort_by_key(|r| r.shot.due);
    (results, wall)
}

fn get_health(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).is_ok()
        && roundtrip(&mut stream, "GET", "/healthz", &[], &[]).is_ok_and(|r| r.status == 200)
}

/// `wavm3_serve::start` until the first `GET /healthz` returns 200.
fn start_server(cfg: ServeConfig) -> (wavm3_serve::ServerHandle, f64) {
    let started = Instant::now();
    let handle = wavm3_serve::start(cfg).expect("the default serve config is valid");
    while !get_health(handle.local_addr()) {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "server never became healthy"
        );
    }
    (handle, started.elapsed().as_secs_f64())
}

struct Iteration {
    closed_wall: f64,
    closed_ok: u64,
    low: Vec<Res>,
    high: Vec<Res>,
    closed: Vec<Res>,
}

impl Iteration {
    fn all(&self) -> impl Iterator<Item = &Res> {
        self.closed.iter().chain(&self.low).chain(&self.high)
    }

    fn counts(&self) -> Vec<(&'static str, u64)> {
        let ok = |rs: &[Res]| rs.iter().filter(|r| r.status == 200).count() as u64;
        let with = |f: &dyn Fn(u16) -> bool| self.all().filter(|r| f(r.status)).count() as u64;
        vec![
            ("closed_ok", ok(&self.closed)),
            ("low_ok", ok(&self.low)),
            ("high_ok", ok(&self.high)),
            ("shed_seen", with(&|s| s == 429)),
            ("not_ok", with(&|s| s != 200)),
        ]
    }
}

fn iteration(
    ctx: &Ctx,
    addr: SocketAddr,
    bodies: &[Body],
    i: usize,
    rec: &mut Recorder,
) -> Iteration {
    let seed = ctx.seed;
    let closed_due = vec![Duration::ZERO; CLOSED_REQUESTS];
    let low_due = arrivals(seed, 0x10, LOW_REQUESTS, LOW_RPS);
    let high_due = arrivals(seed, 0x11, HIGH_REQUESTS, HIGH_RPS);
    rec.enter("serve-mixed");
    let ((closed, closed_wall), _) = rec.time("loadgen.closed", || {
        phase(addr, bodies, &closed_due, ctx.threads, |j| {
            trace_id(seed, 1, i, j)
        })
    });
    let ((low, _), _) = rec.time("loadgen.open_low", || {
        phase(addr, bodies, &low_due, ctx.threads, |j| {
            trace_id(seed, 2, i, j)
        })
    });
    let ((high, _), _) = rec.time("loadgen.open_high", || {
        phase(addr, bodies, &high_due, ctx.threads, |j| {
            trace_id(seed, 3, i, j)
        })
    });
    rec.exit();
    let closed_ok = closed.iter().filter(|r| r.status == 200).count() as u64;
    Iteration {
        closed_wall,
        closed_ok,
        low,
        high,
        closed,
    }
}

/// The default `ServeConfig`; traced servers keep every request trace.
fn config(seed: u64, traced: bool) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    if traced {
        cfg.obs = ObsOptions {
            collect_traces: true,
            sampler: TailSampler {
                seed,
                keep_1_in: 1,
                tail_latency_ms: f64::INFINITY,
            },
            ..ObsOptions::default()
        };
    }
    cfg
}

/// Everything a run measured against its servers.
struct Sessions {
    setups: Vec<f64>,
    plain: Vec<Iteration>,
    armed: Vec<Iteration>,
    drains: Vec<wavm3_serve::DrainReport>,
    spans_jsonl: Option<String>,
}

/// Run iterations for `ctx.seconds` against an untraced server and, in
/// traced runs, alternately against a second server that keeps every
/// request trace (interleaved, so both see the same machine). Server
/// start-ups are timed between iterations.
fn sessions(ctx: &Ctx, bodies: &[Body], traced: bool, rec: &mut Recorder) -> Sessions {
    let (plain_server, _) = start_server(config(ctx.seed, false));
    let armed_server = traced.then(|| start_server(config(ctx.seed, true)).0);
    let mut setups = Vec::new();
    let (mut plain, mut armed) = (Vec::new(), Vec::new());
    let min_iterations = MIN_ITERATIONS * if traced { 2 } else { 1 };
    iterate(ctx.seconds, min_iterations, |i| {
        match &armed_server {
            Some(server) if i % 2 == 1 => {
                armed.push(iteration(ctx, server.local_addr(), bodies, i, rec));
            }
            _ => plain.push(iteration(ctx, plain_server.local_addr(), bodies, i, rec)),
        }
        for _ in 0..SERVER_SETUPS {
            let (handle, t) = start_server(config(ctx.seed, false));
            setups.push(t);
            handle.join();
        }
    });
    let spans_jsonl = armed_server.as_ref().and_then(|s| s.trace_jsonl());
    let mut drains = vec![plain_server.join()];
    drains.extend(armed_server.map(|s| s.join()));
    Sessions {
        setups,
        plain,
        armed,
        drains,
        spans_jsonl,
    }
}

fn latencies<'a>(rs: impl Iterator<Item = &'a Res>) -> Vec<f64> {
    rs.map(|r| r.shot.latency_ms()).collect()
}

/// In-process cost of the layers a request crosses, on the workload's
/// own bodies: µs per call of parse, plan and predict.
fn in_process(bodies: &[Body], layers: &mut BTreeMap<&'static str, f64>) {
    let (mut parse, mut plan, mut predict) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut n = 0u32;
    for _ in 0..4 {
        for body in bodies {
            let t0 = Instant::now();
            let req = std::hint::black_box(parse_body(&body.json).expect("generated bodies parse"));
            let t1 = Instant::now();
            let p = std::hint::black_box(req.plan());
            let t2 = Instant::now();
            let record = p.to_record();
            let t3 = Instant::now();
            let model = model_for(req.kind);
            std::hint::black_box(
                model.predict_energy(HostRole::Source, &record)
                    + model.predict_energy(HostRole::Target, &record),
            );
            let t4 = Instant::now();
            parse += t1 - t0;
            plan += t2 - t1;
            predict += t4 - t3;
            n += 1;
        }
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6 / n as f64;
    layers.insert("api.parse_us", us(parse));
    layers.insert("planner.plan_us", us(plan));
    layers.insert("models.predict_us", us(predict));
}

/// Per-span self times (ms) by layer, plus the root span per trace id,
/// from the server's JSONL span export.
fn span_self_times(jsonl: &str) -> (BTreeMap<&'static str, Vec<f64>>, HashMap<String, f64>) {
    let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut roots = HashMap::new();
    for line in jsonl.lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if !matches!(
            v.get("route").and_then(Value::as_str),
            Some("predict" | "plan")
        ) {
            continue;
        }
        let num = |v: &Value, k: &str| match v.get(k) {
            Some(Value::U64(x)) => Some(*x as f64),
            Some(Value::I64(x)) => Some(*x as f64),
            Some(Value::F64(x)) => Some(*x),
            _ => None,
        };
        let spans = v.get("spans").and_then(Value::as_array).unwrap_or(&[]);
        let dur: Vec<f64> = spans
            .iter()
            .map(|s| num(s, "end_us").unwrap_or(0.0) - num(s, "start_us").unwrap_or(0.0))
            .collect();
        for (i, s) in spans.iter().enumerate() {
            let children: f64 = spans
                .iter()
                .enumerate()
                .filter(|(_, c)| num(c, "parent") == Some(i as f64))
                .map(|(j, _)| dur[j])
                .sum();
            let layer = match s.get("name").and_then(Value::as_str) {
                Some("request") => {
                    if let Some(id) = v.get("trace_id").and_then(Value::as_str) {
                        roots.insert(id.to_string(), dur[i] / 1e3);
                    }
                    continue;
                }
                Some("queue") => "queue",
                Some("read") => "read",
                Some("parse") => "parse",
                Some("breaker") => "breaker",
                Some("predict" | "plan") => "handle",
                Some("respond") => "respond",
                _ => continue,
            };
            by_layer
                .entry(layer)
                .or_default()
                .push((dur[i] - children).max(0.0) / 1e3);
        }
    }
    (by_layer, roots)
}

/// Measure for `ctx.seconds`; in a traced run, alternate iterations go
/// to a server that keeps every request trace, and yield the per-layer
/// breakdown.
pub fn run(ctx: &Ctx, traced: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let bodies = bodies(ctx.seed);
    let s = sessions(ctx, &bodies, traced, rec);
    out.iterations = s.plain.len() + s.armed.len();
    for d in &s.drains {
        out.check(d.accepted == d.completed + d.shed, || {
            format!(
                "drain accounting: accepted {} != completed {} + shed {}",
                d.accepted, d.completed, d.shed
            )
        });
    }
    let all = || s.plain.iter().chain(&s.armed).flat_map(Iteration::all);
    let mismatches = all().filter(|r| r.mismatch).count();
    out.check(mismatches == 0, || {
        format!("{mismatches} 200 bodies differ from ApiRequest::plan + predict_energy in process")
    });
    let counts: Vec<_> = s
        .plain
        .iter()
        .chain(&s.armed)
        .map(Iteration::counts)
        .collect();
    out.guard(&counts);
    out.attempted = all().count() as u64;
    out.failed = all().filter(|r| r.status != 200).count() as u64;

    let closed =
        |its: &[Iteration]| median(&its.iter().map(|it| it.closed_wall).collect::<Vec<_>>());
    let rps = median(
        &s.plain
            .iter()
            .map(|it| it.closed_ok as f64 / it.closed_wall)
            .collect::<Vec<_>>(),
    );
    let plain_wall = closed(&s.plain);
    out.e2e.insert("setup_s", median(&s.setups));
    out.e2e.insert("peak_rss_mb", sys::peak_rss_mb());
    out.e2e.insert("wall_s", plain_wall);
    out.e2e.insert("throughput_per_s", rps);

    let mut named = vec![("serve_rps", rps, "req/s")];
    let low = latencies(s.plain.iter().flat_map(|it| &it.low));
    let high = latencies(s.plain.iter().flat_map(|it| &it.high));
    for (name, samples, pct) in [
        ("serve_low_p50_ms", &low, 50.0),
        ("serve_low_p99_ms", &low, 99.0),
        ("serve_high_p50_ms", &high, 50.0),
        ("serve_high_p99_ms", &high, 99.0),
    ] {
        match stats::checked_percentile(samples, pct) {
            Ok(v) => named.push((name, v, "ms")),
            Err(e) => out.errors.push(format!("{name}: {e}")),
        }
    }
    named.push((
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    for (name, value, unit) in &named {
        println!("  {name} = {value} {unit}");
    }
    let lateness: Vec<f64> = s
        .plain
        .iter()
        .flat_map(|it| it.low.iter().chain(&it.high))
        .map(|r| r.shot.late_ms())
        .collect();
    if let Some(t) = stats::tail(&lateness) {
        println!(
            "  generator lateness p{} = {} ms over {} requests",
            t.pct, t.value, t.n
        );
    }
    if !traced {
        return out;
    }

    let layers = &mut out.layers;
    for (name, value, _) in &named {
        layers.insert(name, *value);
    }
    match stats::checked_percentile(&lateness, 99.0) {
        Ok(v) => {
            layers.insert("loadgen.late_p99_ms", v);
        }
        Err(e) => out.errors.push(format!("loadgen.late_p99_ms: {e}")),
    }
    let armed_drain = s.drains[1];
    layers.insert("serve.accepted", armed_drain.accepted as f64);
    layers.insert("serve.completed", armed_drain.completed as f64);
    layers.insert("serve.shed", armed_drain.shed as f64);
    in_process(&bodies, layers);

    let (by_layer, roots) = span_self_times(s.spans_jsonl.as_deref().unwrap_or(""));
    for (layer, p50, p99) in [
        ("queue", "serve.queue_p50_ms", "serve.queue_p99_ms"),
        ("read", "serve.read_p50_ms", "serve.read_p99_ms"),
        ("parse", "serve.parse_p50_ms", "serve.parse_p99_ms"),
        ("breaker", "serve.breaker_p50_ms", "serve.breaker_p99_ms"),
        ("handle", "serve.handle_p50_ms", "serve.handle_p99_ms"),
        ("respond", "serve.respond_p50_ms", "serve.respond_p99_ms"),
    ] {
        let samples = by_layer.get(layer).map_or(&[][..], Vec::as_slice);
        for (name, pct) in [(p50, 50.0), (p99, 99.0)] {
            match stats::checked_percentile(samples, pct) {
                Ok(v) => {
                    layers.insert(name, v);
                }
                Err(e) => out.errors.push(format!("{name}: {e}")),
            }
        }
    }
    // Root span over client-observed latency (send to reply) in the
    // low-rate phase; the gap is connect and accept wait.
    let (mut server_ms, mut client_ms) = (0.0, 0.0);
    for r in s.armed.iter().flat_map(|it| &it.low) {
        if let Some(root) = roots.get(&r.trace) {
            server_ms += root;
            client_ms += r.shot.done.saturating_sub(r.shot.sent).as_secs_f64() * 1e3;
        }
    }
    let coverage = 100.0 * server_ms / client_ms.max(f64::MIN_POSITIVE);
    layers.insert("serve.span_coverage_pct", coverage);
    layers.insert("obs.coverage_pct", coverage);
    let armed_wall = closed(&s.armed);
    layers.insert(
        "obs.overhead_pct",
        100.0 * (armed_wall - plain_wall) / plain_wall,
    );
    out
}
