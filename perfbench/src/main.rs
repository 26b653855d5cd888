//! Benchmark of the WAVM3 reproduction.
//!
//! ```text
//! perfbench --workload <reproduce|analytic|serve-mixed> --seed <n> --seconds <n> --trace <0|1>
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! Each run measures one workload for `--seconds`, checks the program's
//! outputs, and prints as its last stdout line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! arm the program's existing probes and report the per-layer metrics.
//! A failed output check or determinism guard makes the run exit 1
//! without reporting numbers. See `perfbench/README.md` for where each
//! metric comes from.

mod analytic;
mod probes;
mod reproduce;
mod serve;
mod spans;
mod stats;
mod sys;

use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics every workload reports: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wall_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
];

/// Per-layer metrics every traced run reports (0 where the workload does
/// not exercise the layer): `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // The workloads' own headline figures, by the names users quote.
    ("reproduce_s", "s", "lower"),
    ("sampled_runs_per_s", "runs/s", "higher"),
    ("analytic_runs_per_s", "records/s", "higher"),
    ("analytic_faults_runs_per_s", "records/s", "higher"),
    ("serve_rps", "req/s", "higher"),
    ("serve_low_p50_ms", "ms", "lower"),
    ("serve_low_p99_ms", "ms", "lower"),
    ("serve_high_p50_ms", "ms", "lower"),
    ("serve_high_p99_ms", "ms", "lower"),
    ("error_frac", "ratio", "lower"),
    // experiments.runner
    ("runner.collect_s", "s", "lower"),
    ("runner.parallel_eff", "ratio", "higher"),
    ("runner.repetition_us", "us", "lower"),
    ("runner.shard_us", "us", "lower"),
    ("runner.merge_us", "us", "lower"),
    ("runner.useful_ratio", "ratio", "higher"),
    ("runner.retries", "count", "lower"),
    // migration
    ("migration.sampled_us", "us", "lower"),
    ("migration.analytic_us", "us", "lower"),
    ("analytic.tick_loop_us", "us", "lower"),
    ("analytic.finalise_us", "us", "lower"),
    ("analytic.ticks_per_run", "count", "lower"),
    ("analytic.tick_cache_hit_ratio", "ratio", "higher"),
    // faults
    ("faults.injected", "count", "lower"),
    ("faults.aborted", "count", "lower"),
    // experiments.export
    ("export.json_s", "s", "lower"),
    ("export.csv_s", "s", "lower"),
    ("export.mb", "MB", "lower"),
    // experiments.tables / models
    ("tables.table1_s", "s", "lower"),
    ("tables.table2_s", "s", "lower"),
    ("tables.table3_4_s", "s", "lower"),
    ("tables.table5_s", "s", "lower"),
    ("tables.table6_s", "s", "lower"),
    ("tables.table7_s", "s", "lower"),
    ("models.train_wavm3_s", "s", "lower"),
    // experiments.figures
    ("figures.fig2_s", "s", "lower"),
    ("figures.fig3_s", "s", "lower"),
    ("figures.fig4_s", "s", "lower"),
    ("figures.fig5_s", "s", "lower"),
    ("figures.fig6_s", "s", "lower"),
    ("figures.fig7_s", "s", "lower"),
    // serve: self time per reqtrace span
    ("serve.queue_p50_ms", "ms", "lower"),
    ("serve.queue_p99_ms", "ms", "lower"),
    ("serve.read_p50_ms", "ms", "lower"),
    ("serve.read_p99_ms", "ms", "lower"),
    ("serve.parse_p50_ms", "ms", "lower"),
    ("serve.parse_p99_ms", "ms", "lower"),
    ("serve.breaker_p50_ms", "ms", "lower"),
    ("serve.breaker_p99_ms", "ms", "lower"),
    ("serve.handle_p50_ms", "ms", "lower"),
    ("serve.handle_p99_ms", "ms", "lower"),
    ("serve.respond_p50_ms", "ms", "lower"),
    ("serve.respond_p99_ms", "ms", "lower"),
    ("serve.span_coverage_pct", "%", "higher"),
    ("serve.accepted", "count", "higher"),
    ("serve.completed", "count", "higher"),
    ("serve.shed", "count", "lower"),
    // serve.api / consolidation.planner / models.predict
    ("api.parse_us", "us", "lower"),
    ("planner.plan_us", "us", "lower"),
    ("models.predict_us", "us", "lower"),
    // loadgen
    ("loadgen.late_p99_ms", "ms", "lower"),
    // obs
    ("obs.overhead_pct", "%", "lower"),
    ("obs.coverage_pct", "%", "higher"),
];

/// Per-layer figures by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Median of each per-layer figure over the armed iterations.
pub fn median_layers(per_iteration: &[Layers]) -> Layers {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for layers in per_iteration {
        for (name, value) in layers {
            values.entry(name).or_default().push(*value);
        }
    }
    values
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect()
}

/// Run-wide settings shared by the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Campaign threads and client connections (`nproc`).
    pub threads: usize,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (repetitions requested, requests sent).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks and determinism-guard violations.
    pub errors: Vec<String>,
    /// End-to-end metrics, by [`END_TO_END`] name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Deterministic counts of the first iteration (printed for reruns).
    pub counts: Vec<(&'static str, u64)>,
    /// Iterations measured.
    pub iterations: usize,
}

impl Outcome {
    /// Record a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Determinism guard: the counts of every iteration must equal the
    /// first's (same seed, same inputs).
    pub fn guard(&mut self, per_iteration: &[Vec<(&'static str, u64)>]) {
        if let Some(first) = per_iteration.first() {
            for (i, counts) in per_iteration.iter().enumerate().skip(1) {
                if counts != first {
                    self.errors.push(format!(
                        "determinism guard: iteration {i} counts {counts:?} differ from iteration 0 {first:?}"
                    ));
                }
            }
            self.counts = first.clone();
        }
    }
}

/// Run iterations until `seconds` is spent (at least `min_iters`),
/// never starting one that the mean iteration time says would overrun.
pub fn iterate(seconds: f64, min_iters: usize, mut f: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean = if i == 0 { 0.0 } else { elapsed / i as f64 };
        if i >= min_iters && elapsed + mean > seconds {
            return i;
        }
        f(i);
        i += 1;
    }
}

/// Set-ups timed before each measured iteration; `setup_s` is the
/// median over all of a run's batches, so it samples the whole run.
pub const SETUP_BATCH: usize = 101;

/// Wall time of each of [`SETUP_BATCH`] calls of `setup`, in seconds;
/// each result is dropped outside the timed region.
pub fn time_setups<T>(mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..SETUP_BATCH)
        .map(|_| {
            let started = Instant::now();
            let made = std::hint::black_box(setup());
            let elapsed = started.elapsed().as_secs_f64();
            drop(made);
            elapsed
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <reproduce|analytic|serve-mixed> --seed <n> --seconds <n> --trace <0|1>"
    );
    eprintln!("       perfbench compare <result-a.json> <result-b.json>");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(
        out.workload.as_str(),
        "reproduce" | "analytic" | "serve-mixed"
    ) {
        return Err(format!("unknown workload '{}'", out.workload));
    }
    Ok(out)
}

/// Provenance stamped on every result.
fn provenance(args: &Args, ctx: &Ctx) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.clone()),
        ("git_sha", sys::git_sha()),
        ("rustc", sys::rustc().to_string()),
        ("nproc", sys::nproc().to_string()),
        ("cpu_model", sys::cpu_model()),
        ("seed", args.seed.to_string()),
        ("threads", ctx.threads.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("open_loop_low_rps", serve::LOW_RPS.to_string()),
        ("open_loop_high_rps", serve::HIGH_RPS.to_string()),
    ]
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a run reporting one fails anyway.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        threads: sys::nproc(),
    };
    let mut recorder = spans::Recorder::default();
    let outcome = match args.workload.as_str() {
        "reproduce" => reproduce::run(&ctx, args.trace, &mut recorder),
        "analytic" => analytic::run(&ctx, args.trace, &mut recorder),
        _ => serve::run(&ctx, args.trace, &mut recorder),
    };

    let prov = provenance(&args, &ctx);
    let prov_json = format!(
        "{{{}}}",
        prov.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "workload {} seed {} iterations {} trace {}",
        args.workload,
        args.seed,
        outcome.iterations,
        u8::from(args.trace)
    );
    for (name, value) in &outcome.counts {
        println!("  count {name} = {value}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, outcome.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, _)| {
                (
                    name,
                    outcome.e2e.get(name).copied().unwrap_or(f64::NAN),
                    unit,
                )
            })
            .collect()
    };
    let mut errors = outcome.errors;
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            errors.push(format!("metric {name} is not a finite number ({value})"));
        }
    }
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("provenance {prov_json}");

    let result_json = format!(
        "{{\"provenance\": {prov_json}, \"errors\": [{}], \"metrics\": {}}}",
        errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&metrics)
    );
    let out_dir = std::path::Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), &result_json))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    out_dir.join(format!("{stem}.spans.jsonl")),
                    recorder.jsonl(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        errors.push(format!("cannot write results under .bench_out: {e}"));
    }

    if !errors.is_empty() {
        for e in &errors {
            eprintln!("check failed: {e}");
        }
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            outcome.attempted.max(1),
            outcome.failed
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

/// `compare A B`: print B's metrics relative to A's, refusing when the
/// two results come from a different `nproc` or CPU model.
fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare needs two result files");
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let prov = |v: &Value, k: &str| {
        v.get("provenance")
            .and_then(|p| p.get(k))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    for key in ["nproc", "cpu_model"] {
        if prov(&a, key) != prov(&b, key) {
            println!(
                "NOT COMPARABLE: {key} differs ({} vs {})",
                prov(&a, key),
                prov(&b, key)
            );
            return ExitCode::from(3);
        }
    }
    let value = |v: &Value, name: &str| match v.get("metrics")?.get(name)?.get("value")? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    };
    if let Some(entries) = a.get("metrics").and_then(Value::as_object) {
        for (name, _) in entries {
            if let (Some(x), Some(y)) = (value(&a, name), value(&b, name)) {
                let ratio = if x != 0.0 { y / x } else { f64::NAN };
                println!("{name:<32} {x:>14.6} {y:>14.6} {ratio:>8.4}x");
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["reproduce", "analytic", "serve-mixed"]);
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv("--workload analytic --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("analytic", 3, 5, true)
        );
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload analytic --trace 2")).is_err());
        assert!(parse(&argv("--workload analytic --seconds 0")).is_err());
        assert!(parse(&argv("--workload analytic --bogus 1")).is_err());
    }

    #[test]
    fn the_guard_refuses_diverging_counts() {
        let mut o = Outcome::default();
        o.guard(&[vec![("runs", 3)], vec![("runs", 3)]]);
        assert!(o.errors.is_empty());
        o.guard(&[vec![("runs", 3)], vec![("runs", 4)]]);
        assert_eq!(o.errors.len(), 1);
    }

    #[test]
    fn iterate_runs_at_least_the_minimum() {
        let mut n = 0;
        assert_eq!(iterate(0.0, 2, |_| n += 1), 2);
        assert_eq!(n, 2);
    }
}
