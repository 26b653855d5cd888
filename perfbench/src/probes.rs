//! Per-layer campaign figures read from the probes the program already
//! has: `obs::perf` scopes and counters, and the `obs::metrics` counters.

use crate::Layers;
use wavm3_obs::perf::{PerfNode, PerfSnapshot};
use wavm3_obs::{ObsConfig, ObsReport, Session};

/// Arm the wall-clock profiler and the metrics registry (the JSONL trace
/// stays off, so campaigns keep their untraced fast paths).
pub fn arm() -> Session {
    Session::install(ObsConfig {
        profiling: true,
        metrics: true,
        ..ObsConfig::default()
    })
}

/// Self time summed over every call-tree node named `name`, ns.
fn self_ns(snap: &PerfSnapshot, name: &str) -> u64 {
    fn rec(n: &PerfNode, name: &str) -> u64 {
        let own = if n.name == name { n.self_ns } else { 0 };
        own + n.children.iter().map(|c| rec(c, name)).sum::<u64>()
    }
    snap.roots.iter().map(|r| rec(r, name)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The runner, migration, analytic-kernel and fault layers of one armed
/// iteration.
pub fn campaign_layers(report: &ObsReport) -> Layers {
    let mut layers = Layers::new();
    let perf = &report.perf;
    let sampled = perf.count_of("migration.run.sampled") as f64;
    let analytic = perf.count_of("migration.run.analytic") as f64;
    let runs = sampled + analytic;
    let us_per = |name: &str, n: f64| ratio(self_ns(perf, name) as f64 / 1e3, n);
    layers.insert("runner.repetition_us", us_per("runner.repetition", runs));
    layers.insert("runner.shard_us", us_per("runner.shard", runs));
    layers.insert("runner.merge_us", us_per("runner.merge", runs));
    layers.insert(
        "migration.sampled_us",
        us_per("migration.run.sampled", sampled),
    );
    layers.insert(
        "migration.analytic_us",
        us_per("migration.run.analytic", analytic),
    );
    layers.insert(
        "analytic.tick_loop_us",
        us_per("analytic.tick_loop", analytic),
    );
    layers.insert(
        "analytic.finalise_us",
        us_per("analytic.finalise", analytic),
    );
    let counter = |name: &str| perf.counters.get(name).copied().unwrap_or(0) as f64;
    let hits = counter("analytic.tick_cache.fast_hit") + counter("analytic.tick_cache.semi_hit");
    let ticks = hits + counter("analytic.tick_cache.full");
    layers.insert("analytic.ticks_per_run", ratio(ticks, analytic));
    layers.insert("analytic.tick_cache_hit_ratio", ratio(hits, ticks));
    let metric = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0) as f64;
    layers.insert("faults.injected", metric("faults.injected"));
    layers.insert("faults.aborted", metric("faults.aborted"));
    layers.insert("runner.retries", metric("runner.retries"));
    // Records delivered (every scenario's repetitions) per migration run.
    layers.insert(
        "runner.useful_ratio",
        ratio(metric("runner.repetitions"), runs),
    );
    layers
}
