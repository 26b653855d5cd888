//! `analytic`: the full two-set Table IIa campaign on the analytic path
//! with fixed repetitions and `nproc` threads, in two passes — clean,
//! then with seeded fault injection (link degradation, aborts, rollback
//! and retries).

use crate::spans::Recorder;
use crate::stats::median;
use crate::{iterate, median_layers, probes, sys, time_setups, Ctx, Layers, Outcome};
use wavm3_cluster::MachineSet;
use wavm3_experiments::{
    run_scenario, Campaign, RepetitionPolicy, RunnerConfig, Scenario, SupervisorOptions,
};
use wavm3_faults::FaultConfig;
use wavm3_migration::{MigrationRecord, SimulationPath};

/// Repetitions per scenario: 84 × 300 = 25,200 per pass.
pub const REPS: usize = 300;

/// Scenario indices (into the two-set list) whose first
/// [`CHECK_REPS`] repetitions are re-run on the sampled path.
const CHECK_SCENARIOS: [usize; 6] = [0, 17, 34, 51, 68, 83];
const CHECK_REPS: usize = 2;

fn runner(seed: u64, faults: bool, path: SimulationPath, reps: usize) -> RunnerConfig {
    RunnerConfig {
        repetitions: RepetitionPolicy::Fixed(reps),
        base_seed: seed,
        faults: faults.then(FaultConfig::light),
        retry: Default::default(),
        path,
    }
}

fn scenarios() -> Vec<Scenario> {
    let mut all = Scenario::full_campaign(MachineSet::M);
    all.extend(Scenario::full_campaign(MachineSet::O));
    all
}

struct Setup {
    clean: Campaign,
    faulted: Campaign,
    clean_scenarios: Vec<Scenario>,
    faulted_scenarios: Vec<Scenario>,
}

/// Both passes' `Campaign::new` plus their scenario lists.
fn setup(seed: u64) -> Setup {
    let campaign = |faults| {
        Campaign::new(
            runner(seed, faults, SimulationPath::Analytic, REPS),
            SupervisorOptions::default(),
        )
        .expect("the analytic runner config is valid")
    };
    Setup {
        clean: campaign(false),
        faulted: campaign(true),
        clean_scenarios: scenarios(),
        faulted_scenarios: scenarios(),
    }
}

struct Pass {
    records: u64,
    seconds: f64,
}

struct Iteration {
    clean: Pass,
    faulted: Pass,
    cpu_s: f64,
    failed: u64,
    counts: Vec<(&'static str, u64)>,
    root: usize,
}

/// A pass's deterministic tallies.
#[derive(Default)]
struct Tally {
    records: u64,
    retries: u64,
    aborted: u64,
    events: u64,
}

/// The records of [`CHECK_SCENARIOS`] (first [`CHECK_REPS`] each) of
/// one pass, kept for the check against the sampled path.
type Kept = Vec<Vec<MigrationRecord>>;

/// Run one pass inside a `runner.collect` span, tally it, and drop the
/// dataset (keeping only the checked records when asked) before the
/// next pass starts.
fn pass(
    campaign: &Campaign,
    scenarios: Vec<Scenario>,
    rec: &mut Recorder,
    keep: bool,
) -> (Pass, Tally, Option<Kept>) {
    let (dataset, seconds) = rec.time("runner.collect", || campaign.collect(scenarios));
    let records = dataset.all_records();
    let tally = Tally {
        records: records.len() as u64,
        retries: records.iter().map(|r| r.attempt as u64).sum(),
        aborted: records.iter().filter(|r| r.is_aborted()).count() as u64,
        events: records.iter().map(|r| r.fault_events.len() as u64).sum(),
    };
    let kept = keep.then(|| {
        CHECK_SCENARIOS
            .iter()
            .map(|&i| {
                dataset.runs[i]
                    .records
                    .iter()
                    .take(CHECK_REPS)
                    .cloned()
                    .collect()
            })
            .collect()
    });
    let pass = Pass {
        records: tally.records,
        seconds,
    };
    (pass, tally, kept)
}

/// One clean pass and one faulted pass; the checked records are handed
/// back only when `keep` asks for them.
fn iteration(seed: u64, rec: &mut Recorder, keep: bool) -> (Iteration, Option<(Kept, Kept)>) {
    let s = setup(seed);

    let root = rec.enter("analytic");
    let cpu0 = sys::cpu_time();
    let (clean, clean_tally, clean_kept) = pass(&s.clean, s.clean_scenarios, rec, keep);
    let (faulted, t, faulted_kept) = pass(&s.faulted, s.faulted_scenarios, rec, keep);
    let cpu_s = (sys::cpu_time() - cpu0).as_secs_f64();
    rec.exit();

    let failed = (s.clean.report().stats.failed + s.faulted.report().stats.failed) as u64;
    let counts = vec![
        ("clean_records", clean_tally.records),
        ("clean_retries", clean_tally.retries),
        ("faulted_records", t.records),
        (
            "migration_runs",
            clean_tally.records + t.records + t.retries,
        ),
        ("retries", t.retries),
        ("aborted", t.aborted),
        ("fault_events", t.events),
        ("failed_scenarios", failed),
    ];
    let it = Iteration {
        clean,
        faulted,
        cpu_s,
        failed,
        counts,
        root,
    };
    (it, clean_kept.zip(faulted_kept))
}

/// The discrete fields of a record: phases, rounds, bytes, downtime,
/// outcome.
fn discrete(r: &MigrationRecord) -> impl PartialEq + std::fmt::Debug {
    (
        r.phases,
        r.rounds
            .iter()
            .map(|x| (x.round, x.bytes_sent, x.stop_and_copy))
            .collect::<Vec<_>>(),
        r.total_bytes,
        r.downtime,
        r.outcome,
    )
}

/// For a fixed subset of (scenario, rep), the analytic record's discrete
/// fields equal the sampled record's, and the campaign's record is the
/// one a direct analytic run of that repetition produces.
fn check_against_sampled(seed: u64, kept: &(Kept, Kept), out: &mut Outcome) {
    let all = scenarios();
    for (faults, campaign) in [(false, &kept.0), (true, &kept.1)] {
        let analytic = runner(seed, faults, SimulationPath::Analytic, CHECK_REPS);
        let sampled = runner(seed, faults, SimulationPath::Sampled, CHECK_REPS);
        for (k, idx) in CHECK_SCENARIOS.into_iter().enumerate() {
            let scenario = &all[idx];
            let a = run_scenario(scenario, &analytic);
            let s = run_scenario(scenario, &sampled);
            for rep in 0..CHECK_REPS {
                let tag = format!("{} rep {rep} (faults {faults})", scenario.id());
                out.check(discrete(&a[rep]) == discrete(&s[rep]), || {
                    format!(
                        "{tag}: analytic {:?} differs from sampled {:?}",
                        discrete(&a[rep]),
                        discrete(&s[rep])
                    )
                });
                out.check(campaign[k].get(rep) == Some(&a[rep]), || {
                    format!("{tag}: the campaign record differs from a direct analytic run")
                });
            }
        }
    }
}

/// Measure for `ctx.seconds`. In a traced run every second iteration
/// runs with the program's probes armed, interleaved with untraced ones
/// so both see the same machine, and yields the per-layer breakdown.
pub fn run(ctx: &Ctx, traced: bool, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    // A warm-up iteration, unmeasured, lets the allocator and caches
    // settle; its records feed the check against the sampled path.
    let (warm, kept) = iteration(ctx.seed, rec, true);
    if let Some(kept) = kept {
        check_against_sampled(ctx.seed, &kept, &mut out);
    }
    let collect = |it: &Iteration| it.clean.seconds + it.faulted.seconds;
    let mut setups = Vec::new();
    let mut plain = Vec::new();
    let mut armed = Vec::new();
    out.iterations = iterate(ctx.seconds, if traced { 4 } else { 2 }, |i| {
        setups.extend(time_setups(|| setup(ctx.seed)));
        if traced && i % 2 == 1 {
            let session = probes::arm();
            let it = iteration(ctx.seed, rec, false).0;
            let mut layers = probes::campaign_layers(&session.finish());
            layers.insert("runner.collect_s", collect(&it));
            layers.insert(
                "runner.parallel_eff",
                it.cpu_s / (collect(&it) * ctx.threads as f64),
            );
            layers.insert("obs.coverage_pct", rec.coverage_pct(it.root));
            armed.push((it, layers));
        } else {
            plain.push(iteration(ctx.seed, rec, false).0);
        }
    });
    let counts: Vec<_> = std::iter::once(&warm)
        .chain(&plain)
        .chain(armed.iter().map(|(it, _)| it))
        .map(|it| it.counts.clone())
        .collect();
    out.guard(&counts);
    let requested = 2 * (scenarios().len() * REPS) as u64;
    out.attempted = requested * plain.len() as u64;
    out.failed = plain
        .iter()
        .map(|it| requested - (it.clean.records + it.faulted.records) + it.failed)
        .sum();

    let rate = |p: &Pass| p.records as f64 / p.seconds;
    let clean = median(&plain.iter().map(|it| rate(&it.clean)).collect::<Vec<_>>());
    let faulted = median(&plain.iter().map(|it| rate(&it.faulted)).collect::<Vec<_>>());
    let faulted_walls: Vec<f64> = plain.iter().map(|it| it.faulted.seconds).collect();
    println!("  faulted pass seconds per iteration: {faulted_walls:?}");
    println!(
        "  clean pass seconds per iteration: {:?}",
        plain.iter().map(|it| it.clean.seconds).collect::<Vec<_>>()
    );
    let error_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("peak_rss_mb", sys::peak_rss_mb());
    out.e2e.insert("wall_s", median(&faulted_walls));
    out.e2e.insert("throughput_per_s", clean);
    println!("  analytic_runs_per_s = {clean} records/s");
    println!("  analytic_faults_runs_per_s = {faulted} records/s");
    println!("  error_frac = {error_frac} ratio");
    if traced {
        let plain_wall = median(&plain.iter().map(collect).collect::<Vec<_>>());
        let armed_wall = median(&armed.iter().map(|(it, _)| collect(it)).collect::<Vec<_>>());
        let per_iteration: Vec<Layers> = armed.into_iter().map(|(_, l)| l).collect();
        out.layers = median_layers(&per_iteration);
        out.layers.insert("analytic_runs_per_s", clean);
        out.layers.insert("analytic_faults_runs_per_s", faulted);
        out.layers.insert("error_frac", error_frac);
        out.layers.insert(
            "obs.overhead_pct",
            100.0 * (armed_wall - plain_wall) / plain_wall,
        );
    }
    out
}
