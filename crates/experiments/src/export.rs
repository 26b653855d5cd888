//! Dataset exporters: flatten campaign results into analysis-friendly
//! formats (CSV rows per reading, CSV rows per run) for external tooling —
//! the counterpart of the paper's spreadsheet stage.

use crate::dataset::ExperimentDataset;
use std::fmt::Write as _;
use std::path::Path;
use wavm3_harness::Wavm3Error;
use wavm3_power::MigrationPhase;

/// Write `contents` to `path` via the harness's atomic tmp-then-rename
/// protocol, creating missing parent directories and annotating any I/O
/// error with the offending path. The regeneration binaries route every
/// artefact through this, so an interrupted run never leaves a truncated
/// CSV behind (a half-written artefact would poison a later `--resume`
/// diff), and a read-only or missing output directory is reported with
/// context rather than crashing the campaign after the compute finished.
pub fn write_file(path: &Path, contents: &str) -> Result<(), Wavm3Error> {
    wavm3_harness::write_atomic_str(path, contents)
}

/// One CSV line per 2 Hz reading across every record: the regression view
/// (features + measured powers).
///
/// Columns: `scenario,kind,rep,time_s,phase,cpu_source,cpu_target,cpu_vm,
/// dirty_ratio,bandwidth_bps,power_source_w,power_target_w`.
pub fn readings_csv(dataset: &ExperimentDataset) -> String {
    let mut out = String::from(
        "scenario,kind,rep,time_s,phase,cpu_source,cpu_target,cpu_vm,dirty_ratio,bandwidth_bps,power_source_w,power_target_w\n",
    );
    for runs in &dataset.runs {
        let id = runs.scenario.id();
        for (rep, record) in runs.records.iter().enumerate() {
            for s in &record.samples {
                let _ = writeln!(
                    out,
                    "{},{},{},{:.1},{},{:.4},{:.4},{:.4},{:.4},{:.0},{:.1},{:.1}",
                    id,
                    record.kind.label(),
                    rep,
                    s.t.as_secs_f64(),
                    s.phase.label(),
                    s.cpu_source,
                    s.cpu_target,
                    s.cpu_vm,
                    s.dirty_ratio,
                    s.bandwidth_bps,
                    s.power_source_w,
                    s.power_target_w,
                );
            }
        }
    }
    out
}

/// One CSV line per migration run: the energy view.
///
/// Columns: `scenario,kind,rep,transfer_s,downtime_s,total_bytes,
/// precopy_rounds,e_source_j,e_target_j`.
pub fn runs_csv(dataset: &ExperimentDataset) -> String {
    let mut out = String::from(
        "scenario,kind,rep,transfer_s,downtime_s,total_bytes,precopy_rounds,e_source_j,e_target_j\n",
    );
    for runs in &dataset.runs {
        let id = runs.scenario.id();
        for (rep, record) in runs.records.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{:.1},{:.2},{},{},{:.1},{:.1}",
                id,
                record.kind.label(),
                rep,
                record.phases.transfer().as_secs_f64(),
                record.downtime.as_secs_f64(),
                record.total_bytes,
                record.precopy_rounds(),
                record.source_energy.total_j(),
                record.target_energy.total_j(),
            );
        }
    }
    out
}

/// Terminal-friendly multi-row plot of one power trace with phase markers
/// (one glyph per sample, rows from max to min) — quick visual inspection
/// without leaving the shell.
pub fn ascii_trace(
    series: &wavm3_simkit::TimeSeries,
    phases: &wavm3_power::PhaseTimes,
    rows: usize,
) -> String {
    let rows = rows.max(2);
    let Some((lo, hi)) = series.min_max() else {
        return String::from("(empty trace)\n");
    };
    let span = (hi - lo).max(1e-9);
    let n = series.len();
    let mut grid = vec![vec![' '; n]; rows];
    for (i, (_, v)) in series.iter().enumerate() {
        let level = (((v - lo) / span) * (rows - 1) as f64).round() as usize;
        for (r, row) in grid.iter_mut().enumerate() {
            let from_bottom = rows - 1 - r;
            if from_bottom == level {
                row[i] = '*';
            } else if from_bottom < level {
                row[i] = '·';
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{hi:>8.0} W");
    for row in grid {
        let _ = writeln!(out, "  {}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{lo:>8.0} W");
    // Phase marker line.
    let marker: String = series
        .times()
        .iter()
        .map(|&t| match phases.phase_at(t) {
            MigrationPhase::NormalExecution => ' ',
            MigrationPhase::Initiation => 'I',
            MigrationPhase::Transfer => 'T',
            MigrationPhase::Activation => 'A',
        })
        .collect();
    let _ = writeln!(out, "  {marker}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RepetitionPolicy, RunnerConfig};
    use crate::scenario::{ExperimentFamily, Scenario};
    use wavm3_cluster::MachineSet;
    use wavm3_migration::MigrationKind;

    fn mini() -> ExperimentDataset {
        ExperimentDataset::collect(
            vec![Scenario {
                family: ExperimentFamily::CpuloadSource,
                kind: MigrationKind::Live,
                machine_set: MachineSet::M,
                source_load_vms: 0,
                target_load_vms: 0,
                migrant_mem_ratio: None,
                label: "0 VM".into(),
            }],
            &RunnerConfig {
                repetitions: RepetitionPolicy::Fixed(2),
                base_seed: 8,
                ..Default::default()
            },
        )
    }

    #[test]
    fn readings_csv_shape() {
        let ds = mini();
        let csv = readings_csv(&ds);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("scenario,kind,rep,"));
        let body: Vec<&str> = lines.collect();
        // Two reps × >100 samples each.
        assert!(body.len() > 200, "{} rows", body.len());
        // Every row has the full column count.
        let cols = header.split(',').count();
        for row in body.iter().take(20) {
            assert_eq!(row.split(',').count(), cols, "bad row: {row}");
        }
        assert!(body.iter().any(|r| r.contains(",transfer,")));
        assert!(body
            .iter()
            .any(|r| r.contains(",rep") || r.contains(",0,") || r.contains(",1,")));
    }

    #[test]
    fn runs_csv_shape() {
        let ds = mini();
        let csv = runs_csv(&ds);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 runs");
        assert!(lines[1].contains("cpuload-source/live"));
        // Energy columns parse as positive floats.
        let cols: Vec<&str> = lines[1].split(',').collect();
        let e_src: f64 = cols[cols.len() - 2].parse().unwrap();
        assert!(e_src > 1000.0);
    }

    #[test]
    fn ascii_trace_renders_grid_and_phases() {
        let ds = mini();
        let r = &ds.runs[0].records[0];
        let art = ascii_trace(&r.source_trace.series, &r.phases, 8);
        assert!(art.contains('*'));
        assert!(art.contains('T'), "transfer marker missing:\n{art}");
        assert!(art.contains('I'));
        // 8 grid rows + 2 axis rows + marker row.
        assert_eq!(art.lines().count(), 11);
    }

    #[test]
    fn write_file_creates_parents_and_annotates_errors() {
        let dir = std::env::temp_dir().join(format!("wavm3-export-test-{}", std::process::id()));
        let path = dir.join("nested/deep/fig.csv");
        write_file(&path, "a,b\n1,2\n").expect("write with parent creation");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();

        let err = write_file(Path::new("/dev/null/not-a-dir/fig.csv"), "x")
            .expect_err("cannot create a directory under /dev/null");
        assert!(err.to_string().contains("not-a-dir"), "{err}");
    }

    #[test]
    fn ascii_trace_empty_is_graceful() {
        let empty = wavm3_simkit::TimeSeries::new();
        let phases = wavm3_power::PhaseTimes::new(
            wavm3_simkit::SimTime::ZERO,
            wavm3_simkit::SimTime::ZERO,
            wavm3_simkit::SimTime::ZERO,
            wavm3_simkit::SimTime::ZERO,
        );
        assert!(ascii_trace(&empty, &phases, 5).contains("empty"));
    }
}
