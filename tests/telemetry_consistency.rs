//! Cross-check the dstat-style telemetry channels against the regression
//! feature samples: the paper's methodology assumes the monitoring columns
//! and the power readings line up one-to-one, and so does our training
//! pipeline.

use wavm3::cluster::MachineSet;
use wavm3::experiments::scenario::ExperimentFamily;
use wavm3::experiments::Scenario;
use wavm3::migration::MigrationKind;
use wavm3::power::channels;
use wavm3::simkit::{RngFactory, SimTime};

#[test]
fn telemetry_channels_mirror_feature_samples() {
    let record = Scenario {
        family: ExperimentFamily::MemloadSource,
        kind: MigrationKind::Live,
        machine_set: MachineSet::M,
        source_load_vms: 3,
        target_load_vms: 0,
        migrant_mem_ratio: Some(0.55),
        label: "telemetry".into(),
    }
    .build(RngFactory::new(12))
    .run();

    // Every channel exists and has one sample per meter instant.
    for ch in [
        channels::CPU_SOURCE,
        channels::CPU_TARGET,
        channels::CPU_VM,
        channels::DIRTY_RATIO,
        channels::BANDWIDTH,
    ] {
        let series = record
            .telemetry
            .channel(ch)
            .unwrap_or_else(|| panic!("missing channel {ch}"));
        assert_eq!(
            series.len(),
            record.samples.len(),
            "channel {ch} out of step with the samples"
        );
    }

    // Values agree exactly at every instant. `value_at` would read 0.0 for
    // a channel that was never recorded (its inactivity default), so probe
    // through `try_value_at` first: these channels must actually exist.
    for s in &record.samples {
        assert!(
            record
                .telemetry
                .try_value_at(channels::CPU_SOURCE, s.t)
                .is_some(),
            "cpu.source must be recorded, not defaulted"
        );
        assert_eq!(
            record.telemetry.value_at(channels::CPU_SOURCE, s.t),
            s.cpu_source
        );
        assert_eq!(
            record.telemetry.value_at(channels::CPU_TARGET, s.t),
            s.cpu_target
        );
        assert_eq!(record.telemetry.value_at(channels::CPU_VM, s.t), s.cpu_vm);
        assert_eq!(
            record.telemetry.value_at(channels::DIRTY_RATIO, s.t),
            s.dirty_ratio
        );
        assert_eq!(
            record.telemetry.value_at(channels::BANDWIDTH, s.t),
            s.bandwidth_bps
        );
    }

    // And the meter traces share the same grid.
    assert_eq!(record.source_trace.len(), record.samples.len());
    assert_eq!(record.target_trace.len(), record.samples.len());
    for (i, (t, _)) in record.source_trace.series.iter().enumerate() {
        assert_eq!(
            t,
            SimTime::from_millis(500 * i as u64),
            "meter off the 2 Hz grid at {i}"
        );
    }
}

#[test]
fn dirty_ratio_telemetry_shows_the_precopy_sawtooth() {
    // During live migration of a memory-hot guest the dirty-ratio channel
    // must rise within each round and reset at round boundaries.
    let record = Scenario {
        family: ExperimentFamily::MemloadVm,
        kind: MigrationKind::Live,
        machine_set: MachineSet::M,
        source_load_vms: 0,
        target_load_vms: 0,
        migrant_mem_ratio: Some(0.55),
        label: "sawtooth".into(),
    }
    .build(RngFactory::new(13))
    .run();

    let dr: Vec<f64> = record
        .samples
        .iter()
        .filter(|s| s.phase == wavm3::power::MigrationPhase::Transfer)
        .map(|s| s.dirty_ratio)
        .collect();
    let peak = dr.iter().copied().fold(0.0, f64::max);
    assert!(peak > 0.3, "dirty ratio must build up: peak {peak}");
    // A reset exists: some later sample far below the running peak.
    let peak_idx = dr
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    let after_min = dr[peak_idx..].iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        after_min < 0.5 * peak,
        "round boundary must reset the bitmap: peak {peak}, later min {after_min}"
    );
}
