//! JSON export contract: a small fixed-seed sampled campaign, clean and
//! with the light fault mix, must serialise to exactly the bytes pinned
//! below (length plus FNV-1a-64), and parse back to an equal dataset.
//! The faulted pass puts `FaultEvent` struct variants and `Some`
//! options into the document; the clean pass keeps `None` ones.

use wavm3::cluster::MachineSet;
use wavm3::experiments::scenario::ExperimentFamily;
use wavm3::experiments::{Campaign, ExperimentDataset, RepetitionPolicy, RunnerConfig, Scenario};
use wavm3::faults::{FaultConfig, FaultEvent};

// Pinned from the value-tree writer the streaming one replaced.
const CLEAN_LEN: usize = 1456754;
const CLEAN_FNV: u64 = 0x978502ad2c4b30e8;
const FAULTED_LEN: usize = 1620664;
const FAULTED_FNV: u64 = 0x21f203420b6c0b00;
const RUNNER_CONFIG_PRETTY: &str = "{\n  \"repetitions\": {\n    \"Fixed\": 3\n  },\n  \"base_seed\": 22023767,\n  \"faults\": {\n    \"link\": {\n      \"mean_windows\": 1.5,\n      \"max_windows\": 4,\n      \"min_duration\": 3000000,\n      \"max_duration\": 15000000,\n      \"min_factor\": 0.05,\n      \"max_factor\": 0.5,\n      \"earliest\": 10000000,\n      \"latest\": 90000000\n    },\n    \"non_convergence\": {\n      \"probability\": 0.25,\n      \"round_cap\": 2\n    },\n    \"abort\": {\n      \"probability\": 0.15,\n      \"earliest\": 15000000,\n      \"latest\": 60000000\n    }\n  },\n  \"retry\": {\n    \"max_attempts\": 3,\n    \"base_backoff\": 5000000,\n    \"multiplier\": 2.0\n  },\n  \"path\": \"Sampled\"\n}";

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn config(faults: Option<FaultConfig>) -> RunnerConfig {
    RunnerConfig {
        repetitions: RepetitionPolicy::Fixed(3),
        base_seed: 0x150_0E57,
        faults,
        ..Default::default()
    }
}

/// Both mechanisms at an idle source, and two dirtying ratios of a
/// memory-hot live migrant.
fn scenarios() -> Vec<Scenario> {
    let mut all = Scenario::family_scenarios(ExperimentFamily::CpuloadSource, MachineSet::M);
    all.retain(|s| s.label == "0 VM");
    let mut mem = Scenario::family_scenarios(ExperimentFamily::MemloadVm, MachineSet::O);
    mem.retain(|s| s.label == "55%" || s.label == "95%");
    all.extend(mem);
    assert_eq!(
        all.len(),
        4,
        "fixture expects 2 CPU-load and 2 dirtying-ratio scenarios"
    );
    all
}

fn export(faults: Option<FaultConfig>) -> (ExperimentDataset, String) {
    let dataset = Campaign::plain(config(faults)).collect(scenarios());
    let json = serde_json::to_string(&dataset).expect("dataset serialises");
    (dataset, json)
}

fn assert_pinned(json: &str, len: usize, hash: u64) {
    assert_eq!(
        (json.len(), fnv1a64(json.as_bytes())),
        (len, hash),
        "dataset JSON bytes moved"
    );
}

fn assert_round_trips(dataset: &ExperimentDataset, json: &str) {
    let back: ExperimentDataset = serde_json::from_str(json).expect("dataset parses");
    assert_eq!(&back, dataset);
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn clean_dataset_json_is_pinned_and_round_trips() {
    let (dataset, json) = export(None);
    assert_pinned(&json, CLEAN_LEN, CLEAN_FNV);
    assert_round_trips(&dataset, &json);
}

#[test]
fn faulted_dataset_json_is_pinned_and_round_trips() {
    let (dataset, json) = export(Some(FaultConfig::light()));
    let events: Vec<&FaultEvent> = dataset
        .all_records()
        .into_iter()
        .flat_map(|r| &r.fault_events)
        .collect();
    assert!(!events.is_empty(), "the light mix fires at least one fault");
    assert_pinned(&json, FAULTED_LEN, FAULTED_FNV);
    assert_round_trips(&dataset, &json);
}

#[test]
fn runner_config_pretty_json_is_pinned() {
    let cfg = config(Some(FaultConfig::light()));
    let json = serde_json::to_string_pretty(&cfg).unwrap();
    assert_eq!(json, RUNNER_CONFIG_PRETTY);
    assert_eq!(serde_json::from_str::<RunnerConfig>(&json).unwrap(), cfg);
}
