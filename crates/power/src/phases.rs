//! Migration energy phases (paper §III-D and §IV-A).
//!
//! The paper delimits a migration by four instants:
//!
//! ```text
//! ms ———— initiation ———— ts ———— transfer ———— te ———— activation ———— me
//! ```
//!
//! and defines per-phase energies `E(i)`, `E(t)`, `E(a)` whose sum is the
//! migration energy `E_migr` (Eq. 3–4).

use crate::trace::PowerTrace;
use serde::{Deserialize, Serialize};
use wavm3_simkit::{SimDuration, SimTime};

/// One of the three energy phases (plus pre/post normal execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// Before `ms` / after `me`.
    NormalExecution,
    /// `[ms, ts)` — target preparation, connection setup, (non-live:
    /// suspension of the VM).
    Initiation,
    /// `[ts, te)` — VM state moving over the network.
    Transfer,
    /// `[te, me)` — resume on target, free resources on source.
    Activation,
}

impl MigrationPhase {
    /// Table-friendly label.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationPhase::NormalExecution => "normal",
            MigrationPhase::Initiation => "initiation",
            MigrationPhase::Transfer => "transfer",
            MigrationPhase::Activation => "activation",
        }
    }
}

/// The four phase-delimiting instants of one migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Migration start (consolidation manager issues the request).
    pub ms: SimTime,
    /// Transfer start.
    pub ts: SimTime,
    /// Transfer end.
    pub te: SimTime,
    /// Migration end (VM running on target, source cleaned up).
    pub me: SimTime,
}

impl PhaseTimes {
    /// Validate ordering `ms ≤ ts ≤ te ≤ me`.
    pub fn new(ms: SimTime, ts: SimTime, te: SimTime, me: SimTime) -> Self {
        assert!(
            ms <= ts && ts <= te && te <= me,
            "phase instants out of order"
        );
        PhaseTimes { ms, ts, te, me }
    }

    /// Which phase is `t` in?
    pub fn phase_at(&self, t: SimTime) -> MigrationPhase {
        if t < self.ms || t >= self.me {
            MigrationPhase::NormalExecution
        } else if t < self.ts {
            MigrationPhase::Initiation
        } else if t < self.te {
            MigrationPhase::Transfer
        } else {
            MigrationPhase::Activation
        }
    }

    /// Initiation duration.
    pub fn initiation(&self) -> SimDuration {
        self.ts - self.ms
    }

    /// Transfer duration.
    pub fn transfer(&self) -> SimDuration {
        self.te - self.ts
    }

    /// Activation duration.
    pub fn activation(&self) -> SimDuration {
        self.me - self.te
    }

    /// Whole-migration duration `[ms, me]`.
    pub fn total(&self) -> SimDuration {
        self.me - self.ms
    }
}

/// Per-phase energy of one host over one migration (paper Eq. 4), joules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// `E(i)(h, v)` — initiation-phase energy.
    pub initiation_j: f64,
    /// `E(t)(h, v)` — transfer-phase energy.
    pub transfer_j: f64,
    /// `E(a)(h, v)` — activation-phase energy.
    pub activation_j: f64,
    /// Energy spent rolling back an aborted migration (fault-injection
    /// extension): the teardown window of an aborted run and, after
    /// retries, the whole cost of the failed attempts. Zero on clean runs.
    pub rollback_j: f64,
}

impl EnergyBreakdown {
    /// Book the energies of the three phase windows `[ms, ts)`,
    /// `[ts, te)` and `[te, me)`. On an *aborted* run (`te` = abort
    /// instant) the tail holds teardown/rollback work, not a VM
    /// activation, so it is attributed to `rollback_j` and `activation_j`
    /// stays zero.
    pub fn from_windows(initiation_j: f64, transfer_j: f64, tail_j: f64, aborted: bool) -> Self {
        let (activation_j, rollback_j) = if aborted {
            (0.0, tail_j)
        } else {
            (tail_j, 0.0)
        };
        EnergyBreakdown {
            initiation_j,
            transfer_j,
            activation_j,
            rollback_j,
        }
    }

    /// Integrate a measured power trace over the three phases.
    pub fn from_trace(trace: &PowerTrace, phases: &PhaseTimes) -> Self {
        Self::from_windows(
            trace.energy_between(phases.ms, phases.ts),
            trace.energy_between(phases.ts, phases.te),
            trace.energy_between(phases.te, phases.me),
            false,
        )
    }

    /// Integrate an *aborted* run's trace (see [`Self::from_windows`]).
    pub fn from_trace_aborted(trace: &PowerTrace, phases: &PhaseTimes) -> Self {
        Self::from_windows(
            trace.energy_between(phases.ms, phases.ts),
            trace.energy_between(phases.ts, phases.te),
            trace.energy_between(phases.te, phases.me),
            true,
        )
    }

    /// `E_migr(h, v)` — the total migration energy (Eq. 4), including any
    /// rollback energy of aborted/retried runs.
    pub fn total_j(&self) -> f64 {
        self.initiation_j + self.transfer_j + self.activation_j + self.rollback_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> PhaseTimes {
        PhaseTimes::new(
            SimTime::from_secs(10),
            SimTime::from_secs(12),
            SimTime::from_secs(50),
            SimTime::from_secs(53),
        )
    }

    #[test]
    fn durations() {
        let p = phases();
        assert_eq!(p.initiation(), SimDuration::from_secs(2));
        assert_eq!(p.transfer(), SimDuration::from_secs(38));
        assert_eq!(p.activation(), SimDuration::from_secs(3));
        assert_eq!(p.total(), SimDuration::from_secs(43));
    }

    #[test]
    fn phase_classification_boundaries() {
        let p = phases();
        assert_eq!(
            p.phase_at(SimTime::from_secs(5)),
            MigrationPhase::NormalExecution
        );
        assert_eq!(
            p.phase_at(SimTime::from_secs(10)),
            MigrationPhase::Initiation
        );
        assert_eq!(p.phase_at(SimTime::from_secs(12)), MigrationPhase::Transfer);
        assert_eq!(p.phase_at(SimTime::from_secs(49)), MigrationPhase::Transfer);
        assert_eq!(
            p.phase_at(SimTime::from_secs(50)),
            MigrationPhase::Activation
        );
        assert_eq!(
            p.phase_at(SimTime::from_secs(53)),
            MigrationPhase::NormalExecution
        );
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_instants_panic() {
        PhaseTimes::new(
            SimTime::from_secs(5),
            SimTime::from_secs(4),
            SimTime::from_secs(6),
            SimTime::from_secs(7),
        );
    }

    #[test]
    fn breakdown_from_constant_trace() {
        let p = phases();
        let mut tr = PowerTrace::new("m01");
        tr.record(SimTime::ZERO, 100.0);
        tr.record(SimTime::from_secs(60), 100.0);
        let e = EnergyBreakdown::from_trace(&tr, &p);
        assert!((e.initiation_j - 200.0).abs() < 1e-9);
        assert!((e.transfer_j - 3800.0).abs() < 1e-9);
        assert!((e.activation_j - 300.0).abs() < 1e-9);
        assert_eq!(e.rollback_j, 0.0);
        assert!((e.total_j() - 4300.0).abs() < 1e-9);
    }

    #[test]
    fn aborted_breakdown_reattributes_the_tail_to_rollback() {
        let p = phases();
        let mut tr = PowerTrace::new("m01");
        tr.record(SimTime::ZERO, 100.0);
        tr.record(SimTime::from_secs(60), 100.0);
        let e = EnergyBreakdown::from_trace_aborted(&tr, &p);
        assert!((e.initiation_j - 200.0).abs() < 1e-9);
        assert!((e.transfer_j - 3800.0).abs() < 1e-9);
        assert_eq!(e.activation_j, 0.0, "an aborted VM never activates");
        assert!((e.rollback_j - 300.0).abs() < 1e-9);
        // Same total either way: the joules were drawn regardless.
        let clean = EnergyBreakdown::from_trace(&tr, &p);
        assert!((e.total_j() - clean.total_j()).abs() < 1e-9);
    }

    #[test]
    fn empty_phases_are_legal() {
        // A degenerate migration with zero-length activation.
        let t = SimTime::from_secs(1);
        let p = PhaseTimes::new(t, t, t, t);
        assert_eq!(p.total(), SimDuration::ZERO);
        let mut tr = PowerTrace::new("x");
        tr.record(SimTime::ZERO, 50.0);
        tr.record(SimTime::from_secs(2), 50.0);
        let e = EnergyBreakdown::from_trace(&tr, &p);
        assert_eq!(e.total_j(), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(MigrationPhase::Transfer.label(), "transfer");
        assert_eq!(MigrationPhase::NormalExecution.label(), "normal");
    }
}
