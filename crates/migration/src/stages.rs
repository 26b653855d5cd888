//! The migration stage machine both engines drive.
//!
//! [`StageMachine`] owns every discrete decision of a run: the
//! Pre → Initiation → Transfer → Activation cascade, the post-copy
//! handover, the injected abort and its rollback, the pre-copy transfer
//! sub-loop with its round rule ([`decide_round`]), the degraded-link
//! fault notes and the per-run `migration.*` metrics. The sampled and
//! analytic engines call it tick by tick and differ only in how they
//! represent host state and integrate energy, so phases, rounds, bytes,
//! downtime, outcome and fault events agree between them by
//! construction.
//!
//! The machine never touches host state. After each call an engine
//! mirrors [`StageMachine::migrant_running`] and
//! [`StageMachine::migrant_on_target`] into its own representation
//! (cluster VMs for the sampled engine, slot arrays for the analytic one).

use crate::config::{MigrationConfig, MigrationKind, PrecopyConfig};
use crate::record::{MigrationOutcome, RoundStats};
use crate::simulation::{RunSetup, PEAK_PAGE_WRITE_RATE};
use wavm3_cluster::PAGE_SIZE_BYTES;
use wavm3_faults::{observe_fault, FaultEvent, FaultPlan};
use wavm3_obs::metrics::{self, buckets::DURATION_S, buckets::ENERGY_KJ};
use wavm3_obs::Level;
use wavm3_power::{EnergyBreakdown, PhaseTimes};
use wavm3_simkit::{RngFactory, SimDuration, SimTime};

/// Coarse engine state. `Post` is the stabilising tail after `me`; only
/// the sampled engine, whose tick loop runs past `me`, ever reaches it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Stage {
    Pre,
    Initiation,
    Transfer,
    Activation,
    Post,
}

/// In-flight transfer bookkeeping (meaningful in [`Stage::Transfer`]).
#[derive(Debug, Clone, Copy, Default)]
struct Xfer {
    round: usize,
    remaining_bytes: f64,
    round_bytes_sent: f64,
    round_start: SimTime,
    stop_and_copy: bool,
}

/// What a live pre-copy round boundary leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundDecision {
    /// Nothing left dirty: the transfer is over.
    Done,
    /// Suspend the VM and send the final dirty set. `forced` marks an
    /// injected dirty-page storm stopping a run the engine's own rules
    /// would have kept iterating.
    StopAndCopy { forced: bool },
    /// Re-send the pages dirtied during this round.
    Again,
}

/// The pre-copy round rule: after round `round` (0-based) moved
/// `pages_sent` pages and left `d_end` dirty, stop at the threshold, on a
/// non-convergence stall or at the round cap; otherwise a fault plan's
/// round cap (`fault_cap`) forces the stop.
pub(crate) fn decide_round(
    d_end: u64,
    pages_sent: f64,
    round: usize,
    precopy: &PrecopyConfig,
    fault_cap: Option<usize>,
) -> RoundDecision {
    let threshold = d_end as f64 <= precopy.stop_threshold_pages as f64;
    let stall = d_end as f64 >= precopy.stall_ratio * pages_sent;
    let cap = round + 1 >= precopy.max_rounds;
    if d_end == 0 {
        RoundDecision::Done
    } else if threshold || stall || cap {
        RoundDecision::StopAndCopy { forced: false }
    } else if fault_cap.is_some_and(|c| round + 1 >= c) {
        RoundDecision::StopAndCopy { forced: true }
    } else {
        RoundDecision::Again
    }
}

/// Single-entry memo for `exp` (the dirty-saturation factor is constant
/// for every full-length sub-step of a round).
struct ExpCache {
    arg: f64,
    val: f64,
}

impl ExpCache {
    #[inline]
    fn eval(&mut self, arg: f64) -> f64 {
        if arg != self.arg {
            self.arg = arg;
            self.val = arg.exp();
        }
        self.val
    }
}

/// One run's discrete migration state and decisions; see the module docs.
pub(crate) struct StageMachine {
    cfg: MigrationConfig,
    plan: FaultPlan,
    ram_bytes: f64,
    ws_pages: f64,
    stage: Stage,
    xfer: Xfer,
    /// Modelled dirty-set size of the migrant (pages, live transfer only).
    dirty_pages: f64,
    total_bytes: f64,
    ms: SimTime,
    /// Mutable only because an abort during initiation collapses the
    /// transfer phase to zero length.
    ts: SimTime,
    te: Option<SimTime>,
    me: Option<SimTime>,
    suspend_time: Option<SimTime>,
    resume_time: Option<SimTime>,
    migrant_running: bool,
    migrant_on_target: bool,
    aborted: bool,
    rounds: Vec<RoundStats>,
    fault_events: Vec<FaultEvent>,
    /// Degraded-link windows already noted (each is reported once).
    link_seen: Vec<bool>,
    dirty_exp: ExpCache,
}

/// What a finished run hands back to its engine.
pub(crate) struct RunEnd {
    pub(crate) phases: PhaseTimes,
    pub(crate) downtime: SimDuration,
    pub(crate) outcome: MigrationOutcome,
    pub(crate) total_bytes: u64,
    pub(crate) rounds: Vec<RoundStats>,
    pub(crate) fault_events: Vec<FaultEvent>,
    /// The link-window bitmap, returned so a recycled run can reuse it.
    pub(crate) link_seen: Vec<bool>,
}

impl StageMachine {
    /// Start a run. The fault plan is drawn from `rng` (the empty plan,
    /// without touching any stream, when faults are disabled); `rounds`
    /// and `link_seen` are recycled buffers whose contents are discarded.
    pub(crate) fn new(
        cfg: &MigrationConfig,
        rng: &RngFactory,
        setup: &RunSetup,
        mut rounds: Vec<RoundStats>,
        mut link_seen: Vec<bool>,
    ) -> Self {
        let plan = FaultPlan::generate(&cfg.faults, rng);
        rounds.clear();
        link_seen.clear();
        link_seen.resize(plan.link_windows().len(), false);
        let ms = SimTime::ZERO + cfg.timing.pre_run;
        StageMachine {
            cfg: *cfg,
            plan,
            ram_bytes: setup.ram_bytes as f64,
            ws_pages: setup.ws_pages,
            stage: Stage::Pre,
            xfer: Xfer::default(),
            dirty_pages: 0.0,
            total_bytes: 0.0,
            ms,
            ts: ms + cfg.timing.initiation,
            te: None,
            me: None,
            suspend_time: None,
            resume_time: None,
            migrant_running: true,
            migrant_on_target: false,
            aborted: false,
            rounds,
            fault_events: Vec::new(),
            link_seen,
            dirty_exp: ExpCache {
                arg: f64::NAN,
                val: 0.0,
            },
        }
    }

    pub(crate) fn stage(&self) -> Stage {
        self.stage
    }

    pub(crate) fn migrant_running(&self) -> bool {
        self.migrant_running
    }

    pub(crate) fn migrant_on_target(&self) -> bool {
        self.migrant_on_target
    }

    pub(crate) fn dirty_pages(&self) -> f64 {
        self.dirty_pages
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// `ts`, `te` and `me` as known so far (`te`/`me` are set once the
    /// transfer ends or the run aborts).
    pub(crate) fn bounds(&self) -> (SimTime, Option<SimTime>, Option<SimTime>) {
        (self.ts, self.te, self.me)
    }

    /// Transitions that fire on wall-clock boundaries at the start of the
    /// tick at `now`, cascading within one tick: Pre → Initiation →
    /// Transfer, the post-copy resume `postcopy_handover` after `ts`,
    /// Activation → Post at `me`, and the injected abort.
    #[inline]
    pub(crate) fn begin_tick(&mut self, now: SimTime) {
        let kind = self.cfg.kind;
        if self.stage == Stage::Pre && now >= self.ms {
            self.stage = Stage::Initiation;
            if kind == MigrationKind::NonLive {
                // Suspend-and-copy: the VM stops at migration start.
                self.suspend(now, "non_live_start");
            }
        }
        if self.stage == Stage::Initiation && now >= self.ts {
            self.stage = Stage::Transfer;
            self.start_round(0, self.ram_bytes, now, false);
            if kind == MigrationKind::PostCopy {
                // Post-copy handover: suspend, move the CPU state, and
                // run on the target while memory follows over the wire.
                self.suspend(now, "postcopy_handover");
                self.migrant_on_target = true;
            }
        }
        if kind == MigrationKind::PostCopy
            && self.migrant_on_target
            && self.resume_time.is_none()
            && now >= self.ts + self.cfg.timing.postcopy_handover
        {
            self.resume(now, "postcopy_target");
        }
        if self.stage == Stage::Activation && self.me.is_some_and(|me| now >= me) {
            self.stage = Stage::Post;
        }

        // Injected abort: roll the migration back to the source. Post-copy
        // runs are only abortable before the handover (once the VM runs on
        // the target there is nothing to roll back to); pre-copy and
        // non-live runs are abortable until `te`.
        if !self.aborted
            && matches!(self.stage, Stage::Initiation | Stage::Transfer)
            && !self.migrant_on_target
            && self.plan.abort_at().is_some_and(|t| now >= t)
        {
            self.aborted = true;
            self.note_fault(FaultEvent::Aborted {
                at: now,
                bytes_sent: self.total_bytes.round() as u64,
            });
            // The VM never left the source; resume it if this migration
            // suspended it (non-live, or a stop-and-copy pass mid-flight).
            if !self.migrant_running {
                self.resume(now, "abort_rollback");
            }
            if self.stage == Stage::Initiation {
                self.ts = now; // the transfer never started
            }
            // `te` = abort instant; the activation-length window that
            // follows holds target teardown and source cleanup, accounted
            // as rollback energy.
            self.end_transfer(now);
            self.dirty_pages = 0.0;
        }
    }

    /// Post-copy degraded-demand factor for the migrant: while pages are
    /// still remote the guest stalls on demand fetches, so its achievable
    /// CPU rises with the fraction of memory already local. 1.0 otherwise.
    #[inline]
    pub(crate) fn migrant_demand_factor(&self) -> f64 {
        if self.cfg.kind == MigrationKind::PostCopy && self.stage == Stage::Transfer {
            let progress = 1.0 - (self.xfer.remaining_bytes / self.ram_bytes).clamp(0.0, 1.0);
            0.55 + 0.45 * progress
        } else {
            1.0
        }
    }

    /// `CPU_migr` of Eq. 2 on (source, target), given the migrant's page
    /// write rate (live dirty tracking scales with it while the VM runs
    /// on the source).
    #[inline]
    pub(crate) fn migration_cores(&self, migrant_write_rate: f64) -> (f64, f64) {
        let c = &self.cfg.cpu_cost;
        match self.stage {
            Stage::Initiation | Stage::Activation => (c.control_cores, c.control_cores),
            Stage::Transfer => {
                let dirty_intensity = if self.cfg.kind == MigrationKind::Live
                    && self.migrant_running
                    && !self.migrant_on_target
                {
                    (migrant_write_rate / PEAK_PAGE_WRITE_RATE).min(1.0)
                } else {
                    0.0
                };
                (
                    c.source_cores_at_line_rate + c.dirty_tracking_cores * dirty_intensity,
                    c.target_cores_at_line_rate,
                )
            }
            Stage::Pre | Stage::Post => (0.0, 0.0),
        }
    }

    /// Migration service power on (source, target), before jitter.
    #[inline]
    pub(crate) fn service_watts(&self) -> (f64, f64) {
        let s = &self.cfg.service;
        match self.stage {
            Stage::Initiation => (s.init_source_w, s.init_target_w),
            Stage::Transfer => (s.transfer_source_w, s.transfer_target_w),
            Stage::Activation => (s.activation_source_w, s.activation_target_w),
            Stage::Pre | Stage::Post => (0.0, 0.0),
        }
    }

    /// The migration stream's bandwidth at `now` given the link's
    /// undisturbed share `base` (bytes/s): zero outside the transfer,
    /// otherwise throttled by injected link degradation and then by the
    /// sender-side rate cap.
    #[inline]
    pub(crate) fn transfer_bandwidth(&mut self, now: SimTime, base: f64) -> f64 {
        if self.stage != Stage::Transfer {
            return 0.0;
        }
        let factor = self.plan.bandwidth_factor_at(now);
        if factor < 1.0 {
            self.note_link_windows(now);
        }
        let bw = base * factor;
        match self.cfg.precopy.rate_limit_bps {
            Some(cap) => bw.min(cap.max(1.0)),
            None => bw,
        }
    }

    /// Note each degraded window's fault event the first time a transfer
    /// tick falls in it. Out of line: only degraded ticks get here.
    #[inline(never)]
    fn note_link_windows(&mut self, now: SimTime) {
        for (i, w) in self.plan.link_windows().iter().enumerate() {
            if w.window.contains(now) && !self.link_seen[i] {
                self.link_seen[i] = true;
                let event = FaultEvent::LinkDegraded {
                    window: w.window,
                    bandwidth_factor: w.bandwidth_factor,
                };
                observe_fault(&event);
                self.fault_events.push(event);
            }
        }
    }

    /// Move data at `bw` bytes/s for the `dt_s`-second tick starting at
    /// `now`, crossing as many round boundaries as the tick holds.
    /// `write_rate` is the migrant's page write rate. Returns the stream's
    /// bandwidth for the rest of the tick: `bw`, or zero when the transfer
    /// ended in it — the migrant then resumes on the target (post-copy
    /// already moved it at `ts`).
    ///
    /// Two shortcuts keep the loop cheap and are bit-identical to the
    /// plain `step = min(remaining / bw, dt_left)` form. A mid-round full
    /// tick skips the division: the guard's relative margin exceeds the
    /// rounding error of the `*` and `/` involved, so whenever it fires
    /// `remaining / bw` exceeds `dt_left` and `min` would pick `dt_left`,
    /// the exact `(step, moved)` the divided form produces. And `t_cur` is
    /// only ever read at a round boundary; a full step that completes
    /// nothing ends the tick, so its µs conversion is skipped.
    #[inline]
    pub(crate) fn advance_transfer(
        &mut self,
        now: SimTime,
        bw: f64,
        dt_s: f64,
        write_rate: f64,
    ) -> f64 {
        if self.stage != Stage::Transfer {
            return bw;
        }
        let mut t_cur = now;
        let mut dt_left = dt_s;
        while dt_left > 1e-12 {
            if bw <= 0.0 {
                break; // fully starved this tick; try again next tick
            }
            let x = &mut self.xfer;
            let full_tick = bw * dt_left;
            let (step, moved) = if x.remaining_bytes > full_tick * 1.000_000_1 {
                (dt_left, full_tick)
            } else {
                let step = (x.remaining_bytes / bw).min(dt_left);
                (step, bw * step)
            };
            x.remaining_bytes -= moved;
            x.round_bytes_sent += moved;
            self.total_bytes += moved;
            // Dirty-set saturation while the VM runs (live only).
            if self.cfg.kind == MigrationKind::Live && self.migrant_running && self.ws_pages >= 1.0
            {
                self.dirty_pages = self.ws_pages
                    - (self.ws_pages - self.dirty_pages)
                        * self.dirty_exp.eval(-write_rate * step / self.ws_pages);
            }
            let completes = x.remaining_bytes <= 0.5;
            if completes || step < dt_left {
                t_cur += SimDuration::from_secs_f64(step);
            }
            dt_left -= step;
            if completes {
                self.end_round(t_cur);
                if self.stage != Stage::Transfer {
                    break;
                }
            }
        }
        if self.stage == Stage::Transfer {
            return bw;
        }
        if !self.migrant_on_target {
            self.migrant_on_target = true;
            self.resume(self.te.expect("te set"), "activation");
        }
        0.0
    }

    /// Close the current round at `t` and decide what follows it.
    fn end_round(&mut self, t: SimTime) {
        let x = self.xfer;
        let d_end = self.dirty_pages.round() as u64;
        self.rounds.push(RoundStats {
            round: x.round,
            bytes_sent: x.round_bytes_sent.round() as u64,
            duration: t - x.round_start,
            dirty_at_end_pages: d_end,
            stop_and_copy: x.stop_and_copy,
        });
        wavm3_obs::event!(
            Level::Debug, "wavm3_migration", "transfer.round", t,
            "round" => x.round as u64,
            "bytes_sent" => x.round_bytes_sent.round() as u64,
            "dirty_at_end_pages" => d_end,
            "stop_and_copy" => x.stop_and_copy,
        );
        let decision = if x.stop_and_copy || self.cfg.kind != MigrationKind::Live {
            RoundDecision::Done
        } else {
            let pages_sent = (x.round_bytes_sent / PAGE_SIZE_BYTES as f64).max(1.0);
            let fault_cap = self.plan.force_stop_after_rounds();
            decide_round(d_end, pages_sent, x.round, &self.cfg.precopy, fault_cap)
        };
        let resend = d_end as f64 * PAGE_SIZE_BYTES as f64;
        match decision {
            RoundDecision::Done => self.end_transfer(t),
            RoundDecision::StopAndCopy { forced } => {
                if forced {
                    self.note_fault(FaultEvent::ForcedStopAndCopy {
                        at: t,
                        after_rounds: x.round + 1,
                    });
                }
                self.suspend(t, "stop_and_copy");
                self.start_round(x.round + 1, resend, t, true);
            }
            RoundDecision::Again => self.start_round(x.round + 1, resend, t, false),
        }
    }

    /// Begin a round (the log-dirty bitmap is cleared at its start).
    fn start_round(&mut self, round: usize, bytes: f64, t: SimTime, stop_and_copy: bool) {
        self.xfer = Xfer {
            round,
            remaining_bytes: bytes,
            round_bytes_sent: 0.0,
            round_start: t,
            stop_and_copy,
        };
        self.dirty_pages = 0.0;
    }

    fn end_transfer(&mut self, t: SimTime) {
        self.te = Some(t);
        self.me = Some(t + self.cfg.timing.activation);
        self.stage = Stage::Activation;
    }

    fn suspend(&mut self, t: SimTime, reason: &'static str) {
        self.migrant_running = false;
        self.suspend_time = Some(t);
        wavm3_obs::event!(
            Level::Debug, "wavm3_migration", "vm.suspend", t,
            "reason" => reason,
        );
    }

    fn resume(&mut self, t: SimTime, reason: &'static str) {
        self.migrant_running = true;
        self.resume_time = Some(t);
        wavm3_obs::event!(
            Level::Debug, "wavm3_migration", "vm.resume", t,
            "reason" => reason,
        );
    }

    fn note_fault(&mut self, event: FaultEvent) {
        observe_fault(&event);
        self.fault_events.push(event);
    }

    /// Close the run once the engine's tick loop is done.
    ///
    /// # Panics
    ///
    /// If the transfer never ended.
    pub(crate) fn finish(self) -> RunEnd {
        let te = self.te.expect("transfer completed");
        let me = self.me.expect("activation scheduled");
        let downtime = match (self.suspend_time, self.resume_time) {
            (Some(s), Some(r)) => r.saturating_since(s),
            _ => SimDuration::ZERO,
        };
        RunEnd {
            phases: PhaseTimes::new(self.ms, self.ts, te, me),
            downtime,
            outcome: if self.aborted {
                MigrationOutcome::Aborted
            } else {
                MigrationOutcome::Completed
            },
            total_bytes: self.total_bytes.round() as u64,
            rounds: self.rounds,
            fault_events: self.fault_events,
            link_seen: self.link_seen,
        }
    }
}

impl RunEnd {
    pub(crate) fn aborted(&self) -> bool {
        self.outcome == MigrationOutcome::Aborted
    }

    /// Ledger/trace label of the outcome.
    pub(crate) fn outcome_label(&self) -> &'static str {
        match self.outcome {
            MigrationOutcome::Completed => "completed",
            MigrationOutcome::Aborted => "aborted",
        }
    }

    /// The shared `migration.*` metrics family: one observation per run,
    /// whichever engine produced the energies.
    pub(crate) fn observe(&self, source: &EnergyBreakdown, target: &EnergyBreakdown) {
        metrics::counter_add("migration.runs", 1);
        if self.aborted() {
            metrics::counter_add("migration.aborted", 1);
        }
        let transfer_s = self.phases.transfer().as_secs_f64();
        metrics::observe("migration.transfer_s", DURATION_S, transfer_s);
        let downtime_s = self.downtime.as_secs_f64();
        metrics::observe("migration.downtime_s", DURATION_S, downtime_s);
        let energy_kj = (source.total_j() + target.total_j()) / 1e3;
        metrics::observe("migration.energy_kj", ENERGY_KJ, energy_kj);
        let phase = |name, joules: fn(&EnergyBreakdown) -> f64| {
            let kj = (joules(source) + joules(target)) / 1e3;
            metrics::observe(name, ENERGY_KJ, kj);
        };
        phase("migration.phase.initiation_kj", |e| e.initiation_j);
        phase("migration.phase.transfer_kj", |e| e.transfer_j);
        phase("migration.phase.activation_kj", |e| e.activation_j);
        phase("migration.phase.rollback_kj", |e| e.rollback_j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use RoundDecision::{Again, Done, StopAndCopy};

    /// Defaults: threshold 16 384 pages, stall ratio 0.9, 30 rounds.
    fn precopy() -> PrecopyConfig {
        PrecopyConfig::default()
    }

    #[test]
    fn round_rule_table() {
        let p = precopy();
        // (label, d_end, pages_sent, round, fault_cap, expected)
        let cases = [
            ("clean dirty set", 0, 1e6, 0, None, Done),
            ("clean dirty set at the cap", 0, 1e6, 29, Some(1), Done),
            (
                "threshold",
                16_384,
                1e6,
                0,
                None,
                StopAndCopy { forced: false },
            ),
            (
                "stall",
                900_000,
                1e6,
                0,
                None,
                StopAndCopy { forced: false },
            ),
            (
                "round cap",
                500_000,
                1e6,
                29,
                None,
                StopAndCopy { forced: false },
            ),
            ("converging", 500_000, 1e6, 0, None, Again),
            ("just above the threshold", 16_385, 1e6, 28, None, Again),
            ("just below a stall", 899_999, 1e6, 0, None, Again),
        ];
        for (label, d_end, sent, round, cap, want) in cases {
            assert_eq!(decide_round(d_end, sent, round, &p, cap), want, "{label}");
        }
    }

    #[test]
    fn fault_round_cap_forces_only_where_the_engine_would_iterate() {
        let p = precopy();
        let forced = StopAndCopy { forced: true };
        let own = StopAndCopy { forced: false };
        // Cap reached after round 2 (0-based round 1), own rules silent.
        assert_eq!(decide_round(500_000, 1e6, 1, &p, Some(2)), forced);
        assert_eq!(decide_round(500_000, 1e6, 5, &p, Some(2)), forced);
        // Cap not yet reached: another round.
        assert_eq!(decide_round(500_000, 1e6, 0, &p, Some(2)), Again);
        // The engine's own threshold, stall or round cap wins: not forced.
        assert_eq!(decide_round(100, 1e6, 1, &p, Some(2)), own);
        assert_eq!(decide_round(950_000, 1e6, 1, &p, Some(2)), own);
        assert_eq!(decide_round(500_000, 1e6, 29, &p, Some(2)), own);
        // Nothing dirty: done, whatever the fault plan says.
        assert_eq!(decide_round(0, 1e6, 1, &p, Some(2)), Done);
    }
}
