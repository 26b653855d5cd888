//! The analytic fast path: closed-form per-phase energy integration.
//!
//! [`run_analytic_reusing`] drives the same [`StageMachine`] as the
//! sampled reference engine — so phases, rounds, bytes, downtime, outcome
//! and fault events come from one copy of the decision logic — under the
//! same CPU-coupled bandwidth and per-run jitter, but integrates energy
//! exactly instead of materialising a 2 Hz meter trace:
//!
//! * the tick loop covers only `[ms, me]` (no lead-in or stabilising tail
//!   ticks — neither contributes to any phase window);
//! * each tick's piecewise-constant ground-truth power is accumulated
//!   into per-phase [`TermIntegral`]s by exact integer-µs overlap, so the
//!   deterministic energy is the *exact* integral of the engine's power
//!   signal (the sampled path approximates the same integral with a 2 Hz
//!   trapezoid — an `O(h)` difference bounded by the differential
//!   harness);
//! * the slow OU power wander is integrated per phase window from its
//!   exact discrete-step moments ([`OuIntegrator`]) on counter-based RNG
//!   streams (`wander.analytic.*`), two draws per window instead of one
//!   per tick — the sampled path's own streams are left untouched, so
//!   sampled results stay byte-identical whether or not this path exists;
//! * host/VM state lives in flat per-host slot vectors that mirror the
//!   machine's view of the migrant (no cluster mutation, no per-tick map
//!   lookups), demand curves come from [`WorkloadProfile`]s (sinusoid
//!   ripple advanced by a unit rotation per tick), `u^e` is served from a
//!   small memo/Taylor cache, and a three-tier tick cache reuses the
//!   prelude between state-changing events.
//!
//! ## Known, documented approximations (all bounded or zero-mean)
//!
//! * Wander energy is booked per *tick*, attributed to the window owning
//!   the tick (`idx(t) = ceil(t/dt)`); the sub-tick misassignment at
//!   window boundaries is zero-mean and at most one tick of wander.
//! * The sampled path clamps instantaneous power at 0 W; the analytic
//!   wander does not, which only matters if wander excursions exceed the
//!   idle floor (σ = 9 W vs ≥ 400 W floors — never in practice).
//! * Ripple demand uses a rotation recurrence (drift ≈ 1 ulp per period)
//!   and `u^e` a ±2·10⁻³-radius second-order Taylor expansion (relative
//!   error ≤ 10⁻⁶ of the dynamic-power term).
//!
//! No per-sample rows exist on this path, so [`MigrationRecord`] carries
//! empty meter/truth traces, telemetry and feature samples.
//!
//! [`StageMachine`]: crate::stages::StageMachine
//! [`WorkloadProfile`]: wavm3_workloads::WorkloadProfile

use crate::record::{MigrationRecord, RoundStats};
use crate::simulation::{MigrationSimulation, PEAK_PAGE_WRITE_RATE};
use crate::stages::{Stage, StageMachine};
use std::collections::BTreeMap;
use std::sync::Arc;
use wavm3_cluster::{
    cpu::vmm_overhead_cores, CpuAccounting, Host, Link, PowerProfile, VmId, PAGE_SIZE_BYTES,
};
use wavm3_obs::{LedgerEntry, RoleLedger, TermEnergy};
use wavm3_power::{
    EnergyBreakdown, OuIntegrator, PhaseTimes, PowerInputs, PowerTerms, PowerTrace,
    TelemetryRecorder, TermIntegral,
};
use wavm3_simkit::{CounterRng, RngFactory, SimDuration, SimTime};
use wavm3_workloads::{DemandProfile, Workload};

/// A CPU-demand curve specialised for per-tick evaluation.
enum CpuCurve {
    /// Time-invariant demand.
    Constant(f64),
    /// `target·(1 + half_ripple·sin)` advanced by a unit rotation per
    /// tick — the matmul ripple without a `sin` call in the loop.
    Osc {
        s: f64,
        c: f64,
        step_s: f64,
        step_c: f64,
        target: f64,
        half_ripple: f64,
    },
    /// No closed form: query the trait object every tick.
    General,
}

/// One resident VM in a host's placement order — the struct-of-arrays
/// `Vm` twin the inner loop iterates without touching the cluster.
struct Slot {
    vcpus: f64,
    /// Stored demand, mirroring `Vm::set_cpu_demand` (already clamped).
    demand: f64,
    running: bool,
    is_migrant: bool,
    cpu: CpuCurve,
    /// Constant page-write rate, or `None` → trait query per use.
    write_rate: Option<f64>,
    /// Constant NIC line share, or `None` → trait query per use.
    line_share: Option<f64>,
    /// Trait object for `General` fallbacks (and the migrant's working
    /// set); `None` for VMs with no workload attached.
    wl: Option<Arc<dyn Workload>>,
}

impl Slot {
    /// Advance the demand curve by one tick and store the demand with
    /// `Vm::set_cpu_demand` semantics (clamped to `[0, vcpus]`).
    /// `migrant_factor` is the post-copy degraded-demand multiplier,
    /// applied to the migrant slot only (1.0 otherwise — an exact no-op).
    /// VMs with no workload attached keep their demand.
    #[inline]
    fn advance_demand(&mut self, now: SimTime, migrant_factor: f64) {
        if let Some(wl) = &self.wl {
            let mut demand = match &mut self.cpu {
                CpuCurve::Constant(c) => *c,
                CpuCurve::Osc {
                    s,
                    c,
                    step_s,
                    step_c,
                    target,
                    half_ripple,
                } => {
                    let factor = 1.0 + *half_ripple * *s;
                    let d = (*target * factor).max(0.0);
                    let (ns, nc) = (*s * *step_c + *c * *step_s, *c * *step_c - *s * *step_s);
                    *s = ns;
                    *c = nc;
                    d
                }
                CpuCurve::General => wl.cpu_demand(now),
            };
            if self.is_migrant {
                demand *= migrant_factor;
            }
            self.demand = demand.clamp(0.0, self.vcpus);
        }
    }

    #[inline]
    fn write_rate_at(&self, t: SimTime) -> f64 {
        match self.write_rate {
            Some(r) => r,
            None => self
                .wl
                .as_ref()
                .map(|w| w.page_write_rate(t))
                .unwrap_or(0.0),
        }
    }

    #[inline]
    fn line_share_at(&self, t: SimTime) -> f64 {
        match self.line_share {
            Some(v) => v,
            None => self.wl.as_ref().map(|w| w.line_share(t)).unwrap_or(0.0),
        }
    }
}

/// Placement-order folds the engine needs once per tick, produced by a
/// single fused pass over a host's slots.
#[derive(Clone, Copy, Default)]
struct TickSums {
    /// CPU demand fold of running VMs (placement order, starts at 0.0 —
    /// the exact fold `Host::cpu_allocation` performs).
    vm_cores: f64,
    /// Running VM count (with or without a workload) for the VMM
    /// overhead curve.
    running: usize,
    /// NIC line-share fold of running guests with workloads (uncapped).
    line_share: f64,
    /// Page-write-rate fold of running guests with workloads.
    write_rate: f64,
}

/// Recycled per-worker buffers for repeated analytic runs.
///
/// A campaign worker holds one `RunSlot` and threads it through every
/// repetition it executes
/// ([`MigrationSimulation::run_analytic_reusing`]); the host slot
/// vectors, round-statistics buffer and fault-window bitmap keep their
/// capacity between runs, so the steady-state tick loop performs no heap
/// allocation at all. A default (empty) slot behaves identically to the
/// one-shot path — results are a pure function of the scenario and RNG,
/// never of what the buffers held before.
#[derive(Default)]
pub struct RunSlot {
    src_slots: Vec<Slot>,
    dst_slots: Vec<Slot>,
    rounds: Vec<RoundStats>,
    link_seen: Vec<bool>,
}

/// One host's mutable simulation state.
struct HostState {
    capacity: f64,
    slots: Vec<Slot>,
}

impl HostState {
    /// Build the host's slot array into `slots` (a recycled buffer —
    /// cleared first, so only its capacity survives between runs).
    fn from_host(
        host: &Host,
        workloads: &BTreeMap<VmId, Arc<dyn Workload>>,
        migrant: VmId,
        t0: SimTime,
        dt_s: f64,
        mut slots: Vec<Slot>,
    ) -> Self {
        use std::f64::consts::TAU;
        slots.clear();
        slots.extend(host.vms().iter().map(|vm| {
            let wl = workloads.get(&vm.id).cloned();
            let profile = wl.as_ref().map(|w| w.demand_profile());
            let cpu = match profile.as_ref().map(|p| p.cpu) {
                Some(DemandProfile::Constant(c)) => CpuCurve::Constant(c),
                Some(DemandProfile::Ripple {
                    target,
                    ripple,
                    period_s,
                    phase,
                }) => {
                    let arg = TAU * (t0.as_secs_f64() / period_s + phase);
                    let step = TAU * (dt_s / period_s);
                    CpuCurve::Osc {
                        s: arg.sin(),
                        c: arg.cos(),
                        step_s: step.sin(),
                        step_c: step.cos(),
                        target,
                        half_ripple: 0.5 * ripple,
                    }
                }
                Some(DemandProfile::General) => CpuCurve::General,
                // No workload attached: demand is never refreshed.
                None => CpuCurve::Constant(0.0),
            };
            Slot {
                vcpus: vm.spec.vcpus as f64,
                demand: 0.0,
                running: vm.is_running(),
                is_migrant: vm.id == migrant,
                cpu,
                write_rate: profile.as_ref().and_then(|p| p.page_write_rate),
                line_share: profile.as_ref().and_then(|p| p.line_share),
                wl,
            }
        }));
        HostState {
            capacity: host.spec.cpu_capacity(),
            slots,
        }
    }

    /// Refresh every workload's CPU demand ([`Slot::advance_demand`]) and
    /// fold the sums this tick needs, all in one placement-order pass.
    ///
    /// Suspension flags must be synced *before* the call: the folds read
    /// them, exactly like `Vm::cpu_demand` gating on the Running state.
    #[inline]
    fn refresh_tick(&mut self, now: SimTime, migrant_factor: f64) -> TickSums {
        let mut sums = TickSums::default();
        for slot in &mut self.slots {
            slot.advance_demand(now, migrant_factor);
            if slot.running {
                sums.running += 1;
                sums.vm_cores += slot.demand;
                if slot.wl.is_some() {
                    sums.line_share += slot.line_share_at(now);
                    sums.write_rate += slot.write_rate_at(now);
                }
            }
        }
        sums
    }

    /// Advance every demand curve and fold running `vm_cores` only — the
    /// per-tick work of a host whose line-share / write-rate folds are
    /// profile constants (cached between events). The demand updates and
    /// the fold order are exactly [`HostState::refresh_tick`]'s, so the
    /// result is bit-identical to the full pass.
    #[inline]
    fn refresh_vm_cores(&mut self, now: SimTime, migrant_factor: f64) -> f64 {
        let mut vm_cores = 0.0;
        for slot in &mut self.slots {
            slot.advance_demand(now, migrant_factor);
            if slot.running {
                vm_cores += slot.demand;
            }
        }
        vm_cores
    }

    /// Placement-order running write-rate fold, for the rare ticks where
    /// the transfer sub-loop changes placement or suspension mid-tick
    /// (the memory-activity term reads the *post*-sub-loop state).
    fn write_rate_sum(&self, t: SimTime) -> f64 {
        let mut rate = 0.0;
        for s in &self.slots {
            if s.running && s.wl.is_some() {
                rate += s.write_rate_at(t);
            }
        }
        rate
    }

    fn migrant_index(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.is_migrant)
    }
}

/// Memo + second-order Taylor cache for `u^e` (the CPU power curve).
/// Exact on repeated inputs (saturated or constant-utilisation hosts hit
/// the memo every tick); within a ±2·10⁻³ window it expands around the
/// last exactly-evaluated point with relative error ≤ 10⁻⁶.
struct PowCache {
    e: f64,
    u0: f64,
    f0: f64,
    d1: f64,
    d2: f64,
    last_u: f64,
    last_f: f64,
}

impl PowCache {
    fn new(e: f64) -> Self {
        PowCache {
            e,
            u0: f64::NAN,
            f0: 0.0,
            d1: 0.0,
            d2: 0.0,
            last_u: f64::NAN,
            last_f: 0.0,
        }
    }

    #[inline]
    fn eval(&mut self, u: f64) -> f64 {
        if u == self.last_u {
            return self.last_f;
        }
        let du = u - self.u0;
        let f = if du.abs() <= 2.0e-3 && self.u0 >= 0.01 {
            self.f0 + du * (self.d1 + du * (0.5 * self.d2))
        } else {
            self.rebase(u)
        };
        self.last_u = u;
        self.last_f = f;
        f
    }

    fn rebase(&mut self, u: f64) -> f64 {
        let f = u.powf(self.e);
        self.u0 = u;
        self.f0 = f;
        if u > 0.0 {
            self.d1 = self.e * f / u;
            self.d2 = self.e * (self.e - 1.0) * f / (u * u);
        } else {
            self.d1 = 0.0;
            self.d2 = 0.0;
        }
        f
    }
}

/// Ground-truth terms with the `u^e` served from the cache; otherwise the
/// same arithmetic (and rounding order) as `ground_truth_terms`.
#[inline]
fn terms_for(profile: &PowerProfile, inputs: PowerInputs, pow: &mut PowCache) -> PowerTerms {
    let i = inputs.clamped();
    let cpu_power = profile.idle_w + profile.cpu_dynamic_w * pow.eval(i.cpu_utilisation);
    PowerTerms {
        idle_w: profile.idle_w,
        cpu_w: cpu_power - profile.idle_w,
        mem_dirty_w: profile.mem_contention_w * i.mem_activity,
        network_w: profile.nic_w_at_line_rate * i.nic_utilisation,
        service_w: i.service_w,
    }
}

/// Overlap of `[a, b)` with `[lo, hi)` in µs.
#[inline]
fn overlap_us(a: u64, b: u64, lo: u64, hi: u64) -> u64 {
    b.min(hi).saturating_sub(a.max(lo))
}

/// Spread a window's wander energy across its deterministic terms pro
/// rata, mirroring the sampled path's `TermTraces::record` attribution
/// (degenerate windows book everything under the idle floor).
fn spread(det: &TermIntegral, wander_j: f64) -> TermEnergy {
    let total = det.total_j();
    if total > 0.0 {
        let t = det.scaled((total + wander_j) / total);
        TermEnergy {
            idle_j: t.idle_j,
            cpu_j: t.cpu_j,
            mem_dirty_j: t.mem_dirty_j,
            network_j: t.network_j,
            service_j: t.service_j,
        }
    } else {
        TermEnergy {
            idle_j: wander_j,
            ..TermEnergy::default()
        }
    }
}

/// Mirror the stage machine's view of the migrant into the slot arrays:
/// move its slot to the target once it runs there, and sync its run flag.
/// Returns `true` when either changed.
#[inline]
fn sync_migrant(
    machine: &StageMachine,
    src: &mut HostState,
    dst: &mut HostState,
    m_idx: &mut usize,
) -> bool {
    let on_target = machine.migrant_on_target();
    let relocated = on_target && src.slots.get(*m_idx).is_some_and(|s| s.is_migrant);
    if relocated {
        *m_idx = relocate(src, dst, *m_idx);
    }
    let host = if on_target { dst } else { src };
    let slot = &mut host.slots[*m_idx];
    let flipped = slot.running != machine.migrant_running();
    slot.running = machine.migrant_running();
    relocated || flipped
}

/// Move slot `idx` from `src` to the end of `dst`; returns its new index.
/// Kept out of line: it runs at most once per run.
#[inline(never)]
fn relocate(src: &mut HostState, dst: &mut HostState, idx: usize) -> usize {
    dst.slots.push(src.slots.remove(idx));
    dst.slots.len() - 1
}

/// Run the scenario on the analytic path (see the module docs) with
/// recycled buffers and a caller-supplied RNG root: campaign workers
/// rebuild neither the cluster nor the slot arrays between repetitions.
/// The result is a pure function of `(sim, rng)`.
pub(crate) fn run_analytic_reusing(
    sim: &MigrationSimulation,
    rng: RngFactory,
    arena: &mut RunSlot,
) -> MigrationRecord {
    let _perf = wavm3_obs::perf::scope("migration.run.analytic");
    let cfg = sim.config;

    let dt = cfg.timing.tick;
    let dt_s = dt.as_secs_f64();
    let dt_us = dt.as_micros();

    let link: Link = sim.cluster.link;
    // Same per-run jitter streams (and therefore the same draws) as the
    // sampled path; the wander moves to dedicated counter streams.
    let setup = sim.setup(&rng);
    let (src_power, dst_power) = (setup.src_power, setup.dst_power);
    let noise = cfg.env_noise;
    let mut src_wander: OuIntegrator<CounterRng> = OuIntegrator::new(
        noise.wander_tau_s,
        noise.wander_std_w,
        dt_s,
        rng.counter_stream("wander.analytic.source"),
    );
    let mut dst_wander: OuIntegrator<CounterRng> = OuIntegrator::new(
        noise.wander_tau_s,
        noise.wander_std_w,
        dt_s,
        rng.counter_stream("wander.analytic.target"),
    );
    let ledger_on = wavm3_obs::ledger_active();

    // Slot state starts at the first processed tick: the one containing
    // `ms` (it can straddle `ms` when the tick doesn't divide it, and its
    // `[ms, ·)` remainder belongs to the initiation window).
    let ms = SimTime::ZERO + cfg.timing.pre_run;
    let k0 = ms.as_micros() / dt_us;
    let mut now = SimTime::from_micros(k0 * dt_us);
    let mut hsrc = HostState::from_host(
        sim.cluster.host(sim.source),
        &sim.workloads,
        sim.migrant,
        now,
        dt_s,
        std::mem::take(&mut arena.src_slots),
    );
    let mut hdst = HostState::from_host(
        sim.cluster.host(sim.target),
        &sim.workloads,
        sim.migrant,
        now,
        dt_s,
        std::mem::take(&mut arena.dst_slots),
    );
    let mut m_idx = hsrc.migrant_index().expect("migrant starts on the source");
    let mut machine = StageMachine::new(
        &cfg,
        &rng,
        &setup,
        std::mem::take(&mut arena.rounds),
        std::mem::take(&mut arena.link_seen),
    );

    let mut pow_src = PowCache::new(src_power.cpu_exponent);
    let mut pow_dst = PowCache::new(dst_power.cpu_exponent);
    let mut current_bw: f64;

    // Per-phase deterministic integrals: [initiation, transfer, tail].
    let mut int_src = [TermIntegral::default(); 3];
    let mut int_dst = [TermIntegral::default(); 3];

    // --- Tick-invariant prelude cache. ---------------------------------
    // On hosts whose every demand curve is `CpuCurve::Constant` (and whose
    // workload folds come from profile constants), the entire prelude —
    // demand refresh, CPU allocation, coupled bandwidth, power terms — is
    // invariant between state-changing events: stage boundaries, suspend /
    // resume / relocation, post-copy demand ramp, fault-window edges.
    // `cache_dirty` marks those events; the ticks in between reuse the
    // previous tick's values, which are bit-identical to recomputation
    // because every input is unchanged. Oscillating or `General` demand
    // curves keep `cache_dirty` latched, i.e. the full per-tick prelude.
    let host_const = |h: &HostState| {
        h.slots.iter().all(|s| {
            matches!(s.cpu, CpuCurve::Constant(_))
                && (s.wl.is_none() || (s.write_rate.is_some() && s.line_share.is_some()))
        })
    };
    // Per-host flags go stale when the migrant slot relocates, so they are
    // refreshed at both relocation sites; the conjunctions `fast_ok` /
    // `semi_ok` range over the union of slots and are relocation-invariant.
    let mut src_const = host_const(&hsrc);
    let mut dst_const = host_const(&hdst);
    let fast_ok = src_const && dst_const;
    // Weaker tier for hosts with oscillating demand: when every workload's
    // line-share / write-rate folds are profile constants, only `vm_cores`
    // (and whatever depends on it) needs per-tick recomputation; the
    // constant folds, running counts and the non-CPU power terms are
    // reused between events — each reuse bit-identical to recomputation.
    let folds_const = |h: &HostState| {
        h.slots
            .iter()
            .all(|s| s.wl.is_none() || (s.write_rate.is_some() && s.line_share.is_some()))
    };
    let semi_ok = folds_const(&hsrc) && folds_const(&hdst);
    let mut cache_dirty = true;
    let mut c_src_running = 0usize;
    let mut c_dst_running = 0usize;
    let mut c_src_wrf = 0.0;
    let mut c_dst_wrf = 0.0;
    let mut c_migrant_factor = f64::NAN;
    let mut c_bw_base = 0.0;
    let mut c_bw = 0.0;
    let mut c_migrant_wr = 0.0;
    let mut c_src_alloc = CpuAccounting::default().allocate(1.0);
    let mut c_dst_alloc = c_src_alloc;
    let mut c_src_bg = 0.0;
    let mut c_dst_bg = 0.0;
    let mut c_src_terms = PowerTerms::default();
    let mut c_dst_terms = PowerTerms::default();

    let horizon = SimTime::from_secs(3_600);

    // Tick-cache tier tallies (flushed once per run into the profiler so
    // the hot loop never touches shared state).
    let mut ticks_full: u64 = 0;
    let mut ticks_fast: u64 = 0;
    let mut ticks_semi: u64 = 0;

    let _perf_ticks = wavm3_obs::perf::scope("analytic.tick_loop");
    while machine.bounds().2.is_none_or(|me| now < me) {
        assert!(now < horizon, "simulation failed to terminate");

        // --- Stage transitions, then the migrant's slot follows them.
        // Suspension gates the demand at read time, as Vm::cpu_demand
        // does, so the migrant's flag syncs before the fold.
        let stage_before = machine.stage();
        machine.begin_tick(now);
        let stage = machine.stage();
        cache_dirty |= stage != stage_before;
        if sync_migrant(&machine, &mut hsrc, &mut hdst, &mut m_idx) {
            cache_dirty = true;
            src_const = host_const(&hsrc);
            dst_const = host_const(&hdst);
        }
        let migrant_factor = machine.migrant_demand_factor();
        cache_dirty |= migrant_factor != c_migrant_factor;

        let fresh_terms;
        let mut semi_partial = false;
        let mut have_sums = false;
        let mut src_wr_fold = 0.0;
        let mut dst_wr_fold = 0.0;
        let migrant_wr;
        let src_alloc;
        let dst_alloc;
        let src_bg;
        let dst_bg;
        if cache_dirty {
            ticks_full += 1;
            let src_sums = hsrc.refresh_tick(now, migrant_factor);
            let dst_sums = hdst.refresh_tick(now, migrant_factor);

            // --- Migration CPU demand per stage (CPU_migr of Eq. 2). ---
            migrant_wr = if machine.migrant_on_target() {
                &hdst.slots[m_idx]
            } else {
                &hsrc.slots[m_idx]
            }
            .write_rate_at(now);
            let (migr_src_cores, migr_dst_cores) = machine.migration_cores(migrant_wr);

            // --- Resolve CPU allocations and the coupled bandwidth. ---
            src_alloc = CpuAccounting {
                vmm_cores: vmm_overhead_cores(src_sums.running),
                vm_cores: src_sums.vm_cores,
                migration_cores: migr_src_cores.max(0.0),
            }
            .allocate(hsrc.capacity);
            dst_alloc = CpuAccounting {
                vmm_cores: vmm_overhead_cores(dst_sums.running),
                vm_cores: dst_sums.vm_cores,
                migration_cores: migr_dst_cores.max(0.0),
            }
            .allocate(hdst.capacity);
            src_bg = src_sums.line_share.min(1.0);
            dst_bg = dst_sums.line_share.min(1.0);
            // Cached ticks re-apply a moved fault factor to the same base.
            let free_line = (1.0 - src_bg.max(dst_bg)).max(0.02);
            c_bw_base = link.effective_bandwidth(src_alloc.scale, dst_alloc.scale) * free_line;
            current_bw = machine.transfer_bandwidth(now, c_bw_base);

            c_migrant_factor = migrant_factor;
            c_migrant_wr = migrant_wr;
            c_src_alloc = src_alloc;
            c_dst_alloc = dst_alloc;
            c_src_bg = src_bg;
            c_dst_bg = dst_bg;
            c_bw = current_bw;
            c_src_running = src_sums.running;
            c_dst_running = dst_sums.running;
            c_src_wrf = src_sums.write_rate;
            c_dst_wrf = dst_sums.write_rate;
            have_sums = true;
            src_wr_fold = src_sums.write_rate;
            dst_wr_fold = dst_sums.write_rate;
            fresh_terms = true;
            cache_dirty = !semi_ok;
        } else if fast_ok {
            // Cached tick: every prelude input is unchanged by
            // construction; only the fault factor is time-dependent.
            ticks_fast += 1;
            migrant_wr = c_migrant_wr;
            src_alloc = c_src_alloc;
            dst_alloc = c_dst_alloc;
            src_bg = c_src_bg;
            dst_bg = c_dst_bg;
            let bw = machine.transfer_bandwidth(now, c_bw_base);
            fresh_terms = bw != c_bw;
            c_bw = bw;
            current_bw = bw;
        } else {
            // Semi-cached tick (oscillating demand, constant folds):
            // advance the curves and re-fold `vm_cores`, reuse everything
            // whose inputs cannot have moved since the last event. A host
            // that is itself fully constant skips even that — its fold,
            // allocation and power terms are frozen between events.
            ticks_semi += 1;
            migrant_wr = c_migrant_wr;
            let (migr_src_cores, migr_dst_cores) = machine.migration_cores(migrant_wr);
            src_alloc = if src_const {
                c_src_alloc
            } else {
                CpuAccounting {
                    vmm_cores: vmm_overhead_cores(c_src_running),
                    vm_cores: hsrc.refresh_vm_cores(now, migrant_factor),
                    migration_cores: migr_src_cores.max(0.0),
                }
                .allocate(hsrc.capacity)
            };
            dst_alloc = if dst_const {
                c_dst_alloc
            } else {
                CpuAccounting {
                    vmm_cores: vmm_overhead_cores(c_dst_running),
                    vm_cores: hdst.refresh_vm_cores(now, migrant_factor),
                    migration_cores: migr_dst_cores.max(0.0),
                }
                .allocate(hdst.capacity)
            };
            src_bg = c_src_bg;
            dst_bg = c_dst_bg;
            let free_line = (1.0 - src_bg.max(dst_bg)).max(0.02);
            let base = link.effective_bandwidth(src_alloc.scale, dst_alloc.scale) * free_line;
            current_bw = machine.transfer_bandwidth(now, base);
            // Unchanged bandwidth (unsaturated endpoints) leaves every
            // non-CPU term of the last tick valid.
            semi_partial = current_bw == c_bw;
            c_bw = current_bw;
            src_wr_fold = c_src_wrf;
            dst_wr_fold = c_dst_wrf;
            have_sums = true;
            fresh_terms = true;
        }

        // --- Advance the transfer within this tick (may cross rounds);
        // a stop-and-copy suspension or the activation handover moves the
        // migrant's slot mid-tick and stales the folds above. ---
        current_bw = machine.advance_transfer(now, current_bw, dt_s, migrant_wr);
        let sums_stale = sync_migrant(&machine, &mut hsrc, &mut hdst, &mut m_idx);
        if sums_stale {
            src_const = host_const(&hsrc);
            dst_const = host_const(&hdst);
        }

        // --- Ground-truth power for both hosts at this instant. ---
        let stage_moved = machine.stage() != stage;
        let stage = machine.stage();
        cache_dirty |= sums_stale || stage_moved;
        let (src_terms, dst_terms) = if semi_partial && !sums_stale && !stage_moved {
            // Semi-cached tick with unchanged bandwidth: only the CPU
            // utilisation moved, so rebuild just `cpu_w` — the expression
            // below replicates `terms_for`'s bit for bit (`utilisation()`
            // already clamps, making `clamped()` a no-op on this field).
            // A fully constant host's utilisation did not move either.
            let s = if src_const {
                c_src_terms
            } else {
                let u = src_alloc.utilisation();
                let cpu_power = src_power.idle_w + src_power.cpu_dynamic_w * pow_src.eval(u);
                PowerTerms {
                    cpu_w: cpu_power - src_power.idle_w,
                    ..c_src_terms
                }
            };
            let d = if dst_const {
                c_dst_terms
            } else {
                let u = dst_alloc.utilisation();
                let cpu_power = dst_power.idle_w + dst_power.cpu_dynamic_w * pow_dst.eval(u);
                PowerTerms {
                    cpu_w: cpu_power - dst_power.idle_w,
                    ..c_dst_terms
                }
            };
            c_src_terms = s;
            c_dst_terms = d;
            (s, d)
        } else if fresh_terms || sums_stale || stage_moved {
            let migr_nic = link.line_utilisation(current_bw);
            let src_nic_util = (migr_nic + src_bg).min(1.0);
            let dst_nic_util = (migr_nic + dst_bg).min(1.0);
            let (svc_src, svc_dst) = machine.service_watts();
            let state_load_rate = if stage == Stage::Transfer {
                current_bw / PAGE_SIZE_BYTES as f64
            } else {
                0.0
            };
            // The memory-activity term reads the post-sub-loop placement;
            // when the sub-loop suspended or relocated the migrant — or
            // the tick has no fresh sums in scope — re-fold the write
            // rates (on constant-curve hosts, the only ones that reach a
            // cached prelude, the re-fold is bit-identical to the fold).
            let (src_wr, dst_wr) = if have_sums && !sums_stale {
                (src_wr_fold, dst_wr_fold)
            } else {
                (hsrc.write_rate_sum(now), hdst.write_rate_sum(now))
            };
            let s = terms_for(
                &src_power,
                PowerInputs {
                    cpu_utilisation: src_alloc.utilisation(),
                    nic_utilisation: src_nic_util,
                    mem_activity: (src_wr / PEAK_PAGE_WRITE_RATE).min(1.0),
                    service_w: svc_src * setup.src_jitter.service_factor,
                },
                &mut pow_src,
            );
            let d = terms_for(
                &dst_power,
                PowerInputs {
                    cpu_utilisation: dst_alloc.utilisation(),
                    nic_utilisation: dst_nic_util,
                    mem_activity: ((state_load_rate + dst_wr) / PEAK_PAGE_WRITE_RATE).min(1.0),
                    service_w: svc_dst * setup.dst_jitter.service_factor,
                },
                &mut pow_dst,
            );
            c_src_terms = s;
            c_dst_terms = d;
            (s, d)
        } else {
            (c_src_terms, c_dst_terms)
        };

        // --- Exact window attribution of this tick's constant power. ---
        let (ts, te, me) = machine.bounds();
        let a = now.as_micros();
        let b = a + dt_us;
        let o1 = overlap_us(a, b, ms.as_micros(), ts.as_micros());
        if o1 > 0 {
            let secs = o1 as f64 / 1e6;
            int_src[0].accumulate(&src_terms, secs);
            int_dst[0].accumulate(&dst_terms, secs);
        }
        let w2_hi = te.map(|t| t.as_micros()).unwrap_or(u64::MAX);
        let o2 = overlap_us(a, b, ts.as_micros(), w2_hi);
        if o2 > 0 {
            let secs = o2 as f64 / 1e6;
            int_src[1].accumulate(&src_terms, secs);
            int_dst[1].accumulate(&dst_terms, secs);
        }
        if let (Some(te_t), Some(me_t)) = (te, me) {
            let o3 = overlap_us(a, b, te_t.as_micros(), me_t.as_micros());
            if o3 > 0 {
                let secs = o3 as f64 / 1e6;
                int_src[2].accumulate(&src_terms, secs);
                int_dst[2].accumulate(&dst_terms, secs);
            }
        }

        now += dt;
    }
    drop(_perf_ticks);
    wavm3_obs::perf::counter_add("analytic.tick_cache.full", ticks_full);
    wavm3_obs::perf::counter_add("analytic.tick_cache.fast_hit", ticks_fast);
    wavm3_obs::perf::counter_add("analytic.tick_cache.semi_hit", ticks_semi);
    let _perf_finalise = wavm3_obs::perf::scope("analytic.finalise");

    let end = machine.finish();
    let PhaseTimes { ms, ts, te, me } = end.phases;

    // --- OU wander per phase window, from its exact discrete moments.
    // Tick ownership: window [a, b) owns ticks ceil(a/dt)..ceil(b/dt).
    let k_ms = ms.as_micros().div_ceil(dt_us);
    let k_ts = ts.as_micros().div_ceil(dt_us);
    let k_te = te.as_micros().div_ceil(dt_us);
    let k_me = me.as_micros().div_ceil(dt_us);
    let wander_of = |ou: &mut OuIntegrator<CounterRng>| {
        ou.advance(k_ms);
        [
            ou.window_sum(k_ts - k_ms) * dt_s,
            ou.window_sum(k_te - k_ts) * dt_s,
            ou.window_sum(k_me - k_te) * dt_s,
        ]
    };
    let w_src = wander_of(&mut src_wander);
    let w_dst = wander_of(&mut dst_wander);

    // Window totals `[initiation, transfer, tail]`, split by outcome the
    // same way the sampled engine's trace integration is.
    let breakdown = |ints: &[TermIntegral; 3], w: &[f64; 3]| {
        EnergyBreakdown::from_windows(
            ints[0].total_j() + w[0],
            ints[1].total_j() + w[1],
            ints[2].total_j() + w[2],
            end.aborted(),
        )
    };
    let source_energy = breakdown(&int_src, &w_src);
    let target_energy = breakdown(&int_dst, &w_dst);
    end.observe(&source_energy, &target_energy);

    if ledger_on {
        let role = |ints: &[TermIntegral; 3], w: &[f64; 3]| {
            RoleLedger::from_windows(
                spread(&ints[0], w[0]),
                spread(&ints[1], w[1]),
                spread(&ints[2], w[2]),
                end.aborted(),
            )
        };
        wavm3_obs::ledger::record(LedgerEntry {
            kind: cfg.kind.label(),
            outcome: end.outcome_label(),
            source: role(&int_src, &w_src),
            target: role(&int_dst, &w_dst),
        });
    }

    let record = MigrationRecord {
        kind: cfg.kind,
        machine_set: setup.machine_set,
        phases: end.phases,
        source_trace: PowerTrace::new(setup.src_name.clone()),
        target_trace: PowerTrace::new(setup.dst_name.clone()),
        source_truth: PowerTrace::new(setup.src_name),
        target_truth: PowerTrace::new(setup.dst_name),
        telemetry: TelemetryRecorder::new(),
        samples: Vec::new(),
        outcome: end.outcome,
        rounds: end.rounds.clone(),
        total_bytes: end.total_bytes,
        downtime: end.downtime,
        vm_ram_mib: setup.vm_ram_mib,
        source_energy,
        target_energy,
        idle_power_w: setup.idle_power_w,
        fault_events: end.fault_events,
        attempt: 0,
        retry_backoff: SimDuration::ZERO,
    };

    // Hand the warm buffers back so the next repetition reuses their
    // capacity (the tick loop's pushes then never touch the allocator).
    arena.rounds = end.rounds;
    arena.link_seen = end.link_seen;
    arena.src_slots = hsrc.slots;
    arena.dst_slots = hdst.slots;
    record
}
