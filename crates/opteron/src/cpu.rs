//! The cache-traced Opteron MD run.

use crate::config::OpteronConfig;
use md_core::device::DeviceError;
use md_core::driver::{CostModel, CostReport, Eval, FaultKind, FaultSite, StepCost, StepDriver};
use md_core::forces::{gather_row, ForceKernel, GatherRow, SoaPositions};
use md_core::init;
use md_core::observables::EnergyReport;
use md_core::parallel::map_lanes;
use md_core::params::SimConfig;
use md_core::shared_eval::{host_rows, HostRowsKernel};
use md_core::system::ParticleSystem;
use md_core::verlet::VelocityVerlet;
use memsim::{AccessKind, AddressSpace, ArrayRegion, HierarchyStats, MemoryHierarchy};
use vecmath::Vec3;

/// Per-pair flop counts for the scalar kernel (displacement + minimum image +
/// r²: subs, conditional corrections, multiplies, adds).
const FLOPS_DISTANCE: f64 = 14.0;
/// Additional flops when a pair is inside the cutoff (LJ energy+force and the
/// acceleration accumulation).
const FLOPS_INTERACT: f64 = 20.0;
/// Per-atom flops in the O(N) integration steps (two half-kicks + drift +
/// wrap + kinetic-energy accumulation).
const FLOPS_INTEGRATE: f64 = 24.0;

/// The memory front-end: plain hierarchy or prefetcher-assisted.
#[derive(Clone)]
enum MemFrontend {
    Plain(MemoryHierarchy),
    Prefetching(memsim::PrefetchingHierarchy),
}

impl MemFrontend {
    fn access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        match self {
            MemFrontend::Plain(h) => h.access(addr, kind),
            MemFrontend::Prefetching(h) => h.access(addr, kind),
        }
    }

    fn access_strided(&mut self, base: u64, stride: u64, count: u64, kind: AccessKind) -> u64 {
        match self {
            MemFrontend::Plain(h) => h.access_strided(base, stride, count, kind),
            MemFrontend::Prefetching(h) => h.access_strided(base, stride, count, kind),
        }
    }

    fn stats(&self) -> HierarchyStats {
        match self {
            MemFrontend::Plain(h) => h.stats(),
            MemFrontend::Prefetching(h) => h.inner().stats(),
        }
    }

    fn reset(&mut self) {
        match self {
            MemFrontend::Plain(h) => h.reset(),
            MemFrontend::Prefetching(h) => h.reset(),
        }
    }

    /// Whether the front end is as `reset` leaves it (see
    /// [`MemoryHierarchy::is_reset`]).
    fn is_reset(&self) -> bool {
        match self {
            MemFrontend::Plain(h) => h.is_reset(),
            MemFrontend::Prefetching(h) => h.is_reset(),
        }
    }

    /// Timing-normalized state equality (see
    /// [`MemoryHierarchy::replay_state_eq`]); differing front-end kinds are
    /// never equivalent.
    fn replay_state_eq(&self, other: &MemFrontend) -> bool {
        match (self, other) {
            (MemFrontend::Plain(a), MemFrontend::Plain(b)) => a.replay_state_eq(b),
            (MemFrontend::Prefetching(a), MemFrontend::Prefetching(b)) => a.replay_state_eq(b),
            _ => false,
        }
    }

    /// Skip a memoized replay (see [`MemoryHierarchy::apply_replay`]).
    /// Callers establish `self.replay_state_eq(entry)` first, which also
    /// guarantees all three values are the same front-end kind.
    fn apply_replay(&mut self, entry: &MemFrontend, exit: &MemFrontend) {
        match (self, entry, exit) {
            (MemFrontend::Plain(s), MemFrontend::Plain(e), MemFrontend::Plain(x)) => {
                s.apply_replay(e, x);
            }
            (
                MemFrontend::Prefetching(s),
                MemFrontend::Prefetching(e),
                MemFrontend::Prefetching(x),
            ) => s.apply_replay(e, x),
            _ => debug_assert!(false, "replay_state_eq rejects mixed front-end kinds"),
        }
    }
}

/// The identity of a force evaluation's reference stream: the memo only
/// applies to the exact same sequence (same atom count, same simulated
/// array bases).
#[derive(Clone, Copy, PartialEq, Eq)]
struct StreamKey {
    n: usize,
    pos_base: u64,
    acc_base: u64,
}

/// What replaying one stream from one cache state did.
struct Replay {
    key: StreamKey,
    exit: MemFrontend,
    demand: u64,
    loads: u64,
    stores: u64,
}

/// Memoized force-evaluation cache replays.
///
/// A force evaluation's memory-reference stream is fully determined by the
/// atom count and the array layout — positions' *values* never enter the
/// trace. The hierarchy is a deterministic automaton, so whenever it
/// re-enters a state replay-equivalent to a recorded entry state, replaying
/// the stream *must* cost the same demand cycles and land in a state
/// equivalent to the recorded exit. Such a replay collapses to an
/// O(cache-size) equality check plus a state install — without changing a
/// single reported number.
///
/// Two entries cover a run and every later run or segment on the same CPU:
///
/// - `cold`, the priming evaluation's replay. Every run starts from a reset
///   hierarchy, which [`MemFrontend::is_reset`] recognises, so the entry
///   state is not stored: the exit is installed whole.
/// - `warm`, the most recent replay from any other state, with that state.
///   The MD loop re-enters the same pre-evaluation state every step, so
///   this is the steady-state entry from the second evaluation on.
///
/// A segmented run therefore replays twice in its first segment and never
/// again, instead of twice per segment.
#[derive(Default)]
struct TraceMemo {
    cold: Option<Replay>,
    warm: Option<(MemFrontend, Replay)>,
    /// Full replays run, for the memo's own tests.
    #[cfg(test)]
    replays: usize,
}

impl TraceMemo {
    /// Skip the replay of `key`'s stream from `h`'s state if it is
    /// recorded: install its exit state and return its counts.
    fn skip(&self, key: StreamKey, h: &mut MemFrontend) -> Option<&Replay> {
        if h.is_reset() {
            let r = self.cold.as_ref().filter(|r| r.key == key)?;
            h.clone_from(&r.exit);
            Some(r)
        } else {
            let (entry, r) = self
                .warm
                .as_ref()
                .filter(|(entry, r)| r.key == key && h.replay_state_eq(entry))?;
            h.apply_replay(entry, &r.exit);
            Some(r)
        }
    }

    /// Cache states held: each entry's exit, plus the warm entry's state.
    #[cfg(test)]
    fn cache_states(&self) -> usize {
        usize::from(self.cold.is_some()) + 2 * usize::from(self.warm.is_some())
    }

    /// Record a replay; `entry` is `None` when it started from a reset
    /// hierarchy.
    fn record(&mut self, entry: Option<MemFrontend>, replay: Replay) {
        match entry {
            None => self.cold = Some(replay),
            Some(entry) => self.warm = Some((entry, replay)),
        }
    }
}

/// The simulated CPU. Holds the cache hierarchy so repeated calls can model
/// warm or cold caches as the caller chooses.
pub struct OpteronCpu {
    pub config: OpteronConfig,
    hierarchy: MemFrontend,
    /// Recorded force-evaluation replays, reused when the cache re-enters
    /// a recorded state ([`TraceMemo`]). Consulted only under the driver's
    /// shared-eval switch — results are identical either way, only the host
    /// wall-clock differs.
    trace_memo: TraceMemo,
    driver: StepDriver,
}

impl OpteronCpu {
    pub fn new(config: OpteronConfig) -> Self {
        let hierarchy = if config.prefetch {
            MemFrontend::Prefetching(memsim::PrefetchingHierarchy::new(config.memory))
        } else {
            MemFrontend::Plain(MemoryHierarchy::new(config.memory))
        };
        Self {
            hierarchy,
            config,
            trace_memo: TraceMemo::default(),
            driver: StepDriver::default(),
        }
    }

    pub fn paper_reference() -> Self {
        Self::new(OpteronConfig::paper_reference())
    }

    /// Reference check: the same workload run through the untimed kernel.
    ///
    /// The kernel is the binned [`HostRowsKernel`], bitwise equal to
    /// [`md_core::forces::AllPairsFullKernel`] at a fraction of its cost;
    /// the supervisor's energy-drift check calls this once per run.
    pub fn untimed_energies(sim: &SimConfig, steps: usize) -> EnergyReport {
        let mut sys: ParticleSystem<f64> = init::initialize(sim);
        let sub = sim.substrate::<f64>();
        let vv = VelocityVerlet::new(sim.dt);
        let mut kernel = HostRowsKernel;
        let mut pe = kernel.compute(&mut sys, &sub);
        for _ in 0..steps {
            pe = vv.step(&mut sys, &mut kernel, &sub);
        }
        EnergyReport::measure(&sys, pe)
    }
}

/// One run's cost accounting: the MD kernel (Figure 4) with its memory
/// traffic replayed through the cache model. Physics is double precision,
/// exactly as the paper's reference implementation.
pub struct OpteronStep<'a> {
    config: &'a OpteronConfig,
    hierarchy: &'a mut MemFrontend,
    memo: &'a mut TraceMemo,
    /// The logical arrays' layout in the simulated address space.
    pos_r: ArrayRegion,
    vel_r: ArrayRegion,
    acc_r: ArrayRegion,
    n: usize,
    /// Ensemble work (thermostat rescale) per step: O(N) on top of the
    /// integration loop, zero under NVE so the paper runs are untouched.
    ens_flops: f64,
    /// Demand cycles charged (the prefetching frontend's inner hierarchy
    /// also counts background fills, so demand cycles are tracked here).
    demand_cycles: f64,
    /// Demand reference counts by direction, for the perf-counter layer.
    /// Pure event counts: they never feed back into the cycle accounting.
    loads: u64,
    stores: u64,
    flops: f64,
    loop_iters: f64,
    /// Extra memory cycles charged by injected ECC reloads.
    fault_extra_cycles: f64,
    handles: PerfHandles,
}

impl OpteronStep<'_> {
    #[inline]
    fn mem_access(&mut self, addr: u64, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.loads += 1,
            AccessKind::Write => self.stores += 1,
        }
        self.demand_cycles += self.hierarchy.access(addr, kind) as f64;
    }

    fn flop_cycles(&self) -> f64 {
        self.flops * self.config.cycles_per_flop
            + self.loop_iters * self.config.loop_overhead_cycles
    }

    /// Demand-path memory cycles only: with the prefetcher on, background
    /// fills also pass through the hierarchy but cost the program nothing.
    fn memory_cycles(&self) -> f64 {
        self.demand_cycles + self.fault_extra_cycles
    }
}

impl CostModel for OpteronCpu {
    type Real = f64;
    type Run<'a> = OpteronStep<'a>;

    fn label(&self) -> String {
        "opteron".to_string()
    }

    /// One flop per `cycles_per_flop` cycles: the scalar FPU pipeline.
    fn peak_ops_per_second(&self) -> f64 {
        self.config.clock_hz / self.config.cycles_per_flop
    }

    fn driver(&mut self) -> &mut StepDriver {
        &mut self.driver
    }

    fn start<'a>(
        &'a mut self,
        sim: &SimConfig,
        sys: &ParticleSystem<f64>,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Result<OpteronStep<'a>, DeviceError> {
        self.hierarchy.reset();
        let n = sys.n();
        let elem = size_of::<Vec3<f64>>(); // 24 bytes
        let mut space = AddressSpace::new();
        Ok(OpteronStep {
            config: &self.config,
            hierarchy: &mut self.hierarchy,
            memo: &mut self.trace_memo,
            pos_r: space.alloc_array(n, elem),
            vel_r: space.alloc_array(n, elem),
            acc_r: space.alloc_array(n, elem),
            n,
            ens_flops: n as f64 * sim.substrate::<f64>().extra_step_ops_per_atom(),
            demand_cycles: 0.0,
            loads: 0,
            stores: 0,
            flops: 0.0,
            loop_iters: 0.0,
            fault_extra_cycles: 0.0,
            handles: PerfHandles::register(perf),
        })
    }
}

impl StepCost for OpteronStep<'_> {
    type Real = f64;

    /// Steps 1, 3, 4 of Figure 4: O(N) integration. One pass reads
    /// acc + vel + pos and writes vel + pos.
    fn charge_drift(&mut self) {
        for i in 0..self.n {
            self.mem_access(self.acc_r.addr(i), AccessKind::Read);
            self.mem_access(self.vel_r.addr(i), AccessKind::Write);
            self.mem_access(self.pos_r.addr(i), AccessKind::Write);
        }
        self.flops += FLOPS_INTEGRATE * self.n as f64;
    }

    /// The step-2 gather loop with interleaved cache accesses. Numerics are
    /// identical to [`md_core::forces::AllPairsFullKernel`].
    ///
    /// The evaluation is split into heterogeneous lanes run through
    /// [`map_lanes`]: one lane replays the run's exact memory-reference
    /// sequence through the cache hierarchy (inherently serial — every access
    /// mutates cache state), and the remaining lanes compute the per-atom
    /// physics rows via the shared tiled [`gather_row`]. The cache replay
    /// never reads the physics and the physics never reads the cache, so the
    /// two halves overlap on host threads while the serial fold below keeps
    /// every accumulator in the same order as a serial run — demand cycles,
    /// reference counts, flops, PE, and accelerations are bitwise identical
    /// at any thread count.
    fn evaluate(&mut self, e: Eval<'_, f64>) -> Result<f64, DeviceError> {
        let n = self.n;
        let l = e.box_len;
        let inv_m = e.mass.recip();
        let sub = e.sub;
        let soa = SoaPositions::from_positions(e.positions);
        let (pos_r, acc_r) = (&self.pos_r, &self.acc_r);

        enum Lane<'a> {
            Trace {
                h: &'a mut MemFrontend,
                memo: &'a mut TraceMemo,
            },
            Rows {
                lo: usize,
                hi: usize,
            },
        }
        enum LaneOut {
            Trace {
                demand: u64,
                loads: u64,
                stores: u64,
            },
            Rows(Vec<GatherRow<f64>>),
        }

        // Lane 0 owns the cache replay; the row range is split over the
        // remaining workers. The split never changes any value — rows are
        // pure per-atom functions folded in ascending-atom order below — so
        // the lane count only shapes the wall-clock overlap.
        let row_lanes = e.par.threads().saturating_sub(1).max(1);
        let chunk = n.div_ceil(row_lanes).max(1);
        // Under the shared-eval switch the rows go through the shared binned
        // evaluator (bitwise identical to [`gather_row`] per the shared-eval
        // contract) and the cache replay is memoized. The simulated kernel
        // still tests all n² pairs: its costs come from `n` and the
        // interaction count alone.
        let shared = e.shared_eval;
        let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(row_lanes + 1);
        lanes.push(Lane::Trace {
            h: &mut *self.hierarchy,
            memo: &mut *self.memo,
        });
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            lanes.push(Lane::Rows { lo, hi });
            lo = hi;
        }

        let outs = map_lanes(e.par, &mut lanes, |_, lane| match lane {
            Lane::Trace { h, memo } => {
                let h: &mut MemFrontend = h;
                let memo: &mut TraceMemo = memo;
                let key = StreamKey {
                    n,
                    pos_base: pos_r.addr(0),
                    acc_base: acc_r.addr(0),
                };
                // Same stream, recorded entry state: reuse the replay (see
                // [`TraceMemo`] for why this cannot change any number).
                if shared {
                    if let Some(r) = memo.skip(key, h) {
                        return LaneOut::Trace {
                            demand: r.demand,
                            loads: r.loads,
                            stores: r.stores,
                        };
                    }
                }
                let entry = (shared && !h.is_reset()).then(|| h.clone());
                // The exact reference stream of the scalar kernel: read
                // pos[i], read every other pos[j] in the inner loop (two
                // strided sweeps around the skipped self-pair), write
                // acc[i]. Every per-access cost is an integer number of
                // cycles and the total stays far below 2^53, so summing in
                // u64 and converting once equals the per-access f64 sum.
                let pos_base = key.pos_base;
                let stride = pos_r.elem_bytes();
                let mut demand = 0u64;
                for i in 0..n as u64 {
                    demand += h.access(pos_base + i * stride, AccessKind::Read);
                    demand += h.access_strided(pos_base, stride, i, AccessKind::Read);
                    demand += h.access_strided(
                        pos_base + (i + 1) * stride,
                        stride,
                        n as u64 - i - 1,
                        AccessKind::Read,
                    );
                    demand += h.access(acc_r.addr(i as usize), AccessKind::Write);
                }
                let (loads, stores) = ((n * n) as u64, n as u64);
                #[cfg(test)]
                {
                    memo.replays += 1;
                }
                if shared {
                    memo.record(
                        entry,
                        Replay {
                            key,
                            exit: h.clone(),
                            demand,
                            loads,
                            stores,
                        },
                    );
                }
                LaneOut::Trace {
                    demand,
                    loads,
                    stores,
                }
            }
            Lane::Rows { lo, hi } => LaneOut::Rows(if shared {
                host_rows(&soa, *lo..*hi, l, sub, inv_m)
            } else {
                (*lo..*hi)
                    .map(|i| gather_row(&soa, i, l, sub, inv_m))
                    .collect()
            }),
        });
        drop(lanes);

        // Serial fold in lane order (trace first, then rows ascending).
        let mut pe_twice = 0.0f64;
        let mut interactions = 0u64;
        let mut row_cursor = 0usize;
        for out in outs {
            match out {
                LaneOut::Trace {
                    demand,
                    loads,
                    stores,
                } => {
                    // Per-access cycle counts are integers, so this one f64
                    // add reproduces the per-access accumulation exactly.
                    self.demand_cycles += demand as f64;
                    self.loads += loads;
                    self.stores += stores;
                }
                LaneOut::Rows(rows) => {
                    for row in rows {
                        e.accelerations[row_cursor] = row.acc;
                        pe_twice += row.pe;
                        interactions += row.interactions;
                        row_cursor += 1;
                    }
                }
            }
        }

        let dist_evals = (n as f64) * (n as f64 - 1.0);
        // Per-interaction flops: the LJ baseline plus whatever extra work the
        // scenario's potential costs (zero for the paper-faithful LJ run).
        self.flops += dist_evals * FLOPS_DISTANCE
            + interactions as f64 * (FLOPS_INTERACT + sub.extra_eval_ops());
        self.loop_iters += dist_evals;

        // An ECC-corrected memory error forces a scrubbed cache line to be
        // refetched from DRAM; the reload costs one DRAM round trip and
        // touches nothing but the timeline.
        self.fault_extra_cycles += e.faults.degradable(
            FaultSite::new(FaultKind::EccReload, e.index, 0, 0),
            self.config.memory.dram_cycles as f64,
            self.config.clock_hz,
        );
        Ok(pe_twice * 0.5)
    }

    /// Second half-kick + step 5 energy reduction, then the ensemble work.
    fn charge_kick(&mut self) {
        for i in 0..self.n {
            self.mem_access(self.acc_r.addr(i), AccessKind::Read);
            self.mem_access(self.vel_r.addr(i), AccessKind::Write);
        }
        self.flops += 6.0 * self.n as f64;
        self.flops += self.ens_flops;
    }

    fn sample(&mut self, p: &mut sim_perf::PerfMonitor) -> f64 {
        let h = self.handles;
        let stats = self.hierarchy.stats();
        p.record_total(h.loads, self.loads as f64);
        p.record_total(h.stores, self.stores as f64);
        p.record_total(h.l1_hits, stats.l1.hits as f64);
        p.record_total(h.l1_misses, stats.l1.misses as f64);
        p.record_total(h.l2_hits, stats.l2.hits as f64);
        p.record_total(h.l2_misses, stats.l2.misses as f64);
        p.record_total(h.mem_stall_cycles, self.memory_cycles());
        p.record_total(h.flops, self.flops);
        (self.flop_cycles() + self.demand_cycles + self.fault_extra_cycles) / self.config.clock_hz
    }

    fn finish(&mut self, _perf: &sim_perf::PerfMonitor) -> CostReport {
        let clk = self.config.clock_hz;
        let (flop_cycles, memory_cycles) = (self.flop_cycles(), self.memory_cycles());
        let sim_seconds = (flop_cycles + memory_cycles) / clk;
        let memory = self.hierarchy.stats();
        let stall_fraction = if sim_seconds > 0.0 {
            (memory_cycles / clk) / sim_seconds
        } else {
            0.0
        };
        CostReport {
            sim_seconds,
            attribution: vec![
                ("compute", flop_cycles / clk),
                ("memory_stall", memory_cycles / clk),
            ],
            derived: vec![
                ("memory_stall_fraction", stall_fraction),
                ("l1_miss_rate", memory.l1.miss_rate()),
                ("l2_miss_rate", memory.l2.miss_rate()),
            ],
            ops: self.flops,
            bytes_moved: (self.loads + self.stores) as f64 * 8.0,
        }
    }
}

/// Registered handles for the Opteron's counter set (memsim per-level cache
/// hits/misses, loads/stores, stall cycles, flops).
#[derive(Clone, Copy)]
struct PerfHandles {
    loads: sim_perf::CounterHandle,
    stores: sim_perf::CounterHandle,
    l1_hits: sim_perf::CounterHandle,
    l1_misses: sim_perf::CounterHandle,
    l2_hits: sim_perf::CounterHandle,
    l2_misses: sim_perf::CounterHandle,
    mem_stall_cycles: sim_perf::CounterHandle,
    flops: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(p: &mut sim_perf::PerfMonitor) -> Self {
        Self {
            loads: p.register("opteron.mem.loads", "refs"),
            stores: p.register("opteron.mem.stores", "refs"),
            l1_hits: p.register("opteron.l1.hits", "refs"),
            l1_misses: p.register("opteron.l1.misses", "refs"),
            l2_hits: p.register("opteron.l2.hits", "refs"),
            l2_misses: p.register("opteron.l2.misses", "refs"),
            mem_stall_cycles: p.register("opteron.mem.stall_cycles", "cycles"),
            flops: p.register("opteron.flops", "flops"),
        }
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use md_core::checkpoint::SystemCheckpoint;
    use md_core::device::{DeviceRun, MdDevice, RunOptions};
    use md_core::driver::CostModel;
    use sim_perf::PerfMonitor;

    /// A run through the driver, with its counters.
    struct Traced {
        run: DeviceRun,
        perf: PerfMonitor,
    }

    impl Traced {
        fn seconds(&self, phase: &str) -> f64 {
            let (_, s) = self
                .run
                .attribution
                .iter()
                .find(|(k, _)| *k == phase)
                .unwrap();
            *s
        }

        fn flop_cycles(&self) -> f64 {
            self.seconds("compute") * 2.2e9
        }

        fn memory_cycles(&self) -> f64 {
            self.perf.find("opteron.mem.stall_cycles").unwrap().value()
        }

        fn counter(&self, name: &str) -> f64 {
            self.perf.find(name).unwrap().value()
        }

        fn derived(&self, name: &str) -> f64 {
            let (_, v) = self.run.derived.iter().find(|(k, _)| *k == name).unwrap();
            *v
        }
    }

    fn run_md_from(
        cpu: &mut OpteronCpu,
        sim: &SimConfig,
        start: Option<&SystemCheckpoint>,
        steps: usize,
    ) -> Traced {
        let mut perf = PerfMonitor::new();
        let mut opts = RunOptions::steps(steps).with_perf(&mut perf);
        opts.start = start;
        let run = cpu.run(sim, opts).unwrap();
        Traced { run, perf }
    }

    fn run_md(cpu: &mut OpteronCpu, sim: &SimConfig, steps: usize) -> Traced {
        run_md_from(cpu, sim, None, steps)
    }

    fn energy_bits(e: &EnergyReport) -> [u64; 4] {
        [e.total, e.potential, e.kinetic, e.temperature].map(f64::to_bits)
    }

    #[test]
    fn physics_matches_untimed_kernel() {
        // 864 atoms: a box of 4 bins per edge, so the reference bins.
        let cfg = SimConfig::reduced_lj(864);
        let mut cpu = OpteronCpu::paper_reference();
        let run = run_md(&mut cpu, &cfg, 5).run;
        let reference = OpteronCpu::untimed_energies(&cfg, 5);
        assert_eq!(
            energy_bits(&run.energies),
            energy_bits(&reference),
            "traced replay diverged: {:?} vs {reference:?}",
            run.energies
        );
    }

    /// `untimed_energies` as it was before the binned kernel: the same
    /// trajectory through the all-pairs gather.
    fn all_pairs_energies(sim: &SimConfig, steps: usize) -> EnergyReport {
        let mut sys: ParticleSystem<f64> = init::initialize(sim);
        let sub = sim.substrate::<f64>();
        let vv = VelocityVerlet::new(sim.dt);
        let mut kernel = md_core::forces::AllPairsFullKernel;
        let mut pe = kernel.compute(&mut sys, &sub);
        for _ in 0..steps {
            pe = vv.step(&mut sys, &mut kernel, &sub);
        }
        EnergyReport::measure(&sys, pe)
    }

    #[test]
    fn untimed_energies_bitwise_match_the_all_pairs_kernel() {
        use md_core::scenario::{PrecisionPolicy, ScenarioSpec};
        // 108 atoms is too small a box to bin (the per-row path); 864 and
        // 2048 bin.
        for n in [108, 864, 2048] {
            for spec in [
                ScenarioSpec::default(),
                ScenarioSpec::morse_nvt(),
                ScenarioSpec::coulomb_cutoff(),
            ] {
                for precision in [
                    PrecisionPolicy::Native,
                    PrecisionPolicy::MixedF64Accumulate,
                    PrecisionPolicy::ForceF32,
                ] {
                    let sim =
                        SimConfig::reduced_lj(n).with_scenario(spec.with_precision(precision));
                    assert_eq!(
                        energy_bits(&OpteronCpu::untimed_energies(&sim, 3)),
                        energy_bits(&all_pairs_energies(&sim, 3)),
                        "{n} atoms @ {}",
                        sim.scenario_token()
                    );
                }
            }
        }
    }

    #[test]
    fn runtime_positive_and_deterministic() {
        let cfg = SimConfig::reduced_lj(256);
        let a = run_md(&mut OpteronCpu::paper_reference(), &cfg, 2);
        let b = run_md(&mut OpteronCpu::paper_reference(), &cfg, 2);
        assert!(a.run.sim_seconds > 0.0);
        assert_eq!(
            a.run.sim_seconds, b.run.sim_seconds,
            "simulation is deterministic"
        );
        assert_eq!(
            a.counter("opteron.mem.loads"),
            b.counter("opteron.mem.loads")
        );
    }

    #[test]
    fn runtime_grows_faster_than_flop_count_past_cache() {
        // The Figure 9 mechanism: once the position array outgrows L1
        // (24·N bytes > 64 KB, i.e. N ≳ 2700), total runtime grows faster
        // than the floating-point work — the gap a cache-less machine like
        // the MTA-2 does not show.
        let run = |n: usize| {
            run_md(
                &mut OpteronCpu::paper_reference(),
                &SimConfig::reduced_lj(n),
                1,
            )
        };
        let small = run(256);
        let large = run(4096);
        let total_ratio = large.run.sim_seconds / small.run.sim_seconds;
        let flop_ratio = large.flop_cycles() / small.flop_cycles();
        assert!(
            total_ratio > flop_ratio * 1.15,
            "expected cache-driven excess growth: total x{total_ratio:.1} vs flops x{flop_ratio:.1}"
        );
    }

    #[test]
    fn l1_miss_rate_rises_with_problem_size() {
        let miss_rate = |n: usize| {
            run_md(
                &mut OpteronCpu::paper_reference(),
                &SimConfig::reduced_lj(n),
                1,
            )
            .derived("l1_miss_rate")
        };
        let small = miss_rate(256);
        let large = miss_rate(4096);
        assert!(
            large > small * 2.0,
            "L1 miss rate should grow: {small:.4} -> {large:.4}"
        );
    }

    #[test]
    fn prefetcher_recovers_most_of_the_cache_penalty() {
        // At 4096 atoms the position array spills L1; the stream prefetcher
        // should claw back a large share of the extra memory cycles on this
        // kernel's sequential inner loop (see module docs for why this is an
        // interesting caveat to the paper's cache argument).
        let cfg = SimConfig::reduced_lj(4096);
        let plain = run_md(&mut OpteronCpu::paper_reference(), &cfg, 1);
        let pf = run_md(
            &mut OpteronCpu::new(OpteronConfig::with_prefetcher()),
            &cfg,
            1,
        );
        assert_eq!(
            plain.run.energies.total, pf.run.energies.total,
            "same physics"
        );
        assert!(
            pf.memory_cycles() < 0.7 * plain.memory_cycles(),
            "prefetch demand cycles {:.3e} vs plain {:.3e}",
            pf.memory_cycles(),
            plain.memory_cycles()
        );
        assert_eq!(
            plain.counter("opteron.flops"),
            pf.counter("opteron.flops"),
            "compute unchanged"
        );
    }

    #[test]
    fn sse2_ablation_faster_but_same_physics() {
        let cfg = SimConfig::reduced_lj(256);
        let scalar = run_md(&mut OpteronCpu::paper_reference(), &cfg, 2).run;
        let sse2 = run_md(
            &mut OpteronCpu::new(OpteronConfig::sse2_vectorized()),
            &cfg,
            2,
        )
        .run;
        assert_eq!(scalar.energies.total, sse2.energies.total);
        let speedup = scalar.sim_seconds / sse2.sim_seconds;
        assert!(
            (1.2..2.2).contains(&speedup),
            "SSE2 should be a moderate win (memory system unchanged): {speedup:.2}x"
        );
    }

    #[test]
    fn cycles_decompose() {
        let run = run_md(
            &mut OpteronCpu::paper_reference(),
            &SimConfig::reduced_lj(108),
            2,
        );
        let total = run.run.sim_seconds * 2.2e9;
        assert!((total - (run.flop_cycles() + run.memory_cycles())).abs() < 1.0);
        assert!(run.run.ops > 0.0);
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let cfg = SimConfig::reduced_lj(108);
        let plain = OpteronCpu::paper_reference()
            .run(&cfg, RunOptions::steps(3))
            .unwrap();
        let counted = run_md(&mut OpteronCpu::paper_reference(), &cfg, 3);
        assert_eq!(
            plain.sim_seconds, counted.run.sim_seconds,
            "observability is free"
        );
        assert_eq!(plain.energies.total, counted.run.energies.total);
        assert_eq!(plain.bytes_moved, counted.run.bytes_moved);
        let loads = counted.perf.find("opteron.mem.loads").expect("registered");
        assert_eq!(loads.samples().len(), 4, "prime eval + one per step");
        assert!(counted.counter("opteron.l1.hits") > 0.0);
        assert_eq!(
            counted.memory_cycles(),
            counted.seconds("memory_stall") * 2.2e9,
            "stall counter mirrors run"
        );
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        let cfg = SimConfig::reduced_lj(108);
        let whole = run_md(&mut OpteronCpu::paper_reference(), &cfg, 10).run;

        let mut cpu = OpteronCpu::paper_reference();
        let first = run_md(&mut cpu, &cfg, 5).run;
        let second = run_md_from(&mut cpu, &cfg, Some(&first.checkpoint), 5).run;

        assert_eq!(second.checkpoint, whole.checkpoint);
    }

    #[test]
    fn shared_eval_switch_is_bitwise_invisible() {
        let cfg = SimConfig::reduced_lj(256);
        let shared = run_md(&mut OpteronCpu::paper_reference(), &cfg, 3).run;
        let mut baseline = OpteronCpu::paper_reference();
        baseline.driver().shared_eval = false;
        let interpretive = run_md(&mut baseline, &cfg, 3).run;
        assert_eq!(shared.checkpoint, interpretive.checkpoint);
        assert_eq!(shared.sim_seconds, interpretive.sim_seconds);
    }

    /// Every counter's final value, bitwise.
    fn counter_bits(t: &Traced) -> Vec<(String, u64)> {
        t.perf
            .counters()
            .iter()
            .map(|c| (c.name.clone(), c.value().to_bits()))
            .collect()
    }

    fn assert_runs_bitwise(a: &Traced, b: &Traced, ctx: &str) {
        assert_eq!(
            a.run.sim_seconds.to_bits(),
            b.run.sim_seconds.to_bits(),
            "{ctx}: sim seconds"
        );
        assert_eq!(a.run.checkpoint, b.run.checkpoint, "{ctx}: trajectory");
        assert_eq!(a.run.derived, b.run.derived, "{ctx}: derived metrics");
        assert_eq!(counter_bits(a), counter_bits(b), "{ctx}: counters");
    }

    /// `config` with the shared-eval switch (and so the trace memo) off.
    fn baseline(config: OpteronConfig) -> OpteronCpu {
        let mut cpu = OpteronCpu::new(config);
        cpu.driver().shared_eval = false;
        cpu
    }

    #[test]
    fn segments_on_one_cpu_replay_the_trace_twice() {
        let cfg = SimConfig::reduced_lj(256);
        for config in [
            OpteronConfig::paper_reference(),
            OpteronConfig::with_prefetcher(),
        ] {
            let mut cpu = OpteronCpu::new(config);
            let mut reference = baseline(config);
            let mut cp: Option<SystemCheckpoint> = None;
            for segment in 0..5 {
                let memo = run_md_from(&mut cpu, &cfg, cp.as_ref(), 2);
                let plain = run_md_from(&mut reference, &cfg, cp.as_ref(), 2);
                assert_runs_bitwise(&memo, &plain, &format!("segment {segment}"));
                cp = Some(memo.run.checkpoint);
            }
            // Five segments of three evaluations each: the first segment's
            // cold and steady replays serve all fifteen.
            assert_eq!(cpu.trace_memo.replays, 2, "prefetch: {}", config.prefetch);
            assert_eq!(reference.trace_memo.replays, 15);
        }
    }

    #[test]
    fn alternating_sizes_stay_exact_within_the_memo_bound() {
        let mut cpu = OpteronCpu::paper_reference();
        for (k, n) in [256, 512, 256].into_iter().enumerate() {
            let cfg = SimConfig::reduced_lj(n);
            let memo = run_md(&mut cpu, &cfg, 2);
            let plain = run_md(&mut baseline(OpteronConfig::paper_reference()), &cfg, 2);
            assert_runs_bitwise(&memo, &plain, &format!("run {k}: {n} atoms"));
            // A new stream replaces both entries: two replays per run.
            assert_eq!(cpu.trace_memo.replays, 2 * (k + 1), "run {k}");
            // At most the cold exit plus the warm entry and exit.
            assert!(cpu.trace_memo.cache_states() <= 3, "run {k}");
        }
    }

    mod faulted {
        use super::*;

        fn faulty(seed: u64, rate: f64) -> OpteronCpu {
            OpteronCpu::paper_reference()
                .with_fault_plan(md_core::device::FaultPlan::new(seed, rate))
        }

        #[test]
        fn injected_faults_leave_physics_untouched_and_slow_the_run() {
            let cfg = SimConfig::reduced_lj(108);
            let clean = run_md(&mut OpteronCpu::paper_reference(), &cfg, 6).run;
            let faulty = run_md(&mut faulty(7, 0.4), &cfg, 6).run;

            assert_eq!(clean.energies.total, faulty.energies.total);
            assert_eq!(clean.energies.kinetic, faulty.energies.kinetic);
            assert_eq!(clean.ops, faulty.ops);
            assert!(faulty.faults.any(), "rate 0.4 over 7 evals should fire");
            assert!(faulty.sim_seconds > clean.sim_seconds);
            // Serial timeline: the slowdown is exactly the charged recovery.
            let slowdown = faulty.sim_seconds - clean.sim_seconds;
            assert!(
                (slowdown - faulty.faults.extra_seconds).abs()
                    <= 1e-9 * faulty.faults.extra_seconds,
                "slowdown {slowdown:.3e} vs charged {:.3e}",
                faulty.faults.extra_seconds
            );
        }

        #[test]
        fn exhaustion_degrades_instead_of_failing() {
            let cfg = SimConfig::reduced_lj(108);
            let run = run_md(&mut faulty(3, 1.0), &cfg, 3).run;
            assert!(run.faults.exhausted > 0, "rate 1.0 must exhaust retries");
            assert!(run.energies.total.is_finite());
            assert!(run.sim_seconds > 0.0);
        }

        #[test]
        fn fault_schedule_is_reproducible_across_runs() {
            let cfg = SimConfig::reduced_lj(108);
            let a = run_md(&mut faulty(42, 0.3), &cfg, 5).run;
            let b = run_md(&mut faulty(42, 0.3), &cfg, 5).run;
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.sim_seconds, b.sim_seconds);
        }
    }
}
