//! The MD kernel on the MTA-2 (paper section 5.3).
//!
//! Double precision (unlike the Cell/GPU ports), with the five-step structure
//! of Figure 4 mapped onto parallel loops. Two build modes reproduce
//! Figure 8:
//!
//! - **Fully multithreaded**: the step-2 reduction is restructured (moved
//!   inside the loop body, accumulated through full/empty-bit atomic adds)
//!   and the loop carries `#pragma mta assert no dependence` — every loop
//!   parallelizes across the 128 hardware streams.
//! - **Partially multithreaded**: the original code; the compiler detects the
//!   PE-reduction dependence in step 2 and serializes that loop onto a single
//!   stream, while the O(N) loops still parallelize. Since step 2 is O(N²),
//!   the performance gap grows with atom count — exactly Figure 8.

use crate::compiler::LoopDesc;
use crate::config::MtaConfig;
use crate::memory::FullEmptyMemory;
use crate::processor::MtaProcessor;
use md_core::device::DeviceError;
use md_core::driver::{CostModel, CostReport, Eval, FaultKind, FaultSite, StepCost, StepDriver};
use md_core::params::SimConfig;
use md_core::system::ParticleSystem;

/// Instructions per examined pair in step 2 (loads, minimum image, distance,
/// cutoff compare, loop bookkeeping — all single-issue on the MTA).
const INSTR_PER_PAIR: f64 = 24.0;
/// Extra instructions for an interacting pair (LJ evaluation + accumulate).
const INSTR_PER_INTERACTION: f64 = 20.0;
/// Instructions per atom in each O(N) integration loop.
const INSTR_INTEGRATE: f64 = 15.0;
/// Instructions per atom in the energy loop (step 5).
const INSTR_ENERGY: f64 = 8.0;

/// Whether the step-2 loop got the paper's restructuring + pragma.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadingMode {
    /// Reduction moved into the loop body + `assert no dependence`.
    FullyMultithreaded,
    /// Original code: compiler serializes step 2.
    PartiallyMultithreaded,
}

/// Where the run's cycles went, summed over every loop the kernel charged
/// (see [`crate::processor::MtaProcessor::loop_cycle_parts`]). Injected-fault
/// recovery cycles are folded into `stall`, so `startup + issue + stall`
/// is the run's cycle count to within float rounding.
#[derive(Clone, Copy, Debug, Default)]
pub struct MtaCycleBreakdown {
    /// Parallel-loop spin-up cycles.
    pub startup: f64,
    /// Ideal instruction-issue cycles (saturated floor).
    pub issue: f64,
    /// Phantom/no-op issue slots: under-saturation, serialization, and
    /// injected-fault recovery.
    pub stall: f64,
}

impl MtaCycleBreakdown {
    pub fn total(&self) -> f64 {
        self.startup + self.issue + self.stall
    }
}

/// MD on the simulated MTA in one [`ThreadingMode`], so the two Figure 8
/// configurations appear as distinct devices. Physics is mode-independent
/// (the modes differ only in how loops are scheduled); runtimes differ
/// enormously.
pub struct MtaMd {
    pub processor: MtaProcessor,
    pub mode: ThreadingMode,
    driver: StepDriver,
}

impl MtaMd {
    pub fn new(config: MtaConfig, mode: ThreadingMode) -> Self {
        Self {
            processor: MtaProcessor::new(config),
            mode,
            driver: StepDriver::default(),
        }
    }

    /// The paper's 40-processor MTA-2 in the given threading mode.
    pub fn paper_mta2(mode: ThreadingMode) -> Self {
        Self::new(MtaConfig::paper_mta2(), mode)
    }
}

/// One O(N) loop of the integration steps.
fn per_atom_loop(name: &'static str, n: usize, instructions_per_iteration: f64) -> LoopDesc {
    LoopDesc {
        name,
        iterations: n as u64,
        instructions_per_iteration,
        memory_fraction: 0.3,
        has_unresolved_reduction: false,
        pragma_no_dependence: false,
    }
}

/// The step-2 force loop: the PE reduction the compiler cannot resolve,
/// parallelized only under the paper's `assert no dependence` pragma.
fn force_loop(n: usize, instructions_per_iteration: f64, mode: ThreadingMode) -> LoopDesc {
    LoopDesc {
        name: "step2-forces",
        iterations: n as u64,
        instructions_per_iteration,
        // loads dominate the gather loop
        memory_fraction: 0.4,
        has_unresolved_reduction: true,
        pragma_no_dependence: mode == ThreadingMode::FullyMultithreaded,
    }
}

/// One run's cost accounting: the five-step kernel as parallel loops.
pub struct MtaStep<'a> {
    processor: &'a MtaProcessor,
    mode: ThreadingMode,
    n: usize,
    /// Per-atom instructions of the ensemble's thermostat (0 under NVE).
    ens_ops: f64,
    cycles: f64,
    instructions: f64,
    breakdown: MtaCycleBreakdown,
    /// Stream-occupancy integral: streams × cycles summed over loops.
    /// Monotonic by construction; average occupancy falls out as
    /// occupancy_cycles / cycles.
    occupancy_cycles: f64,
    hotspot_retry_cycles: f64,
    /// Shared PE accumulator in tagged memory (the restructured reduction
    /// uses full/empty atomic adds from every stream).
    tagged: FullEmptyMemory,
    handles: PerfHandles,
}

impl MtaStep<'_> {
    /// Charge one loop: total cycles (bitwise the same value `loop_cycles`
    /// returns — the breakdown is derived, not a reprice), instruction
    /// count, the cycle decomposition, and the occupancy integral. Returns
    /// the loop's cycles for fault-unit sizing.
    fn charge(&mut self, l: &LoopDesc) -> f64 {
        let parts = self.processor.loop_cycle_parts(l);
        self.cycles += parts.cycles;
        self.instructions += l.total_instructions();
        self.breakdown.startup += parts.startup;
        self.breakdown.issue += parts.issue;
        self.breakdown.stall += parts.stall;
        self.occupancy_cycles += parts.streams as f64 * parts.cycles;
        parts.cycles
    }
}

impl CostModel for MtaMd {
    type Real = f64;
    type Run<'a> = MtaStep<'a>;

    fn label(&self) -> String {
        match self.mode {
            ThreadingMode::FullyMultithreaded => "mta2-full-mt".to_string(),
            ThreadingMode::PartiallyMultithreaded => "mta2-partial-mt".to_string(),
        }
    }

    /// One instruction per processor per cycle, fully saturated.
    fn peak_ops_per_second(&self) -> f64 {
        let c = &self.processor.config;
        c.clock_hz * c.n_processors as f64
    }

    fn driver(&mut self) -> &mut StepDriver {
        &mut self.driver
    }

    fn start<'a>(
        &'a mut self,
        sim: &SimConfig,
        sys: &ParticleSystem<f64>,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Result<MtaStep<'a>, DeviceError> {
        Ok(MtaStep {
            processor: &self.processor,
            mode: self.mode,
            n: sys.n(),
            ens_ops: sim.substrate::<f64>().extra_step_ops_per_atom(),
            cycles: 0.0,
            instructions: 0.0,
            breakdown: MtaCycleBreakdown::default(),
            occupancy_cycles: 0.0,
            hotspot_retry_cycles: 0.0,
            tagged: FullEmptyMemory::new_full(1, 0.0),
            handles: PerfHandles::register(perf),
        })
    }
}

impl StepCost for MtaStep<'_> {
    type Real = f64;

    fn charge_drift(&mut self) {
        self.charge(&per_atom_loop(
            "step1-advance-velocities",
            self.n,
            INSTR_INTEGRATE,
        ));
    }

    /// Step 2: forces. Each simulated stream owns one atom's gather row;
    /// rows run as an order-preserving indexed map (host-parallel when
    /// requested), then the reductions — the full/empty PE accumulator and
    /// the interaction count — fold serially in row order, so the result is
    /// bitwise identical at any thread count.
    fn evaluate(&mut self, e: Eval<'_, f64>) -> Result<f64, DeviceError> {
        let n = self.n;
        self.tagged.write(0, 0.0);
        let mut interactions: u64 = 0;
        let inv_m = e.mass.recip();
        let soa = md_core::forces::SoaPositions::from_positions(e.positions);
        // Physics-once split (DESIGN.md §17): under the shared-eval switch
        // the streams' rows run the shared binned kernel, one contiguous
        // chunk per host thread — bitwise the scalar rows, so the
        // closed-form loop charge below replays unchanged.
        let rows: Vec<_> = if e.shared_eval {
            let chunk = n.div_ceil(e.par.threads()).max(1);
            md_core::parallel::map_indexed(e.par, n.div_ceil(chunk), |c| {
                let rows = c * chunk..((c + 1) * chunk).min(n);
                md_core::shared_eval::host_rows(&soa, rows, e.box_len, e.sub, inv_m)
            })
            .into_iter()
            .flatten()
            .collect()
        } else {
            md_core::parallel::map_indexed(e.par, n, |i| {
                md_core::forces::gather_row(&soa, i, e.box_len, e.sub, inv_m)
            })
        };
        for (acc, row) in e.accelerations.iter_mut().zip(rows) {
            interactions += row.interactions;
            *acc = row.acc;
            // Reduction inside the loop body: full/empty atomic add.
            self.tagged
                .atomic_add(0, row.pe)
                .map_err(|err| DeviceError::Failed(err.to_string()))?;
        }
        let pe = self.tagged.read(0) * 0.5;

        // Interaction cost: the LJ baseline plus whatever extra work the
        // scenario's potential costs (zero for the paper-faithful run).
        let cfg = &self.processor.config;
        let per_iter = (n as f64 - 1.0) * INSTR_PER_PAIR
            + (interactions as f64 / n as f64) * (INSTR_PER_INTERACTION + e.sub.extra_eval_ops())
            + cfg.sync_instructions;
        let step2_cycles = self.charge(&force_loop(n, per_iter, self.mode));

        // The runtime hands the loop fewer streams than requested: the
        // starved share of the iteration space is re-issued, paying the loop
        // startup again plus a quarter of the loop.
        let cfg = &self.processor.config;
        let starvation_extra = e.faults.degradable(
            FaultSite::new(FaultKind::StreamStarvation, e.index, 0, 0),
            cfg.loop_startup_cycles + 0.25 * step2_cycles,
            cfg.clock_hz,
        );
        self.cycles += starvation_extra;
        self.breakdown.stall += starvation_extra;
        // Hot-spotting on the full/empty PE accumulator: every stream
        // retries its synchronized add once.
        let hotspot_extra = e.faults.degradable(
            FaultSite::new(FaultKind::HotSpotRetry, e.index, 0, 1),
            cfg.sync_instructions * cfg.stream_issue_interval * cfg.streams_per_processor as f64,
            cfg.clock_hz,
        );
        self.cycles += hotspot_extra;
        self.breakdown.stall += hotspot_extra;
        self.hotspot_retry_cycles += hotspot_extra;
        Ok(pe)
    }

    fn charge_kick(&mut self) {
        self.charge(&per_atom_loop(
            "step3-4-move-update",
            self.n,
            INSTR_INTEGRATE,
        ));
        // Ensemble work: the thermostat's velocity rescale is one more O(N)
        // parallel loop. Absent under NVE, so the paper-faithful runs
        // charge nothing.
        if self.ens_ops > 0.0 {
            self.charge(&per_atom_loop("step6-thermostat", self.n, self.ens_ops));
        }
        // Step 5: kinetic/total energies (parallelized without code
        // modification, per the paper).
        self.charge(&per_atom_loop("step5-energies", self.n, INSTR_ENERGY));
    }

    fn sample(&mut self, p: &mut sim_perf::PerfMonitor) -> f64 {
        let h = self.handles;
        p.record_total(h.instructions, self.instructions);
        p.record_total(h.startup, self.breakdown.startup);
        p.record_total(h.issue, self.breakdown.issue);
        p.record_total(h.phantom, self.breakdown.stall);
        p.record_total(h.occupancy, self.occupancy_cycles);
        p.record_total(h.hotspot_retries, self.hotspot_retry_cycles);
        self.cycles / self.processor.config.clock_hz
    }

    fn finish(&mut self, _perf: &sim_perf::PerfMonitor) -> CostReport {
        let clk = self.processor.config.clock_hz;
        let sim_seconds = self.cycles / clk;
        let b = self.breakdown;
        let phantom_fraction = if sim_seconds == 0.0 {
            0.0
        } else {
            (b.stall / clk) / sim_seconds
        };
        let mut derived = vec![("phantom_fraction", phantom_fraction)];
        if self.cycles > 0.0 {
            derived.push(("avg_stream_occupancy", self.occupancy_cycles / self.cycles));
        }
        CostReport {
            sim_seconds,
            attribution: vec![
                ("issue", b.issue / clk),
                ("loop_startup", b.startup / clk),
                ("phantom_stall", b.stall / clk),
            ],
            derived,
            ops: self.instructions,
            // All traffic is word-granular loads the cycle model already
            // charges, so there are no off-node bytes to report.
            bytes_moved: 0.0,
        }
    }
}

/// Era-appropriate MTA counters, registered once per instrumented run.
#[derive(Clone, Copy)]
struct PerfHandles {
    instructions: sim_perf::CounterHandle,
    startup: sim_perf::CounterHandle,
    issue: sim_perf::CounterHandle,
    phantom: sim_perf::CounterHandle,
    occupancy: sim_perf::CounterHandle,
    hotspot_retries: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(perf: &mut sim_perf::PerfMonitor) -> Self {
        Self {
            instructions: perf.register("mta.instructions", "instrs"),
            startup: perf.register("mta.cycles.startup", "cycles"),
            issue: perf.register("mta.cycles.issue", "cycles"),
            phantom: perf.register("mta.cycles.phantom", "cycles"),
            occupancy: perf.register("mta.stream.occupancy_cycles", "stream-cycles"),
            hotspot_retries: perf.register("mta.hotspot.retry_cycles", "cycles"),
        }
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::compiler::analyze_loop;
    use md_core::checkpoint::SystemCheckpoint;
    use md_core::device::{DeviceRun, FaultPlan, MdDevice, RunOptions};
    use md_core::forces::{AllPairsFullKernel, ForceKernel};
    use md_core::init;
    use md_core::observables::EnergyReport;
    use md_core::verlet::VelocityVerlet;
    use sim_perf::PerfMonitor;

    /// A run through the driver, with its counters.
    struct Counted {
        run: DeviceRun,
        perf: PerfMonitor,
    }

    impl Counted {
        fn counter(&self, name: &str) -> f64 {
            self.perf.find(name).unwrap().value()
        }

        fn cycles(&self) -> f64 {
            self.run.sim_seconds * MtaConfig::paper_mta2().clock_hz
        }
    }

    fn run_md_from(
        m: &mut MtaMd,
        sim: &SimConfig,
        start: Option<&SystemCheckpoint>,
        steps: usize,
    ) -> Counted {
        let mut perf = PerfMonitor::new();
        let mut opts = RunOptions::steps(steps).with_perf(&mut perf);
        opts.start = start;
        let run = m.run(sim, opts).unwrap();
        Counted { run, perf }
    }

    fn run_md(sim: &SimConfig, steps: usize, mode: ThreadingMode) -> Counted {
        run_md_from(&mut MtaMd::paper_mta2(mode), sim, None, steps)
    }

    #[test]
    fn physics_matches_reference_and_is_mode_independent() {
        let sim = SimConfig::reduced_lj(108);
        let full = run_md(&sim, 3, ThreadingMode::FullyMultithreaded).run;
        let partial = run_md(&sim, 3, ThreadingMode::PartiallyMultithreaded).run;
        assert_eq!(full.energies.total, partial.energies.total);

        let mut sys: ParticleSystem<f64> = init::initialize(&sim);
        let sub = sim.substrate::<f64>();
        let vv = VelocityVerlet::new(sim.dt);
        let mut kernel = AllPairsFullKernel;
        let mut pe = kernel.compute(&mut sys, &sub);
        for _ in 0..3 {
            pe = vv.step(&mut sys, &mut kernel, &sub);
        }
        let expect = EnergyReport::measure(&sys, pe);
        assert!(
            (full.energies.total - expect.total).abs() < 1e-9 * expect.total.abs(),
            "MTA {} vs reference {}",
            full.energies.total,
            expect.total
        );
    }

    #[test]
    fn figure8_fully_mt_much_faster() {
        let sim = SimConfig::reduced_lj(256);
        let full = run_md(&sim, 2, ThreadingMode::FullyMultithreaded).run;
        let partial = run_md(&sim, 2, ThreadingMode::PartiallyMultithreaded).run;
        let ratio = partial.sim_seconds / full.sim_seconds;
        assert!(
            ratio > 10.0,
            "serialized step 2 should dominate: {ratio:.1}x"
        );
    }

    #[test]
    fn figure8_gap_grows_with_atoms() {
        let gap = |n: usize| {
            let sim = SimConfig::reduced_lj(n);
            let full = run_md(&sim, 1, ThreadingMode::FullyMultithreaded).run;
            let partial = run_md(&sim, 1, ThreadingMode::PartiallyMultithreaded).run;
            partial.sim_seconds - full.sim_seconds
        };
        assert!(gap(1024) > 10.0 * gap(256), "absolute gap grows ~N²");
    }

    #[test]
    fn compiler_decisions_reported() {
        // Partial mode: the compiler serializes step 2 on the unresolved PE
        // reduction; the rest of the kernel parallelizes untouched.
        let step2 = force_loop(108, 100.0, ThreadingMode::PartiallyMultithreaded);
        assert!(!analyze_loop(&step2).parallel);
        for name in [
            "step1-advance-velocities",
            "step3-4-move-update",
            "step5-energies",
        ] {
            assert!(analyze_loop(&per_atom_loop(name, 108, INSTR_INTEGRATE)).parallel);
        }
        let step2 = force_loop(108, 100.0, ThreadingMode::FullyMultithreaded);
        assert!(analyze_loop(&step2).parallel);
    }

    #[test]
    fn figure9_runtime_tracks_instruction_count() {
        // The MTA's runtime growth must be proportional to the instruction
        // (≈ flop) growth — no cache knee.
        let run = |n: usize| {
            run_md(
                &SimConfig::reduced_lj(n),
                1,
                ThreadingMode::FullyMultithreaded,
            )
        };
        let small = run(256);
        let large = run(2048);
        let time_ratio = large.run.sim_seconds / small.run.sim_seconds;
        let instr_ratio = large.run.ops / small.run.ops;
        assert!(
            (time_ratio / instr_ratio - 1.0).abs() < 0.02,
            "time x{time_ratio:.1} vs instructions x{instr_ratio:.1}"
        );
    }

    #[test]
    fn breakdown_partitions_the_run() {
        let sim = SimConfig::reduced_lj(256);
        for mode in [
            ThreadingMode::FullyMultithreaded,
            ThreadingMode::PartiallyMultithreaded,
        ] {
            let run = run_md(&sim, 2, mode);
            let b = MtaCycleBreakdown {
                startup: run.counter("mta.cycles.startup"),
                issue: run.counter("mta.cycles.issue"),
                stall: run.counter("mta.cycles.phantom"),
            };
            assert!(
                (b.total() - run.cycles()).abs() <= 1e-9 * run.cycles(),
                "{mode:?}: {b:?} vs {}",
                run.cycles()
            );
            // Figure 8's mechanism, visible in the attribution: the
            // serialized step 2 shows up as phantom cycles.
            if mode == ThreadingMode::PartiallyMultithreaded {
                assert!(b.stall > b.issue, "serialized run is stall-dominated");
            } else {
                assert!(
                    b.stall < 0.01 * b.issue,
                    "saturated run is nearly stall-free"
                );
            }
        }
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let sim = SimConfig::reduced_lj(108);
        let mode = ThreadingMode::FullyMultithreaded;
        let plain = MtaMd::paper_mta2(mode)
            .run(&sim, RunOptions::steps(3))
            .unwrap();
        let counted = run_md(&sim, 3, mode);

        // Observability is free: bitwise-identical outcome.
        assert_eq!(plain.sim_seconds, counted.run.sim_seconds);
        assert_eq!(plain.energies.total, counted.run.energies.total);
        assert_eq!(plain.ops, counted.run.ops);

        let instr = counted.perf.find("mta.instructions").expect("registered");
        assert_eq!(instr.value(), counted.run.ops);
        // One sample per evaluation: steps + 1 priming evaluation.
        assert_eq!(instr.samples().len(), 4);
        let occ = counted.counter("mta.stream.occupancy_cycles");
        // Saturated parallel loops run at 128 streams, so the occupancy
        // integral sits near 128 x cycles.
        let avg = occ / counted.cycles();
        assert!((100.0..=128.0).contains(&avg), "avg occupancy {avg:.1}");
        assert_eq!(
            counted.counter("mta.hotspot.retry_cycles"),
            0.0,
            "no faults armed"
        );
    }

    #[test]
    fn deterministic() {
        let sim = SimConfig::reduced_lj(108);
        let a = run_md(&sim, 2, ThreadingMode::FullyMultithreaded).run;
        let b = run_md(&sim, 2, ThreadingMode::FullyMultithreaded).run;
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.energies.total, b.energies.total);
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        let sim = SimConfig::reduced_lj(108);
        let mut m = MtaMd::paper_mta2(ThreadingMode::FullyMultithreaded);
        let whole = run_md_from(&mut m, &sim, None, 10).run;
        let first = run_md_from(&mut m, &sim, None, 5).run;
        let segmented = run_md_from(&mut m, &sim, Some(&first.checkpoint), 5).run;
        assert_eq!(whole.checkpoint, segmented.checkpoint);
    }

    fn faulty(seed: u64, rate: f64) -> MtaMd {
        MtaMd::paper_mta2(ThreadingMode::FullyMultithreaded)
            .with_fault_plan(FaultPlan::new(seed, rate))
    }

    #[test]
    fn injected_faults_leave_physics_untouched_and_slow_the_run() {
        let sim = SimConfig::reduced_lj(108);
        let clean = run_md(&sim, 5, ThreadingMode::FullyMultithreaded).run;
        let faulty = run_md_from(&mut faulty(9, 0.4), &sim, None, 5).run;
        assert_eq!(clean.energies.total, faulty.energies.total);
        assert_eq!(clean.ops, faulty.ops);
        assert!(faulty.faults.any());
        assert!(faulty.sim_seconds > clean.sim_seconds);
        // The MTA charges every retry on the single-processor timeline, so
        // the slowdown equals the charged recovery time.
        assert!(
            (faulty.sim_seconds - clean.sim_seconds - faulty.faults.extra_seconds).abs()
                < 1e-9 * faulty.sim_seconds
        );
    }

    #[test]
    fn exhaustion_degrades_instead_of_failing() {
        let sim = SimConfig::reduced_lj(108);
        let run = run_md_from(&mut faulty(0, 1.0), &sim, None, 1).run;
        assert!(run.faults.exhausted > 0);
        assert!(run.energies.total.is_finite());
    }

    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        let sim = SimConfig::reduced_lj(108);
        let a = run_md_from(&mut faulty(21, 0.3), &sim, None, 3).run;
        let b = run_md_from(&mut faulty(21, 0.3), &sim, None, 3).run;
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }
}
