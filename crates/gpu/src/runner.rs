//! The host-side MD driver for the GPU port.
//!
//! Per time step (paper section 5.2): the CPU sends the updated positions to
//! the GPU, the GPU computes all accelerations (and per-atom PE) in one
//! dispatch, the CPU reads the 4-component results back over PCIe, sums the
//! PE lanes in linear time, and integrates. The one-time JIT/startup cost is
//! tracked but excluded from the runtime, exactly as in Figure 7.

use crate::config::GpuConfig;
use crate::device::GpuDevice;
use crate::mdshader::LjAccelShader;
use crate::reduction::ReductionStrategy;
use crate::texture::Texture;
use md_core::device::{counter_total, DeviceError, FaultStats, HostParallelism};
use md_core::driver::{
    start_system, CostModel, CostReport, Eval, FaultKind, FaultSite, StepCost, StepDriver,
};
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::system::ParticleSystem;
use vecmath::Vec3;

/// Per-category simulated seconds across a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuStepBreakdown {
    /// Position uploads (PCIe host→GPU).
    pub upload: f64,
    /// Shader pipeline occupancy.
    pub shader: f64,
    /// Per-dispatch driver overhead.
    pub dispatch_overhead: f64,
    /// Acceleration readback (PCIe GPU→host).
    pub readback: f64,
    /// Host CPU linear-time work (PE summation, integration).
    pub cpu: f64,
    /// GPU-side reduction passes (zero under the paper's CPU-readback
    /// strategy; the rejected multi-pass alternative accumulates here).
    pub gpu_reduction: f64,
}

impl GpuStepBreakdown {
    pub fn total(&self) -> f64 {
        self.upload
            + self.shader
            + self.dispatch_overhead
            + self.readback
            + self.cpu
            + self.gpu_reduction
    }
}

/// Result of a simulated GPU-accelerated run.
#[derive(Clone, Debug)]
pub struct GpuRun {
    /// Simulated runtime, startup excluded (Figure 7's quantity).
    pub sim_seconds: f64,
    /// One-time startup (JIT, context creation) — excluded from the above.
    pub startup_seconds: f64,
    pub breakdown: GpuStepBreakdown,
    pub energies: EnergyReport,
    /// Total shader ops retired.
    pub total_ops: u64,
    /// Injected-fault ledger for this run (zero when no plan is armed).
    /// `faults.exhausted > 0` means the modeled degraded path was taken;
    /// the harness supervisor treats that as a failed segment.
    pub faults: FaultStats,
}

/// Driver for GPU-accelerated MD.
pub struct GpuMdSimulation {
    pub config: GpuConfig,
    driver: StepDriver,
}

impl GpuMdSimulation {
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            driver: StepDriver::default(),
        }
    }

    pub fn geforce_7900gtx() -> Self {
        Self::new(GpuConfig::geforce_7900gtx())
    }

    /// The previous GPU generation (16 pipelines at 400 MHz).
    pub fn geforce_6800() -> Self {
        Self::new(GpuConfig::geforce_6800())
    }

    /// Run with an explicit PE-reduction strategy — `GpuMultiPass` is the
    /// alternative the paper rejected; it exists so the overhead claim can be
    /// measured (see the `ablation_gpu_reduction` bench).
    pub fn run_md_with(
        &self,
        sim: &SimConfig,
        steps: usize,
        strategy: ReductionStrategy,
    ) -> Result<GpuRun, DeviceError> {
        let (mut sys, start_step) = start_system(sim, None)?;
        let mut perf = sim_perf::PerfMonitor::new();
        let mut cost = GpuStep::new(self.config, sim, &sys, strategy, &mut perf);
        let run = self.driver.drive(
            &mut cost,
            &mut sys,
            start_step,
            sim,
            steps,
            HostParallelism::Serial,
            &mut perf,
        )?;
        Ok(GpuRun {
            sim_seconds: run.sim_seconds,
            startup_seconds: cost.device.startup_seconds(),
            breakdown: cost.breakdown,
            energies: run.energies,
            total_ops: cost.total_ops,
            faults: run.faults,
        })
    }
}

/// One run's cost accounting. Per time step (paper section 5.2) the CPU
/// sends the updated positions to the GPU, the GPU computes all
/// accelerations (and per-atom PE) in one dispatch, the CPU reads the
/// 4-component results back over PCIe, sums the PE lanes in linear time, and
/// integrates.
pub struct GpuStep {
    config: GpuConfig,
    device: GpuDevice,
    shader: LjAccelShader,
    strategy: ReductionStrategy,
    n: usize,
    /// Ensemble work (thermostat rescale) is one more O(N) host pass;
    /// absent under NVE, so the paper runs charge nothing.
    ensemble: bool,
    breakdown: GpuStepBreakdown,
    total_ops: u64,
    total_fetches: u64,
    total_alu: u64,
    bytes_up: u64,
    bytes_down: u64,
    dispatches: u64,
    handles: PerfHandles,
}

impl GpuStep {
    fn new(
        config: GpuConfig,
        sim: &SimConfig,
        sys: &ParticleSystem<f32>,
        strategy: ReductionStrategy,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Self {
        let n = sys.n();
        let sub = sim.substrate::<f32>();
        let mut device = GpuDevice::new(config);
        device.compile(LjAccelShader::constants(sys.box_len, 1.0 / sys.mass, &sub));
        Self {
            config,
            device,
            shader: LjAccelShader::new(n, sub),
            strategy,
            n,
            ensemble: sub.extra_step_ops_per_atom() > 0.0,
            breakdown: GpuStepBreakdown::default(),
            total_ops: 0,
            total_fetches: 0,
            total_alu: 0,
            bytes_up: 0,
            bytes_down: 0,
            dispatches: 0,
            handles: PerfHandles::register(perf),
        }
    }

    fn linear_pass(&self) -> f64 {
        self.config.cpu_linear_s_per_atom * self.n as f64
    }
}

impl StepCost for GpuStep {
    type Real = f32;

    fn charge_drift(&mut self) {
        self.breakdown.cpu += self.linear_pass();
    }

    /// One functional transfer + dispatch + readback. Injected failures
    /// re-model only the cost of detection and re-issue — the transfers
    /// always deliver pristine data, so physics is untouched.
    fn evaluate(&mut self, e: Eval<'_, f32>) -> Result<f64, DeviceError> {
        // "At the next time step, the updated positions are re-sent to the
        // GPU and new accelerations computed again."
        let positions =
            Texture::from_texels(e.positions.iter().map(|p| [p.x, p.y, p.z, 0.0]).collect());
        let upload = self.device.upload_seconds(&positions);
        self.breakdown.upload += upload;
        self.bytes_up += positions.size_bytes() as u64;
        // A timed-out host→GPU transfer costs the timeout window (modeled as
        // the transfer itself) plus the re-send.
        self.breakdown.upload += e.faults.degradable(
            FaultSite::new(FaultKind::TransferTimeout, e.index, 0, 0),
            2.0 * upload,
            1.0,
        );

        let result = if e.shared_eval {
            self.shader.dispatch_shared(&self.device, &positions, e.par)
        } else {
            self.device
                .dispatch_par(&self.shader, &[&positions], self.n, e.par)
        };
        self.breakdown.shader += result.shader_seconds;
        self.breakdown.dispatch_overhead += result.overhead_seconds;
        self.total_ops += result.ops.total();
        self.total_fetches += result.ops.fetches;
        self.total_alu += result.ops.alu;
        // A NaN-poisoned shader pass is detected on the host (a scan of the
        // output texels, already covered by the linear CPU term) and the
        // whole dispatch is re-issued.
        self.breakdown.shader += e.faults.degradable(
            FaultSite::new(FaultKind::ShaderNan, e.index, 0, 0),
            result.shader_seconds + result.overhead_seconds,
            1.0,
        );

        let readback = self.device.readback_seconds(&result.output);
        self.breakdown.readback += readback;
        self.bytes_down += result.output.size_bytes() as u64;
        // A corrupted PCIe readback is caught by a host-side checksum over
        // the texels and re-read.
        self.breakdown.readback += e.faults.degradable(
            FaultSite::new(FaultKind::ReadbackCorruption, e.index, 0, 1),
            readback,
            1.0,
        );
        self.dispatches += 1;

        // The accelerations must come back to the host either way.
        for (acc, texel) in e.accelerations.iter_mut().zip(result.output.texels()) {
            *acc = Vec3::new(texel[0], texel[1], texel[2]);
        }
        let pe_twice = match self.strategy {
            ReductionStrategy::CpuReadback => {
                // Linear-time CPU pass over the w lanes ("read back each
                // atom's contribution to PE as well and sum them in linear
                // time on the CPU").
                self.breakdown.cpu += self.linear_pass();
                result
                    .output
                    .texels()
                    .iter()
                    .map(|t| t[3] as f64)
                    .sum::<f64>()
            }
            ReductionStrategy::GpuMultiPass => {
                let r = crate::reduction::reduce_on_gpu(&self.device, &result.output);
                self.breakdown.gpu_reduction += r.seconds;
                r.total
            }
        };
        Ok(pe_twice * 0.5)
    }

    fn charge_kick(&mut self) {
        self.breakdown.cpu += self.linear_pass();
        if self.ensemble {
            self.breakdown.cpu += self.linear_pass();
        }
    }

    fn sample(&mut self, p: &mut sim_perf::PerfMonitor) -> f64 {
        let h = self.handles;
        p.record_total(h.fetches, self.total_fetches as f64);
        p.record_total(h.shader_instructions, self.total_alu as f64);
        p.record_total(h.bytes_to_device, self.bytes_up as f64);
        p.record_total(h.bytes_from_device, self.bytes_down as f64);
        // The host blocks on every readback (the CPU-side reduction needs
        // the texels), so readback seconds *are* stall time.
        p.record_total(h.readback_stall_seconds, self.breakdown.readback);
        p.record_total(h.dispatches, self.dispatches as f64);
        self.breakdown.total()
    }

    fn finish(&mut self, perf: &sim_perf::PerfMonitor) -> CostReport {
        let b = self.breakdown;
        let sim_seconds = b.total();
        // The paper's small-N story: everything that exists only because the
        // GPU sits across a bus versus the work itself.
        let total = sim_seconds.max(f64::MIN_POSITIVE);
        CostReport {
            sim_seconds,
            attribution: vec![
                ("shader_compute", b.shader),
                ("pcie_upload", b.upload),
                ("pcie_readback", b.readback),
                ("dispatch_overhead", b.dispatch_overhead),
                ("cpu_serial", b.cpu),
                ("gpu_reduction", b.gpu_reduction),
            ],
            derived: vec![
                (
                    "transfer_overhead_fraction",
                    (b.upload + b.readback + b.dispatch_overhead) / total,
                ),
                (
                    "compute_fraction",
                    (b.shader + b.cpu + b.gpu_reduction) / total,
                ),
            ],
            ops: self.total_ops as f64,
            bytes_moved: counter_total(perf, "gpu.pcie.bytes_to_device")
                + counter_total(perf, "gpu.pcie.bytes_from_device"),
        }
    }
}

/// Registered handles for the GPU's counter set (texture fetches, shader
/// instructions, PCIe bytes per direction, readback stalls, dispatches).
#[derive(Clone, Copy)]
struct PerfHandles {
    fetches: sim_perf::CounterHandle,
    shader_instructions: sim_perf::CounterHandle,
    bytes_to_device: sim_perf::CounterHandle,
    bytes_from_device: sim_perf::CounterHandle,
    readback_stall_seconds: sim_perf::CounterHandle,
    dispatches: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(p: &mut sim_perf::PerfMonitor) -> Self {
        Self {
            fetches: p.register("gpu.texture.fetches", "ops"),
            shader_instructions: p.register("gpu.shader.instructions", "ops"),
            bytes_to_device: p.register("gpu.pcie.bytes_to_device", "bytes"),
            bytes_from_device: p.register("gpu.pcie.bytes_from_device", "bytes"),
            readback_stall_seconds: p.register("gpu.readback.stall_seconds", "seconds"),
            dispatches: p.register("gpu.dispatches", "events"),
        }
    }
}

impl CostModel for GpuMdSimulation {
    type Real = f32;
    type Run<'a> = GpuStep;

    fn label(&self) -> String {
        // Named models keep their historical metric labels; anything else is
        // identified by pipe count. The clock match is bit-exact on purpose:
        // a model label applies only to the unmodified factory constant.
        let c = &self.config;
        if c.n_pipes == 24 && c.clock_hz.to_bits() == 650e6_f64.to_bits() {
            "gpu-7900gtx".to_string()
        } else if c.n_pipes == 16 && c.clock_hz.to_bits() == 400e6_f64.to_bits() {
            "gpu-6800".to_string()
        } else {
            format!("gpu-{}pipes", c.n_pipes)
        }
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.config.ops_per_second()
    }

    fn driver(&mut self) -> &mut StepDriver {
        &mut self.driver
    }

    fn start(
        &mut self,
        sim: &SimConfig,
        sys: &ParticleSystem<f32>,
        perf: &mut sim_perf::PerfMonitor,
    ) -> Result<GpuStep, DeviceError> {
        Ok(GpuStep::new(
            self.config,
            sim,
            sys,
            ReductionStrategy::CpuReadback,
            perf,
        ))
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use md_core::checkpoint::SystemCheckpoint;
    use md_core::device::{DeviceRun, FaultPlan, MdDevice, RunOptions};
    use md_core::forces::{AllPairsFullKernel, ForceKernel};
    use md_core::init;
    use md_core::verlet::VelocityVerlet;

    /// Test-local shorthand for the paper's CPU-readback run.
    fn run_md(m: &GpuMdSimulation, sim: &SimConfig, steps: usize) -> GpuRun {
        m.run_md_with(sim, steps, ReductionStrategy::CpuReadback)
            .unwrap()
    }

    fn run_md_from(
        m: &mut GpuMdSimulation,
        start: Option<&SystemCheckpoint>,
        sim: &SimConfig,
        steps: usize,
    ) -> DeviceRun {
        let mut opts = RunOptions::steps(steps);
        opts.start = start;
        m.run(sim, opts).unwrap()
    }

    #[test]
    fn physics_matches_f32_reference() {
        let sim = SimConfig::reduced_lj(256);
        let run = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 3);

        let mut sys: ParticleSystem<f32> = init::initialize(&sim);
        let sub = sim.substrate::<f32>();
        let vv = VelocityVerlet::new(sim.dt as f32);
        let mut kernel = AllPairsFullKernel;
        let mut pe = kernel.compute(&mut sys, &sub);
        for _ in 0..3 {
            pe = vv.step(&mut sys, &mut kernel, &sub);
        }
        let expect = EnergyReport::measure(&sys, pe as f64);
        assert!(
            (run.energies.total - expect.total).abs() < 1e-3 * expect.total.abs(),
            "GPU {} vs reference {}",
            run.energies.total,
            expect.total
        );
    }

    #[test]
    fn startup_excluded_from_runtime() {
        let sim = SimConfig::reduced_lj(108);
        let run = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 1);
        assert!(run.startup_seconds > 0.0);
        assert!(
            (run.sim_seconds - run.breakdown.total()).abs() < 1e-12,
            "runtime is the per-step breakdown only"
        );
    }

    #[test]
    fn per_step_costs_have_constant_and_linear_parts() {
        // Dispatch overhead is constant per step; transfers are O(N).
        let t = |n: usize| {
            run_md(
                &GpuMdSimulation::geforce_7900gtx(),
                &SimConfig::reduced_lj(n),
                2,
            )
            .breakdown
        };
        let a = t(256);
        let b = t(1024);
        assert_eq!(a.dispatch_overhead, b.dispatch_overhead);
        // Transfers have a fixed latency plus an O(N) bandwidth term.
        assert!(b.upload > a.upload, "uploads grow with N");
        assert!(b.readback > a.readback, "readbacks grow with N");
        assert!(b.shader > 10.0 * a.shader, "shader work scales with N²");
    }

    #[test]
    fn deterministic() {
        let sim = SimConfig::reduced_lj(108);
        let a = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        let b = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.energies.total, b.energies.total);
        assert_eq!(a.total_ops, b.total_ops);
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let sim = SimConfig::reduced_lj(128);
        let plain = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 2);
        let mut perf = sim_perf::PerfMonitor::new();
        let counted = GpuMdSimulation::geforce_7900gtx()
            .run(&sim, RunOptions::steps(2).with_perf(&mut perf))
            .unwrap();
        assert_eq!(
            plain.sim_seconds, counted.sim_seconds,
            "observability is free"
        );
        assert_eq!(plain.energies.total, counted.energies.total);
        assert_eq!(plain.total_ops as f64, counted.ops);
        let fetches = perf.find("gpu.texture.fetches").expect("registered");
        let alu = perf.find("gpu.shader.instructions").expect("registered");
        assert_eq!(
            fetches.value() + alu.value(),
            counted.ops,
            "fetch + alu partition the retired ops"
        );
        assert_eq!(fetches.samples().len(), 3, "prime eval + one per step");
        // Both PCIe directions move one 16-byte texel per atom per eval.
        let expect_bytes = (128 * 16 * 3) as f64;
        assert_eq!(
            perf.find("gpu.pcie.bytes_to_device")
                .expect("registered")
                .value(),
            expect_bytes
        );
        assert_eq!(
            perf.find("gpu.pcie.bytes_from_device")
                .expect("registered")
                .value(),
            expect_bytes
        );
        assert_eq!(
            perf.find("gpu.readback.stall_seconds")
                .expect("registered")
                .value(),
            plain.breakdown.readback
        );
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        let sim = SimConfig::reduced_lj(256);
        let mut runner = GpuMdSimulation::geforce_7900gtx();
        let whole = run_md_from(&mut runner, None, &sim, 10);
        let first = run_md_from(&mut runner, None, &sim, 5);
        let segmented = run_md_from(&mut runner, Some(&first.checkpoint), &sim, 5);
        assert_eq!(whole.checkpoint, segmented.checkpoint);
    }

    #[test]
    fn injected_faults_leave_physics_untouched_and_slow_the_run() {
        let sim = SimConfig::reduced_lj(256);
        let clean = run_md(&GpuMdSimulation::geforce_7900gtx(), &sim, 5);
        let faulty = run_md(
            &GpuMdSimulation::geforce_7900gtx().with_fault_plan(FaultPlan::new(5, 0.3)),
            &sim,
            5,
        );
        assert_eq!(clean.energies.total, faulty.energies.total);
        assert_eq!(clean.total_ops, faulty.total_ops);
        assert!(faulty.faults.any());
        assert!(faulty.sim_seconds > clean.sim_seconds);
        // The GPU pipeline is serial, so the slowdown is exactly the
        // charged recovery time.
        assert!(
            (faulty.sim_seconds - clean.sim_seconds - faulty.faults.extra_seconds).abs()
                < 1e-12 * faulty.sim_seconds.max(1e-30)
        );
    }

    #[test]
    fn exhaustion_degrades_instead_of_failing() {
        let sim = SimConfig::reduced_lj(108);
        let run = run_md(
            &GpuMdSimulation::geforce_7900gtx().with_fault_plan(FaultPlan::new(0, 1.0)),
            &sim,
            1,
        );
        assert!(run.faults.exhausted > 0, "rate 1.0 must exhaust");
        assert!(
            run.energies.total.is_finite(),
            "degraded run still completes"
        );
    }

    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        let sim = SimConfig::reduced_lj(108);
        let mk = || {
            run_md(
                &GpuMdSimulation::geforce_7900gtx().with_fault_plan(FaultPlan::new(42, 0.25)),
                &sim,
                3,
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    /// Physics-once at the run level: a full memoized run is bitwise
    /// indistinguishable from the interpretive baseline — trajectory,
    /// energies, sim-seconds, retired ops.
    #[test]
    fn eval_memo_run_is_bitwise_identical_to_baseline() {
        let sim = SimConfig::reduced_lj(256);
        let mut memoized = GpuMdSimulation::geforce_7900gtx();
        let mut baseline = GpuMdSimulation::geforce_7900gtx();
        baseline.driver().shared_eval = false;
        let m = run_md_from(&mut memoized, None, &sim, 5);
        let b = run_md_from(&mut baseline, None, &sim, 5);
        assert_eq!(m.checkpoint, b.checkpoint);
        assert_eq!(m.energies.total, b.energies.total);
        assert_eq!(m.sim_seconds, b.sim_seconds);
        assert_eq!(m.ops, b.ops);
    }

    #[test]
    fn multipass_reduction_same_physics_but_slower() {
        let sim = SimConfig::reduced_lj(512);
        let runner = GpuMdSimulation::geforce_7900gtx();
        let cpu = run_md(&runner, &sim, 2);
        let gpu = runner
            .run_md_with(&sim, 2, ReductionStrategy::GpuMultiPass)
            .unwrap();
        // Same trajectory: the PE totals agree to f32 summation-order noise,
        // and the accelerations (hence energies) are identical.
        assert!(
            (cpu.energies.total - gpu.energies.total).abs() < 1e-3 * cpu.energies.total.abs(),
            "{} vs {}",
            cpu.energies.total,
            gpu.energies.total
        );
        // The paper's claim: the multi-pass reduction "introduces significant
        // overheads" relative to the free CPU sum.
        assert!(gpu.sim_seconds > cpu.sim_seconds);
        assert!(gpu.breakdown.gpu_reduction > 0.0);
        assert_eq!(cpu.breakdown.gpu_reduction, 0.0);
    }
}
