//! The full Cell BE device: PPE orchestration of SPE offload, with the
//! Asynchronous Thread Runtime model the paper uses (section 5.1).

use crate::config::CellConfig;
use crate::dma::DmaEngine;
use crate::error::CellError;
#[cfg(feature = "hazard-check")]
use crate::hazard::{Dir, HazardChecker};
use crate::kernel::{
    compute_accelerations, KernelStats, SpeKernelVariant, SpeLanePhysics, SpeLanePhysicsF64,
};
use crate::localstore::{LocalStore, LsRegion};
use crate::ppe::PpeModel;
use crate::spe::Spe;
use md_core::device::{counter_total, DeviceError, FaultPlan, FaultStats, HostParallelism};
use md_core::driver::{
    recovery, start_system, CostModel, CostReport, Eval, FaultKind, FaultSite, Faults, SiteOutcome,
    StepCost, StepDriver,
};
use md_core::init;
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::system::ParticleSystem;
use sim_perf::PerfMonitor;
use vecmath::Real;

/// How SPE threads are managed across time steps (Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnPolicy {
    /// Create fresh SPE threads for every force evaluation — the naive port.
    RespawnEveryStep,
    /// Create threads once, then signal "more data" via mailboxes each step,
    /// amortizing the launch cost across all time steps.
    LaunchOnce,
}

/// Configuration of one Cell run.
#[derive(Clone, Copy, Debug)]
pub struct CellRunConfig {
    /// SPEs used (1..=8).
    pub n_spes: usize,
    pub policy: SpawnPolicy,
    pub variant: SpeKernelVariant,
}

impl CellRunConfig {
    /// The paper's best configuration: 8 SPEs, launch-once, fully SIMDized.
    pub fn best() -> Self {
        Self {
            n_spes: 8,
            policy: SpawnPolicy::LaunchOnce,
            variant: SpeKernelVariant::SimdAcceleration,
        }
    }

    pub fn single_spe() -> Self {
        Self {
            n_spes: 1,
            ..Self::best()
        }
    }
}

/// Simulated-cycle breakdown of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostBreakdown {
    /// PPE-side SPE thread creation (serialized).
    pub spawn: f64,
    /// DMA transfers, as seen on the critical path (max across SPEs/step).
    pub dma: f64,
    /// SPE kernel compute on the critical path.
    pub compute: f64,
    /// Mailbox traffic + PPE-side handshake service.
    pub mailbox: f64,
    /// PPE integration and orchestration.
    pub ppe: f64,
}

impl CostBreakdown {
    pub fn total(&self) -> f64 {
        self.spawn + self.dma + self.compute + self.mailbox + self.ppe
    }
}

/// Result of a simulated Cell run.
#[derive(Clone, Debug)]
pub struct CellRun {
    pub sim_seconds: f64,
    pub breakdown: CostBreakdown,
    pub energies: EnergyReport,
    pub kernel_stats: KernelStats,
    pub config: CellRunConfig,
    /// Injected-fault ledger for this run (zero when no plan is armed).
    pub faults: FaultStats,
}

impl CellRun {
    /// Fraction of the total runtime spent launching SPE threads — the
    /// quantity Figure 6 plots.
    pub fn launch_fraction(&self) -> f64 {
        self.breakdown.spawn / self.breakdown.total()
    }
}

/// The simulated Cell blade.
pub struct CellBeDevice {
    pub config: CellConfig,
    /// Fault plan and shared-eval switch. Only the resident SPE-offload path
    /// has fault sites; under the shared-eval switch, runs of the fully
    /// SIMDized kernel variant evaluate each SPE slice through the shared
    /// batched kernel and replay the per-pair cost loop in closed form.
    driver: StepDriver,
}

impl CellBeDevice {
    pub fn new(config: CellConfig) -> Self {
        Self {
            config,
            driver: StepDriver::default(),
        }
    }

    pub fn paper_blade() -> Self {
        Self::new(CellConfig::paper_blade())
    }

    /// Arm a deterministic fault schedule for subsequent runs (resident
    /// path only; the tiled/double/PPE-only paths stay fault-free).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.driver.fault_plan = Some(plan);
        self
    }

    /// Run `steps` from a fresh lattice under the cost model `start` builds,
    /// reporting the Cell's own breakdown.
    fn drive<'t, P, F>(
        &self,
        sim: &SimConfig,
        steps: usize,
        driver: StepDriver,
        config: CellRunConfig,
        start: F,
    ) -> Result<CellRun, DeviceError>
    where
        P: CellPath,
        F: FnOnce(
            &ParticleSystem<P::Real>,
            &mut PerfMonitor,
        ) -> Result<CellCost<'t, P>, DeviceError>,
    {
        let (mut sys, start_step) = start_system(sim, None)?;
        let mut perf = PerfMonitor::new();
        let mut cost = start(&sys, &mut perf)?;
        let run = driver.drive(
            &mut cost,
            &mut sys,
            start_step,
            sim,
            steps,
            HostParallelism::Serial,
            &mut perf,
        )?;
        let tl = &cost.tl;
        Ok(CellRun {
            sim_seconds: run.sim_seconds,
            breakdown: tl.breakdown,
            energies: run.energies,
            kernel_stats: KernelStats {
                cycles: tl.breakdown.compute,
                ..tl.stats
            },
            config,
            faults: run.faults,
        })
    }

    /// The same run with no fault plan armed.
    fn fault_free(&self) -> StepDriver {
        StepDriver {
            fault_plan: None,
            ..self.driver
        }
    }

    /// Run the MD kernel with SPE offload, additionally recording a timeline
    /// of the simulated execution (PPE track 0, SPE `i` on track `i + 1`)
    /// into the tracer — exportable to `chrome://tracing` via
    /// [`mdea_trace::Tracer::to_chrome_json`]. The plain run path is
    /// [`md_core::device::MdDevice::run`] on [`CellMd`].
    pub fn run_md_traced(
        &self,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
        tracer: &mut mdea_trace::Tracer,
    ) -> Result<CellRun, DeviceError> {
        check_spes(run, &self.config)?;
        tracer.name_track(PPE_TRACK, "PPE");
        for s in 0..run.n_spes {
            tracer.name_track(spe_track(s), format!("SPE {s}"));
        }
        self.drive(sim, steps, self.driver, run, |sys, perf| {
            Resident::start(self.config, run, sim, sys, Some(tracer), perf)
        })
    }

    /// Tiled, double-buffered SPE offload — the production formulation for
    /// systems too large for the resident port: each SPE keeps only its own
    /// atom slice and two j-tile buffers in the local store, streaming the
    /// position array through tile-sized DMA transfers. Double buffering
    /// overlaps each tile's DMA with the previous tile's compute, so the
    /// critical path per tile is `max(compute, dma)`, not their sum.
    ///
    /// Physics is identical to the resident port; use this when that one
    /// overflows the local store. Requires the fully optimized kernel
    /// variant.
    pub fn run_md_tiled(
        &self,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
        tile_atoms: usize,
    ) -> Result<CellRun, DeviceError> {
        self.drive(sim, steps, self.fault_free(), run, |sys, _| {
            Tiled::start(self.config, run, tile_atoms, sim, sys)
        })
    }

    /// Double-precision SPE offload — the capability the paper flags as the
    /// Cell's open question ("the outstanding issues are the availability and
    /// support for double-precision floating-point calculations"). Physics is
    /// f64; the DP unit's ~7x arithmetic penalty and the doubled local-store
    /// footprint (two quadwords per atom per array) are both modeled, so this
    /// run both costs more time *and* hits the 256 KB wall at half the atom
    /// count of the f32 port.
    pub fn run_md_double(
        &self,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
    ) -> Result<CellRun, DeviceError> {
        self.drive(sim, steps, self.fault_free(), run, |sys, _| {
            Double::start(self.config, run, sim, sys)
        })
    }

    /// PPE-only execution of the whole kernel (the paper's 26x-slower
    /// baseline): the scalar `Original` variant run on the PPE with its CPI
    /// penalty; no SPEs, no DMA, no thread launches.
    pub fn run_md_ppe_only(&self, sim: &SimConfig, steps: usize) -> Result<CellRun, DeviceError> {
        self.drive(sim, steps, self.fault_free(), PPE_ONLY, |sys, _| {
            Ok(PpeOnly::start(self.config, sim, sys))
        })
    }

    /// Figure 5 measurement: simulated seconds for ONE acceleration-function
    /// invocation (2048 atoms in the paper) on a single SPE at the given
    /// optimization stage. DMA included; thread launch excluded (the figure
    /// times the function, not the launch).
    pub fn time_single_spe_accel(
        &self,
        sim: &SimConfig,
        variant: SpeKernelVariant,
    ) -> Result<f64, CellError> {
        let sys: ParticleSystem<f32> = init::initialize(sim);
        let n = sys.n();
        let dma = DmaEngine::new(&self.config);
        let params = lane_physics(sim, &sys);

        let mut spe = Spe::new(0, &self.config);
        let pos_r = spe.alloc_quads(n)?;
        let acc_r = spe.alloc_quads(n)?;
        let mut main_memory = vec![0u8; 2 * n * 16];
        for (i, p) in sys.positions.iter().enumerate() {
            write_quad(&mut main_memory, i, [p.x, p.y, p.z, 0.0]);
        }
        let dma_in = dma.get(&main_memory, &mut spe.local_store, pos_r, 0, n * 16)?;
        let (_, stats) = compute_accelerations(
            &mut spe.local_store,
            pos_r,
            acc_r,
            0..n,
            n,
            params,
            variant,
            &self.config.costs,
        );
        let dma_out = dma.put(&spe.local_store, &mut main_memory, acc_r, n * 16, n * 16)?;
        Ok((dma_in + stats.cycles + dma_out) / self.config.clock_hz)
    }
}

/// The run configuration the PPE-only baseline reports.
const PPE_ONLY: CellRunConfig = CellRunConfig {
    n_spes: 0,
    policy: SpawnPolicy::LaunchOnce,
    variant: SpeKernelVariant::Original,
};

const PPE_TRACK: mdea_trace::TraceTrack = mdea_trace::TraceTrack(0);

fn spe_track(s: usize) -> mdea_trace::TraceTrack {
    mdea_trace::TraceTrack(1 + s as u32)
}

fn lane_physics(sim: &SimConfig, sys: &ParticleSystem<f32>) -> SpeLanePhysics {
    SpeLanePhysics {
        sub: sim.substrate::<f32>(),
        box_len: sys.box_len,
        inv_mass: 1.0 / sys.mass,
    }
}

fn check_spes(run: CellRunConfig, config: &CellConfig) -> Result<(), DeviceError> {
    if (1..=config.n_spes).contains(&run.n_spes) {
        Ok(())
    } else {
        Err(DeviceError::Unsupported(format!(
            "n_spes must be in 1..={}, got {}",
            config.n_spes, run.n_spes
        )))
    }
}

/// The typed error for a fault site that exhausted its retry budget.
fn exhausted(site: FaultSite) -> CellError {
    CellError::FaultExhausted {
        kind: site.kind,
        eval: site.eval,
        unit: site.unit,
    }
}

impl From<CellError> for DeviceError {
    fn from(e: CellError) -> Self {
        DeviceError::Failed(e.to_string())
    }
}

/// The PPE side every Cell path shares: integration passes, SPE thread
/// management, the run's cycle breakdown and kernel totals, and the cursor
/// of the optional execution timeline.
pub struct Timeline<'t> {
    config: CellConfig,
    ppe: PpeModel,
    n: usize,
    /// Ensemble upkeep (thermostat) runs on the PPE after the final kick;
    /// zero cycles under NVE, so the seed cost model is untouched.
    ens_cycles: f64,
    breakdown: CostBreakdown,
    stats: KernelStats,
    launched: bool,
    t_now: f64,
    tracer: Option<&'t mut mdea_trace::Tracer>,
    /// Under hazard-check, one race detector per local store shadows every
    /// DMA command, tag wait, compute access, and blocking mailbox op.
    #[cfg(feature = "hazard-check")]
    hazard: Vec<HazardChecker>,
}

/// One Cell execution path: its force evaluation and counters. The PPE
/// side, shared by every path, is the [`Timeline`] it is handed.
pub trait CellPath {
    type Real: Real;

    fn eval(&mut self, tl: &mut Timeline<'_>, e: Eval<'_, Self::Real>) -> Result<f64, CellError>;

    /// Mirror the path's counters into `perf` (the tiled, double and
    /// PPE-only paths register none).
    fn sample(&self, _tl: &Timeline<'_>, _perf: &mut PerfMonitor) {}

    fn finish(&self, tl: &mut Timeline<'_>, _perf: &PerfMonitor) -> CostReport {
        let s = tl.stats;
        let ops =
            s.pairs_tested as f64 * FLOPS_PER_PAIR + s.interactions as f64 * FLOPS_PER_INTERACTION;
        tl.report(Vec::new(), ops, 0.0)
    }
}

/// A Cell cost model: one path on the shared PPE timeline.
pub struct CellCost<'t, P> {
    tl: Timeline<'t>,
    path: P,
}

impl<P: CellPath> StepCost for CellCost<'_, P> {
    type Real = P::Real;

    fn charge_drift(&mut self) {
        self.tl.charge_drift();
    }

    fn evaluate(&mut self, e: Eval<'_, P::Real>) -> Result<f64, DeviceError> {
        Ok(self.path.eval(&mut self.tl, e)?)
    }

    fn charge_kick(&mut self) {
        self.tl.charge_kick();
    }

    fn sample(&mut self, perf: &mut PerfMonitor) -> f64 {
        self.path.sample(&self.tl, perf);
        self.tl.sim_seconds()
    }

    fn finish(&mut self, perf: &PerfMonitor) -> CostReport {
        self.path.finish(&mut self.tl, perf)
    }
}

impl<'t> Timeline<'t> {
    fn new(
        config: CellConfig,
        n: usize,
        sim: &SimConfig,
        tracer: Option<&'t mut mdea_trace::Tracer>,
    ) -> Self {
        Self {
            config,
            ppe: PpeModel::new(&config),
            n,
            ens_cycles: n as f64 * sim.substrate::<f32>().extra_step_ops_per_atom(),
            breakdown: CostBreakdown::default(),
            stats: KernelStats::default(),
            launched: false,
            t_now: 0.0,
            tracer,
            #[cfg(feature = "hazard-check")]
            hazard: Vec::new(),
        }
    }

    fn clk(&self) -> f64 {
        self.config.clock_hz
    }

    /// Record a span on `track` starting now (no-op without a tracer).
    fn span(&mut self, track: mdea_trace::TraceTrack, name: &str, cat: &'static str, dur: f64) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.span(track, name, cat, self.t_now, dur);
        }
    }

    fn charge_drift(&mut self) {
        let cycles = self.ppe.integration_cycles(self.n);
        self.breakdown.ppe += cycles;
        let dur = cycles / self.clk();
        self.span(PPE_TRACK, "integrate: kick+drift", "ppe", dur);
        self.t_now += dur;
    }

    fn charge_kick(&mut self) {
        let cycles = self.ppe.integration_cycles(self.n);
        self.breakdown.ppe += cycles;
        let dur = cycles / self.clk();
        self.span(PPE_TRACK, "integrate: kick", "ppe", dur);
        self.t_now += dur;
        self.breakdown.ppe += self.ens_cycles;
        self.t_now += self.ens_cycles / self.clk();
    }

    /// Thread management per Figure 6: spawn every SPE thread (each eval
    /// under `RespawnEveryStep`, once under `LaunchOnce`), or signal the
    /// running threads through their mailboxes that there is more data.
    fn launch(
        &mut self,
        spes: &mut [Spe],
        policy: SpawnPolicy,
        eval: u64,
        faults: &mut Faults,
    ) -> Result<(), CellError> {
        let clk = self.clk();
        let n_spes = spes.len() as f64;
        if policy == SpawnPolicy::RespawnEveryStep || !self.launched {
            let spawn = self.config.spawn_cycles;
            for (s, spe) in spes.iter_mut().enumerate() {
                // A failed spe_create_thread is repeated at full launch cost.
                let site = FaultSite::new(FaultKind::SpeLaunch, eval, s as u32, 0);
                let extra = faults.fail_fast(site, spawn, clk).map_err(exhausted)?;
                if extra > 0.0 {
                    if let Some(tr) = self.tracer.as_deref_mut() {
                        let name = format!("fault: spe-launch retry (SPE {s})");
                        tr.instant(PPE_TRACK, name, "fault", self.t_now);
                    }
                    self.breakdown.spawn += extra;
                    self.t_now += extra / clk;
                }
                spe.start_thread();
                if let Some(tr) = self.tracer.as_deref_mut() {
                    let name = format!("spawn SPE {s} thread");
                    tr.span(PPE_TRACK, name, "spawn", self.t_now, spawn / clk);
                }
                self.t_now += spawn / clk;
            }
            self.breakdown.spawn += n_spes * spawn;
            self.launched = true;
            return Ok(());
        }
        // "Signal them using mailboxes when there is more data to process."
        let service = self.config.ppe_service_cycles;
        for (s, spe) in spes.iter_mut().enumerate() {
            // A dropped mailbox message costs a fresh PPE service round plus
            // the SPE-side read.
            let site = FaultSite::new(FaultKind::MailboxDrop, eval, s as u32, 0);
            let unit = service + self.config.mailbox_cycles;
            let extra = faults.fail_fast(site, unit, clk).map_err(exhausted)?;
            if extra > 0.0 {
                if let Some(tr) = self.tracer.as_deref_mut() {
                    let name = format!("fault: mailbox-drop resend (SPE {s})");
                    tr.instant(PPE_TRACK, name, "fault", self.t_now);
                }
                self.breakdown.mailbox += extra;
                self.t_now += extra / clk;
            }
            #[cfg(feature = "hazard-check")]
            if let Some(hz) = self.hazard.get_mut(s) {
                hz.note_mailbox_write(s, spe.inbox.is_full());
            }
            spe.inbox.write(eval as u32);
        }
        let dur = n_spes * service / clk;
        self.span(PPE_TRACK, "mailbox handshake", "mailbox", dur);
        self.t_now += dur;
        self.breakdown.mailbox += n_spes * service;
        Ok(())
    }

    fn sim_seconds(&self) -> f64 {
        self.breakdown.total() / self.clk()
    }

    /// The attribution every Cell path reports, plus `derived` and the
    /// path's work totals.
    fn report(&mut self, derived: Vec<(&'static str, f64)>, ops: f64, bytes: f64) -> CostReport {
        // Surface any detected races on the timeline as instant markers.
        #[cfg(feature = "hazard-check")]
        if let Some(tr) = self.tracer.as_deref_mut() {
            for (s, hz) in self.hazard.iter().enumerate() {
                hz.emit_to_tracer(tr, spe_track(s), self.t_now);
            }
        }
        let clk = self.clk();
        let b = self.breakdown;
        CostReport {
            sim_seconds: self.sim_seconds(),
            attribution: vec![
                ("compute", b.compute / clk),
                ("dma_wait", b.dma / clk),
                ("mailbox", b.mailbox / clk),
                ("spe_spawn", b.spawn / clk),
                ("ppe_serial", b.ppe / clk),
            ],
            derived,
            ops,
            bytes_moved: bytes,
        }
    }

    fn add_stats(&mut self, stats: &KernelStats) {
        self.stats.pairs_tested += stats.pairs_tested;
        self.stats.interactions += stats.interactions;
    }
}

/// Bring up `run.n_spes` SPEs.
fn spes(run: CellRunConfig, config: &CellConfig) -> Vec<Spe> {
    (0..run.n_spes).map(|id| Spe::new(id, config)).collect()
}

/// The resident SPE-offload port (paper section 5.1): positions are DMA'd
/// into each local store, each SPE computes accelerations for its slice by
/// scanning all N positions, results are DMA'd back, the PPE integrates.
pub struct Resident {
    run: CellRunConfig,
    dma: DmaEngine,
    params: SpeLanePhysics,
    /// Main memory image: positions then accelerations, quadword layout.
    main_memory: Vec<u8>,
    spes: Vec<Spe>,
    regions: Vec<(LsRegion, LsRegion)>,
    slices: Vec<(usize, usize)>,
    handles: PerfHandles,
    /// Running counter totals, mirrored into the monitor at each sample.
    spe_dma_bytes: Vec<f64>,
    spe_dma_stall: Vec<f64>,
    dma_bytes_in: f64,
    dma_bytes_out: f64,
    mailbox_round_trips: u64,
}

impl Resident {
    fn start<'t>(
        config: CellConfig,
        run: CellRunConfig,
        sim: &SimConfig,
        sys: &ParticleSystem<f32>,
        tracer: Option<&'t mut mdea_trace::Tracer>,
        perf: &mut PerfMonitor,
    ) -> Result<CellCost<'t, Self>, DeviceError> {
        check_spes(run, &config)?;
        let n = sys.n();
        let mut spes = spes(run, &config);
        let mut regions = Vec::with_capacity(run.n_spes);
        for spe in &mut spes {
            let pos = spe.alloc_quads(n).map_err(CellError::from)?;
            let acc = spe.alloc_quads(n).map_err(CellError::from)?;
            regions.push((pos, acc));
        }
        #[allow(unused_mut)] // hazard checkers are added only under hazard-check
        let mut tl = Timeline::new(config, n, sim, tracer);
        #[cfg(feature = "hazard-check")]
        {
            tl.hazard = (0..run.n_spes).map(|_| HazardChecker::new()).collect();
        }
        let path = Self {
            run,
            dma: DmaEngine::new(&config),
            params: lane_physics(sim, sys),
            main_memory: vec![0u8; 2 * n * 16],
            spes,
            regions,
            slices: partition(n, run.n_spes),
            handles: PerfHandles::register(perf, run.n_spes),
            spe_dma_bytes: vec![0.0; run.n_spes],
            spe_dma_stall: vec![0.0; run.n_spes],
            dma_bytes_in: 0.0,
            dma_bytes_out: 0.0,
            mailbox_round_trips: 0,
        };
        Ok(CellCost { tl, path })
    }
}

impl CellPath for Resident {
    type Real = f32;

    fn eval(&mut self, tl: &mut Timeline<'_>, e: Eval<'_, f32>) -> Result<f64, CellError> {
        let n = tl.n;
        let eval = e.index;
        let run = self.run;
        tl.launch(&mut self.spes, run.policy, eval, e.faults)?;

        // Serialize current positions into main memory.
        for (i, p) in e.positions.iter().enumerate() {
            write_quad(&mut self.main_memory, i, [p.x, p.y, p.z, 0.0]);
        }

        // Each SPE: DMA in all positions, compute its slice, DMA out. SPEs
        // run concurrently; the step's wall time is the slowest SPE.
        //
        // The simulated concurrency maps onto host threads: the main memory
        // image splits into the shared position half (read by every SPE's
        // get) and per-SPE acceleration windows (each SPE puts only its own
        // slice), so each lane owns disjoint state. Fault sites are peeked
        // in-lane (pure) and committed below in SPE order; every reduction —
        // cost maxima, kernel stats, PE, perf counters, tracer spans —
        // happens in the serial fold, so the run is bitwise identical to the
        // serial loop at any host thread count.
        let (pos_mem, acc_mem) = self.main_memory.split_at_mut(n * 16);
        let pos_mem: &[u8] = pos_mem;
        let mut lanes: Vec<SpeLane> = Vec::with_capacity(run.n_spes);
        {
            let mut acc_rest: &mut [u8] = acc_mem;
            #[cfg(feature = "hazard-check")]
            let mut hz_iter = tl.hazard.iter_mut();
            for (s, spe) in self.spes.iter_mut().enumerate() {
                let (lo, hi) = self.slices[s];
                let (window, rest) = std::mem::take(&mut acc_rest).split_at_mut((hi - lo) * 16);
                acc_rest = rest;
                lanes.push(SpeLane {
                    spe,
                    acc_out: window,
                    // `hazard` holds exactly one checker per SPE; the
                    // iterator cannot run dry.
                    #[cfg(feature = "hazard-check")]
                    hazard: hz_iter.next().expect("one checker per SPE"), // sim-vet: allow(panic-discipline)
                });
            }
        }
        let (config, dma, params) = (&tl.config, &self.dma, self.params);
        let (regions, slices) = (&self.regions, &self.slices);
        let faults: &Faults = e.faults;
        let shared = e.shared_eval && run.variant == SpeKernelVariant::SimdAcceleration;
        let lane_outs = md_core::parallel::map_lanes(
            e.par,
            &mut lanes,
            |s, lane: &mut SpeLane| -> Result<SpeLaneOut, CellError> {
                let spe = &mut *lane.spe;
                let mut round_trips = 0u64;
                if run.policy == SpawnPolicy::LaunchOnce && eval > 0 {
                    #[cfg(feature = "hazard-check")]
                    lane.hazard.note_mailbox_read(s, spe.inbox.is_empty());
                    let _go = spe.inbox.read();
                    spe.charge(config.mailbox_cycles);
                    round_trips += 1;
                }
                let (pos_r, acc_r) = regions[s];
                let (lo, hi) = slices[s];

                #[cfg(feature = "hazard-check")]
                lane.hazard.dma_issue(0, Dir::Get, pos_r);
                let dma_in = dma.get(pos_mem, &mut spe.local_store, pos_r, 0, n * 16)?;
                // The functional transfer above always lands pristine data;
                // injected failures only re-model the transfer's cost, so
                // physics is untouched by construction. Failed transfer →
                // full re-issue of the get; tag-group wait spins out → spin
                // window plus a fresh issue-and-wait (two transfers' worth).
                let site_get = FaultSite::new(FaultKind::DmaTransfer, eval, s as u32, 0);
                let site_tag = FaultSite::new(FaultKind::TagWaitTimeout, eval, s as u32, 0);
                let out_get = faults.peek(site_get);
                let out_tag = faults.peek(site_tag);
                let fault_get = (site_get, out_get, dma_in);
                let fault_tag = (site_tag, out_tag, 2.0 * dma_in);
                let dma_in = dma_in + recovery(out_get, dma_in) + recovery(out_tag, 2.0 * dma_in);
                #[cfg(feature = "hazard-check")]
                {
                    // The functional engine transfers synchronously; the
                    // modeled hardware pattern is issue → tag wait → compute.
                    lane.hazard.tag_wait(0);
                    lane.hazard.compute_read(pos_r);
                    lane.hazard.compute_write(acc_r);
                }
                // Physics-once split (DESIGN.md §17): under the shared-eval
                // switch the slice's physics comes from the shared batched
                // kernel and the cycle charge is the closed-form replay —
                // both bitwise the interpretive loop's results.
                let (pe_slice, stats) = if shared {
                    crate::kernel::compute_accelerations_shared(
                        &mut spe.local_store,
                        pos_r,
                        acc_r,
                        lo..hi,
                        n,
                        params,
                        &config.costs,
                    )
                } else {
                    compute_accelerations(
                        &mut spe.local_store,
                        pos_r,
                        acc_r,
                        lo..hi,
                        n,
                        params,
                        run.variant,
                        &config.costs,
                    )
                };
                // DMA the computed slice back (a sub-range of the acc region,
                // landing in this SPE's window of the acceleration image).
                let slice_view = LsRegion {
                    offset: acc_r.offset + lo * 16,
                    len: (hi - lo) * 16,
                };
                #[cfg(feature = "hazard-check")]
                lane.hazard.dma_issue(1, Dir::Put, slice_view);
                let dma_out = dma.put(
                    &spe.local_store,
                    lane.acc_out,
                    slice_view,
                    0,
                    (hi - lo) * 16,
                )?;
                let site_put = FaultSite::new(FaultKind::DmaTransfer, eval, s as u32, 1);
                let out_put = faults.peek(site_put);
                let fault_put = (site_put, out_put, dma_out);
                let dma_out = dma_out + recovery(out_put, dma_out);
                #[cfg(feature = "hazard-check")]
                lane.hazard.tag_wait(1);
                // Completion notification to the PPE.
                #[cfg(feature = "hazard-check")]
                lane.hazard.note_mailbox_write(s, spe.outbox.is_full());
                spe.outbox.write(1);
                #[cfg(feature = "hazard-check")]
                lane.hazard.note_mailbox_read(s, spe.outbox.is_empty());
                let _ = spe.outbox.read();
                round_trips += 1;

                spe.charge(dma_in + stats.cycles + config.mailbox_cycles + dma_out);
                if run.policy == SpawnPolicy::RespawnEveryStep {
                    spe.stop_thread();
                }
                Ok(SpeLaneOut {
                    dma_in,
                    dma_out,
                    stats,
                    pe_slice,
                    round_trips,
                    faults: [fault_get, fault_tag, fault_put],
                })
            },
        );
        drop(lanes);

        // Serial fold in SPE order: fault ledger, reductions, timeline.
        let clk = tl.clk();
        let mbox = tl.config.mailbox_cycles;
        let mut max_spe_cycles = 0.0f64;
        let mut max_spe_dma = 0.0f64;
        let mut pe_total = 0.0f32;
        for (s, lane_out) in lane_outs.into_iter().enumerate() {
            let out = lane_out?;
            let t_now = tl.t_now;
            let mut commit = |(site, out, unit): (FaultSite, SiteOutcome, f64)| {
                e.faults.commit(site, out, unit, clk).map_err(exhausted)
            };
            let [g, t, p] = out.faults;
            let reissue = commit(g)?;
            let spin = commit(t)?;
            if reissue + spin > 0.0 {
                if let Some(tr) = tl.tracer.as_deref_mut() {
                    tr.instant(spe_track(s), "fault: dma get retried", "fault", t_now);
                }
            }
            if commit(p)? > 0.0 {
                if let Some(tr) = tl.tracer.as_deref_mut() {
                    tr.instant(spe_track(s), "fault: dma put retried", "fault", t_now);
                }
            }
            let (lo, hi) = self.slices[s];
            let spe_cycles = out.stats.cycles + mbox;
            self.mailbox_round_trips += out.round_trips;
            if let Some(tr) = tl.tracer.as_deref_mut() {
                // The SPEs run concurrently: each track starts at the same
                // phase-begin time.
                let mut t = t_now;
                let track = spe_track(s);
                tr.span(track, "DMA get positions", "dma", t, out.dma_in / clk);
                t += out.dma_in / clk;
                let kernel = format!("accel kernel [{lo}..{hi})");
                tr.span(track, kernel, "compute", t, out.stats.cycles / clk);
                t += out.stats.cycles / clk;
                tr.span(track, "mailbox done", "mailbox", t, mbox / clk);
                t += mbox / clk;
                tr.span(track, "DMA put accelerations", "dma", t, out.dma_out / clk);
            }
            max_spe_cycles = max_spe_cycles.max(spe_cycles);
            max_spe_dma = max_spe_dma.max(out.dma_in + out.dma_out);
            tl.add_stats(&out.stats);
            pe_total += out.pe_slice;
            self.spe_dma_bytes[s] += ((n + hi - lo) * 16) as f64;
            self.spe_dma_stall[s] += out.dma_in + out.dma_out;
            self.dma_bytes_in += (n * 16) as f64;
            self.dma_bytes_out += ((hi - lo) * 16) as f64;
        }
        tl.breakdown.compute += max_spe_cycles;
        tl.breakdown.dma += max_spe_dma;
        tl.t_now += (max_spe_cycles + max_spe_dma) / clk;

        // Read accelerations back into the host-side system.
        for (i, acc) in e.accelerations.iter_mut().enumerate() {
            let q = read_quad(&self.main_memory, n + i);
            *acc = vecmath::Vec3::new(q[0], q[1], q[2]);
        }
        Ok((pe_total * 0.5) as f64)
    }

    fn sample(&self, tl: &Timeline<'_>, p: &mut PerfMonitor) {
        let h = &self.handles;
        for s in 0..self.spe_dma_bytes.len() {
            p.record_total(h.spe_dma_bytes[s], self.spe_dma_bytes[s]);
            p.record_total(h.spe_dma_stall[s], self.spe_dma_stall[s]);
        }
        p.record_total(h.dma_bytes_in, self.dma_bytes_in);
        p.record_total(h.dma_bytes_out, self.dma_bytes_out);
        let stats = &tl.stats;
        let flops = stats.pairs_tested as f64 * FLOPS_PER_PAIR
            + stats.interactions as f64 * FLOPS_PER_INTERACTION;
        let simd = simd_fraction(self.run.variant) * flops;
        p.record_total(h.simd_flops, simd);
        p.record_total(h.scalar_flops, flops - simd);
        p.record_total(h.pairs, stats.pairs_tested as f64);
        p.record_total(h.interactions, stats.interactions as f64);
        p.record_total(h.dma_stall_cycles, tl.breakdown.dma);
        p.record_total(h.mailbox_round_trips, self.mailbox_round_trips as f64);
    }

    fn finish(&self, tl: &mut Timeline<'_>, perf: &PerfMonitor) -> CostReport {
        let clk = tl.clk();
        let sim_seconds = tl.sim_seconds();
        let fraction = |cycles: f64| {
            if sim_seconds == 0.0 {
                0.0
            } else {
                (cycles / clk) / sim_seconds
            }
        };
        let b = tl.breakdown;
        let derived = vec![
            ("dma_fraction", fraction(b.dma)),
            ("launch_fraction", fraction(b.spawn)),
        ];
        let flops =
            counter_total(perf, "cell.flops.simd") + counter_total(perf, "cell.flops.scalar");
        let bytes =
            counter_total(perf, "cell.dma.bytes_in") + counter_total(perf, "cell.dma.bytes_out");
        tl.report(derived, flops, bytes)
    }
}

/// Local-store layout per SPE in the tiled port: own positions + own
/// accelerations + two j-tile buffers.
struct TiledRegions {
    pos_i: LsRegion,
    acc: LsRegion,
    tiles: [LsRegion; 2],
}

/// The tiled, double-buffered port ([`CellBeDevice::run_md_tiled`]).
struct Tiled {
    run: CellRunConfig,
    tile_atoms: usize,
    dma: DmaEngine,
    params: SpeLanePhysics,
    main_memory: Vec<u8>,
    spes: Vec<Spe>,
    regions: Vec<TiledRegions>,
    slices: Vec<(usize, usize)>,
}

impl Tiled {
    fn start(
        config: CellConfig,
        run: CellRunConfig,
        tile_atoms: usize,
        sim: &SimConfig,
        sys: &ParticleSystem<f32>,
    ) -> Result<CellCost<'static, Self>, DeviceError> {
        check_spes(run, &config)?;
        if tile_atoms == 0 {
            return Err(DeviceError::Unsupported(
                "tile must hold at least one atom".to_string(),
            ));
        }
        let n = sys.n();
        let mut spes = spes(run, &config);
        let slices = partition(n, run.n_spes);
        let mut regions = Vec::with_capacity(run.n_spes);
        for (spe, &(lo, hi)) in spes.iter_mut().zip(&slices) {
            let mut alloc = |quads| spe.alloc_quads(quads).map_err(CellError::from);
            regions.push(TiledRegions {
                pos_i: alloc(hi - lo)?,
                acc: alloc(hi - lo)?,
                tiles: [alloc(tile_atoms)?, alloc(tile_atoms)?],
            });
        }
        let path = Self {
            run,
            tile_atoms,
            dma: DmaEngine::new(&config),
            params: lane_physics(sim, sys),
            main_memory: vec![0u8; 2 * n * 16],
            spes,
            regions,
            slices,
        };
        Ok(CellCost {
            tl: Timeline::new(config, n, sim, None),
            path,
        })
    }
}

impl CellPath for Tiled {
    type Real = f32;

    fn eval(&mut self, tl: &mut Timeline<'_>, e: Eval<'_, f32>) -> Result<f64, CellError> {
        let n = tl.n;
        let (run, dma, params, tile_atoms) = (self.run, self.dma, self.params, self.tile_atoms);
        let config = tl.config;
        tl.launch(&mut self.spes, run.policy, e.index, e.faults)?;
        for (i, p) in e.positions.iter().enumerate() {
            write_quad(&mut self.main_memory, i, [p.x, p.y, p.z, 0.0]);
        }

        let mut max_spe_path = 0.0f64;
        let mut pe_total = 0.0f32;
        for (s, spe) in self.spes.iter_mut().enumerate() {
            if run.policy == SpawnPolicy::LaunchOnce && e.index > 0 {
                let _ = spe.inbox.read();
                spe.charge(config.mailbox_cycles);
            }
            let r = &self.regions[s];
            let (lo, hi) = self.slices[s];
            let slice_len = hi - lo;

            // Own positions in; accumulator zeroed.
            let dma_i = dma.get(
                &self.main_memory,
                &mut spe.local_store,
                r.pos_i,
                lo * 16,
                slice_len * 16,
            )?;
            for ii in 0..slice_len {
                spe.local_store.store_quad(r.acc, ii, [0.0; 4]);
            }
            let zero_cycles = slice_len as f64;

            // Stream j tiles with double buffering: DMA of tile t+1 overlaps
            // compute of tile t, so the path is
            // dma(0) + Σ max(compute(t), dma(t+1)) + compute(last).
            let n_tiles = n.div_ceil(tile_atoms);
            let mut compute_cycles: Vec<f64> = Vec::with_capacity(n_tiles);
            let mut dma_cycles: Vec<f64> = Vec::with_capacity(n_tiles);
            for t in 0..n_tiles {
                let j_lo = t * tile_atoms;
                let j_hi = (j_lo + tile_atoms).min(n);
                let count = j_hi - j_lo;
                let buf = r.tiles[t % 2];
                let d = dma.get(
                    &self.main_memory,
                    &mut spe.local_store,
                    buf,
                    j_lo * 16,
                    count * 16,
                )?;
                let (_, stats) = crate::kernel::compute_accelerations_tiled(
                    &mut spe.local_store,
                    r.pos_i,
                    lo,
                    slice_len,
                    buf,
                    j_lo,
                    count,
                    r.acc,
                    params,
                    run.variant,
                    &config.costs,
                );
                dma_cycles.push(d);
                compute_cycles.push(stats.cycles);
                tl.add_stats(&stats);
            }
            let mut path = dma_i + zero_cycles + dma_cycles[0];
            for t in 0..n_tiles {
                let next_dma = if t + 1 < n_tiles {
                    dma_cycles[t + 1]
                } else {
                    0.0
                };
                path += compute_cycles[t].max(next_dma);
            }

            // Results out; PE slice read from the accumulator lanes.
            let mut pe_slice = 0.0f32;
            for ii in 0..slice_len {
                let q = spe.local_store.load_quad(r.acc, ii);
                write_quad(&mut self.main_memory, n + lo + ii, q);
                pe_slice += q[3];
            }
            let dma_out = dma.transfer_cycles(slice_len * 16);
            spe.outbox.write(1);
            let _ = spe.outbox.read();
            path += dma_out + config.mailbox_cycles;

            spe.charge(path);
            max_spe_path = max_spe_path.max(path);
            pe_total += pe_slice;
            if run.policy == SpawnPolicy::RespawnEveryStep {
                spe.stop_thread();
            }
        }
        tl.breakdown.compute += max_spe_path;

        for (i, acc) in e.accelerations.iter_mut().enumerate() {
            let q = read_quad(&self.main_memory, n + i);
            *acc = vecmath::Vec3::new(q[0], q[1], q[2]);
        }
        Ok((pe_total * 0.5) as f64)
    }
}

/// The double-precision port ([`CellBeDevice::run_md_double`]).
struct Double {
    run: CellRunConfig,
    dma: DmaEngine,
    params: SpeLanePhysicsF64,
    /// Two quadwords per atom per array.
    main_memory: Vec<u8>,
    spes: Vec<Spe>,
    regions: Vec<(LsRegion, LsRegion)>,
    slices: Vec<(usize, usize)>,
}

impl Double {
    fn start(
        config: CellConfig,
        run: CellRunConfig,
        sim: &SimConfig,
        sys: &ParticleSystem<f64>,
    ) -> Result<CellCost<'static, Self>, DeviceError> {
        check_spes(run, &config)?;
        let n = sys.n();
        let mut spes = spes(run, &config);
        let mut regions = Vec::with_capacity(run.n_spes);
        for spe in &mut spes {
            let pos = spe.alloc_quads(2 * n).map_err(CellError::from)?;
            let acc = spe.alloc_quads(2 * n).map_err(CellError::from)?;
            regions.push((pos, acc));
        }
        let path = Self {
            run,
            dma: DmaEngine::new(&config),
            params: SpeLanePhysicsF64 {
                sub: sim.substrate::<f64>(),
                box_len: sys.box_len,
                inv_mass: 1.0 / sys.mass,
            },
            main_memory: vec![0u8; 4 * n * 16],
            spes,
            regions,
            slices: partition(n, run.n_spes),
        };
        Ok(CellCost {
            tl: Timeline::new(config, n, sim, None),
            path,
        })
    }
}

impl CellPath for Double {
    type Real = f64;

    fn eval(&mut self, tl: &mut Timeline<'_>, e: Eval<'_, f64>) -> Result<f64, CellError> {
        let n = tl.n;
        let (run, dma, params) = (self.run, self.dma, self.params);
        let config = tl.config;
        tl.launch(&mut self.spes, run.policy, e.index, e.faults)?;
        for (i, p) in e.positions.iter().enumerate() {
            write_dquad(&mut self.main_memory, 2 * i, [p.x, p.y]);
            write_dquad(&mut self.main_memory, 2 * i + 1, [p.z, 0.0]);
        }

        let mut max_spe_cycles = 0.0f64;
        let mut max_spe_dma = 0.0f64;
        let mut pe_total = 0.0f64;
        for (s, spe) in self.spes.iter_mut().enumerate() {
            if run.policy == SpawnPolicy::LaunchOnce && e.index > 0 {
                let _ = spe.inbox.read();
                spe.charge(config.mailbox_cycles);
            }
            let (pos_r, acc_r) = self.regions[s];
            let (lo, hi) = self.slices[s];
            let dma_in = dma.get(
                &self.main_memory,
                &mut spe.local_store,
                pos_r,
                0,
                2 * n * 16,
            )?;
            let (pe_slice, stats) = crate::kernel::compute_accelerations_f64(
                &mut spe.local_store,
                pos_r,
                acc_r,
                lo..hi,
                n,
                params,
                &config.costs,
            );
            let slice_view = LsRegion {
                offset: acc_r.offset + 2 * lo * 16,
                len: 2 * (hi - lo) * 16,
            };
            let dma_out = dma.put(
                &spe.local_store,
                &mut self.main_memory,
                slice_view,
                (2 * n + 2 * lo) * 16,
                2 * (hi - lo) * 16,
            )?;
            spe.outbox.write(1);
            let _ = spe.outbox.read();
            let spe_cycles = stats.cycles + config.mailbox_cycles;
            spe.charge(dma_in + spe_cycles + dma_out);
            max_spe_cycles = max_spe_cycles.max(spe_cycles);
            max_spe_dma = max_spe_dma.max(dma_in + dma_out);
            tl.add_stats(&stats);
            pe_total += pe_slice;
            if run.policy == SpawnPolicy::RespawnEveryStep {
                spe.stop_thread();
            }
        }
        tl.breakdown.compute += max_spe_cycles;
        tl.breakdown.dma += max_spe_dma;

        for (i, acc) in e.accelerations.iter_mut().enumerate() {
            let [ax, ay] = read_dquad(&self.main_memory, 2 * n + 2 * i);
            let [az, _] = read_dquad(&self.main_memory, 2 * n + 2 * i + 1);
            *acc = vecmath::Vec3::new(ax, ay, az);
        }
        Ok(pe_total * 0.5)
    }
}

/// The PPE-only baseline ([`CellBeDevice::run_md_ppe_only`], [`CellPpeMd`]).
pub struct PpeOnly {
    params: SpeLanePhysics,
    /// The PPE works straight out of main memory; the kernel runs over a
    /// scratch "store" big enough for both arrays.
    scratch: LocalStore,
    pos_r: LsRegion,
    acc_r: LsRegion,
}

impl PpeOnly {
    fn start(
        config: CellConfig,
        sim: &SimConfig,
        sys: &ParticleSystem<f32>,
    ) -> CellCost<'static, Self> {
        let n = sys.n();
        // The layout is fixed, so the regions are constructed directly —
        // nothing can fail here.
        let path = Self {
            params: lane_physics(sim, sys),
            scratch: LocalStore::new(2 * n * 16),
            pos_r: LsRegion {
                offset: 0,
                len: n * 16,
            },
            acc_r: LsRegion {
                offset: n * 16,
                len: n * 16,
            },
        };
        CellCost {
            tl: Timeline::new(config, n, sim, None),
            path,
        }
    }
}

impl CellPath for PpeOnly {
    type Real = f32;

    fn eval(&mut self, tl: &mut Timeline<'_>, e: Eval<'_, f32>) -> Result<f64, CellError> {
        let n = tl.n;
        for (i, p) in e.positions.iter().enumerate() {
            self.scratch.store_quad(self.pos_r, i, [p.x, p.y, p.z, 0.0]);
        }
        let (pe, stats) = compute_accelerations(
            &mut self.scratch,
            self.pos_r,
            self.acc_r,
            0..n,
            n,
            self.params,
            SpeKernelVariant::Original,
            &tl.config.costs,
        );
        tl.breakdown.compute += tl.ppe.scale_kernel_cycles(stats.cycles);
        tl.add_stats(&stats);
        for (i, acc) in e.accelerations.iter_mut().enumerate() {
            let q = self.scratch.load_quad(self.acc_r, i);
            *acc = vecmath::Vec3::new(q[0], q[1], q[2]);
        }
        Ok((pe * 0.5) as f64)
    }
}

/// Flop estimate per examined pair (minimum image + distance + cutoff test)
/// — for counter reporting only; simulated time comes from the cost model.
const FLOPS_PER_PAIR: f64 = 14.0;
/// Extra flops for an interacting pair (LJ energy/force + accumulate).
const FLOPS_PER_INTERACTION: f64 = 20.0;

/// Fraction of the kernel's flops issued through SIMD lanes at each Figure 5
/// optimization stage (each SIMDized phase covers about a quarter of the
/// per-pair arithmetic).
fn simd_fraction(variant: SpeKernelVariant) -> f64 {
    match variant {
        SpeKernelVariant::Original | SpeKernelVariant::Copysign => 0.0,
        SpeKernelVariant::SimdUnitCell => 0.25,
        SpeKernelVariant::SimdDirection => 0.5,
        SpeKernelVariant::SimdLength => 0.75,
        SpeKernelVariant::SimdAcceleration => 1.0,
    }
}

/// Era-appropriate Cell counters, registered once per run.
struct PerfHandles {
    /// Per-SPE DMA traffic (get + put), indexed by SPE id.
    spe_dma_bytes: Vec<sim_perf::CounterHandle>,
    /// Per-SPE cycles spent waiting on DMA completion.
    spe_dma_stall: Vec<sim_perf::CounterHandle>,
    dma_bytes_in: sim_perf::CounterHandle,
    dma_bytes_out: sim_perf::CounterHandle,
    /// Critical-path DMA cycles (max across concurrent SPEs per step).
    dma_stall_cycles: sim_perf::CounterHandle,
    mailbox_round_trips: sim_perf::CounterHandle,
    simd_flops: sim_perf::CounterHandle,
    scalar_flops: sim_perf::CounterHandle,
    pairs: sim_perf::CounterHandle,
    interactions: sim_perf::CounterHandle,
}

impl PerfHandles {
    fn register(perf: &mut PerfMonitor, n_spes: usize) -> Self {
        Self {
            spe_dma_bytes: (0..n_spes)
                .map(|s| perf.register(format!("cell.spe{s}.dma.bytes"), "bytes"))
                .collect(),
            spe_dma_stall: (0..n_spes)
                .map(|s| perf.register(format!("cell.spe{s}.dma.stall_cycles"), "cycles"))
                .collect(),
            dma_bytes_in: perf.register("cell.dma.bytes_in", "bytes"),
            dma_bytes_out: perf.register("cell.dma.bytes_out", "bytes"),
            dma_stall_cycles: perf.register("cell.dma.stall_cycles", "cycles"),
            mailbox_round_trips: perf.register("cell.mailbox.round_trips", "events"),
            simd_flops: perf.register("cell.flops.simd", "flops"),
            scalar_flops: perf.register("cell.flops.scalar", "flops"),
            pairs: perf.register("cell.kernel.pairs_tested", "pairs"),
            interactions: perf.register("cell.kernel.interactions", "pairs"),
        }
    }
}

/// Mutable state one simulated SPE owns during the force phase: the SPE
/// itself (local store, mailboxes, cycle counter), its window of the main
/// memory acceleration image, and — under hazard-check — its race detector.
/// Lanes are disjoint, so the phase can run on host threads.
struct SpeLane<'a> {
    spe: &'a mut Spe,
    acc_out: &'a mut [u8],
    #[cfg(feature = "hazard-check")]
    hazard: &'a mut HazardChecker,
}

/// What one SPE lane reports back for the serial in-order fold.
struct SpeLaneOut {
    /// Fault-adjusted cycle cost of the position get.
    dma_in: f64,
    /// Fault-adjusted cycle cost of the acceleration put.
    dma_out: f64,
    stats: KernelStats,
    pe_slice: f32,
    /// Mailbox round trips this SPE performed this evaluation (1 or 2).
    round_trips: u64,
    /// Peeked injection sites in resolution order (get, tag wait, put):
    /// `(site, outcome, unit recovery cycles)`, committed to the session's
    /// ledger in SPE order by the fold.
    faults: [(FaultSite, SiteOutcome, f64); 3],
}

/// Split `n` items into `k` contiguous, balanced slices.
fn partition(n: usize, k: usize) -> Vec<(usize, usize)> {
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut lo = 0;
    for s in 0..k {
        let len = base + usize::from(s < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

#[inline]
fn write_quad(mem: &mut [u8], quad_index: usize, q: [f32; 4]) {
    let off = quad_index * 16;
    for (k, v) in q.iter().enumerate() {
        mem[off + 4 * k..off + 4 * k + 4].copy_from_slice(&v.to_le_bytes());
    }
}

#[inline]
fn write_dquad(mem: &mut [u8], quad_index: usize, q: [f64; 2]) {
    let off = quad_index * 16;
    mem[off..off + 8].copy_from_slice(&q[0].to_le_bytes());
    mem[off + 8..off + 16].copy_from_slice(&q[1].to_le_bytes());
}

#[inline]
fn read_dquad(mem: &[u8], quad_index: usize) -> [f64; 2] {
    let off = quad_index * 16;
    let lane = |o: usize| {
        f64::from_le_bytes([
            mem[o],
            mem[o + 1],
            mem[o + 2],
            mem[o + 3],
            mem[o + 4],
            mem[o + 5],
            mem[o + 6],
            mem[o + 7],
        ])
    };
    [lane(off), lane(off + 8)]
}

#[inline]
fn read_quad(mem: &[u8], quad_index: usize) -> [f32; 4] {
    let off = quad_index * 16;
    let lane = |o: usize| f32::from_le_bytes([mem[o], mem[o + 1], mem[o + 2], mem[o + 3]]);
    [lane(off), lane(off + 4), lane(off + 8), lane(off + 12)]
}

/// Each SPE retires up to a 4-wide single-precision FMA per cycle.
const SPE_FLOPS_PER_CYCLE: f64 = 8.0;

/// A [`CellBeDevice`] bound to one [`CellRunConfig`], so each paper
/// configuration (1 SPE, 8 SPEs, respawn vs launch-once, SIMD stage) appears
/// as a distinct device behind [`md_core::device::MdDevice`].
pub struct CellMd {
    pub device: CellBeDevice,
    pub run: CellRunConfig,
}

impl CellMd {
    pub fn new(device: CellBeDevice, run: CellRunConfig) -> Self {
        Self { device, run }
    }

    /// The paper's blade in the given run configuration.
    pub fn paper_blade(run: CellRunConfig) -> Self {
        Self::new(CellBeDevice::paper_blade(), run)
    }
}

impl CostModel for CellMd {
    type Real = f32;
    type Run<'a> = CellCost<'static, Resident>;

    fn label(&self) -> String {
        format!("cell-{}spe", self.run.n_spes)
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.device.config.clock_hz * SPE_FLOPS_PER_CYCLE * self.run.n_spes as f64
    }

    fn driver(&mut self) -> &mut StepDriver {
        &mut self.device.driver
    }

    fn start(
        &mut self,
        sim: &SimConfig,
        sys: &ParticleSystem<f32>,
        perf: &mut PerfMonitor,
    ) -> Result<CellCost<'static, Resident>, DeviceError> {
        Resident::start(self.device.config, self.run, sim, sys, None, perf)
    }
}

/// The PPE-only baseline (Table 1's 26x-slower row) as a device: the scalar
/// kernel on the PPE with its CPI penalty, no SPEs, no DMA.
pub struct CellPpeMd {
    pub device: CellBeDevice,
}

impl CellPpeMd {
    pub fn paper_blade() -> Self {
        Self {
            device: CellBeDevice::paper_blade(),
        }
    }
}

impl CostModel for CellPpeMd {
    type Real = f32;
    type Run<'a> = CellCost<'static, PpeOnly>;

    fn label(&self) -> String {
        "cell-ppe".to_string()
    }

    /// The PPE issues one scalar flop per cycle in this model.
    fn peak_ops_per_second(&self) -> f64 {
        self.device.config.clock_hz
    }

    fn driver(&mut self) -> &mut StepDriver {
        &mut self.device.driver
    }

    fn start(
        &mut self,
        sim: &SimConfig,
        sys: &ParticleSystem<f32>,
        _perf: &mut PerfMonitor,
    ) -> Result<CellCost<'static, PpeOnly>, DeviceError> {
        Ok(PpeOnly::start(self.device.config, sim, sys))
    }
}

/// The Figure 5 measurement as a device: one acceleration-function
/// invocation on a single SPE at a fixed optimization stage. Only supports
/// `steps == 0` from a fresh lattice — it times the function, not a
/// trajectory.
pub struct CellAccelProbe {
    pub device: CellBeDevice,
    pub variant: SpeKernelVariant,
}

impl CellAccelProbe {
    pub fn paper_blade(variant: SpeKernelVariant) -> Self {
        Self {
            device: CellBeDevice::paper_blade(),
            variant,
        }
    }
}

impl md_core::device::MdDevice for CellAccelProbe {
    fn label(&self) -> String {
        format!("cell-1spe-{}", self.variant.label().replace(' ', "-"))
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.device.config.clock_hz * SPE_FLOPS_PER_CYCLE
    }

    fn run(
        &mut self,
        sim: &SimConfig,
        mut opts: md_core::device::RunOptions<'_>,
    ) -> Result<md_core::device::DeviceRun, DeviceError> {
        if opts.start.is_some() || opts.steps != 0 {
            return Err(DeviceError::Unsupported(
                "the single-SPE probe times one force evaluation from a fresh lattice \
                 (steps must be 0, no checkpoint)"
                    .to_string(),
            ));
        }
        let (sys, _) = start_system::<f32>(sim, None)?;
        let t = self.device.time_single_spe_accel(sim, self.variant)?;
        let run = md_core::device::DeviceRun {
            sim_seconds: t,
            energies: EnergyReport::measure(&sys, 0.0),
            checkpoint: md_core::checkpoint::SystemCheckpoint::capture(&sys, 0),
            attribution: vec![("force_eval", t)],
            derived: Vec::new(),
            ops: 0.0,
            bytes_moved: 0.0,
            faults: FaultStats::default(),
        };
        if let Some(led) = opts.ledger.take() {
            let label = md_core::device::MdDevice::label(self);
            md_core::device::ledger_record_run(led, &label, &run, opts.perf.as_deref());
        }
        Ok(run)
    }
}

#[cfg(test)]
// Tests assert *bitwise* f64 equality on purpose: identical runs must
// produce identical results, not merely close ones (DESIGN.md §4).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use md_core::device::{MdDevice, RunOptions};
    use md_core::forces::{AllPairsFullKernel, ForceKernel};
    use md_core::verlet::VelocityVerlet;

    fn workload(n: usize) -> SimConfig {
        SimConfig::reduced_lj(n)
    }

    /// The resident SPE-offload path from a fresh lattice, reporting the
    /// Cell's own breakdown (the production entry point is `MdDevice::run`
    /// on [`CellMd`]).
    fn run_md(
        device: &CellBeDevice,
        sim: &SimConfig,
        steps: usize,
        run: CellRunConfig,
    ) -> Result<CellRun, DeviceError> {
        device.drive(sim, steps, device.driver, run, |sys, perf| {
            Resident::start(device.config, run, sim, sys, None, perf)
        })
    }

    /// The resident path through `MdDevice::run`, from `start` when given.
    fn run_md_from(
        md: &mut CellMd,
        sim: &SimConfig,
        start: Option<&md_core::checkpoint::SystemCheckpoint>,
        steps: usize,
    ) -> md_core::device::DeviceRun {
        let mut opts = RunOptions::steps(steps);
        opts.start = start;
        md.run(sim, opts).unwrap()
    }

    #[test]
    fn partition_is_exact_and_balanced() {
        for (n, k) in [(2048usize, 8usize), (10, 3), (7, 7), (5, 1)] {
            let slices = partition(n, k);
            assert_eq!(slices.len(), k);
            assert_eq!(slices[0].0, 0);
            assert_eq!(slices.last().unwrap().1, n);
            for w in slices.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let sizes: Vec<usize> = slices.iter().map(|(a, b)| b - a).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn physics_matches_f32_reference() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let run =
            run_md(&device, &sim, 3, CellRunConfig::best()).expect("256 atoms fit the local store");

        // Reference: same workload, f32, untimed.
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
            "Cell {} vs reference {}",
            run.energies.total,
            expect.total
        );
    }

    #[test]
    fn all_variants_produce_same_physics() {
        let sim = workload(108);
        let device = CellBeDevice::paper_blade();
        let mut totals = Vec::new();
        for variant in SpeKernelVariant::ALL {
            let run = run_md(
                &device,
                &sim,
                2,
                CellRunConfig {
                    n_spes: 4,
                    policy: SpawnPolicy::LaunchOnce,
                    variant,
                },
            )
            .unwrap();
            totals.push(run.energies.total);
        }
        for t in &totals {
            assert!(
                (t - totals[0]).abs() < 2e-3 * totals[0].abs(),
                "variants diverge: {totals:?}"
            );
        }
    }

    #[test]
    fn figure5_ladder_monotonic_on_device() {
        let sim = workload(500);
        let device = CellBeDevice::paper_blade();
        let mut prev = f64::INFINITY;
        for variant in SpeKernelVariant::ALL {
            let t = device.time_single_spe_accel(&sim, variant).unwrap();
            assert!(t < prev, "{variant:?}: {t} !< {prev}");
            prev = t;
        }
    }

    #[test]
    fn figure6_launch_once_amortizes_spawn() {
        let sim = workload(2048);
        let device = CellBeDevice::paper_blade();
        let respawn = run_md(
            &device,
            &sim,
            10,
            CellRunConfig {
                n_spes: 8,
                policy: SpawnPolicy::RespawnEveryStep,
                variant: SpeKernelVariant::SimdAcceleration,
            },
        )
        .unwrap();
        let once = run_md(
            &device,
            &sim,
            10,
            CellRunConfig {
                n_spes: 8,
                policy: SpawnPolicy::LaunchOnce,
                variant: SpeKernelVariant::SimdAcceleration,
            },
        )
        .unwrap();
        assert!(once.sim_seconds < respawn.sim_seconds);
        assert!(
            respawn.launch_fraction() > 3.0 * once.launch_fraction(),
            "respawn {:.3} vs once {:.3}",
            respawn.launch_fraction(),
            once.launch_fraction()
        );
        // Same physics either way.
        assert!(
            (once.energies.total - respawn.energies.total).abs() < 1e-6 * once.energies.total.abs()
        );
    }

    #[test]
    fn eight_spes_beat_one_spe_when_launch_amortized() {
        let sim = workload(2048);
        let device = CellBeDevice::paper_blade();
        let one = run_md(&device, &sim, 10, CellRunConfig::single_spe()).unwrap();
        let eight = run_md(&device, &sim, 10, CellRunConfig::best()).unwrap();
        let speedup = one.sim_seconds / eight.sim_seconds;
        assert!(
            (3.5..7.0).contains(&speedup),
            "paper reports ~4.5x; got {speedup:.2}"
        );
    }

    #[test]
    fn ppe_only_much_slower_than_spes() {
        // The paper's full 26x shows at 2048 atoms (checked in the Table 1
        // integration test); at 1024 the overheads are amortized enough to
        // assert a substantial gap cheaply.
        let sim = workload(1024);
        let device = CellBeDevice::paper_blade();
        let eight = run_md(&device, &sim, 6, CellRunConfig::best()).unwrap();
        let ppe = device.run_md_ppe_only(&sim, 6).unwrap();
        let ratio = ppe.sim_seconds / eight.sim_seconds;
        assert!(ratio > 5.0, "PPE-only should be far slower: {ratio:.1}");
        assert!(
            (ppe.energies.total - eight.energies.total).abs() < 1e-3 * eight.energies.total.abs()
        );
    }

    #[test]
    fn local_store_overflow_detected() {
        // 16384 quads fill 256 KB; position + acceleration arrays for 10000
        // atoms need 2 * 160 KB > 256 KB.
        let sim = workload(10_000);
        let device = CellBeDevice::paper_blade();
        let err = run_md(&device, &sim, 1, CellRunConfig::best());
        assert!(err.is_err(), "10k atoms cannot fit the local store layout");
    }

    #[test]
    fn deterministic() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let a = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        let b = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.energies.total, b.energies.total);
    }

    #[test]
    fn perf_counters_are_free_and_populated() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let counted = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        let plain = CellMd::paper_blade(CellRunConfig::best())
            .run(&sim, RunOptions::steps(3))
            .unwrap();
        let mut perf = PerfMonitor::new();
        let observed = CellMd::paper_blade(CellRunConfig::best())
            .run(&sim, RunOptions::steps(3).with_perf(&mut perf))
            .unwrap();

        // Observability is free: bitwise-identical outcome.
        assert_eq!(plain.sim_seconds, observed.sim_seconds);
        assert_eq!(plain.energies.total, observed.energies.total);
        assert_eq!(counted.sim_seconds, observed.sim_seconds);

        // 4 evaluations (1 priming + 3 steps), each SPE gets all 256
        // positions in (256 quads) and puts its 32-atom slice back.
        let spe0 = perf.find("cell.spe0.dma.bytes").expect("registered");
        assert_eq!(spe0.value(), 4.0 * (256.0 + 32.0) * 16.0);
        assert_eq!(spe0.samples().len(), 4);
        let bytes_in = perf.find("cell.dma.bytes_in").expect("registered");
        assert_eq!(bytes_in.value(), 4.0 * 8.0 * 256.0 * 16.0);
        // Launch-once: 8 completion round-trips per eval + 8 "more data"
        // signals on each of the 3 non-priming evals.
        let mbox = perf.find("cell.mailbox.round_trips").expect("registered");
        assert_eq!(mbox.value(), 4.0 * 8.0 + 3.0 * 8.0);
        // Fully SIMDized variant: all kernel flops through SIMD lanes.
        let simd = perf.find("cell.flops.simd").expect("registered");
        let scalar = perf.find("cell.flops.scalar").expect("registered");
        assert!(simd.value() > 0.0);
        assert_eq!(scalar.value(), 0.0);
        let pairs = perf.find("cell.kernel.pairs_tested").expect("registered");
        assert_eq!(pairs.value(), counted.kernel_stats.pairs_tested as f64);
        let stall = perf.find("cell.dma.stall_cycles").expect("registered");
        assert_eq!(stall.value(), counted.breakdown.dma);
    }

    #[test]
    fn scalar_variant_attributes_flops_to_scalar_pipe() {
        let sim = workload(108);
        let mut perf = PerfMonitor::new();
        CellMd::paper_blade(CellRunConfig {
            n_spes: 2,
            policy: SpawnPolicy::LaunchOnce,
            variant: SpeKernelVariant::Original,
        })
        .run(&sim, RunOptions::steps(1).with_perf(&mut perf))
        .unwrap();
        let simd = perf.find("cell.flops.simd").expect("registered");
        let scalar = perf.find("cell.flops.scalar").expect("registered");
        assert_eq!(simd.value(), 0.0);
        assert!(scalar.value() > 0.0);
    }

    #[test]
    fn traced_run_produces_consistent_timeline() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let mut tracer = mdea_trace::Tracer::new();
        let traced = device
            .run_md_traced(&sim, 3, CellRunConfig::best(), &mut tracer)
            .unwrap();
        let plain = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();

        // Tracing must not perturb the simulation.
        assert_eq!(traced.sim_seconds, plain.sim_seconds);
        assert_eq!(traced.energies.total, plain.energies.total);

        // Timeline sanity: spans exist on the PPE and every SPE track, the
        // timeline end matches the reported runtime closely, and the JSON
        // export is well formed.
        assert!(!tracer.is_empty());
        assert!(
            tracer.track_busy(mdea_trace::TraceTrack(0)) > 0.0,
            "PPE busy"
        );
        for s in 0..8u32 {
            assert!(
                tracer.track_busy(mdea_trace::TraceTrack(1 + s)) > 0.0,
                "SPE {s} has spans"
            );
        }
        let end = tracer.end_time();
        assert!(
            (end - traced.sim_seconds).abs() < 0.02 * traced.sim_seconds,
            "timeline end {end} vs runtime {}",
            traced.sim_seconds
        );
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("accel kernel"));
        assert!(json.contains("spawn SPE 7 thread"));
    }

    #[test]
    fn tiled_port_matches_resident_port() {
        let sim = workload(512);
        let device = CellBeDevice::paper_blade();
        let resident = run_md(&device, &sim, 3, CellRunConfig::best()).unwrap();
        let tiled = device
            .run_md_tiled(&sim, 3, CellRunConfig::best(), 128)
            .unwrap();
        assert!(
            (tiled.energies.total - resident.energies.total).abs()
                < 1e-5 * resident.energies.total.abs(),
            "tiled {} vs resident {}",
            tiled.energies.total,
            resident.energies.total
        );
        assert_eq!(
            tiled.kernel_stats.interactions,
            resident.kernel_stats.interactions
        );
        // Double-buffered streaming costs a little more than resident, but
        // not wildly (DMA overlaps compute).
        let overhead = tiled.sim_seconds / resident.sim_seconds;
        assert!(
            (0.95..1.5).contains(&overhead),
            "tiled overhead {overhead:.2}x"
        );
    }

    #[test]
    fn tiled_port_handles_systems_beyond_the_local_store() {
        // 10000 atoms: the resident port overflows (checked elsewhere); the
        // tiled port runs and produces physical results.
        let sim = workload(10_000);
        let device = CellBeDevice::paper_blade();
        let run = device
            .run_md_tiled(&sim, 0, CellRunConfig::best(), 1024)
            .expect("streaming port has no N limit");
        assert!(run.energies.potential < 0.0, "cohesive liquid");
        assert!(run.sim_seconds > 0.0);
    }

    #[test]
    fn tile_size_does_not_change_physics() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let runs: Vec<f64> = [32usize, 100, 256, 511]
            .iter()
            .map(|&t| {
                device
                    .run_md_tiled(&sim, 2, CellRunConfig::best(), t)
                    .unwrap()
                    .energies
                    .total
            })
            .collect();
        for r in &runs {
            assert!(
                (r - runs[0]).abs() < 1e-6 * runs[0].abs(),
                "tile size changed the trajectory: {runs:?}"
            );
        }
    }

    #[test]
    fn double_precision_matches_f64_reference() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade();
        let run = device
            .run_md_double(&sim, 3, CellRunConfig::best())
            .expect("fits local store");

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
            (run.energies.total - expect.total).abs() < 1e-9 * expect.total.abs(),
            "DP Cell {} vs f64 reference {}",
            run.energies.total,
            expect.total
        );
    }

    #[test]
    fn double_precision_pays_the_dp_penalty() {
        let sim = workload(512);
        let device = CellBeDevice::paper_blade();
        let sp = run_md(&device, &sim, 4, CellRunConfig::best()).unwrap();
        let dp = device
            .run_md_double(&sim, 4, CellRunConfig::best())
            .unwrap();
        let ratio = dp.breakdown.compute / sp.breakdown.compute;
        assert!(
            (3.0..8.0).contains(&ratio),
            "DP compute should be several times SP: {ratio:.2}x"
        );
    }

    #[test]
    fn segmented_run_matches_unsegmented_run_bitwise() {
        // run_md_from in two 5-step segments must reproduce the 10-step run
        // exactly: this is the property the supervisor's checkpoint/restart
        // relies on.
        let sim = workload(256);
        let mut md = CellMd::paper_blade(CellRunConfig::best());
        let whole = run_md_from(&mut md, &sim, None, 10);
        let first = run_md_from(&mut md, &sim, None, 5);
        let segmented = run_md_from(&mut md, &sim, Some(&first.checkpoint), 5);
        assert_eq!(whole.checkpoint, segmented.checkpoint);
    }

    #[test]
    fn injected_faults_leave_physics_untouched_and_slow_the_run() {
        let sim = workload(256);
        let clean = run_md_from(
            &mut CellMd::paper_blade(CellRunConfig::best()),
            &sim,
            None,
            5,
        );
        let faulty = run_md_from(
            &mut CellMd::paper_blade(CellRunConfig::best()).with_fault_plan(FaultPlan::new(7, 0.1)),
            &sim,
            None,
            5,
        );

        assert_eq!(clean.checkpoint, faulty.checkpoint);
        assert_eq!(clean.energies.total, faulty.energies.total);
        assert!(faulty.faults.any(), "rate 0.2 over 5 steps must fire");
        assert!(
            faulty.sim_seconds > clean.sim_seconds,
            "recovery must cost simulated time: {} !> {}",
            faulty.sim_seconds,
            clean.sim_seconds
        );
        assert!(faulty.faults.extra_seconds > 0.0);
        // SPEs run concurrently, so recovery on a non-critical-path SPE is
        // absorbed: the wall slowdown is at most the total charged time.
        assert!(
            faulty.sim_seconds - clean.sim_seconds <= faulty.faults.extra_seconds + 1e-12,
            "slowdown {} cannot exceed charged recovery {}",
            faulty.sim_seconds - clean.sim_seconds,
            faulty.faults.extra_seconds
        );
    }

    #[test]
    fn always_faulting_plan_surfaces_typed_exhaustion() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade().with_fault_plan(FaultPlan::new(0, 1.0));
        let err = run_md(&device, &sim, 2, CellRunConfig::best());
        let want = CellError::FaultExhausted {
            kind: FaultKind::SpeLaunch,
            eval: 0,
            unit: 0,
        };
        assert!(
            matches!(&err, Err(DeviceError::Failed(m)) if *m == want.to_string()),
            "rate-1.0 plan must exhaust: {err:?}"
        );
    }

    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        let sim = workload(256);
        let mk = || CellBeDevice::paper_blade().with_fault_plan(FaultPlan::new(42, 0.15));
        let a = run_md(&mk(), &sim, 4, CellRunConfig::best()).unwrap();
        let b = run_md(&mk(), &sim, 4, CellRunConfig::best()).unwrap();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    #[test]
    fn fault_instants_appear_on_the_timeline() {
        let sim = workload(256);
        let device = CellBeDevice::paper_blade().with_fault_plan(FaultPlan::new(11, 0.3));
        let mut tracer = mdea_trace::Tracer::new();
        let run = device
            .run_md_traced(&sim, 4, CellRunConfig::best(), &mut tracer)
            .unwrap();
        assert!(run.faults.any());
        let json = tracer.to_chrome_json();
        assert!(json.contains("fault:"), "fault instants in the trace");
    }

    #[test]
    fn double_precision_halves_the_local_store_capacity() {
        // 6000 atoms fit in f32 (2 * 96 KB) but not in f64 (2 * 192 KB).
        let sim = workload(6000);
        let device = CellBeDevice::paper_blade();
        assert!(run_md(&device, &sim, 0, CellRunConfig::best()).is_ok());
        assert!(device
            .run_md_double(&sim, 0, CellRunConfig::best())
            .is_err());
    }
}
