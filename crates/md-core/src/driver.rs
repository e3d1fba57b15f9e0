//! The one step driver (DESIGN.md §11).
//!
//! Every simulated machine runs the same five-step velocity-Verlet loop of
//! the paper's Figure 4; only the force evaluation (step 2) and the cost of
//! each step differ from device to device. [`StepDriver`] owns the loop and
//! everything around it — restoring or initialising the system, the priming
//! evaluation, the kick/drift/evaluate/kick/thermostat sequence, the one
//! [`FaultSession`], the shared-eval switch, counter sampling, and the
//! [`DeviceRun`] / checkpoint / ledger assembly. A device contributes only a
//! cost model: a [`CostModel`] that starts one run's [`StepCost`]
//! accounting, which charges the integration halves, evaluates and charges
//! each force step, and reports its attribution.
//!
//! Hook order per run: [`CostModel::start`] (registers counters), then the
//! priming [`StepCost::evaluate`] and one [`StepCost::sample`]; then per
//! step [`StepCost::charge_drift`] (before the drift is applied),
//! [`StepCost::evaluate`], [`StepCost::charge_kick`] (after the second half-kick
//! and the thermostat), [`StepCost::sample`]; finally [`StepCost::finish`].
//! A cost model never integrates: it reads positions and writes only the
//! accelerations, so the trajectory is the driver's alone.

use crate::checkpoint::SystemCheckpoint;
use crate::device::{
    ledger_record_run, DeviceError, DeviceRun, HostParallelism, MdDevice, RunOptions,
};
use crate::init;
use crate::observables::EnergyReport;
use crate::params::SimConfig;
use crate::scenario::Substrate;
use crate::system::ParticleSystem;
use crate::verlet::VelocityVerlet;
pub use sim_fault::{FaultKind, FaultSite, SiteOutcome};
use sim_fault::{FaultPlan, FaultSession, FaultStats};
use sim_perf::PerfMonitor;
use vecmath::{Real, Vec3};

/// The driver's settings: the armed fault plan and the shared-eval switch.
/// Every device holds one; [`crate::device::RunOptions::fault_plan`] and
/// [`MdDevice::resalt`] update the plan in place.
#[derive(Clone, Copy, Debug)]
pub struct StepDriver {
    /// Armed fault schedule; `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Physics-once execution (DESIGN.md §17): `true` evaluates forces
    /// through the shared wide evaluator and replays costs in closed form;
    /// `false` runs each device's interpretive per-pair walk. Results are
    /// bitwise identical either way; only host wall-clock differs.
    pub shared_eval: bool,
}

impl Default for StepDriver {
    fn default() -> Self {
        Self {
            fault_plan: None,
            shared_eval: true,
        }
    }
}

/// The run's one fault session. Unarmed, every resolve is a single `None`
/// check that charges nothing. Units are device-native (cycles or seconds);
/// `units_per_second` converts the charged recovery to simulated seconds.
pub struct Faults(Option<FaultSession>);

impl Faults {
    pub fn new(plan: Option<FaultPlan>) -> Self {
        Self(plan.map(FaultSession::new))
    }

    /// Resolve `site` in the degradation style: each failed attempt costs
    /// one `unit` of recovery; exhausting the retry budget costs a further
    /// 4 units (a modeled slow path) and is recorded in
    /// [`FaultStats::exhausted`] instead of failing the run. Returns the
    /// extra units charged.
    pub fn degradable(&mut self, site: FaultSite, unit: f64, units_per_second: f64) -> f64 {
        let Some(sess) = self.0.as_mut() else {
            return 0.0;
        };
        let out = sess.outcome(site);
        let mut extra = unit * f64::from(out.failures);
        if out.exhausted {
            extra += 4.0 * unit;
        }
        if extra > 0.0 {
            sess.charge(extra / units_per_second);
        }
        extra
    }

    /// Resolve `site` fail-fast: recovered failures cost one `unit` each;
    /// an exhausted budget returns the site as the error.
    pub fn fail_fast(
        &mut self,
        site: FaultSite,
        unit: f64,
        units_per_second: f64,
    ) -> Result<f64, FaultSite> {
        let out = self.peek(site);
        self.commit(site, out, unit, units_per_second)
    }

    /// The pure half of [`Faults::fail_fast`]: walk the plan without
    /// touching the ledger, so host-parallel lanes can resolve their sites
    /// concurrently and [`Faults::commit`] them in lane order afterwards.
    pub fn peek(&self, site: FaultSite) -> SiteOutcome {
        self.0
            .as_ref()
            .map_or_else(SiteOutcome::clean, |s| s.peek(site))
    }

    /// Record a peeked outcome exactly as [`Faults::fail_fast`] would have.
    pub fn commit(
        &mut self,
        site: FaultSite,
        out: SiteOutcome,
        unit: f64,
        units_per_second: f64,
    ) -> Result<f64, FaultSite> {
        let Some(sess) = self.0.as_mut() else {
            return Ok(0.0);
        };
        sess.commit(out);
        if out.exhausted {
            return Err(site);
        }
        let extra = recovery(out, unit);
        if extra > 0.0 {
            sess.charge(extra / units_per_second);
        }
        Ok(extra)
    }

    pub fn stats(&self) -> FaultStats {
        self.0
            .as_ref()
            .map_or_else(FaultStats::default, FaultSession::stats)
    }
}

/// Recovery a peeked fail-fast outcome will charge: one `unit` per failed
/// attempt, nothing when the site exhausts (the run aborts instead).
pub fn recovery(out: SiteOutcome, unit: f64) -> f64 {
    if out.exhausted {
        0.0
    } else {
        unit * f64::from(out.failures)
    }
}

/// One force evaluation as the driver hands it to a cost model: the
/// positions to read, the accelerations to write, and the run context.
pub struct Eval<'a, R> {
    /// 0 for the priming evaluation, then one per time step.
    pub index: u64,
    pub positions: &'a [Vec3<R>],
    pub accelerations: &'a mut [Vec3<R>],
    pub box_len: R,
    pub mass: R,
    pub sub: &'a Substrate<R>,
    pub par: HostParallelism,
    /// The driver's shared-eval switch (see [`StepDriver::shared_eval`]).
    pub shared_eval: bool,
    pub faults: &'a mut Faults,
}

/// What a cost model reports when the run ends.
#[derive(Clone, Debug, Default)]
pub struct CostReport {
    pub sim_seconds: f64,
    pub attribution: Vec<(&'static str, f64)>,
    pub derived: Vec<(&'static str, f64)>,
    pub ops: f64,
    pub bytes_moved: f64,
}

/// One run's cost accounting, driven by [`StepDriver::drive`] in the hook
/// order given in the module docs.
pub trait StepCost {
    /// Precision the device integrates in.
    type Real: Real;

    /// Charge steps 1 and 4 (half-kick and drift).
    fn charge_drift(&mut self);

    /// Step 2: write the accelerations for `eval.positions`, charge the
    /// evaluation, and return the potential energy.
    fn evaluate(&mut self, eval: Eval<'_, Self::Real>) -> Result<f64, DeviceError>;

    /// Charge the second half-kick, the ensemble's thermostat and step 5.
    fn charge_kick(&mut self);

    /// Mirror running totals into the counters registered at start and
    /// return the simulated seconds so far (the sample's timestamp).
    fn sample(&mut self, perf: &mut PerfMonitor) -> f64;

    fn finish(&mut self, perf: &PerfMonitor) -> CostReport;
}

/// A simulated machine as the driver sees it. Every `CostModel` is an
/// [`MdDevice`] through the blanket implementation below.
pub trait CostModel {
    type Real: Real;
    type Run<'a>: StepCost<Real = Self::Real>
    where
        Self: 'a;

    /// See [`MdDevice::label`].
    fn label(&self) -> String;

    /// See [`MdDevice::peak_ops_per_second`].
    fn peak_ops_per_second(&self) -> f64;

    fn driver(&mut self) -> &mut StepDriver;

    /// Check the device options, lay out one run's accounting for `sys`,
    /// and register its counters on `perf`.
    fn start<'a>(
        &'a mut self,
        sim: &SimConfig,
        sys: &ParticleSystem<Self::Real>,
        perf: &mut PerfMonitor,
    ) -> Result<Self::Run<'a>, DeviceError>;

    /// Arm a deterministic fault schedule for subsequent runs.
    #[must_use]
    fn with_fault_plan(mut self, plan: FaultPlan) -> Self
    where
        Self: Sized,
    {
        self.driver().fault_plan = Some(plan);
        self
    }
}

/// Validate `sim` and produce the run's starting state: the checkpoint when
/// resuming, the standard lattice otherwise.
pub fn start_system<R: Real>(
    sim: &SimConfig,
    start: Option<&SystemCheckpoint>,
) -> Result<(ParticleSystem<R>, u64), DeviceError> {
    sim.try_validate().map_err(DeviceError::Unsupported)?;
    Ok(match start {
        Some(cp) => (cp.restore(), cp.step),
        None => (init::initialize(sim), 0),
    })
}

impl StepDriver {
    /// Run `steps` time steps of `sys` under `cost`, starting from the
    /// checkpoint step `start_step`.
    #[allow(clippy::too_many_arguments)]
    pub fn drive<S: StepCost>(
        &self,
        cost: &mut S,
        sys: &mut ParticleSystem<S::Real>,
        start_step: u64,
        sim: &SimConfig,
        steps: usize,
        par: HostParallelism,
        perf: &mut PerfMonitor,
    ) -> Result<DeviceRun, DeviceError> {
        let sub = sim.substrate::<S::Real>();
        let vv = VelocityVerlet::new(S::Real::from_f64(sim.dt));
        let mut faults = Faults::new(self.fault_plan);
        let mut evaluate = |cost: &mut S, sys: &mut ParticleSystem<S::Real>, index: usize| {
            cost.evaluate(Eval {
                index: index as u64,
                positions: &sys.positions,
                accelerations: &mut sys.accelerations,
                box_len: sys.box_len,
                mass: sys.mass,
                sub: &sub,
                par,
                shared_eval: self.shared_eval,
                faults: &mut faults,
            })
        };
        let mut pe = evaluate(cost, sys, 0)?;
        let t = cost.sample(perf);
        perf.sample_all(t);
        for step in 1..=steps {
            cost.charge_drift();
            vv.kick_drift(sys);
            pe = evaluate(cost, sys, step)?;
            vv.kick(sys);
            sub.apply_thermostat(sys);
            cost.charge_kick();
            let t = cost.sample(perf);
            perf.sample_all(t);
        }
        let report = cost.finish(perf);
        Ok(DeviceRun {
            sim_seconds: report.sim_seconds,
            energies: EnergyReport::measure(sys, pe),
            checkpoint: SystemCheckpoint::capture(sys, start_step + steps as u64),
            attribution: report.attribution,
            derived: report.derived,
            ops: report.ops,
            bytes_moved: report.bytes_moved,
            faults: faults.stats(),
        })
    }
}

impl<C: CostModel> MdDevice for C {
    fn label(&self) -> String {
        CostModel::label(self)
    }

    fn peak_ops_per_second(&self) -> f64 {
        CostModel::peak_ops_per_second(self)
    }

    fn resalt(&mut self, salt: u64) {
        let driver = self.driver();
        driver.fault_plan = driver.fault_plan.map(|p| p.with_salt(salt));
    }

    fn run(&mut self, sim: &SimConfig, mut opts: RunOptions<'_>) -> Result<DeviceRun, DeviceError> {
        if let Some(plan) = opts.fault_plan {
            self.driver().fault_plan = Some(plan);
        }
        let driver = *self.driver();
        let label = CostModel::label(self);
        let (mut sys, start_step) = start_system(sim, opts.start)?;
        // Counter values feed the derived metrics and the ledger, so observe
        // with a local monitor when the caller passed none (observation is
        // free: the counted run is bitwise-identical).
        let mut local = PerfMonitor::new();
        let perf = match opts.perf.take() {
            Some(p) => p,
            None => &mut local,
        };
        let mut cost = self.start(sim, &sys, perf)?;
        let run = driver.drive(
            &mut cost,
            &mut sys,
            start_step,
            sim,
            opts.steps,
            opts.host_parallelism,
            perf,
        )?;
        if let Some(led) = opts.ledger.take() {
            ledger_record_run(led, &label, &run, Some(perf));
        }
        Ok(run)
    }
}
