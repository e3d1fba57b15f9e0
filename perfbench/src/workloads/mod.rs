//! The four workloads. Each is a closed loop with one client: an op starts
//! when the previous one has finished.

mod campaign;
mod device;
mod supervised;

use crate::check::Tally;
use crate::trace::Tracer;
use md_core::params::SimConfig;
use std::path::PathBuf;

pub use campaign::Campaign;
pub use device::{DeviceWorkload, ACCEL_2048, OPTERON_CLIFF};
pub use supervised::Supervised;

/// The workload names `--workload` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Accel2048,
    OpteronCliff,
    Campaign,
    Supervised,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Accel2048,
        Kind::OpteronCliff,
        Kind::Campaign,
        Kind::Supervised,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Accel2048 => "accel-2048",
            Kind::OpteronCliff => "opteron-cliff",
            Kind::Campaign => "campaign",
            Kind::Supervised => "supervised",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What every workload's set-up receives.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The benchmark seed; 0 is the repository's default simulation seed,
    /// where outputs are checked against the committed goldens.
    pub seed: u64,
    /// Scratch directory for everything a run writes.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The simulation config of an `n`-atom op under this seed.
    pub fn sim(&self, n_atoms: usize) -> SimConfig {
        let sim = SimConfig::reduced_lj(n_atoms);
        let seed = sim.seed.wrapping_add(self.seed);
        sim.with_seed(seed)
    }

    pub fn default_seed(&self) -> bool {
        self.seed == 0
    }
}

/// One op's wall time, with the host-speed calibration sample taken right
/// after it.
#[derive(Clone, Debug)]
pub struct OpTime {
    pub key: String,
    pub secs: f64,
    pub calib_s: f64,
}

impl OpTime {
    /// The op's time normalised to the reference host's speed.
    pub fn normalised_s(&self) -> f64 {
        crate::stats::normalise(self.secs, self.calib_s)
    }
}

/// One pass over a workload's ops.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub ops: Vec<OpTime>,
    /// Σ atoms × steps over the ops that completed (a 0-step run counts as
    /// one evaluation, i.e. one step).
    pub atom_steps: f64,
    /// Layer numbers measured from this pass's spans (traced passes only).
    pub layer: Vec<(String, f64)>,
}

impl Pass {
    /// The pass's host wall time: the sum of its ops. Checks and
    /// calibration run between ops and are never timed.
    pub fn wall_s(&self) -> f64 {
        self.ops.iter().map(|o| o.secs).sum()
    }

    /// Record an op's wall time, then take one calibration sample, so that
    /// host speed is sampled as often as, and next to, the ops.
    pub fn push_op(&mut self, key: impl Into<String>, secs: f64) {
        self.ops.push(OpTime {
            key: key.into(),
            secs,
            calib_s: crate::stats::calibration_sample(),
        });
    }
}

pub trait Workload {
    /// Run every op once. `tracer` is set in the traced half of a traced
    /// run; the untraced passes run exactly as in an end-to-end run.
    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Pass;

    /// The traced run's layer probes, given its untraced passes.
    fn probes(&mut self, untraced: &[Pass], tally: &mut Tally) -> Vec<(String, f64)>;

    /// Remove anything the workload left on disk.
    fn cleanup(&mut self) {}
}

/// Set up `kind` once: generate inputs, build what the ops need, run one
/// untimed warm-up op.
pub fn setup(kind: Kind, ctx: &Ctx, tally: &mut Tally) -> Box<dyn Workload> {
    match kind {
        Kind::Accel2048 => Box::new(DeviceWorkload::accel_2048(ctx, tally)),
        Kind::OpteronCliff => Box::new(DeviceWorkload::opteron_cliff(ctx, tally)),
        Kind::Campaign => Box::new(Campaign::new(ctx, tally)),
        Kind::Supervised => Box::new(Supervised::new(ctx, tally)),
    }
}
