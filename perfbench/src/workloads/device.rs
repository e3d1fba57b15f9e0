//! `accel-2048` and `opteron-cliff`: each op is a fresh `DeviceKind::build`
//! plus a 10-step `MdDevice::run` with serial lanes.

use super::{Ctx, Pass, Workload};
use crate::check::{Goldens, Outcome, Repeats, Tally};
use crate::probes::{self, Flavor};
use crate::stats::{median, SplitMix};
use crate::trace::{TimedDevice, Tracer};
use harness::DeviceKind;
use md_core::device::{counter_total, DeviceRun, MdDevice, RunOptions};
use md_core::params::SimConfig;
use sim_perf::PerfMonitor;
use std::time::Instant;

pub const STEPS: usize = 10;

/// One op: a device at an atom count.
#[derive(Clone, Debug)]
pub struct DeviceOp {
    pub kind: DeviceKind,
    pub sim: SimConfig,
}

impl DeviceOp {
    pub fn key(&self) -> String {
        format!("{}.n{}", self.kind.label(), self.sim.n_atoms)
    }

    /// The device's layer name in metric names.
    fn layer(&self) -> &'static str {
        match self.kind {
            DeviceKind::Cell { .. } | DeviceKind::CellPpe | DeviceKind::CellAccel { .. } => {
                "cell-be"
            }
            DeviceKind::Gpu { .. } => "gpu",
            DeviceKind::Mta { .. } => "mta",
            DeviceKind::Opteron => "opteron",
        }
    }

    /// The shared-evaluation flavor the device's physics runs through.
    fn flavor(&self) -> Flavor {
        match self.kind {
            DeviceKind::Cell { .. } | DeviceKind::CellPpe | DeviceKind::CellAccel { .. } => {
                Flavor::CellRow
            }
            DeviceKind::Gpu { .. } => Flavor::GpuTexel,
            DeviceKind::Mta { .. } | DeviceKind::Opteron => Flavor::HostRow,
        }
    }

    /// Native simulated events the device reports: memory references,
    /// pairs tested, texture fetches, MTA instructions.
    fn events(&self, perf: &PerfMonitor) -> f64 {
        match self.layer() {
            "cell-be" => counter_total(perf, "cell.kernel.pairs_tested"),
            "gpu" => counter_total(perf, "gpu.texture.fetches"),
            "mta" => counter_total(perf, "mta.instructions"),
            _ => {
                counter_total(perf, "opteron.mem.loads") + counter_total(perf, "opteron.mem.stores")
            }
        }
    }

    /// Build the device and run `steps`; the device is dropped inside the
    /// call, so its teardown is part of the op.
    fn run(
        &self,
        steps: usize,
        tracer: Option<&Tracer>,
        perf: Option<&mut PerfMonitor>,
    ) -> Result<DeviceRun, String> {
        let mut dev: Box<dyn MdDevice> = match tracer {
            Some(t) => Box::new(TimedDevice::new(
                t.scope("device.build", || self.kind.build()),
                t,
            )),
            None => self.kind.build(),
        };
        let mut opts = RunOptions::steps(steps);
        if let Some(p) = perf {
            opts = opts.with_perf(p);
        }
        dev.run(&self.sim, opts).map_err(|e| e.to_string())
    }
}

pub const ACCEL_2048: [(&str, usize); 3] = [
    ("cell-8spe", 2048),
    ("gpu-7900gtx", 2048),
    ("mta2-full-mt", 2048),
];
pub const OPTERON_CLIFF: [(&str, usize); 3] =
    [("opteron", 2048), ("opteron", 4096), ("opteron", 8192)];

/// The committed goldens when `ctx` runs the default seed, else none.
pub fn committed_at_default_seed(ctx: &Ctx, tally: &mut Tally) -> Option<Goldens> {
    if !ctx.default_seed() {
        return None;
    }
    Goldens::committed()
        .map_err(|e| tally.record("load goldens", Err(e)))
        .ok()
}

pub struct DeviceWorkload {
    /// Ops in this seed's order.
    ops: Vec<DeviceOp>,
    /// Set at the default seed only.
    goldens: Option<Goldens>,
    repeats: Repeats,
}

impl DeviceWorkload {
    /// The three physics-bound accelerator ports at the paper's size.
    pub fn accel_2048(ctx: &Ctx, tally: &mut Tally) -> Self {
        let goldens = committed_at_default_seed(ctx, tally);
        Self::new(ctx, tally, &ACCEL_2048, goldens)
    }

    /// The Opteron across the Fig 9 cache cliff.
    pub fn opteron_cliff(ctx: &Ctx, tally: &mut Tally) -> Self {
        let goldens = committed_at_default_seed(ctx, tally);
        Self::new(ctx, tally, &OPTERON_CLIFF, goldens)
    }

    /// Set up `roster` (device label, atoms); each op's outputs must match
    /// `goldens` when given. Runs the first op once, untimed, as warm-up.
    pub fn new(
        ctx: &Ctx,
        tally: &mut Tally,
        roster: &[(&str, usize)],
        goldens: Option<Goldens>,
    ) -> Self {
        let mut ops: Vec<DeviceOp> = roster
            .iter()
            .map(|&(label, n)| DeviceOp {
                kind: label.parse().expect("roster labels are canonical"),
                sim: ctx.sim(n),
            })
            .collect();
        let mut w = Self {
            ops: Vec::new(),
            goldens,
            repeats: Repeats::default(),
        };
        let warm = ops[0].clone();
        let outcome = warm.run(STEPS, None, None).and_then(|r| w.check(&warm, &r));
        tally.record(&format!("warm-up {}", warm.key()), outcome);
        SplitMix::new(ctx.seed).shuffle(&mut ops);
        w.ops = ops;
        w
    }

    /// Golden (default seed) and repeat checks for one 10-step op.
    fn check(&mut self, op: &DeviceOp, run: &DeviceRun) -> Result<(), String> {
        if run.checkpoint.step != STEPS as u64 {
            return Err(format!("checkpoint at step {}", run.checkpoint.step));
        }
        let got = Outcome::of_run(run);
        if let Some(g) = &self.goldens {
            let label = op.kind.label();
            let rec = g
                .get(&label, op.sim.n_atoms)
                .ok_or(format!("no golden for {}", op.key()))?;
            got.matches_golden(rec)?;
        }
        self.repeats.check(&op.key(), &got)
    }
}

impl Workload for DeviceWorkload {
    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Pass {
        let mut pass = Pass::default();
        for op in self.ops.clone() {
            let key = op.key();
            let span = tracer.map(|t| {
                t.next_op();
                t.begin(format!("op:{key}"))
            });
            let t0 = Instant::now();
            let result = op.run(STEPS, tracer, None);
            let secs = t0.elapsed().as_secs_f64();
            if let (Some(t), Some(id)) = (tracer, span) {
                t.end(id);
            }
            pass.push_op(&key, secs);
            let outcome = result.and_then(|r| self.check(&op, &r));
            if outcome.is_ok() {
                pass.atom_steps += (op.sim.n_atoms * STEPS) as f64;
            }
            tally.record(&key, outcome);
        }
        pass
    }

    /// Step-difference probes (runs of 0, 1 and 10 steps), native event
    /// counts, kernel timings and, for the Opteron, the memsim replay.
    fn probes(&mut self, _untraced: &[Pass], tally: &mut Tally) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut ops = self.ops.clone();
        ops.sort_by_key(|o| (o.kind.label(), o.sim.n_atoms));
        for op in &ops {
            let n = op.sim.n_atoms;
            let key = op.key();
            let reps = match n {
                0..=2048 => 5,
                2049..=4096 => 3,
                _ => 2,
            };
            let mut times: [Vec<f64>; 3] = Default::default();
            for _ in 0..reps {
                for (slot, steps) in [0usize, 1, STEPS].into_iter().enumerate() {
                    let t0 = Instant::now();
                    let result = op.run(steps, None, None);
                    times[slot].push(t0.elapsed().as_secs_f64());
                    let outcome = result.and_then(|r| {
                        if steps == STEPS {
                            self.check(op, &r)
                        } else {
                            Ok(())
                        }
                    });
                    tally.record(&format!("probe {key} run({steps})"), outcome);
                }
            }
            let [prime, one, ten] = times.map(|t| median(&t));

            // Attaching a monitor must not change the run (free observation).
            let mut perf = PerfMonitor::new();
            let observed = op.run(STEPS, None, Some(&mut perf));
            let events = op.events(&perf);
            let outcome = observed.and_then(|r| self.check(op, &r)).and_then(|()| {
                if events > 0.0 {
                    Ok(())
                } else {
                    Err("no native events counted".into())
                }
            });
            tally.record(&format!("probe {key} with perf monitor"), outcome);

            let flavor = op.flavor();
            let evals: Vec<probes::Eval> = (0..reps)
                .map(|_| probes::time_eval(flavor, &op.sim))
                .collect();
            let eval_s = median(&evals.iter().map(|e| e.seconds).collect::<Vec<_>>());

            let layer = op.layer();
            let sfx = if layer == "opteron" {
                format!(".n{n}")
            } else {
                String::new()
            };
            out.push((format!("{layer}.prime_s{sfx}"), prime));
            out.push((
                format!("{layer}.step_s{sfx}"),
                (ten - one) / (STEPS - 1) as f64,
            ));
            // A 10-step run evaluates forces once to prime and once per step.
            out.push((
                format!("{layer}.replay_share{sfx}"),
                1.0 - (STEPS + 1) as f64 * eval_s / ten,
            ));
            out.push((
                format!("{layer}.host_ns_per_event{sfx}"),
                ten * 1e9 / events,
            ));

            let eval_name = match flavor {
                Flavor::HostRow => format!("shared_eval.host_row.eval_s.n{n}"),
                other => format!("shared_eval.{}.eval_s", other.name()),
            };
            if !out.iter().any(|(name, _)| *name == eval_name) {
                out.push((eval_name, eval_s));
                if flavor == Flavor::HostRow {
                    let e = &evals[0];
                    out.push((
                        format!("shared_eval.interacting_ratio.n{n}"),
                        e.interactions as f64 / e.pairs as f64,
                    ));
                }
            }
            if layer == "opteron" {
                let replays: Vec<(u64, f64)> = (0..reps.min(3))
                    .map(|_| probes::time_memsim_replay(n))
                    .collect();
                let rate: Vec<f64> = replays.iter().map(|(a, s)| *a as f64 / s).collect();
                out.push((format!("memsim.accesses_per_s.n{n}"), median(&rate)));
                // run(1) = prime + first step: two evaluations, two cold
                // replays.
                out.push((format!("memsim.cold_replay_s.n{n}"), one - 2.0 * eval_s));
            }
        }
        out
    }
}
