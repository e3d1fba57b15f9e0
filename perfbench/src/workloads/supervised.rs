//! `supervised`: `run_supervised_ledger` with the default policy and a
//! `RunLedger` on the four devices at 2048 atoms × 10 steps, plus one
//! supervised 4-node Opteron cluster with node 2 killed at step 5.

use super::device::committed_at_default_seed;
use super::{Ctx, Pass, Workload};
use crate::check::{state_hash, Outcome, Repeats, Tally};
use crate::stats::{median, SplitMix};
use crate::trace::{TimedDevice, Tracer};
use harness::{
    run_cluster_supervised, run_supervised_ledger, ClusterKind, DeviceKind, SupervisorConfig,
};
use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{MdDevice, RunOptions};
use md_core::params::SimConfig;
use sim_cluster::{ClusterMd, ClusterPolicy, InterconnectModel};
use sim_obs::RunLedger;
use std::collections::BTreeMap;
use std::time::Instant;

const ATOMS: usize = 2048;
const STEPS: usize = 10;
const NODES: usize = 4;
const KILLED_NODE: usize = 2;
const KILL_STEP: u64 = 5;
const DEVICES: [&str; 4] = ["cell-8spe", "gpu-7900gtx", "mta2-full-mt", "opteron"];
/// Repetitions of each traced-run probe.
const PROBE_REPS: usize = 5;

#[derive(Clone, Copy, Debug)]
enum Op {
    Device(DeviceKind),
    /// The 4-node Opteron cluster, with or without the node kill.
    Cluster {
        kill: bool,
    },
}

impl Op {
    fn key(self) -> String {
        match self {
            Op::Device(kind) => kind.label(),
            Op::Cluster { kill: true } => "cluster-4x-opteron.kill".to_string(),
            Op::Cluster { kill: false } => "cluster-4x-opteron.fault-free".to_string(),
        }
    }
}

pub struct Supervised {
    sim: SimConfig,
    ops: Vec<Op>,
    cfg: SupervisorConfig,
    /// Plain fault-free `build()` + `run` outcome per device label.
    plain: BTreeMap<String, Outcome>,
    /// The plain Opteron run's final state, for the checkpoint codec probe.
    plain_opteron_state: Option<SystemCheckpoint>,
    repeats: Repeats,
}

fn kind(label: &str) -> DeviceKind {
    label.parse().expect("roster labels are canonical")
}

/// Plain `build()` + `run`, timed.
fn plain_run(
    kind: DeviceKind,
    sim: &SimConfig,
) -> (f64, Result<md_core::device::DeviceRun, String>) {
    let t0 = Instant::now();
    let run = kind
        .build()
        .run(sim, RunOptions::steps(STEPS))
        .map_err(|e| e.to_string());
    (t0.elapsed().as_secs_f64(), run)
}

/// The cluster of the node-kill op: what `ClusterKind::build` assembles,
/// with every member optionally wrapped in a timing device.
fn build_cluster(tracer: Option<&Tracer>) -> ClusterMd {
    let cluster = ClusterKind::new(DeviceKind::Opteron, NODES);
    let Some(t) = tracer else {
        return cluster.build();
    };
    let member =
        || -> Box<dyn MdDevice> { Box::new(TimedDevice::new(DeviceKind::Opteron.build(), t)) };
    ClusterMd::new(
        (0..cluster.nodes).map(|_| member()).collect(),
        (0..cluster.spares).map(|_| member()).collect(),
        InterconnectModel::paper_2006(),
        ClusterPolicy {
            spares: cluster.spares,
            ..ClusterPolicy::default_policy()
        },
    )
}

impl Supervised {
    pub fn new(ctx: &Ctx, tally: &mut Tally) -> Self {
        let sim = ctx.sim(ATOMS);
        let goldens = committed_at_default_seed(ctx, tally);
        let mut plain = BTreeMap::new();
        let mut plain_opteron_state = None;
        for label in DEVICES {
            let (_, run) = plain_run(kind(label), &sim);
            let outcome = run.and_then(|r| {
                let got = Outcome::of_run(&r);
                if let Some(g) = &goldens {
                    got.matches_golden(
                        g.get(label, ATOMS)
                            .ok_or(format!("no golden for {label}"))?,
                    )?;
                }
                if label == "opteron" {
                    plain_opteron_state = Some(r.checkpoint.clone());
                }
                plain.insert(label.to_string(), got);
                Ok(())
            });
            tally.record(&format!("plain {label}"), outcome);
        }
        let mut ops: Vec<Op> = DEVICES.iter().map(|l| Op::Device(kind(l))).collect();
        ops.push(Op::Cluster { kill: true });
        let mut w = Self {
            sim,
            ops: Vec::new(),
            cfg: SupervisorConfig::default(),
            plain,
            plain_opteron_state,
            repeats: Repeats::default(),
        };
        // Warm-up: one supervised op, untimed but checked.
        let (_, outcome, _) = w.run_op(ops[0], None, true);
        tally.record("warm-up supervised", outcome);
        SplitMix::new(ctx.seed).shuffle(&mut ops);
        w.ops = ops;
        w
    }

    /// Run one op; returns its wall time, its check and the ledger's event
    /// count (0 for the cluster op or when no ledger is attached).
    fn run_op(
        &mut self,
        op: Op,
        tracer: Option<&Tracer>,
        ledger: bool,
    ) -> (f64, Result<(), String>, usize) {
        match op {
            Op::Device(kind) => {
                let label = kind.label();
                let t0 = Instant::now();
                let mut dev: Box<dyn MdDevice> = match tracer {
                    Some(t) => Box::new(TimedDevice::new(kind.build(), t)),
                    None => kind.build(),
                };
                let mut led = RunLedger::new(&label, "perfbench supervised 2048x10");
                let run = run_supervised_ledger(
                    dev.as_mut(),
                    &self.sim,
                    STEPS,
                    &self.cfg,
                    None,
                    ledger.then_some(&mut led),
                );
                drop(dev);
                let secs = t0.elapsed().as_secs_f64();
                let events = led.events().len();
                let got =
                    Outcome::new(run.sim_seconds, &run.energies, &run.checkpoint).with_extra([
                        run.report.attempts,
                        run.report.checkpoints,
                        run.report.restores,
                        events as u64,
                    ]);
                let outcome = self.check(
                    &label,
                    &format!("{label}.ledger={ledger}"),
                    &got,
                    run.report.fell_back,
                );
                (secs, outcome, events)
            }
            Op::Cluster { kill } => {
                let t0 = Instant::now();
                let mut cluster = build_cluster(tracer);
                if kill {
                    cluster.kill_node_at_step(KILLED_NODE, KILL_STEP);
                }
                let rec = run_cluster_supervised(&mut cluster, &self.sim, STEPS, &self.cfg, None);
                drop(cluster);
                let secs = t0.elapsed().as_secs_f64();
                let got = Outcome::new(rec.run.sim_seconds, &rec.run.energies, &rec.run.checkpoint)
                    .with_extra([
                        rec.migrations,
                        rec.run.report.restores,
                        rec.node_events.len() as u64,
                    ]);
                let outcome = if kill && rec.migrations == 0 {
                    Err("the killed node's domain never migrated".to_string())
                } else {
                    self.check("opteron", &op.key(), &got, !rec.recovered_cleanly())
                };
                (secs, outcome, 0)
            }
        }
    }

    /// Supervised results must equal the plain fault-free run and repeat.
    fn check(
        &mut self,
        plain_label: &str,
        key: &str,
        got: &Outcome,
        fell_back: bool,
    ) -> Result<(), String> {
        if fell_back {
            return Err("fell back to the reference device".into());
        }
        let plain = self
            .plain
            .get(plain_label)
            .ok_or(format!("no plain run of {plain_label}"))?;
        got.same_physics(plain)?;
        self.repeats.check(key, got)
    }
}

impl Workload for Supervised {
    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Pass {
        let mut pass = Pass::default();
        let (mut device_s, mut self_s, mut run_calls, mut ledger_events) = (0.0, 0.0, 0u64, 0usize);
        for op in self.ops.clone() {
            let key = op.key();
            let span = tracer.map(|t| {
                t.next_op();
                t.begin(format!("op:{key}"))
            });
            let (secs, outcome, events) = self.run_op(op, tracer, true);
            if let (Some(t), Some(id)) = (tracer, span) {
                t.end(id);
                if matches!(op, Op::Device(_)) {
                    let (dev, calls) = t.descendant_time(id, "device.run");
                    device_s += dev;
                    self_s += t.span(id).dur_s() - dev;
                    run_calls += calls;
                    ledger_events += events;
                }
            }
            pass.push_op(&key, secs);
            if outcome.is_ok() {
                pass.atom_steps += (ATOMS * STEPS) as f64;
            }
            tally.record(&key, outcome);
        }
        if tracer.is_some() {
            pass.layer = vec![
                ("supervisor.device_s".into(), device_s),
                ("supervisor.self_s".into(), self_s),
                ("supervisor.run_calls".into(), run_calls as f64),
                ("sim-obs.ledger_events".into(), ledger_events as f64),
            ];
        }
        pass
    }

    /// Plain runs, supervised runs with and without a ledger, and the
    /// cluster with and without the node kill, interleaved so that host
    /// noise hits every variant alike; then the checkpoint codec.
    fn probes(&mut self, _untraced: &[Pass], tally: &mut Tally) -> Vec<(String, f64)> {
        let mut times: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..PROBE_REPS {
            for label in DEVICES {
                let (secs, run) = plain_run(kind(label), &self.sim);
                times
                    .entry(format!("plain {label}"))
                    .or_default()
                    .push(secs);
                let outcome = run.and_then(|r| {
                    let key = format!("plain {label}");
                    self.check(label, &key, &Outcome::of_run(&r), false)
                });
                tally.record(&format!("probe plain {label}"), outcome);
                for ledger in [true, false] {
                    let key = format!("{label} ledger={ledger}");
                    let (secs, outcome, _) = self.run_op(Op::Device(kind(label)), None, ledger);
                    times.entry(key.clone()).or_default().push(secs);
                    tally.record(&format!("probe {key}"), outcome);
                }
            }
            for kill in [true, false] {
                let op = Op::Cluster { kill };
                let (secs, outcome, _) = self.run_op(op, None, false);
                times.entry(op.key()).or_default().push(secs);
                tally.record(&format!("probe {}", op.key()), outcome);
            }
        }
        let m = |key: &str| median(&times[key]);
        let sum =
            |suffix: &str| -> f64 { DEVICES.iter().map(|l| m(&format!("{l}{suffix}"))).sum() };
        let supervised = sum(" ledger=true");
        let plain: f64 = DEVICES.iter().map(|l| m(&format!("plain {l}"))).sum();
        let killed = m(&Op::Cluster { kill: true }.key());
        let fault_free = m(&Op::Cluster { kill: false }.key());

        let mut codec = Vec::new();
        if let Some(state) = &self.plain_opteron_state {
            for _ in 0..5 {
                let t0 = Instant::now();
                let decoded = SystemCheckpoint::decode(&state.encode());
                codec.push(t0.elapsed().as_secs_f64());
                let outcome = match decoded {
                    Ok(cp) if state_hash(&cp) == state_hash(state) => Ok(()),
                    Ok(_) => Err("checkpoint round trip changed the state".into()),
                    Err(e) => Err(e.to_string()),
                };
                tally.record("probe checkpoint codec", outcome);
            }
        }

        vec![
            ("supervisor.overhead_ratio".into(), supervised / plain),
            ("checkpoint.codec_s".into(), median(&codec)),
            (
                "sim-obs.ledger_overhead_s".into(),
                supervised - sum(" ledger=false"),
            ),
            ("sim-cluster.recover_s".into(), killed - fault_free),
            (
                "sim-cluster.overhead_ratio".into(),
                fault_free / m("opteron ledger=false"),
            ),
        ]
    }
}
