//! Physics-once execution gate (DESIGN.md §17) at paper scale
//! (2048 atoms, 10 steps).
//!
//! The contract under test: every device's eval memo — the shared wide
//! evaluator that computes each evaluation's physics once and replays the
//! cost interpretation — is purely a host wall-clock knob. Positions,
//! velocities, energies, simulated seconds, time attribution, perf
//! counters, and fault ledgers are bit-identical between a memoized run
//! (the default, [`DeviceKind::build`]) and the interpretive per-pair
//! baseline ([`DeviceKind::build_baseline`]), at every host thread count,
//! under fault injection, and across scenario flavors (Morse/NVT, mixed
//! precision). f32 devices widen losslessly to f64 at checkpoint capture,
//! so [`SystemCheckpoint`](md_core::checkpoint::SystemCheckpoint) equality
//! is a bitwise trajectory comparison. The same holds for supervised runs,
//! whose segments restart the device and so re-enter its trace memo.

use harness::{run_supervised_ledger, DeviceKind, GpuModel, SupervisedRun, SupervisorConfig};
use md_core::device::{DeviceRun, MdDevice, PerfMonitor, RunOptions};
use md_core::params::SimConfig;
use md_core::scenario::{PrecisionPolicy, ScenarioSpec};
use mta::ThreadingMode;
use sim_cluster::{ClusterMd, ClusterPolicy, InterconnectModel};
use sim_fault::FaultPlan;
use sim_obs::RunLedger;

const PAPER_ATOMS: usize = 2048;
const PAPER_STEPS: usize = 10;
/// Thread counts to pit against the serial memo-off baseline. 1 exercises
/// the `from_threads` collapse to the serial path; 8 oversubscribes most
/// hosts, which must change nothing.
const THREADS: [usize; 3] = [1, 2, 8];

fn all_devices() -> [DeviceKind; 4] {
    [
        DeviceKind::Opteron,
        DeviceKind::cell_best(),
        DeviceKind::Gpu {
            model: GpuModel::GeForce7900Gtx,
        },
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
    ]
}

fn run_with(
    mut dev: Box<dyn MdDevice>,
    sim: &SimConfig,
    steps: usize,
    threads: usize,
) -> (DeviceRun, Vec<(String, f64)>) {
    let mut perf = PerfMonitor::new();
    let run = dev
        .run(
            sim,
            RunOptions::steps(steps)
                .with_perf(&mut perf)
                .with_host_threads(threads),
        )
        .expect("run succeeds");
    let counters = perf
        .counters()
        .iter()
        .map(|c| (c.name.clone(), c.value()))
        .collect();
    (run, counters)
}

/// Every observable of the run must be *equal*, not merely close.
fn assert_bitwise_equal(baseline: &DeviceRun, memo: &DeviceRun, ctx: &str) {
    assert_eq!(
        baseline.sim_seconds.to_bits(),
        memo.sim_seconds.to_bits(),
        "{ctx}: simulated seconds drifted"
    );
    assert_eq!(baseline.energies, memo.energies, "{ctx}: energies drifted");
    assert_eq!(
        baseline.checkpoint, memo.checkpoint,
        "{ctx}: trajectory drifted"
    );
    assert_eq!(
        baseline.attribution, memo.attribution,
        "{ctx}: time attribution drifted"
    );
    assert_eq!(
        baseline.derived, memo.derived,
        "{ctx}: derived metrics drifted"
    );
    assert_eq!(
        baseline.ops.to_bits(),
        memo.ops.to_bits(),
        "{ctx}: ops drifted"
    );
    assert_eq!(
        baseline.bytes_moved.to_bits(),
        memo.bytes_moved.to_bits(),
        "{ctx}: bytes_moved drifted"
    );
    assert_eq!(baseline.faults, memo.faults, "{ctx}: fault ledger drifted");
}

#[test]
fn memoized_runs_match_interpretive_baseline_bitwise() {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    for kind in all_devices() {
        let (base, base_counters) = run_with(kind.build_baseline(), &sim, PAPER_STEPS, 1);
        assert!(base.sim_seconds > 0.0, "{}", kind.label());
        for t in THREADS {
            let ctx = format!("{} memo-on at {t} host threads", kind.label());
            let (memo, memo_counters) = run_with(kind.build(), &sim, PAPER_STEPS, t);
            assert_bitwise_equal(&base, &memo, &ctx);
            assert_eq!(base_counters, memo_counters, "{ctx}: counters drifted");
        }
    }
}

/// Scenario flavors exercise every branch of the shared evaluator: the
/// Morse/NVT substrate (different pair expression, thermostat pass) and the
/// mixed-precision policy (f64 accumulators on the f32 devices).
#[test]
fn scenario_flavors_match_bitwise() {
    for spec in [
        ScenarioSpec::morse_nvt(),
        ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
    ] {
        let sim = SimConfig::reduced_lj(512).with_scenario(spec);
        for kind in all_devices() {
            let ctx = format!("{} @ {}", kind.label(), sim.scenario_token());
            let (base, base_counters) = run_with(kind.build_baseline(), &sim, 5, 1);
            let (memo, memo_counters) = run_with(kind.build(), &sim, 5, 2);
            assert_bitwise_equal(&base, &memo, &ctx);
            assert_eq!(base_counters, memo_counters, "{ctx}: counters drifted");
        }
    }
}

/// Fault schedules key off the simulated run structure (eval/lane/site),
/// which the memo never changes: the injected-fault ledger and the
/// recovered trajectory must be identical with the memo on or off.
#[test]
fn fault_injected_memoized_runs_match_baseline() {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    for kind in all_devices() {
        let plan = FaultPlan::new(2024, 0.02);
        let ctx = format!("faulted {}", kind.label());
        let (base, base_counters) =
            run_with(kind.build_baseline_faulted(plan), &sim, PAPER_STEPS, 1);
        let (memo, memo_counters) = run_with(kind.build_faulted(plan), &sim, PAPER_STEPS, 2);
        assert_bitwise_equal(&base, &memo, &ctx);
        assert_eq!(base_counters, memo_counters, "{ctx}: counters drifted");
        assert!(
            memo.faults.injected > 0,
            "{}: plan injected nothing — the comparison is vacuous",
            kind.label()
        );
    }
}

/// A supervised paper-scale run of `dev` with its ledger's JSONL.
fn supervised(dev: &mut dyn MdDevice) -> (SupervisedRun, String) {
    let sim = SimConfig::reduced_lj(PAPER_ATOMS);
    let mut ledger = RunLedger::new(&dev.label(), "supervised 2048x10");
    let run = run_supervised_ledger(
        dev,
        &sim,
        PAPER_STEPS,
        &SupervisorConfig::default(),
        None,
        Some(&mut ledger),
    );
    (run, ledger.to_jsonl())
}

/// Everything a supervised run reports must be equal, not merely close.
fn assert_supervised_bitwise(
    baseline: &(SupervisedRun, String),
    memo: &(SupervisedRun, String),
    ctx: &str,
) {
    let ((base, base_ledger), (run, ledger)) = (baseline, memo);
    assert_eq!(
        base.sim_seconds.to_bits(),
        run.sim_seconds.to_bits(),
        "{ctx}: simulated seconds drifted"
    );
    assert_eq!(base.energies, run.energies, "{ctx}: energies drifted");
    assert_eq!(base.checkpoint, run.checkpoint, "{ctx}: trajectory drifted");
    let segments = |r: &SupervisedRun| -> Vec<_> {
        r.report
            .segments
            .iter()
            .map(|s| {
                let counters: Vec<_> = s
                    .counters
                    .iter()
                    .map(|(name, value, unit)| (name.clone(), value.to_bits(), *unit))
                    .collect();
                (s.start_step, s.steps, s.sim_seconds.to_bits(), counters)
            })
            .collect()
    };
    assert_eq!(
        segments(base),
        segments(run),
        "{ctx}: segment counters drifted"
    );
    assert_eq!(
        base.report.events, run.report.events,
        "{ctx}: recovery drifted"
    );
    assert_eq!(base_ledger, ledger, "{ctx}: ledger drifted");
}

/// Every segment restarts the device from a reset cache, so the Opteron's
/// trace memo is re-entered from its cold and steady entries on each one:
/// plain, through fault retries, and on a cluster's physics node across a
/// node kill.
#[test]
fn supervised_memoized_runs_match_baseline() {
    let opteron = DeviceKind::Opteron;
    let plain = supervised(opteron.build_baseline().as_mut());
    assert_supervised_bitwise(&plain, &supervised(opteron.build().as_mut()), "opteron");

    // Seed 11 at rate 0.5 exhausts two segments' retry budgets, and the
    // retries recover without falling back.
    let plan = FaultPlan::new(11, 0.5);
    let faulted = supervised(opteron.build_baseline_faulted(plan).as_mut());
    assert_eq!(faulted.0.report.restores, 2, "the plan must force retries");
    assert!(!faulted.0.report.fell_back);
    let memo = supervised(opteron.build_faulted(plan).as_mut());
    assert_supervised_bitwise(&faulted, &memo, "faulted opteron");

    let cluster = |member: fn(DeviceKind) -> Box<dyn MdDevice>| {
        let policy = ClusterPolicy::default_policy();
        let mut c = ClusterMd::new(
            (0..4).map(|_| member(opteron)).collect(),
            (0..policy.spares).map(|_| member(opteron)).collect(),
            InterconnectModel::paper_2006(),
            policy,
        );
        c.kill_node_at_step(2, 5);
        supervised(&mut c)
    };
    let killed = cluster(DeviceKind::build_baseline);
    assert!(killed.0.report.restores > 0, "the kill must force a retry");
    assert_supervised_bitwise(&killed, &cluster(DeviceKind::build), "4-node cluster");
}
