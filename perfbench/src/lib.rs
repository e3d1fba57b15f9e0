//! The repository benchmark: host wall-clock of the simulator on four
//! workloads, with a separate traced run that splits host time by layer.
//!
//! Simulated seconds, energies, state hashes and simulated counters are
//! behaviour: the benchmark checks them (see [`check`]) and never times
//! them. It drives the program only through public functions and adds no
//! instrumentation inside any crate; every span is recorded here, around
//! the calls into a layer.

pub mod check;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use check::Tally;
use report::{Metric, Report, END_TO_END};
use stats::{median, quantile};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::{Ctx, Kind, OpTime, Pass};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Passes an end-to-end run makes at least, so that every op repeats and
/// every per-op median has three samples.
pub const MIN_PASSES: usize = 3;
/// `op_s.p90` needs at least ten samples beyond it.
pub const P90_MIN_OPS: usize = 100;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run writes its spans and temporary cache directories.
    pub out_dir: PathBuf,
}

/// A finished run: the report plus human-readable lines to print first.
pub struct RunResult {
    pub report: Report,
    pub lines: Vec<String>,
}

/// Run one workload. `started` is when the process started; the first
/// set-up is timed from it.
pub fn run(args: &Args, started: Instant) -> RunResult {
    let ctx = Ctx {
        seed: args.seed,
        out_dir: args.out_dir.clone(),
    };
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut workload: Option<Box<dyn workloads::Workload>> = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { started } else { Instant::now() };
        if let Some(mut old) = workload.take() {
            old.cleanup();
        }
        workload = Some(workloads::setup(args.workload, &ctx, &mut tally));
        setups.push((t0.elapsed().as_secs_f64(), stats::calibration_sample()));
    }
    let mut workload = workload.expect("at least one set-up ran");
    let mut lines = vec![format!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    )];

    let metrics = if args.trace {
        traced(args, &mut *workload, &mut tally, &mut lines)
    } else {
        let t0 = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
            passes.push(workload.pass(&mut tally, None));
        }
        end_to_end(&setups, &passes, &tally, &mut lines)
    };
    workload.cleanup();

    let mut report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: FAILED metric {} is not finite", m.name);
            report.failed += 1;
            m.value = 0.0;
        }
    }
    RunResult { report, lines }
}

/// End-to-end metrics. Every time is normalised to the reference host's
/// speed by the calibration sample taken next to it (see
/// [`stats::normalise`]); the raw host times are printed alongside.
fn end_to_end(
    setups: &[(f64, f64)],
    passes: &[Pass],
    tally: &Tally,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let ops: Vec<&OpTime> = passes.iter().flat_map(|p| &p.ops).collect();
    let mut keys: Vec<&str> = ops.iter().map(|o| o.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    let times = |key: Option<&str>, t: fn(&OpTime) -> f64| -> Vec<f64> {
        ops.iter()
            .filter(|o| key.is_none_or(|k| o.key == k))
            .map(|o| t(o))
            .collect()
    };
    // One pass's wall time, estimated op by op: a burst of host noise then
    // spoils one sample of an op rather than a whole pass.
    let pass_wall =
        |t: fn(&OpTime) -> f64| -> f64 { keys.iter().map(|k| median(&times(Some(k), t))).sum() };
    let raw = |o: &OpTime| o.secs;
    let (wall, raw_wall) = (pass_wall(OpTime::normalised_s), pass_wall(raw));
    let atom_steps = median(&passes.iter().map(|p| p.atom_steps).collect::<Vec<_>>());
    let setup: Vec<f64> = setups
        .iter()
        .map(|&(s, c)| stats::normalise(s, c))
        .collect();
    let raw_setup: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    let op_s = times(None, OpTime::normalised_s);
    let rss = peak_rss_mb();
    let rows = [
        (
            median(&setup),
            median(&raw_setup),
            format!("median of {} set-ups", setups.len()),
        ),
        (
            wall,
            raw_wall,
            format!("sum of per-op medians over {} passes", passes.len()),
        ),
        (
            atom_steps / wall,
            atom_steps / raw_wall,
            "atom-steps of one pass / wall_s".into(),
        ),
        (
            median(&op_s),
            median(&times(None, raw)),
            format!("n={} ops", op_s.len()),
        ),
        (rss, rss, "process high-water RSS".into()),
    ];
    let calib: Vec<f64> = ops.iter().map(|o| o.calib_s).collect();
    lines.push(format!(
        "  times normalised to the reference host: calibration median {:.6} s over {} samples, reference {} s",
        median(&calib),
        calib.len(),
        stats::CALIB_REF_S
    ));
    let mut metrics = Vec::new();
    for (&(name, unit), (value, host, note)) in END_TO_END.iter().zip(rows) {
        lines.push(format!(
            "  {name:<18} {value:>16.6} {unit:<13} (host {host:.6}; {note})"
        ));
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    if op_s.len() >= P90_MIN_OPS {
        lines.push(format!(
            "  {:<18} {:>16.6} {:<13} (n={} ops)",
            "op_s.p90",
            quantile(&op_s, 0.9),
            "s",
            op_s.len()
        ));
    } else {
        lines.push(format!(
            "  {:<18} {:>16} {:<13} (not reported: {} ops < {P90_MIN_OPS})",
            "op_s.p90",
            "-",
            "s",
            op_s.len()
        ));
    }
    for key in keys {
        let host = times(Some(key), raw);
        lines.push(format!(
            "    op {key:<32} host median {:>10.6} s  min {:>10.6} s  max {:>10.6} s  normalised {:>10.6} s  (n={})",
            median(&host),
            quantile(&host, 0.0),
            quantile(&host, 1.0),
            median(&times(Some(key), OpTime::normalised_s)),
            host.len()
        ));
    }
    lines.push(format!(
        "  {:<18} {:>16.6} {:<13} ({} of {} ops failed)",
        "fail_ratio",
        tally.fail_ratio(),
        "ratio",
        tally.failed,
        tally.attempted
    ));
    metrics
}

/// The traced run: untraced and traced passes alternate until the run's
/// seconds are spent, then the layer probes run.
fn traced(
    args: &Args,
    workload: &mut dyn workloads::Workload,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        plain.push(workload.pass(tally, None));
        traced.push(workload.pass(tally, Some(&tracer)));
    }
    let mut values: Vec<(String, f64)> = workload.probes(&plain, tally);
    let mut span_names: Vec<String> = Vec::new();
    for (name, _) in traced.iter().flat_map(|p| &p.layer) {
        if !span_names.contains(name) {
            span_names.push(name.clone());
        }
    }
    for name in span_names {
        let samples: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.layer.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        values.push((name, median(&samples)));
    }
    let wall = |ps: &[Pass]| median(&ps.iter().map(Pass::wall_s).collect::<Vec<_>>());
    values.push(("trace.overhead_s".into(), wall(&traced) - wall(&plain)));

    let spans = args.out_dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    tally.record(
        "write spans",
        tracer.write_json(&spans).map_err(|e| e.to_string()),
    );
    lines.push(format!(
        "  {} spans from {} traced passes written to {}",
        tracer.len(),
        traced.len(),
        spans.display()
    ));

    let mut metrics = Vec::new();
    for (name, unit) in report::per_layer() {
        let value = match values.iter().position(|(n, _)| *n == name) {
            Some(i) => values.remove(i).1,
            None => 0.0,
        };
        lines.push(format!("  {name:<40} {value:>16.6} {unit}"));
        metrics.push(Metric { name, value, unit });
    }
    for (name, _) in values {
        tally.record(
            &format!("metric {name}"),
            Err("produced but not declared".into()),
        );
    }
    lines.push("  layer metric -> should move -> on workload | predicted flat on:".into());
    for (metric, moves, on, flat) in report::MAPPING {
        lines.push(format!("    {metric} -> {moves} -> {on} | {flat}"));
    }
    metrics
}

/// High-water resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
