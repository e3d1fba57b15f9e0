//! Bitwise pin of every device run the factory can build.
//!
//! For each kind in [`harness::DeviceKind::parseable_roster`] at 256 atoms ×
//! 3 steps (0 steps for the Figure 5 probe), plus armed fault plans, the
//! Morse/NVT scenario, the Cell's tiled, double-precision and traced
//! paths, and the f64 devices at 512 atoms, this pins everything a run reports: the canonical ledger lines,
//! the `collect_metrics` record, ops and bytes moved, the fault statistics,
//! the energies, and an FNV-1a hash of the final checkpoint.
//!
//! `tests/golden/device_runs.json` holds one row per line. Regenerate — only
//! when a drift is *intended* — with
//! `UPDATE_GOLDEN=1 cargo test --test device_runs`.

use cell_be::{CellBeDevice, CellRun, CellRunConfig};
use harness::DeviceKind;
use md_core::checkpoint::fnv1a;
use md_core::device::{collect_metrics, DeviceError, DeviceRun, MdDevice, RunOptions};
use md_core::observables::EnergyReport;
use md_core::params::SimConfig;
use md_core::scenario::ScenarioSpec;
use sim_fault::{FaultPlan, FaultStats};
use sim_obs::RunLedger;
use sim_perf::PerfMonitor;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/device_runs.json");
const ATOMS: usize = 256;
const STEPS: usize = 3;
/// 512 atoms span 3 cutoff-wide bins per box edge, the fewest the binned
/// host rows use (256 atoms span 2, which takes the per-row path).
const BINNED_ATOMS: usize = 512;
/// Fault plans from light (every site recovers) to heavy (sites exhaust).
const PLANS: [(&str, u64, f64); 3] = [
    ("armed", 7, 0.2),
    ("armed-mid", 11, 0.4),
    ("armed-heavy", 3, 0.6),
];

fn hex(x: f64) -> String {
    format!("\"{:016x}\"", x.to_bits())
}

fn energies_json(e: &EnergyReport) -> String {
    format!(
        "{{\"kinetic\": {}, \"potential\": {}, \"total\": {}, \"temperature\": {}}}",
        hex(e.kinetic),
        hex(e.potential),
        hex(e.total),
        hex(e.temperature)
    )
}

fn faults_json(f: &FaultStats) -> String {
    format!(
        "{{\"injected\": {}, \"retries\": {}, \"exhausted\": {}, \"extra_seconds\": {}}}",
        f.injected,
        f.retries,
        f.exhausted,
        hex(f.extra_seconds)
    )
}

/// Collapse a pretty-printed JSON document onto one line.
fn one_line(json: &str) -> String {
    json.lines().map(str::trim).collect()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Run one device through the trait with a monitor and a ledger attached,
/// and render everything it reports as one golden row.
fn device_row(id: &str, mut dev: Box<dyn MdDevice>, sim: &SimConfig, steps: usize) -> String {
    let label = dev.label();
    let mut perf = PerfMonitor::new();
    let mut ledger = RunLedger::new(&label, "device_runs");
    let result: Result<DeviceRun, DeviceError> = dev.run(
        sim,
        RunOptions::steps(steps)
            .with_perf(&mut perf)
            .with_ledger(&mut ledger),
    );
    let ledger_lines = ledger.canonical_lines().join(", ");
    let body = match result {
        Ok(run) => {
            let metrics = collect_metrics(dev.as_ref(), &run, sim.n_atoms, steps, &perf);
            format!(
                "\"result\": \"ok\", \"sim_seconds\": {}, \"energies\": {}, \"checkpoint_step\": {}, \
                 \"checkpoint_fnv1a\": \"{:016x}\", \"ops\": {}, \"bytes_moved\": {}, \"faults\": {}, \
                 \"metrics\": {}",
                hex(run.sim_seconds),
                energies_json(&run.energies),
                run.checkpoint.step,
                fnv1a(&run.checkpoint.encode()),
                hex(run.ops),
                hex(run.bytes_moved),
                faults_json(&run.faults),
                one_line(&metrics.to_json()),
            )
        }
        Err(e) => format!("\"result\": {}", json_str(&format!("error: {e}"))),
    };
    format!(
        "{{\"row\": {}, \"label\": {}, \"scenario\": {}, \"steps\": {steps}, {body}, \"ledger\": [{ledger_lines}]}}",
        json_str(id),
        json_str(&label),
        json_str(&sim.scenario.cache_token()),
    )
}

/// Render a Cell-internal run (the paths that have no factory kind).
fn cell_row(id: &str, run: Result<CellRun, DeviceError>, extra: &str) -> String {
    let body = match run {
        Ok(r) => {
            let b = r.breakdown;
            let k = r.kernel_stats;
            format!(
                "\"result\": \"ok\", \"sim_seconds\": {}, \"breakdown\": {{\"spawn\": {}, \"dma\": {}, \
                 \"compute\": {}, \"mailbox\": {}, \"ppe\": {}}}, \"energies\": {}, \
                 \"kernel\": {{\"pairs_tested\": {}, \"interactions\": {}, \"cycles\": {}}}",
                hex(r.sim_seconds),
                hex(b.spawn),
                hex(b.dma),
                hex(b.compute),
                hex(b.mailbox),
                hex(b.ppe),
                energies_json(&r.energies),
                k.pairs_tested,
                k.interactions,
                hex(k.cycles),
            )
        }
        Err(e) => format!("\"result\": {}", json_str(&format!("error: {e}"))),
    };
    format!("{{\"row\": {}, {body}{extra}}}", json_str(id))
}

fn traced_row(id: &str, device: &CellBeDevice, sim: &SimConfig) -> String {
    let mut tracer = mdea_trace::Tracer::new();
    let run = device.run_md_traced(sim, STEPS, CellRunConfig::best(), &mut tracer);
    let extra = format!(
        ", \"trace_fnv1a\": \"{:016x}\"",
        fnv1a(tracer.to_chrome_json().as_bytes())
    );
    cell_row(id, run, &extra)
}

/// The four architectures the paper ports the kernel to, plus a Cell
/// configuration off the parse grammar (respawning threads, scalar kernel).
fn paper_four() -> Vec<DeviceKind> {
    vec![
        DeviceKind::cell_best(),
        DeviceKind::Cell {
            n_spes: 3,
            policy: cell_be::SpawnPolicy::RespawnEveryStep,
            variant: cell_be::SpeKernelVariant::Copysign,
        },
        DeviceKind::Gpu {
            model: harness::GpuModel::GeForce7900Gtx,
        },
        DeviceKind::Mta {
            mode: mta::ThreadingMode::FullyMultithreaded,
        },
        DeviceKind::Opteron,
    ]
}

/// Every row this build can compute, keyed by row id.
fn rows() -> Vec<(String, String)> {
    let sim = SimConfig::reduced_lj(ATOMS);
    let mut out = Vec::new();
    let mut push = |id: String, row: String| out.push((id, row));

    for kind in DeviceKind::parseable_roster() {
        let steps = if matches!(kind, DeviceKind::CellAccel { .. }) {
            0
        } else {
            STEPS
        };
        let id = kind.label();
        push(id.clone(), device_row(&id, kind.build(), &sim, steps));
    }

    let morse = sim.with_scenario(ScenarioSpec::morse_nvt());
    for kind in paper_four().into_iter().chain([DeviceKind::CellPpe]) {
        let id = format!("morse-nvt:{}", kind.label());
        push(id.clone(), device_row(&id, kind.build(), &morse, STEPS));
    }

    let binned = SimConfig::reduced_lj(BINNED_ATOMS);
    let binned_morse = binned.with_scenario(ScenarioSpec::morse_nvt());
    for (kind, sim) in [
        (DeviceKind::Opteron, &binned),
        (
            DeviceKind::Mta {
                mode: mta::ThreadingMode::FullyMultithreaded,
            },
            &binned,
        ),
        (DeviceKind::Opteron, &binned_morse),
    ] {
        let id = format!(
            "n{BINNED_ATOMS}:{}:{}",
            sim.scenario.cache_token(),
            kind.label()
        );
        push(id.clone(), device_row(&id, kind.build(), sim, STEPS));
    }

    let respawn = paper_four()[1];
    let id = format!("{respawn:?}");
    push(id.clone(), device_row(&id, respawn.build(), &sim, STEPS));

    for (name, seed, rate) in PLANS {
        for kind in paper_four() {
            let id = format!("{name}:{kind:?}");
            let dev = kind.build_faulted(FaultPlan::new(seed, rate));
            push(id.clone(), device_row(&id, dev, &sim, STEPS));
        }
    }

    let blade = CellBeDevice::paper_blade();
    let best = CellRunConfig::best();
    for tile in [64usize, 100] {
        let id = format!("cell-tiled:{tile}");
        push(
            id.clone(),
            cell_row(&id, blade.run_md_tiled(&sim, STEPS, best, tile), ""),
        );
    }
    let id = "cell-double".to_string();
    push(
        id.clone(),
        cell_row(&id, blade.run_md_double(&sim, STEPS, best), ""),
    );
    let id = "cell-double:morse-nvt".to_string();
    push(
        id.clone(),
        cell_row(&id, blade.run_md_double(&morse, STEPS, best), ""),
    );
    let id = "cell-tiled:morse-nvt".to_string();
    push(
        id.clone(),
        cell_row(&id, blade.run_md_tiled(&morse, STEPS, best, 64), ""),
    );
    let id = "cell-traced".to_string();
    push(id.clone(), traced_row(&id, &blade, &sim));
    for (name, seed, rate) in PLANS {
        let id = format!("{name}:cell-traced");
        let device = CellBeDevice::paper_blade().with_fault_plan(FaultPlan::new(seed, rate));
        push(id.clone(), traced_row(&id, &device, &sim));
    }

    for (name, strategy) in [
        ("cpu-readback", gpu::ReductionStrategy::CpuReadback),
        ("gpu-multipass", gpu::ReductionStrategy::GpuMultiPass),
    ] {
        let r = gpu::GpuMdSimulation::geforce_7900gtx()
            .run_md_with(&sim, STEPS, strategy)
            .expect("GPU run");
        let b = r.breakdown;
        let id = format!("gpu-strategy:{name}");
        let row = format!(
            "{{\"row\": {}, \"sim_seconds\": {}, \"startup_seconds\": {}, \"breakdown\": {{\"upload\": {}, \
             \"shader\": {}, \"dispatch_overhead\": {}, \"readback\": {}, \"cpu\": {}, \"gpu_reduction\": {}}}, \
             \"energies\": {}, \"total_ops\": {}}}",
            json_str(&id),
            hex(r.sim_seconds),
            hex(r.startup_seconds),
            hex(b.upload),
            hex(b.shader),
            hex(b.dispatch_overhead),
            hex(b.readback),
            hex(b.cpu),
            hex(b.gpu_reduction),
            energies_json(&r.energies),
            r.total_ops,
        );
        push(id, row);
    }
    out
}

fn render(rows: &[(String, String)]) -> String {
    let mut out = String::from("{\"schema\": \"device-runs-v1\", \"rows\": [\n");
    for (i, (_, row)) in rows.iter().enumerate() {
        out.push_str(row);
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[test]
fn every_device_run_matches_the_golden_file() {
    let rows = rows();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, render(&rows)).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("read tests/golden/device_runs.json (generate with UPDATE_GOLDEN=1)");
    sim_perf::parse_json(&golden).expect("golden file is valid JSON");
    let golden_rows: Vec<&str> = golden
        .lines()
        .filter(|l| l.starts_with("{\"row\": "))
        .map(|l| l.trim_end_matches(','))
        .collect();
    for (id, row) in &rows {
        let prefix = format!("{{\"row\": {}, ", json_str(id));
        let want = golden_rows
            .iter()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("row {id} missing from tests/golden/device_runs.json"));
        assert_eq!(row, want, "row {id} drifted from the golden file");
    }
    assert_eq!(
        rows.len(),
        golden_rows.len(),
        "every golden row is computed"
    );
}

/// Bad input is a typed `Unsupported` error at the driver boundary, never a
/// panic: an invalid `SimConfig` on every device, Cell `n_spes` outside
/// `1..=8`, and a zero tile size.
#[test]
fn bad_input_is_a_typed_error_on_every_device() {
    // Cutoff 2.5 exceeds half the 16-atom box (1.33).
    let tiny = SimConfig::reduced_lj(16);
    assert!(tiny.try_validate().is_err());
    let sim = SimConfig::reduced_lj(ATOMS);
    let mut cases: Vec<(DeviceKind, SimConfig)> = DeviceKind::parseable_roster()
        .into_iter()
        .map(|kind| (kind, tiny))
        .collect();
    for n_spes in [0, 9] {
        let kind = DeviceKind::cell(CellRunConfig {
            n_spes,
            ..CellRunConfig::best()
        });
        cases.push((kind, sim));
    }
    for (kind, sim) in cases {
        let steps = if matches!(kind, DeviceKind::CellAccel { .. }) {
            0
        } else {
            1
        };
        let result = kind.build().run(&sim, RunOptions::steps(steps));
        assert!(
            matches!(result, Err(DeviceError::Unsupported(_))),
            "{kind:?} on {} atoms: {result:?}",
            sim.n_atoms
        );
    }
    let tiled = CellBeDevice::paper_blade().run_md_tiled(&sim, 1, CellRunConfig::best(), 0);
    assert!(
        matches!(tiled, Err(DeviceError::Unsupported(_))),
        "{tiled:?}"
    );
}
