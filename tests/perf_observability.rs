//! Observability is free, and the attributions reproduce the paper.
//!
//! The sim-perf layer's load-bearing invariant: attaching a `PerfMonitor`
//! to a device run changes *nothing* — the trajectory is bitwise-identical
//! and the simulated clock reads exactly the same. On top of that, the
//! per-run time attribution must partition the run's simulated seconds, and
//! the resulting fractions must reproduce the paper's qualitative claims
//! (transfer-dominated GPU at small N, DMA-overlapped Cell at 8 SPEs,
//! stall-free fully-multithreaded MTA, cache-bound Opteron growth).
//!
//! All devices run through the unified [`MdDevice`](md_core::device::MdDevice)
//! API; "plain" and "counted" runs differ only in `RunOptions::with_perf`.

use harness::{device_metrics, DeviceKind, GpuModel};
use md_core::checkpoint::SystemCheckpoint;
use md_core::device::{DeviceRun, RunOptions};
use md_core::params::SimConfig;
use mta::ThreadingMode;
use proptest::prelude::*;
use sim_perf::PerfMonitor;

const PAPER_ATOMS: usize = 2048;
const PAPER_STEPS: usize = 10;

fn paper_sim() -> SimConfig {
    SimConfig::reduced_lj(PAPER_ATOMS)
}

const GPU: DeviceKind = DeviceKind::Gpu {
    model: GpuModel::GeForce7900Gtx,
};

/// The metrics record of one fault-free run of `kind`.
fn metrics(kind: DeviceKind, sim: &SimConfig) -> sim_perf::RunMetrics {
    device_metrics(kind, sim, PAPER_STEPS)
        .unwrap_or_else(|e| panic!("{}: {e}", kind.label()))
        .0
}

/// Exact bit pattern of a trajectory (positions then velocities).
fn bits(c: &SystemCheckpoint) -> Vec<u64> {
    c.positions
        .iter()
        .chain(c.velocities.iter())
        .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect()
}

/// Run `kind` twice — bare, then with a monitor attached — and assert the
/// monitor observed a busy run without perturbing a single bit of it.
fn assert_counters_free(kind: DeviceKind, sim: &SimConfig, steps: usize) {
    let plain: DeviceRun = kind
        .build()
        .run(sim, RunOptions::steps(steps))
        .expect("plain run");
    let mut perf = PerfMonitor::new();
    let counted: DeviceRun = kind
        .build()
        .run(sim, RunOptions::steps(steps).with_perf(&mut perf))
        .expect("counted run");
    assert_eq!(bits(&plain.checkpoint), bits(&counted.checkpoint));
    assert_eq!(plain.sim_seconds.to_bits(), counted.sim_seconds.to_bits());
    assert_eq!(
        plain.energies.total.to_bits(),
        counted.energies.total.to_bits()
    );
    assert!(!perf.is_empty(), "the counted run must populate counters");
}

#[test]
fn cell_counters_are_free_at_paper_scale() {
    assert_counters_free(DeviceKind::cell_best(), &paper_sim(), PAPER_STEPS);
}

#[test]
fn gpu_counters_are_free_at_paper_scale() {
    let kind = DeviceKind::Gpu {
        model: GpuModel::GeForce7900Gtx,
    };
    assert_counters_free(kind, &paper_sim(), PAPER_STEPS);
}

#[test]
fn mta_counters_are_free_at_paper_scale() {
    for mode in [
        ThreadingMode::FullyMultithreaded,
        ThreadingMode::PartiallyMultithreaded,
    ] {
        assert_counters_free(DeviceKind::Mta { mode }, &paper_sim(), PAPER_STEPS);
    }
}

#[test]
fn opteron_counters_are_free_at_paper_scale() {
    assert_counters_free(DeviceKind::Opteron, &paper_sim(), PAPER_STEPS);
}

/// Every device's attribution partitions its simulated seconds (1e-9
/// relative), and the emitted JSON passes the schema validator.
#[test]
fn attribution_partitions_sim_seconds_on_every_device() {
    let sim = paper_sim();
    let all: Vec<_> = [
        DeviceKind::cell_best(),
        GPU,
        DeviceKind::Opteron,
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
        DeviceKind::Mta {
            mode: ThreadingMode::PartiallyMultithreaded,
        },
    ]
    .into_iter()
    .map(|kind| metrics(kind, &sim))
    .collect();
    assert_eq!(all.len(), 5);
    for m in &all {
        m.validate()
            .unwrap_or_else(|e| panic!("{} attribution broken: {e}", m.device));
        let sum: f64 = m.attribution.iter().map(|(_, s)| s).sum();
        assert!(
            (sum - m.sim_seconds).abs() <= 1e-9 * m.sim_seconds,
            "{}: {sum} != {}",
            m.device,
            m.sim_seconds
        );
        sim_perf::validate_run_metrics_json(&m.to_json())
            .unwrap_or_else(|e| panic!("{} JSON invalid: {e}", m.device));
    }
}

/// Paper, Figure 7: "the overhead associated with beginning a computation on
/// the GPU" plus PCIe transfers make small runs transfer-dominated; by 2048
/// atoms the shader dominates and the GPU is worth it.
#[test]
fn gpu_is_transfer_dominated_at_small_n_and_compute_dominated_at_2048() {
    for n in [256usize, 512] {
        let sim = SimConfig::reduced_lj(n);
        let m = metrics(GPU, &sim);
        let transfer = m.derived_value("transfer_overhead_fraction");
        let compute = m.derived_value("compute_fraction");
        assert!(
            transfer > compute,
            "at N={n} transfer ({transfer:.3}) must dominate compute ({compute:.3})"
        );
    }
    let m = metrics(GPU, &paper_sim());
    let transfer = m.derived_value("transfer_overhead_fraction");
    let compute = m.derived_value("compute_fraction");
    assert!(
        compute > transfer,
        "at N=2048 compute ({compute:.3}) must dominate transfer ({transfer:.3})"
    );
}

/// Paper, Figures 8/9: the Opteron's relative cost of memory grows with the
/// problem — once the arrays outgrow the caches, stall cycles take an
/// ever-larger share of the run.
#[test]
fn opteron_memory_stall_fraction_strictly_increases_with_n() {
    let mut last = 0.0f64;
    for n in [256usize, 512, 1024, 2048] {
        let sim = SimConfig::reduced_lj(n);
        let m = metrics(DeviceKind::Opteron, &sim);
        let f = m.derived_value("memory_stall_fraction");
        assert!(
            f > last,
            "stall fraction must grow: {f:.4} at N={n} after {last:.4}"
        );
        last = f;
    }
}

/// Paper, Table 1: at 8 SPEs the DMA traffic is overlapped with compute —
/// the data moves (the byte counters prove it) but contributes almost
/// nothing to the critical path.
#[test]
fn cell_dma_is_overlapped_at_8_spes() {
    let m = metrics(DeviceKind::cell_best(), &paper_sim());
    assert!(
        m.counter_value("cell.dma.bytes_in") > 0.0,
        "DMA must actually move data"
    );
    let dma = m.derived_value("dma_fraction");
    assert!(
        dma < 0.05,
        "DMA-wait share of an 8-SPE run must be small (overlapped): {dma:.4}"
    );
}

/// Paper, Figure 8: the fully multithreaded MTA run keeps enough streams in
/// flight to hide all memory latency — essentially no phantom (no-op)
/// cycles — while the partially multithreaded run serializes on one stream.
#[test]
fn mta_full_mt_is_stall_free_and_partial_mt_is_not() {
    let sim = paper_sim();
    let full = metrics(
        DeviceKind::Mta {
            mode: ThreadingMode::FullyMultithreaded,
        },
        &sim,
    );
    let partial = metrics(
        DeviceKind::Mta {
            mode: ThreadingMode::PartiallyMultithreaded,
        },
        &sim,
    );
    let full_phantom = full.derived_value("phantom_fraction");
    let partial_phantom = partial.derived_value("phantom_fraction");
    assert!(
        full_phantom < 0.01,
        "fully multithreaded run must be nearly stall-free: {full_phantom:.4}"
    );
    assert!(
        partial_phantom > 0.5,
        "partially multithreaded run must be stall-dominated: {partial_phantom:.4}"
    );
    assert!(full.derived_value("avg_stream_occupancy") > 64.0);
}

proptest! {
    /// Counters are cumulative: every sampled series is monotonically
    /// non-decreasing in both simulated time and value, on an integer-flop
    /// device (Opteron) and a stream device (MTA).
    #[test]
    fn counter_series_are_monotonically_nondecreasing(n in 128usize..320, steps in 1usize..4) {
        let sim = SimConfig::reduced_lj(n);
        let mut monitors = Vec::new();
        for kind in [
            DeviceKind::Opteron,
            DeviceKind::Mta { mode: ThreadingMode::FullyMultithreaded },
        ] {
            let mut perf = PerfMonitor::new();
            kind.build()
                .run(&sim, RunOptions::steps(steps).with_perf(&mut perf))
                .expect("counted run");
            monitors.push(perf);
        }
        for monitor in &monitors {
            prop_assert!(!monitor.is_empty());
            for c in monitor.counters() {
                let mut prev_t = f64::NEG_INFINITY;
                let mut prev_v = f64::NEG_INFINITY;
                prop_assert!(!c.samples().is_empty(), "{} never sampled", c.name);
                for &(t, v) in c.samples() {
                    prop_assert!(
                        t >= prev_t && v >= prev_v,
                        "{} regressed: ({t}, {v}) after ({prev_t}, {prev_v})",
                        c.name
                    );
                    prev_t = t;
                    prev_v = v;
                }
            }
        }
    }
}
