//! Device harness: names every simulated machine, runs it, supervises it,
//! and collects its metrics. The paper's tables and figures are built on
//! top of this crate by the sweep engine (`crates/sim-sweep`), which owns
//! each artifact's spec, typed rows and renderer.
//!
//! | Module | Owns |
//! |---|---|
//! | [`device`] | [`DeviceKind`], the single construction point for every simulated machine |
//! | [`cluster`] | [`ClusterKind`] and supervised cluster runs with node recovery |
//! | [`supervisor`] | checkpoint/retry/fallback supervision of one device run |
//! | [`perf`] | the one run-and-collect path ([`device_metrics`]) and run ledgers |
//! | [`report`] | aligned tables and CSV output under `results/` |
//! | [`error`] | [`HarnessError`] |
//!
//! Devices are named by [`device::DeviceKind`] and driven uniformly through
//! [`md_core::device::MdDevice`]; [`device::DeviceKind::build`] is the single
//! construction point for every simulated machine.

pub mod cluster;
pub mod device;
pub mod error;
pub mod perf;
pub mod report;
pub mod supervisor;

pub use cluster::{run_cluster_supervised, ClusterKind, ClusterRecovery};
pub use device::{DeviceKind, GpuModel};
pub use error::HarnessError;
pub use perf::{
    cluster_ledger, cluster_metrics, device_baseline_metrics_host, device_ledger, device_metrics,
    device_metrics_host, device_metrics_par, record_host_throughput_ledger, workload_label,
    write_metrics_json, write_metrics_json_in,
};
pub use report::{emit_figure, write_csv, Table};
pub use supervisor::{
    run_supervised, run_supervised_ledger, run_supervised_strict, RecoveryEvent, RecoveryReport,
    SegmentCounters, SupervisedRun, SupervisorConfig, SUPERVISOR_TRACK,
};

/// Atoms in the paper's standard workload.
pub const PAPER_ATOMS: usize = 2048;
/// Time steps in the paper's standard workload.
pub const PAPER_STEPS: usize = 10;
