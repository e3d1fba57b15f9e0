//! The six experiments of the paper's evaluation section.
//!
//! Every experiment names its machines as [`DeviceKind`] values and drives
//! them through the unified [`MdDevice`](md_core::device::MdDevice) run API —
//! no per-experiment device construction. Fallible experiments return a typed
//! [`HarnessError`] instead of panicking; the figure binaries map errors to
//! nonzero exit codes. [`faulted`] provides supervised variants of every
//! experiment that complete under injected device faults.

use crate::device::{DeviceKind, GpuModel};
use crate::error::HarnessError;
use cell_be::{SpawnPolicy, SpeKernelVariant};
use md_core::device::{DeviceRun, RunOptions};
use md_core::params::SimConfig;
use mta::{MtaConfig, MtaMd, ThreadingMode};

/// The paper's standard workload: 2048 atoms, 10 time steps.
pub const PAPER_ATOMS: usize = 2048;
pub const PAPER_STEPS: usize = 10;

/// Run one device kind for `steps` from the standard lattice.
fn run_kind(kind: DeviceKind, sim: &SimConfig, steps: usize) -> Result<DeviceRun, HarnessError> {
    kind.build()
        .run(sim, RunOptions::steps(steps))
        .map_err(HarnessError::from)
}

/// Seconds charged to one attribution bucket of a run (0 if absent).
fn attribution_seconds(run: &DeviceRun, name: &str) -> f64 {
    run.attribution
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, s)| s)
}

// ---------------------------------------------------------------- Figure 5

/// One bar of Figure 5: an optimization stage and the simulated runtime of
/// one acceleration-function invocation (2048 atoms, 1 SPE).
#[derive(Clone, Debug)]
pub struct Fig5Row {
    pub variant: SpeKernelVariant,
    pub label: &'static str,
    pub seconds: f64,
}

/// Figure 5: SIMD optimization ladder on a single SPE.
pub fn fig5(n_atoms: usize) -> Result<Vec<Fig5Row>, HarnessError> {
    let sim = SimConfig::reduced_lj(n_atoms);
    SpeKernelVariant::ALL
        .iter()
        .map(|&variant| {
            let probe = run_kind(DeviceKind::CellAccel { variant }, &sim, 0)?;
            Ok(Fig5Row {
                variant,
                label: variant.label(),
                seconds: probe.sim_seconds,
            })
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 6

/// One bar pair of Figure 6: total runtime and the part spent launching SPE
/// threads.
#[derive(Clone, Debug)]
pub struct Fig6Case {
    pub label: String,
    pub n_spes: usize,
    pub policy: SpawnPolicy,
    pub total_seconds: f64,
    pub launch_seconds: f64,
}

impl Fig6Case {
    pub fn launch_fraction(&self) -> f64 {
        self.launch_seconds / self.total_seconds
    }

    fn from_run(n_spes: usize, policy: SpawnPolicy, run: &DeviceRun) -> Self {
        let policy_label = match policy {
            SpawnPolicy::RespawnEveryStep => "respawn every time step",
            SpawnPolicy::LaunchOnce => "launch only first time step",
        };
        Fig6Case {
            label: format!(
                "{n_spes} SPE{}, {policy_label}",
                if n_spes > 1 { "s" } else { "" }
            ),
            n_spes,
            policy,
            total_seconds: run.sim_seconds,
            launch_seconds: attribution_seconds(run, "spe_spawn"),
        }
    }
}

/// The four Figure 6 device configurations, policy-major.
fn fig6_grid() -> Vec<(usize, SpawnPolicy)> {
    let mut grid = Vec::new();
    for policy in [SpawnPolicy::RespawnEveryStep, SpawnPolicy::LaunchOnce] {
        for n_spes in [1usize, 8] {
            grid.push((n_spes, policy));
        }
    }
    grid
}

/// Figure 6: SPE thread-launch overhead, {1, 8} SPEs × {respawn, launch-once}.
pub fn fig6(n_atoms: usize, steps: usize) -> Result<Vec<Fig6Case>, HarnessError> {
    let sim = SimConfig::reduced_lj(n_atoms);
    fig6_grid()
        .into_iter()
        .map(|(n_spes, policy)| {
            let kind = DeviceKind::Cell {
                n_spes,
                policy,
                variant: SpeKernelVariant::SimdAcceleration,
            };
            let run = run_kind(kind, &sim, steps)?;
            Ok(Fig6Case::from_run(n_spes, policy, &run))
        })
        .collect()
}

// ---------------------------------------------------------------- Table 1

/// Table 1: total runtime for 2048 atoms, 10 time steps.
#[derive(Clone, Debug)]
pub struct Table1Data {
    pub n_atoms: usize,
    pub steps: usize,
    pub opteron_seconds: f64,
    pub cell_1spe_seconds: f64,
    pub cell_8spe_seconds: f64,
    pub cell_ppe_seconds: f64,
}

impl Table1Data {
    /// Paper: "better than 5x performance improvement relative to the Opteron".
    pub fn speedup_8spe_vs_opteron(&self) -> f64 {
        self.opteron_seconds / self.cell_8spe_seconds
    }
    /// Paper: "26x faster than the PPE alone".
    pub fn speedup_8spe_vs_ppe(&self) -> f64 {
        self.cell_ppe_seconds / self.cell_8spe_seconds
    }
    /// Paper: "even a single SPE just edges out the Opteron".
    pub fn speedup_1spe_vs_opteron(&self) -> f64 {
        self.opteron_seconds / self.cell_1spe_seconds
    }
}

/// Table 1: performance comparison of MD calculations.
pub fn table1(n_atoms: usize, steps: usize) -> Result<Table1Data, HarnessError> {
    let sim = SimConfig::reduced_lj(n_atoms);
    let opteron = run_kind(DeviceKind::Opteron, &sim, steps)?;
    let one = run_kind(DeviceKind::cell_single_spe(), &sim, steps)?;
    let eight = run_kind(DeviceKind::cell_best(), &sim, steps)?;
    let ppe = run_kind(DeviceKind::CellPpe, &sim, steps)?;
    Ok(Table1Data {
        n_atoms,
        steps,
        opteron_seconds: opteron.sim_seconds,
        cell_1spe_seconds: one.sim_seconds,
        cell_8spe_seconds: eight.sim_seconds,
        cell_ppe_seconds: ppe.sim_seconds,
    })
}

// ---------------------------------------------------------------- Figure 7

/// One x-position of Figure 7: runtimes at a given atom count.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    pub n_atoms: usize,
    pub opteron_seconds: f64,
    pub gpu_seconds: f64,
}

/// Figure 7: GPU vs Opteron total runtime across atom counts (GPU startup
/// excluded, per-step transfer costs included — exactly the paper's
/// accounting).
pub fn fig7(atom_counts: &[usize], steps: usize) -> Vec<Fig7Row> {
    atom_counts
        .iter()
        .map(|&n| {
            let sim = SimConfig::reduced_lj(n);
            let opteron = run_kind(DeviceKind::Opteron, &sim, steps)
                .expect("the Opteron reference device is infallible");
            let gpu = run_kind(
                DeviceKind::Gpu {
                    model: GpuModel::GeForce7900Gtx,
                },
                &sim,
                steps,
            )
            .expect("the GPU device model is infallible");
            Fig7Row {
                n_atoms: n,
                opteron_seconds: opteron.sim_seconds,
                gpu_seconds: gpu.sim_seconds,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 8

/// One x-position of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    pub n_atoms: usize,
    pub fully_mt_seconds: f64,
    pub partially_mt_seconds: f64,
}

/// Figure 8: fully vs partially multithreaded MD kernel on the MTA-2.
pub fn fig8(atom_counts: &[usize], steps: usize) -> Vec<Fig8Row> {
    atom_counts
        .iter()
        .map(|&n| {
            let sim = SimConfig::reduced_lj(n);
            let run = |mode| {
                run_kind(DeviceKind::Mta { mode }, &sim, steps)
                    .expect("the MTA device model is infallible")
                    .sim_seconds
            };
            Fig8Row {
                n_atoms: n,
                fully_mt_seconds: run(ThreadingMode::FullyMultithreaded),
                partially_mt_seconds: run(ThreadingMode::PartiallyMultithreaded),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 9

/// One x-position of Figure 9: runtime relative to the 256-atom run.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    pub n_atoms: usize,
    pub mta_relative: f64,
    pub opteron_relative: f64,
}

/// Figure 9: increase in runtime with respect to the 256-atom run, MTA vs
/// Opteron. The paper's point: the MTA's growth tracks the floating-point
/// work; the Opteron's grows faster once the arrays outgrow its caches.
pub fn fig9(atom_counts: &[usize], steps: usize) -> Result<Vec<Fig9Row>, HarnessError> {
    if atom_counts.first() != Some(&256) {
        return Err(HarnessError::InvalidInput(
            "figure 9 normalizes to the 256-atom run; pass counts starting at 256".into(),
        ));
    }
    let runs: Vec<(usize, f64, f64)> = atom_counts
        .iter()
        .map(|&n| {
            let sim = SimConfig::reduced_lj(n);
            let mta = run_kind(
                DeviceKind::Mta {
                    mode: ThreadingMode::FullyMultithreaded,
                },
                &sim,
                steps,
            )?
            .sim_seconds;
            let opt = run_kind(DeviceKind::Opteron, &sim, steps)?.sim_seconds;
            Ok((n, mta, opt))
        })
        .collect::<Result<_, HarnessError>>()?;
    let (_, mta0, opt0) = runs[0];
    Ok(runs
        .iter()
        .map(|&(n, mta, opt)| Fig9Row {
            n_atoms: n,
            mta_relative: mta / mta0,
            opteron_relative: opt / opt0,
        })
        .collect())
}

// ------------------------------------------------- XMT projection (extension)

/// One row of the XMT scaling projection.
#[derive(Clone, Debug)]
pub struct XmtRow {
    pub label: &'static str,
    pub n_processors: usize,
    pub seconds: f64,
}

/// The paper's conclusion anticipates "significant performance gains from
/// the upcoming XMT technology" while §3.3 warns that the XMT loses the
/// MTA-2's uniform memory. This extension projects both: the MTA-2 baseline,
/// the optimistic XMT (placed data), and the locality-blind XMT where 80% of
/// the gather's references go remote.
///
/// The XMT machines are hypothetical configurations outside the paper's
/// evaluation grid, so they are built directly rather than via [`DeviceKind`].
pub fn xmt_projection(n_atoms: usize, steps: usize, processors: &[usize]) -> Vec<XmtRow> {
    use md_core::device::MdDevice;
    let sim = SimConfig::reduced_lj(n_atoms);
    let seconds = |config: MtaConfig| {
        MtaMd::new(config, ThreadingMode::FullyMultithreaded)
            .run(&sim, RunOptions::steps(steps))
            .expect("the MTA device model is infallible")
            .sim_seconds
    };
    let mut rows = vec![XmtRow {
        label: "MTA-2",
        n_processors: 1,
        seconds: seconds(MtaConfig::paper_mta2()),
    }];
    for &p in processors {
        rows.push(XmtRow {
            label: "XMT (placed data)",
            n_processors: p,
            seconds: seconds(MtaConfig::xmt(p)),
        });
        rows.push(XmtRow {
            label: "XMT (locality-blind)",
            n_processors: p,
            seconds: seconds(MtaConfig::xmt_nonuniform(p, 0.8)),
        });
    }
    rows
}

// ------------------------------------------------- Faulted variants

/// Supervised re-runs of every paper experiment under deterministic fault
/// injection. Each full-MD leg goes through the harness supervisor
/// (checkpoint/retry/fallback, see [`crate::supervisor`]); Cell legs that
/// need the cost breakdown use retry-with-fresh-salt and degrade to a
/// fault-free device when the budget runs out. The point is robustness, not
/// timing fidelity: reported seconds include recovery and backoff.
pub mod faulted {
    use super::*;
    use crate::supervisor::{run_supervised, SupervisedRun, SupervisorConfig};
    use md_core::device::FaultPlan;

    /// A fault plan plus the supervision policy applied to every experiment.
    #[derive(Clone, Copy, Debug)]
    pub struct FaultedExperiments {
        pub plan: FaultPlan,
        pub cfg: SupervisorConfig,
    }

    impl FaultedExperiments {
        pub fn new(seed: u64, rate: f64) -> Self {
            Self {
                plan: FaultPlan::new(seed, rate),
                cfg: SupervisorConfig::default(),
            }
        }

        fn supervise(&self, kind: DeviceKind, sim: &SimConfig, steps: usize) -> SupervisedRun {
            let mut dev = kind.build_faulted(self.plan);
            run_supervised(dev.as_mut(), sim, steps, &self.cfg, None)
        }

        /// Run a fallible device kind, re-salting the fault schedule on each
        /// retry; after the budget, degrade to a fault-free device.
        fn with_retry(
            &self,
            kind: DeviceKind,
            sim: &SimConfig,
            steps: usize,
        ) -> Result<DeviceRun, HarnessError> {
            for attempt in 0..self.cfg.max_attempts {
                let mut dev = kind.build_faulted(self.plan.with_salt(u64::from(attempt)));
                match dev.run(sim, RunOptions::steps(steps)) {
                    Ok(run) => return Ok(run),
                    Err(md_core::device::DeviceError::Failed(msg))
                        if msg.contains("exhausted its retry budget") => {}
                    Err(e) => return Err(e.into()),
                }
            }
            // Graceful degradation: the faults won; finish without them.
            run_kind(kind, sim, steps)
        }

        /// Figure 5 under faults. The single-SPE acceleration timer has no
        /// DMA/mailbox/launch fault sites, so this is the plain experiment —
        /// kept so `fig5`–`fig9` + `table1` all exist in one faulted suite.
        pub fn fig5(&self, n_atoms: usize) -> Result<Vec<Fig5Row>, HarnessError> {
            fig5(n_atoms)
        }

        /// Figure 6 under faults: each of the four cases retries with a
        /// fresh schedule until it completes.
        pub fn fig6(&self, n_atoms: usize, steps: usize) -> Result<Vec<Fig6Case>, HarnessError> {
            let sim = SimConfig::reduced_lj(n_atoms);
            fig6_grid()
                .into_iter()
                .map(|(n_spes, policy)| {
                    let kind = DeviceKind::Cell {
                        n_spes,
                        policy,
                        variant: SpeKernelVariant::SimdAcceleration,
                    };
                    let run = self.with_retry(kind, &sim, steps)?;
                    Ok(Fig6Case::from_run(n_spes, policy, &run))
                })
                .collect()
        }

        /// Table 1 under faults: every leg runs supervised.
        pub fn table1(&self, n_atoms: usize, steps: usize) -> Result<Table1Data, HarnessError> {
            let sim = SimConfig::reduced_lj(n_atoms);
            let opteron = self.supervise(DeviceKind::Opteron, &sim, steps);
            let one = self.supervise(DeviceKind::cell_single_spe(), &sim, steps);
            let eight = self.supervise(DeviceKind::cell_best(), &sim, steps);
            // The PPE-only path has no fault sites; run it plain.
            let ppe = run_kind(DeviceKind::CellPpe, &sim, steps)?;
            Ok(Table1Data {
                n_atoms,
                steps,
                opteron_seconds: opteron.sim_seconds,
                cell_1spe_seconds: one.sim_seconds,
                cell_8spe_seconds: eight.sim_seconds,
                cell_ppe_seconds: ppe.sim_seconds,
            })
        }

        /// Figure 7 under faults: both series supervised at every size.
        pub fn fig7(&self, atom_counts: &[usize], steps: usize) -> Vec<Fig7Row> {
            atom_counts
                .iter()
                .map(|&n| {
                    let sim = SimConfig::reduced_lj(n);
                    let opteron = self.supervise(DeviceKind::Opteron, &sim, steps);
                    let gpu = self.supervise(
                        DeviceKind::Gpu {
                            model: GpuModel::GeForce7900Gtx,
                        },
                        &sim,
                        steps,
                    );
                    Fig7Row {
                        n_atoms: n,
                        opteron_seconds: opteron.sim_seconds,
                        gpu_seconds: gpu.sim_seconds,
                    }
                })
                .collect()
        }

        /// Figure 8 under faults: both threading modes supervised.
        pub fn fig8(&self, atom_counts: &[usize], steps: usize) -> Vec<Fig8Row> {
            atom_counts
                .iter()
                .map(|&n| {
                    let sim = SimConfig::reduced_lj(n);
                    let run = |mode| {
                        self.supervise(DeviceKind::Mta { mode }, &sim, steps)
                            .sim_seconds
                    };
                    Fig8Row {
                        n_atoms: n,
                        fully_mt_seconds: run(ThreadingMode::FullyMultithreaded),
                        partially_mt_seconds: run(ThreadingMode::PartiallyMultithreaded),
                    }
                })
                .collect()
        }

        /// Figure 9 under faults: both series supervised, same 256-atom
        /// normalization rule as the clean experiment.
        pub fn fig9(
            &self,
            atom_counts: &[usize],
            steps: usize,
        ) -> Result<Vec<Fig9Row>, HarnessError> {
            if atom_counts.first() != Some(&256) {
                return Err(HarnessError::InvalidInput(
                    "figure 9 normalizes to the 256-atom run; pass counts starting at 256".into(),
                ));
            }
            let runs: Vec<(usize, f64, f64)> = atom_counts
                .iter()
                .map(|&n| {
                    let sim = SimConfig::reduced_lj(n);
                    let mta = self
                        .supervise(
                            DeviceKind::Mta {
                                mode: ThreadingMode::FullyMultithreaded,
                            },
                            &sim,
                            steps,
                        )
                        .sim_seconds;
                    let opt = self.supervise(DeviceKind::Opteron, &sim, steps).sim_seconds;
                    (n, mta, opt)
                })
                .collect();
            let (_, mta0, opt0) = runs[0];
            Ok(runs
                .iter()
                .map(|&(n, mta, opt)| Fig9Row {
                    n_atoms: n,
                    mta_relative: mta / mta0,
                    opteron_relative: opt / opt0,
                })
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    //! Small-scale smoke tests; the full paper-scale shape checks live in the
    //! workspace integration tests.
    use super::*;

    #[test]
    fn fig5_ladder_monotone() {
        let rows = fig5(256).expect("paper workload fits the local store");
        assert_eq!(rows.len(), 6);
        for w in rows.windows(2) {
            assert!(
                w[1].seconds < w[0].seconds,
                "{} !< {}",
                w[1].label,
                w[0].label
            );
        }
    }

    #[test]
    fn fig6_cases_cover_the_grid() {
        let cases = fig6(256, 3).expect("paper workload fits the local store");
        assert_eq!(cases.len(), 4);
        assert!(cases
            .iter()
            .any(|c| c.n_spes == 8 && c.policy == SpawnPolicy::LaunchOnce));
        for c in &cases {
            assert!(c.launch_seconds < c.total_seconds);
        }
    }

    #[test]
    fn fig7_has_both_series() {
        let rows = fig7(&[128, 256], 1);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].opteron_seconds > rows[0].opteron_seconds);
    }

    #[test]
    fn fig9_normalized_to_first() {
        let rows = fig9(&[256, 512], 1).expect("256-atom baseline present");
        assert_eq!(rows[0].mta_relative, 1.0);
        assert_eq!(rows[0].opteron_relative, 1.0);
        assert!(rows[1].mta_relative > 1.0);
    }

    #[test]
    fn fig9_requires_256_baseline() {
        let err = fig9(&[512, 1024], 1).expect_err("baseline rule must be enforced");
        assert!(
            err.to_string().contains("256"),
            "error should name the required baseline: {err}"
        );
    }
}
