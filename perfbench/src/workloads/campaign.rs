//! `campaign`: a cold `sweep run --all` through `run_sweep` into a fresh
//! cache directory, then the same specs warm from that cache. Each cold
//! `run_sweep` call is one op; the warm replay of every spec is one op.
//!
//! The timed sweeps are serial (`jobs` = 1). On a host whose few cores are
//! shared with other machines, a sweep with one worker per core times the
//! host's scheduler as much as the program, and its runs spread past the
//! gate's bound. The traced run's probes add one cold sweep with one worker
//! per core, for `sim-sweep.busy_share`.

use super::{Ctx, Pass, Workload};
use crate::check::{Goldens, Tally};
use crate::trace::Tracer;
use harness::DeviceKind;
use md_core::params::SimConfig;
use sim_perf::RunMetrics;
use sim_sweep::{point_key, registry, run_sweep, EngineConfig, ResultCache, SweepPoint, SweepSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One cold pass's outcome for one spec: each point's metrics record as
/// JSON, and whether the cache served it.
type SpecResults = Vec<(String, bool)>;

/// Workers of the timed sweeps.
const TIMED_JOBS: usize = 1;

pub struct Campaign {
    specs: Vec<SweepSpec>,
    /// Workers of the probes' parallel sweep: one per core.
    workers: usize,
    /// Parent of every cache directory this workload creates.
    root: PathBuf,
    passes: u32,
    /// The first cold pass, which later passes must repeat bitwise.
    reference: Option<Vec<SpecResults>>,
    /// Points the first cold pass executed, with their records.
    executed: Vec<(SweepPoint, RunMetrics)>,
    hits: usize,
    goldens: Option<Goldens>,
}

impl Campaign {
    pub fn new(ctx: &Ctx, tally: &mut Tally) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let root = ctx
            .out_dir
            .join(format!("campaign-{}-{}", std::process::id(), unique()));
        let goldens = match Goldens::committed() {
            Ok(g) => Some(g),
            Err(e) => {
                tally.record("load goldens", Err(e));
                None
            }
        };
        let specs = registry();
        // Warm-up: the first spec, uncached, so nothing is written.
        let warm_cfg = EngineConfig {
            use_cache: false,
            jobs: TIMED_JOBS,
            ..EngineConfig::default()
        };
        let outcome = run_sweep(&specs[0], &warm_cfg)
            .map(|_| ())
            .map_err(|e| e.to_string());
        tally.record("warm-up sweep", outcome);
        Self {
            specs,
            workers,
            root,
            passes: 0,
            reference: None,
            executed: Vec::new(),
            hits: 0,
            goldens,
        }
    }

    fn config(&self, dir: PathBuf, jobs: usize) -> EngineConfig {
        EngineConfig {
            cache_dir: dir,
            jobs,
            ..EngineConfig::default()
        }
    }

    /// The cache directory of the next pass; always new and empty.
    fn fresh_dir(&mut self) -> PathBuf {
        self.passes += 1;
        let dir = self.root.join(format!("pass-{}", self.passes));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The `bench_seed` spec's results must equal `BENCH_seed.json`.
    fn check_bench_seed(
        &self,
        spec: &SweepSpec,
        report: &sim_sweep::SweepReport,
    ) -> Result<(), String> {
        let (Some(g), "bench_seed") = (&self.goldens, spec.name) else {
            return Ok(());
        };
        for r in &report.results {
            let key = (
                r.point.figure.to_string(),
                r.metrics.device.clone(),
                r.point.n_atoms,
            );
            let pinned = g
                .seed_table
                .get(&key)
                .ok_or(format!("BENCH_seed.json has no row {key:?}"))?;
            if r.metrics.sim_seconds.to_bits() != *pinned {
                return Err(format!(
                    "{key:?}: sim_seconds {} != BENCH_seed.json {}",
                    r.metrics.sim_seconds,
                    f64::from_bits(*pinned)
                ));
            }
        }
        Ok(())
    }
}

/// Distinguishes workloads created by one process (tests run several).
fn unique() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn results_of(report: &sim_sweep::SweepReport) -> SpecResults {
    report
        .results
        .iter()
        .map(|r| (r.metrics.to_json(), r.from_cache))
        .collect()
}

impl Workload for Campaign {
    fn pass(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Pass {
        let mut pass = Pass::default();
        let dir = self.fresh_dir();
        let cfg = self.config(dir.clone(), TIMED_JOBS);
        let specs = self.specs.clone();
        if let Some(t) = tracer {
            t.next_op();
        }

        // Cold: one op per spec, in registry order, sharing one cache.
        let mut cold_results: Vec<SpecResults> = Vec::new();
        for spec in &specs {
            let key = format!("cold:{}", spec.name);
            let span = tracer.map(|t| t.begin(format!("sweep.{key}")));
            let t0 = Instant::now();
            let report = run_sweep(spec, &cfg);
            pass.push_op(&key, t0.elapsed().as_secs_f64());
            if let (Some(t), Some(id)) = (tracer, span) {
                t.end(id);
            }
            let outcome = report.map_err(|e| e.to_string()).and_then(|report| {
                self.check_bench_seed(spec, &report)?;
                for r in report.results.iter().filter(|r| !r.from_cache) {
                    pass.atom_steps += (r.point.n_atoms * r.point.steps.max(1)) as f64;
                }
                if self.reference.is_none() {
                    self.hits += report.hits();
                    self.executed.extend(
                        report
                            .results
                            .iter()
                            .filter(|r| !r.from_cache)
                            .map(|r| (r.point, r.metrics.clone())),
                    );
                }
                Ok(results_of(&report))
            });
            cold_results.push(outcome.clone().unwrap_or_default());
            tally.record(&key, outcome.map(|_| ()));
        }

        // Warm: the whole `sweep run --all` again from that cache, one op.
        let span = tracer.map(|t| t.begin("sweep.warm"));
        let t0 = Instant::now();
        let warm: Vec<_> = specs.iter().map(|spec| run_sweep(spec, &cfg)).collect();
        pass.push_op("warm", t0.elapsed().as_secs_f64());
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }
        let outcome = warm
            .into_iter()
            .zip(&cold_results)
            .try_for_each(|(report, cold)| {
                let report = report.map_err(|e| e.to_string())?;
                if report.executed() != 0 {
                    return Err(format!("warm pass executed {} point(s)", report.executed()));
                }
                let hot = results_of(&report);
                if hot.iter().map(|(m, _)| m).ne(cold.iter().map(|(m, _)| m)) {
                    return Err(format!(
                        "warm {} differs from the cold pass",
                        report.spec_name
                    ));
                }
                Ok(())
            });
        tally.record("warm", outcome);

        match &self.reference {
            None => self.reference = Some(cold_results),
            Some(first) => {
                let outcome = if *first == cold_results {
                    Ok(())
                } else {
                    Err("cold pass differs from the first cold pass".to_string())
                };
                tally.record("campaign repeat", outcome);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    /// Per-point host cost re-timed serially, one cold sweep with one
    /// worker per core, cache store/load timings and the sweep's sharing
    /// counts.
    fn probes(&mut self, _untraced: &[Pass], tally: &mut Tally) -> Vec<(String, f64)> {
        let dir = self.fresh_dir();
        let cfg = self.config(dir.clone(), self.workers);
        let t0 = Instant::now();
        let parallel: Vec<_> = self.specs.iter().map(|s| run_sweep(s, &cfg)).collect();
        let parallel_wall = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = parallel
            .into_iter()
            .map(|r| r.map(|r| results_of(&r)).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|results| {
                // Which worker reaches a repeated point first may differ, so
                // only the records are compared, not where they came from.
                let records = |r: &[SpecResults]| -> Vec<String> {
                    r.iter().flatten().map(|(m, _)| m.clone()).collect()
                };
                match &self.reference {
                    Some(serial) if records(serial) != records(&results) => {
                        Err("parallel cold sweep differs from the serial one".to_string())
                    }
                    _ => Ok(()),
                }
            });
        tally.record("parallel cold sweep", outcome);

        let mut point_s = Vec::new();
        for (p, recorded) in &self.executed {
            let sim = SimConfig::reduced_lj(p.n_atoms).with_scenario(p.scenario);
            let t0 = Instant::now();
            let result = harness::device_metrics(p.device, &sim, p.steps);
            point_s.push(t0.elapsed().as_secs_f64());
            let outcome = match result {
                Ok((m, _)) if m.to_json() == recorded.to_json() => Ok(()),
                Ok(_) => Err("serial re-run differs from the sweep's record".into()),
                Err(e) => Err(e.to_string()),
            };
            tally.record(
                &format!("re-time {} n{}", p.device.label(), p.n_atoms),
                outcome,
            );
        }
        let busy: f64 = point_s.iter().sum();

        let cache = ResultCache::new(self.fresh_dir());
        let key_of = |p: &SweepPoint| {
            point_key(
                sim_sweep::CODE_VERSION_SALT,
                &p.device.cache_token(),
                &p.scenario.cache_token(),
                p.n_atoms,
                p.steps,
            )
        };
        let t0 = Instant::now();
        let stored: Result<(), String> = self
            .executed
            .iter()
            .try_for_each(|(p, m)| cache.store(&key_of(p), m))
            .map_err(|e| e.to_string());
        let store_s = t0.elapsed().as_secs_f64();
        tally.record("cache store", stored);
        let all_points: Vec<SweepPoint> =
            self.specs.iter().flat_map(|s| s.points.clone()).collect();
        let t0 = Instant::now();
        let loaded: Vec<Option<RunMetrics>> =
            all_points.iter().map(|p| cache.load(&key_of(p))).collect();
        let load_s = t0.elapsed().as_secs_f64();
        let outcome = if loaded.iter().all(Option::is_some) {
            Ok(())
        } else {
            Err("a stored point did not load back".into())
        };
        tally.record("cache load", outcome);
        let _ = cache.clean();

        vec![
            (
                "sim-sweep.points_executed".into(),
                self.executed.len() as f64,
            ),
            ("sim-sweep.points_cached".into(), self.hits as f64),
            (
                "sim-sweep.busy_share".into(),
                busy / (self.workers as f64 * parallel_wall),
            ),
            (
                "sim-sweep.longest_point_s".into(),
                point_s.iter().copied().fold(0.0, f64::max),
            ),
            (
                "sim-sweep.shared_physics_points".into(),
                shared_physics(&self.executed) as f64,
            ),
            ("sim-sweep.cache.load_s".into(), load_s),
            ("sim-sweep.cache.store_s".into(), store_s),
        ]
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Executed points whose physics repeats another executed point's: same
/// arithmetic flavor, atoms, steps and scenario. Cost-model twins such as
/// MTA full vs partial threading compute identical trajectories.
fn shared_physics(executed: &[(SweepPoint, RunMetrics)]) -> usize {
    let mut groups: BTreeMap<(String, usize, usize, String), usize> = BTreeMap::new();
    for (p, _) in executed {
        let flavor = match p.device {
            DeviceKind::Opteron | DeviceKind::Mta { .. } => "host-f64".to_string(),
            DeviceKind::Gpu { .. } => "gpu-f32".to_string(),
            DeviceKind::Cell { variant, .. } => format!("cell-{variant:?}"),
            DeviceKind::CellAccel { variant } => format!("cell-accel-{variant:?}"),
            DeviceKind::CellPpe => "cell-ppe".to_string(),
        };
        *groups
            .entry((flavor, p.n_atoms, p.steps, p.scenario.cache_token()))
            .or_default() += 1;
    }
    groups.values().map(|n| n - 1).sum()
}
