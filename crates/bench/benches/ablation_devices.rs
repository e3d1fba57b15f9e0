//! Device-model ablations beyond the paper's configurations:
//!
//! - SPE count sweep (1..8): how Cell speedup scales with SPEs.
//! - XMT projection (the paper's "we anticipate significant performance
//!   gains from the upcoming XMT"): MTA-2 vs XMT at 1 and 16 processors.
//!
//! Non-paper configurations (XMT, tuned Opterons) have no `DeviceKind`, so
//! they are driven through the `MdDevice` adapters directly.

use cell_be::{CellMd, CellRunConfig, SpawnPolicy, SpeKernelVariant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use md_core::device::{MdDevice, RunOptions};
use md_core::params::SimConfig;
use mdea_bench::{sim_criterion, sim_duration};
use mta::{MtaConfig, MtaMd, ThreadingMode};
use opteron::{OpteronConfig, OpteronCpu};

fn spe_count_sweep(c: &mut Criterion) {
    let sim = SimConfig::reduced_lj(1024);
    let steps = 4;
    let mut group = c.benchmark_group("ablation_spe_count");
    for n_spes in 1..=8usize {
        group.bench_with_input(BenchmarkId::from_parameter(n_spes), &n_spes, |b, _| {
            b.iter_custom(|iters| {
                let run = CellMd::paper_blade(CellRunConfig {
                    n_spes,
                    policy: SpawnPolicy::LaunchOnce,
                    variant: SpeKernelVariant::SimdAcceleration,
                })
                .run(&sim, RunOptions::steps(steps))
                .expect("fits local store");
                sim_duration(run.sim_seconds, iters)
            });
        });
    }
    group.finish();
}

fn xmt_projection(c: &mut Criterion) {
    let sim = SimConfig::reduced_lj(1024);
    let steps = 4;
    let mut group = c.benchmark_group("ablation_xmt");
    for (label, config) in [
        ("mta2-1proc", MtaConfig::paper_mta2()),
        ("xmt-1proc", MtaConfig::xmt(1)),
        ("xmt-16proc", MtaConfig::xmt(16)),
        // The paper's caution about the XMT's non-uniform memory: the same
        // locality-blind gather loop with 80% remote references vs blocked
        // data placement at 5%.
        (
            "xmt-16proc-locality-blind",
            MtaConfig::xmt_nonuniform(16, 0.8),
        ),
        ("xmt-16proc-placed", MtaConfig::xmt_nonuniform(16, 0.05)),
    ] {
        let mut m = MtaMd::new(config, ThreadingMode::FullyMultithreaded);
        group.bench_function(label, move |b| {
            b.iter_custom(|iters| {
                let run = m
                    .run(&sim, RunOptions::steps(steps))
                    .expect("MTA model runs any workload");
                sim_duration(run.sim_seconds, iters)
            });
        });
    }
    group.finish();
}

fn gpu_generations(c: &mut Criterion) {
    // "the parallelism is increasing": 6800 (16 pipes, 400 MHz) vs 7900GTX
    // (24 pipes, 650 MHz) on the same workload.
    let sim = SimConfig::reduced_lj(1024);
    let steps = 4;
    let mut group = c.benchmark_group("ablation_gpu_generations");
    for (label, runner) in [
        ("geforce-6800", gpu::GpuMdSimulation::geforce_6800()),
        ("geforce-7900gtx", gpu::GpuMdSimulation::geforce_7900gtx()),
    ] {
        let mut runner = runner;
        group.bench_function(label, move |b| {
            b.iter_custom(|iters| {
                let run = runner
                    .run(&sim, RunOptions::steps(steps))
                    .expect("GPU model runs any workload");
                sim_duration(run.sim_seconds, iters)
            });
        });
    }
    group.finish();
}

fn opteron_variants(c: &mut Criterion) {
    // Host-baseline ablations: what a tuned (SSE2) build or the K8's stream
    // prefetcher would have done to the paper's reference numbers.
    let steps = 2;
    let mut group = c.benchmark_group("ablation_opteron");
    for &n in &[1024usize, 4096] {
        let sim = SimConfig::reduced_lj(n);
        for (label, cfg) in [
            ("scalar", OpteronConfig::paper_reference()),
            ("sse2", OpteronConfig::sse2_vectorized()),
            ("prefetch", OpteronConfig::with_prefetcher()),
        ] {
            let mut cpu = OpteronCpu::new(cfg);
            group.bench_with_input(BenchmarkId::new(label, n), &n, move |b, _| {
                b.iter_custom(|iters| {
                    let run = cpu
                        .run(&sim, RunOptions::steps(steps))
                        .expect("reference CPU runs");
                    sim_duration(run.sim_seconds, iters)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(name = benches; config = sim_criterion(); targets = spe_count_sweep, xmt_projection, gpu_generations, opteron_variants);
criterion_main!(benches);
