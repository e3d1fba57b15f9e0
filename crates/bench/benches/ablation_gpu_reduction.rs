//! Ablation: the paper's PE-reduction design decision on the GPU.
//!
//! "One option is to introduce one or more additional passes to accumulate
//! each atom's contribution to the total PE ... However, this method
//! introduces significant overheads. Instead ... read back each atom's
//! contribution to PE as well and sum them in linear time on the CPU."
//!
//! This bench measures both strategies so the claim is quantified.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu::{GpuMdSimulation, ReductionStrategy};
use md_core::params::SimConfig;
use mdea_bench::{sim_criterion, sim_duration};

fn gpu_reduction(c: &mut Criterion) {
    let steps = 4;
    let runner = GpuMdSimulation::geforce_7900gtx();
    let mut group = c.benchmark_group("ablation_gpu_reduction");
    for &n in &[256usize, 1024, 2048] {
        let sim = SimConfig::reduced_lj(n);
        group.bench_with_input(BenchmarkId::new("cpu-readback", n), &n, |b, _| {
            b.iter_custom(|iters| {
                let run = runner
                    .run_md_with(&sim, steps, ReductionStrategy::CpuReadback)
                    .expect("GPU model runs any valid workload");
                sim_duration(run.sim_seconds, iters)
            });
        });
        group.bench_with_input(BenchmarkId::new("gpu-multipass", n), &n, |b, _| {
            b.iter_custom(|iters| {
                let run = runner
                    .run_md_with(&sim, steps, ReductionStrategy::GpuMultiPass)
                    .expect("GPU model runs any valid workload");
                sim_duration(run.sim_seconds, iters)
            });
        });
    }
    group.finish();
}

criterion_group!(name = benches; config = sim_criterion(); targets = gpu_reduction);
criterion_main!(benches);
