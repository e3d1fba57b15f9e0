//! Layer probes of the traced run that call one layer directly: the
//! shared-evaluation kernels and the memory-hierarchy simulator.

use md_core::forces::SoaPositions;
use md_core::init;
use md_core::params::SimConfig;
use md_core::shared_eval::{self, SoaPositionsF32};
use md_core::system::ParticleSystem;
use memsim::{AccessKind, AddressSpace, MemoryHierarchy};
use std::hint::black_box;
use std::time::Instant;

/// The arithmetic flavors of the shared evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// f64 rows: Opteron row chunks and MTA streams.
    HostRow,
    /// f32 SPE rows: the Cell port.
    CellRow,
    /// f32 fragment texels: the GPU port.
    GpuTexel,
}

impl Flavor {
    pub fn name(self) -> &'static str {
        match self {
            Flavor::HostRow => "host_row",
            Flavor::CellRow => "cell_row",
            Flavor::GpuTexel => "gpu_texel",
        }
    }
}

/// One evaluation's result.
pub struct Eval {
    pub seconds: f64,
    /// Pairs inside the cutoff (0 where the flavor does not count them).
    pub interactions: u64,
    /// Ordered pairs the kernel examined.
    pub pairs: u64,
}

/// One full evaluation: `flavor`'s kernel called for every row of the
/// initial positions of `sim`.
pub fn time_eval(flavor: Flavor, sim: &SimConfig) -> Eval {
    let n = sim.n_atoms;
    let pairs = (n * n.saturating_sub(1)) as u64;
    match flavor {
        Flavor::HostRow => {
            let sys: ParticleSystem<f64> = init::initialize(sim);
            let soa = SoaPositions::from_positions(&sys.positions);
            let sub = sim.substrate::<f64>();
            let inv_mass = 1.0 / sys.mass;
            let t = Instant::now();
            let mut interactions = 0u64;
            let mut sum = 0.0f64;
            for i in 0..n {
                let row = shared_eval::host_row(&soa, i, sys.box_len, &sub, inv_mass);
                interactions += row.interactions;
                sum += row.pe;
            }
            black_box(sum);
            Eval {
                seconds: t.elapsed().as_secs_f64(),
                interactions,
                pairs,
            }
        }
        Flavor::CellRow | Flavor::GpuTexel => {
            let sys: ParticleSystem<f32> = init::initialize(sim);
            let soa =
                SoaPositionsF32::from_quads(sys.positions.iter().map(|p| [p.x, p.y, p.z, 0.0]));
            let sub = sim.substrate::<f32>();
            let inv_mass = 1.0 / sys.mass;
            let t = Instant::now();
            let mut interactions = 0u64;
            let mut sum = 0.0f32;
            for i in 0..n {
                if flavor == Flavor::CellRow {
                    let row = shared_eval::cell_row(&soa, i, sys.box_len, &sub, inv_mass);
                    interactions += row.interactions;
                    sum += row.pe;
                } else {
                    sum += shared_eval::gpu_texel(&soa, i, sys.box_len, &sub, inv_mass)[3];
                }
            }
            black_box(sum);
            Eval {
                seconds: t.elapsed().as_secs_f64(),
                interactions,
                pairs,
            }
        }
    }
}

/// Replay the Opteron gather kernel's reference stream for `n` atoms —
/// read `pos[i]`, read every other `pos[j]`, write `acc[i]` — through a
/// cold [`MemoryHierarchy::opteron`]. Returns (accesses, seconds).
pub fn time_memsim_replay(n: usize) -> (u64, f64) {
    let mut space = AddressSpace::new();
    let pos = space.alloc_array(n, 24);
    let acc = space.alloc_array(n, 24);
    let mut h = MemoryHierarchy::opteron();
    let t = Instant::now();
    let mut cycles = 0u64;
    for i in 0..n {
        cycles += h.access(pos.addr(i), AccessKind::Read);
        for j in 0..n {
            if j != i {
                cycles += h.access(pos.addr(j), AccessKind::Read);
            }
        }
        cycles += h.access(acc.addr(i), AccessKind::Write);
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(cycles);
    (h.stats().accesses, secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluations_count_the_same_interactions() {
        let sim = SimConfig::reduced_lj(256);
        let host = time_eval(Flavor::HostRow, &sim);
        let cell = time_eval(Flavor::CellRow, &sim);
        assert_eq!(host.pairs, 256 * 255);
        assert!(host.interactions > 0 && host.interactions < host.pairs);
        // f32 and f64 round differently only at the cutoff boundary.
        let diff = host.interactions.abs_diff(cell.interactions);
        assert!(diff * 100 < host.interactions, "{diff}");
    }

    #[test]
    fn memsim_replay_makes_every_access() {
        let (accesses, secs) = time_memsim_replay(64);
        assert_eq!(accesses, 64 * 64 + 64);
        assert!(secs >= 0.0);
    }
}
