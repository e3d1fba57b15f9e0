//! Order statistics over timing samples, and the host-speed calibration.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Splitmix64: the benchmark's only source of pseudo-randomness, so one
/// `--seed` always yields the same op order.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Atoms in the calibration kernel.
const CALIB_ATOMS: usize = 1024;

/// Seconds one calibration sample takes on the reference host (a 2-core
/// x86-64 Xeon VM, measured when otherwise idle). Normalised times read in
/// that host's seconds.
pub const CALIB_REF_S: f64 = 0.00275;

/// Scale a host time by the host speed seen in the calibration sample
/// taken next to it. The benchmark's host shares its cores with others and
/// runs up to 1.5× slower for minutes at a time; normalising each op by a
/// neighbouring sample of fixed work removes most of that drift from the
/// gate.
pub fn normalise(secs: f64, calib_s: f64) -> f64 {
    secs * CALIB_REF_S / calib_s
}

/// Timed loops per calibration sample; the sample is their median, so one
/// loop cut short by a context switch does not move it.
const CALIB_LOOPS: usize = 3;

/// One host-speed calibration sample: the median seconds of
/// `CALIB_LOOPS` runs of a fixed scalar Lennard-Jones all-pairs loop over
/// `CALIB_ATOMS` pseudo-random atoms. The loop is this package's own code,
/// so no change to the repository can change it; only the host's speed
/// moves it. A short sleep first lets the op's teardown (freed pages,
/// exiting threads) finish before the sample starts.
pub fn calibration_sample() -> f64 {
    let mut rng = SplitMix::new(0xCA11_B8A7);
    let side = 10.0;
    let pos: Vec<[f64; 3]> = (0..CALIB_ATOMS)
        .map(|_| [0, 1, 2].map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * side))
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let loops: Vec<f64> = (0..CALIB_LOOPS).map(|_| lj_loop(&pos)).collect();
    median(&loops)
}

/// Seconds one all-pairs Lennard-Jones energy sum over `pos` takes.
fn lj_loop(pos: &[[f64; 3]]) -> f64 {
    let t = Instant::now();
    let mut energy = 0.0;
    for (i, a) in pos.iter().enumerate() {
        for (j, b) in pos.iter().enumerate() {
            if i == j {
                continue;
            }
            let r2: f64 = (0..3).map(|k| (a[k] - b[k]) * (a[k] - b[k])).sum();
            if r2 < 6.25 {
                let inv6 = 1.0 / (r2 * r2 * r2);
                energy += 4.0 * inv6 * (inv6 - 1.0);
            }
        }
    }
    black_box(energy);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
