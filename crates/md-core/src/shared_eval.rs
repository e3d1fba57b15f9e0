//! Physics-once shared evaluation layer (DESIGN.md §17).
//!
//! Every device simulator splits its hot loop in two:
//!
//! 1. **Physics evaluation** — the actual forces/energies each simulated
//!    lane (SPE slice, fragment batch, MTA stream, Opteron row chunk) would
//!    compute. Under the replay memo this runs *once per step* through the
//!    kernels in this module, which batch the distance pass across 4 (f64)
//!    or 8 (f32) pair lanes.
//! 2. **Cost interpretation** — the device crate replays its cost model
//!    (cycles, DMA, mailboxes, fragment ops, stream schedules) against the
//!    evaluated row without re-touching positions or forces.
//!
//! The contract is the PR 5 observability guarantee extended to the memo:
//! memo-on and memo-off runs are **bitwise identical** in positions,
//! velocities, energies, sim-seconds, and perf counters at every thread
//! count. The kernels here guarantee their half of that contract by
//! construction: the batched distance pass performs exactly the per-pair
//! IEEE operations of each device's interpretive loop (same operations, same
//! associativity, same rounding), and the data-dependent accumulation runs
//! serially in ascending-j order over the surviving lanes. Restructuring
//! *across* pairs never changes *per-pair* rounding, so equality is an
//! identity, not a tolerance.
//!
//! Three per-device arithmetic flavors are provided:
//!
//! - [`host_row`] — the f64 select-form minimum image of
//!   [`crate::forces::gather_row`]; [`host_rows`] evaluates a range of such
//!   rows over cell-binned candidates (Opteron rows, MTA streams).
//! - [`cell_row`] — the Cell SPE `SimdAcceleration` variant: compare/select
//!   unit-cell shift, FMA accumulate, per-atom PE in the fourth lane.
//! - [`gpu_texel`] — the fragment shader's predicated sequential-conditional
//!   minimum image and `(d * f_over_r) * inv_mass` accumulate.
//!
//! On x86-64 hosts with AVX2 each flavor runs hand-written intrinsics with a
//! movemask early-skip of non-interacting lane groups; elsewhere the
//! portable [`vecmath::wide`] lanes execute the same batched structure. Both
//! paths are bitwise-equal to the scalar interpretive loops (pinned by unit
//! tests here and by `tests/shared_eval.rs` per device).
//!
//! This module evaluates physics only. It never charges simulated time or
//! cycles — sim-vet's eval-purity rule denies cost-charging calls here, so
//! the eval/cost split stays machine-enforced.

use crate::forces::{ForceKernel, GatherRow, SoaPositions};
use crate::scenario::Substrate;
use crate::system::ParticleSystem;
use std::ops::{Add, Mul, Range, Sub};
use vecmath::{pbc, Real, Vec3};
use vecmath::{F32x8, F64x4};

/// Do the fused AVX2 kernels run on this host? (Cached feature probe;
/// portable wide lanes are used when false. Both paths are bitwise-equal, so
/// this only ever changes speed.)
pub fn wide_kernels_native() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Host flavor (f64): Opteron row chunks and MTA stream chunks.

/// Atom `i`'s gather row, bitwise identical to
/// [`crate::forces::gather_row`] but batched 4-wide.
///
/// The mixed-precision policy needs no special casing here: for `T = f64`
/// the widen/narrow steps of the mixed accumulator are identities, so the
/// native accumulation below already matches `gather_row`'s internal
/// dispatch bit for bit (pinned by a unit test).
#[inline]
pub fn host_row(
    soa: &SoaPositions<f64>,
    i: usize,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    host_row_over([soa.x[i], soa.y[i], soa.z[i]], soa, box_len, sub, inv_mass)
}

/// The host distance kernel: the row of an atom at `centre` over the
/// candidate atoms `cand`, accumulated in `cand`'s order. Both [`host_row`]
/// (every atom a candidate) and [`host_rows`] (the atoms of 27 bins) run
/// through here.
#[inline]
fn host_row_over(
    centre: [f64; 3],
    cand: &SoaPositions<f64>,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels_native() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { host_row_avx2(centre, cand, box_len, sub, inv_mass) };
    }
    host_row_batched(centre, cand, box_len, sub, inv_mass)
}

/// Portable batched host row: the same structure as the AVX2 kernel, built
/// on [`vecmath::F64x4`] per-lane ops.
fn host_row_batched(
    centre: [f64; 3],
    cand: &SoaPositions<f64>,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    let n = cand.len();
    let cutoff2 = sub.cutoff2();
    let [xi, yi, zi] = centre;
    let mut acc = Vec3::zero();
    let mut pe = 0.0f64;
    let mut interactions = 0u64;

    let l = F64x4::splat(box_len);
    let half = F64x4::splat(box_len * 0.5);
    let neg_half = F64x4::splat(-(box_len * 0.5));
    let vcut = F64x4::splat(cutoff2);
    let pxi = F64x4::splat(xi);
    let pyi = F64x4::splat(yi);
    let pzi = F64x4::splat(zi);

    let mut k = 0;
    while k + 4 <= n {
        // Select-form minimum image, per lane exactly
        // `pbc::min_image_coord_select`.
        let fold = |pi: F64x4, src: &[f64]| -> F64x4 {
            let c = pi.sub(F64x4::from_slice(&src[k..]));
            let down = c.sub(l);
            let up = c.add(l);
            let folded = F64x4::select(c.cmp_gt(half), down, c);
            F64x4::select(c.cmp_lt(neg_half), up, folded)
        };
        let dx = fold(pxi, &cand.x);
        let dy = fold(pyi, &cand.y);
        let dz = fold(pzi, &cand.z);
        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
        let m = r2.cmp_lt(vcut);
        if m.any() {
            for lane in 0..4 {
                if m.test(lane) {
                    let r2v = r2.lane(lane);
                    if r2v != 0.0 {
                        let (e, f_over_r) = sub.energy_force(r2v);
                        pe += e;
                        let s = f_over_r * inv_mass;
                        acc.x += dx.lane(lane) * s;
                        acc.y += dy.lane(lane) * s;
                        acc.z += dz.lane(lane) * s;
                        interactions += 1;
                    }
                }
            }
        }
        k += 4;
    }
    host_row_tail(
        cand,
        k,
        centre,
        box_len,
        cutoff2,
        sub,
        inv_mass,
        &mut acc,
        &mut pe,
        &mut interactions,
    );
    GatherRow {
        acc,
        pe,
        interactions,
    }
}

/// Scalar remainder of a host row: candidates `k..`, the exact
/// `gather_row` arithmetic.
#[allow(clippy::too_many_arguments)]
#[inline]
fn host_row_tail(
    cand: &SoaPositions<f64>,
    mut k: usize,
    [xi, yi, zi]: [f64; 3],
    box_len: f64,
    cutoff2: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
    acc: &mut Vec3<f64>,
    pe: &mut f64,
    interactions: &mut u64,
) {
    let n = cand.len();
    while k < n {
        let dx = pbc::min_image_coord_select(xi - cand.x[k], box_len);
        let dy = pbc::min_image_coord_select(yi - cand.y[k], box_len);
        let dz = pbc::min_image_coord_select(zi - cand.z[k], box_len);
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 < cutoff2 && r2 != 0.0 {
            let (e, f_over_r) = sub.energy_force(r2);
            *pe += e;
            let s = f_over_r * inv_mass;
            acc.x += dx * s;
            acc.y += dy * s;
            acc.z += dz * s;
            *interactions += 1;
        }
        k += 1;
    }
}

/// Fused AVX2 host row: 4-wide distance pass with a movemask early-skip of
/// non-interacting lane groups, serial in-order accumulate of the survivors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn host_row_avx2(
    centre: [f64; 3],
    cand: &SoaPositions<f64>,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> GatherRow<f64> {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = cand.len();
    let cutoff2 = sub.cutoff2();
    let [xi, yi, zi] = centre;
    let mut acc = Vec3::zero();
    let mut pe = 0.0f64;
    let mut interactions = 0u64;

    let l = _mm256_set1_pd(box_len);
    let half = _mm256_set1_pd(box_len * 0.5);
    let neg_half = _mm256_set1_pd(-(box_len * 0.5));
    let vcut = _mm256_set1_pd(cutoff2);
    let pxi = _mm256_set1_pd(xi);
    let pyi = _mm256_set1_pd(yi);
    let pzi = _mm256_set1_pd(zi);

    let mut dxs = [0.0f64; 4];
    let mut dys = [0.0f64; 4];
    let mut dzs = [0.0f64; 4];
    let mut r2s = [0.0f64; 4];

    let mut k = 0;
    while k + 4 <= n {
        macro_rules! axis {
            ($pi:expr, $src:expr) => {{
                let pj = _mm256_loadu_pd($src.as_ptr().add(k));
                let c = _mm256_sub_pd($pi, pj);
                let down = _mm256_sub_pd(c, l);
                let up = _mm256_add_pd(c, l);
                let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(c, half);
                let folded = _mm256_blendv_pd(c, down, gt);
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(c, neg_half);
                _mm256_blendv_pd(folded, up, lt)
            }};
        }
        let dx = axis!(pxi, cand.x);
        let dy = axis!(pyi, cand.y);
        let dz = axis!(pzi, cand.z);
        let r2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
            _mm256_mul_pd(dz, dz),
        );
        let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(r2, vcut));
        if mask != 0 {
            _mm256_storeu_pd(dxs.as_mut_ptr(), dx);
            _mm256_storeu_pd(dys.as_mut_ptr(), dy);
            _mm256_storeu_pd(dzs.as_mut_ptr(), dz);
            _mm256_storeu_pd(r2s.as_mut_ptr(), r2);
            for lane in 0..4 {
                if mask & (1 << lane) != 0 {
                    let r2v = r2s[lane];
                    if r2v != 0.0 {
                        let (e, f_over_r) = sub.energy_force(r2v);
                        pe += e;
                        let s = f_over_r * inv_mass;
                        acc.x += dxs[lane] * s;
                        acc.y += dys[lane] * s;
                        acc.z += dzs[lane] * s;
                        interactions += 1;
                    }
                }
            }
        }
        k += 4;
    }
    host_row_tail(
        cand,
        k,
        centre,
        box_len,
        cutoff2,
        sub,
        inv_mass,
        &mut acc,
        &mut pe,
        &mut interactions,
    );
    GatherRow {
        acc,
        pe,
        interactions,
    }
}

/// Relative slack of the bin width over the cutoff. It covers the rounding
/// of the binning and of the distance pass, both a few ulps of the box
/// length (DESIGN.md §17.1).
const BIN_MARGIN: f64 = 1e-6;

/// Rows `rows` of the host flavor, each bitwise equal to [`host_row`], with
/// the candidates cut from all atoms to those of the 27 bins around the
/// row's own.
///
/// Atoms are binned into cubes at least `cutoff·(1 + BIN_MARGIN)` on a
/// side. An atom outside the 27 bins around atom `i`'s is more than a bin
/// width away along some axis, so its computed `r2` is at least
/// `cutoff2` and [`host_row`] rejects it; every pair `host_row`
/// accumulates is therefore a candidate here. Per bin the candidates are
/// gathered once, in ascending index, and every row of the bin runs the
/// host distance kernel over them, so survivors accumulate in the same
/// ascending-j order as in [`host_row`]. Boxes of fewer than 3 bins per
/// edge, and positions the argument does not cover (outside `[-L, 2L)` or
/// not finite), take the per-row path.
pub fn host_rows(
    soa: &SoaPositions<f64>,
    rows: Range<usize>,
    box_len: f64,
    sub: &Substrate<f64>,
    inv_mass: f64,
) -> Vec<GatherRow<f64>> {
    assert!(
        rows.end <= soa.len(),
        "rows {rows:?} out of {} atoms",
        soa.len()
    );
    let Some(grid) = BinGrid::new(soa, box_len, sub.cutoff2()) else {
        return rows
            .map(|i| host_row(soa, i, box_len, sub, inv_mass))
            .collect();
    };
    let mut out = vec![GatherRow::default(); rows.len()];
    let mut marks = vec![0u64; soa.len().div_ceil(64)];
    let mut cand = SoaPositions {
        x: Vec::new(),
        y: Vec::new(),
        z: Vec::new(),
    };
    for bin in 0..grid.bins() {
        let members = grid.members(bin);
        if !members.iter().any(|i| rows.contains(i)) {
            continue;
        }
        // Mark the 27 bins' atoms, then read the marks back in ascending
        // index order.
        for nb in grid.neighbours(bin) {
            for &j in grid.members(nb) {
                marks[j / 64] |= 1 << (j % 64);
            }
        }
        cand.x.clear();
        cand.y.clear();
        cand.z.clear();
        for (w, word) in marks.iter_mut().enumerate() {
            while *word != 0 {
                let j = w * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                cand.x.push(soa.x[j]);
                cand.y.push(soa.y[j]);
                cand.z.push(soa.z[j]);
            }
        }
        for &i in members.iter().filter(|i| rows.contains(i)) {
            let centre = [soa.x[i], soa.y[i], soa.z[i]];
            out[i - rows.start] = host_row_over(centre, &cand, box_len, sub, inv_mass);
        }
    }
    out
}

/// [`crate::forces::AllPairsFullKernel`] for `f64` systems through the
/// binned [`host_rows`]: every row is bitwise the one `gather_row` gives,
/// and the PE fold runs in the same ascending-atom order, so accelerations
/// and the returned energy are bitwise those of the all-pairs kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostRowsKernel;

impl ForceKernel<f64> for HostRowsKernel {
    fn compute(&mut self, sys: &mut ParticleSystem<f64>, sub: &Substrate<f64>) -> f64 {
        let soa = SoaPositions::from_positions(&sys.positions);
        let rows = host_rows(&soa, 0..sys.n(), sys.box_len, sub, sys.mass.recip());
        let mut pe_twice = 0.0;
        for (a, row) in sys.accelerations.iter_mut().zip(rows) {
            *a = row.acc;
            pe_twice += row.pe;
        }
        pe_twice * 0.5
    }

    fn name(&self) -> &'static str {
        "host-rows"
    }
}

/// Atoms sorted into a periodic grid of `per_edge³` cubic bins, each bin's
/// atoms in ascending index.
struct BinGrid {
    per_edge: usize,
    /// `order[start[b]..start[b + 1]]` are bin `b`'s atoms.
    start: Vec<usize>,
    order: Vec<usize>,
}

impl BinGrid {
    /// `None` when the binned path does not apply (see [`host_rows`]).
    fn new(soa: &SoaPositions<f64>, box_len: f64, cutoff2: f64) -> Option<Self> {
        if !(box_len.is_finite() && box_len > 0.0 && cutoff2.is_finite() && cutoff2 > 0.0) {
            return None;
        }
        let in_range = |c: &f64| (-box_len..2.0 * box_len).contains(c);
        if !(soa.x.iter().all(in_range) && soa.y.iter().all(in_range) && soa.z.iter().all(in_range))
        {
            return None;
        }
        // More bins than about one per atom buys nothing; fewer is still
        // conservative (only wider).
        let most = (soa.len() as f64).cbrt().ceil().max(3.0);
        let per_edge = (box_len / (cutoff2.sqrt() * (1.0 + BIN_MARGIN)))
            .floor()
            .min(most) as usize;
        if per_edge < 3 {
            return None;
        }
        let scale = per_edge as f64 / box_len;
        let cell = |c: f64| ((c * scale).floor() as i64).rem_euclid(per_edge as i64) as usize;
        let bin_of: Vec<usize> = (0..soa.len())
            .map(|i| (cell(soa.z[i]) * per_edge + cell(soa.y[i])) * per_edge + cell(soa.x[i]))
            .collect();
        // Counting sort: stable, so each bin lists its atoms ascending.
        let mut start = vec![0usize; per_edge.pow(3) + 1];
        for &b in &bin_of {
            start[b + 1] += 1;
        }
        for b in 0..per_edge.pow(3) {
            start[b + 1] += start[b];
        }
        let mut fill = start.clone();
        let mut order = vec![0usize; soa.len()];
        for (i, &b) in bin_of.iter().enumerate() {
            order[fill[b]] = i;
            fill[b] += 1;
        }
        Some(Self {
            per_edge,
            start,
            order,
        })
    }

    fn bins(&self) -> usize {
        self.start.len() - 1
    }

    fn members(&self, bin: usize) -> &[usize] {
        &self.order[self.start[bin]..self.start[bin + 1]]
    }

    /// The 27 bins around `bin`, periodically; distinct since
    /// `per_edge >= 3`.
    fn neighbours(&self, bin: usize) -> impl Iterator<Item = usize> + '_ {
        let m = self.per_edge;
        let (x, y, z) = (bin % m, (bin / m) % m, bin / (m * m));
        let around = move |c: usize| [(c + m - 1) % m, c, (c + 1) % m];
        around(z).into_iter().flat_map(move |nz| {
            around(y)
                .into_iter()
                .flat_map(move |ny| around(x).into_iter().map(move |nx| (nz * m + ny) * m + nx))
        })
    }
}

// ---------------------------------------------------------------------------
// Single-precision SoA shared by the Cell and GPU flavors.

/// Positions in f32 structure-of-arrays layout, as the single-precision
/// device flavors consume them (built from local-store quads or position
/// texels; the fourth quad lane is padding on both devices).
#[derive(Clone, Debug, Default)]
pub struct SoaPositionsF32 {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
}

impl SoaPositionsF32 {
    /// Transpose `[x, y, z, pad]` quads (local-store image or texture).
    pub fn from_quads(quads: impl Iterator<Item = [f32; 4]>) -> Self {
        let mut soa = Self::default();
        for q in quads {
            soa.x.push(q[0]);
            soa.y.push(q[1]);
            soa.z.push(q[2]);
        }
        soa
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// One SPE row evaluated by the shared kernel: the acceleration triple, the
/// atom's (unhalved) PE contribution — the value the SPE kernel stores in
/// the quad's fourth lane — and the interaction count the cost interpreter
/// charges per-interaction cycles for.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellRow {
    pub acc: [f32; 3],
    pub pe: f32,
    pub interactions: u64,
}

// ---------------------------------------------------------------------------
// Cell flavor (f32): the SPE `SimdAcceleration` kernel arithmetic.

/// Atom `i`'s row exactly as the fully SIMDized SPE kernel
/// (`SpeKernelVariant::SimdAcceleration`) computes it: compare/select
/// unit-cell shift on all axes, `dir = pi - (pj + shift)`, left-folded dot,
/// and — for surviving pairs — FMA accumulation (native policy) or widened
/// f64 row sums narrowed once (mixed policy). The self-pair the interpretive
/// loop skips with a branch is excluded here by the `r2 > 0` predicate,
/// which rejects exactly the same pairs.
#[inline]
pub fn cell_row(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> CellRow {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels_native() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { cell_row_avx2(soa, i, box_len, sub, inv_mass) };
    }
    cell_row_batched(soa, i, box_len, sub, inv_mass)
}

/// Accumulator state for one cell row; finishes by narrowing the mixed
/// sums if the policy widened them.
struct CellAccum {
    mixed: bool,
    acc: [f32; 3],
    pe: f32,
    acc64: [f64; 3],
    pe64: f64,
    interactions: u64,
}

impl CellAccum {
    fn new(mixed: bool) -> Self {
        Self {
            mixed,
            acc: [0.0; 3],
            pe: 0.0,
            acc64: [0.0; 3],
            pe64: 0.0,
            interactions: 0,
        }
    }

    /// One surviving pair, exactly the SPE kernel's accumulate stage.
    #[inline]
    fn pair(&mut self, dir: [f32; 3], r2: f32, sub: &Substrate<f32>, inv_mass: f32) {
        self.interactions += 1;
        let (e, f_over_r) = sub.energy_force(r2);
        if self.mixed {
            self.pe64 += f64::from(e);
            let s = f_over_r * inv_mass;
            self.acc64[0] += f64::from(dir[0] * s);
            self.acc64[1] += f64::from(dir[1] * s);
            self.acc64[2] += f64::from(dir[2] * s);
        } else {
            self.pe += e;
            let s = f_over_r * inv_mass;
            // `F32x4::madd`: per-lane fused multiply-add.
            self.acc[0] = dir[0].mul_add(s, self.acc[0]);
            self.acc[1] = dir[1].mul_add(s, self.acc[1]);
            self.acc[2] = dir[2].mul_add(s, self.acc[2]);
        }
    }

    fn finish(self) -> CellRow {
        if self.mixed {
            CellRow {
                acc: [
                    f32::from_f64(self.acc64[0]),
                    f32::from_f64(self.acc64[1]),
                    f32::from_f64(self.acc64[2]),
                ],
                pe: f32::from_f64(self.pe64),
                interactions: self.interactions,
            }
        } else {
            CellRow {
                acc: self.acc,
                pe: self.pe,
                interactions: self.interactions,
            }
        }
    }
}

/// Scalar remainder of a cell row: atoms `k..n`, per-lane exactly the
/// `F32x4` compare/select arithmetic.
#[inline]
#[allow(clippy::too_many_arguments)]
fn cell_row_tail(
    soa: &SoaPositionsF32,
    mut k: usize,
    pi: [f32; 3],
    box_len: f32,
    cutoff2: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
    st: &mut CellAccum,
) {
    let n = soa.len();
    let l = box_len;
    let half_l = 0.5 * l;
    while k < n {
        let pj = [soa.x[k], soa.y[k], soa.z[k]];
        let mut dir = [0.0f32; 3];
        for a in 0..3 {
            let d = pi[a] - pj[a];
            let s1 = if d > half_l { l } else { 0.0 };
            let s2 = if -half_l > d { -l } else { 0.0 };
            let shift = s1 + s2;
            dir[a] = pi[a] - (pj[a] + shift);
        }
        let r2 = dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2];
        if r2 < cutoff2 && r2 > 0.0 {
            st.pair(dir, r2, sub, inv_mass);
        }
        k += 1;
    }
}

/// Portable batched cell row on [`vecmath::F32x8`] lanes.
fn cell_row_batched(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> CellRow {
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = CellAccum::new(sub.accumulate_f64);

    let l = F32x8::splat(box_len);
    let neg_l = F32x8::splat(-box_len);
    let half = F32x8::splat(0.5 * box_len);
    let neg_half = F32x8::splat(-(0.5 * box_len));
    let vcut = F32x8::splat(cutoff2);
    let px = [
        F32x8::splat(pi[0]),
        F32x8::splat(pi[1]),
        F32x8::splat(pi[2]),
    ];

    let mut k = 0;
    while k + 8 <= n {
        let axis = |pa: F32x8, src: &[f32]| -> F32x8 {
            let pj = F32x8::from_slice(&src[k..]);
            let d = pa.sub(pj);
            let s1 = F32x8::select(d.cmp_gt(half), l, F32x8::ZERO);
            let s2 = F32x8::select(d.cmp_lt(neg_half), neg_l, F32x8::ZERO);
            let shift = s1.add(s2);
            pa.sub(pj.add(shift))
        };
        let dx = axis(px[0], &soa.x);
        let dy = axis(px[1], &soa.y);
        let dz = axis(px[2], &soa.z);
        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
        let m = r2.cmp_lt(vcut).and(r2.cmp_gt(F32x8::ZERO));
        if m.any() {
            for lane in 0..8 {
                if m.test(lane) {
                    st.pair(
                        [dx.lane(lane), dy.lane(lane), dz.lane(lane)],
                        r2.lane(lane),
                        sub,
                        inv_mass,
                    );
                }
            }
        }
        k += 8;
    }
    cell_row_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

/// Fused AVX2 cell row: 8-wide f32 distance pass, movemask early-skip,
/// serial in-order accumulate of the survivors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cell_row_avx2(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> CellRow {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm256_sub_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = CellAccum::new(sub.accumulate_f64);

    let l = _mm256_set1_ps(box_len);
    let neg_l = _mm256_set1_ps(-box_len);
    let half = _mm256_set1_ps(0.5 * box_len);
    let neg_half = _mm256_set1_ps(-(0.5 * box_len));
    let vcut = _mm256_set1_ps(cutoff2);
    let zero = _mm256_setzero_ps();
    let pxi = _mm256_set1_ps(pi[0]);
    let pyi = _mm256_set1_ps(pi[1]);
    let pzi = _mm256_set1_ps(pi[2]);

    let mut dxs = [0.0f32; 8];
    let mut dys = [0.0f32; 8];
    let mut dzs = [0.0f32; 8];
    let mut r2s = [0.0f32; 8];

    let mut k = 0;
    while k + 8 <= n {
        macro_rules! axis {
            ($pa:expr, $src:expr) => {{
                let pj = _mm256_loadu_ps($src.as_ptr().add(k));
                let d = _mm256_sub_ps($pa, pj);
                let hi = _mm256_cmp_ps::<_CMP_GT_OQ>(d, half);
                let lo = _mm256_cmp_ps::<_CMP_LT_OQ>(d, neg_half);
                let s1 = _mm256_blendv_ps(zero, l, hi);
                let s2 = _mm256_blendv_ps(zero, neg_l, lo);
                let shift = _mm256_add_ps(s1, s2);
                _mm256_sub_ps($pa, _mm256_add_ps(pj, shift))
            }};
        }
        let dx = axis!(pxi, soa.x);
        let dy = axis!(pyi, soa.y);
        let dz = axis!(pzi, soa.z);
        let r2 = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        let keep = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(r2, vcut),
            _mm256_cmp_ps::<_CMP_GT_OQ>(r2, zero),
        );
        let mask = _mm256_movemask_ps(keep);
        if mask != 0 {
            _mm256_storeu_ps(dxs.as_mut_ptr(), dx);
            _mm256_storeu_ps(dys.as_mut_ptr(), dy);
            _mm256_storeu_ps(dzs.as_mut_ptr(), dz);
            _mm256_storeu_ps(r2s.as_mut_ptr(), r2);
            for lane in 0..8 {
                if mask & (1 << lane) != 0 {
                    st.pair([dxs[lane], dys[lane], dzs[lane]], r2s[lane], sub, inv_mass);
                }
            }
        }
        k += 8;
    }
    cell_row_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

// ---------------------------------------------------------------------------
// GPU flavor (f32): the predicated fragment-shader arithmetic.

/// Atom `i`'s output texel `[ax, ay, az, pe]` exactly as the acceleration
/// shader computes it: sequential-conditional minimum image per axis (the
/// second compare tests the *updated* coordinate), predicated cutoff mask,
/// `(d[k] * f_over_r) * inv_mass` accumulation — native or mixed policy.
/// The self-pair is examined and predicated off, as on hardware.
#[inline]
pub fn gpu_texel(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> [f32; 4] {
    #[cfg(target_arch = "x86_64")]
    if wide_kernels_native() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { gpu_texel_avx2(soa, i, box_len, sub, inv_mass) };
    }
    gpu_texel_batched(soa, i, box_len, sub, inv_mass)
}

/// Accumulator state for one GPU texel.
struct GpuAccum {
    mixed: bool,
    acc: [f32; 3],
    pe: f32,
    acc64: [f64; 3],
    pe64: f64,
}

impl GpuAccum {
    fn new(mixed: bool) -> Self {
        Self {
            mixed,
            acc: [0.0; 3],
            pe: 0.0,
            acc64: [0.0; 3],
            pe64: 0.0,
        }
    }

    /// One surviving (unmasked) pair, exactly the shader's accumulate.
    #[inline]
    fn pair(&mut self, d: [f32; 3], r2: f32, sub: &Substrate<f32>, inv_mass: f32) {
        let (e, f_over_r) = sub.energy_force(r2);
        if self.mixed {
            self.pe64 += f64::from(e);
            for (acc, dk) in self.acc64.iter_mut().zip(d) {
                *acc += f64::from(dk * f_over_r * inv_mass);
            }
        } else {
            self.pe += e;
            for (acc, dk) in self.acc.iter_mut().zip(d) {
                *acc += dk * f_over_r * inv_mass;
            }
        }
    }

    fn finish(mut self) -> [f32; 4] {
        if self.mixed {
            for k in 0..3 {
                self.acc[k] = f32::from_f64(self.acc64[k]);
            }
            self.pe = f32::from_f64(self.pe64);
        }
        [self.acc[0], self.acc[1], self.acc[2], self.pe]
    }
}

/// Scalar remainder of a GPU texel: atoms `k..n`, the exact shader
/// arithmetic.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gpu_texel_tail(
    soa: &SoaPositionsF32,
    mut k: usize,
    pi: [f32; 3],
    box_len: f32,
    cutoff2: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
    st: &mut GpuAccum,
) {
    let n = soa.len();
    let l = box_len;
    let half_l = 0.5 * l;
    while k < n {
        let pj = [soa.x[k], soa.y[k], soa.z[k]];
        let mut d = [0.0f32; 3];
        for a in 0..3 {
            let mut dk = pi[a] - pj[a];
            dk += if dk > half_l { -l } else { 0.0 };
            dk += if dk < -half_l { l } else { 0.0 };
            d[a] = dk;
        }
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if r2 < cutoff2 && r2 > 0.0 {
            st.pair(d, r2, sub, inv_mass);
        }
        k += 1;
    }
}

/// Portable batched GPU texel on [`vecmath::F32x8`] lanes.
fn gpu_texel_batched(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> [f32; 4] {
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = GpuAccum::new(sub.accumulate_f64);

    let l = F32x8::splat(box_len);
    let neg_l = F32x8::splat(-box_len);
    let half = F32x8::splat(0.5 * box_len);
    let neg_half = F32x8::splat(-(0.5 * box_len));
    let vcut = F32x8::splat(cutoff2);
    let px = [
        F32x8::splat(pi[0]),
        F32x8::splat(pi[1]),
        F32x8::splat(pi[2]),
    ];

    let mut k = 0;
    while k + 8 <= n {
        let axis = |pa: F32x8, src: &[f32]| -> F32x8 {
            let pj = F32x8::from_slice(&src[k..]);
            let c = pa.sub(pj);
            let c1 = c.add(F32x8::select(c.cmp_gt(half), neg_l, F32x8::ZERO));
            c1.add(F32x8::select(c1.cmp_lt(neg_half), l, F32x8::ZERO))
        };
        let dx = axis(px[0], &soa.x);
        let dy = axis(px[1], &soa.y);
        let dz = axis(px[2], &soa.z);
        let r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
        let m = r2.cmp_lt(vcut).and(r2.cmp_gt(F32x8::ZERO));
        if m.any() {
            for lane in 0..8 {
                if m.test(lane) {
                    st.pair(
                        [dx.lane(lane), dy.lane(lane), dz.lane(lane)],
                        r2.lane(lane),
                        sub,
                        inv_mass,
                    );
                }
            }
        }
        k += 8;
    }
    gpu_texel_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

/// Fused AVX2 GPU texel: 8-wide f32 distance pass with the shader's
/// sequential-conditional minimum image, movemask early-skip, serial
/// in-order accumulate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gpu_texel_avx2(
    soa: &SoaPositionsF32,
    i: usize,
    box_len: f32,
    sub: &Substrate<f32>,
    inv_mass: f32,
) -> [f32; 4] {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm256_sub_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let n = soa.len();
    let cutoff2 = sub.cutoff2();
    let pi = [soa.x[i], soa.y[i], soa.z[i]];
    let mut st = GpuAccum::new(sub.accumulate_f64);

    let l = _mm256_set1_ps(box_len);
    let neg_l = _mm256_set1_ps(-box_len);
    let half = _mm256_set1_ps(0.5 * box_len);
    let neg_half = _mm256_set1_ps(-(0.5 * box_len));
    let vcut = _mm256_set1_ps(cutoff2);
    let zero = _mm256_setzero_ps();
    let pxi = _mm256_set1_ps(pi[0]);
    let pyi = _mm256_set1_ps(pi[1]);
    let pzi = _mm256_set1_ps(pi[2]);

    let mut dxs = [0.0f32; 8];
    let mut dys = [0.0f32; 8];
    let mut dzs = [0.0f32; 8];
    let mut r2s = [0.0f32; 8];

    let mut k = 0;
    while k + 8 <= n {
        macro_rules! axis {
            ($pa:expr, $src:expr) => {{
                let pj = _mm256_loadu_ps($src.as_ptr().add(k));
                let c = _mm256_sub_ps($pa, pj);
                let m1 = _mm256_cmp_ps::<_CMP_GT_OQ>(c, half);
                let c1 = _mm256_add_ps(c, _mm256_blendv_ps(zero, neg_l, m1));
                let m2 = _mm256_cmp_ps::<_CMP_LT_OQ>(c1, neg_half);
                _mm256_add_ps(c1, _mm256_blendv_ps(zero, l, m2))
            }};
        }
        let dx = axis!(pxi, soa.x);
        let dy = axis!(pyi, soa.y);
        let dz = axis!(pzi, soa.z);
        let r2 = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz),
        );
        let keep = _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(r2, vcut),
            _mm256_cmp_ps::<_CMP_GT_OQ>(r2, zero),
        );
        let mask = _mm256_movemask_ps(keep);
        if mask != 0 {
            _mm256_storeu_ps(dxs.as_mut_ptr(), dx);
            _mm256_storeu_ps(dys.as_mut_ptr(), dy);
            _mm256_storeu_ps(dzs.as_mut_ptr(), dz);
            _mm256_storeu_ps(r2s.as_mut_ptr(), r2);
            for lane in 0..8 {
                if mask & (1 << lane) != 0 {
                    st.pair([dxs[lane], dys[lane], dzs[lane]], r2s[lane], sub, inv_mass);
                }
            }
        }
        k += 8;
    }
    gpu_texel_tail(soa, k, pi, box_len, cutoff2, sub, inv_mass, &mut st);
    st.finish()
}

#[cfg(test)]
// Bitwise assertions are the point: the memo contract is exact equality,
// not tolerance (DESIGN.md §4, §17).
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::forces::gather_row;
    use crate::init::initialize;
    use crate::params::SimConfig;
    use crate::scenario::{PrecisionPolicy, ScenarioSpec};
    use crate::system::ParticleSystem;

    fn host_setup(spec: ScenarioSpec) -> (ParticleSystem<f64>, Substrate<f64>, f64) {
        let cfg = SimConfig::reduced_lj(251).with_scenario(spec);
        let sys = initialize(&cfg);
        let sub = cfg.substrate::<f64>();
        let box_len = sys.box_len;
        (sys, sub, box_len)
    }

    #[test]
    fn host_row_bitwise_matches_gather_row() {
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ] {
            let (sys, sub, l) = host_setup(spec);
            let soa = SoaPositions::from_positions(&sys.positions);
            let inv_m = sys.mass.recip();
            for i in 0..sys.n() {
                let a = gather_row(&soa, i, l, &sub, inv_m);
                let b = host_row(&soa, i, l, &sub, inv_m);
                assert_eq!(a.acc.x.to_bits(), b.acc.x.to_bits(), "row {i} x");
                assert_eq!(a.acc.y.to_bits(), b.acc.y.to_bits(), "row {i} y");
                assert_eq!(a.acc.z.to_bits(), b.acc.z.to_bits(), "row {i} z");
                assert_eq!(a.pe.to_bits(), b.pe.to_bits(), "row {i} pe");
                assert_eq!(a.interactions, b.interactions, "row {i} count");
            }
        }
    }

    #[test]
    fn host_row_portable_and_native_agree() {
        let (sys, sub, l) = host_setup(ScenarioSpec::default());
        let soa = SoaPositions::from_positions(&sys.positions);
        let inv_m = sys.mass.recip();
        for i in 0..sys.n() {
            let centre = [soa.x[i], soa.y[i], soa.z[i]];
            let a = host_row_batched(centre, &soa, l, &sub, inv_m);
            let b = host_row(&soa, i, l, &sub, inv_m);
            assert_eq!(a, b, "row {i}");
        }
    }

    /// `per_edge` bins of a dyadic width just over the 2.5 cutoff, so the
    /// cutoff-distance pairs below are exact in binary.
    fn binned_box(per_edge: usize) -> f64 {
        per_edge as f64 * 2.5 * (129.0 / 128.0)
    }

    /// Positions that probe every edge of the binning: uniform atoms, atoms
    /// on bin boundaries, at exactly 0, at `L − ulp`, just outside `[0, L)`,
    /// well outside it but inside `[−L, 2L)`, and pairs exactly at (and one
    /// ulp-scale step inside) the cutoff across each periodic face.
    fn adversarial(l: f64, n_uniform: usize, seed: u64) -> SoaPositions<f64> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut pts: Vec<[f64; 3]> = (0..n_uniform)
            .map(|_| [rng.next_f64() * l, rng.next_f64() * l, rng.next_f64() * l])
            .collect();
        let below_l = f64::from_bits(l.to_bits() - 1);
        let edges = [
            0.0,
            -0.0,
            below_l,
            l,
            -1e-12,
            l + 1e-12,
            -f64::MIN_POSITIVE,
            -0.4 * l,
            1.6 * l,
            -l,
            f64::from_bits((2.0 * l).to_bits() - 1),
        ];
        for (k, &e) in edges.iter().enumerate() {
            let m = rng.next_f64() * l;
            pts.push([e, m, m]);
            pts.push([m, e, e]);
            pts.push([e, e, [0.0, below_l, m][k % 3]]);
        }
        let w = l / (l / 2.5 / (129.0 / 128.0)).round();
        for b in 1..4 {
            let on = b as f64 * w;
            pts.push([on, on, rng.next_f64() * l]);
            pts.push([f64::from_bits(on.to_bits() - 1), on, 1.0]);
        }
        for axis in 0..3 {
            for (a, b) in [(0.25, l - 2.25), (0.25, l - 2.25 + 2f64.powi(-40))] {
                let (mut p, mut q) = ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]);
                p[axis] = a;
                q[axis] = b;
                pts.extend([p, q]);
            }
        }
        SoaPositions {
            x: pts.iter().map(|p| p[0]).collect(),
            y: pts.iter().map(|p| p[1]).collect(),
            z: pts.iter().map(|p| p[2]).collect(),
        }
    }

    fn assert_rows_bitwise(a: &GatherRow<f64>, b: &GatherRow<f64>, what: &str) {
        let bits = |r: &GatherRow<f64>| {
            (
                [r.acc.x, r.acc.y, r.acc.z, r.pe].map(f64::to_bits),
                r.interactions,
            )
        };
        assert_eq!(bits(a), bits(b), "{what}");
    }

    #[test]
    fn host_rows_bitwise_matches_host_row_on_adversarial_positions() {
        let specs = [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::coulomb_cutoff(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
            ScenarioSpec::morse_nvt().with_precision(PrecisionPolicy::MixedF64Accumulate),
            ScenarioSpec::coulomb_cutoff().with_precision(PrecisionPolicy::ForceF32),
        ];
        for per_edge in [2usize, 3, 4, 5, 8] {
            let l = binned_box(per_edge);
            // Enough atoms that the bin cap never binds.
            let soa = adversarial(l, 520, per_edge as u64);
            for spec in specs {
                let sub: Substrate<f64> = spec.substrate(2.5);
                let grid = BinGrid::new(&soa, l, sub.cutoff2()).map(|g| g.per_edge);
                assert_eq!(grid, (per_edge >= 3).then_some(per_edge), "{spec}");
                let n = soa.len();
                let whole = host_rows(&soa, 0..n, l, &sub, 0.5);
                let mut interactions = 0;
                for (i, row) in whole.iter().enumerate() {
                    let want = host_row(&soa, i, l, &sub, 0.5);
                    assert_rows_bitwise(row, &want, &format!("{spec} {per_edge}/edge row {i}"));
                    interactions += row.interactions;
                }
                assert!(interactions > 0, "{spec}: the positions must interact");
                for range in [0..1, 7..n / 2, n - 40..n, n..n] {
                    let part = host_rows(&soa, range.clone(), l, &sub, 0.5);
                    assert_eq!(part.len(), range.len());
                    for (row, i) in part.iter().zip(range) {
                        assert_rows_bitwise(row, &whole[i], &format!("{spec} sub-range row {i}"));
                    }
                }
            }
        }
    }

    #[test]
    fn bins_are_at_least_the_cutoff_plus_margin_wide() {
        // A box of exactly 4 cutoffs gets 3 bins: 4 would be exactly one
        // cutoff wide, with no room for rounding.
        let sub: Substrate<f64> = ScenarioSpec::default().substrate(2.5);
        for (l, want) in [(9.9, 3), (10.0, 3), (10.0 * (1.0 + 2e-6), 4)] {
            let soa = adversarial(l, 60, 5);
            let grid = BinGrid::new(&soa, l, sub.cutoff2()).map(|g| g.per_edge);
            assert_eq!(grid, Some(want), "box {l}");
            let rows = host_rows(&soa, 0..soa.len(), l, &sub, 1.0);
            for (i, row) in rows.iter().enumerate() {
                assert_rows_bitwise(row, &host_row(&soa, i, l, &sub, 1.0), "margin box");
            }
        }
    }

    #[test]
    fn cutoff_pairs_across_a_periodic_face() {
        // The exact-cutoff pair is rejected and the pair 2^-40 inside is
        // accumulated, by both paths.
        let l = binned_box(4);
        let sub: Substrate<f64> = ScenarioSpec::default().substrate(2.5);
        let soa = SoaPositions::from_positions(&[
            Vec3::new(0.25, 1.0, 1.0),
            Vec3::new(l - 2.25, 1.0, 1.0),
            Vec3::new(1.0, 0.25, 5.0),
            Vec3::new(1.0, l - 2.25 + 2f64.powi(-40), 5.0),
        ]);
        let rows = host_rows(&soa, 0..4, l, &sub, 1.0);
        assert_eq!(
            rows.iter().map(|r| r.interactions).collect::<Vec<_>>(),
            [0, 0, 1, 1]
        );
        for (i, row) in rows.iter().enumerate() {
            assert_rows_bitwise(row, &host_row(&soa, i, l, &sub, 1.0), "face pair");
        }
    }

    #[test]
    fn host_rows_fall_back_where_binning_does_not_apply() {
        let l = binned_box(5);
        let sub: Substrate<f64> = ScenarioSpec::default().substrate(2.5);
        let mut soa = adversarial(l, 200, 9);
        assert!(BinGrid::new(&soa, l, sub.cutoff2()).is_some());
        for bad in [2.0 * l, -l - 1e-9, f64::NAN, f64::INFINITY] {
            let keep = soa.y[3];
            soa.y[3] = bad;
            assert!(BinGrid::new(&soa, l, sub.cutoff2()).is_none(), "{bad}");
            let rows = host_rows(&soa, 0..soa.len(), l, &sub, 1.0);
            for (i, row) in rows.iter().enumerate() {
                assert_rows_bitwise(row, &host_row(&soa, i, l, &sub, 1.0), "fallback");
            }
            soa.y[3] = keep;
        }
    }

    #[test]
    fn host_rows_kernel_bitwise_matches_all_pairs_kernel() {
        use crate::forces::AllPairsFullKernel;
        use crate::verlet::VelocityVerlet;
        let cfg = SimConfig::reduced_lj(864);
        let sub = cfg.substrate::<f64>();
        let mut binned: ParticleSystem<f64> = initialize(&cfg);
        // Off the lattice, where every row differs and so the fold order
        // shows in the sum.
        let vv = VelocityVerlet::new(cfg.dt);
        AllPairsFullKernel.compute(&mut binned, &sub);
        for _ in 0..3 {
            vv.step(&mut binned, &mut AllPairsFullKernel, &sub);
        }
        let mut all_pairs = binned.clone();
        let pe = HostRowsKernel.compute(&mut binned, &sub);
        let want = AllPairsFullKernel.compute(&mut all_pairs, &sub);
        assert_eq!(pe.to_bits(), want.to_bits());
        let bits = |s: &ParticleSystem<f64>| -> Vec<[u64; 3]> {
            s.accelerations
                .iter()
                .map(|a| [a.x, a.y, a.z].map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(&binned), bits(&all_pairs));
    }

    #[test]
    fn device_sized_boxes_bin_three_or_more_per_edge() {
        // The 512-atom device goldens reach the binned path; 256 atoms do not.
        for (n, want) in [
            (256, None),
            (512, Some(3)),
            (2048, Some(5)),
            (8192, Some(8)),
        ] {
            for spec in [ScenarioSpec::default(), ScenarioSpec::morse_nvt()] {
                let cfg = SimConfig::reduced_lj(n).with_scenario(spec);
                let sys: ParticleSystem<f64> = initialize(&cfg);
                let soa = SoaPositions::from_positions(&sys.positions);
                let sub = cfg.substrate::<f64>();
                let got = BinGrid::new(&soa, sys.box_len, sub.cutoff2()).map(|g| g.per_edge);
                assert_eq!(got, want, "{n} atoms, {spec}");
            }
        }
    }

    fn f32_soa(n: usize) -> (SoaPositionsF32, f32) {
        let cfg = SimConfig::reduced_lj(n);
        let sys: ParticleSystem<f64> = initialize(&cfg);
        let soa = SoaPositionsF32::from_quads(
            sys.positions
                .iter()
                .map(|p| [p.x as f32, p.y as f32, p.z as f32, 0.0]),
        );
        (soa, sys.box_len as f32)
    }

    #[test]
    fn cell_row_portable_and_native_agree() {
        let (soa, l) = f32_soa(139);
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ] {
            let sub: Substrate<f32> = spec.substrate(2.5);
            for i in 0..soa.len() {
                let a = cell_row_batched(&soa, i, l, &sub, 1.0);
                let b = cell_row(&soa, i, l, &sub, 1.0);
                assert_eq!(a, b, "row {i}");
            }
        }
    }

    #[test]
    fn gpu_texel_portable_and_native_agree() {
        let (soa, l) = f32_soa(139);
        for spec in [
            ScenarioSpec::default(),
            ScenarioSpec::morse_nvt(),
            ScenarioSpec::default().with_precision(PrecisionPolicy::MixedF64Accumulate),
        ] {
            let sub: Substrate<f32> = spec.substrate(2.5);
            for i in 0..soa.len() {
                let a = gpu_texel_batched(&soa, i, l, &sub, 1.0);
                let b = gpu_texel(&soa, i, l, &sub, 1.0);
                for k in 0..4 {
                    assert_eq!(a[k].to_bits(), b[k].to_bits(), "texel {i}.{k}");
                }
            }
        }
    }

    #[test]
    fn cell_and_gpu_rows_agree_loosely_on_physics() {
        // Different minimum-image formulations, same physics: the flavors
        // must agree to f32 tolerance even though they are not bitwise
        // comparable with each other.
        let (soa, l) = f32_soa(139);
        let sub: Substrate<f32> = ScenarioSpec::default().substrate(2.5);
        for i in 0..soa.len() {
            let c = cell_row(&soa, i, l, &sub, 1.0);
            let g = gpu_texel(&soa, i, l, &sub, 1.0);
            for (k, gk) in g.iter().enumerate().take(3) {
                assert!(
                    (c.acc[k] - gk).abs() <= 1e-3 * c.acc[k].abs().max(1.0),
                    "row {i} axis {k}: {} vs {gk}",
                    c.acc[k]
                );
            }
            assert!((c.pe - g[3]).abs() <= 1e-3 * c.pe.abs().max(1.0));
        }
    }

    #[test]
    fn self_pair_is_predicated_off() {
        let soa = SoaPositionsF32::from_quads([[5.0f32, 5.0, 5.0, 0.0]].into_iter());
        let sub: Substrate<f32> = ScenarioSpec::default().substrate(2.5);
        let t = gpu_texel(&soa, 0, 20.0, &sub, 1.0);
        assert_eq!(t, [0.0; 4]);
        let c = cell_row(&soa, 0, 20.0, &sub, 1.0);
        assert_eq!(c, CellRow::default());
    }
}
