//! Lane-explicit accumulate kernels and runtime engine tuning.
//!
//! The widening `u8 → i32` accumulate over active crossbar rows is the
//! innermost loop of every engine datapath — the single-sample step and
//! the trial-group pass behind the batched and multi-map entry points.
//! This module is the one place that loop exists: every call site in
//! [`crate::engine::ComputeEngine`] and the per-row kernels of
//! [`crate::crossbar::Crossbar`] route through it, so the kernels cannot
//! drift between paths.
//!
//! # Lane-explicit, not `std::simd`
//!
//! The workspace carries no registry dependencies and stays on stable
//! Rust, so SIMD width is made explicit *structurally* instead of through
//! intrinsics: [`AccumKernel::Lanes8`] processes columns in fixed
//! [`LANE_WIDTH`]-wide chunks with a scalar remainder tail, accumulating
//! into a local `[i32; LANE_WIDTH]` block that LLVM autovectorizes.
//!
//! # Why every choice is bit-identical
//!
//! All summands are exact widenings of `u8` codes (non-negative, ≤ 255)
//! and a full crossbar column sums to at most `rows × 255`, so `i32`
//! accumulation never overflows for any crossbar under ~8.4M rows —
//! addition here is associative and commutative in the mathematical
//! sense, not merely approximately. Any row-block size or lane chunking
//! therefore produces bit-identical accumulators, which is what lets
//! [`EngineTuning::autotune`] pick layouts per host without touching the
//! engine's determinism obligations (the equivalence proptests and
//! pinned-bit suites run under randomized tunings to prove it).

use crate::engine::MAX_LANES;
use std::time::Instant;

/// Columns per explicit lane chunk of [`AccumKernel::Lanes8`]: eight
/// `i32` lanes, i.e. one AVX2 register or two 128-bit SSE/NEON registers.
pub const LANE_WIDTH: usize = 8;

/// Which inner-loop formulation the accumulate uses. All variants are
/// bit-identical (see the module docs); they differ only in how they
/// present the work to the compiler's vectorizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumKernel {
    /// One widening add per column per row — the reference formulation
    /// the equivalence tests pin everything else against.
    Scalar,
    /// Fixed [`LANE_WIDTH`]-column chunks accumulated into a local lane
    /// block, scalar remainder tail.
    Lanes8,
}

impl AccumKernel {
    /// Every kernel variant, in autotune candidate order.
    pub const ALL: [Self; 2] = [Self::Scalar, Self::Lanes8];

    /// Sums `K` rows column-wise into `acc`, storing (`STORE = true`) or
    /// accumulating (`STORE = false`) — the one generic body behind both
    /// halves of the historical quad-blocked accumulate.
    #[inline]
    fn pass<const K: usize, const STORE: bool>(self, rows: [&[u8]; K], acc: &mut [i32]) {
        match self {
            Self::Scalar => pass_scalar::<K, STORE>(rows, acc),
            Self::Lanes8 => pass_lanes8::<K, STORE>(rows, acc),
        }
    }
}

/// Active rows summed per accumulator pass by the blocked accumulate:
/// each `acc` element is touched once per block instead of once per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBlock {
    /// Two rows per pass.
    R2,
    /// Four rows per pass (the historical hand-picked quad).
    R4,
    /// Eight rows per pass.
    R8,
}

impl RowBlock {
    /// Every block size, in autotune candidate order.
    pub const ALL: [Self; 3] = [Self::R2, Self::R4, Self::R8];

    /// Rows per accumulator pass.
    pub fn rows(self) -> usize {
        match self {
            Self::R2 => 2,
            Self::R4 => 4,
            Self::R8 => 8,
        }
    }
}

/// Re-slices every row to the accumulator width so the inner loops index
/// without per-element bounds checks. Panics if a row is shorter than
/// `acc` — the callers' documented out-of-range contract.
#[inline(always)]
fn hoist<const K: usize>(rows: [&[u8]; K], n: usize) -> [&[u8]; K] {
    std::array::from_fn(|k| &rows[k][..n])
}

#[inline]
fn pass_scalar<const K: usize, const STORE: bool>(rows: [&[u8]; K], acc: &mut [i32]) {
    let rows = hoist(rows, acc.len());
    for (i, a) in acc.iter_mut().enumerate() {
        let mut s = 0_i32;
        for r in &rows {
            s += r[i] as i32;
        }
        if STORE {
            *a = s;
        } else {
            *a += s;
        }
    }
}

#[inline]
fn pass_lanes8<const K: usize, const STORE: bool>(rows: [&[u8]; K], acc: &mut [i32]) {
    let rows = hoist(rows, acc.len());
    let mut chunks = acc.chunks_exact_mut(LANE_WIDTH);
    let mut i = 0;
    for chunk in chunks.by_ref() {
        // A local lane block keeps the sums in registers across the K
        // rows; LLVM lowers the fixed-width loops to vector adds.
        let mut lane = [0_i32; LANE_WIDTH];
        for r in &rows {
            for (slot, &c) in lane.iter_mut().zip(&r[i..i + LANE_WIDTH]) {
                *slot += c as i32;
            }
        }
        for (a, &v) in chunk.iter_mut().zip(&lane) {
            if STORE {
                *a = v;
            } else {
                *a += v;
            }
        }
        i += LANE_WIDTH;
    }
    for (l, a) in chunks.into_remainder().iter_mut().enumerate() {
        let mut s = 0_i32;
        for r in &rows {
            s += r[i + l] as i32;
        }
        if STORE {
            *a = s;
        } else {
            *a += s;
        }
    }
}

/// One row of a flat row-major code image. Panics if the row lies past
/// the end of `src` — the engine's out-of-range active-row contract.
#[inline(always)]
fn image_row(src: &[u8], cols: usize, row: u32) -> &[u8] {
    let base = row as usize * cols;
    &src[base..base + cols]
}

/// Widening-adds the given rows of a row-major code image into the
/// per-column accumulators, one row per pass (the unblocked form —
/// remainder handling and the historical `accumulate_cached_rows`).
#[inline]
pub fn accumulate_rows(
    kernel: AccumKernel,
    src: &[u8],
    cols: usize,
    active_rows: &[u32],
    acc: &mut [i32],
) {
    for &row in active_rows {
        kernel.pass::<1, false>([image_row(src, cols, row)], acc);
    }
}

/// Row-blocked accumulate over a flat row-major code image, writing the
/// drives of one cycle into `acc` (previous contents are overwritten, so
/// callers skip the zero-fill pass): `block.rows()` rows are summed per
/// accumulator pass — and the first block *stores* instead of
/// accumulating — so each `acc` element is touched once per block
/// instead of once per row. Bit-identical to the zero-then-add
/// row-at-a-time formulation for every `(kernel, block)` choice (see the
/// module docs); the equivalence proptests pin that.
#[inline]
pub fn write_rows_blocked(
    kernel: AccumKernel,
    block: RowBlock,
    src: &[u8],
    cols: usize,
    active_rows: &[u32],
    acc: &mut [i32],
) {
    match block {
        RowBlock::R2 => write_blocked::<2>(kernel, src, cols, active_rows, acc),
        RowBlock::R4 => write_blocked::<4>(kernel, src, cols, active_rows, acc),
        RowBlock::R8 => write_blocked::<8>(kernel, src, cols, active_rows, acc),
    }
}

fn write_blocked<const K: usize>(
    kernel: AccumKernel,
    src: &[u8],
    cols: usize,
    active_rows: &[u32],
    acc: &mut [i32],
) {
    let mut blocks = active_rows.chunks_exact(K);
    let mut first = true;
    for block in blocks.by_ref() {
        let rows: [&[u8]; K] = std::array::from_fn(|k| image_row(src, cols, block[k]));
        if first {
            kernel.pass::<K, true>(rows, acc);
            first = false;
        } else {
            kernel.pass::<K, false>(rows, acc);
        }
    }
    if first {
        acc.fill(0);
    }
    accumulate_rows(kernel, src, cols, blocks.remainder(), acc);
}

/// Widening-adds one code row into `acc` through the identity read path.
/// Excess `acc` or `codes` length beyond the shorter of the two is
/// ignored — callers assert exact widths.
#[inline]
pub fn accumulate_row_direct(kernel: AccumKernel, codes: &[u8], acc: &mut [i32]) {
    accumulate_row_mapped(kernel, codes, acc, |c| c);
}

/// Widening-adds one code row into `acc` through a precomputed 256-entry
/// read-path table (one indexed load per element).
#[inline]
pub fn accumulate_row_lut(kernel: AccumKernel, codes: &[u8], lut: &[u8; 256], acc: &mut [i32]) {
    accumulate_row_mapped(kernel, codes, acc, |c| lut[c as usize]);
}

/// Widening-adds one code row into `acc` through a comparator+mux read
/// path (`code > threshold → default`) — a branchless compare/select.
#[inline]
pub fn accumulate_row_bounded(
    kernel: AccumKernel,
    codes: &[u8],
    threshold: u8,
    default: u8,
    acc: &mut [i32],
) {
    accumulate_row_mapped(
        kernel,
        codes,
        acc,
        |c| if c > threshold { default } else { c },
    );
}

/// The one transformed single-row body behind the crossbar's per-row
/// kernels: slice-hoisted bounds, then the chosen lane formulation with
/// `f` applied per code before widening.
#[inline(always)]
fn accumulate_row_mapped<F: Fn(u8) -> u8>(
    kernel: AccumKernel,
    codes: &[u8],
    acc: &mut [i32],
    f: F,
) {
    let n = acc.len().min(codes.len());
    let (acc, codes) = (&mut acc[..n], &codes[..n]);
    match kernel {
        AccumKernel::Scalar => {
            for (a, &c) in acc.iter_mut().zip(codes) {
                *a += f(c) as i32;
            }
        }
        AccumKernel::Lanes8 => {
            let mut chunks = acc.chunks_exact_mut(LANE_WIDTH);
            let mut i = 0;
            for chunk in chunks.by_ref() {
                for (a, &c) in chunk.iter_mut().zip(&codes[i..i + LANE_WIDTH]) {
                    *a += f(c) as i32;
                }
                i += LANE_WIDTH;
            }
            for (a, &c) in chunks.into_remainder().iter_mut().zip(&codes[i..]) {
                *a += f(c) as i32;
            }
        }
    }
}

/// Per-engine accumulate tuning: which kernel formulation and row-block
/// size the drive phases use, and how many lanes each trial-group chunk
/// interleaves. Every choice is bit-identical by construction (see
/// the module docs) — tuning trades only time, never results — so
/// engines autotune at construction by default and campaign clones
/// simply inherit the chosen values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTuning {
    /// Inner-loop formulation for every accumulate call site.
    pub kernel: AccumKernel,
    /// Rows summed per accumulator pass in the blocked drive phases.
    pub row_block: RowBlock,
    /// Lanes — one per (fault map, sample) pair — interleaved per chunk
    /// of the trial-group pass (clamped to `1..=MAX_LANES` at use). A
    /// plain batch fills them with samples, a multi-map group with maps,
    /// and a group of fewer maps with several samples per map.
    pub lane_chunk: usize,
}

impl EngineTuning {
    /// The fixed historical shape — the hand-picked constants every
    /// pre-tuning engine used. The escape hatch for tests and pins that
    /// want a deterministic construction-time choice (results are
    /// identical either way; only timings differ).
    pub fn fixed() -> Self {
        Self {
            kernel: AccumKernel::Lanes8,
            row_block: RowBlock::R4,
            lane_chunk: MAX_LANES,
        }
    }

    /// Measures the kernel/row-block candidates and the effective chunk
    /// width for `MAX_LANES`-sized lane planes on a small
    /// synthetic workload shaped like a `rows × cols` engine, and
    /// returns the winners. The workload is capped so construction
    /// stays cheap even in debug builds (property tests construct
    /// hundreds of engines); because every candidate is bit-identical,
    /// a noisy pick costs time only, never correctness.
    pub fn autotune(rows: usize, cols: usize) -> Self {
        let cols = cols.clamp(1, 256);
        let rows = rows.clamp(1, 32);
        // Synthetic row-major code image + a cycling active-row set long
        // enough to exercise full blocks of every candidate size.
        let src: Vec<u8> = (0..rows * cols)
            .map(|i| ((i * 31 + 17) & 0xff) as u8)
            .collect();
        let active: Vec<u32> = (0..16).map(|i| ((i * 7) % rows) as u32).collect();
        let mut acc = vec![0_i32; cols];
        let mut best = Self::fixed();
        let mut best_ns = u128::MAX;
        let mut sink = 0_i32;
        for kernel in AccumKernel::ALL {
            for row_block in RowBlock::ALL {
                // Best of a few short reps: robust to scheduler noise
                // without making construction slow.
                let mut cand_ns = u128::MAX;
                for _rep in 0..2 {
                    let t0 = Instant::now();
                    for _ in 0..2 {
                        write_rows_blocked(kernel, row_block, &src, cols, &active, &mut acc);
                        sink ^= acc[0];
                    }
                    cand_ns = cand_ns.min(t0.elapsed().as_nanos());
                }
                if cand_ns < best_ns {
                    best_ns = cand_ns;
                    best.kernel = kernel;
                    best.row_block = row_block;
                }
            }
        }
        std::hint::black_box(sink);
        best.lane_chunk = pick_chunk_width(cols, MAX_LANES);
        best
    }

    /// `lane_chunk` clamped to the engine's supported range.
    pub fn clamped_lane_chunk(&self) -> usize {
        self.lane_chunk.clamp(1, MAX_LANES)
    }
}

/// Measures a synthetic `width × n` lane-plane walk (the shape of the
/// batched drive/state planes) per candidate width and returns the
/// cheapest per-element winner — larger widths amortize per-chunk setup,
/// smaller widths keep the resident planes lean; which wins depends on
/// the host cache hierarchy, hence measuring instead of guessing.
fn pick_chunk_width(n: usize, cap: usize) -> usize {
    let n = n.clamp(1, 512);
    let drive: Vec<i32> = (0..n).map(|i| (i % 7) as i32).collect();
    let mut best = cap;
    let mut best_per = f64::INFINITY;
    let mut sink = 0_i32;
    for &width in &[4_usize, 8, 16] {
        let width = width.min(cap);
        let mut plane = vec![1_i32; width * n];
        let t0 = Instant::now();
        for _cycle in 0..4 {
            for s in 0..width {
                let lane = &mut plane[s * n..(s + 1) * n];
                for (v, &d) in lane.iter_mut().zip(&drive) {
                    *v = v.wrapping_add(d);
                }
            }
        }
        let per = t0.elapsed().as_nanos() as f64 / (4 * width * n) as f64;
        sink ^= plane[0];
        if per < best_per {
            best_per = per;
            best = width;
        }
    }
    std::hint::black_box(sink);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar zero-then-add row-at-a-time oracle every blocked
    /// formulation must match bit for bit.
    fn oracle(src: &[u8], cols: usize, active_rows: &[u32], acc: &mut [i32]) {
        acc.fill(0);
        for &row in active_rows {
            let base = row as usize * cols;
            for (a, &c) in acc.iter_mut().zip(&src[base..base + cols]) {
                *a += c as i32;
            }
        }
    }

    fn image(rows: usize, cols: usize, seed: u8) -> Vec<u8> {
        (0..rows * cols)
            .map(|i| ((i * 37 + seed as usize * 101 + 13) & 0xff) as u8)
            .collect()
    }

    #[test]
    fn all_kernel_block_pairs_match_oracle_on_ragged_shapes() {
        // Every cols ≡ 0..LANE_WIDTH-1 (mod LANE_WIDTH) residue and
        // block-straddling row counts.
        for cols in 1..=2 * LANE_WIDTH + 1 {
            for n_active in [0_usize, 1, 2, 3, 4, 5, 7, 8, 9, 17] {
                let rows = 12;
                let src = image(rows, cols, cols as u8);
                let active: Vec<u32> = (0..n_active).map(|i| ((i * 5) % rows) as u32).collect();
                let mut want = vec![0_i32; cols];
                oracle(&src, cols, &active, &mut want);
                for kernel in AccumKernel::ALL {
                    for block in RowBlock::ALL {
                        let mut got = vec![-7_i32; cols];
                        write_rows_blocked(kernel, block, &src, cols, &active, &mut got);
                        assert_eq!(
                            got, want,
                            "write_rows_blocked {kernel:?}/{block:?} cols={cols} active={n_active}"
                        );
                    }
                    let mut got = vec![0_i32; cols];
                    accumulate_rows(kernel, &src, cols, &active, &mut got);
                    assert_eq!(got, want, "accumulate_rows {kernel:?} cols={cols}");
                }
            }
        }
    }

    #[test]
    fn accumulate_preserves_prior_contents_write_overwrites() {
        let cols = 11;
        let src = image(4, cols, 3);
        let active = [0_u32, 2, 3];
        let mut want = vec![0_i32; cols];
        oracle(&src, cols, &active, &mut want);
        for kernel in AccumKernel::ALL {
            let mut acc: Vec<i32> = (0..cols as i32).collect();
            accumulate_rows(kernel, &src, cols, &active, &mut acc);
            let plus_base: Vec<i32> = want
                .iter()
                .zip(0..cols as i32)
                .map(|(w, b)| w + b)
                .collect();
            assert_eq!(acc, plus_base, "{kernel:?} accumulate keeps prior");
            let mut acc: Vec<i32> = (0..cols as i32).collect();
            write_rows_blocked(kernel, RowBlock::R4, &src, cols, &active, &mut acc);
            assert_eq!(acc, want, "{kernel:?} write overwrites prior");
        }
    }

    #[test]
    fn mapped_row_kernels_match_scalar_on_ragged_widths() {
        let mut lut = [0_u8; 256];
        for (i, slot) in lut.iter_mut().enumerate() {
            *slot = (i as u8).wrapping_mul(3) ^ 0x5a;
        }
        for cols in 1..=2 * LANE_WIDTH + 1 {
            let codes = image(1, cols, 9);
            for kernel in AccumKernel::ALL {
                let mut want = vec![5_i32; cols];
                let mut got_direct = vec![5_i32; cols];
                let mut got_lut = vec![5_i32; cols];
                let mut got_bounded = vec![5_i32; cols];
                for (a, &c) in want.iter_mut().zip(&codes) {
                    *a += c as i32;
                }
                accumulate_row_direct(kernel, &codes, &mut got_direct);
                assert_eq!(got_direct, want, "direct {kernel:?} cols={cols}");
                let mut want_lut = vec![5_i32; cols];
                for (a, &c) in want_lut.iter_mut().zip(&codes) {
                    *a += lut[c as usize] as i32;
                }
                accumulate_row_lut(kernel, &codes, &lut, &mut got_lut);
                assert_eq!(got_lut, want_lut, "lut {kernel:?} cols={cols}");
                let (threshold, default) = (96_u8, 6_u8);
                let mut want_bounded = vec![5_i32; cols];
                for (a, &c) in want_bounded.iter_mut().zip(&codes) {
                    *a += if c > threshold { default } else { c } as i32;
                }
                accumulate_row_bounded(kernel, &codes, threshold, default, &mut got_bounded);
                assert_eq!(got_bounded, want_bounded, "bounded {kernel:?} cols={cols}");
            }
        }
    }

    #[test]
    fn autotune_returns_in_range_tuning() {
        for (rows, cols) in [(1, 1), (784, 400), (24, 10), (256, 256)] {
            let t = EngineTuning::autotune(rows, cols);
            assert!((1..=MAX_LANES).contains(&t.clamped_lane_chunk()));
        }
    }

    #[test]
    fn clamps_bound_out_of_range_chunks() {
        let low = EngineTuning {
            lane_chunk: 0,
            ..EngineTuning::fixed()
        };
        let high = EngineTuning {
            lane_chunk: 900,
            ..EngineTuning::fixed()
        };
        assert_eq!(low.clamped_lane_chunk(), 1);
        assert_eq!(high.clamped_lane_chunk(), MAX_LANES);
    }
}
