//! The lane-explicit accumulate kernel.
//!
//! The widening `u8 → i32` accumulate over active crossbar rows is the
//! innermost loop of every engine datapath — the single-sample step, the
//! event backend's immediate image, and the trial-group pass behind the
//! batched and multi-map entry points. This module is the one place that
//! loop exists: one lane-explicit body behind two entry points,
//! [`accumulate_rows`] (one row per pass, adding onto the accumulators)
//! and [`write_rows_blocked`] (four rows per pass, overwriting them), so
//! the datapaths cannot drift apart.
//!
//! # Lane-explicit, not `std::simd`
//!
//! The workspace carries no registry dependencies and stays on stable
//! Rust, so SIMD width is made explicit *structurally* instead of through
//! intrinsics: the body processes columns in fixed [`LANE_WIDTH`]-wide
//! chunks with a scalar remainder tail, accumulating into a local
//! `[i32; LANE_WIDTH]` block that LLVM autovectorizes.
//!
//! # Why row blocking is bit-identical
//!
//! All summands are exact widenings of `u8` codes (non-negative, ≤ 255)
//! and a full crossbar column sums to at most `rows × 255`, so `i32`
//! accumulation never overflows for any crossbar under ~8.4M rows —
//! addition here is associative and commutative in the mathematical
//! sense, not merely approximately. Summing four rows per pass therefore
//! produces accumulators bit-identical to the zero-then-add
//! row-at-a-time formulation (`tests/kernels_equivalence.rs` pins that
//! over ragged widths and row counts).

/// Columns per explicit lane chunk: eight `i32` lanes, i.e. one AVX2
/// register or two 128-bit SSE/NEON registers.
pub const LANE_WIDTH: usize = 8;

/// Active rows summed per accumulator pass by [`write_rows_blocked`]:
/// each `acc` element is touched once per block instead of once per row.
const ROW_BLOCK: usize = 4;

/// Re-slices every row to the accumulator width so the inner loops index
/// without per-element bounds checks. Panics if a row is shorter than
/// `acc` — the callers' documented out-of-range contract.
#[inline(always)]
fn hoist<const K: usize>(rows: [&[u8]; K], n: usize) -> [&[u8]; K] {
    std::array::from_fn(|k| &rows[k][..n])
}

/// Sums `K` rows column-wise into `acc`, storing (`STORE = true`) or
/// accumulating (`STORE = false`) — the one body behind both entry
/// points.
#[inline]
fn pass<const K: usize, const STORE: bool>(rows: [&[u8]; K], acc: &mut [i32]) {
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
/// per-column accumulators, one row per pass (the unblocked form used by
/// the per-step path, the event backend and the blocked form's
/// remainder). Prior contents of `acc` are kept.
#[inline]
pub fn accumulate_rows(src: &[u8], cols: usize, active_rows: &[u32], acc: &mut [i32]) {
    for &row in active_rows {
        pass::<1, false>([image_row(src, cols, row)], acc);
    }
}

/// Row-blocked accumulate over a flat row-major code image, writing the
/// drives of one cycle into `acc` (previous contents are overwritten, so
/// callers skip the zero-fill pass): four rows are summed per accumulator
/// pass — and the first block *stores* instead of accumulating — so each
/// `acc` element is touched once per block instead of once per row.
/// Bit-identical to the zero-then-add row-at-a-time formulation (see the
/// module docs).
#[inline]
pub fn write_rows_blocked(src: &[u8], cols: usize, active_rows: &[u32], acc: &mut [i32]) {
    let mut blocks = active_rows.chunks_exact(ROW_BLOCK);
    let mut first = true;
    for block in blocks.by_ref() {
        let rows: [&[u8]; ROW_BLOCK] = std::array::from_fn(|k| image_row(src, cols, block[k]));
        if first {
            pass::<ROW_BLOCK, true>(rows, acc);
            first = false;
        } else {
            pass::<ROW_BLOCK, false>(rows, acc);
        }
    }
    if first {
        acc.fill(0);
    }
    accumulate_rows(src, cols, blocks.remainder(), acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar zero-then-add row-at-a-time oracle both entry points
    /// must match bit for bit.
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
                let mut got = vec![-7_i32; cols];
                write_rows_blocked(&src, cols, &active, &mut got);
                assert_eq!(
                    got, want,
                    "write_rows_blocked cols={cols} active={n_active}"
                );
                let mut got = vec![0_i32; cols];
                accumulate_rows(&src, cols, &active, &mut got);
                assert_eq!(got, want, "accumulate_rows cols={cols}");
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
        let mut acc: Vec<i32> = (0..cols as i32).collect();
        accumulate_rows(&src, cols, &active, &mut acc);
        let plus_base: Vec<i32> = want
            .iter()
            .zip(0..cols as i32)
            .map(|(w, b)| w + b)
            .collect();
        assert_eq!(acc, plus_base, "accumulate keeps prior");
        let mut acc: Vec<i32> = (0..cols as i32).collect();
        write_rows_blocked(&src, cols, &active, &mut acc);
        assert_eq!(acc, want, "write overwrites prior");
    }
}
