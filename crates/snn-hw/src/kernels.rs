//! The drive accumulate kernel.
//!
//! The widening `u8 → i32` accumulate over active crossbar rows is the
//! innermost loop of every engine datapath — the trial-group lane pass
//! behind every dense entry point, and the event backend's sample loop.
//! This module is the one place that loop exists: one body behind one
//! entry point, [`write_rows_blocked`], so the datapaths cannot drift
//! apart.
//!
//! # Column tiles, not `std::simd`
//!
//! The workspace carries no registry dependencies and stays on stable
//! Rust, so SIMD width is made explicit *structurally* instead of through
//! intrinsics. The accumulators are cut into [`TILE_COLS`]-wide column
//! tiles. For each tile, every active row of the cycle is added into a
//! local `[u16; TILE_COLS]` partial — eight 128-bit registers on baseline
//! x86-64, so each row costs one 8-byte load, one widening unpack and one
//! `u16` add per 8 columns, and the partial never leaves the registers.
//! The partial is then widened into the `i32` accumulators once per
//! tile. Columns past the last full tile run the same body in
//! [`TAIL_COLS`]-wide tiles, then one column at a time.
//!
//! [`write_rows_blocked`] is `#[inline(always)]`, so it is compiled into
//! each copy of the engine's lane pass: the baseline copy (128-bit `xmm`
//! registers) and the AVX2 copy that x86 hosts with AVX2 run (256-bit
//! `ymm` registers, four per partial). Check the linked binary, as the
//! [`crate::neuron_lanes`] docs show: `ymm` in
//! `<snn_hw::engine::ComputeEngine::lane_chunk_avx2>`, `xmm` in its
//! baseline caller. The event backend's delayed sample loop calls it
//! from baseline code only.
//!
//! # Why the `u16` partials are exact
//!
//! All summands are `u8` codes (non-negative, ≤ 255), and
//! [`ROWS_PER_PARTIAL`] × 255 = 257 × 255 = 65 535 = `u16::MAX`, so a
//! partial over at most that many rows never wraps. Active rows therefore
//! go in groups of at most [`ROWS_PER_PARTIAL`]: the first group's
//! partial is stored into the accumulators, each later group's is added.
//! A full crossbar column sums to at most `rows × 255`, so the `i32`
//! accumulators never overflow for any crossbar under ~8.4M rows, and
//! integer addition in that range is associative and commutative. The
//! result is bit-identical to the zero-then-add row-at-a-time loop for
//! every row count, repeated rows included (`tests/kernels_equivalence.rs`
//! pins it across the tile boundary and the group flush).

/// Columns per tile: sixty-four `u16` partials, i.e. eight 128-bit
/// (or four 256-bit) registers.
pub const TILE_COLS: usize = 64;

/// Tile width for the columns past the last full [`TILE_COLS`] tile:
/// one 128-bit register of `u16` partials. Columns past the last of
/// these run the body one column wide.
pub const TAIL_COLS: usize = 8;

/// Most active rows one `u16` partial can hold without wrapping:
/// 257 × 255 = 65 535.
pub const ROWS_PER_PARTIAL: usize = u16::MAX as usize / u8::MAX as usize;

/// Sums the codes of `rows` over the `W` columns starting at `c0` into
/// `u16` partials. The caller bounds `rows.len()` by
/// [`ROWS_PER_PARTIAL`], so no partial wraps. Panics if a row lies past
/// the end of `src` — the engine's out-of-range active-row contract.
#[inline(always)]
fn partial<const W: usize>(src: &[u8], cols: usize, c0: usize, rows: &[u32]) -> [u16; W] {
    let mut part = [0_u16; W];
    for &row in rows {
        let start = row as usize * cols + c0;
        let codes: &[u8; W] = src[start..start + W].try_into().expect("W-wide slice");
        for (p, &c) in part.iter_mut().zip(codes) {
            *p += u16::from(c);
        }
    }
    part
}

/// Writes the drives of the `W` columns starting at `c0` into `acc`:
/// the first group of at most [`ROWS_PER_PARTIAL`] rows is stored (an
/// empty row set stores zeros), each later group is added.
#[inline(always)]
fn write_tile<const W: usize>(src: &[u8], cols: usize, c0: usize, rows: &[u32], acc: &mut [i32]) {
    let acc: &mut [i32; W] = acc.try_into().expect("W-wide tile");
    let (first, rest) = rows.split_at(rows.len().min(ROWS_PER_PARTIAL));
    for (a, p) in acc.iter_mut().zip(partial::<W>(src, cols, c0, first)) {
        *a = i32::from(p);
    }
    for group in rest.chunks(ROWS_PER_PARTIAL) {
        for (a, p) in acc.iter_mut().zip(partial::<W>(src, cols, c0, group)) {
            *a += i32::from(p);
        }
    }
}

/// Accumulate over a flat row-major code image, writing the drives of
/// one cycle into `acc` (previous contents are overwritten, so callers
/// skip the zero-fill pass). Column `c` of `acc` receives the sum of
/// column `c` of every row in `active_rows`; `acc.len()` must not exceed
/// `cols`. Bit-identical to the zero-then-add row-at-a-time formulation
/// (see the module docs).
#[inline(always)]
pub fn write_rows_blocked(src: &[u8], cols: usize, active_rows: &[u32], acc: &mut [i32]) {
    assert!(acc.len() <= cols, "accumulators wider than a row");
    let mut c0 = 0;
    let mut tiles = acc.chunks_exact_mut(TILE_COLS);
    for tile in tiles.by_ref() {
        write_tile::<TILE_COLS>(src, cols, c0, active_rows, tile);
        c0 += TILE_COLS;
    }
    let mut tail = tiles.into_remainder().chunks_exact_mut(TAIL_COLS);
    for tile in tail.by_ref() {
        write_tile::<TAIL_COLS>(src, cols, c0, active_rows, tile);
        c0 += TAIL_COLS;
    }
    for col in tail.into_remainder().chunks_exact_mut(1) {
        write_tile::<1>(src, cols, c0, active_rows, col);
        c0 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar zero-then-add row-at-a-time oracle the entry point must
    /// match bit for bit.
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

    fn assert_matches_oracle(src: &[u8], cols: usize, active: &[u32], what: &str) {
        let mut want = vec![0_i32; cols];
        oracle(src, cols, active, &mut want);
        let mut got = vec![-7_i32; cols];
        write_rows_blocked(src, cols, active, &mut got);
        assert_eq!(got, want, "{what} cols={cols} active={}", active.len());
    }

    #[test]
    fn ragged_widths_and_row_counts_match_oracle() {
        // Every residue of the tail tile, both sides of the full tile, and
        // the paper's widths.
        let widths = (1..=2 * TAIL_COLS + 1).chain([
            TILE_COLS - 1,
            TILE_COLS,
            TILE_COLS + 1,
            2 * TILE_COLS + TAIL_COLS + 3,
            400,
            784,
        ]);
        for cols in widths {
            for n_active in [0_usize, 1, 2, 3, 4, 5, 7, 8, 9, 17, 28] {
                let rows = 12;
                let src = image(rows, cols, cols as u8);
                let active: Vec<u32> = (0..n_active).map(|i| ((i * 5) % rows) as u32).collect();
                assert_matches_oracle(&src, cols, &active, "ragged");
            }
        }
    }

    #[test]
    fn all_255_rows_cross_the_partial_flush_exactly() {
        // The worst case for a wrap: every code is 255, so a partial over
        // one row more than `ROWS_PER_PARTIAL` would overflow `u16`.
        let rows = 300;
        for cols in [1, TAIL_COLS, TILE_COLS + TAIL_COLS + 1, 400] {
            let src = vec![u8::MAX; rows * cols];
            for n_active in [0, 1, 256, 257, 258, 514, 515] {
                // Repeated rows: the row set wraps around the image.
                let active: Vec<u32> = (0..n_active).map(|i| (i % rows) as u32).collect();
                assert_matches_oracle(&src, cols, &active, "all-255");
            }
        }
    }

    #[test]
    fn write_overwrites_prior_contents() {
        let cols = 11;
        let src = image(4, cols, 3);
        let active = [0_u32, 2, 3];
        let mut want = vec![0_i32; cols];
        oracle(&src, cols, &active, &mut want);
        let mut acc: Vec<i32> = (0..cols as i32).collect();
        write_rows_blocked(&src, cols, &active, &mut acc);
        assert_eq!(acc, want, "write overwrites prior");
    }
}
