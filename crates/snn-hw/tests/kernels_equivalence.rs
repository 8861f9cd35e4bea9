//! Bit-equality properties for the drive accumulate kernel.
//!
//! The one entry point, `write_rows_blocked`, sums a cycle's active rows
//! in `TILE_COLS`-wide column tiles of `u16` partials, flushing a partial
//! into the `i32` accumulators after at most `ROWS_PER_PARTIAL` rows.
//! It must produce accumulators bit-identical to the scalar zero-then-add
//! row-at-a-time formulation (the historical `accumulate_cached_rows`
//! shape) for every width — across the tile boundary and through the
//! narrow tail — and every active-row count, across the partial flush.
//! The engine-level equivalence proptests build on this.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use snn_hw::kernels::{write_rows_blocked, ROWS_PER_PARTIAL, TAIL_COLS, TILE_COLS};

/// The scalar formulation the kernel must match bit for bit: zero the
/// accumulators, then one widening add per column per row.
fn scalar_oracle(src: &[u8], cols: usize, active_rows: &[u32], acc: &mut [i32]) {
    acc.fill(0);
    for &row in active_rows {
        let base = row as usize * cols;
        for (a, &c) in acc.iter_mut().zip(&src[base..base + cols]) {
            *a += c as i32;
        }
    }
}

fn synthetic_image(rows: usize, cols: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols).map(|_| rng.gen::<u8>()).collect()
}

/// Widths on both sides of every tile boundary, with a ragged tail, and
/// the paper's widths (N400 neurons, the 784-pixel input).
const EDGE_WIDTHS: [usize; 6] = [
    TILE_COLS - 1,
    TILE_COLS,
    TILE_COLS + 1,
    2 * TILE_COLS + TAIL_COLS + 3,
    400,
    784,
];

/// Active-row counts on both sides of one and two partial flushes
/// (0, 1, 256, 257, 258, 514, 515).
const FLUSH_COUNTS: [usize; 7] = [
    0,
    1,
    ROWS_PER_PARTIAL - 1,
    ROWS_PER_PARTIAL,
    ROWS_PER_PARTIAL + 1,
    2 * ROWS_PER_PARTIAL,
    2 * ROWS_PER_PARTIAL + 1,
];

fn assert_write_matches(src: &[u8], cols: usize, active: &[u32]) {
    let mut want = vec![0_i32; cols];
    scalar_oracle(src, cols, active, &mut want);
    // write_rows_blocked overwrites whatever was there before.
    let mut got = vec![-1_i32; cols];
    write_rows_blocked(src, cols, active, &mut got);
    prop_assert_eq!(&got, &want, "cols={} active={}", cols, active.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The accumulate matches the scalar oracle across ragged column
    /// counts (every residue of the tail tile, with zero to two full
    /// tiles before it) and ragged active-row counts (empty and
    /// singleton sets, typical cycles, and rows repeated within one
    /// cycle).
    #[test]
    fn tuned_kernels_match_scalar_formulation(
        seed in any::<u64>(),
        cols_base in 0_usize..3,
        cols_residue in 1_usize..TILE_COLS + 1,
        rows in 1_usize..14,
        n_active in 0_usize..40,
    ) {
        let cols = cols_base * TILE_COLS + cols_residue;
        let src = synthetic_image(rows, cols, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xacc);
        let active: Vec<u32> = (0..n_active)
            .map(|_| rng.gen_range(0..rows) as u32)
            .collect();
        assert_write_matches(&src, cols, &active);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At every edge width, the accumulate matches the oracle for every
    /// active-row count around the `u16` partial flush, on an all-255
    /// image (the worst case for a wrap) and on random codes, with
    /// repeated rows whenever the image has fewer rows than the cycle.
    #[test]
    fn partial_flush_is_exact_at_tile_edges(
        seed in any::<u64>(),
        rows in 1_usize..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1a5);
        for cols in EDGE_WIDTHS {
            for src in [vec![u8::MAX; rows * cols], synthetic_image(rows, cols, seed)] {
                for n_active in FLUSH_COUNTS {
                    let active: Vec<u32> = (0..n_active)
                        .map(|_| rng.gen_range(0..rows) as u32)
                        .collect();
                    assert_write_matches(&src, cols, &active);
                }
            }
        }
    }
}
