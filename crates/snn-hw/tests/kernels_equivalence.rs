//! Bit-equality properties for the lane-explicit accumulate kernel.
//!
//! Both entry points — the row-at-a-time `accumulate_rows` and the
//! four-row-blocked `write_rows_blocked` — must produce accumulators
//! bit-identical to the scalar zero-then-add row-at-a-time formulation
//! (the historical `accumulate_cached_rows` shape) over ragged column
//! and active-row counts. The engine-level equivalence proptests build
//! on this.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use snn_hw::kernels::{accumulate_rows, write_rows_blocked, LANE_WIDTH};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked and unblocked accumulates match the scalar oracle across
    /// ragged column counts (every residue mod the lane width) and
    /// ragged active-row counts (including empty and singleton sets,
    /// counts that straddle the four-row block, and rows repeated within
    /// one cycle).
    #[test]
    fn tuned_kernels_match_scalar_formulation(
        seed in any::<u64>(),
        cols_base in 0_usize..4,
        cols_residue in 0_usize..LANE_WIDTH,
        rows in 1_usize..14,
        n_active in 0_usize..20,
    ) {
        let cols = 1 + cols_base * LANE_WIDTH + cols_residue;
        let src = synthetic_image(rows, cols, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xacc);
        let active: Vec<u32> = (0..n_active)
            .map(|_| rng.gen_range(0..rows) as u32)
            .collect();
        let mut want = vec![0_i32; cols];
        scalar_oracle(&src, cols, &active, &mut want);
        // write_rows_blocked overwrites whatever was there before.
        let mut got = vec![-1_i32; cols];
        write_rows_blocked(&src, cols, &active, &mut got);
        prop_assert_eq!(&got, &want, "write cols={}", cols);
        // accumulate_rows adds on top of prior contents.
        let mut got = vec![0_i32; cols];
        accumulate_rows(&src, cols, &active, &mut got);
        prop_assert_eq!(&got, &want, "accumulate cols={}", cols);
    }
}
