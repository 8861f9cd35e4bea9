//! Bit-equality properties for the lane-explicit accumulate kernels and
//! tuning-invariance regressions for the engine datapaths.
//!
//! Every `(AccumKernel, RowBlock)` pair — and therefore every
//! [`EngineTuning`] an autotune pass can pick — must produce accumulators
//! bit-identical to the scalar zero-then-add row-at-a-time formulation
//! (the historical `accumulate_cached_rows` shape). The engine-level
//! guard then proves the stronger statement the pinned suites rely on:
//! two engines constructed with *different* tunings produce bit-identical
//! `run_batch_into` / `run_batch_multi_map` results.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use snn_hw::engine::{BatchResult, ComputeEngine, MultiMapResult, NeuronFaultOverlay, MAX_LANES};
use snn_hw::kernels::{
    accumulate_rows, write_rows_blocked, AccumKernel, EngineTuning, RowBlock, LANE_WIDTH,
};
use snn_hw::params::EngineConfig;
use snn_sim::config::SnnConfig;
use snn_sim::network::Network;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::rng::seeded_rng;
use snn_sim::spike::SpikeTrain;
use softsnn_core::bounding::{BoundedRead, BoundingConfig};
use softsnn_core::protection::ResetMonitor;

/// The scalar formulation every tuned kernel must match bit for bit:
/// zero the accumulators, then one widening add per column per row.
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
    /// ragged column counts (every residue mod the lane width), ragged
    /// active-row counts (including empty and singleton sets, and rows
    /// repeated within one cycle), and every kernel/block pair an
    /// `EngineTuning` can carry.
    #[test]
    fn tuned_kernels_match_scalar_formulation(
        seed in any::<u64>(),
        cols_base in 0_usize..4,
        cols_residue in 0_usize..LANE_WIDTH,
        rows in 1_usize..14,
        n_active in 0_usize..20,
        kernel_idx in 0_usize..AccumKernel::ALL.len(),
        block_idx in 0_usize..3,
    ) {
        let cols = 1 + cols_base * LANE_WIDTH + cols_residue;
        let src = synthetic_image(rows, cols, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xacc);
        let active: Vec<u32> = (0..n_active)
            .map(|_| rng.gen_range(0..rows) as u32)
            .collect();
        let kernel = AccumKernel::ALL[kernel_idx];
        let block = RowBlock::ALL[block_idx];
        let mut want = vec![0_i32; cols];
        scalar_oracle(&src, cols, &active, &mut want);
        // write_rows_blocked overwrites whatever was there before.
        let mut got = vec![-1_i32; cols];
        write_rows_blocked(kernel, block, &src, cols, &active, &mut got);
        prop_assert_eq!(&got, &want, "write {:?}/{:?} cols={}", kernel, block, cols);
        // accumulate_rows adds on top of prior contents.
        let mut got = vec![0_i32; cols];
        accumulate_rows(kernel, &src, cols, &active, &mut got);
        prop_assert_eq!(&got, &want, "accumulate {:?} cols={}", kernel, cols);
    }

    /// Engine outputs are invariant under randomized `EngineTuning`
    /// values: an engine forced onto an arbitrary (possibly out-of-range,
    /// clamped-at-use) tuning matches a fixed-tuning engine count for
    /// count through both batched passes and the single-sample path.
    #[test]
    fn engine_outputs_invariant_under_random_tuning(
        net_seed in any::<u64>(),
        kernel_idx in 0_usize..AccumKernel::ALL.len(),
        block_idx in 0_usize..3,
        lane_chunk in 0_usize..40,
        density in 0.1_f64..0.7,
    ) {
        let tuning = EngineTuning {
            kernel: AccumKernel::ALL[kernel_idx],
            row_block: RowBlock::ALL[block_idx],
            lane_chunk,
        };
        let (mut tuned, mut fixed) = engine_pair(net_seed, tuning);
        let trains: Vec<SpikeTrain> =
            (0..7).map(|s| random_train(net_seed ^ (s + 1), density)).collect();
        let maps = overlay_maps(5);
        let path = BoundedRead::new(BoundingConfig { threshold_code: 96, default_code: 6 });
        let monitor = ResetMonitor::new(10, 2);
        let a = tuned.run_batch(&trains, &path, &monitor);
        let b = fixed.run_batch(&trains, &path, &monitor);
        prop_assert_eq!(a, b, "run_batch_into diverged under tuning {:?}", tuning);
        let mut ma = MultiMapResult::new();
        let mut mb = MultiMapResult::new();
        tuned.run_batch_multi_map(&trains, &maps, &path, &monitor, &mut ma);
        fixed.run_batch_multi_map(&trains, &maps, &path, &monitor, &mut mb);
        prop_assert_eq!(ma, mb, "run_batch_multi_map diverged under tuning {:?}", tuning);
        let sa = tuned.run_sample(&trains[0], &path, &mut monitor.clone());
        let sb = fixed.run_sample(&trains[0], &path, &mut monitor.clone());
        prop_assert_eq!(sa, sb, "run_sample diverged under tuning {:?}", tuning);
    }
}

/// A quantized 24×10 network and two engines over it: one carrying
/// `tuning`, one carrying the fixed historical shape.
fn engine_pair(net_seed: u64, tuning: EngineTuning) -> (ComputeEngine, ComputeEngine) {
    let qn = quantized_network(net_seed);
    let tuned = ComputeEngine::with_tuning(EngineConfig::PAPER, &qn, tuning).expect("deployable");
    let fixed = ComputeEngine::with_tuning(EngineConfig::PAPER, &qn, EngineTuning::fixed())
        .expect("deployable");
    (tuned, fixed)
}

fn quantized_network(net_seed: u64) -> QuantizedNetwork {
    let cfg = SnnConfig::builder()
        .n_inputs(24)
        .n_neurons(10)
        .v_thresh(2.0)
        .v_leak(0.1)
        .v_inh(3.0)
        .t_refrac(2)
        .build()
        .expect("valid config");
    let net = Network::new(cfg, &mut seeded_rng(net_seed));
    QuantizedNetwork::from_network_default(&net)
}

fn random_train(seed: u64, density: f64) -> SpikeTrain {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = SpikeTrain::new(24, 20);
    for _ in 0..20 {
        let active: Vec<u32> = (0..24_u32).filter(|_| rng.gen_bool(density)).collect();
        train.push_step(active);
    }
    train
}

fn overlay_maps(k: usize) -> Vec<NeuronFaultOverlay> {
    (0..k)
        .map(|m| {
            let mut overlay: NeuronFaultOverlay = [
                ((m % 10) as u32, snn_hw::neuron_unit::NeuronOp::VmemReset),
                (
                    ((m * 3 + 1) % 10) as u32,
                    snn_hw::neuron_unit::NeuronOp::ALL[m % 4],
                ),
            ]
            .into_iter()
            .collect();
            overlay.push_weight_flip((m % 24) as u32, ((m * 7) % 10) as u32, (m % 8) as u8);
            overlay
        })
        .collect()
}

/// The determinism guard the ISSUE names: two engines constructed with
/// *different* explicit `EngineTuning` values — extreme corners of the
/// candidate space, including chunk widths that straddle the sample and
/// map counts — produce bit-identical `run_batch_into` and
/// `run_batch_multi_map` outputs, and both match an autotune-constructed
/// engine over the same network.
#[test]
fn different_tunings_produce_bit_identical_batch_outputs() {
    let qn = quantized_network(0xd37e_2317);
    let tunings = [
        EngineTuning {
            kernel: AccumKernel::Scalar,
            row_block: RowBlock::R2,
            lane_chunk: 3,
        },
        EngineTuning {
            kernel: AccumKernel::Lanes8,
            row_block: RowBlock::R8,
            lane_chunk: MAX_LANES,
        },
        EngineTuning {
            kernel: AccumKernel::Lanes8,
            row_block: RowBlock::R4,
            lane_chunk: 1,
        },
    ];
    let trains: Vec<SpikeTrain> = (0..2 * MAX_LANES + 3)
        .map(|s| random_train(0x7ea1 + s as u64, 0.4))
        .collect();
    let maps = overlay_maps(MAX_LANES + 3);
    let path = BoundedRead::new(BoundingConfig {
        threshold_code: 96,
        default_code: 6,
    });
    let monitor = ResetMonitor::new(10, 2);
    // The baseline is an autotune-constructed engine (the default
    // construction path every campaign uses).
    let mut autotuned = ComputeEngine::for_network(&qn).expect("deployable");
    let want_batch = autotuned.run_batch(&trains, &path, &monitor);
    let mut want_maps = MultiMapResult::new();
    autotuned.run_batch_multi_map(&trains, &maps, &path, &monitor, &mut want_maps);
    for tuning in tunings {
        let mut engine =
            ComputeEngine::with_tuning(EngineConfig::PAPER, &qn, tuning).expect("deployable");
        assert_eq!(engine.tuning(), tuning, "tuning is stored as given");
        let mut got_batch = BatchResult::new();
        engine.run_batch_into(&trains, &path, &monitor, &mut got_batch);
        assert_eq!(
            got_batch, want_batch,
            "run_batch_into diverged under {tuning:?}"
        );
        let mut got_maps = MultiMapResult::new();
        engine.run_batch_multi_map(&trains, &maps, &path, &monitor, &mut got_maps);
        assert_eq!(
            got_maps, want_maps,
            "run_batch_multi_map diverged under {tuning:?}"
        );
    }
    // `set_tuning` mid-flight is equally inert: retune the autotuned
    // engine to each corner and re-run.
    for tuning in tunings {
        autotuned.set_tuning(tuning);
        let got = autotuned.run_batch(&trains, &path, &monitor);
        assert_eq!(got, want_batch, "set_tuning({tuning:?}) changed results");
    }
}

/// Campaign clones inherit the parent's tuning instead of re-measuring
/// (autotune runs once per constructed engine, not once per trial).
#[test]
fn clones_inherit_tuning() {
    let qn = quantized_network(0xc10e);
    let tuning = EngineTuning {
        kernel: AccumKernel::Lanes8,
        row_block: RowBlock::R2,
        lane_chunk: 7,
    };
    let engine = ComputeEngine::with_tuning(EngineConfig::PAPER, &qn, tuning).expect("deployable");
    assert_eq!(engine.clone().tuning(), tuning);
}
