//! Equivalence properties for the optimized engine hot path.
//!
//! The SoA, batched-guard, allocation-free `step`/`run_sample_into` must
//! be spike-for-spike and membrane-for-membrane identical to the retained
//! reference scalar implementation (`step_reference` /
//! `run_sample_reference`) across random networks, random persisted
//! faults (register bit flips and neuron-op faults, including vr bursts),
//! random bounding-style read paths, and stateful `ResetMonitor` guards —
//! the optimized path drives guards through the batched `observe_cycle`
//! protocol while the reference makes one `allow_spike` call per neuron,
//! so these properties also prove the two guard protocols equivalent.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use snn_hw::engine::{
    ComputeEngine, DirectRead, MultiMapResult, NeuronFaultOverlay, NoGuard, SpikeGuard,
    StuckWeightBit, WeightReadPath, MAX_LANES,
};
use snn_hw::neuron_unit::NeuronOp;
use snn_sim::config::SnnConfig;
use snn_sim::network::Network;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::rng::seeded_rng;
use snn_sim::spike::SpikeTrain;
use softsnn_core::protection::ResetMonitor;

/// A bounding-style read path with arbitrary threshold/default registers
/// (the shape of every real non-identity path in the workspace).
#[derive(Debug, Clone, Copy)]
struct RandomBound {
    threshold: u8,
    default: u8,
}

impl WeightReadPath for RandomBound {
    fn read(&self, code: u8) -> u8 {
        if code > self.threshold {
            self.default
        } else {
            code
        }
    }

    fn bound_params(&self) -> Option<(u8, u8)> {
        Some((self.threshold, self.default))
    }
}

/// The same transfer function as [`RandomBound`] but *without* the
/// `bound_params` hint, forcing the engine onto the table kernel — so the
/// equivalence properties cover all three accumulation kernels.
#[derive(Debug, Clone, Copy)]
struct RandomBoundAsTable {
    threshold: u8,
    default: u8,
}

impl WeightReadPath for RandomBoundAsTable {
    fn read(&self, code: u8) -> u8 {
        if code > self.threshold {
            self.default
        } else {
            code
        }
    }
}

/// Builds a random engine: random trained-ish weights, then random
/// persisted faults applied identically to both engine copies.
fn random_faulted_engine(
    n_inputs: usize,
    n_neurons: usize,
    net_seed: u64,
    fault_seed: u64,
    n_bit_flips: usize,
    n_op_faults: usize,
) -> ComputeEngine {
    let cfg = SnnConfig::builder()
        .n_inputs(n_inputs)
        .n_neurons(n_neurons)
        .v_thresh(2.0)
        .v_leak(0.1)
        .v_inh(3.0)
        .t_refrac(2)
        .build()
        .expect("valid config");
    let net = Network::new(cfg, &mut seeded_rng(net_seed));
    let qn = QuantizedNetwork::from_network_default(&net);
    let mut engine = ComputeEngine::for_network(&qn).expect("deployable");
    let mut rng = StdRng::seed_from_u64(fault_seed);
    for _ in 0..n_bit_flips {
        let row = rng.gen_range(0..n_inputs);
        let col = rng.gen_range(0..n_neurons);
        let bit = rng.gen_range(0_u8..8);
        engine
            .crossbar_mut()
            .flip_bit(row, col, bit)
            .expect("in range");
    }
    for _ in 0..n_op_faults {
        let j = rng.gen_range(0..n_neurons);
        let op = NeuronOp::ALL[rng.gen_range(0_usize..4)];
        engine.neurons_mut()[j].faults.set(op);
    }
    engine
}

/// Asserts `run_batch_into` over `trains` matches, sample for sample, the
/// per-sample reference (`run_sample_reference` from rest with a fresh
/// guard clone per sample — the batched pass's documented contract) *and*
/// the optimized single-sample path under the same cloning discipline.
fn assert_batch_matches_reference<P: WeightReadPath, G: SpikeGuard + Clone>(
    fast: &mut ComputeEngine,
    slow: &mut ComputeEngine,
    trains: &[SpikeTrain],
    path: &P,
    guard: &G,
    label: &str,
) {
    let batched = fast.run_batch(trains, path, guard);
    assert_eq!(batched.n_samples(), trains.len(), "{label}: batch width");
    for (s, train) in trains.iter().enumerate() {
        let reference = slow.run_sample_reference(train, path, &mut guard.clone());
        assert_eq!(
            batched.counts(s),
            reference.as_slice(),
            "{label}: sample {s} of {} diverged from reference",
            trains.len()
        );
        let optimized = slow.run_sample(train, path, &mut guard.clone());
        assert_eq!(
            optimized, reference,
            "{label}: sample {s} single-sample cross-check"
        );
    }
}

/// Asserts `run_batch_multi_map` over `(trains, maps)` matches, plane for
/// plane, the engine's retained per-map scalar oracle
/// (`run_batch_multi_map_reference`) *and* a hand-rolled per-map loop that
/// injects each overlay (weight flips and neuron sites) into a fresh
/// engine clone and runs the optimized single-sample path — so the
/// multi-map pass is pinned against both formulations at once.
fn assert_multi_map_matches_reference<P: WeightReadPath, G: SpikeGuard + Clone>(
    fast: &mut ComputeEngine,
    slow: &mut ComputeEngine,
    trains: &[snn_sim::spike::SpikeTrain],
    maps: &[NeuronFaultOverlay],
    path: &P,
    guard: &G,
    label: &str,
) {
    let mut batched = MultiMapResult::new();
    fast.run_batch_multi_map(trains, maps, path, guard, &mut batched);
    assert_eq!(batched.n_maps(), maps.len(), "{label}: map count");
    assert_eq!(batched.n_samples(), trains.len(), "{label}: sample count");
    let reference = slow.run_batch_multi_map_reference(trains, maps, path, guard);
    assert_eq!(batched, reference, "{label}: diverged from scalar oracle");
    for (m, map) in maps.iter().enumerate() {
        let mut injected = slow.clone();
        for &(row, col, bit) in map.weight_flips() {
            injected
                .flip_weight_bit(row as usize, col as usize, bit)
                .expect("in range");
        }
        for &(j, op) in map.neuron_ops() {
            injected.neurons_mut()[j as usize].faults.set(op);
        }
        for (s, train) in trains.iter().enumerate() {
            let single = injected.run_sample(train, path, &mut guard.clone());
            assert_eq!(
                batched.counts(m, s),
                single.as_slice(),
                "{label}: map {m} sample {s} single-sample cross-check"
            );
        }
    }
}

/// A random neuron-only fault overlay over `n_neurons` neurons.
fn random_overlay(n_neurons: usize, n_sites: usize, seed: u64) -> NeuronFaultOverlay {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_sites)
        .map(|_| {
            (
                rng.gen_range(0..n_neurons) as u32,
                snn_hw::neuron_unit::NeuronOp::ALL[rng.gen_range(0_usize..4)],
            )
        })
        .collect()
}

/// Adds `n_flips` random weight flips over an `n_inputs × n_neurons`
/// crossbar to `overlay`, drawn from a few rows so cells repeat. Every
/// third flip is followed by a second flip of the same cell: the same
/// bit again (the two cancel) or another bit (the two merge).
fn add_random_flips(
    overlay: &mut NeuronFaultOverlay,
    n_inputs: usize,
    n_neurons: usize,
    n_flips: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n_flips {
        let row = rng.gen_range(0..n_inputs.min(6)) as u32;
        let col = rng.gen_range(0..n_neurons) as u32;
        let bit = rng.gen_range(0_u8..8);
        overlay.push_weight_flip(row, col, bit);
        if i % 3 == 0 {
            let again = if rng.gen_bool(0.5) {
                bit
            } else {
                (bit + 1) % 8
            };
            overlay.push_weight_flip(row, col, again);
        }
    }
}

/// Installs `n` random stuck-at bits on `engine` (they survive reloads
/// and sit underneath every overlay).
fn install_random_stuck_bits(engine: &mut ComputeEngine, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sites: Vec<StuckWeightBit> = (0..n)
        .map(|_| StuckWeightBit {
            row: rng.gen_range(0..engine.n_inputs()),
            col: rng.gen_range(0..engine.n_neurons()),
            bit: rng.gen_range(0_u8..8),
            stuck_at: rng.gen_bool(0.5),
        })
        .collect();
    engine.install_stuck_bits(&sites).expect("in range");
}

/// Asserts `run_batch_per_sample_maps` over `(trains, maps)` (non-empty
/// `trains`, `k = maps.len() / trains.len()` maps each) matches, for every
/// sample `s` and map `j`, the scalar oracle run on sample `s` alone under
/// its own maps `maps[s·k .. (s + 1)·k]`.
fn assert_per_sample_maps_match_reference<P: WeightReadPath, G: SpikeGuard + Clone>(
    fast: &mut ComputeEngine,
    slow: &mut ComputeEngine,
    trains: &[SpikeTrain],
    maps: &[NeuronFaultOverlay],
    path: &P,
    guard: &G,
    label: &str,
) {
    let k = maps.len() / trains.len();
    let mut lanes = MultiMapResult::new();
    fast.run_batch_per_sample_maps(trains, k, maps, path, guard, &mut lanes);
    assert_eq!(lanes.n_maps(), k, "{label}: maps per sample");
    assert_eq!(lanes.n_samples(), trains.len(), "{label}: sample count");
    for (s, train) in trains.iter().enumerate() {
        let own = &maps[s * k..(s + 1) * k];
        let reference =
            slow.run_batch_multi_map_reference(std::slice::from_ref(train), own, path, guard);
        for j in 0..k {
            assert_eq!(
                lanes.counts(j, s),
                reference.counts(j, 0),
                "{label}: sample {s} map {j} diverged from scalar oracle"
            );
        }
    }
}

/// A random spike train over `n_inputs` channels.
fn random_train(n_inputs: usize, n_steps: usize, seed: u64, density: f64) -> SpikeTrain {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = SpikeTrain::new(n_inputs, n_steps);
    for _ in 0..n_steps {
        let active: Vec<u32> = (0..n_inputs as u32)
            .filter(|_| rng.gen_bool(density))
            .collect();
        train.push_step(active);
    }
    train
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Step-level equivalence under the identity read path: identical
    /// fired indices and identical membrane trajectories at every step.
    #[test]
    fn step_matches_reference_direct(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        n_bit_flips in 0_usize..40,
        n_op_faults in 0_usize..6,
        density in 0.05_f64..0.9,
    ) {
        let mut fast = random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, n_op_faults);
        let mut slow = fast.clone();
        let train = random_train(24, 30, fault_seed ^ 1, density);
        for s in 0..train.n_steps() {
            let rows = train.step(s).to_vec();
            let a = fast.step(&rows, &DirectRead, &mut NoGuard).to_vec();
            let b = slow.step_reference(&rows, &DirectRead, &mut NoGuard);
            prop_assert_eq!(&a, &b, "fired diverged at step {}", s);
            prop_assert_eq!(fast.membranes(), slow.membranes(), "membranes diverged at step {}", s);
        }
    }

    /// Step-level equivalence under arbitrary bounding read paths.
    #[test]
    fn step_matches_reference_bounded(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..40,
    ) {
        let path = RandomBound { threshold, default };
        let mut fast = random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, 2);
        let mut slow = fast.clone();
        let train = random_train(24, 30, fault_seed ^ 2, 0.4);
        for s in 0..train.n_steps() {
            let rows = train.step(s).to_vec();
            let a = fast.step(&rows, &path, &mut NoGuard).to_vec();
            let b = slow.step_reference(&rows, &path, &mut NoGuard);
            prop_assert_eq!(&a, &b, "fired diverged at step {}", s);
            prop_assert_eq!(fast.membranes(), slow.membranes(), "membranes diverged at step {}", s);
        }
    }

    /// Whole-sample equivalence: spike counts agree for the optimized
    /// owned, optimized borrowed, and reference paths — via both the
    /// compare/select kernel and the general table kernel.
    #[test]
    fn run_sample_matches_reference(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..60,
        n_op_faults in 0_usize..8,
    ) {
        let path = RandomBound { threshold, default };
        let as_table = RandomBoundAsTable { threshold, default };
        let mut fast = random_faulted_engine(32, 12, net_seed, fault_seed, n_bit_flips, n_op_faults);
        let mut slow = fast.clone();
        let train = random_train(32, 40, fault_seed ^ 3, 0.3);
        let reference = slow.run_sample_reference(&train, &path, &mut NoGuard);
        let owned = fast.run_sample(&train, &path, &mut NoGuard);
        prop_assert_eq!(&owned, &reference);
        let borrowed = fast.run_sample_into(&train, &path, &mut NoGuard).to_vec();
        prop_assert_eq!(&borrowed, &reference);
        let via_table = fast.run_sample(&train, &as_table, &mut NoGuard);
        prop_assert_eq!(&via_table, &reference);
    }

    /// The read-path table is exactly the transfer function of `read`.
    #[test]
    fn table_matches_read(threshold in any::<u8>(), default in any::<u8>()) {
        let path = RandomBound { threshold, default };
        let table = path.table();
        for code in 0..=255_u8 {
            prop_assert_eq!(table[code as usize], path.read(code));
        }
    }

    /// Step-level equivalence under `ResetMonitor` guards, with vr-fault
    /// bursts forced in so the monitor actually latches: fired indices,
    /// membrane trajectories, and monitor latch state must agree at every
    /// step between the batched and per-neuron guard protocols.
    #[test]
    fn step_matches_reference_monitored(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        n_bit_flips in 0_usize..40,
        n_op_faults in 0_usize..4,
        n_vr_bursts in 1_usize..5,
        window in 1_u8..5,
        density in 0.1_f64..0.9,
    ) {
        let mut fast = random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, n_op_faults);
        // Force reset-stuck neurons so burst suppression is exercised.
        let mut rng = StdRng::seed_from_u64(fault_seed ^ 0x5eed);
        for _ in 0..n_vr_bursts {
            let j = rng.gen_range(0..10_usize);
            fast.neurons_mut()[j].faults.set(NeuronOp::VmemReset);
        }
        let mut slow = fast.clone();
        let mut guard_fast = ResetMonitor::new(10, window);
        let mut guard_slow = ResetMonitor::new(10, window);
        let train = random_train(24, 40, fault_seed ^ 4, density);
        for s in 0..train.n_steps() {
            let rows = train.step(s).to_vec();
            let a = fast.step(&rows, &DirectRead, &mut guard_fast).to_vec();
            let b = slow.step_reference(&rows, &DirectRead, &mut guard_slow);
            prop_assert_eq!(&a, &b, "fired diverged at step {}", s);
            prop_assert_eq!(fast.membranes(), slow.membranes(), "membranes diverged at step {}", s);
            prop_assert_eq!(
                guard_fast.n_disabled(), guard_slow.n_disabled(),
                "monitor latch count diverged at step {}", s
            );
            for j in 0..10 {
                prop_assert_eq!(
                    guard_fast.is_disabled(j), guard_slow.is_disabled(j),
                    "monitor latch diverged at step {} neuron {}", s, j
                );
            }
        }
    }

    /// Whole-sample equivalence with the paper's full BnP configuration
    /// (bounding read path + reset monitor) under vr-heavy fault maps:
    /// the monitor-bound hot path must match the reference count for
    /// count through both the compare/select and table kernels.
    #[test]
    fn run_sample_matches_reference_monitored(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..60,
        n_vr_bursts in 1_usize..6,
        window in 1_u8..4,
    ) {
        let path = RandomBound { threshold, default };
        let as_table = RandomBoundAsTable { threshold, default };
        let mut fast = random_faulted_engine(32, 12, net_seed, fault_seed, n_bit_flips, 2);
        let mut rng = StdRng::seed_from_u64(fault_seed ^ 0xb00_5eed);
        for _ in 0..n_vr_bursts {
            let j = rng.gen_range(0..12_usize);
            fast.neurons_mut()[j].faults.set(NeuronOp::VmemReset);
        }
        let mut slow = fast.clone();
        let train = random_train(32, 40, fault_seed ^ 5, 0.35);
        let reference = slow.run_sample_reference(
            &train, &path, &mut ResetMonitor::new(12, window),
        );
        let optimized = fast.run_sample(&train, &path, &mut ResetMonitor::new(12, window));
        prop_assert_eq!(&optimized, &reference);
        let via_table = fast.run_sample(&train, &as_table, &mut ResetMonitor::new(12, window));
        prop_assert_eq!(&via_table, &reference);
        // The monitor must have something to do on at least some inputs;
        // at minimum the counts stay exact when it does.
        let mut monitor = ResetMonitor::new(12, window);
        let _ = fast.run_sample_into(&train, &path, &mut monitor);
        prop_assert!(monitor.n_disabled() <= 12);
    }
}

proptest! {
    // The batched cases each evaluate up to ~40 samples × 3 kernels × 2
    // guards against the per-sample reference, so fewer cases carry the
    // same coverage budget as the single-sample properties above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched-vs-reference equivalence across the whole cross-product:
    /// random batch widths (including 1, 2, chunk-straddling, and a
    /// ragged final chunk), ragged per-sample train lengths, all three
    /// accumulation kernels (direct / compare-select / LUT), both guard
    /// classes (stateless `NoGuard`, stateful `ResetMonitor`), and fault
    /// maps with vr bursts so the monitor actually latches.
    #[test]
    fn run_batch_matches_reference(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..40,
        n_op_faults in 0_usize..4,
        n_vr_bursts in 0_usize..4,
        window in 1_u8..4,
        batch in 1_usize..40,
        density in 0.1_f64..0.7,
    ) {
        let bound = RandomBound { threshold, default };
        let as_table = RandomBoundAsTable { threshold, default };
        let mut fast =
            random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, n_op_faults);
        let mut rng = StdRng::seed_from_u64(fault_seed ^ 0xba7c4);
        for _ in 0..n_vr_bursts {
            let j = rng.gen_range(0..10_usize);
            fast.neurons_mut()[j].faults.set(NeuronOp::VmemReset);
        }
        let mut slow = fast.clone();
        // Ragged lengths: sample s runs 10..35 steps, so late cycles see
        // a shrinking active batch.
        let trains: Vec<SpikeTrain> = (0..batch)
            .map(|s| random_train(24, 10 + (s * 7) % 25, fault_seed ^ (s as u64 + 1), density))
            .collect();
        assert_batch_matches_reference(
            &mut fast, &mut slow, &trains, &DirectRead, &NoGuard, "direct/noguard");
        assert_batch_matches_reference(
            &mut fast, &mut slow, &trains, &bound, &NoGuard, "bounded/noguard");
        assert_batch_matches_reference(
            &mut fast, &mut slow, &trains, &as_table, &NoGuard, "table/noguard");
        let monitor = ResetMonitor::new(10, window);
        assert_batch_matches_reference(
            &mut fast, &mut slow, &trains, &DirectRead, &monitor, "direct/monitored");
        assert_batch_matches_reference(
            &mut fast, &mut slow, &trains, &bound, &monitor, "bounded/monitored");
        assert_batch_matches_reference(
            &mut fast, &mut slow, &trains, &as_table, &monitor, "table/monitored");
    }

    /// Multi-map-vs-reference equivalence across the cross-product the
    /// acceptance criteria name: both guard classes (`NoGuard`, stateful
    /// `ResetMonitor`), vr-burst-heavy overlays so the monitor actually
    /// latches, ragged map counts `K` (1 up to two full chunks plus a
    /// ragged last chunk; fixed boundary values in the standalone test
    /// below), all three accumulation
    /// kernels, persisted base faults underneath the overlays, empty
    /// overlays (what a clean scenario lowers to), and multiple samples
    /// per trial group.
    #[test]
    fn run_batch_multi_map_matches_reference(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..30,
        n_base_op_faults in 0_usize..3,
        n_stuck in 0_usize..4,
        n_map_flips in 0_usize..12,
        k in 1_usize..=2 * MAX_LANES + 1,
        n_clean in 0_usize..3,
        n_samples in 1_usize..4,
        window in 1_u8..4,
        density in 0.1_f64..0.7,
    ) {
        let bound = RandomBound { threshold, default };
        let as_table = RandomBoundAsTable { threshold, default };
        // Base faults include register bit flips and installed stuck-at
        // bits: the shared crossbar may be (persistently) faulted, and the
        // maps' own flips land on top of it.
        let mut fast =
            random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, n_base_op_faults);
        install_random_stuck_bits(&mut fast, n_stuck, fault_seed ^ 0x57ac);
        let mut slow = fast.clone();
        // Ragged overlays: map m carries m % 4 random sites plus one
        // forced vr burst so suppression paths light up, and (m + 1)·F / k
        // weight flips, duplicated cells included.
        let mut maps: Vec<NeuronFaultOverlay> = (0..k)
            .map(|m| {
                let mut overlay = random_overlay(10, m % 4, fault_seed ^ (m as u64 + 1));
                let mut rng = StdRng::seed_from_u64(fault_seed ^ (0x5eed_0000 + m as u64));
                overlay.push_neuron_op(rng.gen_range(0..10_u32), NeuronOp::VmemReset);
                let flips = (m + 1) * n_map_flips / k;
                add_random_flips(&mut overlay, 24, 10, flips, fault_seed ^ (0xf11_0000 + m as u64));
                overlay
            })
            .collect();
        // Clean scenarios lower to empty overlays: splice some in at
        // seeded positions among the faulty maps.
        let mut rng = StdRng::seed_from_u64(fault_seed ^ 0xc1ea_0000);
        for _ in 0..n_clean {
            let at = rng.gen_range(0..=maps.len());
            maps.insert(at, NeuronFaultOverlay::new());
        }
        let trains: Vec<snn_sim::spike::SpikeTrain> = (0..n_samples)
            .map(|s| random_train(24, 12 + (s * 5) % 20, fault_seed ^ (0x100 + s as u64), density))
            .collect();
        assert_multi_map_matches_reference(
            &mut fast, &mut slow, &trains, &maps, &DirectRead, &NoGuard, "direct/noguard");
        assert_multi_map_matches_reference(
            &mut fast, &mut slow, &trains, &maps, &bound, &NoGuard, "bounded/noguard");
        assert_multi_map_matches_reference(
            &mut fast, &mut slow, &trains, &maps, &as_table, &NoGuard, "table/noguard");
        let monitor = ResetMonitor::new(10, window);
        assert_multi_map_matches_reference(
            &mut fast, &mut slow, &trains, &maps, &DirectRead, &monitor, "direct/monitored");
        assert_multi_map_matches_reference(
            &mut fast, &mut slow, &trains, &maps, &bound, &monitor, "bounded/monitored");
        assert_multi_map_matches_reference(
            &mut fast, &mut slow, &trains, &maps, &as_table, &monitor, "table/monitored");
    }

    /// The batched pass is the one-map case of the multi-map pass: one
    /// empty overlay over the same trains gives the very same counts,
    /// under any guard class and persisted base faults.
    #[test]
    fn run_batch_is_the_one_empty_map_case(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..30,
        n_op_faults in 0_usize..4,
        batch in 1_usize..40,
        window in 1_u8..4,
        density in 0.1_f64..0.7,
    ) {
        let bound = RandomBound { threshold, default };
        let mut engine =
            random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, n_op_faults);
        let trains: Vec<SpikeTrain> = (0..batch)
            .map(|s| random_train(24, 10 + (s * 3) % 20, fault_seed ^ (0x200 + s as u64), density))
            .collect();
        let monitor = ResetMonitor::new(10, window);
        let batched = engine.run_batch(&trains, &bound, &monitor);
        let mut one_map = MultiMapResult::new();
        let empty = [NeuronFaultOverlay::new()];
        engine.run_batch_multi_map(&trains, &empty, &bound, &monitor, &mut one_map);
        prop_assert_eq!(one_map.n_maps(), 1);
        prop_assert_eq!(one_map.n_samples(), batched.n_samples());
        for s in 0..trains.len() {
            prop_assert_eq!(one_map.counts(0, s), batched.counts(s), "sample {}", s);
        }
    }

    /// The per-sample-maps pass (the re-execution shape: every sample
    /// under its own k maps) against the scalar oracle run one sample at
    /// a time, across all three kernels, both guard classes, installed
    /// stuck-at bits, weight-flip overlays with duplicated cells, and
    /// empty overlays.
    #[test]
    fn run_batch_per_sample_maps_matches_reference(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_stuck in 0_usize..4,
        n_map_flips in 0_usize..10,
        k in 0_usize..6,
        n_samples in 1_usize..7,
        window in 1_u8..4,
        density in 0.1_f64..0.7,
    ) {
        let bound = RandomBound { threshold, default };
        let as_table = RandomBoundAsTable { threshold, default };
        let mut fast = random_faulted_engine(24, 10, net_seed, fault_seed, 6, 1);
        install_random_stuck_bits(&mut fast, n_stuck, fault_seed ^ 0x57ad);
        let mut slow = fast.clone();
        // Overlay i carries i % 3 neuron sites and i % (F + 1) flips, so
        // some are empty.
        let maps: Vec<NeuronFaultOverlay> = (0..n_samples * k)
            .map(|i| {
                let mut overlay = random_overlay(10, i % 3, fault_seed ^ (0x300 + i as u64));
                let flips = i % (n_map_flips + 1);
                add_random_flips(&mut overlay, 24, 10, flips, fault_seed ^ (0x400 + i as u64));
                overlay
            })
            .collect();
        let trains: Vec<SpikeTrain> = (0..n_samples)
            .map(|s| random_train(24, 8 + (s * 5) % 17, fault_seed ^ (0x500 + s as u64), density))
            .collect();
        let monitor = ResetMonitor::new(10, window);
        assert_per_sample_maps_match_reference(
            &mut fast, &mut slow, &trains, &maps, &DirectRead, &NoGuard, "direct/noguard");
        assert_per_sample_maps_match_reference(
            &mut fast, &mut slow, &trains, &maps, &bound, &monitor, "bounded/monitored");
        assert_per_sample_maps_match_reference(
            &mut fast, &mut slow, &trains, &maps, &as_table, &monitor, "table/monitored");
    }

    /// Identical samples inside a batch (the shared-accumulate fast path:
    /// every cycle's active-row set repeats across the batch) must still
    /// match the per-sample reference exactly.
    #[test]
    fn run_batch_shares_identical_row_sets_exactly(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_vr_bursts in 1_usize..4,
        copies in 2_usize..8,
    ) {
        let bound = RandomBound { threshold, default };
        let mut fast = random_faulted_engine(24, 10, net_seed, fault_seed, 12, 1);
        let mut rng = StdRng::seed_from_u64(fault_seed ^ 0xc0de);
        for _ in 0..n_vr_bursts {
            let j = rng.gen_range(0..10_usize);
            fast.neurons_mut()[j].faults.set(NeuronOp::VmemReset);
        }
        let mut slow = fast.clone();
        let one = random_train(24, 25, fault_seed ^ 9, 0.4);
        let trains: Vec<SpikeTrain> = (0..copies).map(|_| one.clone()).collect();
        let monitor = ResetMonitor::new(10, 2);
        assert_batch_matches_reference(
            &mut fast, &mut slow, &trains, &bound, &monitor, "identical-samples");
    }
}

/// Deterministic batch widths the chunking logic must get right: single
/// sample, a pair, exactly one chunk, one over a chunk (ragged tail of 1),
/// and two chunks plus a tail.
#[test]
fn run_batch_chunk_boundaries_match_reference() {
    for &batch in &[1_usize, 2, MAX_LANES, MAX_LANES + 1, 2 * MAX_LANES + 3] {
        let mut fast = random_faulted_engine(24, 10, 0xfeed, 0xbeef, 20, 2);
        fast.neurons_mut()[3].faults.set(NeuronOp::VmemReset);
        let mut slow = fast.clone();
        let trains: Vec<SpikeTrain> = (0..batch)
            .map(|s| random_train(24, 20, 77 + s as u64, 0.4))
            .collect();
        let bound = RandomBound {
            threshold: 90,
            default: 7,
        };
        let monitor = ResetMonitor::new(10, 2);
        assert_batch_matches_reference(
            &mut fast,
            &mut slow,
            &trains,
            &bound,
            &monitor,
            &format!("chunk-boundary batch={batch}"),
        );
    }
}

/// A word-straddling engine (70 neurons spans two `u64` mask words) run
/// through the batched pass: per-sample comparator/fired word planes must
/// keep their padding discipline across samples.
#[test]
fn run_batch_word_straddling_engine_matches_reference() {
    let cfg = snn_sim::config::SnnConfig::builder()
        .n_inputs(24)
        .n_neurons(70)
        .v_thresh(2.0)
        .v_leak(0.1)
        .v_inh(3.0)
        .t_refrac(2)
        .build()
        .expect("valid config");
    let net = snn_sim::network::Network::new(cfg, &mut seeded_rng(0x57add1e));
    let qn = QuantizedNetwork::from_network_default(&net);
    let mut fast = ComputeEngine::for_network(&qn).expect("deployable");
    for j in [0_usize, 63, 64, 69] {
        fast.neurons_mut()[j].faults.set(NeuronOp::VmemReset);
    }
    let mut slow = fast.clone();
    let trains: Vec<SpikeTrain> = (0..5)
        .map(|s| random_train(24, 30, 1000 + s as u64, 0.5))
        .collect();
    let monitor = ResetMonitor::new(70, 2);
    assert_batch_matches_reference(
        &mut fast,
        &mut slow,
        &trains,
        &DirectRead,
        &monitor,
        "word-straddling",
    );
}

/// Deterministic map counts the multi-map chunking logic must get right:
/// a single map, a pair, exactly one chunk, one over a chunk (ragged tail
/// of 1), and two chunks plus a tail — each against the scalar oracle
/// under the full BnP shape (bounded path + reset monitor + vr bursts).
#[test]
fn run_batch_multi_map_chunk_boundaries_match_reference() {
    for &k in &[1_usize, 2, MAX_LANES, MAX_LANES + 1, 2 * MAX_LANES + 3] {
        let mut fast = random_faulted_engine(24, 10, 0xfeed, 0xbeef, 15, 1);
        let mut slow = fast.clone();
        let maps: Vec<NeuronFaultOverlay> = (0..k)
            .map(|m| {
                let mut overlay: NeuronFaultOverlay = [
                    ((m % 10) as u32, NeuronOp::VmemReset),
                    (((m * 3 + 1) % 10) as u32, NeuronOp::ALL[m % 4]),
                ]
                .into_iter()
                .collect();
                overlay.push_weight_flip((m % 24) as u32, ((m * 7) % 10) as u32, (m % 8) as u8);
                overlay
            })
            .collect();
        let trains: Vec<snn_sim::spike::SpikeTrain> = (0..2)
            .map(|s| random_train(24, 18, 500 + s as u64, 0.4))
            .collect();
        let bound = RandomBound {
            threshold: 90,
            default: 7,
        };
        let monitor = ResetMonitor::new(10, 2);
        assert_multi_map_matches_reference(
            &mut fast,
            &mut slow,
            &trains,
            &maps,
            &bound,
            &monitor,
            &format!("multi-map chunk-boundary k={k}"),
        );
    }
}

/// Deterministic maps-per-sample counts the per-sample chunking must get
/// right: one map per sample, k dividing the lane width or not, exactly
/// the width, and one past it (a sample's lanes split across chunks).
#[test]
fn run_batch_per_sample_maps_chunk_boundaries_match_reference() {
    for &k in &[1_usize, 3, 5, MAX_LANES, MAX_LANES + 1] {
        let mut fast = random_faulted_engine(24, 10, 0xfeed, 0xbeef, 15, 1);
        let mut slow = fast.clone();
        let trains: Vec<SpikeTrain> = (0..7)
            .map(|s| random_train(24, 16, 700 + s as u64, 0.4))
            .collect();
        let maps: Vec<NeuronFaultOverlay> = (0..trains.len() * k)
            .map(|i| {
                let mut overlay: NeuronFaultOverlay = [((i % 10) as u32, NeuronOp::ALL[i % 4])]
                    .into_iter()
                    .collect();
                add_random_flips(&mut overlay, 24, 10, i % 5, 900 + i as u64);
                overlay
            })
            .collect();
        let bound = RandomBound {
            threshold: 90,
            default: 7,
        };
        let monitor = ResetMonitor::new(10, 2);
        assert_per_sample_maps_match_reference(
            &mut fast,
            &mut slow,
            &trains,
            &maps,
            &bound,
            &monitor,
            &format!("per-sample chunk-boundary k={k}"),
        );
    }
}

/// A word-straddling engine (70 neurons spans two `u64` mask words) run
/// through the multi-map pass: per-map fault planes and comparator words
/// must keep their padding discipline across maps.
#[test]
fn run_batch_multi_map_word_straddling_engine_matches_reference() {
    let cfg = snn_sim::config::SnnConfig::builder()
        .n_inputs(24)
        .n_neurons(70)
        .v_thresh(2.0)
        .v_leak(0.1)
        .v_inh(3.0)
        .t_refrac(2)
        .build()
        .expect("valid config");
    let net = snn_sim::network::Network::new(cfg, &mut seeded_rng(0x57add1e));
    let qn = QuantizedNetwork::from_network_default(&net);
    let mut fast = ComputeEngine::for_network(&qn).expect("deployable");
    let mut slow = fast.clone();
    let maps: Vec<NeuronFaultOverlay> = vec![
        [(0, NeuronOp::VmemReset)].into_iter().collect(),
        [(63, NeuronOp::VmemReset), (64, NeuronOp::SpikeGeneration)]
            .into_iter()
            .collect(),
        [(69, NeuronOp::VmemLeak)].into_iter().collect(),
    ];
    let trains: Vec<snn_sim::spike::SpikeTrain> = (0..3)
        .map(|s| random_train(24, 25, 2000 + s as u64, 0.5))
        .collect();
    let monitor = ResetMonitor::new(70, 2);
    assert_multi_map_matches_reference(
        &mut fast,
        &mut slow,
        &trains,
        &maps,
        &DirectRead,
        &monitor,
        "multi-map word-straddling",
    );
}

/// An empty batch and zero-length trains are legal degenerate inputs.
#[test]
fn run_batch_degenerate_inputs() {
    let mut engine = random_faulted_engine(24, 10, 1, 2, 0, 0);
    let empty: Vec<SpikeTrain> = Vec::new();
    let out = engine.run_batch(&empty, &DirectRead, &NoGuard);
    assert_eq!(out.n_samples(), 0);
    let zero_len = vec![SpikeTrain::new(24, 0), SpikeTrain::new(24, 0)];
    let out = engine.run_batch(&zero_len, &DirectRead, &NoGuard);
    assert_eq!(out.n_samples(), 2);
    assert!(out.iter().all(|c| c.iter().all(|&x| x == 0)));
}
