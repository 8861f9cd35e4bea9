//! Cross-backend equivalence properties: the event-driven sparse engine
//! must be bit-identical to the dense engine on every delay-free
//! workload.
//!
//! The event backend skips provably-silent cycles and replays the missed
//! leak lazily from a precomputed k-step table, so these properties pin
//! three claims at once: the silent-cycle skip condition is sound (no
//! spike, comparator edge, or guard decision is ever lost), the lazy
//! leak table is exactly k sequential leak steps (flooring included),
//! and the per-input adjacency the backend compiles from the crossbar
//! stays coherent with fault injection and healing through the engine's
//! mutation epoch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use snn_hw::backend::{AnyBackend, EngineBackend, EngineBackendKind};
use snn_hw::engine::{
    BatchResult, ComputeEngine, DirectRead, MultiMapResult, NeuronFaultOverlay, NoGuard,
    WeightReadPath,
};
use snn_hw::event::EventEngine;
use snn_hw::neuron_lanes::NeuronLanes;
use snn_hw::neuron_unit::{NeuronHwParams, NeuronOp, NeuronUnit};
use snn_sim::config::SnnConfig;
use snn_sim::network::Network;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::rng::seeded_rng;
use snn_sim::spike::SpikeTrain;
use softsnn_core::protection::ResetMonitor;

/// A bounding-style read path with arbitrary threshold/default registers.
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
}

/// Builds a random engine with random persisted faults (register bit
/// flips and neuron-op faults).
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

/// A random spike train with *bursty* sparsity: a fraction of the steps
/// are forced fully silent so the event backend's skip path actually
/// fires, the rest carry `density` spikes.
fn sparse_train(
    n_inputs: usize,
    n_steps: usize,
    seed: u64,
    density: f64,
    silent_fraction: f64,
) -> SpikeTrain {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = SpikeTrain::new(n_inputs, n_steps);
    for _ in 0..n_steps {
        if rng.gen_bool(silent_fraction) {
            train.push_step(Vec::new());
        } else {
            let active: Vec<u32> = (0..n_inputs as u32)
                .filter(|_| rng.gen_bool(density))
                .collect();
            train.push_step(active);
        }
    }
    train
}

/// A random neuron-only fault overlay.
fn random_overlay(n_neurons: usize, n_sites: usize, seed: u64) -> NeuronFaultOverlay {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_sites)
        .map(|_| {
            (
                rng.gen_range(0..n_neurons) as u32,
                NeuronOp::ALL[rng.gen_range(0_usize..4)],
            )
        })
        .collect()
}

/// Adds `n_flips` random weight flips over an `n_inputs × n_neurons`
/// crossbar to `overlay`; every other flip repeats its cell with either
/// the same bit (the pair cancels) or the next one (the pair merges).
fn add_random_flips(
    overlay: &mut NeuronFaultOverlay,
    n_inputs: usize,
    n_neurons: usize,
    n_flips: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n_flips {
        let row = rng.gen_range(0..n_inputs) as u32;
        let col = rng.gen_range(0..n_neurons) as u32;
        let bit = rng.gen_range(0_u8..8);
        overlay.push_weight_flip(row, col, bit);
        if i % 2 == 0 {
            let again = if rng.gen_bool(0.5) {
                bit
            } else {
                (bit + 1) % 8
            };
            overlay.push_weight_flip(row, col, again);
        }
    }
}

/// Asserts the event backend matches the dense engine sample for sample
/// under a given path/guard pair, including the guard's latch state.
fn assert_sample_equivalence<P: WeightReadPath>(
    dense: &mut ComputeEngine,
    event: &mut EventEngine,
    trains: &[SpikeTrain],
    path: &P,
    window: u8,
    label: &str,
) {
    let n = dense.n_neurons();
    for (s, train) in trains.iter().enumerate() {
        let a = dense.run_sample(train, path, &mut NoGuard);
        let b = event.run_sample(train, path, &mut NoGuard);
        assert_eq!(a, b, "{label}: sample {s} diverged under NoGuard");
        let mut ga = ResetMonitor::new(n, window);
        let mut gb = ResetMonitor::new(n, window);
        let a = dense.run_sample(train, path, &mut ga);
        let b = event.run_sample(train, path, &mut gb);
        assert_eq!(a, b, "{label}: sample {s} diverged under ResetMonitor");
        assert_eq!(
            ga.n_disabled(),
            gb.n_disabled(),
            "{label}: sample {s} monitor latch count diverged"
        );
        for j in 0..n {
            assert_eq!(
                ga.is_disabled(j),
                gb.is_disabled(j),
                "{label}: sample {s} monitor latch diverged at neuron {j}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delay-free sample equivalence under the identity and a bounding
    /// read path and both guard classes, over bursty-sparse inputs (so the skip path
    /// runs) with random persisted faults including vr bursts (so
    /// neurons go hot and stay hot — the skip gate must hold them).
    #[test]
    fn event_backend_matches_dense_per_sample(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..40,
        n_op_faults in 0_usize..5,
        n_vr_bursts in 0_usize..3,
        window in 1_u8..4,
        density in 0.05_f64..0.6,
        silent_fraction in 0.0_f64..0.95,
    ) {
        let mut dense =
            random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, n_op_faults);
        let mut rng = StdRng::seed_from_u64(fault_seed ^ 0xe5eed);
        for _ in 0..n_vr_bursts {
            let j = rng.gen_range(0..10_usize);
            dense.neurons_mut()[j].faults.set(NeuronOp::VmemReset);
        }
        let mut event = EventEngine::new(dense.clone());
        let trains: Vec<SpikeTrain> = (0..3)
            .map(|s| sparse_train(24, 40, fault_seed ^ (s as u64 + 1), density, silent_fraction))
            .collect();
        let bound = RandomBound { threshold, default };
        assert_sample_equivalence(&mut dense, &mut event, &trains, &DirectRead, window, "direct");
        assert_sample_equivalence(&mut dense, &mut event, &trains, &bound, window, "bounded");
    }

    /// Batch and multi-map equivalence through the [`EngineBackend`]
    /// trait over [`AnyBackend`] — the exact dispatch surface a
    /// deployment (and every grid shard cloned from it) evaluates
    /// through. Overlays carry weight flips (duplicated cells
    /// included) over installed stuck-at bits. Delay-free, both backends
    /// run the dense lane pass, which adds them as drive corrections; the
    /// delayed engines' per-map fallback is pinned in `event_delays.rs`.
    #[test]
    fn any_backend_batch_and_multi_map_match(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threshold in any::<u8>(),
        default in any::<u8>(),
        n_bit_flips in 0_usize..30,
        n_map_flips in 0_usize..10,
        stuck in any::<bool>(),
        k in 1_usize..6,
        window in 1_u8..4,
        silent_fraction in 0.0_f64..0.9,
    ) {
        let mut engine = random_faulted_engine(24, 10, net_seed, fault_seed, n_bit_flips, 2);
        if stuck {
            let site = snn_hw::engine::StuckWeightBit {
                row: (fault_seed % 24) as usize,
                col: (net_seed % 10) as usize,
                bit: (fault_seed % 8) as u8,
                stuck_at: fault_seed & 1 == 0,
            };
            engine.install_stuck_bits(&[site]).expect("in range");
        }
        let mut dense = AnyBackend::dense(engine.clone());
        let mut event = AnyBackend::dense(engine);
        event.set_kind(EngineBackendKind::Event);
        prop_assert_eq!(event.kind(), EngineBackendKind::Event);
        let trains: Vec<SpikeTrain> = (0..4)
            .map(|s| sparse_train(24, 25, fault_seed ^ (0x10 + s as u64), 0.3, silent_fraction))
            .collect();
        let maps: Vec<NeuronFaultOverlay> = (0..k)
            .map(|m| {
                let mut overlay = random_overlay(10, m % 3, fault_seed ^ (0x20 + m as u64));
                overlay.push_neuron_op((m % 10) as u32, NeuronOp::VmemReset);
                add_random_flips(&mut overlay, 24, 10, (m * n_map_flips) / k, fault_seed ^ (0x40 + m as u64));
                overlay
            })
            .collect();
        let bound = RandomBound { threshold, default };
        let monitor = ResetMonitor::new(10, window);

        let mut out_a = BatchResult::new();
        let mut out_b = BatchResult::new();
        dense.run_batch_into(&trains, &bound, &monitor, &mut out_a);
        event.run_batch_into(&trains, &bound, &monitor, &mut out_b);
        prop_assert_eq!(&out_a, &out_b, "batch diverged");

        let codes = dense.engine().crossbar().codes();
        let mut mm_a = MultiMapResult::new();
        let mut mm_b = MultiMapResult::new();
        dense.run_batch_multi_map(&trains, &maps, &DirectRead, &monitor, &mut mm_a);
        event.run_batch_multi_map(&trains, &maps, &DirectRead, &monitor, &mut mm_b);
        prop_assert_eq!(&mm_a, &mm_b, "direct multi-map diverged");
        dense.run_batch_multi_map(&trains, &maps, &bound, &monitor, &mut mm_a);
        event.run_batch_multi_map(&trains, &maps, &bound, &monitor, &mut mm_b);
        prop_assert_eq!(&mm_a, &mm_b, "bounded multi-map diverged");
        prop_assert_eq!(dense.engine().crossbar().codes(), codes.clone(), "dense crossbar moved");
        prop_assert_eq!(event.engine().crossbar().codes(), codes, "event crossbar not restored");

        // Multi-map restores pre-call fault state on both backends: a
        // plain batch afterwards must still agree (and see no overlays).
        dense.run_batch_into(&trains, &bound, &monitor, &mut out_a);
        event.run_batch_into(&trains, &bound, &monitor, &mut out_b);
        prop_assert_eq!(&out_a, &out_b, "post-multi-map batch diverged");
    }

    /// Heal-on-entry across backends: inject faults mid-stream (bit
    /// flips through `engine_mut` — the shared fault surface), verify
    /// both backends see them (the event backend must recompile its
    /// adjacency off the mutation epoch, not serve stale weights), then
    /// `reload_parameters` and verify both return to the clean result.
    #[test]
    fn heal_on_entry_recompiles_event_adjacency(
        net_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        n_bit_flips in 1_usize..30,
        silent_fraction in 0.0_f64..0.9,
    ) {
        let engine = random_faulted_engine(24, 10, net_seed, 0, 0, 0);
        let mut dense = AnyBackend::dense(engine.clone());
        let mut event = AnyBackend::dense(engine);
        event.set_kind(EngineBackendKind::Event);
        let train = sparse_train(24, 30, fault_seed ^ 0x77, 0.35, silent_fraction);

        let clean_a = dense.run_sample_into(&train, &DirectRead, &mut NoGuard).to_vec();
        let clean_b = event.run_sample_into(&train, &DirectRead, &mut NoGuard).to_vec();
        prop_assert_eq!(&clean_a, &clean_b, "clean run diverged");

        let mut rng = StdRng::seed_from_u64(fault_seed);
        for _ in 0..n_bit_flips {
            let row = rng.gen_range(0..24_usize);
            let col = rng.gen_range(0..10_usize);
            let bit = rng.gen_range(0_u8..8);
            dense.engine_mut().flip_weight_bit(row, col, bit).expect("in range");
            event.engine_mut().flip_weight_bit(row, col, bit).expect("in range");
        }
        let faulted_a = dense.run_sample_into(&train, &DirectRead, &mut NoGuard).to_vec();
        let faulted_b = event.run_sample_into(&train, &DirectRead, &mut NoGuard).to_vec();
        prop_assert_eq!(&faulted_a, &faulted_b, "faulted run diverged (stale adjacency?)");

        dense.reload_parameters(&mut NoGuard);
        event.reload_parameters(&mut NoGuard);
        let healed_a = dense.run_sample_into(&train, &DirectRead, &mut NoGuard).to_vec();
        let healed_b = event.run_sample_into(&train, &DirectRead, &mut NoGuard).to_vec();
        prop_assert_eq!(&healed_a, &clean_a, "dense heal incomplete");
        prop_assert_eq!(&healed_b, &clean_b, "event heal incomplete");
    }

    /// The lazy-leak fold: `NeuronLanes::advance_silent(k)` must equal k
    /// sequential zero-drive fused steps, across random membranes,
    /// refractory counters, and vl-faulty lanes. Thresholds are held
    /// unreachably high, matching the caller's contract (silent cycles
    /// are only skipped while no comparator can go true).
    #[test]
    fn advance_silent_matches_k_sequential_steps(
        seeds in prop::collection::vec(any::<u32>(), 1..24),
        v_leak in 0_i32..20,
        k in 0_u32..70,
    ) {
        let n = seeds.len();
        let t_refrac = 6;
        let params = NeuronHwParams {
            v_reset: 40,
            v_leak,
            t_refrac,
            v_inh: 3,
        };
        let units: Vec<NeuronUnit> = seeds
            .iter()
            .map(|&s| {
                let mut u = NeuronUnit::new();
                if s % 11 == 0 {
                    u.faults.set(NeuronOp::VmemLeak);
                }
                u
            })
            .collect();
        let v_thresh = vec![i32::MAX / 2; n];
        let mut lazy = NeuronLanes::new(0);
        lazy.configure(&units, &[]);
        let words = lazy.words();
        let mut cmp = vec![0_u64; words];
        let mut spk = vec![0_u64; words];
        // Warm-up to random membranes and refractory counters: every
        // cycle drives neuron j by its seed, and even seeds may fire on
        // cycle `s % (t_refrac + 1)`, leaving 0..=t_refrac refractory
        // cycles at the end.
        let drive: Vec<i32> = seeds.iter().map(|&s| (s % 700) as i32).collect();
        for c in 0..=t_refrac {
            let fire_at: Vec<i32> = seeds
                .iter()
                .map(|&s| if s % 2 == 0 && s % (t_refrac + 1) == c { 1 } else { i32::MAX / 2 })
                .collect();
            lazy.step_fused(&drive, &fire_at, &params, &mut cmp, &mut spk);
        }
        let mut sequential = lazy.clone();

        lazy.advance_silent(k, v_leak);

        let zero_acc = vec![0_i32; n];
        for _ in 0..k {
            sequential.step_fused(&zero_acc, &v_thresh, &params, &mut cmp, &mut spk);
            prop_assert!(cmp.iter().all(|&w| w == 0), "comparator fired on a silent step");
        }
        prop_assert_eq!(lazy.vmem(), sequential.vmem(), "lazy leak diverged from sequential");
    }
}

/// The skip path actually engages on sparse input — and skipping changes
/// nothing: a mostly-silent train must report `skipped_cycles() > 0`
/// while matching the dense engine count for count.
#[test]
fn sparse_input_skips_cycles_without_changing_results() {
    let mut dense = random_faulted_engine(24, 10, 0xfeed, 0xbeef, 10, 1);
    let mut event = EventEngine::new(dense.clone());
    // 5 active bursts inside 200 steps: ~97% silent.
    let mut train = SpikeTrain::new(24, 200);
    for t in 0..200 {
        if t % 40 == 0 {
            train.push_step(vec![0, 3, 7, 11, 19]);
        } else {
            train.push_step(Vec::new());
        }
    }
    let a = dense.run_sample(&train, &DirectRead, &mut NoGuard);
    let b = event.run_sample(&train, &DirectRead, &mut NoGuard);
    assert_eq!(a, b, "sparse run diverged");
    assert!(
        event.skipped_cycles() > 100,
        "expected most cycles skipped, got {} of {}",
        event.skipped_cycles(),
        event.skipped_cycles() + event.processed_cycles()
    );
    // Fully-silent input: everything after warm-up is skippable.
    let empty = SpikeTrain::new(24, 50);
    let a = dense.run_sample(&empty, &DirectRead, &mut NoGuard);
    let b = event.run_sample(&empty, &DirectRead, &mut NoGuard);
    assert_eq!(a, b);
    assert!(a.iter().all(|&c| c == 0));
}

/// Switching a backend back and forth preserves the wrapped engine
/// exactly: Dense → Event → Dense round-trips state, faults, and
/// results.
#[test]
fn set_kind_round_trips_engine_state() {
    let engine = random_faulted_engine(24, 10, 7, 8, 15, 2);
    let train = sparse_train(24, 30, 9, 0.4, 0.3);
    let mut reference = engine.clone();
    let expected = reference.run_sample(&train, &DirectRead, &mut NoGuard);

    let mut backend = AnyBackend::dense(engine);
    backend.set_kind(EngineBackendKind::Event);
    assert!(backend.event_mut().is_some());
    let via_event = backend
        .run_sample_into(&train, &DirectRead, &mut NoGuard)
        .to_vec();
    assert_eq!(via_event, expected);
    backend.set_kind(EngineBackendKind::Dense);
    assert!(backend.event_mut().is_none());
    let via_dense = backend
        .run_sample_into(&train, &DirectRead, &mut NoGuard)
        .to_vec();
    assert_eq!(via_dense, expected);
}
