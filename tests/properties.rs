//! Cross-crate property-based tests (proptest) on the core invariants of
//! the reproduction.

use proptest::prelude::*;
use softsnn::core::analysis::WeightAnalysis;
use softsnn::core::bounding::{BnpVariant, BoundingConfig};
use softsnn::faults::fault_map::FaultMap;
use softsnn::faults::injector::inject;
use softsnn::faults::location::{FaultDomain, FaultSpace};
use softsnn::hw::engine::{ComputeEngine, NoGuard};
use softsnn::prelude::*;
use softsnn::sim::quant::QuantScheme;

fn small_engine(seed: u64) -> ComputeEngine {
    let cfg = SnnConfig::builder()
        .n_inputs(16)
        .n_neurons(6)
        .build()
        .expect("valid config");
    let net = Network::new(cfg, &mut seeded_rng(seed));
    let qn = QuantizedNetwork::from_network_default(&net);
    ComputeEngine::for_network(&qn).expect("deployable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 1 invariant: a bounded read is always either the original
    /// in-range code or exactly the configured default.
    #[test]
    fn bounding_output_is_original_or_default(
        codes in prop::collection::vec(0_u8..=255, 1..200),
        raw in 0_u8..=255,
        variant_idx in 0_usize..3,
    ) {
        let analysis = WeightAnalysis::of_codes(&codes, 255);
        let variant = BnpVariant::ALL[variant_idx];
        let bounding = BoundingConfig::for_variant(variant, &analysis);
        let out = bounding.bound(raw);
        prop_assert!(out == raw || out == bounding.default_code);
        // And the passthrough condition is exactly the safe range.
        if raw <= analysis.wgh_max_code {
            prop_assert_eq!(out, raw, "clean codes must pass unmodified");
        }
    }

    /// Bounded reads never exceed the clean maximum under BnP1/BnP2 (BnP3
    /// replaces with the in-range mode, also <= wgh_max).
    #[test]
    fn bounded_reads_stay_in_safe_range(
        codes in prop::collection::vec(0_u8..=200, 10..100),
        raw in 0_u8..=255,
        variant_idx in 0_usize..3,
    ) {
        let analysis = WeightAnalysis::of_codes(&codes, 255);
        let bounding = BoundingConfig::for_variant(BnpVariant::ALL[variant_idx], &analysis);
        prop_assert!(bounding.bound(raw) <= analysis.wgh_max_code);
    }

    /// Fault maps are deterministic in their seed and respect the rate.
    #[test]
    fn fault_maps_are_deterministic_and_sized(
        rate in 0.0_f64..=0.3,
        seed in any::<u64>(),
    ) {
        let space = FaultSpace::new(30, 10, FaultDomain::ComputeEngine);
        let a = FaultMap::generate(&space, rate, seed);
        let b = FaultMap::generate(&space, rate, seed);
        prop_assert_eq!(a.sites(), b.sites());
        let expected = (rate * space.total_locations() as f64).round() as usize;
        prop_assert_eq!(a.len(), expected);
    }

    /// Injection followed by parameter reload always restores the clean
    /// engine (the paper's healing semantics).
    #[test]
    fn reload_always_heals(rate in 0.0_f64..=0.5, seed in any::<u64>()) {
        let mut engine = small_engine(3);
        let clean = engine.crossbar().codes();
        let space = FaultSpace::new(16, 6, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, rate, seed);
        inject(&mut engine, &map).expect("fits");
        engine.reload_parameters(&mut NoGuard);
        prop_assert_eq!(engine.crossbar().codes(), clean);
        prop_assert!(engine.neurons().iter().all(|n| !n.faults.any()));
    }

    /// Quantize→dequantize error is bounded by half an LSB for in-range
    /// weights.
    #[test]
    fn quantization_error_is_bounded(w in 0.0_f32..2.0) {
        let scheme = QuantScheme::new(8, 2.0);
        let err = (scheme.dequantize(scheme.quantize(w)) - w).abs();
        prop_assert!(err <= scheme.lsb() / 2.0 + 1e-6);
    }

    /// The engine never spikes on silent input, no matter the faults in
    /// the weight registers (spikes need input spikes to integrate) —
    /// unless a neuron's reset is broken, which needs drive first too.
    #[test]
    fn silent_input_stays_silent_under_weight_faults(
        rate in 0.0_f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut engine = small_engine(4);
        let space = FaultSpace::new(16, 6, FaultDomain::Synapses);
        let map = FaultMap::generate(&space, rate, seed);
        inject(&mut engine, &map).expect("fits");
        let mut silent = softsnn::sim::spike::SpikeTrain::new(16, 20);
        for _ in 0..20 {
            silent.push_step(Vec::new());
        }
        let counts = engine.run_sample_into(&silent, &softsnn::hw::engine::DirectRead, &mut NoGuard);
        prop_assert!(counts.iter().all(|&c| c == 0));
    }

    /// Majority vote is permutation-insensitive for 3 votes with a
    /// strict majority.
    #[test]
    fn majority_vote_is_stable(a in 0_usize..4, b in 0_usize..4) {
        use softsnn::core::mitigation::majority_vote;
        let votes = [Some(a), Some(b), Some(a)];
        prop_assert_eq!(majority_vote(&votes), Some(a));
        let votes_rev = [Some(a), Some(a), Some(b)];
        prop_assert_eq!(majority_vote(&votes_rev), Some(a));
    }
}
