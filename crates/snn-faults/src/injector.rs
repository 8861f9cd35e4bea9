//! Applying a fault map to a compute engine.

use crate::fault_map::FaultMap;
use crate::location::FaultSite;
use crate::permanent::StuckAtMap;
use snn_hw::engine::{ComputeEngine, NeuronFaultOverlay, StuckWeightBit};
use snn_hw::error::HwError;
use snn_hw::neuron_unit::NeuronOp;

/// What an injection actually touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionSummary {
    /// Weight-register bits flipped.
    pub bits_flipped: usize,
    /// Faulty `Vmem increase` units.
    pub vi_faults: usize,
    /// Faulty `Vmem leak` units.
    pub vl_faults: usize,
    /// Faulty `Vmem reset` units.
    pub vr_faults: usize,
    /// Faulty spike-generation units.
    pub sg_faults: usize,
}

impl InjectionSummary {
    /// Total neuron-operation faults.
    pub fn neuron_faults(&self) -> usize {
        self.vi_faults + self.vl_faults + self.vr_faults + self.sg_faults
    }
}

/// Injects every site of `map` into `engine`: bit sites flip register
/// bits, neuron-op sites set the corresponding fault-stuck flag. Both
/// persist per the paper's semantics (until overwrite / parameter
/// replacement — see [`ComputeEngine::reload_parameters`]).
///
/// Weight sites are applied first, through
/// [`ComputeEngine::flip_weight_bit`], which patches the engine's
/// transformed-crossbar image in place — an injection costs O(sites), not
/// an O(rows × cols) image rebuild at the next step. A map that touches
/// only neuron sites leaves the crossbar (and therefore the cached image)
/// entirely alone. Then all neuron sites are applied through a single
/// [`ComputeEngine::neurons_mut`] borrow — the AoS ↔ SoA neuron-state
/// synchronization happens once per injected map, not once per site.
///
/// # Errors
///
/// Returns [`HwError::IndexOutOfRange`] if the map was generated for a
/// larger engine than `engine` (the engine may be left partially
/// injected; callers treat this as fatal for the trial).
pub fn inject(engine: &mut ComputeEngine, map: &FaultMap) -> Result<InjectionSummary, HwError> {
    let mut summary = InjectionSummary::default();
    let n_neurons = engine.n_neurons();
    for site in map.sites() {
        if let FaultSite::WeightBit { row, col, bit } = *site {
            engine.flip_weight_bit(row as usize, col as usize, bit)?;
            summary.bits_flipped += 1;
        }
    }
    let units = engine.neurons_mut();
    for site in map.sites() {
        if let FaultSite::NeuronOp { neuron, op } = *site {
            let neuron = neuron as usize;
            if neuron >= n_neurons {
                return Err(HwError::IndexOutOfRange {
                    what: "neuron",
                    index: neuron,
                    bound: n_neurons,
                });
            }
            units[neuron].faults.set(op);
            match op {
                NeuronOp::VmemIncrease => summary.vi_faults += 1,
                NeuronOp::VmemLeak => summary.vl_faults += 1,
                NeuronOp::VmemReset => summary.vr_faults += 1,
                NeuronOp::SpikeGeneration => summary.sg_faults += 1,
            }
        }
    }
    Ok(summary)
}

/// Lowers `map` to the engine's [`NeuronFaultOverlay`] — the per-call
/// form the trial-group passes apply without installing it
/// ([`ComputeEngine::run_batch_multi_map`],
/// [`ComputeEngine::run_batch_per_sample_maps`]). Running a sample under
/// the overlay is bit-identical to running it after [`inject`]`(engine,
/// map)` on the same engine.
///
/// Every site is checked against `engine` first, in [`inject`]'s order
/// (weight sites, then neuron sites), so an overlay that lowers is one
/// the passes accept.
///
/// # Errors
///
/// Returns the [`HwError::IndexOutOfRange`] that [`inject`] would return
/// for the same map if it was generated for a larger engine than
/// `engine`.
pub fn lower_overlay(
    engine: &ComputeEngine,
    map: &FaultMap,
) -> Result<NeuronFaultOverlay, HwError> {
    let (rows, cols) = (engine.crossbar().rows(), engine.crossbar().cols());
    let n_neurons = engine.n_neurons();
    let out_of_range = |what, index: usize, bound| HwError::IndexOutOfRange { what, index, bound };
    let mut overlay = NeuronFaultOverlay::new();
    for site in map.sites() {
        if let FaultSite::WeightBit { row, col, bit } = *site {
            if row as usize >= rows {
                return Err(out_of_range("row", row as usize, rows));
            }
            if col as usize >= cols {
                return Err(out_of_range("col", col as usize, cols));
            }
            if bit >= 8 {
                return Err(out_of_range("bit", bit as usize, 8));
            }
            overlay.push_weight_flip(row, col, bit);
        }
    }
    for site in map.sites() {
        if let FaultSite::NeuronOp { neuron, op } = *site {
            if neuron as usize >= n_neurons {
                return Err(out_of_range("neuron", neuron as usize, n_neurons));
            }
            overlay.push_neuron_op(neuron, op);
        }
    }
    Ok(overlay)
}

/// Installs a permanent stuck-at map on `engine` and returns the number
/// of sites installed. Unlike [`inject`], whose bit flips the next
/// [`ComputeEngine::reload_parameters`] heals, the installed stuck bits
/// **re-manifest after every reload** — the engine re-applies them on top
/// of each freshly restored clean image (on every backend: the mutation
/// epoch bump makes derived views recompile). Install with an empty map
/// (or call [`ComputeEngine::clear_stuck_bits`]) to remove them.
///
/// # Errors
///
/// Returns [`HwError::IndexOutOfRange`] if the map was generated for a
/// larger crossbar than `engine`'s (the engine is unchanged in that
/// case).
pub fn install_stuck_at(engine: &mut ComputeEngine, map: &StuckAtMap) -> Result<usize, HwError> {
    let sites: Vec<StuckWeightBit> = map
        .sites()
        .iter()
        .map(|s| StuckWeightBit {
            row: s.row as usize,
            col: s.col as usize,
            bit: s.bit,
            stuck_at: s.stuck_at,
        })
        .collect();
    engine.install_stuck_bits(&sites)?;
    Ok(sites.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{FaultDomain, FaultSpace};
    use snn_sim::config::SnnConfig;
    use snn_sim::network::Network;
    use snn_sim::quant::QuantizedNetwork;
    use snn_sim::rng::seeded_rng;

    fn engine(m: usize, n: usize) -> ComputeEngine {
        let cfg = SnnConfig::builder()
            .n_inputs(m)
            .n_neurons(n)
            .build()
            .unwrap();
        let net = Network::new(cfg, &mut seeded_rng(0));
        let qn = QuantizedNetwork::from_network_default(&net);
        ComputeEngine::for_network(&qn).unwrap()
    }

    #[test]
    fn injection_flips_bits_and_sets_faults() {
        let mut e = engine(8, 4);
        let space = FaultSpace::new(8, 4, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.5, 1);
        let before = e.crossbar().codes();
        let summary = inject(&mut e, &map).unwrap();
        assert_eq!(summary.bits_flipped, map.n_weight_bits());
        assert_eq!(summary.neuron_faults(), map.n_neuron_ops());
        assert_ne!(e.crossbar().codes(), before);
    }

    #[test]
    fn double_injection_of_same_map_restores_bits() {
        // Bit flips are XOR: applying the same map twice undoes them.
        let mut e = engine(8, 4);
        let space = FaultSpace::new(8, 4, FaultDomain::Synapses);
        let map = FaultMap::generate(&space, 0.3, 2);
        let before = e.crossbar().codes();
        inject(&mut e, &map).unwrap();
        inject(&mut e, &map).unwrap();
        assert_eq!(e.crossbar().codes(), before);
    }

    #[test]
    fn reload_after_injection_heals() {
        let mut e = engine(8, 4);
        let space = FaultSpace::new(8, 4, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.5, 3);
        let clean = e.crossbar().codes();
        inject(&mut e, &map).unwrap();
        e.reload_parameters(&mut snn_hw::engine::NoGuard);
        assert_eq!(e.crossbar().codes(), clean);
        assert!(e.neurons().iter().all(|n| !n.faults.any()));
    }

    #[test]
    fn oversized_map_rejected() {
        let mut e = engine(4, 2);
        let space = FaultSpace::new(100, 50, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.01, 4);
        assert!(inject(&mut e, &map).is_err());
    }

    #[test]
    fn lowering_rejects_oversized_maps_like_inject() {
        // Maps drawn for a 100×50 engine against engines too small in
        // both dimensions, only in rows, and only in columns.
        for ((m, n), domain, seed) in [
            ((4, 2), FaultDomain::ComputeEngine, 4),
            ((4, 2), FaultDomain::Synapses, 5),
            ((4, 2), FaultDomain::Neurons(None), 6),
            ((4, 50), FaultDomain::Synapses, 7),
            ((100, 2), FaultDomain::Synapses, 8),
        ] {
            let e = engine(m, n);
            let map = FaultMap::generate(&FaultSpace::new(100, 50, domain), 0.1, seed);
            let lowered = lower_overlay(&e, &map).unwrap_err();
            let injected = inject(&mut e.clone(), &map).unwrap_err();
            assert!(matches!(lowered, HwError::IndexOutOfRange { .. }));
            assert_eq!(lowered, injected, "{m}×{n} engine, {domain:?}");
        }
    }

    #[test]
    fn lowered_overlay_runs_like_the_injected_map() {
        use snn_hw::engine::{MultiMapResult, NoGuard};
        let mut e = engine(8, 4);
        let train = saturating_train(8);
        let space = FaultSpace::new(8, 4, FaultDomain::ComputeEngine);
        let maps: Vec<FaultMap> = (0..3)
            .map(|seed| FaultMap::generate(&space, 0.3, 20 + seed))
            .collect();
        let overlays: Vec<NeuronFaultOverlay> = maps
            .iter()
            .map(|map| lower_overlay(&e, map).unwrap())
            .collect();
        let mut out = MultiMapResult::new();
        e.run_batch_multi_map(
            std::slice::from_ref(&train),
            &overlays,
            &Bound,
            &NoGuard,
            &mut out,
        );
        for (m, map) in maps.iter().enumerate() {
            let overlay = &overlays[m];
            assert_eq!(overlay.weight_flips().len(), map.n_weight_bits());
            assert_eq!(overlay.neuron_ops().len(), map.n_neuron_ops());
            let mut injected = e.clone();
            inject(&mut injected, map).unwrap();
            let counts = injected.run_sample(&train, &Bound, &mut NoGuard);
            assert_eq!(out.counts(m, 0), counts.as_slice(), "map {m}");
        }
    }

    /// A bounding-shaped read path so the engine materializes (and the
    /// injector must keep coherent) a transformed-crossbar image.
    struct Bound;
    impl snn_hw::engine::WeightReadPath for Bound {
        fn read(&self, code: u8) -> u8 {
            if code > 80 {
                9
            } else {
                code
            }
        }
        fn bound_params(&self) -> Option<(u8, u8)> {
            Some((80, 9))
        }
    }

    fn saturating_train(m: usize) -> snn_sim::spike::SpikeTrain {
        let mut train = snn_sim::spike::SpikeTrain::new(m, 10);
        for _ in 0..10 {
            train.push_step((0..m as u32).collect());
        }
        train
    }

    #[test]
    fn neuron_only_map_leaves_transformed_image_untouched() {
        use snn_hw::engine::NoGuard;
        let mut e = engine(8, 4);
        let train = saturating_train(8);
        e.run_sample(&train, &Bound, &mut NoGuard);
        let before = e.read_cache_stats();
        assert_eq!(before.rebuilds, 1);
        // A map that strikes only neuron operations touches no crossbar
        // byte: the cached image must survive as-is — no rebuild, no
        // patches, and the next sample reuses it directly.
        let space = FaultSpace::new(8, 4, FaultDomain::Neurons(None));
        let map = FaultMap::generate(&space, 0.5, 11);
        assert!(map.n_weight_bits() == 0 && map.n_neuron_ops() > 0);
        inject(&mut e, &map).unwrap();
        e.run_sample(&train, &Bound, &mut NoGuard);
        let after = e.read_cache_stats();
        assert_eq!(
            after.rebuilds, before.rebuilds,
            "neuron-only map must not rebuild"
        );
        assert_eq!(after.patches, before.patches, "nothing to patch either");
    }

    #[test]
    fn weight_map_patches_image_instead_of_rebuilding() {
        use snn_hw::engine::NoGuard;
        let mut patched = engine(8, 4);
        let mut rebuilt = engine(8, 4);
        let train = saturating_train(8);
        patched.run_sample(&train, &Bound, &mut NoGuard);
        rebuilt.run_sample(&train, &Bound, &mut NoGuard);
        let space = FaultSpace::new(8, 4, FaultDomain::Synapses);
        let map = FaultMap::generate(&space, 0.3, 12);
        assert!(map.n_weight_bits() > 0);
        inject(&mut patched, &map).unwrap();
        // Oracle: same flips through the conservative invalidate route.
        for site in map.sites() {
            if let FaultSite::WeightBit { row, col, bit } = *site {
                rebuilt
                    .crossbar_mut()
                    .flip_bit(row as usize, col as usize, bit)
                    .unwrap();
            }
        }
        let a = patched.run_sample(&train, &Bound, &mut NoGuard);
        let b = rebuilt.run_sample(&train, &Bound, &mut NoGuard);
        assert_eq!(a, b, "patched image must be coherent with a rebuild");
        let stats = patched.read_cache_stats();
        assert_eq!(stats.rebuilds, 1, "injection must not trigger a rebuild");
        assert_eq!(stats.patches as usize, map.n_weight_bits());
        assert_eq!(rebuilt.read_cache_stats().rebuilds, 2);
    }

    #[test]
    fn stuck_at_map_survives_reload() {
        let mut e = engine(8, 4);
        let clean = e.crossbar().codes();
        let space = FaultSpace::new(8, 4, FaultDomain::Synapses);
        let map = StuckAtMap::generate(&space, 0.25, 6);
        assert_eq!(install_stuck_at(&mut e, &map).unwrap(), map.len());
        let mut expected = clean.clone();
        for s in map.sites() {
            let i = s.row as usize * 4 + s.col as usize;
            expected[i] = s.apply(expected[i]);
        }
        assert_ne!(expected, clean);
        // Unlike a transient flip, the heal does not clear a stuck bit.
        e.reload_parameters(&mut snn_hw::engine::NoGuard);
        assert_eq!(
            e.crossbar().codes(),
            expected,
            "stuck bits must re-manifest after a parameter reload"
        );
        e.clear_stuck_bits();
        e.reload_parameters(&mut snn_hw::engine::NoGuard);
        assert_eq!(e.crossbar().codes(), clean);
    }

    #[test]
    fn oversized_stuck_map_rejected() {
        let mut e = engine(4, 2);
        let space = FaultSpace::new(100, 50, FaultDomain::Synapses);
        let map = StuckAtMap::generate(&space, 0.05, 4);
        let before = e.crossbar().codes();
        assert!(install_stuck_at(&mut e, &map).is_err());
        assert!(e.stuck_bits().is_empty(), "failed install must not stick");
        assert_eq!(e.crossbar().codes(), before);
    }

    #[test]
    fn summary_counts_per_op() {
        use snn_hw::neuron_unit::NeuronOp;
        let mut e = engine(4, 4);
        let space = FaultSpace::new(4, 4, FaultDomain::Neurons(Some(NeuronOp::VmemReset)));
        let map = FaultMap::generate(&space, 1.0, 5);
        let summary = inject(&mut e, &map).unwrap();
        assert_eq!(summary.vr_faults, 4);
        assert_eq!(summary.vi_faults + summary.vl_faults + summary.sg_faults, 0);
    }
}
