//! Fault maps: the set of struck locations for one soft-error scenario.

use crate::location::{FaultSite, FaultSpace, RawLocation, WEIGHT_BITS};
use crate::rate::{fault_count, validate_rate};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

/// A concrete set of fault sites drawn from a [`FaultSpace`] at a given
/// rate — the paper's "fault map" (Fig. 3a shows two of them diverging).
///
/// Generation is deterministic in `(space, rate, seed)`, so a fault map
/// can be regenerated from its metadata.
///
/// # Examples
///
/// ```
/// use snn_faults::location::{FaultDomain, FaultSpace};
/// use snn_faults::fault_map::FaultMap;
///
/// let space = FaultSpace::new(100, 10, FaultDomain::Synapses);
/// let a = FaultMap::generate(&space, 0.01, 7);
/// let b = FaultMap::generate(&space, 0.01, 7);
/// assert_eq!(a.sites(), b.sites());
/// assert_eq!(a.len(), 10); // 100*10 weight cells * 0.01
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    space: FaultSpace,
    rate: f64,
    seed: u64,
    sites: Vec<FaultSite>,
}

impl FaultMap {
    /// Draws `round(rate × locations)` distinct locations uniformly at
    /// random; each struck weight cell gets one uniformly random bit
    /// position (the paper's "flip the stored bit").
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn generate(space: &FaultSpace, rate: f64, seed: u64) -> Self {
        let rate = validate_rate(rate).expect("fault rate");
        let total = space.total_locations();
        let n = fault_count(rate, total);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = sample(&mut rng, total, n).into_vec();
        indices.sort_unstable();
        let sites = indices
            .into_iter()
            .map(|i| match space.location_at(i) {
                RawLocation::WeightCell { row, col } => FaultSite::WeightBit {
                    row,
                    col,
                    bit: rng.gen_range(0..WEIGHT_BITS as u8),
                },
                RawLocation::NeuronOp { neuron, op } => FaultSite::NeuronOp { neuron, op },
            })
            .collect();
        Self {
            space: *space,
            rate,
            seed,
            sites,
        }
    }

    /// An empty fault map (rate 0) for the given space.
    pub fn empty(space: &FaultSpace) -> Self {
        Self {
            space: *space,
            rate: 0.0,
            seed: 0,
            sites: Vec::new(),
        }
    }

    /// The space this map was drawn from.
    pub fn space(&self) -> &FaultSpace {
        &self.space
    }

    /// The fault rate used.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The seed used.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The struck sites (sorted by flat location index).
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Number of struck sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the map strikes nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of weight-bit sites.
    pub fn n_weight_bits(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s, FaultSite::WeightBit { .. }))
            .count()
    }

    /// Number of neuron-operation sites.
    pub fn n_neuron_ops(&self) -> usize {
        self.sites.len() - self.n_weight_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::FaultDomain;
    use snn_hw::neuron_unit::NeuronOp;

    #[test]
    fn different_seeds_give_different_maps() {
        let space = FaultSpace::new(50, 10, FaultDomain::Synapses);
        let a = FaultMap::generate(&space, 0.05, 1);
        let b = FaultMap::generate(&space, 0.05, 2);
        assert_ne!(a.sites(), b.sites());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn sites_are_unique() {
        let space = FaultSpace::new(20, 10, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.3, 3);
        let mut dedup = map.sites().to_vec();
        dedup.sort_by_key(|s| format!("{s:?}"));
        dedup.dedup();
        assert_eq!(dedup.len(), map.len());
    }

    #[test]
    fn rate_one_strikes_everything() {
        let space = FaultSpace::new(4, 2, FaultDomain::Neurons(None));
        let map = FaultMap::generate(&space, 1.0, 5);
        assert_eq!(map.len(), space.total_locations());
    }

    #[test]
    fn rate_zero_strikes_nothing() {
        let space = FaultSpace::new(4, 2, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.0, 5);
        assert!(map.is_empty());
    }

    #[test]
    fn mixed_domain_hits_both_parts_at_high_rate() {
        let space = FaultSpace::new(10, 8, FaultDomain::ComputeEngine);
        let map = FaultMap::generate(&space, 0.5, 11);
        assert!(map.n_weight_bits() > 0);
        assert!(map.n_neuron_ops() > 0);
        assert_eq!(map.n_weight_bits() + map.n_neuron_ops(), map.len());
    }

    #[test]
    fn fixed_op_domain_only_strikes_that_op() {
        let space = FaultSpace::new(10, 8, FaultDomain::Neurons(Some(NeuronOp::SpikeGeneration)));
        let map = FaultMap::generate(&space, 1.0, 11);
        assert!(map.sites().iter().all(|s| matches!(
            s,
            FaultSite::NeuronOp {
                op: NeuronOp::SpikeGeneration,
                ..
            }
        )));
    }

    #[test]
    #[should_panic]
    fn invalid_rate_panics() {
        let space = FaultSpace::new(2, 2, FaultDomain::Synapses);
        let _ = FaultMap::generate(&space, 2.0, 0);
    }
}
