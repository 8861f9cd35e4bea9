//! Weight bounding (paper Sec. 3.2, Eq. 1) and its three BnP variants.
//!
//! ```text
//! wgh_b = wgh_def  if wgh >= wgh_th
//!         wgh      otherwise
//! ```
//!
//! with `wgh_th = wgh_max` of the clean SNN, and `wgh_def` depending on
//! the variant: 0 (BnP1), `wgh_max` (BnP2), or the highly probable value
//! `wgh_hp` (BnP3). In hardware this is the per-synapse comparator +
//! multiplexer of Fig. 11(a)/(b); here it is a [`WeightReadPath`]
//! installed between the weight registers and the column adders.

use crate::analysis::WeightAnalysis;
use snn_hw::engine::WeightReadPath;
use std::fmt;

/// The three Bound-and-Protect variants (paper Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BnpVariant {
    /// Replace out-of-range weights with zero.
    Bnp1,
    /// Replace out-of-range weights with `wgh_max`.
    Bnp2,
    /// Replace out-of-range weights with the highly probable value
    /// `wgh_hp` of the clean distribution.
    Bnp3,
}

impl BnpVariant {
    /// All variants, in the paper's order.
    pub const ALL: [BnpVariant; 3] = [BnpVariant::Bnp1, BnpVariant::Bnp2, BnpVariant::Bnp3];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BnpVariant::Bnp1 => "BnP1",
            BnpVariant::Bnp2 => "BnP2",
            BnpVariant::Bnp3 => "BnP3",
        }
    }
}

impl fmt::Display for BnpVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configured weight bounding: the contents of the hardened `wgh_th` and
/// `wgh_def` registers.
///
/// # Examples
///
/// ```
/// use softsnn_core::analysis::WeightAnalysis;
/// use softsnn_core::bounding::{BnpVariant, BoundingConfig};
///
/// let analysis = WeightAnalysis::of_codes(&[0, 0, 10, 60], 255);
/// let b2 = BoundingConfig::for_variant(BnpVariant::Bnp2, &analysis);
/// assert_eq!(b2.threshold_code, 60);
/// assert_eq!(b2.default_code, 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundingConfig {
    /// `wgh_th`: codes **strictly above** this are replaced. The paper
    /// states `wgh ≥ wgh_th` with `wgh_th = wgh_max`; since `wgh_max`
    /// itself is a legitimate clean value, the hardware comparator is
    /// configured so that exactly the clean range `[0, wgh_max]` passes
    /// through (clean weights at `wgh_max` keep their value under every
    /// variant — under BnP2 the replacement equals the original anyway).
    pub threshold_code: u8,
    /// `wgh_def`: the replacement value.
    pub default_code: u8,
}

impl BoundingConfig {
    /// Builds the bounding configuration for `variant` from the clean
    /// network's analysis (Sec. 3.2: `wgh_th = wgh_max`).
    pub fn for_variant(variant: BnpVariant, analysis: &WeightAnalysis) -> Self {
        let threshold_code = analysis.wgh_max_code;
        let default_code = match variant {
            BnpVariant::Bnp1 => 0,
            BnpVariant::Bnp2 => analysis.wgh_max_code,
            BnpVariant::Bnp3 => analysis.wgh_hp_code,
        };
        Self {
            threshold_code,
            default_code,
        }
    }

    /// Applies Eq. 1 to a single code.
    #[inline]
    pub fn bound(&self, code: u8) -> u8 {
        if code > self.threshold_code {
            self.default_code
        } else {
            code
        }
    }
}

/// The bounding read path: a [`WeightReadPath`] plugging the comparator +
/// mux between registers and adders (Fig. 11(a)/(b)).
///
/// The full Eq. 1 transfer function is precomputed into a 256-entry table
/// at construction, so the engine's table-driven hot path pays no per-read
/// comparator cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedRead {
    config: BoundingConfig,
    table: [u8; 256],
}

impl BoundedRead {
    /// Creates the read path from a bounding configuration.
    pub fn new(config: BoundingConfig) -> Self {
        let mut table = [0_u8; 256];
        for (code, slot) in table.iter_mut().enumerate() {
            *slot = config.bound(code as u8);
        }
        Self { config, table }
    }

    /// The underlying configuration.
    pub fn config(&self) -> BoundingConfig {
        self.config
    }
}

impl WeightReadPath for BoundedRead {
    #[inline]
    fn read(&self, code: u8) -> u8 {
        self.table[code as usize]
    }

    #[inline]
    fn table(&self) -> [u8; 256] {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis() -> WeightAnalysis {
        // Clean codes: many small, peak near 8, max 100.
        let mut codes = vec![8_u8; 50];
        codes.extend([0, 1, 2, 30, 100]);
        WeightAnalysis::of_codes(&codes, 255)
    }

    #[test]
    fn variants_pick_paper_defaults() {
        let a = analysis();
        assert_eq!(
            BoundingConfig::for_variant(BnpVariant::Bnp1, &a).default_code,
            0
        );
        assert_eq!(
            BoundingConfig::for_variant(BnpVariant::Bnp2, &a).default_code,
            a.wgh_max_code
        );
        assert_eq!(
            BoundingConfig::for_variant(BnpVariant::Bnp3, &a).default_code,
            a.wgh_hp_code
        );
    }

    #[test]
    fn clean_codes_pass_unmodified() {
        let a = analysis();
        for v in BnpVariant::ALL {
            let b = BoundingConfig::for_variant(v, &a);
            for code in [0_u8, 8, 30, 100] {
                assert_eq!(b.bound(code), code, "{v}: clean code {code} must pass");
            }
        }
    }

    #[test]
    fn inflated_codes_are_replaced() {
        let a = analysis();
        let b1 = BoundingConfig::for_variant(BnpVariant::Bnp1, &a);
        let b2 = BoundingConfig::for_variant(BnpVariant::Bnp2, &a);
        let b3 = BoundingConfig::for_variant(BnpVariant::Bnp3, &a);
        // 100 + MSB flip = 228, far outside the safe range.
        assert_eq!(b1.bound(228), 0);
        assert_eq!(b2.bound(228), 100);
        assert_eq!(b3.bound(228), a.wgh_hp_code);
    }

    #[test]
    fn bnp3_default_is_near_the_distribution_peak() {
        let a = analysis();
        let b3 = BoundingConfig::for_variant(BnpVariant::Bnp3, &a);
        // The peak was at 8; bin width 4 means the mode value is 8 +/- 4.
        assert!((b3.default_code as i32 - 8).abs() <= 4);
    }

    #[test]
    fn bnp1_and_bnp3_defaults_are_close_for_peaked_distributions() {
        // Paper Sec. 5.1: BnP1 ~ BnP3 because wgh_hp is near zero for
        // STDP-trained networks.
        let mut codes = vec![2_u8; 500];
        codes.extend([90, 95, 100]);
        let a = WeightAnalysis::of_codes(&codes, 255);
        let b1 = BoundingConfig::for_variant(BnpVariant::Bnp1, &a);
        let b3 = BoundingConfig::for_variant(BnpVariant::Bnp3, &a);
        assert!((b3.default_code as i32 - b1.default_code as i32).abs() < 8);
    }

    #[test]
    fn bounded_read_is_a_weight_read_path() {
        use snn_hw::engine::WeightReadPath as _;
        let a = analysis();
        let path = BoundedRead::new(BoundingConfig::for_variant(BnpVariant::Bnp1, &a));
        assert_eq!(path.read(228), 0);
        assert_eq!(path.read(42), 42);
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(BnpVariant::ALL.map(|v| v.name()), ["BnP1", "BnP2", "BnP3"]);
    }
}
