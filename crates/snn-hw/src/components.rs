//! Gate-equivalent component library and engine enhancement descriptions.
//!
//! This module replaces the paper's Cadence Genus + 65 nm CMOS library
//! flow with an analytical model: every circuit block is a [`Component`]
//! with a gate-equivalent (GE) count, a switching-activity factor for
//! dynamic power, and a hardened flag. The engine's area/power/latency are
//! composed from component counts exactly as the RTL of Fig. 5 composes
//! the circuits.
//!
//! **Calibration.** Absolute per-GE area/power constants are
//! representative of 65 nm standard cells; the *enhancement* component
//! sizes are calibrated so that the BnP-enhanced engines reproduce the
//! paper's reported relative overheads (area 1.14× for BnP1 and 1.18× for
//! BnP2/3 in Fig. 14(c); energy ≈ 1.3× / 1.56× in Fig. 14(b); clock-period
//! stretch ≈ 1.00× / 1.06× in Fig. 14(a)). This is the documented
//! substitution for the proprietary synthesis flow.

/// One circuit block: GE count, switching activity, hardening flag.
///
/// # Examples
///
/// ```
/// use snn_hw::components::Component;
///
/// let c = Component::new("my-block", 10.0, 0.5);
/// assert_eq!(c.area_ge(), 10.0);
/// let hardened = c.hardened();
/// assert!(hardened.area_ge() > c.area_ge());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Human-readable block name (appears in synthesis-style reports).
    pub name: &'static str,
    /// Size in NAND2 gate equivalents.
    pub ge: f64,
    /// Fraction of gates toggling per cycle (dynamic-power activity).
    pub activity: f64,
    /// Whether the block uses radiation-hardened cells.
    pub is_hardened: bool,
}

/// Area of one NAND2 gate equivalent in 65 nm, µm² (representative).
pub const GE_AREA_UM2: f64 = 1.44;
/// Dynamic power per toggling GE at the nominal clock, µW (representative).
pub const DYN_POWER_PER_GE_UW: f64 = 0.35;
/// Nominal clock period, ns (≈ 500 MHz at 65 nm for this datapath).
pub const CLOCK_PERIOD_NS: f64 = 2.0;
/// Area penalty of radiation-hardened cells (resized transistors,
/// insulating substrates \[7,9\]).
pub const HARDENED_AREA_FACTOR: f64 = 1.2;
/// Power penalty of radiation-hardened cells.
pub const HARDENED_POWER_FACTOR: f64 = 2.0;

impl Component {
    /// Creates an unhardened component.
    pub const fn new(name: &'static str, ge: f64, activity: f64) -> Self {
        Self {
            name,
            ge,
            activity,
            is_hardened: false,
        }
    }

    /// Returns a radiation-hardened copy of this component.
    pub fn hardened(&self) -> Self {
        Self {
            is_hardened: true,
            ..self.clone()
        }
    }

    /// Effective area in GE (hardening inflates cell area).
    pub fn area_ge(&self) -> f64 {
        if self.is_hardened {
            self.ge * HARDENED_AREA_FACTOR
        } else {
            self.ge
        }
    }

    /// Effective area in µm².
    pub fn area_um2(&self) -> f64 {
        self.area_ge() * GE_AREA_UM2
    }

    /// Dynamic power in µW (hardened cells burn more).
    pub fn power_uw(&self) -> f64 {
        let p = self.ge * self.activity * DYN_POWER_PER_GE_UW;
        if self.is_hardened {
            p * HARDENED_POWER_FACTOR
        } else {
            p
        }
    }
}

/// Baseline blocks of the unenhanced compute engine (Fig. 5).
pub mod baseline {
    use super::Component;

    /// 8-bit weight register (8 DFF).
    pub const WEIGHT_REGISTER: Component = Component::new("weight-register-8b", 40.0, 0.05);
    /// Per-synapse column accumulation adder.
    pub const COLUMN_ADDER: Component = Component::new("column-adder", 45.0, 0.5);
    /// One LIF neuron datapath (Vmem register, add/sub, comparator,
    /// refractory counter, spike gen).
    pub const NEURON_DATAPATH: Component = Component::new("lif-neuron", 400.0, 0.3);
    /// Fraction of crossbar area spent on control/routing overhead.
    pub const CONTROL_FRACTION: f64 = 0.02;
}

/// Enhancement blocks added by the SoftSNN BnP hardware (Fig. 11), all
/// radiation-hardened.
///
/// GE values are calibrated to the paper's 14 % / 18 % area overheads;
/// activities to its ≈1.3× / ≈1.56× energy overheads (see module docs).
pub mod enhancement {
    use super::Component;

    /// Per-synapse weight comparator (`wgh ≥ wgh_th`).
    pub const COMPARATOR: Component = Component::new("bnp-comparator-8b", 6.3, 0.35);
    /// Per-synapse constant-zero multiplexer (BnP1: AND-gating to zero).
    pub const MUX_CONST0: Component = Component::new("bnp-mux-const0", 4.0, 0.35);
    /// Per-synapse 2:1 multiplexer selecting `wgh_def` (BnP2/BnP3).
    pub const MUX_2TO1: Component = Component::new("bnp-mux-2to1-8b", 6.94, 0.55);
    /// Shared hardened 8-bit register (`wgh_th`, and `wgh_def` for BnP2/3).
    pub const SHARED_REGISTER: Component = Component::new("bnp-shared-reg-8b", 40.0, 0.05);
    /// Per-neuron protection logic (AND gate + output mux + 2-cycle
    /// monitor counter, Fig. 11(c)).
    pub const NEURON_PROTECTION: Component = Component::new("neuron-protect", 14.0, 0.3);
}

/// Describes the hardware added to the baseline engine by a mitigation
/// technique, plus its effect on the clock period.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineEnhancement {
    /// Display name (e.g. `"BnP1"`).
    pub name: String,
    /// Blocks replicated in every synapse.
    pub per_synapse: Vec<Component>,
    /// Blocks replicated in every neuron.
    pub per_neuron: Vec<Component>,
    /// Blocks instantiated once for the whole engine.
    pub shared: Vec<Component>,
    /// Clock-period stretch factor (1.0 = critical path untouched).
    pub clock_factor: f64,
    /// Execution count per inference (re-execution runs 3×).
    pub executions: u32,
}

impl EngineEnhancement {
    /// No enhancement: the baseline engine, single execution.
    pub fn none() -> Self {
        Self {
            name: "Baseline".to_owned(),
            per_synapse: Vec::new(),
            per_neuron: Vec::new(),
            shared: Vec::new(),
            clock_factor: 1.0,
            executions: 1,
        }
    }

    /// Pure re-execution: no hardware change, `n` executions.
    pub fn re_execution(n: u32) -> Self {
        Self {
            name: format!("Re-execution x{n}"),
            executions: n,
            ..Self::none()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardening_inflates_area_and_power() {
        let c = Component::new("x", 10.0, 0.5);
        let h = c.hardened();
        assert!((h.area_ge() - 12.0).abs() < 1e-9);
        assert!(h.power_uw() > c.power_uw() * 1.9);
    }

    #[test]
    fn baseline_synapse_is_register_plus_adder() {
        let syn = baseline::WEIGHT_REGISTER.ge + baseline::COLUMN_ADDER.ge;
        assert!((syn - 85.0).abs() < 1e-9);
    }

    #[test]
    fn none_enhancement_is_neutral() {
        let e = EngineEnhancement::none();
        assert_eq!(e.executions, 1);
        assert_eq!(e.clock_factor, 1.0);
        assert!(e.per_synapse.is_empty());
    }

    #[test]
    fn re_execution_multiplies_executions_only() {
        let e = EngineEnhancement::re_execution(3);
        assert_eq!(e.executions, 3);
        assert!(e.per_synapse.is_empty() && e.per_neuron.is_empty());
        assert_eq!(e.clock_factor, 1.0);
    }

    #[test]
    fn area_um2_uses_ge_constant() {
        let c = Component::new("x", 100.0, 0.1);
        assert!((c.area_um2() - 144.0).abs() < 1e-9);
    }
}
