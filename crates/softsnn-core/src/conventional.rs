//! Conventional VLSI fault-tolerance baselines (paper Sec. 1.1).
//!
//! The paper motivates BnP against the classical alternatives — ECC \[18\],
//! DMR \[19\], TMR \[10\] — arguing they "require extra/redundant executions
//! and/or hardware, which incur huge area and energy overheads for
//! correcting a limited number of faulty bits". This module models them
//! so the comparison can be made quantitative (an *extension* beyond the
//! paper's evaluated set):
//!
//! * **ECC (SEC-DED)** on every weight register: a (13,8) Hsiao-style
//!   code per 8-bit word (5 check bits) corrects any single bit flip per
//!   register — which, under the paper's one-flip-per-struck-cell model,
//!   heals *all* weight faults — but does nothing for neuron-operation
//!   faults, and pays ≈62 % register-area overhead plus an
//!   encoder/decoder in the read path.
//! * **DMR**: two executions + comparison; detects disagreement and
//!   retries once (3 executions worst case, 2 when fault-free).
//!
//! Costs are priced through the same `snn-hw` component models as BnP.

use crate::bounding::BnpVariant;
use snn_hw::components::{enhancement, Component, EngineEnhancement};

/// Check bits for a single-error-correcting, double-error-detecting code
/// over an 8-bit word (Hamming(12,8) + overall parity).
pub const ECC_CHECK_BITS: usize = 5;

/// Per-synapse ECC storage: 5 extra register bits (5 DFF ≈ 25 GE).
pub const ECC_STORAGE: Component = Component::new("ecc-check-bits-5b", 25.0, 0.05);
/// Per-synapse ECC decoder/corrector in the read path (syndrome +
/// correction network for 13 bits).
pub const ECC_DECODER: Component = Component::new("ecc-secded-decoder", 30.0, 0.5);
/// ECC read-path delay stretch (syndrome computation + correction mux sit
/// in series with every weight read).
pub const ECC_CLOCK_FACTOR: f64 = 1.12;

/// The hardware description of per-register SEC-DED ECC.
pub fn ecc_enhancement() -> EngineEnhancement {
    EngineEnhancement {
        name: "ECC (SEC-DED)".to_owned(),
        per_synapse: vec![ECC_STORAGE, ECC_DECODER],
        per_neuron: Vec::new(),
        shared: vec![enhancement::SHARED_REGISTER],
        clock_factor: ECC_CLOCK_FACTOR,
        executions: 1,
    }
}

/// The hardware description of DMR (detect + retry): no added compute
/// hardware, two executions plus an expected retry fraction.
///
/// `retry_fraction` is the expected fraction of inferences needing the
/// third (retry) execution; the effective execution count is
/// `2 + retry_fraction`.
pub fn dmr_enhancement(retry_fraction: f64) -> EngineEnhancement {
    // EngineEnhancement counts executions as an integer; model the
    // expected value by rounding the worst case when retries dominate.
    let executions = if retry_fraction >= 0.5 { 3 } else { 2 };
    EngineEnhancement {
        name: "DMR (detect+retry)".to_owned(),
        executions,
        ..EngineEnhancement::none()
    }
}

/// Compares the conventional baselines against BnP on the cost models.
/// Returns `(name, latency_ratio, energy_ratio, area_ratio)` rows
/// normalized to the unprotected engine.
pub fn comparison_table(
    n_inputs: usize,
    n_neurons: usize,
    timesteps: u32,
) -> Vec<(String, f64, f64, f64)> {
    use snn_hw::area::engine_area;
    use snn_hw::energy::inference_energy;
    use snn_hw::latency::inference_latency;
    use snn_hw::mapping::Tiling;
    use snn_hw::params::EngineConfig;

    let cfg = EngineConfig::PAPER;
    let tiling = Tiling::for_network(cfg, n_inputs, n_neurons);
    let base_enh = EngineEnhancement::none();
    let base_lat = inference_latency(&tiling, timesteps, &base_enh);
    let base_energy = inference_energy(cfg, &tiling, timesteps, &base_enh);
    let base_area = engine_area(cfg, &base_enh);

    let candidates = vec![
        EngineEnhancement::none(),
        ecc_enhancement(),
        dmr_enhancement(0.1),
        EngineEnhancement::re_execution(3),
        crate::enhanced::bnp_enhancement(BnpVariant::Bnp1),
        crate::enhanced::bnp_enhancement(BnpVariant::Bnp3),
    ];
    candidates
        .into_iter()
        .map(|enh| {
            let lat = inference_latency(&tiling, timesteps, &enh);
            let energy = inference_energy(cfg, &tiling, timesteps, &enh);
            let area = engine_area(cfg, &enh);
            (
                enh.name.clone(),
                lat.ratio_to(&base_lat),
                energy.ratio_to(&base_energy),
                area.ratio_to(&base_area),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecc_costs_more_area_than_bnp() {
        // The paper's argument: ECC area overhead on the register file
        // exceeds BnP's comparator+mux.
        let rows = comparison_table(784, 400, 100);
        let find = |name: &str| {
            rows.iter()
                .find(|(n, ..)| n.starts_with(name))
                .unwrap_or_else(|| panic!("row {name}"))
                .clone()
        };
        let (_, _, _, ecc_area) = find("ECC");
        let (_, _, _, bnp1_area) = find("BnP1");
        assert!(
            ecc_area > bnp1_area,
            "ECC area {ecc_area:.2} should exceed BnP1 {bnp1_area:.2}"
        );
        // And ECC stretches the read path more than BnP2/3's mux.
        let (_, ecc_lat, _, _) = find("ECC");
        assert!(ecc_lat > 1.06);
    }

    #[test]
    fn dmr_costs_at_least_two_executions() {
        let rows = comparison_table(784, 400, 100);
        let dmr = rows.iter().find(|(n, ..)| n.starts_with("DMR")).unwrap();
        assert!(dmr.1 >= 2.0, "DMR latency ratio {}", dmr.1);
        let re = rows
            .iter()
            .find(|(n, ..)| n.starts_with("Re-execution"))
            .unwrap();
        assert!(re.1 > dmr.1, "TMR costs more than DMR");
    }
}
