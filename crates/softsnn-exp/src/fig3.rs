//! Fig. 3 — the motivating case study (paper Sec. 1.2).
//!
//! (a) accuracy of an N400 network on MNIST under soft errors in the
//! weight registers, for two different fault maps across fault rates
//! 10⁻⁴…10⁻¹ — demonstrating that different maps at the same rate give
//! diverse, design-time-unpredictable accuracy profiles;
//! (b) latency and energy of plain re-execution (≈3× both).

use crate::profile::Profile;
use crate::table::{fmt_f, fmt_rate, Table};
use crate::workbench::{point_seed, prepare_with_backend};
use snn_data::workload::Workload;
use snn_faults::location::FaultDomain;
use snn_faults::rate::PAPER_RATES;
use snn_hw::params::EngineConfig;
use snn_sim::rng::seeded_rng;
use softsnn_core::methodology::EngineBackendKind;
use softsnn_core::methodology::FaultScenario;
use softsnn_core::mitigation::Technique;
use softsnn_core::overhead::overhead_for;
use std::error::Error;
use std::path::Path;

/// One accuracy point of Fig. 3(a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// Fault rate in the weight registers.
    pub rate: f64,
    /// Fault-map index (the paper shows maps 1 and 2).
    pub fault_map: usize,
    /// Measured accuracy (%).
    pub accuracy_pct: f64,
}

/// Results of the Fig. 3 case study.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Results {
    /// Clean (fault-free) accuracy of the network, %.
    pub clean_accuracy_pct: f64,
    /// Fig. 3(a): accuracy per (rate, fault map).
    pub accuracy: Vec<AccuracyPoint>,
    /// Fig. 3(b): latency of re-execution normalized to no-mitigation.
    pub reexec_latency_ratio: f64,
    /// Fig. 3(b): energy of re-execution normalized to no-mitigation.
    pub reexec_energy_ratio: f64,
}

/// Number of distinct fault maps shown in Fig. 3(a).
pub const N_FAULT_MAPS: usize = 2;

/// Runs the case study at the given scale.
///
/// # Errors
///
/// Propagates dataset/training/evaluation errors.
pub fn run(profile: Profile) -> Result<Fig3Results, Box<dyn std::error::Error>> {
    run_with_backend(profile, EngineBackendKind::Dense)
}

/// [`run`], evaluating through an explicit engine backend (delay-free
/// results are bit-identical across backends).
///
/// # Errors
///
/// Propagates dataset/training/evaluation errors.
pub fn run_with_backend(
    profile: Profile,
    backend: EngineBackendKind,
) -> Result<Fig3Results, Box<dyn std::error::Error>> {
    let mut bench =
        prepare_with_backend(Workload::Mnist, profile.case_study_size(), profile, backend)?;
    let mut accuracy = Vec::new();
    for (ri, &rate) in PAPER_RATES.iter().enumerate() {
        for map in 0..N_FAULT_MAPS {
            let scenario = FaultScenario {
                domain: FaultDomain::Synapses,
                rate,
                seed: point_seed(3, ri, map, 0),
            };
            let result = bench.deployment.evaluate(
                Technique::NoMitigation,
                &scenario,
                bench.test.images(),
                bench.test.labels(),
                &mut seeded_rng(point_seed(3, ri, map, 1)),
            )?;
            accuracy.push(AccuracyPoint {
                rate,
                fault_map: map + 1,
                accuracy_pct: result.accuracy_pct(),
            });
        }
    }

    // Fig. 3(b): the cost of the re-execution alternative.
    let timesteps = bench.deployment.quantized().timesteps;
    let n = bench.deployment.quantized().n_neurons;
    let base = overhead_for(
        Technique::NoMitigation,
        EngineConfig::PAPER,
        784,
        n,
        timesteps,
    );
    let re = overhead_for(
        Technique::ReExecution { runs: 3 },
        EngineConfig::PAPER,
        784,
        n,
        timesteps,
    );
    Ok(Fig3Results {
        clean_accuracy_pct: bench.clean_accuracy,
        accuracy,
        reexec_latency_ratio: re.latency.ratio_to(&base.latency),
        reexec_energy_ratio: re.energy.ratio_to(&base.energy),
    })
}

/// Renders the accuracy table (Fig. 3a).
pub fn accuracy_table(results: &Fig3Results) -> Table {
    let mut t = Table::new(
        "Fig. 3(a) — accuracy under weight-register soft errors (No Mitigation)",
        &["fault_rate", "fault_map", "accuracy_pct"],
    );
    for p in &results.accuracy {
        t.row(&[
            fmt_rate(p.rate),
            p.fault_map.to_string(),
            fmt_f(p.accuracy_pct, 1),
        ]);
    }
    t
}

/// Renders the overhead table (Fig. 3b).
pub fn overhead_table(results: &Fig3Results) -> Table {
    let mut t = Table::new(
        "Fig. 3(b) — re-execution overheads (normalized to baseline)",
        &["design", "latency", "energy"],
    );
    t.row(&["No Mitigation".into(), "1.00".into(), "1.00".into()]);
    t.row(&[
        "Re-execution".into(),
        fmt_f(results.reexec_latency_ratio, 2),
        fmt_f(results.reexec_energy_ratio, 2),
    ]);
    t
}

/// Writes Fig. 3's files under `out`: `fig3a_accuracy.csv` and
/// `fig3b_overheads.csv`.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn write_artifacts(results: &Fig3Results, out: &Path) -> Result<(), Box<dyn Error>> {
    accuracy_table(results).write_csv(out.join("fig3a_accuracy.csv"))?;
    overhead_table(results).write_csv(out.join("fig3b_overheads.csv"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_case_study_shows_degradation_and_map_diversity() {
        let r = run(Profile::Smoke).unwrap();
        assert_eq!(r.accuracy.len(), PAPER_RATES.len() * N_FAULT_MAPS);
        // Paper observation: latency and energy of re-execution are ~3x.
        assert!((r.reexec_latency_ratio - 3.0).abs() < 1e-6);
        assert!((r.reexec_energy_ratio - 3.0).abs() < 1e-6);
        // At the highest rate accuracy must be clearly below clean.
        let worst = r
            .accuracy
            .iter()
            .filter(|p| p.rate == 0.1)
            .map(|p| p.accuracy_pct)
            .fold(f64::INFINITY, f64::min);
        assert!(
            worst < r.clean_accuracy_pct,
            "high-rate faults must hurt ({worst} vs clean {})",
            r.clean_accuracy_pct
        );
    }

    #[test]
    fn tables_render() {
        let r = Fig3Results {
            clean_accuracy_pct: 80.0,
            accuracy: vec![AccuracyPoint {
                rate: 0.1,
                fault_map: 1,
                accuracy_pct: 42.0,
            }],
            reexec_latency_ratio: 3.0,
            reexec_energy_ratio: 3.0,
        };
        assert!(accuracy_table(&r).render().contains("42.0"));
        assert!(overhead_table(&r).render().contains("Re-execution"));
    }
}
