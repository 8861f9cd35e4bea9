//! Fig. 9 — weight-distribution analysis (paper Sec. 3.1).
//!
//! Histograms of the deployed weight codes for the clean network (fault
//! rate 0) and under weight-register soft errors at rate 0.1, showing how
//! bit flips push weights beyond the clean maximum `wgh_max` — the
//! signature the Bound-and-Protect weight bounding detects.

use crate::profile::Profile;
use crate::table::{fmt_f, Table};
use crate::workbench::{point_seed, prepare_with_backend};
use snn_data::workload::Workload;
use snn_faults::fault_map::FaultMap;
use snn_faults::injector::inject;
use snn_faults::location::{FaultDomain, FaultSpace};
use snn_hw::engine::NoGuard;
use snn_sim::metrics::Histogram;
use softsnn_core::analysis::WeightAnalysis;
use softsnn_core::methodology::EngineBackendKind;
use std::error::Error;
use std::path::Path;

/// The histogrammed weight distributions of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Results {
    /// Clean-network analysis (histogram, `wgh_max`, `wgh_hp`).
    pub clean: WeightAnalysis,
    /// Histogram of codes after rate-0.1 weight-register faults.
    pub faulty: Histogram,
    /// The fault rate used for the faulty panel (paper: 0.1).
    pub fault_rate: f64,
    /// Fraction of faulty codes beyond the clean `wgh_max` (out of the
    /// safe range).
    pub out_of_range_fraction: f64,
}

/// The fault rate of Fig. 9(b).
pub const FAULTY_RATE: f64 = 0.1;

/// Runs the weight-distribution analysis.
///
/// # Errors
///
/// Propagates dataset/training/injection errors.
pub fn run(profile: Profile) -> Result<Fig9Results, Box<dyn std::error::Error>> {
    run_with_backend(profile, EngineBackendKind::Dense)
}

/// [`run`], evaluating through an explicit engine backend (the weight
/// analysis reads the shared dense fault-injection surface either way).
///
/// # Errors
///
/// Propagates dataset/training/injection errors.
pub fn run_with_backend(
    profile: Profile,
    backend: EngineBackendKind,
) -> Result<Fig9Results, Box<dyn std::error::Error>> {
    let mut bench =
        prepare_with_backend(Workload::Mnist, profile.case_study_size(), profile, backend)?;
    let qn = bench.deployment.quantized().clone();
    let clean = WeightAnalysis::of_clean_network(&qn);

    // Inject rate-0.1 faults into the weight registers and histogram the
    // corrupted codes.
    let engine = bench.deployment.engine_mut();
    engine.reload_parameters(&mut NoGuard);
    let space = FaultSpace::new(qn.n_inputs, qn.n_neurons, FaultDomain::Synapses);
    let map = FaultMap::generate(&space, FAULTY_RATE, point_seed(9, 0, 0, 0));
    inject(engine, &map)?;
    let corrupted = engine.crossbar().codes_slice();

    let max_code = qn.scheme.max_code();
    let mut faulty = Histogram::new(
        0.0,
        max_code as f64 + 1.0,
        softsnn_core::analysis::ANALYSIS_BINS,
    );
    faulty.record_all(corrupted.iter().map(|&c| c as f64));
    let out_of_range =
        corrupted.iter().filter(|&&c| clean.is_unsafe(c)).count() as f64 / corrupted.len() as f64;

    Ok(Fig9Results {
        clean,
        faulty,
        fault_rate: FAULTY_RATE,
        out_of_range_fraction: out_of_range,
    })
}

/// Renders both histograms side by side with the safe-range marker.
pub fn histogram_table(results: &Fig9Results) -> Table {
    let mut t = Table::new(
        "Fig. 9 — weight-code distribution, clean vs fault rate 0.1",
        &["bin_range", "clean_count", "faulty_count", "beyond_wgh_max"],
    );
    let hist = &results.clean.histogram;
    let width = hist.bin_width();
    for i in 0..hist.n_bins() {
        let lo = hist.lo() + i as f64 * width;
        let hi = lo + width;
        let marker = if lo > results.clean.wgh_max_code as f64 {
            "*"
        } else {
            ""
        };
        t.row(&[
            format!("{:.0}-{:.0}", lo, hi),
            hist.counts()[i].to_string(),
            results.faulty.counts()[i].to_string(),
            marker.to_owned(),
        ]);
    }
    t
}

/// Renders the summary line (safe range, mode, out-of-range mass).
pub fn summary_table(results: &Fig9Results) -> Table {
    let mut t = Table::new("Fig. 9 — safe range summary", &["quantity", "value"]);
    t.row(&[
        "wgh_max (code)".into(),
        results.clean.wgh_max_code.to_string(),
    ]);
    t.row(&[
        "wgh_hp (code)".into(),
        results.clean.wgh_hp_code.to_string(),
    ]);
    t.row(&["clean codes above wgh_max (%)".into(), "0.0".into()]);
    t.row(&[
        format!(
            "faulty codes above wgh_max at rate {} (%)",
            results.fault_rate
        ),
        fmt_f(results.out_of_range_fraction * 100.0, 2),
    ]);
    t
}

/// Writes Fig. 9's files under `out`: `fig9_histograms.csv` and
/// `fig9_summary.csv`.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn write_artifacts(results: &Fig9Results, out: &Path) -> Result<(), Box<dyn Error>> {
    histogram_table(results).write_csv(out.join("fig9_histograms.csv"))?;
    summary_table(results).write_csv(out.join("fig9_summary.csv"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig9_shows_out_of_range_mass_under_faults() {
        let r = run(Profile::Smoke).unwrap();
        // Clean network: nothing beyond wgh_max by definition.
        // Faulty network: rate 0.1 flips ~10% of bits; upper-bit flips
        // push a visible fraction of weights beyond the safe range.
        assert!(
            r.out_of_range_fraction > 0.01,
            "expected out-of-range mass, got {}",
            r.out_of_range_fraction
        );
        assert_eq!(r.clean.histogram.total(), r.faulty.total());
        // wgh_hp must be small relative to wgh_max (peaked-near-zero
        // distribution — the BnP1~BnP3 observation).
        assert!(r.clean.wgh_hp_code < r.clean.wgh_max_code / 2);
    }

    #[test]
    fn tables_render_with_marker() {
        let r = run(Profile::Smoke).unwrap();
        let hist = histogram_table(&r);
        assert!(hist.render().contains('*'));
        assert!(summary_table(&r).render().contains("wgh_max"));
    }
}
