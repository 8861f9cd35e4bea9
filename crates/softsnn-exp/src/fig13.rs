//! Fig. 13 — the headline accuracy comparison (paper Sec. 5.1):
//! No-Mitigation vs Re-execution vs BnP1/2/3 across network sizes,
//! fault rates, and workloads.

use crate::artifact::{write_json, Json};
use crate::profile::Profile;
use crate::table::{fmt_f, fmt_rate, Table};
use crate::workbench::{prepare_with_backend, Bench, BASE_SEED};
use snn_data::workload::Workload;
use snn_faults::grid::{CellPolicy, GridRunner, GridSpec};
use snn_faults::location::FaultDomain;
use snn_faults::rate::PAPER_RATES;
use softsnn_core::methodology::EngineBackendKind;
use softsnn_core::methodology::FaultScenario;
use softsnn_core::mitigation::Technique;
use std::error::Error;
use std::path::Path;

/// One aggregated accuracy cell of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyCell {
    /// Workload.
    pub workload: Workload,
    /// Network size (neurons).
    pub n_neurons: usize,
    /// Mitigation technique.
    pub technique: Technique,
    /// Fault rate in the compute engine.
    pub rate: f64,
    /// Mean accuracy over trials (%).
    pub mean_pct: f64,
    /// Standard deviation over trials (%).
    pub std_pct: f64,
    /// Individual trial accuracies (%).
    pub trials: Vec<f64>,
}

/// All cells of one Fig. 13 run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Results {
    /// Aggregated cells.
    pub cells: Vec<AccuracyCell>,
    /// Clean reference accuracy per (workload, size), %.
    pub clean: Vec<(Workload, usize, f64)>,
}

/// Runs the comparison for the given workloads at the profile's scale.
///
/// Grid points (technique × rate × trial) for each trained network are
/// evaluated in parallel on multi-core hosts.
///
/// # Errors
///
/// Propagates dataset/training/evaluation errors.
pub fn run(
    profile: Profile,
    workloads: &[Workload],
) -> Result<Fig13Results, Box<dyn std::error::Error>> {
    run_with_backend(profile, workloads, EngineBackendKind::Dense)
}

/// [`run`], evaluating every grid shard through an explicit engine
/// backend (delay-free results are bit-identical across backends).
///
/// # Errors
///
/// Propagates dataset/training/evaluation errors.
pub fn run_with_backend(
    profile: Profile,
    workloads: &[Workload],
    backend: EngineBackendKind,
) -> Result<Fig13Results, Box<dyn std::error::Error>> {
    let mut cells = Vec::new();
    let mut clean = Vec::new();
    for &workload in workloads {
        for &n in &profile.sizes() {
            let bench = prepare_with_backend(workload, n, profile, backend)?;
            clean.push((workload, n, bench.clean_accuracy));
            cells.extend(run_grid(&bench, profile, &CellPolicy::Fixed)?);
        }
    }
    Ok(Fig13Results { cells, clean })
}

/// The declarative Fig. 13 grid at a profile's trial count: the paper's
/// five techniques × four rates, seeded exactly like the historical
/// hand-rolled loops (`point_seed(13, ...)`).
pub fn grid_spec(profile: Profile) -> GridSpec {
    GridSpec::new(
        13,
        BASE_SEED,
        Technique::PAPER_SET.iter().map(|t| t.id()).collect(),
        PAPER_RATES.to_vec(),
        profile.trials(),
    )
}

/// Evaluates the full (technique × rate × trial) grid for one trained
/// deployment through the shared [`GridRunner`]: one deployment clone per
/// (technique, rate) cell — healed between trials by the campaign-trial
/// reload cycle — instead of one per point, with each cell's trials
/// handed to [`SoftSnnDeployment::evaluate_encoded_group`] together so
/// each cell's trial group shares one engine drive phase. All trials
/// reuse the bench's pre-encoded test set: they differ only in their
/// fault map, never in their input spikes.
///
/// Under [`CellPolicy::Adaptive`] each cell keeps the first prefix of its
/// pinned trial seeds that satisfies the stop rule, so every cell's
/// trials are a bit-identical prefix of the fixed-budget run's, at every
/// lookahead. Cells carry honest `trials` arrays (shorter where the rule
/// fired), aggregated by the same streaming pass the fixed run uses.
///
/// [`SoftSnnDeployment::evaluate_encoded_group`]: softsnn_core::methodology::SoftSnnDeployment::evaluate_encoded_group
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run_grid(
    bench: &Bench,
    profile: Profile,
    policy: &CellPolicy,
) -> Result<Vec<AccuracyCell>, Box<dyn std::error::Error>> {
    let runner = GridRunner::new(grid_spec(profile)).with_policy(*policy);
    let results = runner.run_grouped(&bench.deployment, |deployment, shard| {
        evaluate_shard(deployment, shard, &bench.encoded)
    })?;
    Ok(cells_from_results(bench, &results))
}

/// Maps aggregated grid cells to Fig. 13 accuracy cells for one bench.
/// Shared between [`run_grid`] (one-shot) and the campaign service
/// ([`crate::campaign`]), so a resumed job labels its cells with exactly
/// the same code as an uninterrupted figure run.
pub fn cells_from_results(
    bench: &Bench,
    results: &snn_faults::grid::GridResults,
) -> Vec<AccuracyCell> {
    let n_neurons = bench.deployment.quantized().n_neurons;
    results
        .cells()
        .iter()
        .map(|cell| AccuracyCell {
            workload: bench.workload,
            n_neurons,
            technique: Technique::PAPER_SET[cell.key.technique_idx],
            rate: cell.rate,
            mean_pct: cell.mean,
            std_pct: cell.std_dev,
            trials: cell.trials.clone(),
        })
        .collect()
}

/// Evaluates one shard of Fig. 13 grid points — contiguous whole cells —
/// against a pre-encoded test set, returning one accuracy (%) per point.
///
/// This is **the** Fig. 13 point evaluation: [`run_grid`] routes every
/// shard through it, and the campaign service
/// ([`crate::campaign::run_job`]) hands it each missing cell, so an
/// interrupted-and-resumed campaign evaluates points with literally the
/// same code (and therefore the same bits) as a one-shot figure run.
///
/// A shard holds whole cells, so consecutive points share their
/// technique; each same-technique run goes to the deployment as one trial
/// group (the engine's multi-map pass shares the drive phase across its
/// maps).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn evaluate_shard(
    deployment: &mut softsnn_core::methodology::SoftSnnDeployment,
    shard: &[snn_faults::grid::GridPointCtx],
    encoded: &softsnn_core::methodology::EncodedTestSet,
) -> Result<Vec<f64>, softsnn_core::methodology::MethodologyError> {
    evaluate_shard_in_domain(deployment, shard, encoded, FaultDomain::ComputeEngine)
}

/// [`evaluate_shard`] with an explicit fault domain for every scenario.
/// Fig. 13 proper injects into [`FaultDomain::ComputeEngine`] (weight
/// cells *and* neuron ops); restricted domains such as
/// `FaultDomain::Neurons(None)` keep every map neuron-only, so a trial
/// group's lanes read the shared drive with no weight corrections — the
/// shape the lookahead benchmarks measure.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn evaluate_shard_in_domain(
    deployment: &mut softsnn_core::methodology::SoftSnnDeployment,
    shard: &[snn_faults::grid::GridPointCtx],
    encoded: &softsnn_core::methodology::EncodedTestSet,
    domain: FaultDomain,
) -> Result<Vec<f64>, softsnn_core::methodology::MethodologyError> {
    let mut accuracies = Vec::with_capacity(shard.len());
    let mut start = 0;
    while start < shard.len() {
        let technique_idx = shard[start].technique_idx;
        let end = start
            + shard[start..]
                .iter()
                .position(|p| p.technique_idx != technique_idx)
                .unwrap_or(shard.len() - start);
        let scenarios: Vec<FaultScenario> = shard[start..end]
            .iter()
            .map(|p| FaultScenario {
                domain,
                rate: p.rate,
                seed: p.seed,
            })
            .collect();
        let group = deployment.evaluate_encoded_group(
            Technique::PAPER_SET[technique_idx],
            &scenarios,
            encoded,
        )?;
        accuracies.extend(group.iter().map(|r| r.accuracy_pct()));
        start = end;
    }
    Ok(accuracies)
}

/// Renders the Fig. 13 table for one workload: rows = (size, rate),
/// columns = techniques.
pub fn accuracy_table(results: &Fig13Results, workload: Workload) -> Table {
    let mut t = Table::new(
        &format!("Fig. 13 — accuracy (%) on {workload} across techniques"),
        &[
            "network",
            "fault_rate",
            "no_mitigation",
            "reexecution",
            "bnp1",
            "bnp2",
            "bnp3",
        ],
    );
    let mut sizes: Vec<usize> = results
        .cells
        .iter()
        .filter(|c| c.workload == workload)
        .map(|c| c.n_neurons)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    for &n in &sizes {
        for &rate in &PAPER_RATES {
            let cell = |technique: Technique| -> String {
                results
                    .cells
                    .iter()
                    .find(|c| {
                        c.workload == workload
                            && c.n_neurons == n
                            && c.technique == technique
                            && c.rate == rate
                    })
                    .map(|c| fmt_f(c.mean_pct, 1))
                    .unwrap_or_else(|| "-".into())
            };
            t.row(&[
                format!("N{n}"),
                fmt_rate(rate),
                cell(Technique::PAPER_SET[0]),
                cell(Technique::PAPER_SET[1]),
                cell(Technique::PAPER_SET[2]),
                cell(Technique::PAPER_SET[3]),
                cell(Technique::PAPER_SET[4]),
            ]);
        }
    }
    t
}

/// The paper's headline check: at the highest rate, BnP accuracy must sit
/// within `max_degradation_pct` of re-execution's. Returns per-(workload,
/// size) margins `(workload, n, reexec_pct, best_bnp_pct)`.
pub fn headline_margins(results: &Fig13Results) -> Vec<(Workload, usize, f64, f64)> {
    let mut out = Vec::new();
    let mut keys: Vec<(Workload, usize)> = results
        .cells
        .iter()
        .map(|c| (c.workload, c.n_neurons))
        .collect();
    keys.sort_by_key(|(w, n)| (w.name(), *n));
    keys.dedup();
    for (w, n) in keys {
        let at = |technique: Technique| -> Option<f64> {
            results
                .cells
                .iter()
                .find(|c| {
                    c.workload == w && c.n_neurons == n && c.technique == technique && c.rate == 0.1
                })
                .map(|c| c.mean_pct)
        };
        let re = at(Technique::ReExecution { runs: 3 });
        let bnp = Technique::PAPER_SET[2..]
            .iter()
            .filter_map(|&t| at(t))
            .fold(f64::NEG_INFINITY, f64::max);
        if let Some(re) = re {
            out.push((w, n, re, bnp));
        }
    }
    out
}

/// The machine-readable `fig13.json` artifact: clean references plus one
/// object per aggregated accuracy cell.
pub fn to_json(results: &Fig13Results) -> Json {
    Json::obj([
        ("figure", Json::Num(13.0)),
        (
            "clean",
            Json::Arr(
                results
                    .clean
                    .iter()
                    .map(|&(workload, n, acc)| {
                        Json::obj([
                            ("workload", workload.name().into()),
                            ("n_neurons", n.into()),
                            ("accuracy_pct", acc.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cells",
            Json::Arr(
                results
                    .cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("workload", c.workload.name().into()),
                            ("n_neurons", c.n_neurons.into()),
                            ("technique", c.technique.id().into()),
                            ("rate", c.rate.into()),
                            ("mean_pct", c.mean_pct.into()),
                            ("std_pct", c.std_pct.into()),
                            ("trials", Json::arr(c.trials.iter().copied())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes Fig. 13's files under `out`: one `fig13_<workload>.csv` per
/// workload the results cover, and `fig13.json`.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn write_artifacts(results: &Fig13Results, out: &Path) -> Result<(), Box<dyn Error>> {
    let mut workloads: Vec<Workload> = results.clean.iter().map(|&(w, ..)| w).collect();
    workloads.dedup();
    for workload in workloads {
        accuracy_table(results, workload)
            .write_csv(out.join(format!("fig13_{}.csv", workload.name())))?;
    }
    write_json(out.join("fig13.json"), &to_json(results))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig13_bnp_beats_no_mitigation_at_high_rate() {
        let r = run(Profile::Smoke, &[Workload::Mnist]).unwrap();
        let at = |technique: Technique, rate: f64| -> f64 {
            r.cells
                .iter()
                .find(|c| c.technique == technique && c.rate == rate)
                .unwrap()
                .mean_pct
        };
        let nomit = at(Technique::NoMitigation, 0.1);
        let bnp1 = at(Technique::PAPER_SET[2], 0.1);
        let bnp2 = at(Technique::PAPER_SET[3], 0.1);
        let bnp3 = at(Technique::PAPER_SET[4], 0.1);
        // Paper Sec. 5.1 at the highest rate: bounding+protection recovers
        // accuracy the unprotected engine loses. At smoke scale (N100, 40
        // test samples, 3 maps) individual variants are noisy, so the
        // qualitative claim is asserted: no variant may *hurt*, and the
        // best variant must clearly beat no-mitigation.
        for (name, bnp) in [("BnP1", bnp1), ("BnP2", bnp2), ("BnP3", bnp3)] {
            assert!(
                bnp >= nomit - 2.0,
                "{name} ({bnp:.1}) must not trail no-mitigation ({nomit:.1}) at rate 0.1"
            );
        }
        let best = bnp1.max(bnp2).max(bnp3);
        assert!(
            best > nomit + 5.0,
            "best BnP ({best:.1}) must clearly beat no-mitigation ({nomit:.1}) at rate 0.1"
        );
    }

    #[test]
    fn table_has_rows_for_every_rate() {
        let r = run(Profile::Smoke, &[Workload::Mnist]).unwrap();
        let t = accuracy_table(&r, Workload::Mnist);
        assert_eq!(t.len(), PAPER_RATES.len());
        assert!(!headline_margins(&r).is_empty());
        let json = to_json(&r).render();
        assert!(json.contains("\"cells\""));
        assert!(json.contains("\"mean_pct\""));
    }

    /// Satellite regression: every cell contributes its (workload, size)
    /// key, so without dedup a two-size grid would compute each margin
    /// once *per cell* sharing the key. Margins must come out exactly one
    /// per distinct (workload, size).
    #[test]
    fn headline_margins_deduplicate_workload_size_keys() {
        let cell = |n: usize, technique: Technique, rate: f64, pct: f64| AccuracyCell {
            workload: Workload::Mnist,
            n_neurons: n,
            technique,
            rate,
            mean_pct: pct,
            std_pct: 0.0,
            trials: vec![pct],
        };
        // Two sizes, several cells per (workload, size) key — including
        // the rate-0.1 cells the margin reads.
        let mut cells = Vec::new();
        for &n in &[100_usize, 400] {
            for &rate in &[0.01, 0.1] {
                cells.push(cell(n, Technique::NoMitigation, rate, 40.0));
                cells.push(cell(n, Technique::ReExecution { runs: 3 }, rate, 60.0));
                cells.push(cell(n, Technique::PAPER_SET[4], rate, 58.0));
            }
        }
        let results = Fig13Results {
            cells,
            clean: vec![(Workload::Mnist, 100, 62.5), (Workload::Mnist, 400, 70.0)],
        };
        let margins = headline_margins(&results);
        assert_eq!(
            margins.len(),
            2,
            "one margin per (workload, size): {margins:?}"
        );
        let sizes: Vec<usize> = margins.iter().map(|&(_, n, _, _)| n).collect();
        assert_eq!(sizes, vec![100, 400]);
        for &(_, _, re, bnp) in &margins {
            assert_eq!(re, 60.0);
            assert_eq!(bnp, 58.0);
        }
    }
}
