//! The three campaign workloads: how each prepares its bench, runs its
//! campaign, and what its output is checked against.
//!
//! The bench is built through the public calls (`load_or_generate`,
//! `SoftSnnDeployment::train`, `encode_test_set`, `measure_clean`) with
//! every seed derived from the benchmark's `--seed` exactly the way
//! `workbench::prepare` derives its own from `BASE_SEED`. At
//! [`DEFAULT_SEED`] the bench — and so the `fig13_engine` artifact — is
//! byte-identical to `fig13 --profile quick` on MNIST.

use std::collections::BTreeSet;
use std::error::Error;
use std::fs;
use std::path::Path;

use snn_data::workload::Workload;
use snn_faults::codec::Json;
use snn_faults::fault_map::FaultMap;
use snn_faults::grid::{GridPointCtx, GridRunner, GridSpec};
use snn_faults::location::FaultDomain;
use snn_faults::rate::PAPER_RATES;
use snn_faults::service::{CampaignService, JobHandle, JobStatus, RunOptions, RunOutcome};
use snn_faults::stats::{Lookahead, StopRule};
use snn_sim::parallel::parallel_map;
use snn_sim::rng::derive_seed;
use softsnn_core::methodology::{
    EncodedTestSet, EngineBackendKind, FaultScenario, MethodologyError, SoftSnnDeployment,
    TrainPipelineOptions,
};
use softsnn_core::mitigation::Technique;
use softsnn_exp::campaign::{artifact_path, fig13_results, job_fingerprint};
use softsnn_exp::fig13::{self, AccuracyCell, Fig13Results};
use softsnn_exp::workbench::{measure_clean, paper_config, Bench, BASE_SEED};

use crate::host::{Stopwatch, Took};
use crate::trace::{traced, Tracer};

/// Errors the benchmark reports and stops on.
pub type BoxError = Box<dyn Error>;

/// The seed at which the bench equals `fig13 --profile quick`'s MNIST
/// bench, and the seed the golden digests are recorded at.
pub const DEFAULT_SEED: u64 = BASE_SEED;
/// Network size (the quick profile's single size).
pub const N_NEURONS: usize = 400;
/// Training samples (quick profile).
pub const N_TRAIN: usize = 800;
/// Test samples per trial (quick profile).
pub const N_TEST: usize = 80;
/// Unsupervised training epochs (quick profile).
pub const EPOCHS: usize = 1;
/// Per-cell trial budget of the fixed Fig. 13 grid (quick profile).
pub const FIXED_TRIALS: usize = 3;
/// Per-cell trial budget of the adaptive job.
pub const ADAPTIVE_TRIALS: usize = 48;
/// The adaptive job's target confidence-interval half-width, percentage
/// points. At 75 % confidence the Hoeffding bound reaches ±40 pp after 7
/// trials whatever their values, so every cell keeps 7 of 48 and one job
/// is short enough to repeat several times in a run.
pub const HALF_WIDTH_PP: f64 = 40.0;
/// Cells the adaptive job evaluates before it is interrupted.
pub const INTERRUPT_AFTER_CELLS: usize = 10;
/// Cells in every workload's grid: 5 techniques × 4 paper rates.
pub const N_CELLS: usize = Technique::PAPER_SET.len() * PAPER_RATES.len();
const JOB_NAME: &str = "bench";

/// The adaptive job's stop rule: min 2, max 48 trials, ±40 pp at 75 %.
pub fn stop_rule() -> StopRule {
    StopRule::new(2, ADAPTIVE_TRIALS, HALF_WIDTH_PP, 0.75)
        .expect("the benchmark's stop rule is valid")
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Fig. 13 grid as `fig13 --profile quick` runs it: compute-engine
    /// faults, dense backend, fixed budget.
    Fig13Engine,
    /// The same grid with neuron-op faults only, so persisting cells ride
    /// the multi-map datapath.
    Fig13Neuron,
    /// A checkpointed adaptive job on the event backend, interrupted
    /// half-way and resumed.
    CampaignAdaptive,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Fig13Engine, Kind::Fig13Neuron, Kind::CampaignAdaptive];

    /// The workloads `BENCHMARK.json` lists, in its order. `fig13_neuron`
    /// stays runnable but is left out, so that the other two get longer
    /// runs within the time the benchmark's runs may take together.
    pub const LISTED: [Kind; 2] = [Kind::Fig13Engine, Kind::CampaignAdaptive];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig13Engine => "fig13_engine",
            Kind::Fig13Neuron => "fig13_neuron",
            Kind::CampaignAdaptive => "campaign_adaptive",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The engine backend the campaign evaluates through.
    pub fn backend(self) -> EngineBackendKind {
        match self {
            Kind::CampaignAdaptive => EngineBackendKind::Event,
            Kind::Fig13Engine | Kind::Fig13Neuron => EngineBackendKind::Dense,
        }
    }

    /// The fault domain of every scenario.
    pub fn domain(self) -> FaultDomain {
        match self {
            Kind::Fig13Neuron => FaultDomain::Neurons(None),
            Kind::Fig13Engine | Kind::CampaignAdaptive => FaultDomain::ComputeEngine,
        }
    }

    /// The grid: five techniques × four paper rates × the trial budget,
    /// seeded from `seed` like `fig13::grid_spec` is from `BASE_SEED`.
    pub fn spec(self, seed: u64) -> GridSpec {
        let trials = match self {
            Kind::CampaignAdaptive => ADAPTIVE_TRIALS,
            Kind::Fig13Engine | Kind::Fig13Neuron => FIXED_TRIALS,
        };
        GridSpec::new(
            13,
            seed,
            Technique::PAPER_SET.iter().map(|t| t.id()).collect(),
            PAPER_RATES.to_vec(),
            trials,
        )
    }
}

/// A prepared bench plus what setup learned about it.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The trained deployment (switched to the workload's backend), the
    /// test set, its encoding and the clean accuracy.
    pub bench: Bench,
    /// Whether real IDX data was found under `data/` (else synthetic).
    pub real_data: bool,
    /// Digest of the deployment and encoded set (`job_fingerprint`).
    pub fingerprint: u64,
}

/// Generates the data, trains, encodes the test set and measures clean
/// accuracy, all seeded from `seed`, and returns the bench with the wall
/// and CPU time this took. The adaptive workload also fingerprints the
/// bench for its job here; the others fingerprint it after setup is
/// timed.
///
/// # Errors
///
/// Propagates dataset and pipeline errors.
pub fn prepare(
    kind: Kind,
    seed: u64,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> Result<(Prepared, Took), BoxError> {
    let start = Stopwatch::start();
    let n = N_NEURONS as u64;
    let (train, test, real_data) = traced(tracer, "data.load", parent, Vec::new, |_| {
        Workload::Mnist.load_or_generate("data", N_TRAIN, N_TEST, derive_seed(seed, n))
    })?;
    let mut deployment = traced(tracer, "train.stdp", parent, Vec::new, |_| {
        SoftSnnDeployment::train(
            paper_config(N_NEURONS),
            train.images(),
            train.labels(),
            TrainPipelineOptions {
                epochs: EPOCHS,
                n_classes: train.n_classes(),
                seed: derive_seed(seed, 1000 + n),
            },
        )
    })?;
    let encoded = traced(tracer, "encode.test_set", parent, Vec::new, |_| {
        deployment.encode_test_set(test.images(), test.labels(), derive_seed(seed, 2000 + n))
    })?;
    let clean = traced(tracer, "methodology.clean", parent, Vec::new, |_| {
        measure_clean(&mut deployment, &encoded)
    })?;
    deployment.set_backend(kind.backend());
    let bench = Bench {
        workload: Workload::Mnist,
        deployment,
        test,
        encoded,
        clean_accuracy: clean,
    };
    let unfingerprinted = start.read();
    let fingerprint = traced(tracer, "service.fingerprint", parent, Vec::new, |_| {
        job_fingerprint(&bench)
    });
    // The adaptive job needs the fingerprint to submit; the fixed grids
    // use it only to check that repeated setups agree.
    let took = match kind {
        Kind::CampaignAdaptive => start.read(),
        Kind::Fig13Engine | Kind::Fig13Neuron => unfingerprinted,
    };
    Ok((
        Prepared {
            bench,
            real_data,
            fingerprint,
        },
        took,
    ))
}

/// Submits the adaptive job into a fresh campaign root.
///
/// # Errors
///
/// Propagates service errors.
pub fn submit(
    prepared: &Prepared,
    seed: u64,
    root: &Path,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> Result<JobHandle, BoxError> {
    traced(tracer, "service.submit", parent, Vec::new, |_| {
        CampaignService::new(root).submit(
            JOB_NAME,
            Kind::CampaignAdaptive.spec(seed),
            Some(prepared.fingerprint),
        )
    })
    .map_err(Into::into)
}

/// Runs one campaign from the prepared bench to the written `fig13.json`
/// in `dir`, returning the figure results and the bytes written. The
/// adaptive workload needs its submitted `job`.
///
/// Only the campaign itself runs here; reading checkpoints back for the
/// digest and the status scan happen in [`collect_job_output`], outside
/// the timed region.
///
/// # Errors
///
/// Propagates evaluation, service and I/O errors, and reports a job that
/// did not interrupt and resume as designed.
pub fn run_campaign(
    kind: Kind,
    seed: u64,
    bench: &Bench,
    dir: &Path,
    job: Option<&JobHandle>,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> Result<(Fig13Results, Vec<u8>), BoxError> {
    let domain = kind.domain();
    let eval = |pass: Option<u64>, deployment: &mut SoftSnnDeployment, points: &[GridPointCtx]| {
        evaluate_traced(tracer, pass, domain, deployment, points, &bench.encoded)
    };
    let (results, artifact_file) = match (kind, job) {
        (Kind::CampaignAdaptive, Some(job)) => {
            let results = run_job(job, bench, tracer, parent, &eval)?;
            (results, artifact_path(job))
        }
        (Kind::CampaignAdaptive, None) => return Err("the adaptive workload needs a job".into()),
        (Kind::Fig13Engine | Kind::Fig13Neuron, _) => {
            let grid = traced(tracer, "grid.run", parent, Vec::new, |grid| {
                GridRunner::new(kind.spec(seed))
                    .run_grouped(&bench.deployment, |d, shard| eval(grid, d, shard))
            })?;
            (grid, dir.join("fig13.json"))
        }
    };
    let figure = fig13_results(bench, &results);
    let artifact = traced(tracer, "fig13.render", parent, Vec::new, |_| {
        let mut text = fig13::to_json(&figure).render();
        text.push('\n');
        fs::write(&artifact_file, &text).map(|()| text.into_bytes())
    })?;
    Ok((figure, artifact))
}

/// The adaptive job: a pass interrupted after [`INTERRUPT_AFTER_CELLS`],
/// the resume scan, a pass to completion, and reassembly from
/// checkpoints.
fn run_job<F>(
    job: &JobHandle,
    bench: &Bench,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    eval: &F,
) -> Result<snn_faults::grid::GridResults, BoxError>
where
    F: Fn(
            Option<u64>,
            &mut SoftSnnDeployment,
            &[GridPointCtx],
        ) -> Result<Vec<f64>, MethodologyError>
        + Sync,
{
    let pass = |max_cells: Option<usize>| {
        let opts = RunOptions {
            max_cells,
            stop_rule: Some(stop_rule()),
            lookahead: Lookahead::Auto,
        };
        traced(tracer, "service.run", parent, Vec::new, |pass| {
            job.run(&bench.deployment, opts, |d, points| eval(pass, d, points))
        })
    };
    match pass(Some(INTERRUPT_AFTER_CELLS))? {
        RunOutcome::Interrupted { done, total }
            if done == INTERRUPT_AFTER_CELLS && total == N_CELLS => {}
        other => {
            return Err(format!(
                "the first pass should stop after {INTERRUPT_AFTER_CELLS} cells, got {other:?}"
            )
            .into())
        }
    }
    let missing = traced(tracer, "service.missing_cells", parent, Vec::new, |_| {
        job.missing_cells()
    })?;
    if missing.len() != N_CELLS - INTERRUPT_AFTER_CELLS {
        return Err(format!("the resume scan found {} missing cells", missing.len()).into());
    }
    let RunOutcome::Complete(completed) = pass(None)? else {
        return Err("the resumed pass did not complete the job".into());
    };
    let results = traced(tracer, "service.results", parent, Vec::new, |_| {
        job.results()
    })?
    .ok_or("the completed job has missing checkpoints")?;
    if results.cells() != completed.cells() {
        return Err("cells reassembled from checkpoints differ from the completing pass".into());
    }
    Ok(results)
}

/// One cell-closure call: `fig13::evaluate_shard_in_domain`, inside a
/// span carrying the technique, rate and trial count when tracing.
fn evaluate_traced(
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    domain: FaultDomain,
    deployment: &mut SoftSnnDeployment,
    points: &[GridPointCtx],
    encoded: &EncodedTestSet,
) -> Result<Vec<f64>, MethodologyError> {
    let attrs = || {
        let first = points
            .first()
            .map_or((0, 0), |p| (p.technique_idx, p.rate_idx));
        vec![
            ("technique", Json::from(Technique::PAPER_SET[first.0].id())),
            ("rate_idx", Json::from(first.1)),
            ("trials", Json::from(points.len())),
        ]
    };
    traced(tracer, "methodology.cell", parent, attrs, |_| {
        fig13::evaluate_shard_in_domain(deployment, points, encoded, domain)
    })
}

/// Reads back what the adaptive job left on disk: every checkpoint in
/// cell order and the job status.
///
/// # Errors
///
/// Propagates I/O and service errors.
pub fn collect_job_output(job: &JobHandle) -> Result<(Vec<u8>, JobStatus), BoxError> {
    let mut bytes = Vec::new();
    for key in job.cell_keys() {
        bytes.extend(fs::read(job.cell_path(key))?);
    }
    Ok((bytes, job.status()?))
}

/// The Fig. 13 technique index of a result cell.
fn technique_idx(technique: Technique) -> usize {
    Technique::PAPER_SET
        .iter()
        .position(|&t| t == technique)
        .expect("fig13 cells use the paper's techniques")
}

/// The paper-rate index of a result cell.
fn rate_idx(rate: f64) -> usize {
    PAPER_RATES
        .iter()
        .position(|r| r.to_bits() == rate.to_bits())
        .expect("fig13 cells use the paper's rates")
}

/// The scenario of trial `trial` of a result cell.
fn scenario(
    kind: Kind,
    spec: &GridSpec,
    technique: Technique,
    rate: f64,
    trial: usize,
) -> FaultScenario {
    FaultScenario {
        domain: kind.domain(),
        rate,
        seed: spec.seed_for(rate_idx(rate), trial, technique_idx(technique)),
    }
}

/// Every cell whose technique injects one map per trial and keeps it for
/// the whole test set (No-Mitigation and BnP; re-execution draws fresh
/// maps per execution), in result order, with the scenario of each kept
/// trial: the maps the campaign injects once per trial.
pub fn persisted_scenarios(
    kind: Kind,
    seed: u64,
    results: &Fig13Results,
) -> Vec<(&AccuracyCell, Vec<FaultScenario>)> {
    let spec = kind.spec(seed);
    results
        .cells
        .iter()
        .filter(|c| !matches!(c.technique, Technique::ReExecution { .. }))
        .map(|c| {
            let scenarios = (0..c.trials.len())
                .map(|t| scenario(kind, &spec, c.technique, c.rate, t))
                .collect();
            (c, scenarios)
        })
        .collect()
}

/// Counts over the maps a campaign injects, computed from outside the
/// program by regenerating them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// Weight-register bits over every persisted map.
    pub weight_bits: usize,
    /// Neuron-operation sites over every persisted map.
    pub neuron_ops: usize,
    /// Persisting cells none of whose maps has a weight bit: the cells
    /// whose trial groups can ride the multi-map datapath.
    pub multi_map_cells: usize,
    /// Every other cell (per-scenario loop).
    pub fallback_cells: usize,
}

/// Regenerates every persisted map and counts its sites by kind.
pub fn census(kind: Kind, seed: u64, bench: &Bench, results: &Fig13Results) -> Census {
    let qn = bench.deployment.quantized();
    let mut census = Census {
        weight_bits: 0,
        neuron_ops: 0,
        multi_map_cells: 0,
        fallback_cells: 0,
    };
    for (_, scenarios) in persisted_scenarios(kind, seed, results) {
        let mut weight_free = true;
        for s in scenarios {
            let map = FaultMap::generate(&s.space(qn.n_inputs, qn.n_neurons), s.rate, s.seed);
            census.weight_bits += map.n_weight_bits();
            census.neuron_ops += map.n_neuron_ops();
            weight_free &= map.n_weight_bits() == 0;
        }
        census.multi_map_cells += usize::from(weight_free);
    }
    census.fallback_cells = results.cells.len() - census.multi_map_cells;
    census
}

/// A failed check on a campaign's result cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CellProblem {
    /// Index of the failing cell in the results, or `None` when the check
    /// concerns the artifact as a whole (every cell counts as failed).
    pub cell: Option<usize>,
    /// What failed, for the log.
    pub message: String,
}

/// Cells of one repetition that failed at least one of `problems`: each
/// named cell once, or all [`N_CELLS`] when a problem concerns the whole
/// artifact. A problem names a cell only when the artifact has exactly
/// [`N_CELLS`] cells, so the count never exceeds [`N_CELLS`].
pub fn failed_cells(problems: &[CellProblem]) -> u64 {
    if problems.iter().any(|p| p.cell.is_none()) {
        return N_CELLS as u64;
    }
    problems
        .iter()
        .filter_map(|p| p.cell)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

/// Re-evaluates up to `per_cell` trials of every cell one scenario at a
/// time through `evaluate_encoded` on a fresh dense clone — no grouping,
/// no multi-map pass, no sharding, no checkpoint — and returns one
/// problem for each cell whose values differ bit-for-bit from `results`.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn reference_mismatches(
    kind: Kind,
    seed: u64,
    bench: &Bench,
    results: &Fig13Results,
    per_cell: usize,
) -> Result<Vec<CellProblem>, BoxError> {
    let spec = kind.spec(seed);
    let checked = parallel_map(&results.cells, |cell| -> Result<_, MethodologyError> {
        let mut deployment = bench.deployment.clone();
        deployment.set_backend(EngineBackendKind::Dense);
        for (trial, &value) in cell.trials.iter().enumerate().take(per_cell) {
            let s = scenario(kind, &spec, cell.technique, cell.rate, trial);
            let reference = deployment
                .evaluate_encoded(cell.technique, &s, &bench.encoded)?
                .accuracy_pct();
            if reference.to_bits() != value.to_bits() {
                return Ok(Some(format!(
                    "reference: {} rate {} trial {trial}: campaign {value}, reference {reference}",
                    cell.technique.id(),
                    cell.rate
                )));
            }
        }
        Ok(None)
    });
    let whole = results.cells.len() != N_CELLS;
    let mut mismatches = Vec::new();
    for (i, outcome) in checked.into_iter().enumerate() {
        if let Some(message) = outcome? {
            mismatches.push(CellProblem {
                cell: (!whole).then_some(i),
                message,
            });
        }
    }
    Ok(mismatches)
}

/// Structural checks any correct artifact passes, whatever the seed:
/// 20 cells, each with a plausible trial count, every trial a whole
/// number of test samples, and means that match.
pub fn shape_problems(kind: Kind, results: &Fig13Results) -> Vec<CellProblem> {
    let mut problems = Vec::new();
    let whole = results.cells.len() != N_CELLS;
    if whole {
        problems.push(CellProblem {
            cell: None,
            message: format!("{} cells, expected {N_CELLS}", results.cells.len()),
        });
    }
    let budget = kind.spec(0).trials;
    for (i, cell) in results.cells.iter().enumerate() {
        let ok_len = match kind {
            Kind::CampaignAdaptive => {
                (stop_rule().min_trials..=budget).contains(&cell.trials.len())
            }
            Kind::Fig13Engine | Kind::Fig13Neuron => cell.trials.len() == budget,
        };
        let step = 100.0 / N_TEST as f64;
        let ok_values = cell
            .trials
            .iter()
            .all(|&v| (0.0..=100.0).contains(&v) && ((v / step) - (v / step).round()).abs() < 1e-9);
        if !ok_len
            || !ok_values
            || cell.mean_pct.to_bits() != snn_sim::metrics::mean(&cell.trials).to_bits()
        {
            problems.push(CellProblem {
                cell: (!whole).then_some(i),
                message: format!(
                    "malformed cell {} rate {}: {:?}",
                    cell.technique.id(),
                    cell.rate,
                    cell.trials
                ),
            });
        }
    }
    problems
}

/// `fig13.json` as the figure harness itself renders it for MNIST at the
/// quick profile (`fig13::run`, seeded from `BASE_SEED`): what
/// `fig13_engine` must reproduce byte for byte at [`DEFAULT_SEED`].
///
/// # Errors
///
/// Propagates the harness's errors.
pub fn figure_harness_artifact() -> Result<Vec<u8>, BoxError> {
    let results = fig13::run(softsnn_exp::Profile::Quick, &[Workload::Mnist])?;
    let mut text = fig13::to_json(&results).render();
    text.push('\n');
    Ok(text.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed fixed-grid result: every cell three trials of 50 %.
    fn well_formed() -> Fig13Results {
        let cells = Technique::PAPER_SET
            .iter()
            .flat_map(|&technique| {
                PAPER_RATES.iter().map(move |&rate| AccuracyCell {
                    workload: Workload::Mnist,
                    n_neurons: N_NEURONS,
                    technique,
                    rate,
                    mean_pct: 50.0,
                    std_pct: 0.0,
                    trials: vec![50.0; FIXED_TRIALS],
                })
            })
            .collect();
        Fig13Results {
            cells,
            clean: Vec::new(),
        }
    }

    #[test]
    fn a_well_formed_result_fails_no_cell() {
        let problems = shape_problems(Kind::Fig13Engine, &well_formed());
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(failed_cells(&problems), 0);
    }

    #[test]
    fn each_malformed_cell_counts_once() {
        let mut results = well_formed();
        // A wrong trial count, a value that is no whole number of test
        // samples together with a stale mean, and a stale mean alone.
        results.cells[0].trials.pop();
        results.cells[3].trials[1] = 50.1;
        results.cells[7].mean_pct = 49.0;
        let mut problems = shape_problems(Kind::Fig13Engine, &results);
        assert_eq!(problems.len(), 3, "{problems:?}");
        // A reference mismatch on an already malformed cell adds no
        // failed cell.
        problems.push(CellProblem {
            cell: Some(3),
            message: "reference: mismatch".to_owned(),
        });
        assert_eq!(failed_cells(&problems), 3);
    }

    #[test]
    fn a_wrong_cell_count_fails_every_cell_and_no_more() {
        let mut results = well_formed();
        let extra = results.cells[0].clone();
        results.cells.push(extra);
        for cell in &mut results.cells {
            cell.trials.clear();
        }
        let problems = shape_problems(Kind::Fig13Engine, &results);
        assert_eq!(problems.len(), N_CELLS + 2, "the count plus every cell");
        assert!(problems.iter().all(|p| p.cell.is_none()));
        assert_eq!(failed_cells(&problems), N_CELLS as u64);
    }
}
