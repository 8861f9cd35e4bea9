//! Ablation studies of the SoftSNN design choices:
//!
//! * **monitor window** — the paper picks ≥2 consecutive hot cycles; how
//!   do 1/2/4/8 behave? (1 risks false positives on legitimately fast
//!   re-firing neurons; large windows let burst neurons corrupt more
//!   cycles before being muted.)
//! * **`wgh_th` scaling** — the paper sets `wgh_th = wgh_max`; scaling it
//!   below 1.0 clips healthy weights, above 1.0 lets inflated weights
//!   through.
//! * **re-execution vote width** — 1 (no redundancy) / 2 (DMR-style) / 3
//!   (the paper's TMR) / 5.

use crate::artifact::{write_json, Json};
use crate::profile::Profile;
use crate::table::{fmt_f, Table};
use crate::workbench::{point_seed, prepare_with_backend, Bench, BASE_SEED};
use snn_data::workload::Workload;
use snn_faults::grid::{GridRunner, GridSpec};
use snn_faults::location::FaultDomain;
use snn_sim::rng::seeded_rng;
use softsnn_core::bounding::{BnpVariant, BoundingConfig};
use softsnn_core::methodology::EngineBackendKind;
use softsnn_core::methodology::FaultScenario;
use softsnn_core::mitigation::Technique;
use std::error::Error;
use std::path::Path;

/// The fault rate ablations run at (high enough for clear signal).
pub const ABLATION_RATE: f64 = 0.05;

/// Result of one ablation sweep: `(x, accuracy_pct)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Sweep name.
    pub name: String,
    /// `(parameter value, accuracy %)` points.
    pub points: Vec<(f64, f64)>,
}

/// All ablation results.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResults {
    /// Monitor-window sweep (BnP3, compute-engine faults).
    pub window: Sweep,
    /// `wgh_th` scaling sweep (BnP3, synapse faults).
    pub threshold: Sweep,
    /// Re-execution vote-width sweep (compute-engine faults).
    pub votes: Sweep,
}

/// Runs all three sweeps at the given scale.
///
/// # Errors
///
/// Propagates dataset/training/evaluation errors.
pub fn run(profile: Profile) -> Result<AblationResults, Box<dyn std::error::Error>> {
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
) -> Result<AblationResults, Box<dyn std::error::Error>> {
    let bench = prepare_with_backend(Workload::Mnist, profile.case_study_size(), profile, backend)?;
    let window = window_sweep(&bench)?;
    let threshold = threshold_sweep(&bench)?;
    let votes = vote_sweep(&bench)?;
    Ok(AblationResults {
        window,
        threshold,
        votes,
    })
}

fn scenario(domain: FaultDomain, salt: usize) -> FaultScenario {
    FaultScenario {
        domain,
        rate: ABLATION_RATE,
        seed: point_seed(99, salt, 0, 0),
    }
}

/// The declarative grid of one ablation sweep: the swept parameter values
/// ride the grid's value axis, and [`GridSpec::with_offsets`] parks the
/// points at the exact seed-stream indices the historical hand-rolled
/// loops used (parameter `i` at rate index `rate_base + i`, trial index
/// `trial_base`), so every sweep reproduces its pre-grid seeds bit for
/// bit. Each point is one cell — the runner fans them across cores with
/// one deployment clone each, where the old loops ran serially.
fn sweep_spec(name: &str, values: &[f64], rate_base: usize, trial_base: usize) -> GridSpec {
    GridSpec::new(99, BASE_SEED, vec![name.to_owned()], values.to_vec(), 1)
        .with_offsets(0, rate_base, trial_base)
}

/// Runs one parameter sweep through the shared [`GridRunner`].
fn run_sweep<F>(
    bench: &Bench,
    name: &str,
    values: &[f64],
    rate_base: usize,
    trial_base: usize,
    eval: F,
) -> Result<Sweep, Box<dyn std::error::Error>>
where
    F: Fn(
            &mut softsnn_core::methodology::SoftSnnDeployment,
            f64,
            u64,
        ) -> Result<f64, softsnn_core::methodology::MethodologyError>
        + Sync,
{
    let runner = GridRunner::new(sweep_spec(name, values, rate_base, trial_base));
    let results = runner.run_grouped(&bench.deployment, |deployment, points| {
        points
            .iter()
            .map(|p| eval(deployment, p.rate, p.seed))
            .collect()
    })?;
    Ok(Sweep {
        name: name.into(),
        points: results.cells().iter().map(|c| (c.rate, c.mean)).collect(),
    })
}

/// Sweeps the faulty-reset monitor window length.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn window_sweep(bench: &Bench) -> Result<Sweep, Box<dyn std::error::Error>> {
    let bounding = bench.deployment.bounding_for(BnpVariant::Bnp3);
    run_sweep(
        bench,
        "monitor window (cycles)",
        &[1.0, 2.0, 4.0, 8.0],
        10,
        1,
        |deployment, window, seed| {
            deployment
                .evaluate_custom_bnp(
                    bounding,
                    window as u8,
                    &scenario(FaultDomain::ComputeEngine, 1),
                    bench.test.images(),
                    bench.test.labels(),
                    &mut seeded_rng(seed),
                )
                .map(|r| r.accuracy_pct())
        },
    )
}

/// Sweeps the bounding threshold as a fraction of `wgh_max`.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn threshold_sweep(bench: &Bench) -> Result<Sweep, Box<dyn std::error::Error>> {
    let analysis = bench.deployment.analysis().clone();
    run_sweep(
        bench,
        "wgh_th / wgh_max",
        &[0.5, 0.75, 1.0, 1.25, 1.5],
        20,
        2,
        move |deployment, scale, seed| {
            let threshold_code = ((analysis.wgh_max_code as f64) * scale)
                .round()
                .clamp(0.0, 255.0) as u8;
            let bounding = BoundingConfig {
                threshold_code,
                default_code: analysis.wgh_hp_code,
            };
            deployment
                .evaluate_custom_bnp(
                    bounding,
                    softsnn_core::protection::PAPER_WINDOW,
                    &scenario(FaultDomain::Synapses, 2),
                    bench.test.images(),
                    bench.test.labels(),
                    &mut seeded_rng(seed),
                )
                .map(|r| r.accuracy_pct())
        },
    )
}

/// Sweeps the redundant-execution count.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn vote_sweep(bench: &Bench) -> Result<Sweep, Box<dyn std::error::Error>> {
    run_sweep(
        bench,
        "re-execution runs",
        &[1.0, 2.0, 3.0, 5.0],
        30,
        3,
        |deployment, runs, seed| {
            deployment
                .evaluate(
                    Technique::ReExecution { runs: runs as u32 },
                    &scenario(FaultDomain::ComputeEngine, 3),
                    bench.test.images(),
                    bench.test.labels(),
                    &mut seeded_rng(seed),
                )
                .map(|r| r.accuracy_pct())
        },
    )
}

/// Renders one sweep as a table.
pub fn sweep_table(sweep: &Sweep) -> Table {
    let mut t = Table::new(
        &format!("Ablation — {}", sweep.name),
        &["value", "accuracy_pct"],
    );
    for &(x, acc) in &sweep.points {
        t.row(&[fmt_f(x, 2), fmt_f(acc, 1)]);
    }
    t
}

/// The machine-readable `ablation.json` artifact.
pub fn to_json(results: &AblationResults) -> Json {
    let sweep = |s: &Sweep| {
        Json::obj([
            ("name", s.name.as_str().into()),
            (
                "points",
                Json::Arr(
                    s.points
                        .iter()
                        .map(|&(value, acc)| {
                            Json::obj([("value", value.into()), ("accuracy_pct", acc.into())])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    Json::obj([
        ("rate", ABLATION_RATE.into()),
        ("window", sweep(&results.window)),
        ("threshold", sweep(&results.threshold)),
        ("votes", sweep(&results.votes)),
    ])
}

/// Writes the ablation files under `out`: one CSV per sweep
/// (`ablation_window.csv`, `ablation_threshold.csv`,
/// `ablation_votes.csv`) and `ablation.json`.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn write_artifacts(results: &AblationResults, out: &Path) -> Result<(), Box<dyn Error>> {
    sweep_table(&results.window).write_csv(out.join("ablation_window.csv"))?;
    sweep_table(&results.threshold).write_csv(out.join("ablation_threshold.csv"))?;
    sweep_table(&results.votes).write_csv(out.join("ablation_votes.csv"))?;
    write_json(out.join("ablation.json"), &to_json(results))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweeps' grid specs must park every point at the seed the
    /// hand-rolled loops drew: `point_seed(99, rate_base + i, trial_base,
    /// 0)` — the regression that keeps ablation results stable across the
    /// grid refactor.
    #[test]
    fn sweep_specs_reproduce_historical_seeds() {
        for (values, rate_base, trial_base) in [
            (vec![1.0, 2.0, 4.0, 8.0], 10_usize, 1_usize),
            (vec![0.5, 0.75, 1.0, 1.25, 1.5], 20, 2),
            (vec![1.0, 2.0, 3.0, 5.0], 30, 3),
        ] {
            let spec = sweep_spec("s", &values, rate_base, trial_base);
            for (i, p) in spec.points().iter().enumerate() {
                assert_eq!(p.seed, point_seed(99, rate_base + i, trial_base, 0));
                assert_eq!(p.rate, values[i]);
            }
        }
    }

    #[test]
    fn smoke_ablations_run_and_have_sane_shapes() {
        let r = run(Profile::Smoke).unwrap();
        assert_eq!(r.window.points.len(), 4);
        assert_eq!(r.threshold.points.len(), 5);
        assert_eq!(r.votes.points.len(), 4);
        // More redundant executions can't hurt on average (weak check:
        // 3 runs >= 1 run - noise margin).
        let one = r.votes.points[0].1;
        let three = r.votes.points[2].1;
        assert!(
            three >= one - 15.0,
            "TMR ({three}) should not be drastically worse than single run ({one})"
        );
        // Severely clipped thresholds (0.5x) should not beat the paper's
        // 1.0x by a large margin.
        let half = r.threshold.points[0].1;
        let paper = r.threshold.points[2].1;
        assert!(
            paper >= half - 20.0,
            "paper threshold ({paper}) vs half ({half})"
        );
    }

    #[test]
    fn sweep_table_renders() {
        let s = Sweep {
            name: "demo".into(),
            points: vec![(1.0, 50.0)],
        };
        assert!(sweep_table(&s).render().contains("demo"));
        let results = AblationResults {
            window: s.clone(),
            threshold: s.clone(),
            votes: s,
        };
        let json = to_json(&results).render();
        assert!(json.contains("\"window\"") && json.contains("\"accuracy_pct\""));
    }
}
