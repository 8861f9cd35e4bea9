//! Fig. 10 — impact of faulty neuron operations and of the full faulty
//! compute engine (paper Sec. 3.1).
//!
//! (a) accuracy when soft errors strike only neuron operations, one curve
//! per faulty-operation type (`vi`/`vl`/`vr`/`sg`) at rates 0.01/0.1/1.0 —
//! showing that faulty `Vmem reset` is the catastrophic case;
//! (b) accuracy when both weight registers and neuron operations are
//! struck, rates 10⁻⁴…10⁻¹.

use crate::artifact::Json;
use crate::profile::Profile;
use crate::table::{fmt_f, fmt_rate, Table};
use crate::workbench::{prepare_with_backend, Bench, BASE_SEED};
use snn_data::workload::Workload;
use snn_faults::grid::{GridRunner, GridSpec};
use snn_faults::location::FaultDomain;
use snn_faults::rate::{NEURON_OP_RATES, PAPER_RATES};
use snn_hw::neuron_unit::NeuronOp;
use softsnn_core::methodology::EngineBackendKind;
use softsnn_core::methodology::FaultScenario;
use softsnn_core::mitigation::Technique;

/// One accuracy point of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAccuracyPoint {
    /// Faulty operation (`None` for the combined compute-engine panel).
    pub op: Option<NeuronOp>,
    /// Fault rate.
    pub rate: f64,
    /// Accuracy (%).
    pub accuracy_pct: f64,
}

/// Results of both panels of Fig. 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Results {
    /// Clean accuracy (%), for reference.
    pub clean_accuracy_pct: f64,
    /// Panel (a): per-operation fault sweeps.
    pub per_op: Vec<OpAccuracyPoint>,
    /// Panel (b): combined compute-engine sweep.
    pub combined: Vec<OpAccuracyPoint>,
}

/// Runs both panels.
///
/// # Errors
///
/// Propagates dataset/training/evaluation errors.
pub fn run(profile: Profile) -> Result<Fig10Results, Box<dyn std::error::Error>> {
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
) -> Result<Fig10Results, Box<dyn std::error::Error>> {
    let bench = prepare_with_backend(Workload::Mnist, profile.case_study_size(), profile, backend)?;
    let per_op = run_per_op(&bench)?;
    let combined = run_combined(&bench)?;
    Ok(Fig10Results {
        clean_accuracy_pct: bench.clean_accuracy,
        per_op,
        combined,
    })
}

/// Panel (a)'s declarative grid: the technique axis carries the four
/// neuron operations, the value axis their fault rates, seeded exactly
/// like the historical `point_seed(10, ri, 0, oi)` loop.
pub fn per_op_grid_spec() -> GridSpec {
    GridSpec::new(
        10,
        BASE_SEED,
        NeuronOp::ALL
            .iter()
            .map(|op| op.shorthand().to_owned())
            .collect(),
        NEURON_OP_RATES.to_vec(),
        1,
    )
}

/// Panel (a): one shard per operation, so an op's whole rate sweep shares
/// one deployment clone **and** one engine multi-map pass — the maps are
/// neuron-only by construction, so `evaluate_encoded_group` accumulates
/// each cycle's synaptic drive once for all of the op's fault maps.
fn run_per_op(bench: &Bench) -> Result<Vec<OpAccuracyPoint>, Box<dyn std::error::Error>> {
    let runner = GridRunner::new(per_op_grid_spec()).with_cells_per_shard(NEURON_OP_RATES.len());
    let results = runner.run_grouped(
        &bench.deployment,
        |deployment, shard| -> Result<Vec<f64>, softsnn_core::methodology::MethodologyError> {
            let op = NeuronOp::ALL[shard[0].technique_idx];
            let scenarios: Vec<FaultScenario> = shard
                .iter()
                .map(|p| FaultScenario {
                    domain: FaultDomain::Neurons(Some(op)),
                    rate: p.rate,
                    seed: p.seed,
                })
                .collect();
            let group = deployment.evaluate_encoded_group(
                Technique::NoMitigation,
                &scenarios,
                &bench.encoded,
            )?;
            Ok(group.iter().map(|r| r.accuracy_pct()).collect())
        },
    )?;
    Ok(results
        .cells()
        .iter()
        .map(|cell| OpAccuracyPoint {
            op: Some(NeuronOp::ALL[cell.key.technique_idx]),
            rate: cell.rate,
            accuracy_pct: cell.mean,
        })
        .collect())
}

/// Panel (b)'s declarative grid: a single whole-engine technique parked
/// at the historical seed-stream slot (`point_seed(10, ri, 2, 9)`).
pub fn combined_grid_spec() -> GridSpec {
    GridSpec::new(
        10,
        BASE_SEED,
        vec!["compute_engine".into()],
        PAPER_RATES.to_vec(),
        1,
    )
    .with_offsets(9, 0, 2)
}

/// Panel (b): whole-engine fault maps, one evaluate call per point; the
/// runner shards them across cores with one deployment clone per point.
fn run_combined(bench: &Bench) -> Result<Vec<OpAccuracyPoint>, Box<dyn std::error::Error>> {
    let runner = GridRunner::new(combined_grid_spec());
    let results = runner.run_grouped(&bench.deployment, |deployment, points| {
        points
            .iter()
            .map(|p| {
                let scenario = FaultScenario {
                    domain: FaultDomain::ComputeEngine,
                    rate: p.rate,
                    seed: p.seed,
                };
                deployment
                    .evaluate_encoded(Technique::NoMitigation, &scenario, &bench.encoded)
                    .map(|r| r.accuracy_pct())
            })
            .collect()
    })?;
    Ok(results
        .cells()
        .iter()
        .map(|cell| OpAccuracyPoint {
            op: None,
            rate: cell.rate,
            accuracy_pct: cell.mean,
        })
        .collect())
}

/// Renders panel (a) as a table: one row per rate, one column per op.
pub fn per_op_table(results: &Fig10Results) -> Table {
    let mut t = Table::new(
        "Fig. 10(a) — accuracy under faulty neuron operations (No Mitigation)",
        &[
            "fault_rate",
            "faulty_vi",
            "faulty_vl",
            "faulty_vr",
            "faulty_sg",
        ],
    );
    for &rate in &NEURON_OP_RATES {
        let cell = |op: NeuronOp| -> String {
            results
                .per_op
                .iter()
                .find(|p| p.op == Some(op) && p.rate == rate)
                .map(|p| fmt_f(p.accuracy_pct, 1))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[
            fmt_rate(rate),
            cell(NeuronOp::VmemIncrease),
            cell(NeuronOp::VmemLeak),
            cell(NeuronOp::VmemReset),
            cell(NeuronOp::SpikeGeneration),
        ]);
    }
    t
}

/// Renders panel (b).
pub fn combined_table(results: &Fig10Results) -> Table {
    let mut t = Table::new(
        "Fig. 10(b) — accuracy with faults across the whole compute engine",
        &["fault_rate", "accuracy_pct"],
    );
    for p in &results.combined {
        t.row(&[fmt_rate(p.rate), fmt_f(p.accuracy_pct, 1)]);
    }
    t
}

/// The machine-readable `fig10.json` artifact.
pub fn to_json(results: &Fig10Results) -> Json {
    let point = |p: &OpAccuracyPoint| {
        Json::obj([
            (
                "op",
                match p.op {
                    Some(op) => op.shorthand().into(),
                    None => Json::Null,
                },
            ),
            ("rate", p.rate.into()),
            ("accuracy_pct", p.accuracy_pct.into()),
        ])
    };
    Json::obj([
        ("figure", Json::Num(10.0)),
        ("clean_accuracy_pct", results.clean_accuracy_pct.into()),
        (
            "per_op",
            Json::Arr(results.per_op.iter().map(point).collect()),
        ),
        (
            "combined",
            Json::Arr(results.combined.iter().map(point).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig10_reproduces_vr_catastrophe() {
        let r = run(Profile::Smoke).unwrap();
        // Paper Sec. 3.1: at the full rate, faulty Vmem-reset collapses
        // accuracy while vi/vl/sg degrade far more gracefully.
        let acc = |op: NeuronOp, rate: f64| -> f64 {
            r.per_op
                .iter()
                .find(|p| p.op == Some(op) && p.rate == rate)
                .unwrap()
                .accuracy_pct
        };
        let vr_full = acc(NeuronOp::VmemReset, 1.0);
        let vi_full = acc(NeuronOp::VmemIncrease, 1.0);
        let vl_full = acc(NeuronOp::VmemLeak, 1.0);
        assert!(
            vr_full < 25.0,
            "all-neurons faulty reset must collapse accuracy, got {vr_full}"
        );
        assert!(
            vl_full > vr_full,
            "faulty leak ({vl_full}) must be more tolerable than faulty reset ({vr_full})"
        );
        // vi at rate 1.0 silences the whole network, which also breaks
        // classification — the tolerable regime the paper shows is at
        // moderate rates.
        let vi_mid = acc(NeuronOp::VmemIncrease, 0.1);
        let vr_mid = acc(NeuronOp::VmemReset, 0.1);
        assert!(
            vi_mid > vr_mid,
            "at 10% rate: faulty vi ({vi_mid}) must beat faulty vr ({vr_mid})"
        );
        let _ = vi_full;
        // Panel (b): monotonically-ish degrading with rate; at 0.1 it is
        // clearly below clean.
        let worst = r.combined.last().unwrap().accuracy_pct;
        assert!(worst < r.clean_accuracy_pct);
    }

    #[test]
    fn tables_cover_all_rates() {
        let r = run(Profile::Smoke).unwrap();
        assert_eq!(per_op_table(&r).len(), NEURON_OP_RATES.len());
        assert_eq!(combined_table(&r).len(), PAPER_RATES.len());
        let json = to_json(&r).render();
        assert!(json.contains("\"per_op\"") && json.contains("\"combined\""));
    }

    /// The per-op grid must keep the historical seed placement: panel (a)
    /// at `point_seed(10, ri, 0, oi)`, panel (b) at
    /// `point_seed(10, ri, 2, 9)`.
    #[test]
    fn grid_specs_reproduce_historical_seeds() {
        use crate::workbench::point_seed;
        for p in per_op_grid_spec().points() {
            assert_eq!(p.seed, point_seed(10, p.rate_idx, 0, p.technique_idx));
        }
        for p in combined_grid_spec().points() {
            assert_eq!(p.seed, point_seed(10, p.rate_idx, 2, 9));
        }
    }
}
