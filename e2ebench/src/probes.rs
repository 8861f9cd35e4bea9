//! Unit-cost probes of the `snn_hw` and `snn_faults` layers, run in the
//! traced mode on the workload's own deployment, backend and encoded set.
//!
//! Every probe checks that its call returns the same counts or results as
//! the workload path it stands for, and reports a mismatch as a problem.

use std::time::Instant;

use snn_faults::fault_map::FaultMap;
use snn_faults::injector::inject;
use snn_faults::location::{FaultDomain, FaultSite};
use snn_faults::rate::PAPER_RATES;
use snn_hw::engine::{BatchResult, MultiMapResult, NeuronFaultOverlay};
use snn_hw::{AnyBackend, ComputeEngine, DirectRead, EngineBackend, NoGuard};
use snn_sim::eval::EvalResult;
use softsnn_core::methodology::{FaultScenario, SoftSnnDeployment};
use softsnn_core::mitigation::Technique;
use softsnn_exp::fig13::Fig13Results;
use softsnn_exp::workbench::Bench;

use crate::metrics::{quartiles, Report};
use crate::workload::{persisted_scenarios, BoxError, Census, Kind};

/// Timed repetitions of each hardware call, after warm-up.
const HW_REPS: usize = 15;
/// Fault maps per trial group in the multi-map probe.
const MULTI_MAP_K: usize = 3;

fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A fresh engine of the workload's backend over the bench's clean
/// deployment.
fn probe_engine(kind: Kind, bench: &Bench) -> AnyBackend {
    let mut deployment = bench.deployment.clone();
    let mut engine = AnyBackend::dense(deployment.engine_mut().clone());
    engine.set_kind(kind.backend());
    engine
}

/// Accuracy (%) of per-sample spike counts against the test labels, via
/// the deployment's own decoder.
fn accuracy<'a>(
    deployment: &SoftSnnDeployment,
    labels: &[usize],
    counts: impl Iterator<Item = &'a [u32]>,
) -> f64 {
    let assignment = deployment.assignment();
    let mut result = EvalResult::new(assignment.n_classes());
    for (c, &label) in counts.zip(labels) {
        result.record(assignment.predict(c), label);
    }
    result.accuracy_pct()
}

/// Times `ComputeEngine::for_network` (which includes the kernel
/// autotune) on the deployed network; reports `hw.engine_build_s`.
///
/// # Errors
///
/// Propagates engine validation errors.
pub fn engine_build(bench: &Bench, report: &mut Report) -> Result<(), BoxError> {
    let qn = bench.deployment.quantized();
    let mut times = Vec::new();
    for _ in 0..3 {
        let (engine, t) = secs(|| ComputeEngine::for_network(qn));
        engine?;
        times.push(t);
    }
    report.push("hw.engine_build_s", median(&times));
    Ok(())
}

/// Unit costs of heal, batch, multi-map and single-sample calls on the
/// workload's backend; reports `hw.*` and returns the problems found.
///
/// # Errors
///
/// Propagates injection and evaluation errors.
pub fn hw(
    kind: Kind,
    seed: u64,
    bench: &Bench,
    report: &mut Report,
) -> Result<Vec<String>, BoxError> {
    let mut problems = Vec::new();
    let mut engine = probe_engine(kind, bench);
    let trains = bench.encoded.trains();
    let labels = bench.encoded.labels();
    let deployment = &bench.deployment;
    engine.reload_parameters(&mut NoGuard);

    // run_batch_into: the No-Mitigation clean pass measure_clean makes.
    let mut batch = BatchResult::new();
    let mut times = Vec::new();
    for rep in 0..HW_REPS + 2 {
        let ((), t) = secs(|| engine.run_batch_into(trains, &DirectRead, &NoGuard, &mut batch));
        if rep >= 2 {
            times.push(t * 1e3);
        }
    }
    report.push("hw.batch_ms", median(&times));
    let batch_acc = accuracy(deployment, labels, batch.iter());
    if batch_acc.to_bits() != bench.clean_accuracy.to_bits() {
        problems.push(format!(
            "hw.batch: {batch_acc}% differs from the clean accuracy {}%",
            bench.clean_accuracy
        ));
    }

    // run_sample_into: the per-sample call re-execution makes.
    let mut times = Vec::new();
    for pass in 0..2 {
        for (s, train) in trains.iter().enumerate() {
            let (same, t) = secs(|| {
                engine.run_sample_into(train, &DirectRead, &mut NoGuard) == batch.counts(s)
            });
            if pass == 1 {
                times.push(t * 1e6);
            }
            if !same {
                problems.push(format!(
                    "hw.sample: sample {s} differs from the batched pass"
                ));
            }
        }
    }
    report.push("hw.sample_us", median(&times));

    // run_batch_multi_map: K neuron-only overlays at the top paper rate,
    // checked against the deployment's grouped evaluation of the same
    // scenarios.
    let spec = kind.spec(seed);
    let top = PAPER_RATES.len() - 1;
    let scenarios: Vec<FaultScenario> = (0..MULTI_MAP_K)
        .map(|t| FaultScenario {
            domain: FaultDomain::Neurons(None),
            rate: PAPER_RATES[top],
            seed: spec.seed_for(top, t, 0),
        })
        .collect();
    let (n_inputs, n_neurons) = (
        deployment.quantized().n_inputs,
        deployment.quantized().n_neurons,
    );
    let overlays: Vec<NeuronFaultOverlay> = scenarios
        .iter()
        .map(|s| {
            FaultMap::generate(&s.space(n_inputs, n_neurons), s.rate, s.seed)
                .sites()
                .iter()
                .filter_map(|site| match *site {
                    FaultSite::NeuronOp { neuron, op } => Some((neuron, op)),
                    FaultSite::WeightBit { .. } => None,
                })
                .collect()
        })
        .collect();
    let mut multi = MultiMapResult::new();
    let mut times = Vec::new();
    for rep in 0..HW_REPS / 3 + 1 {
        engine.reload_parameters(&mut NoGuard);
        let ((), t) = secs(|| {
            engine.run_batch_multi_map(trains, &overlays, &DirectRead, &NoGuard, &mut multi)
        });
        if rep >= 1 {
            times.push(t * 1e3);
        }
    }
    report.push("hw.multi_map_ms", median(&times));
    let grouped = deployment.clone().evaluate_encoded_group(
        Technique::NoMitigation,
        &scenarios,
        &bench.encoded,
    )?;
    for (m, expected) in grouped.iter().enumerate() {
        let got = accuracy(
            deployment,
            labels,
            (0..labels.len()).map(|s| multi.counts(m, s)),
        );
        if got.to_bits() != expected.accuracy_pct().to_bits() {
            problems.push(format!(
                "hw.multi_map: map {m} gives {got}%, grouped evaluation {}%",
                expected.accuracy_pct()
            ));
        }
    }

    // reload_parameters after a compute-engine map at the top rate: the
    // heal every persisting trial starts with.
    engine.reload_parameters(&mut NoGuard);
    let clean_codes = engine.engine().crossbar().codes();
    let heal_map = FaultMap::generate(
        &FaultScenario {
            domain: FaultDomain::ComputeEngine,
            rate: PAPER_RATES[top],
            seed: spec.seed_for(top, 0, 0),
        }
        .space(n_inputs, n_neurons),
        PAPER_RATES[top],
        spec.seed_for(top, 0, 0),
    );
    let mut times = Vec::new();
    for rep in 0..HW_REPS + 2 {
        inject(engine.engine_mut(), &heal_map)?;
        let ((), t) = secs(|| engine.reload_parameters(&mut NoGuard));
        if rep >= 2 {
            times.push(t * 1e6);
        }
    }
    report.push("hw.heal_us", median(&times));
    let healed = engine.engine().crossbar().codes_slice() == clean_codes.as_slice()
        && engine.engine().neurons().iter().all(|u| !u.faults.any());
    if !healed {
        problems.push("hw.heal: reload_parameters left faults behind".to_owned());
    }
    Ok(problems)
}

/// Generates and injects every persisted map of the campaign, timing
/// each call; reports `faults.*` and returns the problems found. The
/// site counts must equal the census, and injecting the first trial's map
/// of each No-Mitigation cell must reproduce that trial's accuracy.
///
/// # Errors
///
/// Propagates injection errors.
pub fn faults(
    kind: Kind,
    seed: u64,
    bench: &Bench,
    results: &Fig13Results,
    census: &Census,
    report: &mut Report,
) -> Result<Vec<String>, BoxError> {
    let mut problems = Vec::new();
    let mut engine = probe_engine(kind, bench);
    let qn = bench.deployment.quantized();
    let (mut generate_s, mut inject_s) = (0.0, 0.0);
    let (mut weight_bits, mut neuron_ops) = (0, 0);
    for (cell, scenarios) in persisted_scenarios(kind, seed, results) {
        for (trial, s) in scenarios.iter().enumerate() {
            let (map, t) =
                secs(|| FaultMap::generate(&s.space(qn.n_inputs, qn.n_neurons), s.rate, s.seed));
            generate_s += t;
            engine.reload_parameters(&mut NoGuard);
            let (summary, t) = secs(|| inject(engine.engine_mut(), &map));
            inject_s += t;
            let summary = summary?;
            weight_bits += summary.bits_flipped;
            neuron_ops += summary.neuron_faults();
            if summary.bits_flipped != map.n_weight_bits()
                || summary.neuron_faults() != map.n_neuron_ops()
            {
                problems.push(format!(
                    "faults.inject: summary disagrees with map {}",
                    s.seed
                ));
            }
            if trial == 0 && cell.technique == Technique::NoMitigation {
                let mut batch = BatchResult::new();
                engine.run_batch_into(bench.encoded.trains(), &DirectRead, &NoGuard, &mut batch);
                let got = accuracy(&bench.deployment, bench.encoded.labels(), batch.iter());
                if got.to_bits() != cell.trials[0].to_bits() {
                    problems.push(format!(
                        "faults: injected map at rate {} gives {got}%, the campaign {}%",
                        s.rate, cell.trials[0]
                    ));
                }
            }
        }
    }
    if (weight_bits, neuron_ops) != (census.weight_bits, census.neuron_ops) {
        problems.push(format!(
            "faults: injected {weight_bits} bits / {neuron_ops} ops, census counted {} / {}",
            census.weight_bits, census.neuron_ops
        ));
    }
    report.push("faults.generate_s", generate_s);
    report.push("faults.inject_s", inject_s);
    report.push("faults.weight_bits", weight_bits as f64);
    report.push("faults.neuron_ops", neuron_ops as f64);
    Ok(problems)
}
