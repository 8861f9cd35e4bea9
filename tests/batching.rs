//! Cross-path equivalence and campaign-reuse properties of the batched
//! evaluation pipeline, at the deployment/campaign level (the engine-level
//! batched-vs-reference properties live in
//! `crates/snn-hw/tests/proptest_engine_equivalence.rs`).
//!
//! The process-wide [`encode_invocations`] probe is only meaningful as an
//! exact delta when nothing else encodes concurrently — libtest runs the
//! `#[test]`s of one binary on parallel threads, so every test in this
//! file that encodes holds [`ENCODE_LOCK`] for its whole body.

use softsnn::core::methodology::{
    encode_invocations, EncodedTestSet, FaultScenario, SoftSnnDeployment,
};
use softsnn::core::mitigation::Technique;
use softsnn::core::protection::ResetMonitor;
use softsnn::faults::fault_map::FaultMap;
use softsnn::faults::grid::GridSpec;
use softsnn::faults::injector::inject;
use softsnn::faults::location::{FaultDomain, FaultSpace};
use softsnn::hw::engine::{DirectRead, NoGuard};
use softsnn::sim::assignment::Assignment;
use softsnn::sim::config::SnnConfig;
use softsnn::sim::network::Network;
use softsnn::sim::quant::QuantizedNetwork;
use softsnn::sim::rng::derive_seed;
use std::sync::Mutex;

/// Serializes every encoding test in this binary (see module docs).
static ENCODE_LOCK: Mutex<()> = Mutex::new(());

/// The hand-built separable toy deployment used across the methodology
/// tests: class 0 = inputs 0..4 active, class 1 = inputs 4..8.
fn tiny_deployment() -> (SoftSnnDeployment, Vec<Vec<f32>>, Vec<usize>) {
    let cfg = SnnConfig::builder()
        .n_inputs(8)
        .n_neurons(4)
        .v_thresh(1.5)
        .v_leak(0.1)
        .v_inh(2.0)
        .t_refrac(2)
        .timesteps(30)
        .max_rate(0.8)
        .norm_frac(0.0)
        .build()
        .unwrap();
    let mut weights = vec![0.02_f32; 32];
    for i in 0..4 {
        weights[i * 4] = 0.8;
        weights[i * 4 + 1] = 0.8;
    }
    for i in 4..8 {
        weights[i * 4 + 2] = 0.8;
        weights[i * 4 + 3] = 0.8;
    }
    let net = Network::from_parts(cfg, weights).unwrap();
    let qn = QuantizedNetwork::from_network_default(&net);
    let responses = vec![vec![30, 0], vec![30, 0], vec![0, 30], vec![0, 30]];
    let assignment = Assignment::from_responses(&responses, &[10, 10]).unwrap();
    let deployment = SoftSnnDeployment::new(qn, assignment).unwrap();

    let mut images = Vec::new();
    let mut labels = Vec::new();
    for k in 0..12 {
        let mut img = vec![0.0_f32; 8];
        let class = k % 2;
        for i in 0..4 {
            img[class * 4 + i] = 1.0;
        }
        images.push(img);
        labels.push(class);
    }
    (deployment, images, labels)
}

/// Campaign grids must share one encoded test set: the whole
/// (rate × trial × technique) sweep performs zero further encodes.
#[test]
fn campaign_trials_share_one_encoded_set() {
    let _serialized = ENCODE_LOCK.lock().unwrap();
    let (mut d, images, labels) = tiny_deployment();
    let before = encode_invocations();
    let set = d.encode_test_set(&images, &labels, 42).unwrap();
    assert_eq!(encode_invocations(), before + 1, "one encode for the set");
    let points = GridSpec::new(0, 9, vec!["trial".into()], vec![0.02, 0.08], 3).points();
    for technique in [Technique::NoMitigation, Technique::PAPER_SET[4]] {
        let accuracies: Vec<f64> = points
            .iter()
            .map(|p| {
                let scenario = FaultScenario {
                    domain: FaultDomain::ComputeEngine,
                    rate: p.rate,
                    seed: p.seed,
                };
                d.evaluate_encoded(technique, &scenario, &set)
                    .unwrap()
                    .accuracy()
            })
            .collect();
        assert_eq!(accuracies.len(), 6);
    }
    assert_eq!(
        encode_invocations(),
        before + 1,
        "campaign trials must never re-encode"
    );
}

/// Encoding is deterministic and per-sample isolated: the same base seed
/// reproduces every train bit-for-bit, each sample depends only on
/// `derive_seed(base, i)` (not on its neighbours), and trains double as
/// stable inputs under grid-point-derived seeds.
#[test]
fn encoded_test_set_is_deterministic_and_sample_isolated() {
    let _serialized = ENCODE_LOCK.lock().unwrap();
    let (d, images, labels) = tiny_deployment();
    let qn = d.quantized();
    let points = GridSpec::new(0, 0xC0FFEE, vec!["trial".into()], vec![0.01], 4).points();
    let base = points[2].seed;
    let a = EncodedTestSet::encode(qn, &images, &labels, base).unwrap();
    let b = EncodedTestSet::encode(qn, &images, &labels, base).unwrap();
    assert_eq!(a.trains(), b.trains(), "same seed → same spike trains");
    assert_eq!(a.labels(), b.labels());
    // Sample isolation: encoding a prefix yields the same leading trains.
    let prefix = EncodedTestSet::encode(qn, &images[..5], &labels[..5], base).unwrap();
    assert_eq!(&a.trains()[..5], prefix.trains());
    // A different trial's derived seed changes the spike trains.
    let c = EncodedTestSet::encode(qn, &images, &labels, points[3].seed).unwrap();
    assert_ne!(
        a.trains(),
        c.trains(),
        "distinct trial seeds → distinct trains"
    );
    // And the per-sample streams match the documented derivation.
    let _ = derive_seed(base, 0);
}

/// Deployment-level cross-path equivalence: `evaluate_encoded` (batched
/// engine pass) must agree with a hand-rolled per-sample loop over
/// `run_sample_reference` using the same injection, read path, and
/// per-sample guard cloning discipline.
#[test]
fn evaluate_encoded_matches_reference_scalar_loop() {
    let _serialized = ENCODE_LOCK.lock().unwrap();
    let (mut d, images, labels) = tiny_deployment();
    let set = d.encode_test_set(&images, &labels, 7).unwrap();
    let scenario = FaultScenario {
        domain: FaultDomain::ComputeEngine,
        rate: 0.06,
        seed: 21,
    };
    let space = FaultSpace::new(8, 4, FaultDomain::ComputeEngine);

    // --- No-Mitigation arm ---
    let batched = d
        .evaluate_encoded(Technique::NoMitigation, &scenario, &set)
        .unwrap();
    let assignment = d.assignment().clone();
    let engine = d.engine_mut();
    engine.reload_parameters(&mut NoGuard);
    let map = FaultMap::generate(&space, scenario.rate, scenario.seed);
    inject(engine, &map).unwrap();
    let mut correct = 0;
    for (train, &label) in set.trains().iter().zip(set.labels()) {
        let counts = engine.run_sample_reference(train, &DirectRead, &mut NoGuard);
        if assignment.predict(&counts) == Some(label) {
            correct += 1;
        }
    }
    assert_eq!(
        batched.correct, correct,
        "No-Mitigation: batched vs scalar reference"
    );

    // --- BnP arm (bounded path + per-sample monitor clones) ---
    let variant = softsnn::core::bounding::BnpVariant::Bnp3;
    let bnp = d
        .evaluate_encoded(Technique::Bnp(variant), &scenario, &set)
        .unwrap();
    let bounding = d.bounding_for(variant);
    let path = softsnn::core::bounding::BoundedRead::new(bounding);
    let engine = d.engine_mut();
    let mut reload_guard = ResetMonitor::paper(4);
    engine.reload_parameters(&mut reload_guard);
    inject(engine, &map).unwrap();
    let mut correct = 0;
    for (train, &label) in set.trains().iter().zip(set.labels()) {
        let mut monitor = ResetMonitor::paper(4);
        let counts = engine.run_sample_reference(train, &path, &mut monitor);
        if assignment.predict(&counts) == Some(label) {
            correct += 1;
        }
    }
    assert_eq!(bnp.correct, correct, "BnP: batched vs scalar reference");
}
