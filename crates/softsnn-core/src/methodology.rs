//! The end-to-end SoftSNN methodology: train → quantize → deploy →
//! inject → mitigate → evaluate (paper Fig. 4/Fig. 8).

use crate::analysis::WeightAnalysis;
use crate::bounding::{BoundedRead, BoundingConfig};
use crate::mitigation::{majority_vote, Technique};
use crate::protection::{ResetMonitor, PAPER_WINDOW};
use snn_faults::fault_map::FaultMap;
use snn_faults::injector::lower_overlay;
use snn_faults::location::{FaultDomain, FaultSpace};
pub use snn_hw::backend::EngineBackendKind;
use snn_hw::backend::{AnyBackend, EngineBackend};
use snn_hw::engine::{
    ComputeEngine, DirectRead, MultiMapResult, NeuronFaultOverlay, NoGuard, SpikeGuard,
    WeightReadPath,
};
use snn_hw::error::HwError;
use snn_sim::assignment::Assignment;
use snn_sim::config::SnnConfig;
use snn_sim::encoding::PoissonEncoder;
use snn_sim::error::SnnError;
use snn_sim::eval::EvalResult;
use snn_sim::network::Network;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::rng::{derive_seed, seeded_rng, Rng};
use snn_sim::spike::SpikeTrain;
use snn_sim::trainer::{assign_classes, train_unsupervised, TrainOptions};
use std::error::Error;
use std::fmt;

/// Errors from the end-to-end methodology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MethodologyError {
    /// The simulator reported an error (training/assignment/eval).
    Sim(SnnError),
    /// The hardware model reported an error (deployment/injection).
    Hw(HwError),
}

impl fmt::Display for MethodologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodologyError::Sim(e) => write!(f, "simulator error: {e}"),
            MethodologyError::Hw(e) => write!(f, "hardware error: {e}"),
        }
    }
}

impl Error for MethodologyError {}

impl From<SnnError> for MethodologyError {
    fn from(e: SnnError) -> Self {
        MethodologyError::Sim(e)
    }
}

impl From<HwError> for MethodologyError {
    fn from(e: HwError) -> Self {
        MethodologyError::Hw(e)
    }
}

/// A soft-error scenario for an evaluation run: where faults strike, how
/// often, and the fault-map seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Which engine part is targeted.
    pub domain: FaultDomain,
    /// Fraction of potential locations struck.
    pub rate: f64,
    /// Fault-map seed (one seed = one map; the paper's Fig. 3(a) "Fault
    /// Map 1/2" are two seeds).
    pub seed: u64,
}

impl FaultScenario {
    /// A fault-free scenario.
    pub fn clean() -> Self {
        Self {
            domain: FaultDomain::ComputeEngine,
            rate: 0.0,
            seed: 0,
        }
    }

    /// Whether this scenario injects anything.
    pub fn is_clean(&self) -> bool {
        self.rate == 0.0
    }

    /// The fault space for an engine of the given logical size.
    pub fn space(&self, n_inputs: usize, n_neurons: usize) -> FaultSpace {
        FaultSpace::new(n_inputs, n_neurons, self.domain)
    }
}

/// Fraction of the accumulated fault density a single re-execution window
/// is exposed to.
///
/// A [`FaultScenario`]'s rate describes the fault density accumulated on
/// an engine whose parameters are never reloaded (bits persist until
/// overwritten, Sec. 2.2) — the situation No-Mitigation and BnP face.
/// Re-execution reloads parameters on every execution, wiping that
/// accumulation; only the strikes landing *during* one short execution
/// window affect it. This is why the paper observes that re-execution's
/// "executions are minimally affected by soft errors" (Sec. 5.1) and its
/// accuracy stays near-clean at every rate, at 3× latency/energy cost.
pub const DEFAULT_REEXEC_EXPOSURE: f64 = 0.05;

/// A labeled test set encoded into spike trains once, up front.
///
/// Campaign grids evaluate the same test set under many (technique, rate,
/// trial) points; Poisson-encoding every image again at every point is
/// pure waste. An `EncodedTestSet` is built once per deployment — with a
/// deterministic per-sample RNG stream, so the cache is independent of
/// evaluation order — and shared by reference across all trials (see
/// [`SoftSnnDeployment::evaluate_encoded`]).
#[derive(Debug, Clone)]
pub struct EncodedTestSet {
    trains: Vec<SpikeTrain>,
    labels: Vec<usize>,
}

/// Process-wide count of [`EncodedTestSet::encode`] invocations — a test
/// probe for asserting that campaign grids share one encoded set instead
/// of re-encoding per trial. Monotonic; meaningful as deltas only.
pub fn encode_invocations() -> u64 {
    ENCODE_CALLS.load(std::sync::atomic::Ordering::Relaxed)
}

static ENCODE_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl EncodedTestSet {
    /// Encodes `images` with the deployment's rate/timestep parameters.
    /// Sample `i` is encoded from `derive_seed(base_seed, i)`, so any
    /// single train can be regenerated in isolation.
    ///
    /// # Errors
    ///
    /// Returns [`MethodologyError::Sim`] if `images` and `labels` lengths
    /// differ.
    pub fn encode(
        qn: &QuantizedNetwork,
        images: &[Vec<f32>],
        labels: &[usize],
        base_seed: u64,
    ) -> Result<Self, MethodologyError> {
        ENCODE_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if images.len() != labels.len() {
            return Err(SnnError::ShapeMismatch {
                expected: images.len(),
                actual: labels.len(),
                what: "labels",
            }
            .into());
        }
        let encoder = PoissonEncoder::new(qn.max_rate);
        let trains = images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                encoder.encode(
                    img,
                    qn.timesteps,
                    &mut seeded_rng(derive_seed(base_seed, i as u64)),
                )
            })
            .collect();
        Ok(Self {
            trains,
            labels: labels.to_vec(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.trains.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.trains.is_empty()
    }

    /// The encoded spike trains, in sample order.
    pub fn trains(&self) -> &[SpikeTrain] {
        &self.trains
    }

    /// The labels, in sample order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Spike-activity statistics of the encoded trains — what grounds a
    /// backend choice (and any `sparse_speedup` claim) in measured
    /// sparsity rather than intuition.
    pub fn activity_stats(&self) -> SpikeActivityStats {
        SpikeActivityStats::of_trains(&self.trains)
    }

    /// Content fingerprint over every encoded spike event and label (see
    /// [`crate::fingerprint`]): two sets hash equal iff they would feed
    /// evaluation identical inputs, so the campaign service can prove two
    /// jobs share a test set without comparing trains event by event.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::new();
        h.write_usize(self.trains.len());
        for train in &self.trains {
            h.write_usize(train.n_channels());
            h.write_usize(train.n_steps());
            for step in train.iter() {
                h.write_usize(step.len());
                for &channel in step {
                    h.write_u32(channel);
                }
            }
        }
        for &label in &self.labels {
            h.write_usize(label);
        }
        h.finish()
    }
}

/// Input spike-activity statistics of a set of encoded trains: how many
/// events each simulated cycle carries and how often a cycle is fully
/// silent. The silent fraction is the event backend's headroom — those
/// are exactly the cycles it can skip.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpikeActivityStats {
    /// Number of trains measured.
    pub n_samples: usize,
    /// Total simulated cycles across all trains.
    pub total_cycles: usize,
    /// Total input spike events across all cycles.
    pub total_events: usize,
    /// Cycles carrying no input event at all.
    pub silent_cycles: usize,
}

impl SpikeActivityStats {
    /// Measures a slice of spike trains (the [`EncodedTestSet`] method
    /// delegates here; raw-train holders like bench fixtures can call it
    /// directly).
    pub fn of_trains(trains: &[SpikeTrain]) -> Self {
        let mut stats = Self {
            n_samples: trains.len(),
            ..Self::default()
        };
        for train in trains {
            for t in 0..train.n_steps() {
                let events = train.step(t).len();
                stats.total_cycles += 1;
                stats.total_events += events;
                if events == 0 {
                    stats.silent_cycles += 1;
                }
            }
        }
        stats
    }

    /// Mean input events per simulated cycle.
    pub fn events_per_cycle(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_events as f64 / self.total_cycles as f64
        }
    }

    /// Fraction of cycles with no input event.
    pub fn silent_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.silent_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// A trained, quantized network deployed on the (bit-accurate) compute
/// engine together with everything the SoftSNN methodology derives from
/// it: the class assignment and the clean-weight analysis.
///
/// This is the object the experiment harness evaluates under different
/// mitigation [`Technique`]s and [`FaultScenario`]s.
#[derive(Debug, Clone)]
pub struct SoftSnnDeployment {
    qn: QuantizedNetwork,
    /// The evaluate backend (dense by default; see
    /// [`set_backend`](Self::set_backend)). Every evaluate entry point
    /// drives it through the [`EngineBackend`] trait, so dense and
    /// event-driven runs share one methodology code path.
    engine: AnyBackend,
    assignment: Assignment,
    analysis: WeightAnalysis,
}

/// Options for [`SoftSnnDeployment::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainPipelineOptions {
    /// Unsupervised epochs (paper: 3).
    pub epochs: usize,
    /// Number of classes in the workload.
    pub n_classes: usize,
    /// RNG seed for the whole pipeline.
    pub seed: u64,
}

impl Default for TrainPipelineOptions {
    fn default() -> Self {
        Self {
            epochs: 3,
            n_classes: 10,
            seed: 7,
        }
    }
}

impl SoftSnnDeployment {
    /// Deploys an already trained/quantized network.
    ///
    /// # Errors
    ///
    /// Returns [`MethodologyError::Hw`] if the network fails engine
    /// validation.
    pub fn new(qn: QuantizedNetwork, assignment: Assignment) -> Result<Self, MethodologyError> {
        let analysis = WeightAnalysis::of_clean_network(&qn);
        let engine = AnyBackend::dense(ComputeEngine::for_network(&qn)?);
        Ok(Self {
            qn,
            engine,
            assignment,
            analysis,
        })
    }

    /// Runs the full paper pipeline: unsupervised STDP training, class
    /// assignment, 8-bit quantization, and deployment.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (shape mismatches, bad labels) and
    /// hardware validation errors.
    pub fn train(
        cfg: SnnConfig,
        train_images: &[Vec<f32>],
        train_labels: &[usize],
        options: TrainPipelineOptions,
    ) -> Result<Self, MethodologyError> {
        let mut rng = seeded_rng(options.seed);
        let mut net = Network::new(cfg, &mut rng);
        train_unsupervised(
            &mut net,
            train_images,
            TrainOptions {
                epochs: options.epochs,
                shuffle: true,
            },
            &mut rng,
        )?;
        let assignment = assign_classes(
            &mut net,
            train_images,
            train_labels,
            options.n_classes,
            &mut rng,
        )?;
        let qn = QuantizedNetwork::from_network_default(&net);
        Self::new(qn, assignment)
    }

    /// The deployed quantized network.
    pub fn quantized(&self) -> &QuantizedNetwork {
        &self.qn
    }

    /// The engine (mutable access is deliberate: fault-injection studies
    /// manipulate registers directly). Always the wrapped dense
    /// [`ComputeEngine`] regardless of the active backend — it is the
    /// shared state store and fault-injection surface.
    pub fn engine_mut(&mut self) -> &mut ComputeEngine {
        self.engine.engine_mut()
    }

    /// The active evaluate backend.
    pub fn backend(&self) -> EngineBackendKind {
        self.engine.kind()
    }

    /// Switches the evaluate backend in place (state, faults, and the
    /// crossbar carry over; delay-free results are bit-identical across
    /// backends).
    pub fn set_backend(&mut self, kind: EngineBackendKind) {
        self.engine.set_kind(kind);
    }

    /// The clean-weight analysis driving the BnP configuration.
    pub fn analysis(&self) -> &WeightAnalysis {
        &self.analysis
    }

    /// The neuron-to-class assignment/decoder.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The bounding configuration a BnP variant would use on this
    /// deployment.
    pub fn bounding_for(&self, variant: crate::bounding::BnpVariant) -> BoundingConfig {
        BoundingConfig::for_variant(variant, &self.analysis)
    }

    /// Evaluates a *custom* Bound-and-Protect configuration (explicit
    /// bounding registers and monitor window) — the hook used by the
    /// ablation studies (`wgh_th` sensitivity, window-length sweeps).
    ///
    /// Encoding consumes `rng` in sample order (bit-identical to the
    /// historical interleaved form); evaluation then runs through the
    /// engine's trial-group pass with a fresh monitor clone per sample, like
    /// the BnP arm of [`evaluate`](Self::evaluate).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or if the scenario's fault
    /// space does not fit the engine.
    pub fn evaluate_custom_bnp(
        &mut self,
        bounding: BoundingConfig,
        monitor_window: u8,
        scenario: &FaultScenario,
        images: &[Vec<f32>],
        labels: &[usize],
        rng: &mut Rng,
    ) -> Result<EvalResult, MethodologyError> {
        let trains = self.encode(images, labels, rng)?;
        let monitor = ResetMonitor::new(self.qn.n_neurons, monitor_window);
        let path = BoundedRead::new(bounding);
        let mut results = self.evaluate_persistent(
            &path,
            monitor,
            std::slice::from_ref(scenario),
            &trains,
            labels,
        )?;
        Ok(results.remove(0))
    }

    /// Poisson-encodes `images` in sample order from `rng` — the only RNG
    /// consumer of an evaluation, so encoding up front is bit-identical
    /// to the historical interleaved form.
    ///
    /// # Errors
    ///
    /// Returns a shape mismatch if `labels` does not match `images`.
    fn encode(
        &self,
        images: &[Vec<f32>],
        labels: &[usize],
        rng: &mut Rng,
    ) -> Result<Vec<SpikeTrain>, MethodologyError> {
        if images.len() != labels.len() {
            return Err(SnnError::ShapeMismatch {
                expected: images.len(),
                actual: labels.len(),
                what: "labels",
            }
            .into());
        }
        let encoder = PoissonEncoder::new(self.qn.max_rate);
        Ok(images
            .iter()
            .map(|img| encoder.encode(img, self.qn.timesteps, rng))
            .collect())
    }

    /// Evaluates classification accuracy of `technique` under `scenario`
    /// on a labeled test set.
    ///
    /// Semantics (paper Secs. 2.2, 4):
    ///
    /// * **No-Mitigation / BnP**: parameters are loaded once, the fault
    ///   map is injected once, and faults persist across the whole test
    ///   set (bits until overwrite, neuron faults until parameter
    ///   replacement). BnP evaluates with the bounding read path and the
    ///   reset monitor installed; each sample observes its own monitor
    ///   clone (samples are independent under the batched engine pass, so
    ///   a sample's outcome does not depend on its position in the set).
    /// * **Re-execution ×k**: every sample is executed `k` times; each
    ///   execution reloads parameters (healing persisted faults) and
    ///   draws a *fresh* fault map at the same rate (transient strikes
    ///   are independent across executions); the predictions are
    ///   majority-voted.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or if the scenario's fault
    /// space does not fit the engine.
    pub fn evaluate(
        &mut self,
        technique: Technique,
        scenario: &FaultScenario,
        images: &[Vec<f32>],
        labels: &[usize],
        rng: &mut Rng,
    ) -> Result<EvalResult, MethodologyError> {
        let trains = self.encode(images, labels, rng)?;
        let mut results =
            self.evaluate_scenarios(technique, std::slice::from_ref(scenario), &trains, labels)?;
        Ok(results.remove(0))
    }

    /// Evaluates `technique` under `scenario` on a pre-encoded test set —
    /// the campaign hot path.
    ///
    /// Semantics are identical to [`evaluate`](Self::evaluate) except that
    /// input spike trains come from the shared [`EncodedTestSet`] cache
    /// instead of being Poisson-encoded per call, so every trial of a
    /// campaign sees *the same* input spikes and differs only in its fault
    /// map — which isolates the fault variable and removes the dominant
    /// re-encoding cost from grid re-runs.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario's fault space does not fit the
    /// engine.
    pub fn evaluate_encoded(
        &mut self,
        technique: Technique,
        scenario: &FaultScenario,
        set: &EncodedTestSet,
    ) -> Result<EvalResult, MethodologyError> {
        let mut results = self.evaluate_scenarios(
            technique,
            std::slice::from_ref(scenario),
            &set.trains,
            &set.labels,
        )?;
        Ok(results.remove(0))
    }

    /// Evaluates one **trial group** — several [`FaultScenario`]s of the
    /// same `technique` against the same pre-encoded test set — returning
    /// one [`EvalResult`] per scenario, in scenario order. This is the
    /// grid-point entry the campaign-grid runner
    /// (`snn_faults::grid::GridRunner`) hands shards to.
    ///
    /// Results are **bit-identical** to calling
    /// [`evaluate_encoded`](Self::evaluate_encoded) once per scenario;
    /// the difference is cost. A technique that persists faults across
    /// the set (No-Mitigation or BnP) runs the whole group through the
    /// engine's multi-map pass ([`ComputeEngine::run_batch_multi_map`]):
    /// parameters are reloaded once, each scenario's map is lowered to an
    /// overlay (clean scenarios lower to empty ones), and each timestep's
    /// synaptic drive is accumulated once for all K maps. Maps that flip
    /// weight bits read that shared drive plus their own per-row
    /// corrections, which is exact integer arithmetic, so weight-bearing
    /// groups share the drive too; the equivalence is property-tested at
    /// the engine layer. Re-execution runs each sample's executions as
    /// lanes of one pass instead (see
    /// [`evaluate`](Self::evaluate) for its semantics). Either way, each
    /// fault map is generated once.
    ///
    /// # Errors
    ///
    /// Returns an error if a scenario's fault space does not fit the
    /// engine.
    pub fn evaluate_encoded_group(
        &mut self,
        technique: Technique,
        scenarios: &[FaultScenario],
        set: &EncodedTestSet,
    ) -> Result<Vec<EvalResult>, MethodologyError> {
        self.evaluate_scenarios(technique, scenarios, &set.trains, &set.labels)
    }

    /// The shared evaluation core behind every evaluate entry point: one
    /// arm per technique over already-encoded spike trains, one
    /// [`EvalResult`] per scenario. No-Mitigation and BnP persist faults
    /// across the set ([`evaluate_persistent`](Self::evaluate_persistent));
    /// Re-execution draws a fresh map per execution
    /// ([`evaluate_reexecution`](Self::evaluate_reexecution)).
    fn evaluate_scenarios(
        &mut self,
        technique: Technique,
        scenarios: &[FaultScenario],
        trains: &[SpikeTrain],
        labels: &[usize],
    ) -> Result<Vec<EvalResult>, MethodologyError> {
        match technique {
            Technique::NoMitigation => {
                self.evaluate_persistent(&DirectRead, NoGuard, scenarios, trains, labels)
            }
            Technique::Bnp(variant) => {
                // Each sample observes a fresh clone of the reset monitor
                // (the engine evaluates samples independently), so a
                // sample's outcome does not depend on where it sits in the
                // test set: a neuron latched during one sample is not
                // pre-muted for the next. The vr-burst signature the
                // monitor exists for re-latches within `window` cycles of
                // every sample, so protection strength is unchanged.
                let monitor = ResetMonitor::new(self.qn.n_neurons, PAPER_WINDOW);
                let path = BoundedRead::new(self.bounding_for(variant));
                self.evaluate_persistent(&path, monitor, scenarios, trains, labels)
            }
            Technique::ReExecution { runs } => scenarios
                .iter()
                .map(|scenario| self.evaluate_reexecution(runs, scenario, trains, labels))
                .collect(),
        }
    }

    /// The No-Mitigation / BnP arm: reload parameters once (healing
    /// through `guard`), lower every scenario's map to an overlay, and
    /// run the whole group — any K, one scenario included — as one
    /// multi-map pass over the persisted faults, each (map, sample) lane
    /// with its own clone of `guard` (see
    /// [`evaluate_encoded_group`](Self::evaluate_encoded_group)). Each
    /// map is generated once and dropped as soon as it is lowered.
    fn evaluate_persistent<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        path: &P,
        mut guard: G,
        scenarios: &[FaultScenario],
        trains: &[SpikeTrain],
        labels: &[usize],
    ) -> Result<Vec<EvalResult>, MethodologyError> {
        let mut overlays = vec![NeuronFaultOverlay::new(); scenarios.len()];
        for (overlay, scenario) in overlays.iter_mut().zip(scenarios) {
            self.scenario_overlay(scenario, scenario.rate, scenario.seed, overlay)?;
        }
        self.engine.reload_parameters(&mut guard);
        let mut out = MultiMapResult::new();
        self.engine
            .run_batch_multi_map(trains, &overlays, path, &guard, &mut out);
        Ok((0..overlays.len())
            .map(|m| self.score((0..out.n_samples()).map(|s| out.counts(m, s)), labels))
            .collect())
    }

    /// Fills `overlay` with `scenario`'s space at `rate` and `seed`:
    /// empty for a clean scenario or a zero rate, else the generated map
    /// lowered against the engine ([`lower_overlay`]).
    fn scenario_overlay(
        &self,
        scenario: &FaultScenario,
        rate: f64,
        seed: u64,
        overlay: &mut NeuronFaultOverlay,
    ) -> Result<(), MethodologyError> {
        if scenario.is_clean() || rate == 0.0 {
            overlay.clear();
            return Ok(());
        }
        let space = scenario.space(self.qn.n_inputs, self.qn.n_neurons);
        let map = FaultMap::generate(&space, rate, seed);
        Ok(lower_overlay(self.engine.engine(), &map, overlay)?)
    }

    /// Decodes per-sample spike counts and scores them against `labels`.
    fn score<'a>(&self, counts: impl Iterator<Item = &'a [u32]>, labels: &[usize]) -> EvalResult {
        let mut result = EvalResult::new(self.assignment.n_classes());
        for (counts, &label) in counts.zip(labels) {
            result.record(self.assignment.predict(counts), label);
        }
        result
    }

    /// The Re-execution ×`runs` arm for one scenario (see
    /// [`evaluate`](Self::evaluate)). Every execution reloads parameters
    /// and faces its own map, so after one reload each sample's `runs`
    /// executions are one trial group over that sample alone
    /// ([`ComputeEngine::run_batch_multi_map`]), one map per execution;
    /// maps are generated and lowered one sample at a time into one
    /// `runs`-long set of overlays, refilled in place for every sample.
    fn evaluate_reexecution(
        &mut self,
        runs: u32,
        scenario: &FaultScenario,
        trains: &[SpikeTrain],
        labels: &[usize],
    ) -> Result<EvalResult, MethodologyError> {
        let mut result = EvalResult::new(self.assignment.n_classes());
        // Each execution is only exposed to the strikes landing within
        // its own window — see DEFAULT_REEXEC_EXPOSURE.
        let exec_rate = scenario.rate * DEFAULT_REEXEC_EXPOSURE;
        let runs = runs as usize;
        self.engine.reload_parameters(&mut NoGuard);
        let mut maps = vec![NeuronFaultOverlay::new(); runs];
        let mut out = MultiMapResult::new();
        let mut votes = Vec::with_capacity(runs);
        for (s, (train, &label)) in trains.iter().zip(labels).enumerate() {
            for (k, map) in maps.iter_mut().enumerate() {
                let exec_seed = derive_seed(scenario.seed, (s * runs + k) as u64);
                self.scenario_overlay(scenario, exec_rate, exec_seed, map)?;
            }
            self.engine.run_batch_multi_map(
                std::slice::from_ref(train),
                &maps,
                &DirectRead,
                &NoGuard,
                &mut out,
            );
            votes.clear();
            votes.extend((0..runs).map(|k| self.assignment.predict(out.counts(k, 0))));
            result.record(majority_vote(&votes), label);
        }
        Ok(result)
    }

    /// Content fingerprint of everything that determines this
    /// deployment's evaluation results: the quantized weights and neuron
    /// parameters, the class assignment, the mitigation constants, and the
    /// active backend. Two deployments hashing equal evaluate any
    /// (technique, scenario, test set) identically, so the campaign
    /// service uses this (plus [`EncodedTestSet::content_hash`]) as the
    /// job fingerprint that gates resume.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::new();
        h.write_usize(self.qn.n_inputs);
        h.write_usize(self.qn.n_neurons);
        h.write_bytes(&self.qn.codes);
        h.write_u64(self.qn.scheme.bits() as u64);
        h.write_f32(self.qn.scheme.full_scale());
        for &t in &self.qn.neuron.v_thresh {
            h.write_i32(t);
        }
        h.write_i32(self.qn.neuron.v_reset);
        h.write_i32(self.qn.neuron.v_leak);
        h.write_u32(self.qn.neuron.t_refrac);
        h.write_i32(self.qn.neuron.v_inh);
        h.write_u32(self.qn.timesteps);
        h.write_f32(self.qn.max_rate);
        h.write_usize(self.assignment.n_classes());
        for label in self.assignment.labels() {
            match label {
                Some(class) => {
                    h.write_u64(1);
                    h.write_usize(*class);
                }
                None => h.write_u64(0),
            }
        }
        // The monitor window and re-execution exposure stay in the hash
        // so that stored job fingerprints keep their values.
        h.write_u64(PAPER_WINDOW as u64);
        h.write_f64(DEFAULT_REEXEC_EXPOSURE);
        h.write_str(&format!("{:?}", self.engine.kind()));
        h.finish()
    }

    /// Encodes a labeled test set once for reuse across campaign trials
    /// (see [`EncodedTestSet`]).
    ///
    /// # Errors
    ///
    /// Returns an error on image/label length mismatch.
    pub fn encode_test_set(
        &self,
        images: &[Vec<f32>],
        labels: &[usize],
        base_seed: u64,
    ) -> Result<EncodedTestSet, MethodologyError> {
        EncodedTestSet::encode(&self.qn, images, labels, base_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounding::BnpVariant;
    use snn_hw::neuron_unit::NeuronOp;

    /// A tiny hand-built deployment where class 0 = inputs 0..4 active,
    /// class 1 = inputs 4..8 active, with two neurons tuned to each.
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
        // Neurons 0,1 tuned to inputs 0..4 (class 0); neurons 2,3 to 4..8.
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
        for k in 0..10 {
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

    #[test]
    fn clean_accuracy_is_perfect_on_separable_toy() {
        let (mut d, images, labels) = tiny_deployment();
        let mut rng = seeded_rng(1);
        for technique in Technique::PAPER_SET {
            let r = d
                .evaluate(
                    technique,
                    &FaultScenario::clean(),
                    &images,
                    &labels,
                    &mut rng,
                )
                .unwrap();
            assert!(
                r.accuracy() > 0.9,
                "{technique}: clean accuracy {:.2} too low",
                r.accuracy()
            );
        }
    }

    #[test]
    fn unmitigated_msb_flips_hurt_and_bnp_recovers() {
        let (mut d, images, labels) = tiny_deployment();
        let mut rng = seeded_rng(2);
        let scenario = FaultScenario {
            domain: FaultDomain::Synapses,
            rate: 0.08,
            seed: 9,
        };
        let unmitigated = d
            .evaluate(
                Technique::NoMitigation,
                &scenario,
                &images,
                &labels,
                &mut rng,
            )
            .unwrap();
        let bnp1 = d
            .evaluate(
                Technique::Bnp(BnpVariant::Bnp1),
                &scenario,
                &images,
                &labels,
                &mut rng,
            )
            .unwrap();
        assert!(
            bnp1.accuracy() >= unmitigated.accuracy(),
            "BnP1 {:.2} must not be worse than no-mitigation {:.2}",
            bnp1.accuracy(),
            unmitigated.accuracy()
        );
    }

    #[test]
    fn bnp_protection_silences_burst_neurons() {
        let (mut d, images, labels) = tiny_deployment();
        let mut rng = seeded_rng(3);
        // Directly wedge a vr fault into neuron 3 after reload by using a
        // neuron-domain scenario at rate 1.0 restricted to VmemReset.
        let scenario = FaultScenario {
            domain: FaultDomain::Neurons(Some(NeuronOp::VmemReset)),
            rate: 0.25, // one of four neurons
            seed: 4,
        };
        let unmitigated = d
            .evaluate(
                Technique::NoMitigation,
                &scenario,
                &images,
                &labels,
                &mut rng,
            )
            .unwrap();
        let bnp3 = d
            .evaluate(
                Technique::Bnp(BnpVariant::Bnp3),
                &scenario,
                &images,
                &labels,
                &mut rng,
            )
            .unwrap();
        assert!(
            bnp3.accuracy() >= unmitigated.accuracy(),
            "protection must not hurt: bnp3 {:.2} vs nomit {:.2}",
            bnp3.accuracy(),
            unmitigated.accuracy()
        );
        assert!(bnp3.accuracy() > 0.9, "burst neuron must be muted");
    }

    #[test]
    fn reexecution_restores_accuracy_at_moderate_rates() {
        let (mut d, images, labels) = tiny_deployment();
        let mut rng = seeded_rng(5);
        let scenario = FaultScenario {
            domain: FaultDomain::ComputeEngine,
            rate: 0.02,
            seed: 77,
        };
        let re = d
            .evaluate(
                Technique::ReExecution { runs: 3 },
                &scenario,
                &images,
                &labels,
                &mut rng,
            )
            .unwrap();
        assert!(
            re.accuracy() > 0.8,
            "TMR at 2% rate should stay accurate, got {:.2}",
            re.accuracy()
        );
    }

    #[test]
    fn faults_persist_across_samples_without_reexecution() {
        let (mut d, images, labels) = tiny_deployment();
        let rng = seeded_rng(6);
        let scenario = FaultScenario {
            domain: FaultDomain::Synapses,
            rate: 0.05,
            seed: 3,
        };
        // Evaluate twice with the same scenario: the engine is reloaded at
        // the start of each evaluate() call, so results must be directly
        // comparable (deterministic apart from Poisson noise).
        let a = d
            .evaluate(
                Technique::NoMitigation,
                &scenario,
                &images,
                &labels,
                &mut seeded_rng(10),
            )
            .unwrap();
        let b = d
            .evaluate(
                Technique::NoMitigation,
                &scenario,
                &images,
                &labels,
                &mut seeded_rng(10),
            )
            .unwrap();
        assert_eq!(a.correct, b.correct, "same seeds → same outcome");
        let _ = rng;
    }

    #[test]
    fn encoded_evaluation_is_deterministic_and_accurate() {
        let (mut d, images, labels) = tiny_deployment();
        let set = d.encode_test_set(&images, &labels, 77).unwrap();
        for technique in Technique::PAPER_SET {
            let a = d
                .evaluate_encoded(technique, &FaultScenario::clean(), &set)
                .unwrap();
            let b = d
                .evaluate_encoded(technique, &FaultScenario::clean(), &set)
                .unwrap();
            assert_eq!(
                a.correct, b.correct,
                "{technique}: same cache → same outcome"
            );
            assert!(
                a.accuracy() > 0.9,
                "{technique}: clean encoded accuracy {:.2} too low",
                a.accuracy()
            );
        }
    }

    #[test]
    fn encoded_faulty_evaluation_matches_bnp_ordering() {
        // The cached-input path must preserve the paper's qualitative
        // ordering: BnP at a damaging rate is no worse than no-mitigation
        // on the same fault map and the same input spikes.
        let (mut d, images, labels) = tiny_deployment();
        let set = d.encode_test_set(&images, &labels, 78).unwrap();
        let scenario = FaultScenario {
            domain: FaultDomain::Synapses,
            rate: 0.08,
            seed: 9,
        };
        let nomit = d
            .evaluate_encoded(Technique::NoMitigation, &scenario, &set)
            .unwrap();
        let bnp1 = d
            .evaluate_encoded(Technique::Bnp(BnpVariant::Bnp1), &scenario, &set)
            .unwrap();
        assert!(
            bnp1.accuracy() >= nomit.accuracy(),
            "BnP1 {:.2} must not trail no-mitigation {:.2}",
            bnp1.accuracy(),
            nomit.accuracy()
        );
    }

    /// The trial-group contract: `evaluate_encoded_group` is bit-identical
    /// to one `evaluate_encoded` call per scenario — through the
    /// multi-map fast path (neuron-only groups under No-Mitigation and
    /// BnP) and through the fallback (mixed-domain groups, re-execution).
    #[test]
    fn encoded_group_matches_per_scenario_evaluation() {
        let (mut d, images, labels) = tiny_deployment();
        let set = d.encode_test_set(&images, &labels, 99).unwrap();
        let neuron_group: Vec<FaultScenario> = (0..4)
            .map(|t| FaultScenario {
                domain: FaultDomain::Neurons(None),
                rate: 0.25,
                seed: 100 + t,
            })
            .collect();
        let mut mixed_group = neuron_group.clone();
        mixed_group[1] = FaultScenario {
            domain: FaultDomain::Synapses,
            rate: 0.1,
            seed: 7,
        };
        let mut with_clean = neuron_group.clone();
        with_clean[2] = FaultScenario::clean();
        for technique in Technique::PAPER_SET {
            for group in [&neuron_group, &mixed_group, &with_clean] {
                let grouped = d.evaluate_encoded_group(technique, group, &set).unwrap();
                assert_eq!(grouped.len(), group.len());
                for (i, scenario) in group.iter().enumerate() {
                    let single = d.evaluate_encoded(technique, scenario, &set).unwrap();
                    assert_eq!(
                        grouped[i], single,
                        "{technique}: scenario {i} diverged from per-scenario evaluation"
                    );
                }
            }
        }
    }

    /// Scenarios for the lane-vs-loop tests: every paper rate plus two
    /// dense ones (the toy engine has 48 fault locations, so the paper
    /// rates strike few, and only dense maps move its predictions), each
    /// in the compute-engine domain, and a clean scenario.
    fn rate_sweep() -> Vec<FaultScenario> {
        snn_faults::rate::PAPER_RATES
            .iter()
            .chain(&[0.3, 0.6])
            .enumerate()
            .map(|(i, &rate)| FaultScenario {
                domain: FaultDomain::ComputeEngine,
                rate,
                seed: 300 + i as u64,
            })
            .chain([FaultScenario::clean()])
            .collect()
    }

    /// Re-execution through lanes equals the per-execution loop it
    /// replaced — reload, inject a fresh map, run the sample through the
    /// reference formulation, majority-vote — at every rate and clean.
    #[test]
    fn reexecution_lanes_match_per_execution_loop() {
        use snn_faults::injector::inject;
        let (mut d, images, labels) = tiny_deployment();
        let set = d.encode_test_set(&images, &labels, 55).unwrap();
        let runs = 3_u32;
        for scenario in rate_sweep() {
            let technique = Technique::ReExecution { runs };
            let got = d.evaluate_encoded(technique, &scenario, &set).unwrap();
            let mut oracle = d.clone();
            let space = scenario.space(8, 4);
            let rate = scenario.rate * DEFAULT_REEXEC_EXPOSURE;
            let mut want = EvalResult::new(2);
            for (s, (train, &label)) in set.trains().iter().zip(set.labels()).enumerate() {
                let votes: Vec<Option<usize>> = (0..runs as u64)
                    .map(|k| {
                        let engine = oracle.engine_mut();
                        engine.reload_parameters(&mut NoGuard);
                        if !scenario.is_clean() && rate > 0.0 {
                            let seed = derive_seed(scenario.seed, s as u64 * runs as u64 + k);
                            inject(engine, &FaultMap::generate(&space, rate, seed)).unwrap();
                        }
                        let counts = engine.run_sample_reference(train, &DirectRead, &mut NoGuard);
                        oracle.assignment().predict(&counts)
                    })
                    .collect();
                want.record(majority_vote(&votes), label);
            }
            assert_eq!(got, want, "rate {}", scenario.rate);
        }
    }

    /// A No-Mitigation / BnP group of weight-bearing maps (one multi-map
    /// pass) equals the per-scenario loop it replaced — reload, inject,
    /// run every sample through the reference formulation with a fresh
    /// guard clone.
    #[test]
    fn persistent_group_matches_per_scenario_inject_loop() {
        use snn_faults::injector::inject;
        let (mut d, images, labels) = tiny_deployment();
        let set = d.encode_test_set(&images, &labels, 56).unwrap();
        let group = rate_sweep();
        let grouped = d
            .evaluate_encoded_group(Technique::NoMitigation, &group, &set)
            .unwrap();
        let bnp = Technique::Bnp(BnpVariant::Bnp3);
        let grouped_bnp = d.evaluate_encoded_group(bnp, &group, &set).unwrap();
        let path = BoundedRead::new(d.bounding_for(BnpVariant::Bnp3));
        let monitor = ResetMonitor::new(4, PAPER_WINDOW);
        let mut oracle = d.clone();
        for (i, scenario) in group.iter().enumerate() {
            let mut want = EvalResult::new(2);
            let mut want_bnp = EvalResult::new(2);
            let engine = oracle.engine_mut();
            engine.reload_parameters(&mut NoGuard);
            if !scenario.is_clean() {
                let map = FaultMap::generate(&scenario.space(8, 4), scenario.rate, scenario.seed);
                inject(engine, &map).unwrap();
            }
            for (train, &label) in set.trains().iter().zip(set.labels()) {
                let counts = engine.run_sample_reference(train, &DirectRead, &mut NoGuard);
                want.record(d.assignment().predict(&counts), label);
                let counts = engine.run_sample_reference(train, &path, &mut monitor.clone());
                want_bnp.record(d.assignment().predict(&counts), label);
            }
            assert_eq!(grouped[i], want, "no-mitigation, rate {}", scenario.rate);
            assert_eq!(grouped_bnp[i], want_bnp, "BnP3, rate {}", scenario.rate);
        }
    }

    #[test]
    fn encoded_group_multi_map_path_recovers_with_bnp() {
        // Sanity that the fast path produces meaningful results, not just
        // self-consistent ones: under a vr-only group, BnP3 must not
        // trail no-mitigation on any trial.
        let (mut d, images, labels) = tiny_deployment();
        let set = d.encode_test_set(&images, &labels, 41).unwrap();
        let group: Vec<FaultScenario> = (0..3)
            .map(|t| FaultScenario {
                domain: FaultDomain::Neurons(Some(NeuronOp::VmemReset)),
                rate: 0.25,
                seed: 900 + t,
            })
            .collect();
        let nomit = d
            .evaluate_encoded_group(Technique::NoMitigation, &group, &set)
            .unwrap();
        let bnp3 = d
            .evaluate_encoded_group(Technique::Bnp(BnpVariant::Bnp3), &group, &set)
            .unwrap();
        for (trial, (n, b)) in nomit.iter().zip(&bnp3).enumerate() {
            assert!(
                b.accuracy() >= n.accuracy(),
                "trial {trial}: BnP3 {:.2} must not trail no-mitigation {:.2}",
                b.accuracy(),
                n.accuracy()
            );
        }
    }

    #[test]
    fn encode_test_set_rejects_mismatched_labels() {
        let (d, images, _) = tiny_deployment();
        assert!(d.encode_test_set(&images, &[0], 1).is_err());
    }

    #[test]
    fn mismatched_labels_rejected() {
        let (mut d, images, _) = tiny_deployment();
        let mut rng = seeded_rng(7);
        let err = d.evaluate(
            Technique::NoMitigation,
            &FaultScenario::clean(),
            &images,
            &[0],
            &mut rng,
        );
        assert!(err.is_err());
    }

    #[test]
    fn train_pipeline_produces_working_deployment() {
        // End-to-end smoke: tiny two-class problem through the full
        // train→assign→quantize→deploy path.
        let cfg = SnnConfig::builder()
            .n_inputs(16)
            .n_neurons(8)
            .v_thresh(2.0)
            .v_leak(0.1)
            .v_inh(4.0)
            .theta_plus(0.3)
            .timesteps(40)
            .max_rate(0.5)
            .build()
            .unwrap();
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for k in 0..30 {
            let mut img = vec![0.0_f32; 16];
            let class = k % 2;
            for i in 0..8 {
                img[class * 8 + i] = 0.9;
            }
            images.push(img);
            labels.push(class);
        }
        let mut d = SoftSnnDeployment::train(
            cfg,
            &images,
            &labels,
            TrainPipelineOptions {
                epochs: 3,
                n_classes: 2,
                seed: 11,
            },
        )
        .unwrap();
        let mut rng = seeded_rng(12);
        let r = d
            .evaluate(
                Technique::NoMitigation,
                &FaultScenario::clean(),
                &images,
                &labels,
                &mut rng,
            )
            .unwrap();
        assert!(
            r.accuracy() > 0.6,
            "trained toy accuracy {:.2}",
            r.accuracy()
        );
    }
}
