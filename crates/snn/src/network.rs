//! The fully connected excitatory layer with direct lateral inhibition.
//!
//! Weight layout is row-major by *input*: `weights[i * n_neurons + j]` is
//! the synapse from input `i` to neuron `j`. This matches the synapse
//! crossbar of the paper's Fig. 5 (rows = inputs, columns = neurons) and
//! makes the per-timestep accumulation `acc[j] += w[i][j]` over spiking
//! rows contiguous and cache-friendly.
//!
//! # Fast path vs. reference
//!
//! Like the hardware engine (`snn_hw::engine`), the network keeps two
//! formulations of its hot path:
//!
//! * [`Network::step`] / [`Network::run_sample_into`] — the optimized
//!   trainer datapath: allocation-free per step, a vectorized neuron
//!   phase (below), layout-aware plasticity (a lazily maintained
//!   transposed weight view gives [`apply_post_spike_stdp`] contiguous
//!   column reads, and per-neuron incoming-weight sums are maintained
//!   incrementally so [`Network::normalize_weights`] skips its `O(m·n)`
//!   re-summation), and an internal counts buffer.
//! * [`Network::step_reference`] / [`Network::run_sample_reference`] /
//!   [`Network::normalize_weights_reference`] — the original
//!   formulation, retained as the behavioral oracle.
//!
//! The two are spike-for-spike *and* weight-for-weight (bit-for-bit)
//! identical; `crates/snn/tests/proptest_trainer_equivalence.rs` proves
//! it across plastic/frozen × normalization on/off.
//! Any future change to the fast path must keep those properties green.
//!
//! # Vectorized neuron phase
//!
//! The neuron state is one structure of arrays, `v` and `refrac`, read by
//! both paths. The fast path runs the integrate → leak → compare pass and
//! lateral inhibition as one private helper per 64-neuron word, after
//! `snn_hw::neuron_lanes`: the helpers take slices (which LLVM may assume
//! disjoint), use selects only, and return or take spike bits as `u64`
//! words. An f32 add, subtract, multiply or compare gives the same bits in
//! a SIMD lane as in scalar code, and each neuron's operations keep the
//! reference's order, so results stay bit-identical. The floor at zero is
//! `f32::max(x, 0.0)` written as a select that returns `x` when `x > 0.0`
//! and `+0.0` otherwise (NaN included); `-0.0` never reaches it, because a
//! membrane only holds `-0.0` as a reset value, and both the integrate
//! (`-0.0 + acc` with `acc` starting at `+0.0`) and inhibition (a positive
//! subtrahend) move it off `-0.0` first. Check the linked binary with
//! `objdump -d target/release/fig13` for packed (`ps`) float instructions
//! in `Network::step_impl`.
//!
//! [`apply_post_spike_stdp`]: Network::step

use crate::config::SnnConfig;
use crate::error::SnnError;
use crate::homeostasis::Homeostasis;
use crate::neuron::LifParams;
use crate::rng::Rng;
use crate::spike::{pack_bytes, spread_word, SpikeTrain};
use crate::stdp::{post_only_new_weight, Traces};
use rand::Rng as _;

/// The fully connected SNN of the paper's Fig. 1(a): `n_inputs` channels →
/// `n_neurons` excitatory LIF neurons with direct lateral inhibition,
/// adaptive thresholds, and (optionally) STDP plasticity.
///
/// # Examples
///
/// ```
/// use snn_sim::config::SnnConfig;
/// use snn_sim::network::Network;
/// use snn_sim::rng::seeded_rng;
///
/// # fn main() -> Result<(), snn_sim::error::SnnError> {
/// let cfg = SnnConfig::builder().n_inputs(16).n_neurons(4).build()?;
/// let mut net = Network::new(cfg, &mut seeded_rng(0));
/// let fired = net.step(&[0, 1, 2, 3]);
/// assert!(fired.len() <= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cfg: SnnConfig,
    params: LifParams,
    weights: Vec<f32>,
    homeostasis: Homeostasis,
    /// Membrane potentials, one per neuron.
    v: Vec<f32>,
    /// Remaining refractory steps, one per neuron (0 = integrating).
    refrac: Vec<u32>,
    pre_traces: Traces,
    plastic: bool,
    // --- fast-path state below; never observable through the public API.
    /// Transposed (neuron-major) weight view: `weights_t[j * m + i]`.
    /// Column `j` is valid only when `col_epoch[j] == epoch`; refreshed
    /// lazily on the first post-spike STDP update after a whole-matrix
    /// write, so repeated updates to the same winner read contiguously.
    weights_t: Vec<f32>,
    col_epoch: Vec<u64>,
    epoch: u64,
    /// Per-neuron incoming-weight sums, maintained incrementally across
    /// STDP column rewrites (bit-identical to a fresh input-order
    /// re-summation) while `sums_valid`.
    col_sums: Vec<f32>,
    sums_valid: bool,
    acc: Vec<f32>,
    fired: Vec<u32>,
    /// One bit per neuron: the step's threshold crossers, then the ones
    /// that fire.
    fired_words: Vec<u64>,
    counts: Vec<u32>,
    norm_scale: Vec<f32>,
}

impl Network {
    /// Creates a network with uniformly random initial weights drawn from
    /// `cfg.w_init`.
    pub fn new(cfg: SnnConfig, rng: &mut Rng) -> Self {
        let n_syn = cfg.n_synapses();
        let (lo, hi) = cfg.w_init;
        let weights = (0..n_syn)
            .map(|_| if hi > lo { rng.gen_range(lo..hi) } else { lo })
            .collect();
        Self::from_parts(cfg, weights).expect("generated weights always match shape")
    }

    /// Creates a network from explicit weights (row-major by input).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if `weights.len()` is not
    /// `cfg.n_synapses()`.
    pub fn from_parts(cfg: SnnConfig, weights: Vec<f32>) -> Result<Self, SnnError> {
        if weights.len() != cfg.n_synapses() {
            return Err(SnnError::ShapeMismatch {
                expected: cfg.n_synapses(),
                actual: weights.len(),
                what: "weights",
            });
        }
        let n = cfg.n_neurons;
        let m = cfg.n_inputs;
        let params = LifParams::from_config(&cfg);
        let homeostasis = Homeostasis::new(n, cfg.theta_plus, cfg.theta_decay);
        let pre_traces = Traces::new(m, cfg.stdp.trace_decay, cfg.stdp.trace_max);
        Ok(Self {
            cfg,
            params,
            weights,
            homeostasis,
            v: vec![0.0; n],
            refrac: vec![0; n],
            pre_traces,
            plastic: true,
            weights_t: vec![0.0; m * n],
            col_epoch: vec![0; n],
            epoch: 1,
            col_sums: vec![0.0; n],
            sums_valid: false,
            acc: vec![0.0; n],
            fired: Vec::with_capacity(n),
            fired_words: vec![0; n.div_ceil(64)],
            counts: vec![0; n],
            norm_scale: vec![0.0; n],
        })
    }

    /// The network configuration.
    pub fn cfg(&self) -> &SnnConfig {
        &self.cfg
    }

    /// All weights, row-major by input (`weights[i * n_neurons + j]`).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The weight from `input` to `neuron`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn weight(&self, input: usize, neuron: usize) -> f32 {
        assert!(input < self.cfg.n_inputs && neuron < self.cfg.n_neurons);
        self.weights[input * self.cfg.n_neurons + neuron]
    }

    /// The adaptive-threshold components (one per neuron).
    pub fn thetas(&self) -> &[f32] {
        self.homeostasis.thetas()
    }

    /// Current pre-synaptic trace values (one per input; for tests and
    /// inspection).
    pub fn pre_trace_values(&self) -> &[f32] {
        self.pre_traces.values()
    }

    /// The effective firing threshold of neuron `j` (base + adaptive).
    pub fn effective_threshold(&self, j: usize) -> f32 {
        self.cfg.v_thresh + self.homeostasis.theta(j)
    }

    /// Current membrane potential of neuron `j` (for tests/inspection).
    pub fn membrane(&self, j: usize) -> f32 {
        self.v[j]
    }

    /// Enables STDP plasticity and homeostasis adaptation (training mode).
    pub fn set_plastic(&mut self) {
        self.plastic = true;
        self.homeostasis.unfreeze();
    }

    /// Disables STDP plasticity and homeostasis adaptation (inference mode).
    pub fn set_frozen(&mut self) {
        self.plastic = false;
        self.homeostasis.freeze();
    }

    /// Whether the network is currently plastic.
    pub fn is_plastic(&self) -> bool {
        self.plastic
    }

    /// Clears membrane potentials, refractory counters, and traces, but
    /// keeps the learned weights and adaptive thresholds.
    pub fn reset_transient(&mut self) {
        self.v.fill(0.0);
        self.refrac.fill(0);
        self.pre_traces.reset();
    }

    /// Marks every derived weight structure (transposed view, column sums)
    /// stale. Called after any weight mutation that bypasses the fast
    /// path's own bookkeeping.
    fn invalidate_weight_caches(&mut self) {
        self.sums_valid = false;
        self.epoch += 1;
    }

    /// Advances the network by one timestep given the spiking input
    /// channels, returning the indices of neurons that fired.
    ///
    /// This is the optimized, allocation-free hot path; the returned slice
    /// borrows internal scratch and is valid until the next `step` /
    /// `run_sample*` call. Spike-for-spike and weight-for-weight identical
    /// to [`Network::step_reference`] (property-tested).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any input index is out of range.
    pub fn step(&mut self, active_inputs: &[u32]) -> &[u32] {
        self.step_impl(active_inputs);
        &self.fired
    }

    fn step_impl(&mut self, active_inputs: &[u32]) {
        let n = self.cfg.n_neurons;

        // 1. Synaptic drive: column-accumulate the weights of spiking rows.
        self.acc.iter_mut().for_each(|a| *a = 0.0);
        for &i in active_inputs {
            let i = i as usize;
            debug_assert!(i < self.cfg.n_inputs, "input index out of range");
            let row = &self.weights[i * n..(i + 1) * n];
            for (a, &w) in self.acc.iter_mut().zip(row) {
                *a += w;
            }
        }

        // 2. Trace bookkeeping: decay, then register the current spikes.
        self.pre_traces.decay_step();
        self.pre_traces.on_spikes(active_inputs);

        // 3. Neuron updates: integrate + leak everyone, mark threshold
        //    crossers, then decide who actually fires.
        let (v_leak, v_thresh) = (self.params.v_leak, self.cfg.v_thresh);
        {
            let Network {
                v,
                refrac,
                acc,
                homeostasis,
                fired_words,
                ..
            } = self;
            let words = v
                .chunks_mut(64)
                .zip(refrac.chunks_mut(64))
                .zip(acc.chunks(64).zip(homeostasis.thetas().chunks(64)));
            for (word, ((v, refrac), (acc, theta))) in fired_words.iter_mut().zip(words) {
                *word = integrate_word(v, refrac, acc, theta, v_leak, v_thresh);
            }
        }
        // Training-time WTA tie-break: simultaneous crossers would escape
        // lateral inhibition and learn identical receptive fields, so only
        // the highest-membrane crosser fires while plastic. Inference fires
        // every crosser, matching the hardware engine.
        self.fired.clear();
        for (w, &word) in self.fired_words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.fired.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if self.plastic && self.cfg.single_winner_training && self.fired.len() > 1 {
            let v = &self.v;
            let winner = self
                .fired
                .iter()
                .copied()
                .max_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize]))
                .expect("more than one crosser");
            self.fired.clear();
            self.fired.push(winner);
            self.fired_words.fill(0);
            self.fired_words[(winner >> 6) as usize] = 1 << (winner & 63);
        }
        for &j in &self.fired {
            self.v[j as usize] = self.params.v_reset;
            self.refrac[j as usize] = self.params.t_refrac;
        }

        // 4. Spike side effects: homeostasis and STDP potentiation.
        for k in 0..self.fired.len() {
            let j = self.fired[k] as usize;
            self.homeostasis.on_spike(j);
            if self.plastic {
                self.apply_post_spike_stdp_fast(j);
            }
        }

        // 5. Direct lateral inhibition: every spike subtracts `v_inh` from
        //    all *other* neurons' membranes (floored at 0).
        if !self.fired.is_empty() && self.cfg.v_inh > 0.0 {
            let total_inh = self.cfg.v_inh * self.fired.len() as f32;
            for (v, &word) in self.v.chunks_mut(64).zip(&self.fired_words) {
                inhibit_word(v, word, total_inh);
            }
        }

        // 6. Slow homeostatic decay.
        self.homeostasis.decay();
    }

    /// Reference formulation of [`Network::step`]: the original
    /// per-step-allocating scalar implementation, retained as the
    /// behavioral oracle for the equivalence proptests.
    pub fn step_reference(&mut self, active_inputs: &[u32]) -> Vec<u32> {
        // The reference path mutates weights outside the fast path's
        // bookkeeping, so every derived structure is stale afterwards.
        self.invalidate_weight_caches();
        let n = self.cfg.n_neurons;

        // 1. Synaptic drive: column-accumulate the weights of spiking rows.
        self.acc.iter_mut().for_each(|a| *a = 0.0);
        for &i in active_inputs {
            let i = i as usize;
            debug_assert!(i < self.cfg.n_inputs, "input index out of range");
            let row = &self.weights[i * n..(i + 1) * n];
            for (a, &w) in self.acc.iter_mut().zip(row) {
                *a += w;
            }
        }

        // 2. Trace bookkeeping: decay, then register the current spikes.
        self.pre_traces.decay_step();
        self.pre_traces.on_spikes(active_inputs);

        // 3. Neuron updates: integrate + leak everyone, collect threshold
        //    crossers, then decide who actually fires.
        let mut crossers: Vec<u32> = Vec::new();
        for j in 0..n {
            if self.refrac[j] > 0 {
                self.refrac[j] -= 1;
                continue;
            }
            self.v[j] += self.acc[j];
            self.v[j] = (self.v[j] - self.params.v_leak).max(0.0);
            if self.v[j] >= self.cfg.v_thresh + self.homeostasis.theta(j) {
                crossers.push(j as u32);
            }
        }
        let fired: Vec<u32> =
            if self.plastic && self.cfg.single_winner_training && crossers.len() > 1 {
                let winner = crossers
                    .iter()
                    .copied()
                    .max_by(|&a, &b| self.v[a as usize].total_cmp(&self.v[b as usize]))
                    .expect("crossers nonempty");
                vec![winner]
            } else {
                crossers
            };
        for &j in &fired {
            self.v[j as usize] = self.params.v_reset;
            self.refrac[j as usize] = self.params.t_refrac;
        }

        // 4. Spike side effects: homeostasis and STDP potentiation.
        for &j in &fired {
            let j = j as usize;
            self.homeostasis.on_spike(j);
            if self.plastic {
                self.apply_post_spike_stdp(j);
            }
        }

        // 5. Direct lateral inhibition: every spike subtracts `v_inh` from
        //    all *other* neurons' membranes (floored at 0).
        if !fired.is_empty() && self.cfg.v_inh > 0.0 {
            let total_inh = self.cfg.v_inh * fired.len() as f32;
            let mut is_fired = vec![false; n];
            for &j in &fired {
                is_fired[j as usize] = true;
            }
            for (j, v) in self.v.iter_mut().enumerate() {
                if !is_fired[j] {
                    *v = (*v - total_inh).max(0.0);
                }
            }
        }

        // 6. Slow homeostatic decay.
        self.homeostasis.decay();

        fired
    }

    /// Reference post-spike STDP: strided column walk through the
    /// row-major weights (the oracle for
    /// [`apply_post_spike_stdp_fast`](Network::step)).
    fn apply_post_spike_stdp(&mut self, j: usize) {
        let n = self.cfg.n_neurons;
        let w_max = self.cfg.w_max;
        let cfg = self.cfg.stdp;
        for (i, &x_pre) in self.pre_traces.values().iter().enumerate() {
            let w = &mut self.weights[i * n + j];
            *w = post_only_new_weight(&cfg, w_max, x_pre, *w);
        }
    }

    /// Fast post-spike STDP. Reads neuron `j`'s incoming weights through
    /// the transposed view (contiguous; refreshed lazily on the first
    /// update after a whole-matrix write, so the repeated winners that
    /// single-winner training produces pay the strided gather once),
    /// scattering the new column back into the row-major store. It
    /// maintains the column's incoming-weight sum, accumulated in input
    /// order so it stays bit-identical to a fresh re-summation.
    fn apply_post_spike_stdp_fast(&mut self, j: usize) {
        let n = self.cfg.n_neurons;
        let m = self.cfg.n_inputs;
        let w_max = self.cfg.w_max;
        let stdp = self.cfg.stdp;
        let mut sum = 0.0_f32;
        if self.col_epoch[j] != self.epoch {
            let Network {
                weights, weights_t, ..
            } = self;
            let col = &mut weights_t[j * m..(j + 1) * m];
            for (i, w) in col.iter_mut().enumerate() {
                *w = weights[i * n + j];
            }
            self.col_epoch[j] = self.epoch;
        }
        {
            let Network {
                weights,
                weights_t,
                pre_traces,
                ..
            } = self;
            let col = &mut weights_t[j * m..(j + 1) * m];
            for (i, (w, &x_pre)) in col.iter_mut().zip(pre_traces.values()).enumerate() {
                *w = post_only_new_weight(&stdp, w_max, x_pre, *w);
                sum += *w;
                weights[i * n + j] = *w;
            }
        }
        if self.sums_valid {
            self.col_sums[j] = sum;
        }
    }

    /// Presents one encoded sample, returning per-neuron output spike
    /// counts. Transient state is reset before the sample and the network
    /// rests for `cfg.rest_steps` silent steps afterwards.
    pub fn run_sample(&mut self, train: &SpikeTrain) -> Vec<u32> {
        self.run_sample_into(train).to_vec()
    }

    /// Allocation-free [`Network::run_sample`]: the returned counts slice
    /// borrows an internal buffer and is valid until the next `step` /
    /// `run_sample*` call.
    pub fn run_sample_into(&mut self, train: &SpikeTrain) -> &[u32] {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.reset_transient();
        for s in 0..train.n_steps() {
            self.step_impl(train.step(s));
            let Network { fired, counts, .. } = self;
            for &j in fired.iter() {
                counts[j as usize] += 1;
            }
        }
        for _ in 0..self.cfg.rest_steps {
            self.step_impl(&[]);
        }
        &self.counts
    }

    /// Reference formulation of [`Network::run_sample`], built on
    /// [`Network::step_reference`]; the behavioral oracle.
    pub fn run_sample_reference(&mut self, train: &SpikeTrain) -> Vec<u32> {
        let mut counts = vec![0_u32; self.cfg.n_neurons];
        self.reset_transient();
        for step in train.iter() {
            for j in self.step_reference(step) {
                counts[j as usize] += 1;
            }
        }
        for _ in 0..self.cfg.rest_steps {
            self.step_reference(&[]);
        }
        counts
    }

    /// Presents one sample with plasticity temporarily disabled, restoring
    /// the previous mode afterwards. Use for assignment and evaluation.
    pub fn run_sample_frozen(&mut self, train: &SpikeTrain) -> Vec<u32> {
        self.run_sample_frozen_into(train).to_vec()
    }

    /// Allocation-free [`Network::run_sample_frozen`]: the returned counts
    /// slice borrows an internal buffer and is valid until the next
    /// `step` / `run_sample*` call.
    pub fn run_sample_frozen_into(&mut self, train: &SpikeTrain) -> &[u32] {
        let was_plastic = self.plastic;
        self.set_frozen();
        let _ = self.run_sample_into(train);
        if was_plastic {
            self.set_plastic();
        }
        &self.counts
    }

    /// Replaces the weights wholesale (e.g. to load a checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] on length mismatch.
    pub fn set_weights(&mut self, weights: Vec<f32>) -> Result<(), SnnError> {
        if weights.len() != self.cfg.n_synapses() {
            return Err(SnnError::ShapeMismatch {
                expected: self.cfg.n_synapses(),
                actual: weights.len(),
                what: "weights",
            });
        }
        self.weights = weights;
        self.invalidate_weight_caches();
        Ok(())
    }

    /// Maximum weight in the network (the clean SNN's `wgh_max` when called
    /// on a trained, fault-free network).
    pub fn max_weight(&self) -> f32 {
        self.weights.iter().copied().fold(0.0, f32::max)
    }

    /// Divisive weight normalization (Diehl & Cook): rescales every
    /// neuron's incoming weights so their sum equals
    /// `cfg.norm_frac * n_inputs`. A no-op when `norm_frac == 0` or a
    /// neuron's weights sum to zero. Individual weights are capped at
    /// `w_max` after scaling.
    ///
    /// Called by the trainer after every sample; exposed publicly so custom
    /// training loops can do the same.
    ///
    /// This is the layout-aware fast path: when the maintained per-neuron
    /// sums are valid (training between normalizes keeps them
    /// bit-exact) the `O(m·n)` summation pass is skipped entirely, and the
    /// scale pass walks the row-major weights contiguously with a
    /// per-column scale table instead of striding column by column.
    /// Bit-identical to [`Network::normalize_weights_reference`]
    /// (property-tested).
    pub fn normalize_weights(&mut self) {
        if self.cfg.norm_frac <= 0.0 {
            return;
        }
        let target = self.cfg.norm_frac * self.cfg.n_inputs as f32;
        let n = self.cfg.n_neurons;
        let m = self.cfg.n_inputs;
        let w_max = self.cfg.w_max;
        if !self.sums_valid {
            self.col_sums.iter_mut().for_each(|s| *s = 0.0);
            for i in 0..m {
                let row = &self.weights[i * n..(i + 1) * n];
                for (s, &w) in self.col_sums.iter_mut().zip(row) {
                    *s += w;
                }
            }
        }
        // NaN marks "leave this column untouched" (sum <= 0), matching the
        // reference's skip branch exactly.
        for (scale, &sum) in self.norm_scale.iter_mut().zip(&self.col_sums) {
            *scale = if sum > 0.0 { target / sum } else { f32::NAN };
        }
        // One contiguous pass: scale + cap each element, re-accumulating
        // the new per-column sums in input order as we go (bit-identical
        // to a fresh column-by-column re-summation).
        self.col_sums.iter_mut().for_each(|s| *s = 0.0);
        {
            let Network {
                weights,
                col_sums,
                norm_scale,
                ..
            } = self;
            for i in 0..m {
                let row = &mut weights[i * n..(i + 1) * n];
                for ((w, &scale), sum) in row
                    .iter_mut()
                    .zip(norm_scale.iter())
                    .zip(col_sums.iter_mut())
                {
                    if !scale.is_nan() {
                        *w = (*w * scale).min(w_max);
                    }
                    *sum += *w;
                }
            }
        }
        self.sums_valid = true;
        // Whole-matrix write: the transposed view is stale everywhere.
        self.epoch += 1;
    }

    /// Reference formulation of [`Network::normalize_weights`]: the
    /// original strided column-by-column implementation, retained as the
    /// behavioral oracle.
    pub fn normalize_weights_reference(&mut self) {
        self.invalidate_weight_caches();
        if self.cfg.norm_frac <= 0.0 {
            return;
        }
        let target = self.cfg.norm_frac * self.cfg.n_inputs as f32;
        let n = self.cfg.n_neurons;
        let m = self.cfg.n_inputs;
        let w_max = self.cfg.w_max;
        for j in 0..n {
            let mut sum = 0.0_f32;
            for i in 0..m {
                sum += self.weights[i * n + j];
            }
            if sum > 0.0 {
                let scale = target / sum;
                for i in 0..m {
                    let w = &mut self.weights[i * n + j];
                    *w = (*w * scale).min(w_max);
                }
            }
        }
    }

    /// The sum of incoming weights for neuron `j`.
    pub fn weight_sum(&self, j: usize) -> f32 {
        let n = self.cfg.n_neurons;
        (0..self.cfg.n_inputs)
            .map(|i| self.weights[i * n + j])
            .sum()
    }

    /// Replaces the adaptive-threshold components wholesale (checkpoint
    /// restore).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] on length mismatch.
    pub fn set_thetas(&mut self, thetas: &[f32]) -> Result<(), SnnError> {
        if thetas.len() != self.cfg.n_neurons {
            return Err(SnnError::ShapeMismatch {
                expected: self.cfg.n_neurons,
                actual: thetas.len(),
                what: "thetas",
            });
        }
        self.homeostasis.set_thetas(thetas);
        Ok(())
    }
}

// The neuron phase's loop bodies, one 64-neuron word each (see the module
// docs' *Vectorized neuron phase*).

/// `f32::max(x, 0.0)` as a select: `x` when `x > 0.0`, else `+0.0` (NaN
/// included).
#[inline(always)]
fn floor_zero(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Integrate → leak → compare over one word: a neuron that is not
/// refractory adds its drive, loses `v_leak` (floored at 0) and crosses
/// when it reaches `v_thresh + theta`; a refractory one only counts down.
/// Returns the crosser bits (bit `j` for neuron `j` of the word).
#[inline(always)]
fn integrate_word(
    v: &mut [f32],
    refrac: &mut [u32],
    acc: &[f32],
    theta: &[f32],
    v_leak: f32,
    v_thresh: f32,
) -> u64 {
    let m = v.len();
    let (refrac, acc, theta) = (&mut refrac[..m], &acc[..m], &theta[..m]);
    let mut hot = [0_u8; 64];
    let hot_m = &mut hot[..m];
    for j in 0..m {
        let r = refrac[j];
        let active = r == 0;
        let x = floor_zero((v[j] + acc[j]) - v_leak);
        let cross = active & (x >= v_thresh + theta[j]);
        v[j] = if active { x } else { v[j] };
        refrac[j] = r.saturating_sub(1);
        hot_m[j] = u8::from(cross);
    }
    pack_bytes(&hot)
}

/// Lateral inhibition over one word: every neuron whose `fired` bit is
/// clear drops by `total_inh`, floored at 0.
#[inline(always)]
fn inhibit_word(v: &mut [f32], fired: u64, total_inh: f32) {
    let m = v.len();
    let fired = spread_word(fired);
    let fired = &fired[..m];
    for j in 0..m {
        let x = floor_zero(v[j] - total_inh);
        v[j] = if fired[j] != 0 { v[j] } else { x };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn tiny_cfg() -> SnnConfig {
        SnnConfig::builder()
            .n_inputs(8)
            .n_neurons(4)
            .v_thresh(2.0)
            .v_leak(0.1)
            .v_inh(1.0)
            .t_refrac(2)
            .timesteps(20)
            .rest_steps(5)
            .w_init((0.2, 0.4))
            .build()
            .unwrap()
    }

    #[test]
    fn new_network_has_weights_in_init_range() {
        let cfg = tiny_cfg();
        let net = Network::new(cfg.clone(), &mut seeded_rng(1));
        assert_eq!(net.weights().len(), cfg.n_synapses());
        assert!(net
            .weights()
            .iter()
            .all(|&w| (cfg.w_init.0..=cfg.w_init.1).contains(&w)));
    }

    #[test]
    fn from_parts_rejects_wrong_shape() {
        let cfg = tiny_cfg();
        assert!(matches!(
            Network::from_parts(cfg, vec![0.0; 3]),
            Err(SnnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn strong_drive_makes_neurons_fire() {
        let cfg = tiny_cfg();
        let mut net = Network::from_parts(cfg.clone(), vec![0.5; cfg.n_synapses()]).unwrap();
        net.set_frozen();
        let mut total = 0;
        for _ in 0..20 {
            total += net.step(&[0, 1, 2, 3, 4, 5, 6, 7]).len();
        }
        assert!(total > 0, "saturating input must elicit spikes");
    }

    #[test]
    fn no_input_no_spikes() {
        let cfg = tiny_cfg();
        let mut net = Network::new(cfg, &mut seeded_rng(1));
        net.set_frozen();
        for _ in 0..50 {
            assert!(net.step(&[]).is_empty());
        }
    }

    #[test]
    fn lateral_inhibition_suppresses_losers() {
        let cfg = SnnConfig::builder()
            .n_inputs(2)
            .n_neurons(2)
            .v_thresh(1.0)
            .v_leak(0.0)
            .v_inh(10.0)
            .t_refrac(0)
            .build()
            .unwrap();
        // Neuron 0 fires every step (drive 1.2); neuron 1 alone would fire
        // every other step (drive 0.8), but the winner's inhibition knocks
        // its membrane back to zero each step, so it should stay silent.
        let weights = vec![
            0.6, 0.4, // input 0 -> (n0, n1)
            0.6, 0.4, // input 1 -> (n0, n1)
        ];
        let mut net = Network::from_parts(cfg, weights).unwrap();
        net.set_frozen();
        let mut n0 = 0;
        let mut n1 = 0;
        for _ in 0..50 {
            for &j in net.step(&[0, 1]) {
                if j == 0 {
                    n0 += 1;
                } else {
                    n1 += 1;
                }
            }
        }
        assert!(n0 > 0);
        assert!(
            n1 < n0,
            "inhibited neuron must fire less (n0={n0}, n1={n1})"
        );
    }

    #[test]
    fn stdp_moves_weights_toward_active_inputs() {
        let mut cfg = tiny_cfg();
        cfg.v_inh = 0.0;
        cfg.stdp.eta_post = 0.5;
        let mut net = Network::from_parts(cfg.clone(), vec![0.3; cfg.n_synapses()]).unwrap();
        net.set_plastic();
        // Drive only inputs 0..4 for many steps.
        for _ in 0..200 {
            net.step(&[0, 1, 2, 3]);
        }
        let n = cfg.n_neurons;
        let active_mean: f32 = (0..4).map(|i| net.weights()[i * n]).sum::<f32>() / 4.0;
        let silent_mean: f32 = (4..8).map(|i| net.weights()[i * n]).sum::<f32>() / 4.0;
        assert!(
            active_mean > silent_mean,
            "active inputs should out-learn silent ones ({active_mean} vs {silent_mean})"
        );
    }

    #[test]
    fn weights_stay_bounded_during_training() {
        let cfg = tiny_cfg();
        let mut net = Network::new(cfg.clone(), &mut seeded_rng(2));
        let mut rng = seeded_rng(3);
        for _ in 0..300 {
            let active: Vec<u32> = (0..8_u32)
                .filter(|_| rand::Rng::gen_bool(&mut rng, 0.3))
                .collect();
            net.step(&active);
        }
        assert!(net
            .weights()
            .iter()
            .all(|&w| (0.0..=cfg.w_max).contains(&w)));
    }

    #[test]
    fn frozen_network_does_not_learn() {
        let cfg = tiny_cfg();
        let mut net = Network::new(cfg, &mut seeded_rng(4));
        net.set_frozen();
        let before = net.weights().to_vec();
        for _ in 0..100 {
            net.step(&[0, 1, 2, 3, 4, 5, 6, 7]);
        }
        assert_eq!(net.weights(), before.as_slice());
    }

    #[test]
    fn run_sample_counts_match_manual_stepping() {
        let cfg = tiny_cfg();
        let mut train = SpikeTrain::new(8, 3);
        train.push_step(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        train.push_step(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        train.push_step(vec![0, 1, 2, 3, 4, 5, 6, 7]);

        let mut a = Network::from_parts(cfg.clone(), vec![0.4; cfg.n_synapses()]).unwrap();
        a.set_frozen();
        let counts = a.run_sample(&train);

        let mut b = Network::from_parts(cfg.clone(), vec![0.4; cfg.n_synapses()]).unwrap();
        b.set_frozen();
        b.reset_transient();
        let mut manual = vec![0_u32; 4];
        for step in train.iter() {
            for &j in b.step(step) {
                manual[j as usize] += 1;
            }
        }
        assert_eq!(counts, manual);
    }

    #[test]
    fn run_sample_frozen_restores_plastic_mode() {
        let cfg = tiny_cfg();
        let mut net = Network::new(cfg, &mut seeded_rng(5));
        net.set_plastic();
        let train = SpikeTrain::new(8, 0);
        let _ = net.run_sample_frozen(&train);
        assert!(net.is_plastic());
    }

    #[test]
    fn max_weight_reports_maximum() {
        let cfg = tiny_cfg();
        let mut w = vec![0.1; cfg.n_synapses()];
        w[5] = 0.77;
        let net = Network::from_parts(cfg, w).unwrap();
        assert!((net.max_weight() - 0.77).abs() < 1e-6);
    }

    #[test]
    fn fast_normalize_matches_reference() {
        let cfg = SnnConfig::builder()
            .n_inputs(13)
            .n_neurons(5)
            .norm_frac(0.1)
            .build()
            .unwrap();
        let mut fast = Network::new(cfg.clone(), &mut seeded_rng(9));
        let mut slow = Network::from_parts(cfg, fast.weights().to_vec()).unwrap();
        for _ in 0..3 {
            fast.normalize_weights();
            slow.normalize_weights_reference();
            assert_eq!(fast.weights(), slow.weights());
        }
    }

    #[test]
    fn fast_normalize_matches_reference_after_set_weights() {
        // `set_weights` must invalidate the maintained column sums: the
        // next normalize has to re-sum the new weights, not reuse stale
        // sums from the old ones.
        let cfg = SnnConfig::builder()
            .n_inputs(6)
            .n_neurons(3)
            .norm_frac(0.2)
            .build()
            .unwrap();
        let mut fast = Network::new(cfg.clone(), &mut seeded_rng(10));
        fast.normalize_weights(); // sums now valid for the *old* weights
        let fresh: Vec<f32> = (0..cfg.n_synapses())
            .map(|k| 0.01 * (k + 1) as f32)
            .collect();
        fast.set_weights(fresh.clone()).unwrap();
        let mut slow = Network::from_parts(cfg, fresh).unwrap();
        fast.normalize_weights();
        slow.normalize_weights_reference();
        assert_eq!(fast.weights(), slow.weights());
    }

    #[test]
    fn normalize_skips_zero_columns_like_reference() {
        // Column 1 is all-zero: both paths must leave it untouched.
        let cfg = SnnConfig::builder()
            .n_inputs(3)
            .n_neurons(2)
            .norm_frac(0.5)
            .build()
            .unwrap();
        let w = vec![0.4, 0.0, 0.2, 0.0, 0.3, 0.0];
        let mut fast = Network::from_parts(cfg.clone(), w.clone()).unwrap();
        let mut slow = Network::from_parts(cfg, w).unwrap();
        fast.normalize_weights();
        slow.normalize_weights_reference();
        assert_eq!(fast.weights(), slow.weights());
        assert_eq!(fast.weight(0, 1), 0.0);
    }

    #[test]
    fn step_matches_reference_on_nan_weights_and_tied_crossers() {
        // Neurons 0, 1 and 3 get the same drive, so they cross with equal
        // membranes, and single-winner training must pick the last of them
        // as `max_by` does. Input 1's NaN weight makes neuron 2's membrane
        // NaN before the floor at zero, which maps it to 0.
        let cfg = SnnConfig::builder()
            .n_inputs(2)
            .n_neurons(4)
            .v_thresh(1.0)
            .v_leak(0.0)
            .v_inh(0.5)
            .t_refrac(1)
            .build()
            .unwrap();
        let weights = [[1.5, 1.5, 0.2, 1.5], [0.0, 0.0, f32::NAN, 0.0]].concat();
        for plastic in [true, false] {
            let mut fast = Network::from_parts(cfg.clone(), weights.clone()).unwrap();
            let mut slow = Network::from_parts(cfg.clone(), weights.clone()).unwrap();
            if !plastic {
                fast.set_frozen();
                slow.set_frozen();
            }
            for s in 0..6 {
                let a = fast.step(&[0, 1]).to_vec();
                let b = slow.step_reference(&[0, 1]);
                assert_eq!(a, b, "fired diverged at step {s} (plastic {plastic})");
                if s == 0 {
                    assert_eq!(a, if plastic { vec![3] } else { vec![0, 1, 3] });
                }
                for j in 0..4 {
                    assert_eq!(fast.membrane(j).to_bits(), slow.membrane(j).to_bits());
                }
                let bits = |net: &Network| {
                    net.weights()
                        .iter()
                        .map(|w| w.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&fast), bits(&slow));
            }
        }
    }

    #[test]
    fn floor_zero_is_f32_max_with_zero() {
        let xs = [
            0.0,
            1.5,
            -1.5,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for x in xs {
            assert_eq!(floor_zero(x).to_bits(), x.max(0.0).to_bits(), "{x}");
        }
        // `f32::max` may return either zero for `-0.0`; the select returns
        // `+0.0`, which never differs from the reference (see the module
        // docs).
        assert_eq!(floor_zero(-0.0).to_bits(), 0);
    }

    #[test]
    fn run_sample_into_matches_run_sample() {
        let cfg = tiny_cfg();
        let mut train = SpikeTrain::new(8, 2);
        train.push_step(vec![0, 1, 2, 3]);
        train.push_step(vec![4, 5, 6, 7]);
        let mut a = Network::new(cfg.clone(), &mut seeded_rng(6));
        let mut b = a.clone();
        let owned = a.run_sample(&train);
        let borrowed = b.run_sample_into(&train).to_vec();
        assert_eq!(owned, borrowed);
    }
}
