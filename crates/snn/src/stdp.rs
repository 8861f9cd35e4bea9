//! Trace-based, weight-dependent STDP learning rule.
//!
//! The rule is the Diehl-&-Cook-style one used by the unsupervised-MNIST
//! literature the paper builds on: all weight updates happen at
//! *post*-synaptic spike times, potentiating synapses whose pre-synaptic
//! trace is high and depressing the rest. Soft bounds keep every weight in
//! `[0, w_max]`, which is exactly the property the paper exploits ("the
//! employed STDP learning limits the weights in a certain range of
//! positive values", Sec. 3.1 footnote).

use crate::error::SnnError;

/// Configuration of the STDP learning rule.
///
/// # Examples
///
/// ```
/// use snn_sim::stdp::StdpConfig;
///
/// let cfg = StdpConfig { eta_post: 0.05, ..StdpConfig::default() };
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdpConfig {
    /// Learning rate for potentiation (at post spikes).
    pub eta_post: f32,
    /// Target pre-trace offset: inputs whose trace is below this get
    /// depressed at post spikes.
    pub x_offset: f32,
    /// Multiplicative per-step decay of the pre-synaptic traces.
    pub trace_decay: f32,
    /// Value a trace saturates to on a spike.
    pub trace_max: f32,
}

impl Default for StdpConfig {
    fn default() -> Self {
        Self {
            eta_post: 0.1,
            x_offset: 0.35,
            trace_decay: 0.9,
            trace_max: 1.0,
        }
    }
}

impl StdpConfig {
    /// Validates rates and decays.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if a rate is negative, a decay is
    /// outside `[0, 1]`, or `trace_max` is not positive.
    pub fn validate(&self) -> Result<(), SnnError> {
        fn bad(field: &'static str, reason: &str) -> SnnError {
            SnnError::InvalidConfig {
                field,
                reason: reason.to_owned(),
            }
        }
        if self.eta_post < 0.0 {
            return Err(bad("stdp.eta_post", "must be non-negative"));
        }
        if !(0.0..=1.0).contains(&self.trace_decay) {
            return Err(bad("stdp.trace_decay", "must be in [0, 1]"));
        }
        if self.trace_max <= 0.0 || self.trace_max.is_nan() {
            return Err(bad("stdp.trace_max", "must be positive"));
        }
        if self.x_offset < 0.0 || self.x_offset > self.trace_max {
            return Err(bad("stdp.x_offset", "must be in [0, trace_max]"));
        }
        Ok(())
    }
}

/// Exponentially decaying spike traces for a set of channels.
///
/// A trace jumps to `trace_max` when its channel spikes and decays by
/// `trace_decay` each timestep — a cheap proxy for "how recently did this
/// channel fire". The decay is one dense pass over every channel: at a
/// decay near 1 a trace takes hundreds of steps to reach zero, so nearly
/// every channel that spiked in a sample stays nonzero to its end, and a
/// contiguous multiply over all channels beats gathering the nonzero ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Traces {
    values: Vec<f32>,
    decay: f32,
    max: f32,
}

impl Traces {
    /// Creates zeroed traces for `n` channels.
    pub fn new(n: usize, decay: f32, max: f32) -> Self {
        Self {
            values: vec![0.0; n],
            decay,
            max,
        }
    }

    /// Current trace values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Trace of channel `i`.
    pub fn get(&self, i: usize) -> f32 {
        self.values[i]
    }

    /// Applies one step of exponential decay.
    pub fn decay_step(&mut self) {
        for v in &mut self.values {
            *v *= self.decay;
        }
    }

    /// Registers spikes on the given channels (traces saturate to `max`).
    pub fn on_spikes(&mut self, channels: &[u32]) {
        for &c in channels {
            self.values[c as usize] = self.max;
        }
    }

    /// Resets all traces to zero.
    pub fn reset(&mut self) {
        self.values.fill(0.0);
    }
}

/// Computes the new weight for one synapse after a post-synaptic spike
/// (the only STDP rule).
///
/// The weight moves by `η (x_pre − x_offset)`, scaled by `(w_max − w)` when
/// potentiating and by `w` when depressing, which keeps `w ∈ [0, w_max]`
/// invariant.
///
/// # Examples
///
/// ```
/// use snn_sim::stdp::{post_only_new_weight, StdpConfig};
///
/// let cfg = StdpConfig::default();
/// let potentiated = post_only_new_weight(&cfg, 1.0, 1.0, 0.5);
/// let depressed = post_only_new_weight(&cfg, 1.0, 0.0, 0.5);
/// assert!(potentiated > 0.5 && depressed < 0.5);
/// ```
#[inline]
pub fn post_only_new_weight(cfg: &StdpConfig, w_max: f32, x_pre: f32, w: f32) -> f32 {
    let drive = x_pre - cfg.x_offset;
    let dw = if drive >= 0.0 {
        cfg.eta_post * drive * (w_max - w)
    } else {
        cfg.eta_post * drive * w
    };
    (w + dw).clamp(0.0, w_max)
}

/// Applies the post-spike update in place over a contiguous weight slice
/// (one weight per pre-synaptic channel).
///
/// # Panics
///
/// Panics if `pre_traces` and `weights` differ in length.
pub fn post_only_update(cfg: &StdpConfig, w_max: f32, pre_traces: &[f32], weights: &mut [f32]) {
    assert_eq!(pre_traces.len(), weights.len());
    for (&x, w) in pre_traces.iter().zip(weights.iter_mut()) {
        *w = post_only_new_weight(cfg, w_max, x, *w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        StdpConfig::default().validate().unwrap();
    }

    #[test]
    fn negative_rate_rejected() {
        let cfg = StdpConfig {
            eta_post: -0.1,
            ..StdpConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn offset_above_trace_max_rejected() {
        let cfg = StdpConfig {
            x_offset: 2.0,
            trace_max: 1.0,
            ..StdpConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn traces_decay_exponentially() {
        let mut t = Traces::new(1, 0.5, 1.0);
        t.on_spikes(&[0]);
        t.decay_step();
        t.decay_step();
        assert!((t.get(0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn traces_saturate_on_spike() {
        let mut t = Traces::new(2, 0.9, 1.0);
        t.on_spikes(&[1]);
        t.on_spikes(&[1]);
        assert_eq!(t.get(1), 1.0);
        assert_eq!(t.get(0), 0.0);
    }

    #[test]
    fn post_only_potentiates_recent_inputs_and_depresses_stale_ones() {
        let cfg = StdpConfig::default();
        let mut weights = vec![0.5_f32, 0.5];
        let pre = vec![1.0_f32, 0.0]; // input 0 recently active, input 1 silent
        post_only_update(&cfg, 1.0, &pre, &mut weights);
        assert!(weights[0] > 0.5, "active input potentiated");
        assert!(weights[1] < 0.5, "silent input depressed");
    }

    #[test]
    fn post_only_respects_bounds() {
        let cfg = StdpConfig {
            eta_post: 10.0, // absurdly large rate to stress the bounds
            ..StdpConfig::default()
        };
        assert!(post_only_new_weight(&cfg, 1.0, 1.0, 0.999) <= 1.0);
        assert!(post_only_new_weight(&cfg, 1.0, 0.0, 0.001) >= 0.0);
    }

    #[test]
    fn traces_reset_to_zero() {
        let mut t = Traces::new(3, 0.9, 1.0);
        t.on_spikes(&[0, 2]);
        t.reset();
        assert!(t.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_decay_clears_traces_in_one_step() {
        let mut t = Traces::new(4, 0.0, 1.0);
        t.on_spikes(&[1, 3]);
        t.decay_step();
        assert!(t.values().iter().all(|&v| v.to_bits() == 0));
    }
}
