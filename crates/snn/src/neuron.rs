//! LIF neuron parameters.
//!
//! The membrane dynamics follow the *hardware* datapath of the paper's
//! Fig. 5: per timestep a neuron (1) integrates the summed weights of its
//! spiking inputs, (2) applies a subtractive leak, (3) compares against the
//! threshold, and on a spike (4) resets to `v_reset` and enters a
//! refractory period. The adaptive threshold `theta` (homeostasis) is
//! added on top of the base threshold during training.

use crate::config::SnnConfig;

/// Static LIF parameters shared by all neurons in a layer.
///
/// # Examples
///
/// ```
/// use snn_sim::config::SnnConfig;
/// use snn_sim::neuron::LifParams;
///
/// let cfg = SnnConfig::default();
/// let p = LifParams::from_config(&cfg);
/// assert_eq!(p.v_thresh, cfg.v_thresh);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifParams {
    /// Base firing threshold.
    pub v_thresh: f32,
    /// Reset potential after a spike.
    pub v_reset: f32,
    /// Subtractive leak per timestep.
    pub v_leak: f32,
    /// Refractory period in timesteps.
    pub t_refrac: u32,
}

impl LifParams {
    /// Extracts the LIF parameters from a network configuration.
    pub fn from_config(cfg: &SnnConfig) -> Self {
        Self {
            v_thresh: cfg.v_thresh,
            v_reset: cfg.v_reset,
            v_leak: cfg.v_leak,
            t_refrac: cfg.t_refrac,
        }
    }
}
