//! # SoftSNN — low-cost fault tolerance for SNN accelerators under soft
//! errors (DAC 2022), reproduced in Rust
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`sim`] | `snn-sim` | functional SNN simulator (LIF + STDP + homeostasis) |
//! | [`data`] | `snn-data` | MNIST/Fashion-MNIST-like workloads + IDX loader |
//! | [`hw`] | `snn-hw` | bit-accurate compute-engine model + cost models |
//! | [`faults`] | `snn-faults` | soft-error fault maps, injection, campaigns |
//! | [`core`] | `softsnn-core` | the SoftSNN methodology: analysis, BnP, protection |
//! | [`exp`] | `softsnn-exp` | per-figure experiment harness |
//!
//! ## Quickstart
//!
//! ```no_run
//! use softsnn::core::methodology::{FaultScenario, SoftSnnDeployment, TrainPipelineOptions};
//! use softsnn::core::mitigation::Technique;
//! use softsnn::data::synth_digits::SynthDigits;
//! use softsnn::faults::location::FaultDomain;
//! use softsnn::sim::config::SnnConfig;
//! use softsnn::sim::rng::seeded_rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Workload + network.
//! let train = SynthDigits::default().generate(1000, 1);
//! let test = SynthDigits::default().generate(100, 2);
//! let cfg = SnnConfig::builder().n_neurons(400).build()?;
//!
//! // 2. Train, assign, quantize, deploy.
//! let mut deployment = SoftSnnDeployment::train(
//!     cfg,
//!     train.images(),
//!     train.labels(),
//!     TrainPipelineOptions::default(),
//! )?;
//!
//! // 3. Evaluate BnP3 under soft errors in the compute engine.
//! let scenario = FaultScenario {
//!     domain: FaultDomain::ComputeEngine,
//!     rate: 0.01,
//!     seed: 42,
//! };
//! let result = deployment.evaluate(
//!     Technique::Bnp(softsnn::core::bounding::BnpVariant::Bnp3),
//!     &scenario,
//!     test.images(),
//!     test.labels(),
//!     &mut seeded_rng(7),
//! )?;
//! println!("accuracy under faults: {:.1}%", result.accuracy_pct());
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the architecture overview and the map from the
//! paper's figures to the binaries that regenerate them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use snn_data as data;
pub use snn_faults as faults;
pub use snn_hw as hw;
pub use snn_sim as sim;
pub use softsnn_core as core;
pub use softsnn_exp as exp;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use snn_data::workload::Workload;
    pub use snn_faults::location::{FaultDomain, FaultSpace};
    pub use snn_hw::engine::{ComputeEngine, DirectRead, NoGuard};
    pub use snn_sim::config::SnnConfig;
    pub use snn_sim::network::Network;
    pub use snn_sim::quant::QuantizedNetwork;
    pub use snn_sim::rng::seeded_rng;
    pub use softsnn_core::bounding::BnpVariant;
    pub use softsnn_core::methodology::{FaultScenario, SoftSnnDeployment, TrainPipelineOptions};
    pub use softsnn_core::mitigation::Technique;
}
