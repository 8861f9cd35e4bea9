//! # snn-hw — bit-accurate SNN accelerator compute-engine model
//!
//! This crate models the digital SNN accelerator of the paper's Fig. 2 and
//! Fig. 5 (based on the ODIN-style design of Frenkel et al. \[6\]):
//!
//! * a **synapse crossbar** of M×N 8-bit weight registers with per-column
//!   accumulation adders ([`crossbar`], [`weight_register`]),
//! * **LIF neuron datapaths** implementing the four operations the paper's
//!   fault model targets — `Vmem increase`, `Vmem leak`, `Vmem reset`, and
//!   `spike generation` — with per-operation fault flags ([`neuron_unit`]),
//! * the **compute engine** tying them together with direct lateral
//!   inhibition and integer arithmetic in weight-code units ([`engine`]),
//! * **tiling/mapping** of logical networks (784×N400…N3600) onto the
//!   physical 256×256 engine ([`mapping`]),
//! * and **cost models** for area, power/energy, and latency composed from
//!   a gate-equivalent component library ([`components`], [`area`],
//!   [`energy`], [`latency`], [`report`]) — the stand-in for the paper's
//!   Cadence Genus 65 nm synthesis flow (see [`components`] for the
//!   calibration rationale).
//!
//! The engine exposes two extension points used by the SoftSNN mitigation
//! in `softsnn-core`:
//!
//! * [`engine::WeightReadPath`] — intercepts every weight-register read
//!   (the Bound-and-Protect comparator+mux sits here), and
//! * [`engine::SpikeGuard`] — observes each neuron's `Vmem ≥ Vth`
//!   comparator output and can veto spike generation (the faulty-reset
//!   monitor sits here).
//!
//! ```
//! use snn_hw::engine::{ComputeEngine, DirectRead, NoGuard};
//! use snn_sim::quant::QuantizedNetwork;
//! use snn_sim::spike::SpikeTrain;
//! use snn_sim::{config::SnnConfig, network::Network, rng::seeded_rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SnnConfig::builder().n_inputs(16).n_neurons(4).build()?;
//! let net = Network::new(cfg, &mut seeded_rng(0));
//! let qn = QuantizedNetwork::from_network_default(&net);
//! let mut engine = ComputeEngine::for_network(&qn)?;
//! let mut train = SpikeTrain::new(16, 1);
//! train.push_step(vec![0, 1, 2]);
//! let counts = engine.run_sample_into(&train, &DirectRead, &mut NoGuard);
//! assert_eq!(counts.len(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod backend;
pub mod components;
pub mod crossbar;
pub mod energy;
pub mod engine;
pub mod error;
pub mod event;
pub mod kernels;
pub mod latency;
pub mod mapping;
pub mod neuron_lanes;
pub mod neuron_unit;
pub mod params;
pub mod report;
pub mod weight_register;

pub use backend::{AnyBackend, EngineBackend, EngineBackendKind};
pub use crossbar::Crossbar;
pub use engine::{ComputeEngine, DirectRead, NoGuard, ResolvedPath, SpikeGuard, WeightReadPath};
pub use error::HwError;
pub use event::EventEngine;
pub use mapping::Tiling;
pub use neuron_lanes::NeuronLanes;
pub use neuron_unit::{NeuronOp, NeuronUnit, OpFaults};
pub use params::EngineConfig;
