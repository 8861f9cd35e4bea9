//! # snn-faults — transient-fault (soft-error) modeling for SNN
//! accelerators
//!
//! Implements the paper's fault model (Sec. 2.2, Fig. 7):
//!
//! * **Potential fault locations** are every weight-register *bit* of the
//!   compute engine plus every neuron *operation* unit
//!   ([`location::FaultSpace`]).
//! * **Generation**: given a fault rate `r`, `round(r × locations)` sites
//!   are drawn uniformly at random without replacement from the location
//!   space ([`fault_map::FaultMap::generate`]), deterministically from a
//!   seed — one seed = one *fault map*.
//! * **Injection**: a weight-bit site flips the stored bit (persisting
//!   until the register is overwritten); a neuron-op site marks that
//!   operation fault-stuck (persisting until parameter replacement)
//!   ([`injector::inject`]).
//! * **Grids**: declarative (technique × rate × trial) campaign grids
//!   with deterministic per-point seeds, shard-local state reuse, and
//!   single-pass cell aggregation ([`grid`]) — the orchestration layer
//!   behind every figure harness. One cell executor
//!   ([`grid::GridRunner::run_cells`]) runs every grid under a
//!   [`grid::CellPolicy`], in memory or checkpointed by the campaign
//!   service ([`service`]).
//! * **Adaptive statistics**: streaming moments, pinned confidence
//!   bounds, and sequential stop rules ([`stats`]) let grid cells stop
//!   sampling trials once their accuracy interval is tight — consuming
//!   the pinned seed stream as an exact prefix.
//!
//! ```
//! use snn_faults::location::{FaultDomain, FaultSpace};
//! use snn_faults::fault_map::FaultMap;
//!
//! let space = FaultSpace::new(784, 400, FaultDomain::ComputeEngine);
//! let map = FaultMap::generate(&space, 0.001, 42);
//! assert!(map.len() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod fault_map;
pub mod grid;
pub mod injector;
pub mod location;
pub mod permanent;
pub mod rate;
pub mod service;
pub mod stats;

pub use codec::{Json, JsonCodec, JsonError};
pub use fault_map::FaultMap;
pub use grid::{
    Aggregate, CellKey, CellPolicy, CellRun, GridPointCtx, GridResults, GridRunner, GridSpec,
};
pub use injector::{inject, lower_overlay, InjectionSummary};
pub use location::{FaultDomain, FaultSite, FaultSpace, RawLocation};
pub use permanent::StuckAtMap;
pub use service::{CampaignService, JobHandle, RunOptions, RunOutcome, ServiceError};
pub use stats::{Lookahead, StatsError, StopRule, Streaming};
