//! The engine-backend abstraction: dense and event-driven engines,
//! interchangeable per workload.
//!
//! [`EngineBackend`] covers the evaluate entry points a deployment (or a
//! grid shard) drives — sample, batch, multi-map, the heal-on-entry
//! `reload_parameters`, and `reset_state` — so callers pick a backend
//! per workload without forking their evaluation code.
//! Its one implementation is [`AnyBackend`], the concrete closed-world
//! container (the trait's generic methods keep guard/path static
//! dispatch, so it cannot be a trait object), which forwards each entry
//! point to the inherent method of the same name on [`ComputeEngine`] or
//! [`EventEngine`]; [`AnyBackend::set_kind`] swaps representations in
//! place while preserving engine state, faults, and delay-free results
//! exactly.
//!
//! Picking a backend: the two differ only in single samples and delays.
//! Every delay-free trial group — batch or multi-map — runs the dense
//! [`ComputeEngine`]'s lane pass on either backend, which amortizes the
//! drive phase across samples and fault maps, weight-bearing maps
//! included. For single samples, the [`EventEngine`] skips the whole
//! neuron phase on provably-silent cycles and lazily replays leak, which
//! wins when most cycles are silent. It is also the only backend that can express per-synapse
//! delays; a delayed engine runs fault maps through an explicit per-map
//! fallback — apply the map, run each sample, restore — at one sample
//! run per (map, sample). On delay-free workloads both produce
//! bit-identical spikes, counts, and guard decisions.

use crate::engine::{
    BatchResult, ComputeEngine, MultiMapResult, NeuronFaultOverlay, SpikeGuard, WeightReadPath,
};
use crate::event::EventEngine;
use snn_sim::spike::SpikeTrain;
use std::str::FromStr;

/// The evaluate entry points every engine backend provides. All methods
/// keep the dense engine's contracts: every sample starts from rest,
/// batch/multi-map runs are per-sample-guard-clone equivalent, and
/// `reload_parameters` is the heal-on-entry point that makes
/// shard-level state reuse sound.
pub trait EngineBackend {
    /// Presents one encoded sample; returns per-neuron output spike
    /// counts borrowed from the backend's scratch (valid until the next
    /// run).
    fn run_sample_into<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> &[u32];

    /// Evaluates a batch of samples, each under a fresh clone of
    /// `guard`, into `out`.
    fn run_batch_into<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        path: &P,
        guard: &G,
        out: &mut BatchResult,
    );

    /// Evaluates every (fault-map, sample) pair into `out`; fault state
    /// present before the call is restored after it.
    fn run_batch_multi_map<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
        out: &mut MultiMapResult,
    );

    /// Parameter replacement (the paper's healing event): clean
    /// registers, cleared neuron faults, guard latches reset. Every evaluate
    /// path heals through this first — on every backend.
    fn reload_parameters<G: SpikeGuard>(&mut self, guard: &mut G);

    /// Clears membrane/refractory state; persisted faults remain.
    fn reset_state(&mut self);

    /// The underlying dense engine — the fault-injection surface shared
    /// by every backend.
    fn engine(&self) -> &ComputeEngine;

    /// Mutable access to the underlying dense engine (fault injection,
    /// crossbar access). Mutations stay coherent with backend-compiled
    /// state via the engine's mutation epoch.
    fn engine_mut(&mut self) -> &mut ComputeEngine;
}

/// Which engine backend a deployment (or shard) evaluates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineBackendKind {
    /// The dense per-cycle [`ComputeEngine`] (batched/multi-map fast
    /// paths; every neuron stepped every cycle).
    Dense,
    /// The event-driven sparse [`EventEngine`] (silent-cycle skipping,
    /// lazy leak, per-synapse delays).
    Event,
}

impl EngineBackendKind {
    /// Every backend.
    pub const ALL: [Self; 2] = [Self::Dense, Self::Event];

    /// Short name used on command lines and in job configs.
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Event => "event",
        }
    }
}

impl FromStr for EngineBackendKind {
    type Err = String;

    /// Parses a [`name`](EngineBackendKind::name), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown backend `{s}` (expected dense|event)"))
    }
}

/// A closed-world backend container: one of the concrete backends,
/// switchable in place. Deployment owners hold this so backend choice
/// is a runtime knob, not a type parameter.
// Both variants embed a full `ComputeEngine` (the event engine wraps
// one), so the size gap is bounded bookkeeping, and the value is moved
// only at construction and `set_kind` — boxing would instead tax every
// evaluate call with an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyBackend {
    /// Dense per-cycle engine.
    Dense(ComputeEngine),
    /// Event-driven sparse engine.
    Event(EventEngine),
}

impl AnyBackend {
    /// Wraps a dense engine (the default backend).
    pub fn dense(engine: ComputeEngine) -> Self {
        AnyBackend::Dense(engine)
    }

    /// The active backend kind.
    pub fn kind(&self) -> EngineBackendKind {
        match self {
            AnyBackend::Dense(_) => EngineBackendKind::Dense,
            AnyBackend::Event(_) => EngineBackendKind::Event,
        }
    }

    /// Switches the active backend in place, preserving the wrapped
    /// engine (state, faults, crossbar) exactly. Dropping back
    /// to [`EngineBackendKind::Dense`] discards delay configuration.
    pub fn set_kind(&mut self, kind: EngineBackendKind) {
        if self.kind() == kind {
            return;
        }
        let current = std::mem::replace(self, AnyBackend::Dense(ComputeEngine::placeholder()));
        *self = match current {
            AnyBackend::Dense(e) => AnyBackend::Event(EventEngine::new(e)),
            AnyBackend::Event(ev) => AnyBackend::Dense(ev.into_inner()),
        };
    }

    /// The event backend's delay/sparsity surface, when active.
    pub fn event_mut(&mut self) -> Option<&mut EventEngine> {
        match self {
            AnyBackend::Dense(_) => None,
            AnyBackend::Event(ev) => Some(ev),
        }
    }
}

impl EngineBackend for AnyBackend {
    fn run_sample_into<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> &[u32] {
        match self {
            AnyBackend::Dense(e) => e.run_sample_into(train, path, guard),
            AnyBackend::Event(ev) => ev.run_sample_into(train, path, guard),
        }
    }

    fn run_batch_into<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        path: &P,
        guard: &G,
        out: &mut BatchResult,
    ) {
        match self {
            AnyBackend::Dense(e) => e.run_batch_into(trains, path, guard, out),
            AnyBackend::Event(ev) => ev.run_batch_into(trains, path, guard, out),
        }
    }

    fn run_batch_multi_map<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        match self {
            AnyBackend::Dense(e) => e.run_batch_multi_map(trains, maps, path, guard, out),
            AnyBackend::Event(ev) => ev.run_batch_multi_map(trains, maps, path, guard, out),
        }
    }

    fn reload_parameters<G: SpikeGuard>(&mut self, guard: &mut G) {
        match self {
            AnyBackend::Dense(e) => e.reload_parameters(guard),
            AnyBackend::Event(ev) => ev.reload_parameters(guard),
        }
    }

    fn reset_state(&mut self) {
        match self {
            AnyBackend::Dense(e) => e.reset_state(),
            AnyBackend::Event(ev) => ev.reset_state(),
        }
    }

    fn engine(&self) -> &ComputeEngine {
        match self {
            AnyBackend::Dense(e) => e,
            AnyBackend::Event(ev) => ev.engine(),
        }
    }

    fn engine_mut(&mut self) -> &mut ComputeEngine {
        match self {
            AnyBackend::Dense(e) => e,
            AnyBackend::Event(ev) => ev.engine_mut(),
        }
    }
}
