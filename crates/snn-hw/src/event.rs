//! Event-driven sparse engine backend with synaptic delays.
//!
//! The dense [`ComputeEngine`] pays for every neuron every cycle
//! regardless of activity. At paper-typical Poisson rates most cycles
//! carry *no* input spike at all, and on a fully-silent cycle the dense
//! neuron phase does nothing observable: no comparator fires, the guard
//! sees an all-zero word, and every lane just leaks one step (or burns
//! one refractory cycle). [`EventEngine`] exploits exactly that:
//!
//! * **Silent-cycle skipping with lazy leak.** Cycles with no active
//!   input row, no matured delayed event, and no neuron near threshold
//!   are not stepped. A lag counter accumulates them; the guard still
//!   observes one all-zero comparator word per skipped cycle (so
//!   guard-state evolution is cycle-for-cycle identical to dense), and
//!   the next processed cycle first flushes the lag through
//!   [`NeuronLanes::advance_silent`](crate::neuron_lanes::NeuronLanes::advance_silent) — refractory countdown plus a
//!   `k`-step leak collapsed to one subtraction via a precomputed
//!   cumulative [`LeakTable`]. The collapse is bit-identical to `k`
//!   sequential floored leak steps (`max(v − k·d, 0)` = `k` folds of
//!   `max(v − d, 0)` for `d ≥ 0`), proptest-pinned.
//! * **Shared processed-cycle kernels.** Cycles that *are* processed run
//!   the very same crate-private `ComputeEngine::accumulate_active_rows`
//!   / `ComputeEngine::neuron_phase` code the dense per-step path is
//!   built from, so on delay-free workloads the two backends are
//!   bit-identical by construction — spikes, counts, and guard decisions
//!   (`tests/proptest_backend_equivalence.rs` pins it under `NoGuard`,
//!   `ResetMonitor`, and injected fault maps).
//! * **Synaptic delays.** Per-synapse integer delays (a scenario class
//!   the dense engine cannot express — temporal coding, recurrent
//!   motifs) compile the crossbar's *resolved* read path into per-input
//!   adjacency lists `(col, resolved_weight, delay)` plus a zero-delay
//!   "immediate" weight image. In-flight events live in a ring of
//!   `max_delay + 1` drive planes indexed by `cycle % len`; an event
//!   scheduled at cycle `t` with delay `d ∈ [1, max_delay]` lands in
//!   slot `(t + d) % len`, which can never collide with the slot being
//!   consumed at `t`. Multiple events maturing on the same
//!   `(cycle, neuron)` slot accumulate by plain `i32` addition, so
//!   arrival order cannot change results.
//!
//! Compiled adjacency state is keyed on the resolved read path *and* the
//! engine's mutation epoch ([`ComputeEngine`] bumps it on
//! `crossbar_mut`, `flip_weight_bit`, and `reload_parameters`), so the
//! heal-on-entry contract holds on this backend too: a parameter reload
//! recompiles the adjacency lists from the healed crossbar image instead
//! of serving a stale compilation.

use crate::engine::ComputeEngine;
use crate::engine::{
    BatchResult, MultiMapResult, NeuronFaultOverlay, ReadKernel, ResolvedPath, SpikeGuard,
    WeightReadPath,
};
use crate::error::HwError;
use crate::neuron_lanes::n_words;
use crate::neuron_unit::OpFaults;
use snn_sim::spike::SpikeTrain;

/// Cumulative floored-leak lookup: `total(k) = k · v_leak` as `i64`,
/// precomputed so a lazy-leak flush of `k` silent cycles is one table
/// read and one subtraction per neuron instead of `k` sequential steps.
///
/// The table grows on demand ([`ensure`](Self::ensure)); reads beyond
/// the materialized prefix fall back to the closed-form product, so
/// [`total`](Self::total) is total in both senses.
#[derive(Debug, Clone)]
pub struct LeakTable {
    v_leak: i32,
    /// `cum[k] = k · v_leak`; `cum[0] = 0`.
    cum: Vec<i64>,
}

impl LeakTable {
    /// A table for a per-step leak of `v_leak` code units.
    pub fn new(v_leak: i32) -> Self {
        Self {
            v_leak,
            cum: vec![0],
        }
    }

    /// Materializes entries up to `k` steps.
    pub fn ensure(&mut self, k: u32) {
        while self.cum.len() <= k as usize {
            let last = *self.cum.last().expect("table starts with cum[0]");
            self.cum.push(last + i64::from(self.v_leak));
        }
    }

    /// Total leak over `k` steps (`k · v_leak`), from the table when
    /// materialized, closed-form otherwise.
    pub fn total(&self, k: u32) -> i64 {
        match self.cum.get(k as usize) {
            Some(&t) => t,
            None => i64::from(self.v_leak) * i64::from(k),
        }
    }
}

/// One compiled delayed synapse of an input row: target column, weight
/// after the resolved read-path transform, delay in cycles (`≥ 1`).
type DelayedSynapse = (u32, u8, u16);

/// The event-driven sparse backend (see the module docs). Wraps a dense
/// [`ComputeEngine`] — the wrapped engine remains the state store, the
/// fault-injection surface, and the kernel provider, which is what makes
/// delay-free bit-identity a construction property rather than a
/// re-implementation hazard.
#[derive(Debug, Clone)]
pub struct EventEngine {
    inner: ComputeEngine,
    /// Lazy-leak lookup for silent-gap flushes.
    leak: LeakTable,
    /// Whether silent-cycle skipping is sound for this parameterization:
    /// requires non-negative leak (membranes never drift *up* while
    /// silent), strictly positive thresholds (a rested lane cannot sit at
    /// threshold), and a reset value below every threshold (a lane coming
    /// out of refractory cannot sit at threshold). When false, every
    /// cycle is processed — still bit-identical, just without the sparse
    /// win.
    lazy_ok: bool,
    /// Per-synapse delays, row-major (`row * n_neurons + col`), in
    /// cycles. All-zero by default; [`set_synapse_delay`] writes here.
    ///
    /// [`set_synapse_delay`]: Self::set_synapse_delay
    delays: Vec<u16>,
    /// Largest delay currently configured (ring sizing).
    max_delay: u16,
    /// Resolved weight image with every delayed synapse zeroed: the
    /// drive that applies on the *arrival* cycle itself. Compiled only
    /// when `max_delay > 0` — the delay-free path accumulates through
    /// the wrapped engine's own read cache at zero extra cost.
    immediate: Vec<u8>,
    /// Per-input adjacency lists of delayed synapses (delay ≥ 1,
    /// resolved weight ≠ 0).
    delayed_rows: Vec<Vec<DelayedSynapse>>,
    /// What `immediate`/`delayed_rows` were compiled from: resolved
    /// kernel, transfer table, and the wrapped engine's mutation epoch.
    /// `None` when nothing valid is compiled.
    compiled_key: Option<(ReadKernel, [u8; 256], u64)>,
    /// `(max_delay + 1) × n_neurons` pending-drive planes, slot-major.
    ring: Vec<i32>,
    /// Per-slot count of scheduled events (a slot with zero live events
    /// is skippable without touching its plane).
    ring_live: Vec<u32>,
    /// All-zero comparator words handed to the guard on skipped cycles.
    zero_words: Vec<u64>,
    /// Guard allow-word scratch for skipped cycles (the dense scratch is
    /// busy holding the last processed cycle's decisions).
    allow_scratch: Vec<u64>,
    /// Per-neuron output spike counts of the sample in flight.
    counts: Vec<u32>,
    /// Cycles stepped through the full kernels, across the engine's
    /// lifetime (observability for tests and the sparse bench).
    processed_cycles: u64,
    /// Cycles skipped via lazy leak, across the engine's lifetime.
    skipped_cycles: u64,
}

impl EventEngine {
    /// Wraps a dense engine as an event-driven backend with all synapse
    /// delays zero.
    pub fn new(inner: ComputeEngine) -> Self {
        let hw = inner.hw_params();
        let min_thresh = inner.thresholds().iter().copied().min();
        let lazy_ok = match min_thresh {
            Some(t) => hw.v_leak >= 0 && t > 0 && hw.v_reset < t,
            None => false,
        };
        let cells = inner.n_inputs() * inner.n_neurons();
        Self {
            leak: LeakTable::new(hw.v_leak),
            lazy_ok,
            delays: vec![0; cells],
            max_delay: 0,
            immediate: Vec::new(),
            delayed_rows: Vec::new(),
            compiled_key: None,
            ring: Vec::new(),
            ring_live: Vec::new(),
            zero_words: vec![0; n_words(inner.n_neurons())],
            allow_scratch: vec![0; n_words(inner.n_neurons())],
            counts: vec![0; inner.n_neurons()],
            processed_cycles: 0,
            skipped_cycles: 0,
            inner,
        }
    }

    /// Unwraps back into the dense engine, dropping delay configuration.
    pub fn into_inner(self) -> ComputeEngine {
        self.inner
    }

    /// The wrapped dense engine (state, faults, crossbar).
    pub fn engine(&self) -> &ComputeEngine {
        &self.inner
    }

    /// Mutable access to the wrapped engine — the fault-injection
    /// boundary. Safe against stale compilations: every crossbar-visible
    /// mutation API bumps the engine's mutation epoch, which invalidates
    /// this backend's compiled adjacency lists on the next run.
    pub fn engine_mut(&mut self) -> &mut ComputeEngine {
        &mut self.inner
    }

    /// Largest per-synapse delay currently configured, in cycles.
    pub fn max_delay(&self) -> u16 {
        self.max_delay
    }

    /// Sets the synaptic delay of `(row, col)` in cycles (0 = same-cycle
    /// delivery, the dense-equivalent default).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::IndexOutOfRange`] for bad indices (the backend
    /// is unchanged in that case).
    pub fn set_synapse_delay(&mut self, row: usize, col: usize, delay: u16) -> Result<(), HwError> {
        let (m, n) = (self.inner.n_inputs(), self.inner.n_neurons());
        if row >= m {
            return Err(HwError::IndexOutOfRange {
                what: "row",
                index: row,
                bound: m,
            });
        }
        if col >= n {
            return Err(HwError::IndexOutOfRange {
                what: "col",
                index: col,
                bound: n,
            });
        }
        self.delays[row * n + col] = delay;
        self.max_delay = self.delays.iter().copied().max().unwrap_or(0);
        self.compiled_key = None;
        Ok(())
    }

    /// Cycles stepped through the full kernels since construction.
    pub fn processed_cycles(&self) -> u64 {
        self.processed_cycles
    }

    /// Cycles skipped via lazy leak since construction.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Parameter replacement on this backend: heals the wrapped engine
    /// (clean crossbar image, cleared neuron faults, guard reset). The
    /// heal bumps the mutation epoch, so the compiled adjacency lists are
    /// recompiled from the healed image on the next run — heal-on-entry
    /// holds here exactly as on the dense path.
    pub fn reload_parameters<G: SpikeGuard>(&mut self, guard: &mut G) {
        self.inner.reload_parameters(guard);
    }

    /// Clears membrane/refractory state and drops in-flight delayed
    /// events (between samples). Persisted faults remain, as on the
    /// dense path.
    pub fn reset_state(&mut self) {
        self.inner.reset_state();
        self.ring.fill(0);
        self.ring_live.fill(0);
    }

    /// Presents one encoded sample and returns per-neuron output spike
    /// counts as a borrow of this backend's counter buffer (valid until
    /// the next run). Delay-free configurations are bit-identical to
    /// [`ComputeEngine::run_sample_into`].
    pub fn run_sample_into<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> &[u32] {
        let resolved = ResolvedPath::new(path);
        self.run_sample_resolved(train, &resolved, guard)
    }

    /// Presents one encoded sample and returns per-neuron output spike
    /// counts as an owned vector.
    pub fn run_sample<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> Vec<u32> {
        self.run_sample_into(train, path, guard).to_vec()
    }

    /// Runs every sample through [`run_sample_into`](Self::run_sample_into)
    /// with a fresh clone of `guard`, exactly the per-sample semantics
    /// the dense batched pass is specified (and property-tested)
    /// against. Engine state is reset after the batch, as on the dense
    /// path.
    pub fn run_batch_into<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        path: &P,
        guard: &G,
        out: &mut BatchResult,
    ) {
        let resolved = ResolvedPath::new(path);
        out.reset(self.inner.n_neurons(), trains.len());
        for (s, train) in trains.iter().enumerate() {
            let mut g = guard.clone();
            self.run_sample_resolved(train, &resolved, &mut g);
            out.counts_mut(s).copy_from_slice(&self.counts);
        }
        self.reset_state();
    }

    /// Evaluates every (fault map, sample) pair with this backend's
    /// sample runner. This is the event backend's explicit per-map
    /// fallback for the dense shared-drive pass: apply map `m` (weight
    /// flips and neuron sites) over the current fault state, run each
    /// sample with a fresh guard clone, restore the state exactly, repeat
    /// — the dense multi-map reference semantics, at the cost of one
    /// sample run per (map, sample).
    pub fn run_batch_multi_map<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        let resolved = ResolvedPath::new(path);
        out.reset(self.inner.n_neurons(), trains.len(), maps.len());
        let baseline = self.fault_baseline();
        for (m, map) in maps.iter().enumerate() {
            self.apply_overlay(map);
            for (s, train) in trains.iter().enumerate() {
                self.run_sample_resolved(train, &resolved, &mut guard.clone());
                out.counts_mut(m, s).copy_from_slice(&self.counts);
            }
            self.restore_overlay(map, &baseline);
        }
        self.reset_state();
    }

    /// Evaluates each sample under its own `maps_per_sample` fault maps
    /// (see [`ComputeEngine::run_batch_per_sample_maps`]) through the
    /// same explicit per-map fallback as
    /// [`run_batch_multi_map`](Self::run_batch_multi_map): apply the map,
    /// run its sample with a fresh guard clone, restore.
    ///
    /// # Panics
    ///
    /// Panics if `maps.len() != trains.len() * maps_per_sample` or a map
    /// site is out of range.
    pub fn run_batch_per_sample_maps<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps_per_sample: usize,
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        assert_eq!(
            maps.len(),
            trains.len() * maps_per_sample,
            "maps per sample"
        );
        let resolved = ResolvedPath::new(path);
        out.reset(self.inner.n_neurons(), trains.len(), maps_per_sample);
        let baseline = self.fault_baseline();
        for (i, map) in maps.iter().enumerate() {
            let (j, s) = (i % maps_per_sample, i / maps_per_sample);
            self.apply_overlay(map);
            self.run_sample_resolved(&trains[s], &resolved, &mut guard.clone());
            out.counts_mut(j, s).copy_from_slice(&self.counts);
            self.restore_overlay(map, &baseline);
        }
        self.reset_state();
    }

    /// The wrapped engine's current neuron fault flags.
    fn fault_baseline(&self) -> Vec<OpFaults> {
        self.inner.neurons().iter().map(|u| u.faults).collect()
    }

    /// Injects `map` over the current fault state.
    fn apply_overlay(&mut self, map: &NeuronFaultOverlay) {
        self.inner.flip_overlay_bits(map);
        let units = self.inner.neurons_mut();
        for &(j, op) in map.neuron_ops() {
            units[j as usize].faults.set(op);
        }
    }

    /// Undoes [`apply_overlay`](Self::apply_overlay): flips `map`'s bits
    /// back and restores the neuron fault flags to `baseline`.
    fn restore_overlay(&mut self, map: &NeuronFaultOverlay, baseline: &[OpFaults]) {
        self.inner.flip_overlay_bits(map);
        for (u, &f) in self.inner.neurons_mut().iter_mut().zip(baseline) {
            u.faults = f;
        }
    }

    /// The sample loop (see the module docs for the cycle shape).
    fn run_sample_resolved<G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        resolved: &ResolvedPath,
        guard: &mut G,
    ) -> &[u32] {
        let n = self.inner.n_neurons();
        self.inner.reset_state();
        self.counts.clear();
        self.counts.resize(n, 0);
        let delayed = self.max_delay > 0;
        let len = self.max_delay as usize + 1;
        if delayed {
            self.ensure_compiled(resolved);
            self.ring.clear();
            self.ring.resize(len * n, 0);
            self.ring_live.clear();
            self.ring_live.resize(len, 0);
        }
        // Skip-safety is re-established after every processed cycle: if
        // no comparator fired, every lane ended below threshold (the
        // fused kernel holds refractory lanes at v_reset < threshold
        // under `lazy_ok`); if one did, `hot` stays set until a
        // processed cycle ends with every lane strictly below threshold
        // again — reset-faulty burst neurons therefore never get their
        // comparator cycles skipped.
        let mut hot = false;
        let mut lag: u32 = 0;
        for t in 0..train.n_steps() {
            let rows = train.step(t);
            let slot = t % len;
            let slot_live = delayed && self.ring_live[slot] > 0;
            if self.lazy_ok && !hot && !slot_live && rows.is_empty() {
                // Provably-silent cycle: defer state advance, but keep
                // the guard's observed comparator stream cycle-exact.
                lag += 1;
                self.skipped_cycles += 1;
                guard.observe_cycle(&self.zero_words, &mut self.allow_scratch, n);
                continue;
            }
            if lag > 0 {
                self.leak.ensure(lag);
                self.inner.advance_lanes_silent(lag, &self.leak);
                lag = 0;
            }
            if delayed {
                self.inner.accumulate_image_rows(&self.immediate, rows);
                for &row in rows {
                    for &(col, w, d) in &self.delayed_rows[row as usize] {
                        let target = (t + d as usize) % len;
                        self.ring[target * n + col as usize] += i32::from(w);
                        self.ring_live[target] += 1;
                    }
                }
                if slot_live {
                    let plane = &self.ring[slot * n..(slot + 1) * n];
                    self.inner.acc_add(plane);
                    self.ring[slot * n..(slot + 1) * n].fill(0);
                    self.ring_live[slot] = 0;
                }
            } else {
                self.inner.accumulate_active_rows(rows, resolved);
            }
            let cmp_any = self.inner.neuron_phase(guard);
            for &j in self.inner.last_fired() {
                self.counts[j as usize] += 1;
            }
            self.processed_cycles += 1;
            hot = cmp_any && self.inner.lanes_any_at_or_above();
        }
        if lag > 0 {
            self.leak.ensure(lag);
            self.inner.advance_lanes_silent(lag, &self.leak);
        }
        &self.counts
    }

    /// Recompiles the immediate image and delayed adjacency lists when
    /// the resolved read path or the wrapped engine's mutation epoch
    /// moved since the last compilation.
    fn ensure_compiled(&mut self, resolved: &ResolvedPath) {
        let key = (resolved.kernel, resolved.table, self.inner.mutation_epoch());
        if self.compiled_key.as_ref() == Some(&key) {
            return;
        }
        let (m, n) = (self.inner.n_inputs(), self.inner.n_neurons());
        self.immediate.clear();
        self.immediate.resize(m * n, 0);
        for r in &mut self.delayed_rows {
            r.clear();
        }
        self.delayed_rows.resize_with(m, Vec::new);
        let codes = self.inner.crossbar().codes_slice();
        for row in 0..m {
            for col in 0..n {
                let idx = row * n + col;
                let w = resolved.read(codes[idx]);
                let d = self.delays[idx];
                if d == 0 {
                    self.immediate[idx] = w;
                } else if w != 0 {
                    self.delayed_rows[row].push((col as u32, w, d));
                }
            }
        }
        self.compiled_key = Some(key);
    }
}
