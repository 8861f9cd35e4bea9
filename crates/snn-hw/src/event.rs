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
//!   `k`-step leak collapsed to one `k · v_leak` subtraction per neuron.
//!   The collapse is bit-identical to `k` sequential floored leak steps
//!   (`max(v − k·d, 0)` = `k` folds of `max(v − d, 0)` for `d ≥ 0`),
//!   proptest-pinned.
//! * **Shared processed-cycle kernels.** The sample loop owns its state:
//!   one [`NeuronLanes`] set up at rest per sample from the wrapped
//!   engine's units, its own drive buffer, and the very kernels of the
//!   dense lane pass — the tiled accumulate
//!   ([`kernels::write_rows_blocked`]) over the wrapped engine's resolved
//!   drive image, and the same crate-private neuron phase every
//!   trial-group lane runs. On delay-free workloads the two backends are
//!   therefore bit-identical by construction — spikes, counts, and guard
//!   decisions (`tests/proptest_backend_equivalence.rs` pins it under
//!   `NoGuard`, `ResetMonitor`, and injected fault maps).
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
//! Trial groups (batches and multi-map passes) of a delay-free engine
//! run the wrapped engine's lane pass: skipping only pays per single
//! sample, and the lane pass shares the drive across samples and maps
//! without installing any overlay. Only a delayed engine — the lane pass
//! has no delay ring — falls back to one sample run per (map, sample):
//! apply the map, run each sample, restore. A batch is the one-map case
//! (a single empty overlay) on either path.
//!
//! Compiled adjacency state is keyed on the same (table, mutation epoch)
//! rule as the wrapped engine's transformed-crossbar image: the resolved
//! read path's 256-entry table and the epoch that every register write
//! bumps (`crossbar_mut`, `flip_weight_bit`, a stuck bit that changes a
//! code, and a `reload_parameters` that rewrites registers). So the
//! heal-on-entry contract holds on this backend too: a reload that heals
//! a written crossbar recompiles the adjacency lists from the healed
//! registers instead of serving a stale compilation.

use crate::engine::{
    BatchResult, ComputeEngine, CycleWords, MultiMapResult, NeuronFaultOverlay, ResolvedPath,
    SpikeGuard, WeightReadPath,
};
use crate::error::HwError;
use crate::kernels;
use crate::neuron_lanes::{n_words, NeuronLanes};
use crate::neuron_unit::OpFaults;
use snn_sim::spike::SpikeTrain;

/// One compiled delayed synapse of an input row: target column, weight
/// after the resolved read-path transform, delay in cycles (`≥ 1`).
type DelayedSynapse = (u32, u8, u16);

/// The event-driven sparse backend (see the module docs). Wraps a dense
/// [`ComputeEngine`] — the wrapped engine remains the fault-injection
/// surface, the drive-image provider and the trial-group executor of
/// delay-free engines, and the sample loop steps the same kernels, which
/// is what makes delay-free bit-identity a construction property rather
/// than a re-implementation hazard.
#[derive(Debug, Clone)]
pub struct EventEngine {
    inner: ComputeEngine,
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
    /// What `immediate`/`delayed_rows` were compiled from: the resolved
    /// transfer table and the wrapped engine's mutation epoch. `None`
    /// when nothing valid is compiled.
    compiled_key: Option<([u8; 256], u64)>,
    /// `(max_delay + 1) × n_neurons` pending-drive planes, slot-major.
    ring: Vec<i32>,
    /// Per-slot count of scheduled events (a slot with zero live events
    /// is skippable without touching its plane).
    ring_live: Vec<u32>,
    /// The sample loop's neuron state, set up at rest per sample from the
    /// wrapped engine's units.
    lane: NeuronLanes,
    /// The drive of the cycle in flight.
    acc: Vec<i32>,
    /// The neuron phase's per-cycle bitmask words.
    words: CycleWords,
    /// All-zero comparator words handed to the guard on skipped cycles.
    zero_words: Vec<u64>,
    /// Guard allow-word scratch for skipped cycles (decisions over an
    /// all-zero comparator word are discarded).
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
            lazy_ok,
            delays: vec![0; cells],
            max_delay: 0,
            immediate: Vec::new(),
            delayed_rows: Vec::new(),
            compiled_key: None,
            ring: Vec::new(),
            ring_live: Vec::new(),
            lane: NeuronLanes::new(0),
            acc: vec![0; inner.n_neurons()],
            words: CycleWords::new(inner.n_neurons()),
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
    /// boundary. Safe against stale compilations: every register write
    /// bumps the engine's mutation epoch, which invalidates this
    /// backend's compiled adjacency lists on the next run.
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
    /// (clean registers, cleared neuron faults, guard reset). A heal that
    /// rewrites registers bumps the mutation epoch, so the compiled
    /// adjacency lists are recompiled from the healed registers on the
    /// next run — heal-on-entry holds here exactly as on the dense path.
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

    /// Evaluates a batch with the per-sample semantics of
    /// [`ComputeEngine::run_batch_into`]: the one-map case of
    /// [`run_batch_multi_map`](Self::run_batch_multi_map), one empty
    /// overlay, so a delayed engine runs every sample through the sample
    /// loop with a fresh clone of `guard`.
    pub fn run_batch_into<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        path: &P,
        guard: &G,
        out: &mut BatchResult,
    ) {
        let empty = [NeuronFaultOverlay::new()];
        self.run_batch_multi_map(trains, &empty, path, guard, &mut out.planes);
    }

    /// Evaluates every (fault map, sample) pair with the semantics of
    /// [`ComputeEngine::run_batch_multi_map`]. A delay-free engine runs
    /// the wrapped engine's lane pass itself, which never installs a map.
    /// A delayed one takes the explicit per-map fallback: apply map `m`
    /// (weight flips and neuron sites) over the current fault state, run
    /// each sample with a fresh guard clone, restore the state exactly,
    /// repeat — the dense multi-map reference semantics, at the cost of
    /// one sample run per (map, sample).
    pub fn run_batch_multi_map<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        if self.max_delay == 0 {
            return self
                .inner
                .run_batch_multi_map(trains, maps, path, guard, out);
        }
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
        let hw = self.inner.hw_params();
        self.lane.configure(self.inner.neurons(), &[]);
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
                self.lane.advance_silent(lag, hw.v_leak);
                lag = 0;
            }
            if delayed {
                kernels::write_rows_blocked(&self.immediate, n, rows, &mut self.acc);
                for &row in rows {
                    for &(col, w, d) in &self.delayed_rows[row as usize] {
                        let target = (t + d as usize) % len;
                        self.ring[target * n + col as usize] += i32::from(w);
                        self.ring_live[target] += 1;
                    }
                }
                if slot_live {
                    // Matured delayed events: plain `i32` addition, so
                    // contribution order cannot change results.
                    let plane = &mut self.ring[slot * n..(slot + 1) * n];
                    for (a, p) in self.acc.iter_mut().zip(plane.iter_mut()) {
                        *a += std::mem::take(p);
                    }
                    self.ring_live[slot] = 0;
                }
            } else {
                let image = self.inner.drive_image(resolved);
                kernels::write_rows_blocked(image, n, rows, &mut self.acc);
            }
            let v_thresh = self.inner.thresholds();
            let cmp_any = self.words.lane_phase(
                &mut self.lane,
                &self.acc,
                v_thresh,
                &hw,
                guard,
                &mut self.counts,
            );
            self.processed_cycles += 1;
            hot = cmp_any && self.lane.any_at_or_above(v_thresh);
        }
        &self.counts
    }

    /// Recompiles the immediate image and delayed adjacency lists when
    /// the resolved table or the wrapped engine's mutation epoch moved
    /// since the last compilation.
    fn ensure_compiled(&mut self, resolved: &ResolvedPath) {
        let key = (resolved.table, self.inner.mutation_epoch());
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
