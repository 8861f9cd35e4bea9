//! The SNN compute engine: crossbar + neuron datapaths + lateral
//! inhibition, operating in integer weight-code units.
//!
//! The engine is deliberately *logical-size*: it simulates the full M×N
//! synapse array of the deployed network bit-accurately, while the
//! *physical* 256×256 geometry only affects the latency/energy/area models
//! (time-multiplexing changes cost, not function — see
//! [`crate::mapping`]).
//!
//! # Hot path
//!
//! The engine has one datapath — the trial-group lane pass below — and
//! every optimized entry point runs through it; a single sample
//! ([`ComputeEngine::run_sample_into`]) is its one-lane case. It is
//! built to be allocation-free in steady state, and its two inner loops
//! — the accumulate and the neuron phase — vectorize for the baseline
//! x86-64 target:
//!
//! * the pass is compiled twice from one source, for the crate's target
//!   and with AVX2 enabled, and each trial group runs the widest copy
//!   the CPU has (detected at run time, never chosen by a setting; the
//!   two are bit-identical, integer arithmetic being the same at any
//!   vector width). Its hot callees are `#[inline(always)]`, so the AVX2
//!   copy compiles them with 256-bit registers too;
//! * a read path is its 256-entry table, resolved once per call
//!   ([`ResolvedPath`]) instead of a per-element closure call: the
//!   identity table accumulates straight from the registers, and any
//!   other accumulates from one transformed-crossbar image keyed on
//!   (table, mutation epoch), so every read path runs at direct-add
//!   speed;
//! * the drive of a cycle is one accumulate over column tiles
//!   ([`crate::kernels::write_rows_blocked`]): each tile sums the active
//!   rows into `u16` partials held in registers and widens them into the
//!   `i32` drives once;
//! * neuron state lives in structure-of-arrays lanes
//!   ([`crate::neuron_lanes::NeuronLanes`]): a branch-free fused
//!   integrate→leak→compare kernel covers the fault-free common case,
//!   with faulty neurons replayed in a sparse patch pass. The fused pass
//!   and lateral inhibition run per-word slice helpers, because only
//!   `noalias` slice parameters let LLVM vectorize them; the
//!   [`crate::neuron_lanes`] module docs say why and how to check the
//!   linked binary for it;
//! * comparator, spike, and fired results are `u64` bitmask words, so
//!   spike guards observe a whole cycle at once
//!   ([`SpikeGuard::observe_cycle`]) instead of one call per neuron, and
//!   lateral inhibition and spike counting are driven by the fired mask;
//! * the lane bank, drive planes and count planes are scratch owned by
//!   the engine and reused across calls.
//!
//! The architectural [`NeuronUnit`]s are the one home of the fault flags
//! (the injection surface) and of the reference path's neuron state;
//! lanes are configured from them at rest for each run and never write
//! back.
//!
//! # Trial groups
//!
//! [`ComputeEngine::run_batch_multi_map`] evaluates K fault maps over a
//! set of encoded samples in one pass (re-execution runs it over one
//! sample, one map per execution), and [`ComputeEngine::run_batch_into`]
//! is the one-map case (a single empty overlay), as is
//! [`ComputeEngine::run_sample_into`] with one sample. All three run
//! through one private executor over a bank of
//! [`crate::neuron_lanes::NeuronLanes`], one lane per (sample, map) pair,
//! at most [`MAX_LANES`] at a time: the transformed-crossbar image stays
//! hot across every lane of a timestep, the drive is accumulated once
//! per distinct active-row set among the chunk's samples (every map lane
//! of a sample shares it), and the accumulate sums every active row of a
//! column tile into `u16` partials before touching the drives
//! ([`crate::kernels::write_rows_blocked`], bit-identical to the
//! row-at-a-time sum — see [`crate::kernels`]).
//!
//! A map is a [`NeuronFaultOverlay`]: neuron-op sites, which the lane
//! imports into its fault masks, and weight-register flips, which never
//! reach the crossbar. When a chunk starts, each map's flips are lowered
//! against the current registers through the resolved read path into
//! per-row `read(faulty) − read(current)` corrections, and each cycle a
//! lane reads its sample's shared drive plus its corrections on that
//! cycle's active rows. The drive is an `i32` sum of `u8` reads, so this
//! is exact — weight-bearing groups share the drive phase too, with no
//! fallback. Overlays are per-call inputs: the registers, the read cache
//! and the mutation epoch are the same after the pass as before it.
//! [`ComputeEngine::apply_overlay`] is the one way to install an overlay
//! on the engine, behind one site check
//! ([`ComputeEngine::check_overlay`]) that the pass runs too.
//!
//! Each lane is evaluated *independently* — state reset first, spike
//! guard cloned from the caller's prototype (a single sample drives the
//! caller's guard itself) — so a trial group is
//! spike-for-spike identical to per-sample
//! [`run_sample_reference`](ComputeEngine::run_sample_reference) calls
//! on an engine with the map injected, cloning the guard the same way
//! (property-tested against
//! [`run_batch_multi_map_reference`](ComputeEngine::run_batch_multi_map_reference)).
//!
//! # The transformed-crossbar image
//!
//! Every register write bumps the engine's mutation epoch
//! ([`ComputeEngine::crossbar_mut`], [`ComputeEngine::flip_weight_bit`],
//! a stuck bit that changes a code, and a
//! [`reload_parameters`](ComputeEngine::reload_parameters) that rewrites
//! registers), and nothing else does. Derived state is keyed on
//! (table, epoch): the image is rebuilt on the first non-identity run
//! after either moves, and never otherwise. Campaigns never install a
//! weight flip, so a reload of an unwritten crossbar leaves the registers,
//! the image and the epoch alone;
//! [`read_cache_rebuilds`](ComputeEngine::read_cache_rebuilds) counts the
//! rebuilds.
//!
//! The original per-neuron formulation is retained as
//! [`ComputeEngine::step_reference`] / [`ComputeEngine::run_sample_reference`];
//! property tests assert the optimized path is spike-for-spike identical —
//! including under stateful guards and neuron-op fault maps.

use crate::crossbar::Crossbar;
use crate::error::HwError;
use crate::kernels;
use crate::neuron_lanes::{n_words, NeuronLanes};
use crate::neuron_unit::{NeuronHwParams, NeuronOp, NeuronUnit, OpFaults};
use crate::params::EngineConfig;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::spike::SpikeTrain;

/// Models the circuitry between a weight register and the column adder.
///
/// The baseline engine reads registers directly ([`DirectRead`]); the
/// SoftSNN-enhanced engine inserts a comparator + multiplexer here
/// (weight bounding). Implementations must be pure combinational logic:
/// same input code → same output code. That purity is what makes the
/// engine's table-driven hot path valid: to the engine, a read path *is*
/// its [`table`](Self::table), the entire input→output function in 256
/// entries.
pub trait WeightReadPath {
    /// Transforms a raw register code into the value fed to the adder.
    fn read(&self, code: u8) -> u8;

    /// The full 256-entry transfer function of this read path.
    ///
    /// The default implementation evaluates [`read`](Self::read) for every
    /// code; stateless paths get this for free, and paths with stored
    /// configuration (e.g. bounding registers) may override it with a
    /// cached table.
    fn table(&self) -> [u8; 256] {
        let mut t = [0_u8; 256];
        for (code, slot) in t.iter_mut().enumerate() {
            *slot = self.read(code as u8);
        }
        t
    }
}

/// A [`WeightReadPath`] lowered to its 256-entry table once per call, so
/// no kernel ever calls `read` per element. A path whose table is the
/// identity accumulates from the registers themselves; any other from
/// the engine's transformed-crossbar image of that table. Every evaluate
/// entry point resolves its path this way:
///
/// ```
/// use snn_hw::engine::{ComputeEngine, DirectRead, NoGuard, ResolvedPath};
/// use snn_sim::{config::SnnConfig, network::Network, rng::seeded_rng};
/// use snn_sim::quant::QuantizedNetwork;
/// use snn_sim::spike::SpikeTrain;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SnnConfig::builder().n_inputs(8).n_neurons(2).build()?;
/// let net = Network::new(cfg, &mut seeded_rng(1));
/// let qn = QuantizedNetwork::from_network_default(&net);
/// let mut engine = ComputeEngine::for_network(&qn)?;
/// let mut train = SpikeTrain::new(8, 10);
/// for _ in 0..10 {
///     train.push_step(vec![0, 3, 5]);
/// }
/// // What `run_sample_into` does first: `DirectRead`'s table is the
/// // identity, so the sample reads the registers directly.
/// let _resolved = ResolvedPath::new(&DirectRead);
/// let counts = engine.run_sample_into(&train, &DirectRead, &mut NoGuard);
/// assert_eq!(counts.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResolvedPath {
    /// The 256-entry transfer function (stored inline so resolving never
    /// allocates).
    pub(crate) table: [u8; 256],
    /// Whether `table` is the identity.
    pub(crate) identity: bool,
}

impl ResolvedPath {
    /// Resolves `path` to its table (allocation-free).
    pub fn new<P: WeightReadPath>(path: &P) -> Self {
        let table = path.table();
        Self {
            identity: table == DirectRead.table(),
            table,
        }
    }

    /// One register code through the resolved path — the per-code
    /// function every accumulate kernel applies.
    pub(crate) fn read(&self, code: u8) -> u8 {
        self.table[code as usize]
    }
}

/// The baseline read path: registers feed the adders unmodified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectRead;

impl WeightReadPath for DirectRead {
    #[inline]
    fn read(&self, code: u8) -> u8 {
        code
    }
}

/// Observes each neuron's `Vmem ≥ Vth` comparator output every cycle and
/// can veto spike generation.
///
/// The SoftSNN neuron protection (faulty-reset monitor) is implemented as
/// a `SpikeGuard` in `softsnn-core`. The guard is stateful: per the paper,
/// a tripped monitor keeps spike generation disabled until the neuron's
/// parameters are replaced ([`SpikeGuard::on_param_reload`]).
///
/// The engine drives guards through the batched
/// [`observe_cycle`](Self::observe_cycle) protocol; implementors only
/// need [`allow_spike`](Self::allow_spike) (the default batched form
/// forwards to it), but word-level implementations turn the guard from a
/// per-neuron call chain into a few ops per 64 neurons.
pub trait SpikeGuard {
    /// Called once per neuron per cycle with that cycle's comparator
    /// output. Returns whether the neuron may emit a spike this cycle.
    fn allow_spike(&mut self, neuron: usize, cmp_out: bool) -> bool;

    /// Called when the engine reloads parameters (heals monitor latches).
    fn on_param_reload(&mut self) {}

    /// Batched per-cycle observation: bit `j % 64` of `cmp_words[j / 64]`
    /// is neuron `j`'s comparator output; the guard must write neuron
    /// `j`'s allow/veto decision to the same bit of `allow_words`,
    /// fully overwriting every word it covers (incoming contents are
    /// unspecified). The engine guarantees `cmp_words` padding bits at or
    /// beyond `n_neurons` are zero, and ignores the corresponding
    /// `allow_words` bits.
    ///
    /// The default implementation forwards to
    /// [`allow_spike`](Self::allow_spike) in ascending neuron order, so
    /// every existing guard behaves identically under batching.
    fn observe_cycle(&mut self, cmp_words: &[u64], allow_words: &mut [u64], n_neurons: usize) {
        for (w, (&cmp, allow)) in cmp_words.iter().zip(allow_words.iter_mut()).enumerate() {
            let base = w * 64;
            if base >= n_neurons {
                *allow = 0;
                continue;
            }
            let lanes = (n_neurons - base).min(64);
            let mut out = 0_u64;
            for b in 0..lanes {
                let allowed = self.allow_spike(base + b, (cmp >> b) & 1 != 0);
                out |= (allowed as u64) << b;
            }
            *allow = out;
        }
    }
}

/// A guard that never vetoes (the baseline engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoGuard;

impl SpikeGuard for NoGuard {
    #[inline]
    fn allow_spike(&mut self, _neuron: usize, _cmp_out: bool) -> bool {
        true
    }

    #[inline]
    fn observe_cycle(&mut self, _cmp_words: &[u64], allow_words: &mut [u64], _n_neurons: usize) {
        allow_words.fill(u64::MAX);
    }
}

/// One trial's fault map in engine terms: the `(neuron, op)` sites and
/// the `(row, col, bit)` weight-register flips its soft errors strike.
/// This is the unit of the trial-group pass's map axis
/// ([`ComputeEngine::run_batch_multi_map`]) — campaign layers lower
/// their fault-map types to this shape at the call boundary (the engine
/// crate cannot name them).
///
/// An overlay is a per-call input: the passes apply it on top of the
/// engine's current registers and persisted faults for the lanes that
/// carry it and never install it, so the crossbar, the read cache and
/// the mutation epoch are the same before and after the call.
/// [`ComputeEngine::apply_overlay`] installs one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeuronFaultOverlay {
    neuron_ops: Vec<(u32, NeuronOp)>,
    weight_flips: Vec<(u32, u32, u8)>,
}

impl NeuronFaultOverlay {
    /// An overlay that strikes nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every site, keeping the buffers for reuse.
    pub fn clear(&mut self) {
        self.neuron_ops.clear();
        self.weight_flips.clear();
    }

    /// Adds a stuck fault on operation `op` of neuron `neuron`.
    pub fn push_neuron_op(&mut self, neuron: u32, op: NeuronOp) {
        self.neuron_ops.push((neuron, op));
    }

    /// Adds a flip of bit `bit` of the register at (`row`, `col`). Flips
    /// are XOR: two flips of the same bit cancel, as two injections
    /// would.
    pub fn push_weight_flip(&mut self, row: u32, col: u32, bit: u8) {
        self.weight_flips.push((row, col, bit));
    }

    /// The `(neuron, op)` sites.
    pub fn neuron_ops(&self) -> &[(u32, NeuronOp)] {
        &self.neuron_ops
    }

    /// The `(row, col, bit)` weight flips, in the order added.
    pub fn weight_flips(&self) -> &[(u32, u32, u8)] {
        &self.weight_flips
    }
}

impl FromIterator<(u32, NeuronOp)> for NeuronFaultOverlay {
    fn from_iter<I: IntoIterator<Item = (u32, NeuronOp)>>(iter: I) -> Self {
        Self {
            neuron_ops: iter.into_iter().collect(),
            weight_flips: Vec::new(),
        }
    }
}

/// One overlay's weight flips lowered against the engine's current
/// register codes through the resolved read path: per crossbar row, the
/// `(column, read(faulty) − read(current))` corrections a lane adds to
/// the shared drive whenever that row is active. The drive is an `i32`
/// sum of transformed codes, so shared drive + corrections is exactly
/// the drive of an engine with the flips injected.
///
/// Each entry packs its column above [`DELTA_BITS`] bits of biased
/// correction into one `u32`: applying a dense map walks its active rows'
/// entries every cycle for every lane, so their footprint is what the
/// corrections cost.
#[derive(Debug, Clone, Default)]
struct WeightDeltas {
    /// Row `r`'s entries are `entries[row_start[r]..row_start[r + 1]]`;
    /// empty when no correction is nonzero.
    row_start: Vec<u32>,
    entries: Vec<u32>,
}

/// Low bits of a packed delta entry holding `correction + 255` (a
/// correction is a difference of two `u8` reads).
const DELTA_BITS: u32 = 9;

impl WeightDeltas {
    /// Packs one `(column, correction)` entry.
    fn pack(col: usize, delta: i32) -> u32 {
        (col as u32) << DELTA_BITS | (delta + 255) as u32
    }

    /// Unpacks an entry into `(column, correction)`.
    fn unpack(entry: u32) -> (usize, i32) {
        let delta = (entry & ((1 << DELTA_BITS) - 1)) as i32 - 255;
        ((entry >> DELTA_BITS) as usize, delta)
    }

    /// Lowers `flips` over the row-major `codes` of a `cols`-wide
    /// crossbar: flips of one cell are XOR-merged, and corrections that
    /// read as zero are dropped. Flips already in row-major order (what a
    /// generated fault map lowers to) are merged in place; others are
    /// sorted through `keys` first. The flips must have passed
    /// [`ComputeEngine::check_overlay`].
    fn lower(
        &mut self,
        flips: &[(u32, u32, u8)],
        codes: &[u8],
        cols: usize,
        path: &ResolvedPath,
        keys: &mut Vec<u64>,
    ) {
        assert!(
            cols <= 1 << (32 - DELTA_BITS),
            "weight overlays support up to 2^23 columns"
        );
        let cell = |row: u32, col: u32| row as usize * cols + col as usize;
        if flips
            .windows(2)
            .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1))
        {
            self.merge(
                flips.iter().map(|&(r, c, bit)| (cell(r, c), bit)),
                codes,
                cols,
                path,
            );
        } else {
            keys.clear();
            keys.extend(
                flips
                    .iter()
                    .map(|&(r, c, bit)| (cell(r, c) as u64) << 3 | u64::from(bit)),
            );
            keys.sort_unstable();
            let sorted = keys.iter().map(|&k| ((k >> 3) as usize, (k & 7) as u8));
            self.merge(sorted, codes, cols, path);
        }
    }

    /// Rebuilds the deltas from `(cell, bit)` flips sorted by cell.
    fn merge(
        &mut self,
        flips: impl Iterator<Item = (usize, u8)>,
        codes: &[u8],
        cols: usize,
        path: &ResolvedPath,
    ) {
        self.row_start.clear();
        self.entries.clear();
        let mut flips = flips.peekable();
        while let Some((cell, bit)) = flips.next() {
            let mut mask = 1_u8 << bit;
            while let Some((_, bit)) = flips.next_if(|&(c, _)| c == cell) {
                mask ^= 1 << bit;
            }
            let code = codes[cell];
            let delta = i32::from(path.read(code ^ mask)) - i32::from(path.read(code));
            if delta != 0 {
                if self.row_start.is_empty() {
                    self.row_start.resize(codes.len() / cols + 1, 0);
                }
                self.row_start[cell / cols + 1] += 1;
                self.entries.push(Self::pack(cell % cols, delta));
            }
        }
        // Per-row counts → prefix sums (the flips were sorted by cell, so
        // the entries already sit in row order).
        for r in 1..self.row_start.len() {
            self.row_start[r] += self.row_start[r - 1];
        }
    }

    /// Writes `drive` plus the corrections of every row in `active_rows`
    /// into `out` and returns `true`, or returns `false` (leaving `out`
    /// alone) when none of the rows carries one — the lane then reads
    /// `drive` itself.
    #[inline(always)]
    fn apply(&self, drive: &[i32], active_rows: &[u32], out: &mut [i32]) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        let mut touched = false;
        for &row in active_rows {
            let r = row as usize;
            let (a, b) = (self.row_start[r] as usize, self.row_start[r + 1] as usize);
            if a == b {
                continue;
            }
            if !touched {
                out.copy_from_slice(drive);
                touched = true;
            }
            for &entry in &self.entries[a..b] {
                let (col, delta) = Self::unpack(entry);
                out[col] += delta;
            }
        }
        touched
    }
}

/// Cap on lanes — (fault map, sample) pairs — interleaved per chunk of
/// the trial-group pass: bounds the resident lane state and drive planes
/// while keeping the transformed-crossbar image hot across the whole
/// chunk at each timestep. [`ComputeEngine::run_batch_into`] and
/// [`ComputeEngine::run_batch_multi_map`] accept any number of samples
/// and maps and chunk internally, every chunk this wide except a
/// ragged last one.
pub const MAX_LANES: usize = 16;

/// Per-sample spike-count planes written by
/// [`ComputeEngine::run_batch_into`]: `counts(s)` is what
/// [`ComputeEngine::run_sample`] would have returned for sample `s`.
/// Reusable across batches — the engine resizes it without reallocating
/// when shapes repeat.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// A batch is the one-map case of a trial group.
    pub(crate) planes: MultiMapResult,
}

impl BatchResult {
    /// An empty result; [`ComputeEngine::run_batch_into`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples in the last batch.
    pub fn n_samples(&self) -> usize {
        self.planes.n_samples
    }

    /// Whether the result holds no samples.
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// Per-neuron output spike counts of sample `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_samples`.
    pub fn counts(&self, s: usize) -> &[u32] {
        self.planes.counts(0, s)
    }

    /// Iterator over per-sample count slices, in sample order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.n_samples()).map(|s| self.counts(s))
    }
}

/// Per-(map, sample) spike-count planes written by
/// [`ComputeEngine::run_batch_multi_map`]: `counts(m, s)` is what
/// [`ComputeEngine::run_sample`] would have returned for sample `s` on an
/// engine with map `m` injected. Reusable across trial groups — the
/// engine resizes it without reallocating when shapes repeat.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiMapResult {
    n_neurons: usize,
    n_samples: usize,
    n_maps: usize,
    /// Map-major, then sample-major planes: map `m`, sample `s` owns
    /// `[(m·S + s)·n, (m·S + s + 1)·n)`.
    counts: Vec<u32>,
}

impl MultiMapResult {
    /// An empty result; [`ComputeEngine::run_batch_multi_map`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fault maps in the last trial group.
    pub fn n_maps(&self) -> usize {
        self.n_maps
    }

    /// Number of samples per map.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Whether the result holds no planes.
    pub fn is_empty(&self) -> bool {
        self.n_maps * self.n_samples == 0
    }

    /// Per-neuron output spike counts of sample `s` under map `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= n_maps` or `s >= n_samples`.
    pub fn counts(&self, m: usize, s: usize) -> &[u32] {
        assert!(m < self.n_maps, "map index");
        assert!(s < self.n_samples, "sample index");
        let base = (m * self.n_samples + s) * self.n_neurons;
        &self.counts[base..base + self.n_neurons]
    }

    /// Sizes the planes and zeroes every counter (backend-internal).
    pub(crate) fn reset(&mut self, n_neurons: usize, n_samples: usize, n_maps: usize) {
        self.n_neurons = n_neurons;
        self.n_samples = n_samples;
        self.n_maps = n_maps;
        self.counts.clear();
        self.counts.resize(n_neurons * n_samples * n_maps, 0);
    }

    /// Mutable plane of (map `m`, sample `s`) (backend-internal).
    pub(crate) fn counts_mut(&mut self, m: usize, s: usize) -> &mut [u32] {
        let base = (m * self.n_samples + s) * self.n_neurons;
        &mut self.counts[base..base + self.n_neurons]
    }
}

/// One permanently stuck weight-register bit, installed on the engine
/// (see [`ComputeEngine::install_stuck_bits`]). Unlike a transient flip
/// ([`ComputeEngine::flip_weight_bit`]), a stuck bit survives parameter
/// reloads: every [`reload_parameters`](ComputeEngine::reload_parameters)
/// re-manifests it onto the freshly restored clean registers.
///
/// This is the engine-side mirror of the fault model's stuck-at site type
/// (the dependency points the other way, so the fault crates convert into
/// this type when installing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckWeightBit {
    /// Crossbar row (input index).
    pub row: usize,
    /// Crossbar column (neuron index).
    pub col: usize,
    /// Bit position (0 = LSB).
    pub bit: u8,
    /// The value the bit is stuck at.
    pub stuck_at: bool,
}

impl StuckWeightBit {
    /// The register code as it would actually be read with this bit
    /// stuck.
    fn apply(self, code: u8) -> u8 {
        if self.stuck_at {
            code | (1 << self.bit)
        } else {
            code & !(1 << self.bit)
        }
    }
}

/// The per-cycle bitmask words of one neuron phase — comparator,
/// internal spike, guard allow, and output spike (`spike & allow`) —
/// reused across cycles and lanes so the hot path never allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct CycleWords {
    cmp: Vec<u64>,
    spike: Vec<u64>,
    allow: Vec<u64>,
    fired: Vec<u64>,
}

impl CycleWords {
    /// Word buffers for `n_neurons` neurons.
    pub(crate) fn new(n_neurons: usize) -> Self {
        let words = n_words(n_neurons);
        Self {
            cmp: vec![0; words],
            spike: vec![0; words],
            allow: vec![0; words],
            fired: vec![0; words],
        }
    }

    /// The neuron phase of one lane over its already-filled drive `acc`:
    /// fused LIF step, guard observation over the comparator words,
    /// output-spike words (left in `self.fired`), per-neuron spike
    /// counts, and lateral inhibition driven by the output spikes. Every
    /// lane of the trial-group pass and the event backend's sample loop
    /// run through this one copy. Returns whether any comparator fired
    /// this cycle (pre-guard).
    #[inline(always)]
    pub(crate) fn lane_phase<G: SpikeGuard>(
        &mut self,
        lane: &mut NeuronLanes,
        acc: &[i32],
        v_thresh: &[i32],
        hw: &NeuronHwParams,
        guard: &mut G,
        counts: &mut [u32],
    ) -> bool {
        lane.step_fused(acc, v_thresh, hw, &mut self.cmp, &mut self.spike);
        guard.observe_cycle(&self.cmp, &mut self.allow, lane.len());
        let mut n_fired = 0_u32;
        let mut cmp_any = 0_u64;
        let words = self.cmp.iter().zip(&self.spike).zip(&self.allow);
        for (fired, ((&cmp, &spike), &allow)) in self.fired.iter_mut().zip(words) {
            cmp_any |= cmp;
            *fired = spike & allow;
            n_fired += fired.count_ones();
        }
        for_each_set_bit(&self.fired, |j| counts[j] += 1);
        if n_fired > 0 && hw.v_inh > 0 {
            let total_inh = hw.v_inh.saturating_mul(n_fired as i32);
            lane.inhibit_non_fired(&self.fired, total_inh);
        }
        cmp_any != 0
    }
}

/// One lane of a trial-group chunk: the sample it runs, the chunk slot
/// of its overlay, the output plane `(map, sample)` it counts into, and
/// (filled by the chunk runner) its sample's drive plane.
#[derive(Debug, Clone, Copy)]
struct LaneJob {
    sample: usize,
    slot: usize,
    plane: (usize, usize),
    drive: usize,
}

/// Where the lanes of a trial group get their spike guards.
enum LaneGuards<'g, G> {
    /// Every lane starts from its own clone of the prototype (the
    /// trial-group contract); the function is `G::clone`, supplied by the
    /// entry points that carry the `Clone` bound.
    Cloned(&'g G, fn(&G) -> G),
    /// The one lane of a single sample drives the caller's guard.
    Caller(&'g mut G),
}

impl<G> LaneGuards<'_, G> {
    /// The guards of a chunk of `n` lanes; `bank` holds the clones.
    fn for_lanes<'a>(&'a mut self, n: usize, bank: &'a mut Vec<G>) -> &'a mut [G] {
        match self {
            Self::Cloned(proto, clone) => {
                bank.clear();
                bank.extend((0..n).map(|_| clone(proto)));
                bank
            }
            Self::Caller(guard) => {
                debug_assert_eq!(n, 1, "a caller's guard drives one lane");
                std::slice::from_mut(&mut **guard)
            }
        }
    }
}

/// The trial-group pass's scratch (sized on first use, at most
/// [`MAX_LANES`] lanes): the lane bank and its cycle words, the chunk's
/// lane jobs, its distinct samples and their drive planes, one lane's
/// corrected drive, and the lowered weight deltas of the chunk's
/// overlays.
#[derive(Debug, Clone, Default)]
struct TrialScratch {
    lanes: Vec<NeuronLanes>,
    words: CycleWords,
    jobs: Vec<LaneJob>,
    samples: Vec<usize>,
    drive: Vec<i32>,
    lane_drive: Vec<i32>,
    deltas: Vec<WeightDeltas>,
    keys: Vec<u64>,
}

/// The compiled copy of the lane pass a trial group runs on (see
/// [`ComputeEngine::run_lane_chunk`]). Only the CPU decides which: there
/// is no setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneCopy {
    /// Built for the crate's target; runs on every host.
    Baseline,
    /// Built with AVX2 enabled. Only [`LaneCopy::detect`] returns it,
    /// and only on a CPU with AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

impl LaneCopy {
    /// The widest copy this CPU runs.
    fn detect() -> Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Baseline
    }
}

/// Calls `f` with the index of every set bit of `words`, ascending.
#[inline]
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in words.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            f(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The compute engine of the paper's Fig. 5, in integer arithmetic.
///
/// # Examples
///
/// ```
/// use snn_hw::engine::{ComputeEngine, DirectRead, NoGuard};
/// use snn_sim::{config::SnnConfig, network::Network, rng::seeded_rng};
/// use snn_sim::quant::QuantizedNetwork;
/// use snn_sim::spike::SpikeTrain;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SnnConfig::builder().n_inputs(8).n_neurons(2).build()?;
/// let net = Network::new(cfg, &mut seeded_rng(1));
/// let qn = QuantizedNetwork::from_network_default(&net);
/// let mut engine = ComputeEngine::for_network(&qn)?;
/// let mut train = SpikeTrain::new(8, 1);
/// train.push_step(vec![0, 3, 5]);
/// let counts = engine.run_sample_into(&train, &DirectRead, &mut NoGuard);
/// assert!(counts.iter().all(|&c| c <= 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ComputeEngine {
    physical: EngineConfig,
    n_inputs: usize,
    n_neurons: usize,
    crossbar: Crossbar,
    v_thresh: Vec<i32>,
    hw: NeuronHwParams,
    /// Architectural per-neuron view: the one home of the fault flags
    /// (the injection surface, which every lane imports) and of the
    /// reference path's neuron state.
    neurons: Vec<NeuronUnit>,
    /// The deployment's register image, which a parameter reload writes
    /// back.
    clean_codes: Vec<u8>,
    /// Row-major image of the registers through the table of the last
    /// non-identity read path that ran. Allocated lazily on first
    /// non-identity use, so `DirectRead`-only engines (and their
    /// per-trial campaign clones) never pay for it.
    read_cache: Vec<u8>,
    /// The (table, mutation epoch) `read_cache` was built from; `None`
    /// until the first build.
    read_cache_key: Option<([u8; 256], u64)>,
    /// Full `read_cache` rebuilds since construction.
    read_cache_rebuilds: u64,
    /// Permanent stuck-at faults (see [`StuckWeightBit`]): re-applied to
    /// the registers at the end of every parameter reload, so healing
    /// never clears them — the stuck-at persistence contract.
    stuck_bits: Vec<StuckWeightBit>,
    /// Whether any register may differ from `clean_codes` (set at every
    /// register write, cleared by a parameter reload that rewrites them).
    crossbar_dirty: bool,
    /// Bumped by every register write (`crossbar_mut`, `flip_weight_bit`,
    /// a stuck bit that changes a code, a reload that rewrites the
    /// registers), and by nothing else. The read cache and derived
    /// backends (the event-driven engine's compiled adjacency lists) key
    /// on it, so a heal or an injected fault can never be served from a
    /// stale image.
    mutation_epoch: u64,
    /// The trial-group pass's scratch (see [`TrialScratch`]).
    trial: TrialScratch,
    /// The one-plane result [`run_sample_into`](Self::run_sample_into)
    /// borrows its counts from.
    sample: MultiMapResult,
}

impl ComputeEngine {
    /// Builds an engine for a quantized network using the paper's physical
    /// geometry ([`EngineConfig::PAPER`]).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidNetwork`] if the network fails validation.
    pub fn for_network(qn: &QuantizedNetwork) -> Result<Self, HwError> {
        Self::with_config(EngineConfig::PAPER, qn)
    }

    /// Builds an engine with an explicit physical geometry. Every engine
    /// runs the one accumulate shape of [`crate::kernels`] and chunks
    /// trial groups [`MAX_LANES`] lanes wide.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidNetwork`] if the network fails validation.
    pub fn with_config(physical: EngineConfig, qn: &QuantizedNetwork) -> Result<Self, HwError> {
        qn.validate().map_err(|e| HwError::InvalidNetwork {
            detail: e.to_string(),
        })?;
        let crossbar = Crossbar::from_codes(qn.n_inputs, qn.n_neurons, &qn.codes)?;
        Ok(Self {
            physical,
            n_inputs: qn.n_inputs,
            n_neurons: qn.n_neurons,
            crossbar,
            v_thresh: qn.neuron.v_thresh.clone(),
            hw: NeuronHwParams {
                v_reset: qn.neuron.v_reset,
                v_leak: qn.neuron.v_leak,
                t_refrac: qn.neuron.t_refrac,
                v_inh: qn.neuron.v_inh,
            },
            neurons: vec![NeuronUnit::new(); qn.n_neurons],
            clean_codes: qn.codes.clone(),
            read_cache: Vec::new(),
            read_cache_key: None,
            read_cache_rebuilds: 0,
            stuck_bits: Vec::new(),
            crossbar_dirty: false,
            mutation_epoch: 0,
            trial: TrialScratch {
                words: CycleWords::new(qn.n_neurons),
                ..TrialScratch::default()
            },
            sample: MultiMapResult::new(),
        })
    }

    /// Logical input count.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Logical neuron count.
    pub fn n_neurons(&self) -> usize {
        self.n_neurons
    }

    /// Physical engine geometry (for the cost models).
    pub fn physical(&self) -> EngineConfig {
        self.physical
    }

    /// The weight crossbar (fault injection reads/writes registers here).
    pub fn crossbar(&self) -> &Crossbar {
        &self.crossbar
    }

    /// Mutable crossbar access for fault injection. Counts as a register
    /// write: it bumps the mutation epoch (any register may be about to
    /// change), so the next non-identity run rebuilds the image.
    pub fn crossbar_mut(&mut self) -> &mut Crossbar {
        self.crossbar_dirty = true;
        self.mutation_epoch += 1;
        &mut self.crossbar
    }

    /// Flips one weight-register bit (a soft error) — the fault
    /// injector's write path. A register write: it bumps the mutation
    /// epoch.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::IndexOutOfRange`] for bad indices (the engine is
    /// unchanged in that case).
    pub fn flip_weight_bit(&mut self, row: usize, col: usize, bit: u8) -> Result<(), HwError> {
        self.crossbar.flip_bit(row, col, bit)?;
        self.crossbar_dirty = true;
        self.mutation_epoch += 1;
        Ok(())
    }

    /// The one fault-site check: every weight flip of `overlay` against
    /// the crossbar ([`Crossbar::check_bit`]), then every neuron site
    /// against the units. [`apply_overlay`](Self::apply_overlay) and the
    /// trial-group pass run it before they touch anything.
    ///
    /// # Errors
    ///
    /// Returns the [`HwError::IndexOutOfRange`] of the first bad site.
    pub fn check_overlay(&self, overlay: &NeuronFaultOverlay) -> Result<(), HwError> {
        for &(row, col, bit) in overlay.weight_flips() {
            self.crossbar.check_bit(row as usize, col as usize, bit)?;
        }
        for &(j, _) in overlay.neuron_ops() {
            if j as usize >= self.n_neurons {
                return Err(HwError::IndexOutOfRange {
                    what: "neuron",
                    index: j as usize,
                    bound: self.n_neurons,
                });
            }
        }
        Ok(())
    }

    /// Installs `overlay` over the current fault state — the one install
    /// path of a transient fault map: flips its weight bits (register
    /// writes, each bumping the mutation epoch) and sets its neuron
    /// sites' fault flags, which persist until the next
    /// [`reload_parameters`](Self::reload_parameters).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::IndexOutOfRange`] if any site is out of range
    /// ([`check_overlay`](Self::check_overlay)); the engine is then
    /// unchanged.
    pub fn apply_overlay(&mut self, overlay: &NeuronFaultOverlay) -> Result<(), HwError> {
        self.check_overlay(overlay)?;
        for &(row, col, bit) in overlay.weight_flips() {
            self.flip_weight_bit(row as usize, col as usize, bit)?;
        }
        for &(j, op) in overlay.neuron_ops() {
            self.neurons[j as usize].faults.set(op);
        }
        Ok(())
    }

    /// The exact inverse of a successful `apply_overlay(overlay)` on an
    /// engine whose fault flags were `flags`: flips the same bits back
    /// (flips are XOR, and move the epoch) and restores the flags.
    pub(crate) fn revert_overlay(&mut self, overlay: &NeuronFaultOverlay, flags: &[OpFaults]) {
        for &(row, col, bit) in overlay.weight_flips() {
            self.flip_weight_bit(row as usize, col as usize, bit)
                .expect("an applied overlay's sites are in range");
        }
        for (unit, &f) in self.neurons.iter_mut().zip(flags) {
            unit.faults = f;
        }
    }

    /// Installs permanent stuck-at faults: each site's bit is forced to
    /// its stuck value now **and after every parameter reload** — healing
    /// restores the clean registers, then the stuck bits re-manifest on
    /// top of them ([`reload_parameters`](Self::reload_parameters) re-applies
    /// them). This is what distinguishes a permanent fault from a
    /// transient [`flip_weight_bit`](Self::flip_weight_bit), which the
    /// next reload heals for good.
    ///
    /// Installing replaces any previously installed set (the campaign
    /// shape is one map per trial). Pass an empty slice — or call
    /// [`clear_stuck_bits`](Self::clear_stuck_bits) — to return to a
    /// purely transient fault model.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::IndexOutOfRange`] if any site is outside the
    /// crossbar or names a bit ≥ 8; the engine is unchanged in that case.
    pub fn install_stuck_bits(&mut self, sites: &[StuckWeightBit]) -> Result<(), HwError> {
        for s in sites {
            self.crossbar.check_bit(s.row, s.col, s.bit)?;
        }
        self.stuck_bits = sites.to_vec();
        self.apply_stuck_bits();
        Ok(())
    }

    /// Removes all installed stuck-at faults. The registers keep their
    /// current (possibly stuck) codes until the next parameter reload,
    /// which — with the set now empty — restores genuinely clean registers.
    pub fn clear_stuck_bits(&mut self) {
        self.stuck_bits.clear();
    }

    /// The currently installed permanent stuck-at faults.
    pub fn stuck_bits(&self) -> &[StuckWeightBit] {
        &self.stuck_bits
    }

    /// Forces every installed stuck bit onto the registers. Marks the
    /// crossbar dirty and bumps the mutation epoch when a code changed,
    /// so the next reload rewrites the registers and the image and
    /// derived backends (the event engine's compiled adjacency) rebuild.
    fn apply_stuck_bits(&mut self) {
        let mut changed = false;
        for i in 0..self.stuck_bits.len() {
            let s = self.stuck_bits[i];
            let code = self.crossbar.read(s.row, s.col);
            let stuck = s.apply(code);
            if stuck != code {
                self.crossbar.write(s.row, s.col, stuck);
                changed = true;
            }
        }
        if changed {
            self.crossbar_dirty = true;
            self.mutation_epoch += 1;
        }
    }

    /// Full rebuilds of the transformed-crossbar image since construction
    /// — a test hook for pinning when the image is rebuilt, not a
    /// simulation observable.
    pub fn read_cache_rebuilds(&self) -> u64 {
        self.read_cache_rebuilds
    }

    /// The neuron units: the one home of the op-fault flags, and of the
    /// neuron state the reference path
    /// ([`step_reference`](Self::step_reference)) advances. The optimized
    /// entry points import the fault flags into lanes at rest and never
    /// write the units back.
    pub fn neurons(&self) -> &[NeuronUnit] {
        &self.neurons
    }

    /// Mutable neuron access for fault injection; the next run imports
    /// whatever flags it leaves.
    pub fn neurons_mut(&mut self) -> &mut [NeuronUnit] {
        &mut self.neurons
    }

    /// Per-neuron thresholds in code units.
    pub fn thresholds(&self) -> &[i32] {
        &self.v_thresh
    }

    /// Shared integer neuron parameters.
    pub fn hw_params(&self) -> NeuronHwParams {
        self.hw
    }

    /// Parameter replacement: rewrites every weight register from the
    /// clean deployment image, re-applies the installed stuck bits, and
    /// clears all neuron-operation faults (the paper's healing event for
    /// both fault classes). Also notifies `guard` so monitor latches
    /// reset.
    ///
    /// This is the heal-on-entry contract for **all** backends: every
    /// evaluate entry point (dense or event-driven — see
    /// [`crate::backend::EngineBackend`]) heals through this method first,
    /// which is what makes it sound for grid shards to reuse one
    /// deployment clone across trials. Only a crossbar written since the
    /// last reload is rewritten, and that rewrite bumps the mutation
    /// epoch, so the image and backends that compile derived views of the
    /// crossbar (the event engine's adjacency lists) rebuild from the
    /// healed registers; a reload of an unwritten crossbar leaves the
    /// registers, the image and the epoch alone.
    pub fn reload_parameters<G: SpikeGuard>(&mut self, guard: &mut G) {
        if self.crossbar_dirty {
            self.crossbar
                .reload(&self.clean_codes)
                .expect("clean image always matches crossbar shape");
            self.crossbar_dirty = false;
            self.mutation_epoch += 1;
        }
        // Permanent faults survive healing: re-manifest every installed
        // stuck bit (marks the crossbar dirty again and bumps the epoch
        // when any register changed).
        self.apply_stuck_bits();
        for n in &mut self.neurons {
            n.clear_faults();
            n.reset_state();
        }
        guard.on_param_reload();
    }

    /// Clears the units' membrane/refractory state (between reference
    /// samples; every optimized run starts its lanes at rest anyway).
    /// Persisted faults — flipped register bits and stuck neuron ops —
    /// remain, per the paper's persistence semantics.
    pub fn reset_state(&mut self) {
        for n in &mut self.neurons {
            n.reset_state();
        }
    }

    /// Monotone counter of register writes (see the field doc); derived
    /// backends key compiled views on it.
    pub(crate) fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// A zero-sized stand-in engine for `mem::replace` when a backend
    /// container swaps representations in place. Never stepped.
    pub(crate) fn placeholder() -> Self {
        Self {
            physical: EngineConfig::PAPER,
            n_inputs: 0,
            n_neurons: 0,
            crossbar: Crossbar::zeroed(0, 0),
            v_thresh: Vec::new(),
            hw: NeuronHwParams {
                v_reset: 0,
                v_leak: 0,
                t_refrac: 0,
                v_inh: 0,
            },
            neurons: Vec::new(),
            clean_codes: Vec::new(),
            read_cache: Vec::new(),
            read_cache_key: None,
            read_cache_rebuilds: 0,
            stuck_bits: Vec::new(),
            crossbar_dirty: false,
            mutation_epoch: 0,
            trial: TrialScratch::default(),
            sample: MultiMapResult::new(),
        }
    }

    /// Presents one encoded sample (membrane state starts from rest) and
    /// returns per-neuron output spike counts as a borrow of the engine's
    /// scratch — the allocation-free form of
    /// [`run_sample`](Self::run_sample), valid until the next run.
    ///
    /// This is the one-lane trial group: one sample, one empty overlay,
    /// and the caller's `guard` driving the lane, so the guard's state
    /// afterwards is what the sample left it in. Each cycle accumulates
    /// the active rows through the resolved read path, then runs every
    /// neuron through the fused LIF step, the guard and lateral
    /// inhibition (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if any active-row index is out of range for this engine.
    pub fn run_sample_into<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> &[u32] {
        let resolved = ResolvedPath::new(path);
        let mut sample = std::mem::take(&mut self.sample);
        self.run_trial_group(
            LaneCopy::detect(),
            std::slice::from_ref(train),
            &[NeuronFaultOverlay::new()],
            &resolved,
            LaneGuards::Caller(guard),
            &mut sample,
        );
        self.sample = sample;
        self.sample.counts(0, 0)
    }

    /// Presents one encoded sample (membrane state starts from rest) and
    /// returns per-neuron output spike counts as an owned vector.
    pub fn run_sample<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> Vec<u32> {
        self.run_sample_into(train, path, guard).to_vec()
    }

    /// The resolved drive image every accumulate reads: the registers
    /// themselves for the identity table, else the transformed-crossbar
    /// image of `path`'s table, rebuilt first when the table or the
    /// mutation epoch differs from the ones it was built from.
    pub(crate) fn drive_image(&mut self, path: &ResolvedPath) -> &[u8] {
        if path.identity {
            return self.crossbar.codes_slice();
        }
        let epoch = self.mutation_epoch;
        let current = matches!(&self.read_cache_key,
            Some((table, built)) if *built == epoch && *table == path.table);
        if !current {
            self.read_cache.resize(self.crossbar.len(), 0);
            for (dst, &c) in self.read_cache.iter_mut().zip(self.crossbar.codes_slice()) {
                *dst = path.table[c as usize];
            }
            self.read_cache_key = Some((path.table, epoch));
            self.read_cache_rebuilds += 1;
        }
        &self.read_cache
    }

    /// Presents a batch of encoded samples in one interleaved pass and
    /// writes per-sample spike counts into `out` — the campaign hot path
    /// (see the module docs). This is the one-map case of
    /// [`run_batch_multi_map`](Self::run_batch_multi_map): one empty
    /// overlay, with samples filling the lanes.
    ///
    /// Every sample is evaluated **independently**: membrane state starts
    /// from rest and the spike guard is cloned per sample from the `guard`
    /// prototype, so the result for sample `s` is bit-identical to
    ///
    /// ```text
    /// engine.run_sample(&trains[s], path, &mut guard.clone())
    /// ```
    ///
    /// on an otherwise-idle engine (property-tested against
    /// [`run_sample_reference`](Self::run_sample_reference) across kernels,
    /// guards, and fault maps). Trains may have ragged lengths; samples
    /// past their last timestep simply sit out the remaining cycles.
    /// Internally the batch is processed in chunks of [`MAX_LANES`]
    /// samples. Persisted faults apply to every sample, per the paper's
    /// semantics; the neuron units are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if any train's active-row index is out of range for this
    /// engine.
    pub fn run_batch_into<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        path: &P,
        guard: &G,
        out: &mut BatchResult,
    ) {
        let resolved = ResolvedPath::new(path);
        self.run_trial_group(
            LaneCopy::detect(),
            trains,
            &[NeuronFaultOverlay::new()],
            &resolved,
            LaneGuards::Cloned(guard, G::clone),
            &mut out.planes,
        );
    }

    /// [`run_batch_into`](Self::run_batch_into) returning an owned
    /// [`BatchResult`].
    pub fn run_batch<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        path: &P,
        guard: &G,
    ) -> BatchResult {
        let mut out = BatchResult::new();
        self.run_batch_into(trains, path, guard, &mut out);
        out
    }

    /// Evaluates K fault maps of one trial group through a **single
    /// shared drive phase** — the engine-level lever for batching a
    /// campaign across techniques/trials.
    ///
    /// At each timestep of each sample the synaptic drive over the
    /// engine's current registers is accumulated **once**, and every
    /// map's lane reads it: a map that strikes only neuron operations
    /// reads it as is, and a map with weight flips reads it plus its
    /// per-row corrections on that cycle's active rows. The drive is an
    /// `i32` sum of transformed codes, so for a map `m` with flipped
    /// cells `F_m`
    ///
    /// ```text
    /// drive_m[c] = drive[c] + Σ_{(r,c) ∈ F_m, r active} (read(faulty) − read(current))
    /// ```
    ///
    /// holds exactly for every read path (bounding applies to the faulty
    /// code). K maps cost one accumulate plus K neuron passes and a few
    /// corrections, instead of K full engine passes.
    ///
    /// Each `(map, sample)` pair is evaluated **independently**: map `m`'s
    /// fault plane is the engine's current registers and persisted neuron
    /// faults plus `maps[m]`'s flips and sites, membrane state starts from
    /// rest per sample, and the spike guard is cloned per (map, sample)
    /// from the `guard` prototype — so `out.counts(m, s)` is bit-identical
    /// to
    ///
    /// ```text
    /// let mut e = engine.clone();
    /// e.apply_overlay(&maps[m])?;
    /// e.run_sample(&trains[s], path, &mut guard.clone())
    /// ```
    ///
    /// (property-tested against
    /// [`run_batch_multi_map_reference`](Self::run_batch_multi_map_reference)
    /// across kernels, guards, weight flips, vr-burst maps, empty maps,
    /// and ragged map counts). Maps are processed in chunks of
    /// [`MAX_LANES`]; the maps are never
    /// installed, so the engine's neuron units, crossbar, read cache and
    /// mutation epoch are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if a map site's neuron, row, column or bit, or a train's
    /// active-row index, is out of range for this engine.
    pub fn run_batch_multi_map<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        let resolved = ResolvedPath::new(path);
        let guards = LaneGuards::Cloned(guard, G::clone);
        self.run_trial_group(LaneCopy::detect(), trains, maps, &resolved, guards, out);
    }

    /// The one trial-group executor behind
    /// [`run_sample_into`](Self::run_sample_into),
    /// [`run_batch_into`](Self::run_batch_into) and
    /// [`run_batch_multi_map`](Self::run_batch_multi_map): every
    /// (sample, overlay) pair runs in its own lane of the lane bank,
    /// driving its own guard from `guards`, and counts into one plane of
    /// `out`.
    ///
    /// Lanes run in chunks of at most W = [`MAX_LANES`], and each
    /// chunk's overlays are lowered to weight deltas once, against the
    /// current registers. A chunk of K overlays runs W / K samples at a
    /// time — a plain batch is W samples × 1 map, a full multi-map chunk
    /// 1 sample × W maps. Every chunk runs on `copy`.
    fn run_trial_group<G: SpikeGuard>(
        &mut self,
        copy: LaneCopy,
        trains: &[SpikeTrain],
        overlays: &[NeuronFaultOverlay],
        path: &ResolvedPath,
        mut guards: LaneGuards<'_, G>,
        out: &mut MultiMapResult,
    ) {
        out.reset(self.n_neurons, trains.len(), overlays.len());
        let mut scratch = std::mem::take(&mut self.trial);
        let mut bank = Vec::new();
        for (chunk_idx, maps) in overlays.chunks(MAX_LANES).enumerate() {
            self.lower_deltas(&mut scratch, maps, path);
            let per_map = MAX_LANES / maps.len();
            for first in (0..trains.len()).step_by(per_map) {
                let samples = first..(first + per_map).min(trains.len());
                scratch.jobs.clear();
                for m in 0..maps.len() {
                    scratch.jobs.extend(samples.clone().map(|s| LaneJob {
                        sample: s,
                        slot: m,
                        plane: (chunk_idx * MAX_LANES + m, s),
                        drive: 0,
                    }));
                }
                let lane_guards = guards.for_lanes(scratch.jobs.len(), &mut bank);
                self.run_lane_chunk(copy, &mut scratch, trains, maps, path, lane_guards, out);
            }
        }
        self.trial = scratch;
    }

    /// Lowers each of `maps`' weight flips into delta slot `i` of
    /// `scratch`, against the current registers.
    fn lower_deltas(
        &self,
        scratch: &mut TrialScratch,
        maps: &[NeuronFaultOverlay],
        path: &ResolvedPath,
    ) {
        if scratch.deltas.len() < maps.len() {
            scratch
                .deltas
                .resize_with(maps.len(), WeightDeltas::default);
        }
        let codes = self.crossbar.codes_slice();
        for (deltas, map) in scratch.deltas.iter_mut().zip(maps) {
            if let Err(e) = self.check_overlay(map) {
                panic!("fault overlay out of range: {e}");
            }
            deltas.lower(
                map.weight_flips(),
                codes,
                self.n_neurons,
                path,
                &mut scratch.keys,
            );
        }
    }

    /// Runs one chunk of lanes (`scratch.jobs`, lane `i` driving
    /// `guards[i]`; slot `i` is `maps[i]`, already lowered into
    /// `scratch.deltas[i]`) over their samples. Per cycle, the drive is
    /// accumulated once per distinct active-row set among the chunk's
    /// samples, then each live lane runs [`CycleWords::lane_phase`] on
    /// its sample's drive, corrected by its overlay's weight deltas on
    /// the active rows.
    ///
    /// The body ([`lane_chunk_body`](Self::lane_chunk_body)) is compiled
    /// twice from one source: once for the crate's target and once with
    /// AVX2 enabled ([`lane_chunk_avx2`](Self::lane_chunk_avx2)); `copy`
    /// picks one (see [`LaneCopy`]). Integer arithmetic is the same at
    /// any vector width, so both copies give bit-identical results.
    #[allow(clippy::too_many_arguments)]
    fn run_lane_chunk<G: SpikeGuard>(
        &mut self,
        copy: LaneCopy,
        scratch: &mut TrialScratch,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &ResolvedPath,
        guards: &mut [G],
        out: &mut MultiMapResult,
    ) {
        match copy {
            LaneCopy::Baseline => self.lane_chunk_body(scratch, trains, maps, path, guards, out),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            #[allow(unsafe_code)]
            LaneCopy::Avx2 => {
                // SAFETY: `lane_chunk_avx2` needs only AVX2, and
                // `LaneCopy::Avx2` comes only from `LaneCopy::detect`,
                // which returns it after `is_x86_feature_detected!("avx2")`.
                unsafe { self.lane_chunk_avx2(scratch, trains, maps, path, guards, out) }
            }
        }
    }

    /// [`lane_chunk_body`](Self::lane_chunk_body) compiled with AVX2
    /// enabled: the body and its `#[inline(always)]` callees are built
    /// into this function with 256-bit registers.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn lane_chunk_avx2<G: SpikeGuard>(
        &mut self,
        scratch: &mut TrialScratch,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &ResolvedPath,
        guards: &mut [G],
        out: &mut MultiMapResult,
    ) {
        self.lane_chunk_body(scratch, trains, maps, path, guards, out);
    }

    /// The one source of the lane pass (see
    /// [`run_lane_chunk`](Self::run_lane_chunk)). Always inlined, so each
    /// copy compiles it, and its hot callees, with its own features.
    #[inline(always)]
    fn lane_chunk_body<G: SpikeGuard>(
        &mut self,
        scratch: &mut TrialScratch,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &ResolvedPath,
        guards: &mut [G],
        out: &mut MultiMapResult,
    ) {
        let n = self.n_neurons;
        let TrialScratch {
            lanes,
            words,
            jobs,
            samples,
            drive,
            lane_drive,
            deltas,
            ..
        } = scratch;
        if lanes.len() < jobs.len() {
            lanes.resize_with(jobs.len(), || NeuronLanes::new(0));
        }
        samples.clear();
        for (lane, job) in lanes.iter_mut().zip(jobs.iter_mut()) {
            lane.configure(&self.neurons, maps[job.slot].neuron_ops());
            job.drive = match samples.iter().position(|&s| s == job.sample) {
                Some(d) => d,
                None => {
                    samples.push(job.sample);
                    samples.len() - 1
                }
            };
        }
        drive.clear();
        drive.resize(samples.len() * n, 0);
        lane_drive.resize(n, 0);
        let t_max = samples
            .iter()
            .map(|&s| trains[s].n_steps())
            .max()
            .unwrap_or(0);
        for t in 0..t_max {
            // Drive phase: one accumulate per *distinct* active-row set
            // across the chunk's samples this cycle; duplicates are
            // copied. The image rows touched at cycle `t` stay hot across
            // every lane of the chunk.
            let src = self.drive_image(path);
            for (d, &s) in samples.iter().enumerate() {
                let train = &trains[s];
                if t >= train.n_steps() {
                    continue;
                }
                let rows = train.step(t);
                let shared = samples[..d]
                    .iter()
                    .position(|&p| t < trains[p].n_steps() && trains[p].step(t) == rows);
                let (done, rest) = drive.split_at_mut(d * n);
                let acc = &mut rest[..n];
                match shared {
                    Some(p) => acc.copy_from_slice(&done[p * n..p * n + n]),
                    None => kernels::write_rows_blocked(src, n, rows, acc),
                }
            }
            // Neuron phase of every lane whose sample is still live.
            for ((lane, job), guard) in lanes.iter_mut().zip(jobs.iter()).zip(guards.iter_mut()) {
                let train = &trains[job.sample];
                if t >= train.n_steps() {
                    continue;
                }
                let shared = &drive[job.drive * n..(job.drive + 1) * n];
                let acc = if deltas[job.slot].apply(shared, train.step(t), lane_drive) {
                    &lane_drive[..]
                } else {
                    shared
                };
                words.lane_phase(
                    lane,
                    acc,
                    &self.v_thresh,
                    &self.hw,
                    guard,
                    out.counts_mut(job.plane.0, job.plane.1),
                );
            }
        }
    }

    /// Reference formulation of
    /// [`run_batch_multi_map`](Self::run_batch_multi_map): the per-map
    /// scalar loop — install each map through
    /// [`apply_overlay`](Self::apply_overlay), run every sample through
    /// [`run_sample_reference`](Self::run_sample_reference) with a fresh
    /// guard clone, and revert the map to the pre-call registers and
    /// fault flags. Kept as the behavioral oracle for the equivalence
    /// property tests; not a hot path.
    ///
    /// # Panics
    ///
    /// Panics if a map site is out of range for this engine.
    pub fn run_batch_multi_map_reference<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
    ) -> MultiMapResult {
        let mut out = MultiMapResult::new();
        out.reset(self.n_neurons, trains.len(), maps.len());
        let flags: Vec<OpFaults> = self.neurons.iter().map(|u| u.faults).collect();
        for (m, map) in maps.iter().enumerate() {
            if let Err(e) = self.apply_overlay(map) {
                panic!("fault overlay {m} out of range: {e}");
            }
            for (s, train) in trains.iter().enumerate() {
                let counts = self.run_sample_reference(train, path, &mut guard.clone());
                out.counts_mut(m, s).copy_from_slice(&counts);
            }
            self.revert_overlay(map, &flags);
        }
        self.reset_state();
        out
    }

    /// Reference (pre-optimization) formulation of one timestep of the
    /// lane pass, on the units' own state: per-element closure reads,
    /// per-neuron branch-chain stepping, and one guard call per neuron.
    /// Returns the neurons that emitted an output spike (after faults and
    /// the guard's veto); lateral inhibition is driven by those. Kept as
    /// the behavioral oracle for the equivalence property tests; not a
    /// hot path.
    pub fn step_reference<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        active_rows: &[u32],
        path: &P,
        guard: &mut G,
    ) -> Vec<u32> {
        let mut acc = vec![0_i64; self.n_neurons];
        for &row in active_rows {
            self.crossbar
                .accumulate_row(row as usize, |c| path.read(c), &mut acc);
        }
        let mut fired: Vec<u32> = Vec::new();
        for (j, &drive) in acc.iter().enumerate() {
            let out = self.neurons[j].step(drive, self.v_thresh[j], &self.hw);
            let allowed = guard.allow_spike(j, out.cmp_out);
            if out.spike && allowed {
                fired.push(j as u32);
            }
        }
        if !fired.is_empty() && self.hw.v_inh > 0 {
            let total_inh = self.hw.v_inh.saturating_mul(fired.len() as i32);
            let mut is_fired = vec![false; self.n_neurons];
            for &j in &fired {
                is_fired[j as usize] = true;
            }
            for (j, n) in self.neurons.iter_mut().enumerate() {
                if !is_fired[j] {
                    n.inhibit(total_inh);
                }
            }
        }
        fired
    }

    /// Reference formulation of [`run_sample`](Self::run_sample), built on
    /// [`step_reference`](Self::step_reference).
    pub fn run_sample_reference<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> Vec<u32> {
        self.reset_state();
        let mut counts = vec![0_u32; self.n_neurons];
        for step in 0..train.n_steps() {
            for j in self.step_reference(train.step(step), path, guard) {
                counts[j as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron_unit::NeuronOp;
    use snn_sim::config::SnnConfig;
    use snn_sim::encoding::PoissonEncoder;
    use snn_sim::network::Network;
    use snn_sim::quant::QuantizedNetwork;
    use snn_sim::rng::seeded_rng;

    fn small_engine() -> ComputeEngine {
        let cfg = SnnConfig::builder()
            .n_inputs(8)
            .n_neurons(4)
            .v_thresh(2.0)
            .v_leak(0.1)
            .v_inh(4.0)
            .t_refrac(2)
            .build()
            .unwrap();
        let net = Network::from_parts(cfg.clone(), vec![0.5; cfg.n_synapses()]).unwrap();
        let qn = QuantizedNetwork::from_network_default(&net);
        ComputeEngine::for_network(&qn).unwrap()
    }

    /// A neuron-only overlay of `sites`.
    fn ops(sites: &[(u32, NeuronOp)]) -> NeuronFaultOverlay {
        sites.iter().copied().collect()
    }

    /// A train presenting `rows` on each of `n_steps` cycles.
    fn constant_train(rows: &[u32], n_steps: usize) -> SpikeTrain {
        let mut train = SpikeTrain::new(8, n_steps);
        for _ in 0..n_steps {
            train.push_step(rows.to_vec());
        }
        train
    }

    #[test]
    fn saturating_input_elicits_spikes() {
        let mut e = small_engine();
        let train = constant_train(&[0, 1, 2, 3, 4, 5, 6, 7], 20);
        let counts = e.run_sample_into(&train, &DirectRead, &mut NoGuard);
        assert!(counts.iter().sum::<u32>() > 0);
    }

    #[test]
    fn silent_input_no_spikes() {
        let mut e = small_engine();
        let train = constant_train(&[], 20);
        let counts = e.run_sample_into(&train, &DirectRead, &mut NoGuard);
        assert!(counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn run_sample_resets_state_between_samples() {
        let mut e = small_engine();
        let mut train = SpikeTrain::new(8, 2);
        train.push_step(vec![0, 1, 2, 3]);
        train.push_step(vec![0, 1, 2, 3]);
        let a = e.run_sample(&train, &DirectRead, &mut NoGuard);
        let b = e.run_sample(&train, &DirectRead, &mut NoGuard);
        assert_eq!(a, b, "same input after reset must give same counts");
    }

    #[test]
    fn vr_fault_causes_burst_and_dominates() {
        let mut e = small_engine();
        e.neurons_mut()[1].faults.set(NeuronOp::VmemReset);
        let mut train = SpikeTrain::new(8, 30);
        for _ in 0..30 {
            train.push_step(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        }
        let counts = e.run_sample(&train, &DirectRead, &mut NoGuard);
        let others_max = counts
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != 1)
            .map(|(_, &c)| c)
            .max()
            .unwrap();
        assert!(
            counts[1] > 2 * others_max,
            "bursting neuron must dominate: {counts:?}"
        );
    }

    #[test]
    fn sg_fault_silences_neuron() {
        let mut e = small_engine();
        e.neurons_mut()[2].faults.set(NeuronOp::SpikeGeneration);
        let mut train = SpikeTrain::new(8, 30);
        for _ in 0..30 {
            train.push_step(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        }
        let counts = e.run_sample(&train, &DirectRead, &mut NoGuard);
        assert_eq!(counts[2], 0);
    }

    #[test]
    fn reload_parameters_heals_faults() {
        let mut e = small_engine();
        e.crossbar_mut().flip_bit(0, 0, 7).unwrap();
        e.neurons_mut()[0].faults.set(NeuronOp::VmemReset);
        let dirty = e.crossbar().read(0, 0);
        e.reload_parameters(&mut NoGuard);
        assert_ne!(e.crossbar().read(0, 0), dirty);
        assert!(!e.neurons()[0].faults.any());
    }

    #[test]
    fn guard_vetoes_spikes() {
        struct MuteAll;
        impl SpikeGuard for MuteAll {
            fn allow_spike(&mut self, _n: usize, _c: bool) -> bool {
                false
            }
        }
        let mut e = small_engine();
        let train = constant_train(&[0, 1, 2, 3, 4, 5, 6, 7], 20);
        let counts = e.run_sample_into(&train, &DirectRead, &mut MuteAll);
        assert!(counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn read_path_bounding_reduces_drive() {
        // A path clamping codes above 64 to 0 must slow firing down.
        struct Clamp;
        impl WeightReadPath for Clamp {
            fn read(&self, code: u8) -> u8 {
                if code >= 64 {
                    0
                } else {
                    code
                }
            }
        }
        let mut plain = small_engine();
        let mut clamped = small_engine();
        let mut train = SpikeTrain::new(8, 30);
        for _ in 0..30 {
            train.push_step(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        }
        let a: u32 = plain
            .run_sample(&train, &DirectRead, &mut NoGuard)
            .iter()
            .sum();
        let b: u32 = clamped
            .run_sample(&train, &Clamp, &mut NoGuard)
            .iter()
            .sum();
        assert!(b < a, "clamped engine must fire less ({b} vs {a})");
    }

    #[test]
    fn optimized_step_matches_reference() {
        // Same engine state, same inputs: the SoA lane pass and the
        // per-neuron reference must agree spike for spike.
        struct Clamp;
        impl WeightReadPath for Clamp {
            fn read(&self, code: u8) -> u8 {
                if code >= 100 {
                    13
                } else {
                    code
                }
            }
        }
        let mut e = small_engine();
        e.crossbar_mut().flip_bit(3, 1, 7).unwrap();
        let mut train = SpikeTrain::new(8, 40);
        for t in 0..40_u32 {
            train.push_step((0..8).filter(|r| (t + r) % 3 != 0).collect());
        }
        let reference = e.run_sample_reference(&train, &Clamp, &mut NoGuard);
        let fast = e.run_sample_into(&train, &Clamp, &mut NoGuard);
        assert_eq!(fast, reference.as_slice());
    }

    #[test]
    fn default_observe_cycle_forwards_to_allow_spike() {
        // A guard implementing only allow_spike must behave identically
        // under the batched protocol — including partial trailing words.
        struct MuteEven;
        impl SpikeGuard for MuteEven {
            fn allow_spike(&mut self, n: usize, _c: bool) -> bool {
                n % 2 == 1
            }
        }
        let n = 70;
        let words = n_words(n);
        let cmp = vec![u64::MAX; words];
        let mut allow = vec![0_u64; words];
        MuteEven.observe_cycle(&cmp, &mut allow, n);
        for j in 0..n {
            let got = (allow[j >> 6] >> (j & 63)) & 1 != 0;
            assert_eq!(got, j % 2 == 1, "neuron {j}");
        }
        // Padding bits beyond n are zero under the default forwarder.
        for b in (n % 64)..64 {
            assert_eq!((allow[words - 1] >> b) & 1, 0, "padding bit {b}");
        }
    }

    #[test]
    fn run_sample_into_matches_owned_and_reference() {
        let mut e = small_engine();
        let mut train = SpikeTrain::new(8, 20);
        for t in 0..20_u32 {
            train.push_step((0..8).filter(|r| (t + r) % 2 == 0).collect());
        }
        let owned = e.run_sample(&train, &DirectRead, &mut NoGuard);
        let reference = e.run_sample_reference(&train, &DirectRead, &mut NoGuard);
        let into = e
            .run_sample_into(&train, &DirectRead, &mut NoGuard)
            .to_vec();
        assert_eq!(owned, reference);
        assert_eq!(owned, into);
    }

    #[test]
    fn direct_read_table_is_identity() {
        let t = DirectRead.table();
        for (i, &v) in t.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
        assert!(ResolvedPath::new(&DirectRead).identity);
        assert!(!ResolvedPath::new(&Bound90).identity);
    }

    /// The bounded read path used by the cache tests below.
    struct Bound90;
    impl WeightReadPath for Bound90 {
        fn read(&self, code: u8) -> u8 {
            if code > 90 {
                11
            } else {
                code
            }
        }
    }

    #[test]
    fn read_cache_rebuilds_only_when_stale() {
        let mut e = small_engine();
        let mut train = SpikeTrain::new(8, 5);
        for _ in 0..5 {
            train.push_step(vec![0, 2, 4, 6]);
        }
        assert_eq!(e.read_cache_rebuilds(), 0);
        // First non-identity sample builds the image once.
        e.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(e.read_cache_rebuilds(), 1);
        // Steady state: more samples, same image.
        e.run_sample(&train, &Bound90, &mut NoGuard);
        e.run_batch(&[train.clone(), train.clone()], &Bound90, &NoGuard);
        assert_eq!(e.read_cache_rebuilds(), 1);
        // A register write bumps the epoch; the next sample rebuilds.
        e.crossbar_mut().flip_bit(0, 0, 3).unwrap();
        e.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(e.read_cache_rebuilds(), 2);
        // The identity table reads the registers, whatever type it has.
        struct Identity;
        impl WeightReadPath for Identity {
            fn read(&self, code: u8) -> u8 {
                code
            }
        }
        e.run_sample(&train, &DirectRead, &mut NoGuard);
        e.run_sample(&train, &Identity, &mut NoGuard);
        assert_eq!(e.read_cache_rebuilds(), 2, "identity paths have no image");
        // A different table over the same registers is a new image.
        struct Bound40;
        impl WeightReadPath for Bound40 {
            fn read(&self, code: u8) -> u8 {
                if code > 40 {
                    0
                } else {
                    code
                }
            }
        }
        e.run_sample(&train, &Bound40, &mut NoGuard);
        assert_eq!(e.read_cache_rebuilds(), 3);
    }

    #[test]
    fn reload_rebuilds_the_image_only_after_a_register_write() {
        let mut e = small_engine();
        let mut train = SpikeTrain::new(8, 8);
        for t in 0..8_u32 {
            train.push_step((0..8).filter(|r| (t + r) % 2 == 0).collect());
        }
        let clean_codes = e.crossbar().codes();
        let clean = e.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(e.read_cache_rebuilds(), 1);
        // A reload of an unwritten crossbar leaves the image, the epoch
        // and the rebuild count alone.
        let (image, epoch) = (e.read_cache.clone(), e.mutation_epoch());
        e.reload_parameters(&mut NoGuard);
        assert_eq!(e.read_cache, image);
        assert_eq!(e.mutation_epoch(), epoch);
        assert_eq!(e.run_sample(&train, &Bound90, &mut NoGuard), clean);
        assert_eq!(e.read_cache_rebuilds(), 1);
        // The trial shape reload → write → evaluate, through every write
        // API: the write and the reload after it each bump the epoch, the
        // next run rebuilds exactly once, and it equals the reference,
        // which reads the registers through `read` with no image.
        for trial in 0..6_usize {
            let (row, col) = (trial % 8, trial % 4);
            let epoch = e.mutation_epoch();
            match trial % 3 {
                0 => e.flip_weight_bit(row, col, 7).unwrap(),
                1 => e.crossbar_mut().write(row, col, 200),
                _ => {
                    let code = e.crossbar().read(row, col);
                    let site = StuckWeightBit {
                        row,
                        col,
                        bit: 7,
                        stuck_at: code & 0x80 == 0,
                    };
                    e.install_stuck_bits(&[site]).unwrap();
                }
            }
            assert!(e.mutation_epoch() > epoch, "trial {trial}: write");
            let rebuilds = e.read_cache_rebuilds();
            let got = e.run_sample(&train, &Bound90, &mut NoGuard);
            assert_eq!(e.read_cache_rebuilds(), rebuilds + 1, "trial {trial}");
            let want = e
                .clone()
                .run_sample_reference(&train, &Bound90, &mut NoGuard);
            assert_eq!(got, want, "trial {trial}: faulted");
            e.clear_stuck_bits();
            let epoch = e.mutation_epoch();
            e.reload_parameters(&mut NoGuard);
            assert!(e.mutation_epoch() > epoch, "trial {trial}: reload");
            assert_eq!(e.crossbar().codes(), clean_codes);
            assert_eq!(e.run_sample(&train, &Bound90, &mut NoGuard), clean);
            assert_eq!(e.read_cache_rebuilds(), rebuilds + 2, "trial {trial}");
        }
    }

    #[test]
    fn flip_weight_bit_without_cache_is_plain_flip() {
        let mut e = small_engine();
        let before = e.crossbar().read(1, 1);
        let epoch = e.mutation_epoch();
        e.flip_weight_bit(1, 1, 4).unwrap();
        assert_eq!(e.crossbar().read(1, 1), before ^ (1 << 4));
        assert_eq!(e.mutation_epoch(), epoch + 1);
        assert_eq!(e.read_cache_rebuilds(), 0, "no image to build yet");
        assert!(e.flip_weight_bit(99, 0, 0).is_err());
        assert_eq!(
            e.mutation_epoch(),
            epoch + 1,
            "a rejected flip writes nothing"
        );
    }

    #[test]
    fn run_batch_matches_run_sample_on_small_engine() {
        let mut e = small_engine();
        let mut trains = Vec::new();
        for s in 0..5_u32 {
            let mut train = SpikeTrain::new(8, 15);
            for t in 0..15 {
                train.push_step((0..8).filter(|r| (t + r + s) % 3 != 0).collect());
            }
            trains.push(train);
        }
        let batched = e.run_batch(&trains, &DirectRead, &NoGuard);
        for (s, train) in trains.iter().enumerate() {
            let single = e.run_sample(train, &DirectRead, &mut NoGuard);
            assert_eq!(batched.counts(s), single.as_slice(), "sample {s}");
        }
        assert_eq!(batched.iter().count(), trains.len());
    }

    #[test]
    fn run_batch_multi_map_matches_reference_on_small_engine() {
        let mut fast = small_engine();
        // Persisted base fault: every map must see it in union with its
        // own overlay.
        fast.neurons_mut()[0].faults.set(NeuronOp::VmemLeak);
        let mut slow = fast.clone();
        let mut trains = Vec::new();
        for s in 0..3_u32 {
            let mut train = SpikeTrain::new(8, 12);
            for t in 0..12 {
                train.push_step((0..8).filter(|r| (t + r + s) % 3 != 0).collect());
            }
            trains.push(train);
        }
        let maps: Vec<NeuronFaultOverlay> = vec![
            ops(&[]),
            ops(&[(1, NeuronOp::VmemReset)]),
            ops(&[(2, NeuronOp::SpikeGeneration), (3, NeuronOp::VmemIncrease)]),
        ];
        let mut out = MultiMapResult::new();
        fast.run_batch_multi_map(&trains, &maps, &DirectRead, &NoGuard, &mut out);
        let reference = slow.run_batch_multi_map_reference(&trains, &maps, &DirectRead, &NoGuard);
        assert_eq!(out, reference);
        assert_eq!(out.n_maps(), 3);
        assert_eq!(out.n_samples(), 3);
        // The vr map's burst neuron dominates only in its own plane.
        assert!(out.counts(1, 0)[1] > out.counts(0, 0)[1]);
        // The engine's own fault state is untouched by the pass.
        assert!(fast.neurons()[0].faults.vl);
        assert!(!fast.neurons()[1].faults.vr);
    }

    #[test]
    fn run_batch_multi_map_chunks_ragged_map_counts() {
        // MAX_LANES + 1 maps forces a ragged second chunk.
        let mut fast = small_engine();
        let mut slow = fast.clone();
        let mut train = SpikeTrain::new(8, 10);
        for t in 0..10_u32 {
            train.push_step((0..8).filter(|r| (t + r) % 2 == 0).collect());
        }
        let maps: Vec<NeuronFaultOverlay> = (0..MAX_LANES + 1)
            .map(|m| ops(&[((m % 4) as u32, NeuronOp::ALL[m % 4])]))
            .collect();
        let mut out = MultiMapResult::new();
        fast.run_batch_multi_map(&[train.clone()], &maps, &DirectRead, &NoGuard, &mut out);
        let reference = slow.run_batch_multi_map_reference(&[train], &maps, &DirectRead, &NoGuard);
        assert_eq!(out, reference);
        assert_eq!(out.n_maps(), MAX_LANES + 1);
    }

    #[test]
    fn run_batch_multi_map_degenerate_inputs() {
        let mut e = small_engine();
        let mut out = MultiMapResult::new();
        // No maps: an empty result, engine untouched.
        e.run_batch_multi_map(
            &[SpikeTrain::new(8, 0)],
            &[],
            &DirectRead,
            &NoGuard,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(out.n_samples(), 1);
        // No samples: K empty planes.
        e.run_batch_multi_map(&[], &[ops(&[])], &DirectRead, &NoGuard, &mut out);
        assert_eq!(out.n_maps(), 1);
        assert_eq!(out.n_samples(), 0);
        // Zero-length trains: all-zero counts.
        e.run_batch_multi_map(
            &[SpikeTrain::new(8, 0)],
            &[ops(&[]), ops(&[(0, NeuronOp::VmemReset)])],
            &DirectRead,
            &NoGuard,
            &mut out,
        );
        assert!(out.counts(0, 0).iter().all(|&c| c == 0));
        assert!(out.counts(1, 0).iter().all(|&c| c == 0));
    }

    #[test]
    fn multi_map_leaves_read_cache_and_crossbar_alone() {
        // Overlays are per-call inputs: neither neuron-only nor
        // weight-bearing trial groups may touch the registers, the
        // transformed image, its counters, or the mutation epoch — that
        // invariance is what keeps heal-on-entry and the shared drive
        // phase legal.
        let mut e = small_engine();
        let mut train = SpikeTrain::new(8, 5);
        for _ in 0..5 {
            train.push_step(vec![0, 2, 4, 6]);
        }
        e.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(e.read_cache_rebuilds(), 1);
        let codes_before = e.crossbar().codes();
        let image_before = e.read_cache.clone();
        let rebuilds_before = e.read_cache_rebuilds();
        let epoch_before = e.mutation_epoch();
        let mut weighty = ops(&[(1, NeuronOp::VmemLeak)]);
        weighty.push_weight_flip(0, 1, 7);
        weighty.push_weight_flip(2, 3, 6);
        weighty.push_weight_flip(2, 3, 6);
        let mut out = MultiMapResult::new();
        e.run_batch_multi_map(
            &[train.clone()],
            &[ops(&[(0, NeuronOp::VmemReset)]), weighty.clone()],
            &Bound90,
            &NoGuard,
            &mut out,
        );
        assert_eq!(
            e.read_cache_rebuilds(),
            rebuilds_before,
            "no rebuild for overlays"
        );
        assert_eq!(e.crossbar().codes(), codes_before);
        assert_eq!(e.read_cache, image_before);
        assert_eq!(e.mutation_epoch(), epoch_before);
        // A delay-free event backend runs its trial groups through the
        // same lane pass, so neither of its two entries installs a map.
        let mut ev = crate::event::EventEngine::new(e.clone());
        let maps = [ops(&[(0, NeuronOp::VmemReset)]), weighty.clone()];
        let mut batch = BatchResult::new();
        ev.run_batch_into(&[train.clone()], &Bound90, &NoGuard, &mut batch);
        ev.run_batch_multi_map(&[train], &maps, &Bound90, &NoGuard, &mut out);
        let inner = ev.engine();
        assert_eq!(
            inner.read_cache_rebuilds(),
            rebuilds_before,
            "event backend"
        );
        assert_eq!(inner.crossbar().codes(), codes_before);
        assert_eq!(inner.read_cache, image_before);
        assert_eq!(inner.mutation_epoch(), epoch_before);
    }

    #[test]
    fn weight_overlay_matches_injected_flips() {
        // Flips of one cell merge by XOR (the same bit twice cancels),
        // and the corrected shared drive equals the drive of an engine
        // with the flips injected, on every read path.
        let mut train = SpikeTrain::new(8, 12);
        for t in 0..12_u32 {
            train.push_step((0..8).filter(|r| (t + r) % 3 != 0).collect());
        }
        let mut overlay = ops(&[(2, NeuronOp::SpikeGeneration)]);
        for (row, col, bit) in [
            (0, 0, 7),
            (0, 0, 6),
            (0, 0, 7),
            (3, 2, 5),
            (7, 3, 0),
            (5, 1, 7),
        ] {
            overlay.push_weight_flip(row, col, bit);
        }
        struct Table;
        impl WeightReadPath for Table {
            fn read(&self, code: u8) -> u8 {
                code / 3
            }
        }
        let mut e = small_engine();
        let mut out = MultiMapResult::new();
        let maps = [NeuronFaultOverlay::new(), overlay.clone()];
        let mut injected = e.clone();
        for &(row, col, bit) in overlay.weight_flips() {
            injected
                .flip_weight_bit(row as usize, col as usize, bit)
                .unwrap();
        }
        injected.neurons_mut()[2]
            .faults
            .set(NeuronOp::SpikeGeneration);
        e.run_batch_multi_map(&[train.clone()], &maps, &DirectRead, &NoGuard, &mut out);
        let want = injected.run_sample(&train, &DirectRead, &mut NoGuard);
        assert_eq!(out.counts(1, 0), want.as_slice(), "direct");
        e.run_batch_multi_map(&[train.clone()], &maps, &Bound90, &NoGuard, &mut out);
        let want = injected.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(out.counts(1, 0), want.as_slice(), "bounded");
        e.run_batch_multi_map(&[train.clone()], &maps, &Table, &NoGuard, &mut out);
        let want = injected.run_sample(&train, &Table, &mut NoGuard);
        assert_eq!(out.counts(1, 0), want.as_slice(), "table");
        // Lowering: (0,0) keeps bit 6 only, and the deltas hold one entry
        // per cell whose read changes.
        let mut deltas = WeightDeltas::default();
        let mut keys = Vec::new();
        let codes = e.crossbar().codes();
        let path = ResolvedPath::new(&DirectRead);
        deltas.lower(overlay.weight_flips(), &codes, 4, &path, &mut keys);
        assert_eq!(deltas.entries.len(), 4);
        let d00 = i32::from(codes[0] ^ 0x40) - i32::from(codes[0]);
        assert_eq!(WeightDeltas::unpack(deltas.entries[0]), (0, d00));
        for (col, delta) in [(0, -255), (7, 255), (399, 0), ((1 << 23) - 1, -1)] {
            assert_eq!(
                WeightDeltas::unpack(WeightDeltas::pack(col, delta)),
                (col, delta)
            );
        }
        // Two flips of one bit lower to nothing at all.
        deltas.lower(&[(1, 1, 3), (1, 1, 3)], &codes, 4, &path, &mut keys);
        assert!(deltas.entries.is_empty() && deltas.row_start.is_empty());
    }

    #[test]
    fn engine_matches_float_simulator_on_clean_weights() {
        // The integer engine and the frozen float simulator should produce
        // very similar spike counts for the same input spike train.
        let cfg = SnnConfig::builder()
            .n_inputs(32)
            .n_neurons(8)
            .v_thresh(4.0)
            .v_leak(0.2)
            .v_inh(6.0)
            .t_refrac(3)
            .build()
            .unwrap();
        let mut rng = seeded_rng(7);
        let mut net = Network::new(cfg.clone(), &mut rng);
        net.set_frozen();
        let qn = QuantizedNetwork::from_network_default(&net);
        let mut engine = ComputeEngine::for_network(&qn).unwrap();

        let encoder = PoissonEncoder::new(0.4);
        let mut float_total = 0_u64;
        let mut int_total = 0_u64;
        for s in 0..20 {
            let img = vec![0.6_f32; 32];
            let train = encoder.encode(&img, 50, &mut seeded_rng(100 + s));
            let f = net.run_sample(&train);
            let i = engine.run_sample(&train, &DirectRead, &mut NoGuard);
            float_total += f.iter().map(|&c| c as u64).sum::<u64>();
            int_total += i.iter().map(|&c| c as u64).sum::<u64>();
        }
        assert!(float_total > 0);
        let ratio = int_total as f64 / float_total as f64;
        assert!(
            (0.7..1.3).contains(&ratio),
            "integer engine diverges from float sim: {int_total} vs {float_total}"
        );
    }

    /// A word-level faulty-reset monitor with the paper's two-cycle
    /// window, written the way softsnn-core's `ResetMonitor` runs it
    /// (this crate's unit tests cannot name that type): a neuron hot on
    /// two consecutive cycles is muted for the rest of the sample. Its
    /// `observe_cycle` is always inlined, so each lane-pass copy compiles
    /// it in, as it does the real monitor.
    #[derive(Debug, Clone)]
    struct WordMonitor {
        streak: Vec<u64>,
        disabled: Vec<u64>,
    }

    impl WordMonitor {
        fn new(n_neurons: usize) -> Self {
            let words = n_words(n_neurons);
            Self {
                streak: vec![0; words],
                disabled: vec![0; words],
            }
        }
    }

    impl SpikeGuard for WordMonitor {
        fn allow_spike(&mut self, neuron: usize, cmp_out: bool) -> bool {
            let (w, bit) = (neuron / 64, 1_u64 << (neuron % 64));
            if cmp_out {
                self.disabled[w] |= self.streak[w] & bit;
                self.streak[w] |= bit;
            } else {
                self.streak[w] &= !bit;
            }
            self.disabled[w] & bit == 0
        }

        #[inline(always)]
        fn observe_cycle(&mut self, cmp_words: &[u64], allow_words: &mut [u64], _n: usize) {
            let state = self.streak.iter_mut().zip(self.disabled.iter_mut());
            for ((&cmp, allow), (streak, disabled)) in cmp_words.iter().zip(allow_words).zip(state)
            {
                *disabled |= *streak & cmp;
                *streak = cmp;
                *allow = !*disabled;
            }
        }
    }

    /// A stateless guard on the default per-neuron protocol: every third
    /// neuron is muted.
    #[derive(Debug, Clone)]
    struct MuteThirds;

    impl SpikeGuard for MuteThirds {
        fn allow_spike(&mut self, neuron: usize, _cmp_out: bool) -> bool {
            !neuron.is_multiple_of(3)
        }
    }

    /// A bounding-shaped read path, so the pass reads a transformed image.
    struct Bound(u8);

    impl WeightReadPath for Bound {
        fn read(&self, code: u8) -> u8 {
            if code > self.0 {
                code / 2
            } else {
                code
            }
        }
    }

    /// Runs one trial group on the baseline lane-pass copy and one on
    /// `copy`, each on its own clone of `engine`, and asserts the planes
    /// match bit for bit.
    fn assert_copies_agree<G: SpikeGuard + Clone>(
        copy: LaneCopy,
        engine: &ComputeEngine,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &ResolvedPath,
        guard: &G,
        label: &str,
    ) {
        let run = |copy| {
            let mut e = engine.clone();
            let mut out = MultiMapResult::new();
            let guards = LaneGuards::Cloned(guard, G::clone);
            e.run_trial_group(copy, trains, maps, path, guards, &mut out);
            out
        };
        let baseline = run(LaneCopy::Baseline);
        assert_eq!(baseline.n_maps(), maps.len(), "{label}: map count");
        assert_eq!(run(copy), baseline, "{label}: copies diverged");
    }

    #[test]
    fn detect_picks_avx2_exactly_on_avx2_hosts() {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        assert_eq!(
            LaneCopy::detect() == LaneCopy::Avx2,
            std::arch::is_x86_feature_detected!("avx2")
        );
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        assert_eq!(LaneCopy::detect(), LaneCopy::Baseline);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        /// The baseline and AVX2 copies of the lane pass give identical
        /// planes over random chunks: ragged engine widths (partial
        /// 64-neuron words, 8-column tails), persisted weight and neuron
        /// faults, ragged map counts around `MAX_LANES`, maps with weight
        /// flips and neuron ops (some dense: every neuron faulty), ragged
        /// trains, the identity and a transformed read path, and the
        /// no-op, word-monitor and per-neuron guards. On a host without
        /// AVX2 there is one copy and nothing to compare.
        #[test]
        fn lane_pass_copies_agree_on_random_chunks(seed in proptest::prelude::any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::{Rng as _, SeedableRng};

            let copy = LaneCopy::detect();
            if copy == LaneCopy::Baseline {
                return;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let (m, n) = (rng.gen_range(1..=70_usize), rng.gen_range(1..=150_usize));
            let cfg = SnnConfig::builder()
                .n_inputs(m)
                .n_neurons(n)
                .v_thresh(2.0)
                .v_leak(0.1)
                .v_inh(3.0)
                .t_refrac(2)
                .build()
                .unwrap();
            let net = Network::new(cfg, &mut seeded_rng(seed ^ 0x1a2e));
            let qn = QuantizedNetwork::from_network_default(&net);
            let mut engine = ComputeEngine::for_network(&qn).unwrap();
            for _ in 0..rng.gen_range(0..=8_usize) {
                let (row, col) = (rng.gen_range(0..m), rng.gen_range(0..n));
                engine.flip_weight_bit(row, col, rng.gen_range(0..8)).unwrap();
                let op = NeuronOp::ALL[rng.gen_range(0..4_usize)];
                engine.neurons_mut()[col].faults.set(op);
            }
            let trains: Vec<SpikeTrain> = (0..rng.gen_range(1..=3_usize))
                .map(|_| {
                    let steps = rng.gen_range(0..=16_usize);
                    let p = rng.gen_range(0.05..0.6);
                    let mut train = SpikeTrain::new(m, steps);
                    for _ in 0..steps {
                        train.push_step((0..m as u32).filter(|_| rng.gen_bool(p)).collect());
                    }
                    train
                })
                .collect();
            let maps: Vec<NeuronFaultOverlay> = (0..rng.gen_range(1..=2 * MAX_LANES + 3))
                .map(|_| {
                    let mut map = NeuronFaultOverlay::new();
                    for _ in 0..rng.gen_range(0..=3 * n) {
                        map.push_weight_flip(
                            rng.gen_range(0..m as u32),
                            rng.gen_range(0..n as u32),
                            rng.gen_range(0..8),
                        );
                    }
                    let dense = rng.gen_bool(0.25);
                    let rate = rng.gen_range(0.0..0.3);
                    for j in 0..n as u32 {
                        for (i, op) in NeuronOp::ALL.into_iter().enumerate() {
                            // Dense: neuron `j` carries the nonzero op
                            // combination `1 + j % 15`.
                            let faulty = if dense {
                                ((1 + j % 15) >> i) & 1 != 0
                            } else {
                                rng.gen_bool(rate)
                            };
                            if faulty {
                                map.push_neuron_op(j, op);
                            }
                        }
                    }
                    map
                })
                .collect();
            for (path, path_name) in [
                (ResolvedPath::new(&DirectRead), "direct"),
                (ResolvedPath::new(&Bound(rng.gen())), "bound"),
            ] {
                let label = format!("seed {seed}, {m}×{n}, {} maps, {path_name}", maps.len());
                assert_copies_agree(copy, &engine, &trains, &maps, &path, &NoGuard, &label);
                let monitor = WordMonitor::new(n);
                assert_copies_agree(copy, &engine, &trains, &maps, &path, &monitor, &label);
                assert_copies_agree(copy, &engine, &trains, &maps, &path, &MuteThirds, &label);
            }
        }
    }
}
