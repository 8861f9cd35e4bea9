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
//! [`ComputeEngine::step`] and [`ComputeEngine::run_sample_into`] are the
//! simulation hot path of every fault-injection campaign, and are built to
//! be allocation-free and autovectorizable:
//!
//! * weight reads go through a kernel resolved once per step or sample
//!   ([`ResolvedPath`]) — a pure widening add, a branchless
//!   compare/select, or a 256-entry lookup table — instead of a
//!   per-element closure call; non-identity kernels additionally
//!   accumulate from a cached transformed-crossbar image (rebuilt only
//!   when the registers or the transform change), so the bounded/LUT
//!   paths run at direct-add speed;
//! * neuron state lives in structure-of-arrays lanes
//!   ([`crate::neuron_lanes::NeuronLanes`]): a branch-free fused
//!   integrate→leak→compare kernel covers the fault-free common case,
//!   with faulty neurons replayed in a sparse patch pass;
//! * comparator, spike, and fired results are `u64` bitmask words, so
//!   spike guards observe a whole cycle at once
//!   ([`SpikeGuard::observe_cycle`]) instead of one call per neuron, and
//!   lateral inhibition and spike counting are driven by the fired mask;
//! * the `fired` list, inhibition, accumulators, and per-neuron spike
//!   counters are scratch buffers owned by the engine and reused across
//!   steps and samples.
//!
//! # Trial groups
//!
//! [`ComputeEngine::run_batch_multi_map`] evaluates K fault maps over a
//! set of encoded samples in one pass,
//! [`ComputeEngine::run_batch_per_sample_maps`] gives each sample its own
//! maps (the re-execution shape), and [`ComputeEngine::run_batch_into`]
//! is the one-map case (a single empty overlay). All three run through
//! one private executor over a bank of
//! [`crate::neuron_lanes::NeuronLanes`], one lane per (sample, map) pair,
//! at most [`MAX_LANES`] at a time: the transformed-crossbar image stays
//! hot across every lane of a timestep, the drive is accumulated once
//! per distinct active-row set among the chunk's samples (every map lane
//! of a sample shares it), and the accumulate sums four active rows per
//! pass ([`crate::kernels::write_rows_blocked`], bit-identical to the
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
//!
//! Each lane is evaluated *independently* — state reset first, spike
//! guard cloned from the caller's prototype — so a trial group is
//! spike-for-spike identical to per-sample
//! [`run_sample_reference`](ComputeEngine::run_sample_reference) calls
//! on an engine with the map injected, cloning the guard the same way
//! (property-tested against
//! [`run_batch_multi_map_reference`](ComputeEngine::run_batch_multi_map_reference)).
//!
//! # Campaign-level crossbar-image reuse
//!
//! Fault-injection campaigns mutate a few registers per trial; the
//! transformed-crossbar image is patched in place at the injection API
//! ([`ComputeEngine::flip_weight_bit`]) instead of being rebuilt, and
//! parameter reloads restore the cached *clean* image with a copy. A
//! [`ReadCacheStats`] counter hook exposes rebuild/restore/patch counts so
//! tests can pin the reuse behaviour.
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
/// engine's table-driven hot path valid: [`table`](Self::table) captures
/// the entire input→output function in 256 entries.
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

    /// Whether this path is the identity function. Identity paths skip the
    /// table entirely and accumulate with a pure widening add.
    fn is_identity(&self) -> bool {
        false
    }

    /// If this path is a comparator + multiplexer (`code > threshold →
    /// default` — the shape of Eq. 1 weight bounding), its two hardware
    /// register values. The engine lowers such paths to a branchless
    /// compare/select kernel, which vectorizes where a general table
    /// gather does not.
    fn bound_params(&self) -> Option<(u8, u8)> {
        None
    }
}

/// The accumulation kernel resolved from a [`WeightReadPath`], once per
/// step or sample (not per element).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadKernel {
    /// Identity path: pure widening add.
    Direct,
    /// Comparator + mux: branchless compare/select.
    Bounded {
        /// `wgh_th` register.
        threshold: u8,
        /// `wgh_def` register.
        default: u8,
    },
    /// Arbitrary combinational logic: the 256-entry table stored in
    /// [`ResolvedPath::table`].
    Table,
}

/// A [`WeightReadPath`] lowered to its accumulation kernel once, for reuse
/// across many [`ComputeEngine::step_resolved`] calls.
///
/// [`ComputeEngine::step`] resolves the path on every call — cheap for
/// identity/bounded paths, but a 256-entry `read` sweep for table paths.
/// Per-step drivers (workbench-style loops presenting one timestep at a
/// time) should resolve once and reuse:
///
/// ```
/// use snn_hw::engine::{ComputeEngine, DirectRead, NoGuard, ResolvedPath};
/// use snn_sim::{config::SnnConfig, network::Network, rng::seeded_rng};
/// use snn_sim::quant::QuantizedNetwork;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SnnConfig::builder().n_inputs(8).n_neurons(2).build()?;
/// let net = Network::new(cfg, &mut seeded_rng(1));
/// let qn = QuantizedNetwork::from_network_default(&net);
/// let mut engine = ComputeEngine::for_network(&qn)?;
/// let resolved = ResolvedPath::new(&DirectRead);
/// for _ in 0..10 {
///     engine.step_resolved(&[0, 3, 5], &resolved, &mut NoGuard);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResolvedPath {
    pub(crate) kernel: ReadKernel,
    /// The 256-entry transfer function; meaningful only for
    /// [`ReadKernel::Table`] (stored inline so resolving never
    /// allocates).
    pub(crate) table: [u8; 256],
}

impl ResolvedPath {
    /// Resolves `path` to its accumulation kernel (allocation-free).
    pub fn new<P: WeightReadPath>(path: &P) -> Self {
        if path.is_identity() {
            Self {
                kernel: ReadKernel::Direct,
                table: [0; 256],
            }
        } else if let Some((threshold, default)) = path.bound_params() {
            Self {
                kernel: ReadKernel::Bounded { threshold, default },
                table: [0; 256],
            }
        } else {
            Self {
                kernel: ReadKernel::Table,
                table: path.table(),
            }
        }
    }

    /// One register code through the resolved path — the per-code
    /// function every accumulate kernel applies.
    pub(crate) fn read(&self, code: u8) -> u8 {
        match self.kernel {
            ReadKernel::Direct => code,
            ReadKernel::Bounded { threshold, default } => {
                if code > threshold {
                    default
                } else {
                    code
                }
            }
            ReadKernel::Table => self.table[code as usize],
        }
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

    #[inline]
    fn is_identity(&self) -> bool {
        true
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

/// Which representation currently holds the authoritative neuron
/// *state* (membrane + refractory). Fault flags are always authoritative
/// in the architectural units — nothing else mutates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StateHome {
    /// The SoA lanes are current (after optimized steps).
    Lanes,
    /// The `Vec<NeuronUnit>` view is current (after injection /
    /// reference steps).
    Units,
}

/// Which read-path transform the engine's transformed-crossbar image
/// currently holds. Read paths are pure combinational logic, so the
/// transformed codes only change when the transform or the register
/// contents change — the cache is invalidated at the crossbar mutation
/// boundary ([`ComputeEngine::crossbar_mut`] / parameter reload), and
/// non-identity kernels then accumulate at direct-add speed.
///
/// For [`ReadKernel::Table`] kernels the cached transform additionally
/// includes the table contents, kept in
/// [`ComputeEngine::read_cache_table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadCacheKey {
    /// Cache contents are stale (crossbar mutated, or never built).
    Invalid,
    /// Image of `code > threshold → default` over the current registers.
    Bounded {
        /// `wgh_th` register.
        threshold: u8,
        /// `wgh_def` register.
        default: u8,
    },
    /// Image of the table in `read_cache_table` over the registers.
    Table,
}

/// Rebuild/restore/patch counters of the transformed-crossbar image cache
/// — the observation hook campaign-reuse tests assert against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCacheStats {
    /// Full image rebuilds (O(rows × cols) transform sweeps).
    pub rebuilds: u64,
    /// Restores of the cached clean image at parameter reload (a copy,
    /// no transform work).
    pub restores: u64,
    /// Single-register in-place patches applied by
    /// [`ComputeEngine::flip_weight_bit`].
    pub patches: u64,
}

/// One trial's fault map in engine terms: the `(neuron, op)` sites and
/// the `(row, col, bit)` weight-register flips its soft errors strike.
/// This is the unit of the trial-group passes' map axis
/// ([`ComputeEngine::run_batch_multi_map`],
/// [`ComputeEngine::run_batch_per_sample_maps`]) — campaign layers lower
/// their fault-map types to this shape at the call boundary (the engine
/// crate cannot name them).
///
/// An overlay is a per-call input: the passes apply it on top of the
/// engine's current registers and persisted faults for the lanes that
/// carry it and never install it, so the crossbar, the read cache and
/// the mutation epoch are the same before and after the call.
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
    /// sorted through `keys` first.
    ///
    /// # Panics
    ///
    /// Panics if a flip's row, column or bit is out of range.
    fn lower(
        &mut self,
        flips: &[(u32, u32, u8)],
        codes: &[u8],
        cols: usize,
        path: &ResolvedPath,
        keys: &mut Vec<u64>,
    ) {
        let rows = codes.len() / cols.max(1);
        assert!(
            cols <= 1 << (32 - DELTA_BITS),
            "weight overlays support up to 2^23 columns"
        );
        for &(row, col, bit) in flips {
            assert!(
                (row as usize) < rows && (col as usize) < cols && bit < 8,
                "overlay weight flip ({row}, {col}, bit {bit}) out of range for {rows}×{cols}"
            );
        }
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
    planes: MultiMapResult,
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

    /// Sizes the planes and zeroes every counter (backend-internal).
    pub(crate) fn reset(&mut self, n_neurons: usize, n_samples: usize) {
        self.planes.reset(n_neurons, n_samples, 1);
    }

    /// Mutable plane of sample `s` (backend-internal).
    pub(crate) fn counts_mut(&mut self, s: usize) -> &mut [u32] {
        self.planes.counts_mut(0, s)
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
/// re-manifests it onto the freshly restored clean image.
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
#[derive(Debug, Clone)]
struct CycleWords {
    cmp: Vec<u64>,
    spike: Vec<u64>,
    allow: Vec<u64>,
    fired: Vec<u64>,
}

impl CycleWords {
    fn new(words: usize) -> Self {
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
    /// counts, and lateral inhibition driven by the output spikes. The
    /// single-sample step and every lane of the trial-group pass run
    /// through this one copy. Returns whether any comparator fired this
    /// cycle (pre-guard).
    fn lane_phase<G: SpikeGuard>(
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

/// How a trial group pairs overlays with samples.
#[derive(Debug, Clone, Copy)]
enum Pairing {
    /// Every overlay with every sample.
    Every,
    /// Sample `s` with its own overlays `s·k .. (s + 1)·k`.
    PerSample(usize),
}

/// The trial-group pass's scratch (sized on first use, at most
/// [`MAX_LANES`] lanes): the lane bank, the chunk's lane jobs, its
/// distinct samples and their drive planes, one lane's corrected drive,
/// and the lowered weight deltas of the chunk's overlays.
#[derive(Debug, Clone, Default)]
struct TrialScratch {
    lanes: Vec<NeuronLanes>,
    jobs: Vec<LaneJob>,
    samples: Vec<usize>,
    drive: Vec<i32>,
    lane_drive: Vec<i32>,
    deltas: Vec<WeightDeltas>,
    keys: Vec<u64>,
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
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SnnConfig::builder().n_inputs(8).n_neurons(2).build()?;
/// let net = Network::new(cfg, &mut seeded_rng(1));
/// let qn = QuantizedNetwork::from_network_default(&net);
/// let mut engine = ComputeEngine::for_network(&qn)?;
/// engine.step(&[0, 3, 5], &DirectRead, &mut NoGuard);
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
    /// Architectural per-neuron view: the fault-injection API and the
    /// state store of the reference path. Membrane/refractory values here
    /// are refreshed from the lanes at the injection boundary
    /// ([`neurons_mut`](Self::neurons_mut)) — see [`StateHome`].
    neurons: Vec<NeuronUnit>,
    /// SoA hot-path state (see [`crate::neuron_lanes`]).
    lanes: NeuronLanes,
    state_home: StateHome,
    clean_codes: Vec<u8>,
    /// Row-major image of the crossbar codes after the current
    /// non-identity read-path transform (see [`ReadCacheKey`]). Allocated
    /// lazily on first non-identity use, so `DirectRead`-only engines
    /// (and their per-trial campaign clones) never pay for it.
    read_cache: Vec<u8>,
    read_cache_key: ReadCacheKey,
    /// The table the cache image was built with (valid iff
    /// `read_cache_key == ReadCacheKey::Table`).
    read_cache_table: [u8; 256],
    /// The transform image over the *clean* register contents, captured
    /// when a rebuild happens on an unmutated crossbar. Parameter reloads
    /// restore the read cache from it with a copy instead of invalidating
    /// — the campaign-trial (reload → inject → evaluate) cycle then never
    /// re-runs the full transform.
    clean_cache: Vec<u8>,
    clean_cache_key: ReadCacheKey,
    clean_cache_table: [u8; 256],
    /// Permanent stuck-at faults (see [`StuckWeightBit`]): re-applied to
    /// the registers at the end of every parameter reload, so healing
    /// never clears them — the stuck-at persistence contract.
    stuck_bits: Vec<StuckWeightBit>,
    /// Whether any register may differ from `clean_codes` (set at the
    /// mutation APIs, cleared by parameter reload).
    crossbar_dirty: bool,
    cache_stats: ReadCacheStats,
    /// Bumped by every API that can change what the crossbar's resolved
    /// read path yields (`crossbar_mut`, `flip_weight_bit`,
    /// `reload_parameters`). Derived backends (the event-driven engine's
    /// compiled adjacency lists) key their caches on this counter, so a
    /// reload-heal or an injected fault can never be served from a stale
    /// compilation.
    mutation_epoch: u64,
    // Scratch buffers reused across steps/samples (the hot path never
    // allocates).
    acc: Vec<i32>,
    fired: Vec<u32>,
    words: CycleWords,
    counts: Vec<u32>,
    /// The trial-group pass's scratch (see [`TrialScratch`]).
    trial: TrialScratch,
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
            lanes: NeuronLanes::new(qn.n_neurons),
            state_home: StateHome::Lanes,
            clean_codes: qn.codes.clone(),
            read_cache: Vec::new(),
            read_cache_key: ReadCacheKey::Invalid,
            read_cache_table: [0; 256],
            clean_cache: Vec::new(),
            clean_cache_key: ReadCacheKey::Invalid,
            clean_cache_table: [0; 256],
            stuck_bits: Vec::new(),
            crossbar_dirty: false,
            cache_stats: ReadCacheStats::default(),
            mutation_epoch: 0,
            acc: vec![0; qn.n_neurons],
            fired: Vec::with_capacity(qn.n_neurons),
            words: CycleWords::new(n_words(qn.n_neurons)),
            counts: vec![0; qn.n_neurons],
            trial: TrialScratch::default(),
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

    /// Mutable crossbar access for fault injection. Conservatively
    /// invalidates the transformed-crossbar image (any register may be
    /// about to change). The injection hot path should prefer
    /// [`flip_weight_bit`](Self::flip_weight_bit), which patches the
    /// cached image in place instead of discarding it.
    pub fn crossbar_mut(&mut self) -> &mut Crossbar {
        self.read_cache_key = ReadCacheKey::Invalid;
        self.crossbar_dirty = true;
        self.mutation_epoch += 1;
        &mut self.crossbar
    }

    /// Flips one weight-register bit (a soft error) and keeps the
    /// transformed-crossbar image coherent by patching the affected cache
    /// entry in place — read paths are pure per-register functions, so a
    /// single-register change never requires a full O(rows × cols)
    /// rebuild. This is the fault injector's write path.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::IndexOutOfRange`] for bad indices (the engine is
    /// unchanged in that case).
    pub fn flip_weight_bit(&mut self, row: usize, col: usize, bit: u8) -> Result<(), HwError> {
        self.crossbar.flip_bit(row, col, bit)?;
        self.crossbar_dirty = true;
        self.mutation_epoch += 1;
        self.patch_cache_entry(row, col);
        Ok(())
    }

    /// Re-derives one transformed-crossbar cache entry from the register's
    /// current code (no-op when no transform image is active). Read paths
    /// are pure per-register functions, so a single-register change never
    /// requires a full O(rows × cols) rebuild.
    fn patch_cache_entry(&mut self, row: usize, col: usize) {
        if self.read_cache_key == ReadCacheKey::Invalid {
            return;
        }
        let code = self.crossbar.read(row, col);
        let transformed = match self.read_cache_key {
            ReadCacheKey::Bounded { threshold, default } => {
                if code > threshold {
                    default
                } else {
                    code
                }
            }
            ReadCacheKey::Table => self.read_cache_table[code as usize],
            ReadCacheKey::Invalid => unreachable!("guarded above"),
        };
        self.read_cache[row * self.n_neurons + col] = transformed;
        self.cache_stats.patches += 1;
    }

    /// Installs permanent stuck-at faults: each site's bit is forced to
    /// its stuck value now **and after every parameter reload** — healing
    /// restores the clean image, then the stuck bits re-manifest on top of
    /// it ([`reload_parameters`](Self::reload_parameters) re-applies
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
            if s.row >= self.crossbar.rows() {
                return Err(HwError::IndexOutOfRange {
                    what: "stuck-at row",
                    index: s.row,
                    bound: self.crossbar.rows(),
                });
            }
            if s.col >= self.crossbar.cols() {
                return Err(HwError::IndexOutOfRange {
                    what: "stuck-at column",
                    index: s.col,
                    bound: self.crossbar.cols(),
                });
            }
            if s.bit >= 8 {
                return Err(HwError::IndexOutOfRange {
                    what: "stuck-at bit",
                    index: s.bit as usize,
                    bound: 8,
                });
            }
        }
        self.stuck_bits = sites.to_vec();
        self.apply_stuck_bits();
        Ok(())
    }

    /// Removes all installed stuck-at faults. The registers keep their
    /// current (possibly stuck) codes until the next parameter reload,
    /// which — with the set now empty — restores a genuinely clean image.
    pub fn clear_stuck_bits(&mut self) {
        self.stuck_bits.clear();
    }

    /// The currently installed permanent stuck-at faults.
    pub fn stuck_bits(&self) -> &[StuckWeightBit] {
        &self.stuck_bits
    }

    /// Forces every installed stuck bit onto the registers, patching the
    /// transformed-crossbar image per changed site. Marks the crossbar
    /// dirty and bumps the mutation epoch when anything changed, so the
    /// clean-image capture logic never snapshots a stuck-corrupted image
    /// and derived backends (the event engine's compiled adjacency)
    /// recompile.
    fn apply_stuck_bits(&mut self) {
        let mut changed = false;
        for i in 0..self.stuck_bits.len() {
            let s = self.stuck_bits[i];
            let code = self.crossbar.read(s.row, s.col);
            let stuck = s.apply(code);
            if stuck != code {
                self.crossbar.write(s.row, s.col, stuck);
                self.patch_cache_entry(s.row, s.col);
                changed = true;
            }
        }
        if changed {
            self.crossbar_dirty = true;
            self.mutation_epoch += 1;
        }
    }

    /// The transformed-crossbar image cache counters (see
    /// [`ReadCacheStats`]) — a test hook for pinning campaign-level cache
    /// reuse, not a simulation observable.
    pub fn read_cache_stats(&self) -> ReadCacheStats {
        self.cache_stats
    }

    /// The neuron units (fault injection reads op-fault flags here).
    ///
    /// Fault flags in this view are always current. Membrane/refractory
    /// values reflect the last synchronization point (a
    /// [`neurons_mut`](Self::neurons_mut) call or a reference-path step);
    /// after optimized steps, read live membrane state through
    /// [`membranes`](Self::membranes) instead.
    pub fn neurons(&self) -> &[NeuronUnit] {
        &self.neurons
    }

    /// Mutable neuron access for fault injection.
    ///
    /// This is the AoS ↔ SoA synchronization boundary: the architectural
    /// view is refreshed from the hot-path lanes before being returned,
    /// and the lanes re-import it (including fault masks and the sparse
    /// faulty-neuron list) on the next optimized step — once per
    /// injection, not per step.
    pub fn neurons_mut(&mut self) -> &mut [NeuronUnit] {
        self.ensure_units();
        self.state_home = StateHome::Units;
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

    /// Makes the architectural units current (export lanes state).
    fn ensure_units(&mut self) {
        if self.state_home == StateHome::Lanes {
            self.lanes.sync_to_units(&mut self.neurons);
            self.state_home = StateHome::Units;
        }
    }

    /// Makes the SoA lanes current (import units state + fault masks).
    fn ensure_lanes(&mut self) {
        if self.state_home == StateHome::Units {
            self.lanes.sync_from_units(&self.neurons);
            self.state_home = StateHome::Lanes;
        }
    }

    /// Parameter replacement: rewrites every weight register from the
    /// clean deployment image and clears all neuron-operation faults (the
    /// paper's healing event for both fault classes). Also notifies
    /// `guard` so monitor latches reset.
    ///
    /// This is the heal-on-entry contract for **all** backends: every
    /// evaluate entry point (dense or event-driven — see
    /// [`crate::backend::EngineBackend`]) heals through this method first,
    /// which is what makes it sound for grid shards to reuse one
    /// deployment clone across trials. The reload bumps the mutation
    /// epoch, so backends that compile derived views of the crossbar (the
    /// event engine's adjacency lists) recompile from the healed image
    /// instead of serving a stale one.
    pub fn reload_parameters<G: SpikeGuard>(&mut self, guard: &mut G) {
        self.crossbar
            .reload(&self.clean_codes)
            .expect("clean image always matches crossbar shape");
        self.crossbar_dirty = false;
        self.mutation_epoch += 1;
        // The registers are back to the clean deployment image; if the
        // clean transform image was ever captured, restoring it is a copy
        // — no transform sweep. Otherwise, if a transform is active (the
        // typical campaign shape is reload → inject → evaluate, so the
        // first build happens over *injected* codes and never qualifies
        // as clean), re-derive its image over the now-clean registers
        // once and capture it: every later trial at this read path then
        // costs a copy at reload plus O(sites) patches at injection,
        // with zero transform rebuilds.
        if self.clean_cache_key != ReadCacheKey::Invalid {
            self.read_cache.clear();
            self.read_cache.extend_from_slice(&self.clean_cache);
            self.read_cache_key = self.clean_cache_key;
            self.read_cache_table = self.clean_cache_table;
            self.cache_stats.restores += 1;
        } else if self.read_cache_key != ReadCacheKey::Invalid {
            self.rebuild_current_image();
        }
        // Permanent faults survive healing: re-manifest every installed
        // stuck bit onto the freshly restored image (marks the crossbar
        // dirty again and bumps the epoch when any register changed).
        self.apply_stuck_bits();
        for n in &mut self.neurons {
            n.clear_faults();
            n.reset_state();
        }
        self.state_home = StateHome::Units;
        guard.on_param_reload();
    }

    /// Clears membrane/refractory state (between samples). Persisted
    /// faults — flipped register bits and stuck neuron ops — remain, per
    /// the paper's persistence semantics.
    pub fn reset_state(&mut self) {
        // Cleared in both representations, so whichever is current stays
        // consistent without forcing a sync.
        for n in &mut self.neurons {
            n.reset_state();
        }
        self.lanes.reset_state();
    }

    /// Advances the engine one timestep.
    ///
    /// `active_rows` lists the input channels spiking this cycle. Returns
    /// the indices of neurons that emitted an *output* spike (after
    /// spike-generation faults and the guard's veto). Lateral inhibition
    /// is driven by output spikes, so a neuron whose spike generator is
    /// faulty (or vetoed) does not inhibit its neighbours.
    ///
    /// The returned slice borrows the engine's scratch buffer and is valid
    /// until the next `step`/`run_sample` call; copy it out
    /// (`.to_vec()`) if you need it longer.
    ///
    /// Resolves `path` on every call; per-step drivers should resolve once
    /// with [`ResolvedPath::new`] and use
    /// [`step_resolved`](Self::step_resolved).
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn step<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        active_rows: &[u32],
        path: &P,
        guard: &mut G,
    ) -> &[u32] {
        let resolved = ResolvedPath::new(path);
        self.step_resolved(active_rows, &resolved, guard)
    }

    /// [`step`](Self::step) with a pre-resolved read path — the
    /// allocation-free, resolve-free form for per-step drivers.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn step_resolved<G: SpikeGuard>(
        &mut self,
        active_rows: &[u32],
        path: &ResolvedPath,
        guard: &mut G,
    ) -> &[u32] {
        self.step_into(active_rows, path, guard);
        &self.fired
    }

    /// The engine-internal step: accumulate active rows through the
    /// resolved kernel, advance all neuron lanes, run the guard over the
    /// comparator bitmask, apply lateral inhibition through the fired
    /// bitmask. Leaves the fired indices in `self.fired`.
    fn step_into<G: SpikeGuard>(
        &mut self,
        active_rows: &[u32],
        path: &ResolvedPath,
        guard: &mut G,
    ) {
        self.accumulate_active_rows(active_rows, path);
        self.neuron_phase(guard);
    }

    /// Drive phase of one timestep: zeroes the accumulators and
    /// accumulates `active_rows` through the resolved read path. Shared
    /// verbatim between the dense per-step path and the event backend's
    /// delay-free processed cycles, so both drive the very same kernel.
    pub(crate) fn accumulate_active_rows(&mut self, active_rows: &[u32], path: &ResolvedPath) {
        self.ensure_lanes();
        // Non-identity kernels accumulate from the transformed-crossbar
        // image at direct-add speed; the image is rebuilt only when the
        // transform or the register contents changed.
        if !matches!(path.kernel, ReadKernel::Direct) {
            self.ensure_read_cache(path);
        }
        let src: &[u8] = match path.kernel {
            ReadKernel::Direct => self.crossbar.codes_slice(),
            ReadKernel::Bounded { .. } | ReadKernel::Table => &self.read_cache,
        };
        // The per-step API accumulates row-at-a-time through the one
        // lane-explicit body every datapath shares (`kernels`);
        // row-*blocking* the drive phase is the batched passes' lever —
        // `run_batch_into` and `run_batch_multi_map` amortize it across
        // samples/maps, which is exactly what the
        // `batch_speedup`/`multi_map_speedup` trajectory metrics measure
        // against this path.
        self.acc.fill(0);
        kernels::accumulate_rows(src, self.n_neurons, active_rows, &mut self.acc);
    }

    /// Drive phase of one timestep from an external pre-resolved weight
    /// image (row-major, same shape as the crossbar). The event backend's
    /// delayed path accumulates its zero-delay "immediate" image this way
    /// and then adds matured ring-buffer events via
    /// [`acc_add`](Self::acc_add).
    pub(crate) fn accumulate_image_rows(&mut self, src: &[u8], active_rows: &[u32]) {
        self.ensure_lanes();
        self.acc.fill(0);
        kernels::accumulate_rows(src, self.n_neurons, active_rows, &mut self.acc);
    }

    /// Adds an externally accumulated drive plane (matured delayed
    /// events) into the current cycle's accumulators. Plain `i32`
    /// addition, so contribution order cannot change results.
    pub(crate) fn acc_add(&mut self, extra: &[i32]) {
        debug_assert_eq!(extra.len(), self.acc.len());
        for (a, &e) in self.acc.iter_mut().zip(extra) {
            *a += e;
        }
    }

    /// Neuron phase of one timestep over the already-filled accumulators
    /// ([`CycleWords::lane_phase`] on the engine's own lanes, counting
    /// into the single-sample counters), plus extraction of the fired
    /// indices. Returns whether any comparator fired this cycle (`cmp`,
    /// pre-guard) — the event backend's hot-neuron gate.
    pub(crate) fn neuron_phase<G: SpikeGuard>(&mut self, guard: &mut G) -> bool {
        self.ensure_lanes();
        let cmp_any = self.words.lane_phase(
            &mut self.lanes,
            &self.acc,
            &self.v_thresh,
            &self.hw,
            guard,
            &mut self.counts,
        );
        self.fired.clear();
        for_each_set_bit(&self.words.fired, |j| self.fired.push(j as u32));
        cmp_any
    }

    /// Output spikes of the last processed cycle (indices into the neuron
    /// range), as left by [`neuron_phase`](Self::neuron_phase).
    pub(crate) fn last_fired(&self) -> &[u32] {
        &self.fired
    }

    /// Whether any lane's membrane currently sits at or above its
    /// threshold — the event backend's skip-safety check after a cycle
    /// whose comparators fired.
    pub(crate) fn lanes_any_at_or_above(&mut self) -> bool {
        self.ensure_lanes();
        self.lanes.any_at_or_above(&self.v_thresh)
    }

    /// Applies `k` drive-free cycles to every lane in one catch-up pass
    /// (refractory countdown first, then `k − r` floored leak steps) —
    /// the event backend's lazy-leak flush. Bit-identical to `k`
    /// sequential silent fused steps; see
    /// [`NeuronLanes::advance_silent`].
    pub(crate) fn advance_lanes_silent(&mut self, k: u32, leak: &crate::event::LeakTable) {
        self.ensure_lanes();
        self.lanes.advance_silent(k, leak);
    }

    /// Monotone counter of crossbar-affecting mutations (see the field
    /// doc); derived backends key compiled views on it.
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
            lanes: NeuronLanes::new(0),
            state_home: StateHome::Lanes,
            clean_codes: Vec::new(),
            read_cache: Vec::new(),
            read_cache_key: ReadCacheKey::Invalid,
            read_cache_table: [0; 256],
            clean_cache: Vec::new(),
            clean_cache_key: ReadCacheKey::Invalid,
            clean_cache_table: [0; 256],
            stuck_bits: Vec::new(),
            crossbar_dirty: false,
            cache_stats: ReadCacheStats::default(),
            mutation_epoch: 0,
            acc: Vec::new(),
            fired: Vec::new(),
            words: CycleWords::new(0),
            counts: Vec::new(),
            trial: TrialScratch::default(),
        }
    }

    /// Presents one encoded sample (membrane state is cleared first) and
    /// returns per-neuron output spike counts as a borrow of the engine's
    /// scratch counter buffer — the allocation-free form of
    /// [`run_sample`](Self::run_sample). The slice is valid until the next
    /// `step`/`run_sample` call.
    pub fn run_sample_into<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> &[u32] {
        self.reset_state();
        // The neuron phase counts every output spike into `counts`.
        self.counts.fill(0);
        let resolved = ResolvedPath::new(path);
        for step_idx in 0..train.n_steps() {
            self.step_into(train.step(step_idx), &resolved, guard);
        }
        &self.counts
    }

    /// Presents one encoded sample (membrane state is cleared first) and
    /// returns per-neuron output spike counts as an owned vector.
    pub fn run_sample<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        train: &SpikeTrain,
        path: &P,
        guard: &mut G,
    ) -> Vec<u32> {
        self.run_sample_into(train, path, guard).to_vec()
    }

    /// Makes the transformed-crossbar image current for a non-identity
    /// kernel, rebuilding it only when the transform or the register
    /// contents changed. A rebuild over clean registers also captures the
    /// clean image, so later parameter reloads restore by copy.
    fn ensure_read_cache(&mut self, path: &ResolvedPath) {
        let current = match path.kernel {
            ReadKernel::Direct => return,
            ReadKernel::Bounded { threshold, default } => {
                self.read_cache_key == ReadCacheKey::Bounded { threshold, default }
            }
            ReadKernel::Table => {
                self.read_cache_key == ReadCacheKey::Table && self.read_cache_table == path.table
            }
        };
        if current {
            return;
        }
        match path.kernel {
            ReadKernel::Direct => unreachable!("early-returned above"),
            ReadKernel::Bounded { threshold, default } => {
                self.read_cache_key = ReadCacheKey::Bounded { threshold, default };
            }
            ReadKernel::Table => {
                self.read_cache_key = ReadCacheKey::Table;
                self.read_cache_table = path.table;
            }
        }
        self.rebuild_current_image();
    }

    /// Rebuilds the transformed image for the *current* cache key over the
    /// current register contents (key and table are left unchanged), and
    /// captures the result as the clean image when the crossbar is clean.
    fn rebuild_current_image(&mut self) {
        self.read_cache.resize(self.crossbar.len(), 0);
        match self.read_cache_key {
            ReadCacheKey::Invalid => return,
            ReadCacheKey::Bounded { threshold, default } => {
                for (dst, &c) in self.read_cache.iter_mut().zip(self.crossbar.codes_slice()) {
                    *dst = if c > threshold { default } else { c };
                }
            }
            ReadCacheKey::Table => {
                let table = self.read_cache_table;
                for (dst, &c) in self.read_cache.iter_mut().zip(self.crossbar.codes_slice()) {
                    *dst = table[c as usize];
                }
            }
        }
        self.cache_stats.rebuilds += 1;
        if !self.crossbar_dirty {
            self.clean_cache.clear();
            self.clean_cache.extend_from_slice(&self.read_cache);
            self.clean_cache_key = self.read_cache_key;
            self.clean_cache_table = self.read_cache_table;
        }
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
    /// samples. Persisted faults apply to
    /// every sample, per the paper's semantics; the engine's own membrane
    /// state is left reset.
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
        let no_overlay = [NeuronFaultOverlay::new()];
        let planes = &mut out.planes;
        self.run_trial_group(
            trains,
            &no_overlay,
            Pairing::Every,
            &resolved,
            guard,
            planes,
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
    /// for &(r, c, b) in maps[m].weight_flips() { e.flip_weight_bit(r as usize, c as usize, b)?; }
    /// for &(j, op) in maps[m].neuron_ops() { e.neurons_mut()[j as usize].faults.set(op); }
    /// e.run_sample(&trains[s], path, &mut guard.clone())
    /// ```
    ///
    /// (property-tested against
    /// [`run_batch_multi_map_reference`](Self::run_batch_multi_map_reference)
    /// across kernels, guards, weight flips, vr-burst maps, empty maps,
    /// and ragged map counts). Maps are processed in chunks of
    /// [`MAX_LANES`]; the maps are never
    /// installed, so the engine's fault state, crossbar, read cache and
    /// mutation epoch are left untouched, and its membrane state is left
    /// reset.
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
        self.run_trial_group(trains, maps, Pairing::Every, &resolved, guard, out);
    }

    /// Evaluates every sample under its own `maps_per_sample` fault maps
    /// in one pass — the re-execution shape, where each execution of a
    /// sample draws a fresh map. Sample `s` runs once under each of
    /// `maps[s·k .. (s + 1)·k]` (`k = maps_per_sample`), and
    /// `out.counts(j, s)` is what
    /// [`run_batch_multi_map`](Self::run_batch_multi_map) would give for
    /// `trains[s]` alone under `maps[s·k + j]`. Lanes are
    /// (sample, map) pairs as there, so the lanes of one sample share its
    /// drive and the maps are never installed.
    ///
    /// # Panics
    ///
    /// Panics if `maps.len() != trains.len() * maps_per_sample`, or under
    /// the conditions of [`run_batch_multi_map`](Self::run_batch_multi_map).
    pub fn run_batch_per_sample_maps<P: WeightReadPath, G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        maps_per_sample: usize,
        maps: &[NeuronFaultOverlay],
        path: &P,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        let resolved = ResolvedPath::new(path);
        let pairing = Pairing::PerSample(maps_per_sample);
        self.run_trial_group(trains, maps, pairing, &resolved, guard, out);
    }

    /// The one trial-group executor behind
    /// [`run_batch_into`](Self::run_batch_into),
    /// [`run_batch_multi_map`](Self::run_batch_multi_map) and
    /// [`run_batch_per_sample_maps`](Self::run_batch_per_sample_maps):
    /// every (sample, overlay) pair runs in its own lane of the lane bank
    /// and counts into one plane of `out`.
    ///
    /// Lanes run in chunks of at most W = [`MAX_LANES`], and each
    /// chunk's overlays are lowered to weight deltas once, against the
    /// current registers. Under [`Pairing::Every`] a chunk of K overlays
    /// runs W / K samples at a time — a plain batch is W samples × 1 map,
    /// a full multi-map chunk 1 sample × W maps; under
    /// [`Pairing::PerSample`] a chunk holds whole samples' overlay sets
    /// where they fit.
    fn run_trial_group<G: SpikeGuard + Clone>(
        &mut self,
        trains: &[SpikeTrain],
        overlays: &[NeuronFaultOverlay],
        pairing: Pairing,
        path: &ResolvedPath,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        let n_maps = match pairing {
            Pairing::Every => overlays.len(),
            Pairing::PerSample(k) => {
                assert_eq!(overlays.len(), trains.len() * k, "maps per sample");
                k
            }
        };
        out.reset(self.n_neurons, trains.len(), n_maps);
        // Fault flags are authoritative in the architectural units; make
        // them current once so every lane imports the same base.
        self.ensure_units();
        self.ensure_read_cache(path);
        let mut scratch = std::mem::take(&mut self.trial);
        match pairing {
            Pairing::Every => {
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
                        self.run_lane_chunk(&mut scratch, trains, maps, path, guard, out);
                    }
                }
            }
            Pairing::PerSample(k) => {
                // Whole samples per chunk where their k lanes fit.
                let chunk = if k == 0 || k > MAX_LANES {
                    MAX_LANES
                } else {
                    MAX_LANES - MAX_LANES % k
                };
                for (chunk_idx, maps) in overlays.chunks(chunk).enumerate() {
                    self.lower_deltas(&mut scratch, maps, path);
                    scratch.jobs.clear();
                    scratch.jobs.extend((0..maps.len()).map(|slot| {
                        let lane = chunk_idx * chunk + slot;
                        LaneJob {
                            sample: lane / k,
                            slot,
                            plane: (lane % k, lane / k),
                            drive: 0,
                        }
                    }));
                    self.run_lane_chunk(&mut scratch, trains, maps, path, guard, out);
                }
            }
        }
        self.trial = scratch;
        // The trial-group pass bypasses the single-sample state; leave the
        // engine at rest in both representations so a later step/sample
        // starts from a well-defined point.
        self.reset_state();
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
            deltas.lower(
                map.weight_flips(),
                codes,
                self.n_neurons,
                path,
                &mut scratch.keys,
            );
        }
    }

    /// Runs one chunk of lanes (`scratch.jobs`; slot `i` is `maps[i]`,
    /// already lowered into `scratch.deltas[i]`) over their samples.
    /// Per cycle, the drive is accumulated once per distinct active-row
    /// set among the chunk's samples, then each live lane runs
    /// [`CycleWords::lane_phase`] on its sample's drive, corrected by its
    /// overlay's weight deltas on the active rows.
    fn run_lane_chunk<G: SpikeGuard + Clone>(
        &mut self,
        scratch: &mut TrialScratch,
        trains: &[SpikeTrain],
        maps: &[NeuronFaultOverlay],
        path: &ResolvedPath,
        guard: &G,
        out: &mut MultiMapResult,
    ) {
        let n = self.n_neurons;
        let src: &[u8] = match path.kernel {
            ReadKernel::Direct => self.crossbar.codes_slice(),
            // Nothing below mutates registers or the transform.
            ReadKernel::Bounded { .. } | ReadKernel::Table => &self.read_cache,
        };
        let TrialScratch {
            lanes,
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
        let mut guards: Vec<G> = jobs.iter().map(|_| guard.clone()).collect();
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
            for ((lane, job), guard_l) in lanes.iter_mut().zip(jobs.iter()).zip(&mut guards) {
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
                self.words.lane_phase(
                    lane,
                    acc,
                    &self.v_thresh,
                    &self.hw,
                    guard_l,
                    out.counts_mut(job.plane.0, job.plane.1),
                );
            }
        }
    }

    /// Reference formulation of
    /// [`run_batch_multi_map`](Self::run_batch_multi_map): the per-map
    /// scalar loop — flip each map's weight bits and set its neuron sites
    /// in the architectural units, run every sample through
    /// [`run_sample_reference`](Self::run_sample_reference) with a fresh
    /// guard clone, flip the bits back and restore the fault flags. Kept
    /// as the behavioral oracle for the equivalence property tests; not a
    /// hot path.
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
        self.ensure_units();
        let baseline: Vec<OpFaults> = self.neurons.iter().map(|u| u.faults).collect();
        for (m, map) in maps.iter().enumerate() {
            self.flip_overlay_bits(map);
            {
                let units = self.neurons_mut();
                for &(j, op) in map.neuron_ops() {
                    units[j as usize].faults.set(op);
                }
            }
            for (s, train) in trains.iter().enumerate() {
                let counts = self.run_sample_reference(train, path, &mut guard.clone());
                out.counts_mut(m, s).copy_from_slice(&counts);
            }
            self.flip_overlay_bits(map);
            let units = self.neurons_mut();
            for (u, &f) in units.iter_mut().zip(&baseline) {
                u.faults = f;
            }
        }
        self.reset_state();
        out
    }

    /// Flips every weight bit of `overlay` in the registers (through
    /// [`flip_weight_bit`](Self::flip_weight_bit)); a second call undoes
    /// the first. The apply/restore step of the per-map loops.
    ///
    /// # Panics
    ///
    /// Panics if a flip is out of range for this engine.
    pub(crate) fn flip_overlay_bits(&mut self, overlay: &NeuronFaultOverlay) {
        for &(row, col, bit) in overlay.weight_flips() {
            self.flip_weight_bit(row as usize, col as usize, bit)
                .expect("overlay weight flip out of range");
        }
    }

    /// Reference (pre-optimization) formulation of [`step`](Self::step):
    /// per-element closure reads, per-neuron branch-chain stepping, and
    /// one guard call per neuron. Kept as the behavioral oracle for the
    /// equivalence property tests; not a hot path.
    pub fn step_reference<P: WeightReadPath, G: SpikeGuard>(
        &mut self,
        active_rows: &[u32],
        path: &P,
        guard: &mut G,
    ) -> Vec<u32> {
        self.ensure_units();
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

    /// Per-neuron membrane potentials (for trajectory equivalence tests),
    /// read from whichever representation is current.
    pub fn membranes(&self) -> Vec<i32> {
        match self.state_home {
            StateHome::Lanes => self.lanes.vmem().to_vec(),
            StateHome::Units => self.neurons.iter().map(|n| n.vmem).collect(),
        }
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

    #[test]
    fn saturating_input_elicits_spikes() {
        let mut e = small_engine();
        let mut total = 0;
        for _ in 0..20 {
            total += e
                .step(&[0, 1, 2, 3, 4, 5, 6, 7], &DirectRead, &mut NoGuard)
                .len();
        }
        assert!(total > 0);
    }

    #[test]
    fn silent_input_no_spikes() {
        let mut e = small_engine();
        for _ in 0..20 {
            assert!(e.step(&[], &DirectRead, &mut NoGuard).is_empty());
        }
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
        let mut total = 0;
        for _ in 0..20 {
            total += e
                .step(&[0, 1, 2, 3, 4, 5, 6, 7], &DirectRead, &mut MuteAll)
                .len();
        }
        assert_eq!(total, 0);
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
        // Same engine state, same inputs: the SoA fused step and the
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
        let mut fast = small_engine();
        let mut slow = small_engine();
        fast.crossbar_mut().flip_bit(3, 1, 7).unwrap();
        slow.crossbar_mut().flip_bit(3, 1, 7).unwrap();
        for t in 0..40 {
            let rows: Vec<u32> = (0..8).filter(|r| (t + r) % 3 != 0).collect();
            let a = fast.step(&rows, &Clamp, &mut NoGuard).to_vec();
            let b = slow.step_reference(&rows, &Clamp, &mut NoGuard);
            assert_eq!(a, b, "step {t}");
            assert_eq!(fast.membranes(), slow.membranes(), "step {t}");
        }
    }

    #[test]
    fn step_resolved_matches_step() {
        struct Clamp;
        impl WeightReadPath for Clamp {
            fn read(&self, code: u8) -> u8 {
                code.saturating_sub(40)
            }
        }
        let mut by_path = small_engine();
        let mut by_handle = small_engine();
        let resolved = ResolvedPath::new(&Clamp);
        for t in 0..30 {
            let rows: Vec<u32> = (0..8).filter(|r| (t + r) % 2 == 0).collect();
            let a = by_path.step(&rows, &Clamp, &mut NoGuard).to_vec();
            let b = by_handle
                .step_resolved(&rows, &resolved, &mut NoGuard)
                .to_vec();
            assert_eq!(a, b, "step {t}");
            assert_eq!(by_path.membranes(), by_handle.membranes(), "step {t}");
        }
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
    fn mixed_reference_and_optimized_steps_share_state() {
        // Interleaving the two formulations on one engine must stay
        // coherent: state is handed between representations at each
        // switch, never lost.
        let mut mixed = small_engine();
        let mut oracle = small_engine();
        for t in 0..30 {
            let rows: Vec<u32> = (0..8).filter(|r| (t + r) % 3 != 0).collect();
            let a = if t % 2 == 0 {
                mixed.step(&rows, &DirectRead, &mut NoGuard).to_vec()
            } else {
                mixed.step_reference(&rows, &DirectRead, &mut NoGuard)
            };
            let b = oracle.step_reference(&rows, &DirectRead, &mut NoGuard);
            assert_eq!(a, b, "step {t}");
            assert_eq!(mixed.membranes(), oracle.membranes(), "step {t}");
        }
    }

    #[test]
    fn direct_read_table_is_identity() {
        let t = DirectRead.table();
        for (i, &v) in t.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
        assert!(DirectRead.is_identity());
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
        fn bound_params(&self) -> Option<(u8, u8)> {
            Some((90, 11))
        }
    }

    #[test]
    fn read_cache_rebuilds_only_when_stale() {
        let mut e = small_engine();
        let mut train = SpikeTrain::new(8, 5);
        for _ in 0..5 {
            train.push_step(vec![0, 2, 4, 6]);
        }
        assert_eq!(e.read_cache_stats(), ReadCacheStats::default());
        // First non-identity sample builds the image once.
        e.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(e.read_cache_stats().rebuilds, 1);
        // Steady state: more samples, same image.
        e.run_sample(&train, &Bound90, &mut NoGuard);
        e.run_batch(&[train.clone(), train.clone()], &Bound90, &NoGuard);
        assert_eq!(e.read_cache_stats().rebuilds, 1);
        // Conservative mutation boundary: crossbar_mut invalidates, the
        // next sample rebuilds.
        e.crossbar_mut().flip_bit(0, 0, 3).unwrap();
        e.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(e.read_cache_stats().rebuilds, 2);
        // A different transform over the same registers is a new image.
        e.run_sample(&train, &DirectRead, &mut NoGuard);
        assert_eq!(e.read_cache_stats().rebuilds, 2, "direct path has no image");
        struct Bound40;
        impl WeightReadPath for Bound40 {
            fn read(&self, code: u8) -> u8 {
                if code > 40 {
                    0
                } else {
                    code
                }
            }
            fn bound_params(&self) -> Option<(u8, u8)> {
                Some((40, 0))
            }
        }
        e.run_sample(&train, &Bound40, &mut NoGuard);
        assert_eq!(e.read_cache_stats().rebuilds, 3);
    }

    #[test]
    fn reload_restores_clean_image_without_rebuild() {
        let mut e = small_engine();
        let mut train = SpikeTrain::new(8, 5);
        for _ in 0..5 {
            train.push_step(vec![1, 3, 5, 7]);
        }
        // Build (and capture) the clean image, then dirty the registers.
        let clean_counts = e.run_sample(&train, &Bound90, &mut NoGuard);
        e.flip_weight_bit(2, 1, 7).unwrap();
        assert_eq!(e.read_cache_stats().patches, 1);
        assert_eq!(e.read_cache_stats().rebuilds, 1);
        // Reload restores the captured clean image by copy — no rebuild —
        // and the results match the pre-fault run exactly.
        e.reload_parameters(&mut NoGuard);
        let stats = e.read_cache_stats();
        assert_eq!(stats.restores, 1);
        let after = e.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(
            e.read_cache_stats().rebuilds,
            1,
            "restore made rebuild unnecessary"
        );
        assert_eq!(after, clean_counts);
    }

    #[test]
    fn flip_weight_bit_patch_matches_full_rebuild() {
        // Patching the image in place must be indistinguishable from the
        // conservative invalidate-and-rebuild route.
        let mut patched = small_engine();
        let mut rebuilt = small_engine();
        let mut train = SpikeTrain::new(8, 10);
        for t in 0..10_u32 {
            train.push_step((0..8).filter(|r| (t + r) % 3 != 0).collect());
        }
        // Build both caches first.
        patched.run_sample(&train, &Bound90, &mut NoGuard);
        rebuilt.run_sample(&train, &Bound90, &mut NoGuard);
        for (row, col, bit) in [(0_usize, 1_usize, 7_u8), (3, 2, 6), (5, 0, 0), (7, 3, 5)] {
            patched.flip_weight_bit(row, col, bit).unwrap();
            rebuilt.crossbar_mut().flip_bit(row, col, bit).unwrap();
        }
        let a = patched.run_sample(&train, &Bound90, &mut NoGuard);
        let b = rebuilt.run_sample(&train, &Bound90, &mut NoGuard);
        assert_eq!(a, b);
        assert_eq!(
            patched.read_cache_stats().rebuilds,
            1,
            "patches avoided the rebuild"
        );
        assert_eq!(rebuilt.read_cache_stats().rebuilds, 2);
        assert_eq!(patched.crossbar().codes(), rebuilt.crossbar().codes());
    }

    #[test]
    fn campaign_trial_cycle_stops_rebuilding_after_first_reload() {
        // The canonical campaign trial shape is reload → inject → evaluate.
        // Trial 1 builds the image over injected (dirty) codes; the next
        // reload re-derives the clean image once and captures it; from
        // then on every trial costs one restore plus per-site patches —
        // zero further transform rebuilds — while staying bit-identical
        // to a conservatively invalidating engine.
        let mut reusing = small_engine();
        let mut oracle = small_engine();
        let mut train = SpikeTrain::new(8, 8);
        for t in 0..8_u32 {
            train.push_step((0..8).filter(|r| (t + r) % 2 == 0).collect());
        }
        for trial in 0..5_u8 {
            reusing.reload_parameters(&mut NoGuard);
            oracle.reload_parameters(&mut NoGuard);
            reusing.flip_weight_bit(trial as usize, 1, 7).unwrap();
            oracle
                .crossbar_mut()
                .flip_bit(trial as usize, 1, 7)
                .unwrap();
            let a = reusing.run_sample(&train, &Bound90, &mut NoGuard);
            let b = oracle.run_sample(&train, &Bound90, &mut NoGuard);
            assert_eq!(a, b, "trial {trial}");
        }
        let stats = reusing.read_cache_stats();
        // Rebuild 1: trial 1's first evaluation (dirty codes). Rebuild 2:
        // trial 2's reload deriving + capturing the clean image.
        assert_eq!(stats.rebuilds, 2);
        assert_eq!(stats.restores, 3, "trials 3..5 restored by copy");
        assert_eq!(stats.patches, 4, "trials 2..5 patched one site each");
        // The oracle pays the same clean-image derivation at its second
        // reload, and then a full rebuild per trial on top (its
        // `crossbar_mut` route conservatively invalidates).
        assert_eq!(oracle.read_cache_stats().rebuilds, 6);
    }

    #[test]
    fn flip_weight_bit_without_cache_is_plain_flip() {
        let mut e = small_engine();
        let before = e.crossbar().read(1, 1);
        e.flip_weight_bit(1, 1, 4).unwrap();
        assert_eq!(e.crossbar().read(1, 1), before ^ (1 << 4));
        assert_eq!(e.read_cache_stats().patches, 0, "no image to patch yet");
        assert!(e.flip_weight_bit(99, 0, 0).is_err());
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
        assert_eq!(e.read_cache_stats().rebuilds, 1);
        let codes_before = e.crossbar().codes();
        let image_before = e.read_cache.clone();
        let stats_before = e.read_cache_stats();
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
        e.run_batch_per_sample_maps(
            &[train.clone()],
            1,
            &[weighty],
            &Bound90,
            &NoGuard,
            &mut out,
        );
        assert_eq!(
            e.read_cache_stats(),
            stats_before,
            "no rebuild, restore or patch for overlays"
        );
        assert_eq!(e.crossbar().codes(), codes_before);
        assert_eq!(e.read_cache, image_before);
        assert_eq!(e.mutation_epoch(), epoch_before);
    }

    #[test]
    fn weight_overlay_matches_injected_flips() {
        // Flips of one cell merge by XOR (the same bit twice cancels),
        // and the corrected shared drive equals the drive of an engine
        // with the flips injected, on every read kernel.
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
}
