//! Declarative campaign grids: the (technique × rate × trial) sweeps every
//! figure of the paper is made of, as one first-class object.
//!
//! The paper's evidence is campaign-shaped — Fig. 10/13/14 and the
//! ablations are all accuracy (or cost) grids over a handful of axes. A
//! [`GridSpec`] names the axes once; a [`GridRunner`] executes its cells
//! with:
//!
//! * **deterministic per-point seeds** ([`pack_point`] /
//!   [`grid_point_seed`]), pinned by regression tests, so refactored
//!   figures reproduce their stored results bit for bit;
//! * **shard-local deployment reuse** — cells are sharded
//!   deterministically over [`snn_sim::parallel::parallel_map`], one
//!   evaluation-state clone per shard instead of one per point, healed
//!   between points by the evaluation path itself (the campaign-trial
//!   `reload_parameters` cycle restores the cached clean crossbar image by
//!   copy);
//! * **one cell executor** ([`GridRunner::run_cells`]) under a
//!   [`CellPolicy`]: a fixed trial budget, or sequential early stopping
//!   with speculative lookahead that keeps the exact first-satisfied
//!   prefix of each cell's seed stream. The in-memory grid
//!   ([`GridRunner::run_grouped`]) and the checkpointing campaign service
//!   ([`crate::service::JobHandle::run`]) differ only in which cells they
//!   select and where finished cells go;
//! * **trial-group batching hooks** — a cell's contiguous points are
//!   handed to the evaluation closure together, so trial groups can
//!   route through the engine's multi-map pass
//!   (`ComputeEngine::run_batch_multi_map`) and share one
//!   drive/accumulate phase across fault maps;
//! * **single-pass aggregation** into [`CellKey`]-addressed [`Aggregate`]
//!   cells (mean/std/trials).
//!
//! The three axes are named `techniques`, `rates`, and `trials` after the
//! dominant figure shape, but the value axis is just an `f64` parameter
//! sweep: the ablation studies put monitor windows, threshold scales, and
//! vote widths on it, using [`GridSpec::with_offsets`] to park their
//! points at the exact seed-stream indices the hand-rolled loops used.

use snn_sim::parallel::parallel_map;
use snn_sim::rng::derive_seed;

use crate::codec::{u64_json, Json, JsonCodec, JsonError};
use crate::stats::{Lookahead, StatsError, StopRule, Streaming};

/// Packs one grid point's indices into a seed-stream index: rate in the
/// high word, technique in bits 16..32, trial in the low bits.
///
/// This is *the* packing of the workspace: with `technique_idx == 0` it
/// degenerates to the historical rate × trial campaign packing
/// `(rate_idx << 32) | trial`, and with all three indices it is the figure
/// harness's historical `point_seed` stream. Every stored campaign result
/// depends on it, so the values are pinned by regression tests rather
/// than left to convention.
#[inline]
pub fn pack_point(rate_idx: usize, technique_idx: usize, trial: usize) -> u64 {
    ((rate_idx as u64) << 32) | ((technique_idx as u64) << 16) | (trial as u64)
}

/// The deterministic seed of one grid point, reproducing the figure
/// harness's historical `point_seed(figure, rate_idx, trial,
/// technique_idx)` exactly: the figure number salts the base seed's high
/// bits, [`pack_point`] selects the stream.
#[inline]
pub fn grid_point_seed(
    base_seed: u64,
    figure: u64,
    rate_idx: usize,
    trial: usize,
    technique_idx: usize,
) -> u64 {
    derive_seed(
        base_seed ^ (figure << 48),
        pack_point(rate_idx, technique_idx, trial),
    )
}

/// A declarative (technique × rate × trial) grid with deterministic
/// per-point seeds.
///
/// Points are ordered technique-major, then rate, then trial — the order
/// every figure historically materialized — so a cell's trials are
/// contiguous and aggregation is a single pass.
///
/// # Examples
///
/// ```
/// use snn_faults::grid::GridSpec;
///
/// let spec = GridSpec::new(
///     13,
///     0x50F7_511F,
///     vec!["nomit".into(), "bnp3".into()],
///     vec![1e-3, 1e-1],
///     3,
/// );
/// assert_eq!(spec.n_points(), 12);
/// assert_eq!(spec.n_cells(), 4);
/// let p = spec.point(7);
/// assert_eq!((p.technique_idx, p.rate_idx, p.trial), (1, 0, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Figure number salting the seed stream (see [`grid_point_seed`]).
    pub figure: u64,
    /// Base seed all per-point seeds derive from.
    pub base_seed: u64,
    /// Labels of the technique axis (mitigation techniques, neuron ops,
    /// or a single label for pure parameter sweeps).
    pub techniques: Vec<String>,
    /// Values of the swept `f64` axis: fault rates for the figures,
    /// arbitrary parameter values (window lengths, threshold scales, vote
    /// widths) for ablation-style sweeps.
    pub rates: Vec<f64>,
    /// Independent trials per (technique, rate) cell.
    pub trials: usize,
    /// Offset added to `technique_idx` in the seed stream.
    pub technique_base: usize,
    /// Offset added to `rate_idx` in the seed stream.
    pub rate_base: usize,
    /// Offset added to `trial` in the seed stream.
    pub trial_base: usize,
}

impl GridSpec {
    /// Creates a grid over the given axes with zero seed-stream offsets.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero or either axis is empty (a zero-point
    /// grid is a construction mistake, not a request).
    pub fn new(
        figure: u64,
        base_seed: u64,
        techniques: Vec<String>,
        rates: Vec<f64>,
        trials: usize,
    ) -> Self {
        assert!(trials > 0, "a grid needs at least one trial per cell");
        assert!(
            !techniques.is_empty(),
            "a grid needs at least one technique"
        );
        assert!(!rates.is_empty(), "a grid needs at least one rate/value");
        Self {
            figure,
            base_seed,
            techniques,
            rates,
            trials,
            technique_base: 0,
            rate_base: 0,
            trial_base: 0,
        }
    }

    /// Parks the grid's points at offset seed-stream indices — how the
    /// ablation sweeps reproduce the exact seeds of their hand-rolled
    /// predecessors (e.g. the threshold sweep lived at rate indices
    /// `20 + i` with trial index 2).
    pub fn with_offsets(
        mut self,
        technique_base: usize,
        rate_base: usize,
        trial_base: usize,
    ) -> Self {
        self.technique_base = technique_base;
        self.rate_base = rate_base;
        self.trial_base = trial_base;
        self
    }

    /// Number of (technique, rate) cells.
    pub fn n_cells(&self) -> usize {
        self.techniques.len() * self.rates.len()
    }

    /// Total number of grid points.
    pub fn n_points(&self) -> usize {
        self.n_cells() * self.trials
    }

    /// The deterministic seed of the point at (`rate_idx`, `trial`,
    /// `technique_idx`), including the spec's axis offsets.
    pub fn seed_for(&self, rate_idx: usize, trial: usize, technique_idx: usize) -> u64 {
        grid_point_seed(
            self.base_seed,
            self.figure,
            self.rate_base + rate_idx,
            self.trial_base + trial,
            self.technique_base + technique_idx,
        )
    }

    /// The grid point at flat index `idx` (technique-major, then rate,
    /// then trial).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n_points()`.
    pub fn point(&self, idx: usize) -> GridPointCtx {
        assert!(idx < self.n_points(), "grid point index out of range");
        let trial = idx % self.trials;
        let cell = idx / self.trials;
        let rate_idx = cell % self.rates.len();
        let technique_idx = cell / self.rates.len();
        GridPointCtx {
            index: idx,
            technique_idx,
            rate_idx,
            trial,
            rate: self.rates[rate_idx],
            seed: self.seed_for(rate_idx, trial, technique_idx),
        }
    }

    /// Every grid point, in flat-index order.
    pub fn points(&self) -> Vec<GridPointCtx> {
        (0..self.n_points()).map(|i| self.point(i)).collect()
    }

    /// Every cell of the grid, in cell order (technique-major, then
    /// rate).
    pub fn cell_keys(&self) -> Vec<CellKey> {
        (0..self.techniques.len())
            .flat_map(|technique_idx| {
                (0..self.rates.len()).map(move |rate_idx| CellKey {
                    technique_idx,
                    rate_idx,
                })
            })
            .collect()
    }

    /// The points of one cell: all its trials, in trial order.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the grid.
    pub fn cell_points(&self, key: CellKey) -> Vec<GridPointCtx> {
        assert!(key.rate_idx < self.rates.len(), "cell key out of range");
        let first = (key.technique_idx * self.rates.len() + key.rate_idx) * self.trials;
        (first..first + self.trials)
            .map(|i| self.point(i))
            .collect()
    }
}

/// Everything an evaluation closure needs to know about one grid point:
/// its axis indices, the swept value, and its deterministic seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPointCtx {
    /// Flat point index (technique-major, then rate, then trial).
    pub index: usize,
    /// Index into [`GridSpec::techniques`].
    pub technique_idx: usize,
    /// Index into [`GridSpec::rates`].
    pub rate_idx: usize,
    /// Trial index within the cell.
    pub trial: usize,
    /// The swept value at `rate_idx` (a fault rate, or any parameter).
    pub rate: f64,
    /// The point's deterministic seed ([`GridSpec::seed_for`]).
    pub seed: u64,
}

/// Addresses one (technique, rate) cell of a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Index into [`GridSpec::techniques`].
    pub technique_idx: usize,
    /// Index into [`GridSpec::rates`].
    pub rate_idx: usize,
}

/// One aggregated grid cell: the per-trial values of one (technique,
/// rate) combination with their mean and sample standard deviation.
///
/// Under [`CellPolicy::Adaptive`] a cell may hold
/// fewer trials than the spec's budget; `trials_run`/`stopped_early`
/// record that honestly, and the trials that *are* present are always
/// the exact first-k prefix of the cell's pinned seed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The cell's grid address.
    pub key: CellKey,
    /// Technique-axis label.
    pub technique: String,
    /// Swept value (fault rate or parameter).
    pub rate: f64,
    /// Mean over trials.
    pub mean: f64,
    /// Sample standard deviation over trials.
    pub std_dev: f64,
    /// The individual trial values, in trial order.
    pub trials: Vec<f64>,
    /// Number of trials actually run (always `trials.len()`).
    pub trials_run: usize,
    /// Whether a stop rule ended the cell before the spec's full trial
    /// budget (`trials_run < spec.trials`).
    pub stopped_early: bool,
}

impl Aggregate {
    /// Builds a cell from its trial values in **one accumulation pass**:
    /// the streaming accumulator ([`Streaming`]) folds the sum while the
    /// values are consumed, and [`Streaming::finalize`] performs the
    /// single irreducible variance re-scan — emitted `mean`/`std_dev`
    /// bits are identical to the historical
    /// `metrics::mean` + `metrics::std_dev` pair (regression-tested on
    /// the 3×3×4 fixture).
    ///
    /// `spec_trials` is the grid's per-cell budget; fewer trials than
    /// that marks the cell `stopped_early`.
    ///
    /// # Panics
    ///
    /// Panics on an empty trial list or more trials than the budget.
    pub fn from_trials(
        key: CellKey,
        technique: String,
        rate: f64,
        spec_trials: usize,
        trials: Vec<f64>,
    ) -> Self {
        assert!(!trials.is_empty(), "a cell needs at least one trial");
        assert!(
            trials.len() <= spec_trials,
            "cell holds {} trials, budget is {spec_trials}",
            trials.len()
        );
        let mut acc = Streaming::new();
        for &v in &trials {
            acc.push(v);
        }
        let (mean, std_dev) = acc.finalize(&trials);
        let trials_run = trials.len();
        Self {
            key,
            technique,
            rate,
            mean,
            std_dev,
            stopped_early: trials_run < spec_trials,
            trials_run,
            trials,
        }
    }
}

/// All aggregated cells of one grid run, in the spec's cell order
/// (technique-major, then rate) — the store that replaces the figures'
/// quadratic per-cell outcome re-scans.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResults {
    n_rates: usize,
    cells: Vec<Aggregate>,
}

impl GridResults {
    /// Aggregates point-order values into cells in **one pass**: the
    /// spec's point order makes each cell's trials contiguous, so every
    /// outcome is consumed exactly once (no per-cell re-scan of the full
    /// outcome list).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != spec.n_points()`.
    pub fn aggregate(spec: &GridSpec, values: &[f64]) -> Self {
        assert_eq!(values.len(), spec.n_points(), "one value per grid point");
        let cell_trials = values
            .chunks_exact(spec.trials)
            .map(<[f64]>::to_vec)
            .collect();
        Self::from_cell_trials(spec, cell_trials)
    }

    /// Aggregates per-cell trial vectors — possibly **ragged**, as an
    /// adaptive run produces — into cells, in the spec's cell order.
    /// Every cell's trials must be the first-k prefix of its seed
    /// stream, `1 ≤ k ≤ spec.trials`; cells shorter than the budget are
    /// marked [`Aggregate::stopped_early`].
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from `spec.n_cells()` or any
    /// cell is empty / over budget.
    pub fn from_cell_trials(spec: &GridSpec, cell_trials: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            cell_trials.len(),
            spec.n_cells(),
            "one trial vector per cell"
        );
        let mut cells = Vec::with_capacity(spec.n_cells());
        let mut it = cell_trials.into_iter();
        for (technique_idx, technique) in spec.techniques.iter().enumerate() {
            for (rate_idx, &rate) in spec.rates.iter().enumerate() {
                let trials = it.next().expect("length asserted above");
                cells.push(Aggregate::from_trials(
                    CellKey {
                        technique_idx,
                        rate_idx,
                    },
                    technique.clone(),
                    rate,
                    spec.trials,
                    trials,
                ));
            }
        }
        Self {
            n_rates: spec.rates.len(),
            cells,
        }
    }

    /// Total trials actually run across all cells.
    pub fn trials_run(&self) -> usize {
        self.cells.iter().map(|c| c.trials_run).sum()
    }

    /// The cells, technique-major then rate.
    pub fn cells(&self) -> &[Aggregate] {
        &self.cells
    }

    /// The cell at `key` — an O(1) index, not a search.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the grid.
    pub fn cell(&self, key: CellKey) -> &Aggregate {
        &self.cells[key.technique_idx * self.n_rates + key.rate_idx]
    }
}

impl JsonCodec for GridSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("figure", u64_json(self.figure)),
            ("base_seed", u64_json(self.base_seed)),
            (
                "techniques",
                Json::Arr(
                    self.techniques
                        .iter()
                        .map(|t| Json::Str(t.clone()))
                        .collect(),
                ),
            ),
            ("rates", Json::arr(self.rates.iter().copied())),
            ("trials", Json::from(self.trials)),
            ("technique_base", Json::from(self.technique_base)),
            ("rate_base", Json::from(self.rate_base)),
            ("trial_base", Json::from(self.trial_base)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let techniques = json
            .arr_field("techniques")?
            .iter()
            .map(|t| {
                t.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| JsonError::decode("techniques must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rates = json
            .arr_field("rates")?
            .iter()
            .map(|r| {
                r.as_f64()
                    .ok_or_else(|| JsonError::decode("rates must be numbers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spec = Self {
            figure: json.u64_str_field("figure")?,
            base_seed: json.u64_str_field("base_seed")?,
            techniques,
            rates,
            trials: json.usize_field("trials")?,
            technique_base: json.usize_field("technique_base")?,
            rate_base: json.usize_field("rate_base")?,
            trial_base: json.usize_field("trial_base")?,
        };
        if spec.trials == 0 || spec.techniques.is_empty() || spec.rates.is_empty() {
            return Err(JsonError::decode("grid spec describes a zero-point grid"));
        }
        Ok(spec)
    }
}

impl JsonCodec for CellKey {
    fn to_json(&self) -> Json {
        Json::obj([
            ("technique_idx", Json::from(self.technique_idx)),
            ("rate_idx", Json::from(self.rate_idx)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            technique_idx: json.usize_field("technique_idx")?,
            rate_idx: json.usize_field("rate_idx")?,
        })
    }
}

impl JsonCodec for Aggregate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("key", self.key.to_json()),
            ("technique", Json::Str(self.technique.clone())),
            ("rate", Json::Num(self.rate)),
            ("mean", Json::Num(self.mean)),
            ("std_dev", Json::Num(self.std_dev)),
            ("trials", Json::arr(self.trials.iter().copied())),
            ("trials_run", Json::from(self.trials_run)),
            ("stopped_early", Json::Bool(self.stopped_early)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let trials = json
            .arr_field("trials")?
            .iter()
            .map(|t| {
                t.as_f64()
                    .ok_or_else(|| JsonError::decode("trials must be numbers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let trials_run = json.usize_field("trials_run")?;
        if trials_run != trials.len() {
            return Err(JsonError::decode(format!(
                "trials_run {trials_run} disagrees with {} stored trials",
                trials.len()
            )));
        }
        Ok(Self {
            key: CellKey::from_json(json.field("key")?)?,
            technique: json.str_field("technique")?.to_owned(),
            rate: json.f64_field("rate")?,
            mean: json.f64_field("mean")?,
            std_dev: json.f64_field("std_dev")?,
            trials,
            trials_run,
            stopped_early: json
                .field("stopped_early")?
                .as_bool()
                .ok_or_else(|| JsonError::decode("stopped_early must be a bool"))?,
        })
    }
}

/// How the executor runs one cell's trials: the whole budget, or the
/// shortest pinned-seed prefix a stop rule accepts.
///
/// Build one with [`CellPolicy::new`], the only place stop rules and
/// lookahead widths are checked; [`GridRunner`] and the campaign service
/// ([`crate::service::JobHandle::run`]) take the built policy as is.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CellPolicy {
    /// Every cell runs its full trial budget. A shard of whole cells is
    /// one grouped closure call, so same-technique trials can share one
    /// engine multi-map pass.
    #[default]
    Fixed,
    /// Each cell consumes its pinned seed stream in order and keeps the
    /// first prefix that satisfies `rule`. Past the `min_trials` head,
    /// `lookahead` sets how many trials one closure call evaluates; the
    /// extras past the stop point are evaluated but never kept.
    Adaptive {
        /// When a cell may stop.
        rule: StopRule,
        /// Trials evaluated per closure call past the satisfied-check.
        lookahead: Lookahead,
    },
}

impl CellPolicy {
    /// The policy for a grid with `spec_trials` trials per cell:
    /// [`Fixed`](Self::Fixed) without a stop rule,
    /// [`Adaptive`](Self::Adaptive) with one. The lookahead is checked either way.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadLookahead`] for `Fixed(0)` or a width
    /// beyond [`crate::stats::MAX_LOOKAHEAD`], and
    /// [`StatsError::MaxTrialsExceedsSpec`] when the rule's ceiling
    /// exceeds `spec_trials` (the pinned seed stream only defines that
    /// many trials).
    pub fn new(
        stop_rule: Option<StopRule>,
        lookahead: Lookahead,
        spec_trials: usize,
    ) -> Result<Self, StatsError> {
        let lookahead = lookahead.validated()?;
        match stop_rule {
            None => Ok(Self::Fixed),
            Some(rule) => {
                rule.validate_against_trials(spec_trials)?;
                Ok(Self::Adaptive { rule, lookahead })
            }
        }
    }
}

/// One finished cell, as the executor hands it to a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// The cell's grid address.
    pub key: CellKey,
    /// The kept trial values: the first-k prefix of the cell's seed
    /// stream (the whole budget under [`CellPolicy::Fixed`]).
    pub values: Vec<f64>,
    /// Trials evaluated: the kept prefix plus speculative lookahead
    /// discards (always `>= values.len()`).
    pub evaluated: usize,
}

/// Executes a [`GridSpec`]'s cells over all cores with shard-local
/// evaluation-state reuse.
///
/// Cells are split into deterministic shards of
/// [`cells_per_shard`](Self::with_cells_per_shard) whole cells; each
/// shard clones the prototype state once and walks its cells in order
/// under the runner's [`CellPolicy`]. Shard boundaries affect scheduling
/// only — every point's seed and inputs are fixed by the spec, so results
/// are bit-identical at any shard width.
///
/// # Examples
///
/// ```
/// use snn_faults::grid::{GridRunner, GridSpec};
///
/// let spec = GridSpec::new(0, 7, vec!["a".into(), "b".into()], vec![0.1, 0.2], 3);
/// let runner = GridRunner::new(spec);
/// let results = runner
///     .run_grouped(&(), |(), points| {
///         Ok::<_, std::convert::Infallible>(points.iter().map(|p| p.seed as f64).collect())
///     })
///     .unwrap();
/// assert_eq!(results.cells().len(), 4);
/// assert_eq!(results.cells()[0].trials.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridRunner {
    spec: GridSpec,
    cells_per_shard: usize,
    policy: CellPolicy,
}

impl GridRunner {
    /// Wraps a spec with the default shard width of one cell (all trials
    /// of one (technique, rate) point share a state clone — and can share
    /// one engine multi-map pass) and the [`CellPolicy::Fixed`] policy.
    pub fn new(spec: GridSpec) -> Self {
        Self {
            spec,
            cells_per_shard: 1,
            policy: CellPolicy::Fixed,
        }
    }

    /// Overrides how many whole cells one shard (and thus one state
    /// clone) covers. Wider shards trade scheduling slack for fewer
    /// clones and bigger trial groups — e.g. Fig. 10's per-op panel puts
    /// an op's whole rate sweep in one shard so the engine evaluates all
    /// of its fault maps in a single multi-map pass.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    pub fn with_cells_per_shard(mut self, cells: usize) -> Self {
        assert!(cells > 0, "a shard needs at least one cell");
        self.cells_per_shard = cells;
        self
    }

    /// Sets how each cell's trials run (see [`CellPolicy::new`]).
    pub fn with_policy(mut self, policy: CellPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The underlying grid description.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Runs every cell and aggregates the kept trials into
    /// [`GridResults`] in one pass.
    ///
    /// The closure is handed contiguous point runs of whole cells and
    /// returns one value per point (see [`run_cells`](Self::run_cells)).
    ///
    /// # Errors
    ///
    /// Returns the first failing shard's error (in shard order).
    ///
    /// # Panics
    ///
    /// Panics if the closure returns the wrong number of values.
    pub fn run_grouped<S, E, F>(&self, proto: &S, f: F) -> Result<GridResults, E>
    where
        S: Clone + Sync,
        E: Send,
        F: Fn(&mut S, &[GridPointCtx]) -> Result<Vec<f64>, E> + Sync,
    {
        let cell_trials = self.run_cells(&self.spec.cell_keys(), proto, f, |run| Ok(run.values))?;
        Ok(GridResults::from_cell_trials(&self.spec, cell_trials))
    }

    /// The cell executor: runs the selected `cells` — in parallel across
    /// shards, in order within a shard — and hands each finished cell to
    /// `sink` as soon as it lands, on the worker that ran it. Returns the
    /// sink's outputs in `cells` order.
    ///
    /// Under [`CellPolicy::Fixed`] a shard is one closure call over all
    /// of its cells' points. Under [`CellPolicy::Adaptive`] each cell
    /// consumes its pinned points **in seed order**: the rule's
    /// `min_trials` head in one call, then groups sized by the lookahead
    /// until the rule is satisfied, truncated to the exact
    /// first-satisfied prefix ([`StopRule::first_stop_index`]). An
    /// early-stopped cell is therefore a bit-identical prefix of the
    /// fixed run at every lookahead, because each call must evaluate its
    /// points independently of how calls are grouped (true of every
    /// workspace evaluation path: heal-on-entry makes grouping a pure
    /// batching concern). A never-satisfiable rule (`half_width = 0`)
    /// runs each cell as one call of its reachable budget.
    ///
    /// # Errors
    ///
    /// Returns the first failing shard's error (closure or sink) in shard
    /// order. A failing shard stops at its failing cell; other shards
    /// still run, and their sinks still see their cells.
    ///
    /// # Panics
    ///
    /// Panics if the closure returns the wrong number of values.
    pub fn run_cells<S, T, E, F, K>(
        &self,
        cells: &[CellKey],
        proto: &S,
        f: F,
        sink: K,
    ) -> Result<Vec<T>, E>
    where
        S: Clone + Sync,
        T: Send,
        E: Send,
        F: Fn(&mut S, &[GridPointCtx]) -> Result<Vec<f64>, E> + Sync,
        K: Fn(CellRun) -> Result<T, E> + Sync,
    {
        let shards: Vec<&[CellKey]> = cells.chunks(self.cells_per_shard).collect();
        let outcomes = parallel_map(&shards, |shard| {
            let mut state = proto.clone();
            match self.policy {
                CellPolicy::Fixed => {
                    let points: Vec<GridPointCtx> = shard
                        .iter()
                        .flat_map(|&key| self.spec.cell_points(key))
                        .collect();
                    let values = call(&f, &mut state, &points)?;
                    shard
                        .iter()
                        .zip(values.chunks_exact(self.spec.trials))
                        .map(|(&key, values)| {
                            sink(CellRun {
                                key,
                                values: values.to_vec(),
                                evaluated: values.len(),
                            })
                        })
                        .collect::<Result<Vec<T>, E>>()
                }
                CellPolicy::Adaptive { rule, lookahead } => shard
                    .iter()
                    .map(|&key| {
                        let points = self.spec.cell_points(key);
                        let (values, evaluated) =
                            adaptive_cell(&mut state, &points, &rule, lookahead, &f)?;
                        sink(CellRun {
                            key,
                            values,
                            evaluated,
                        })
                    })
                    .collect(),
            }
        });
        let mut out = Vec::with_capacity(cells.len());
        for outcome in outcomes {
            out.extend(outcome?);
        }
        Ok(out)
    }
}

/// One closure call, checked to return one value per point.
fn call<S, E, F>(f: &F, state: &mut S, points: &[GridPointCtx]) -> Result<Vec<f64>, E>
where
    F: Fn(&mut S, &[GridPointCtx]) -> Result<Vec<f64>, E>,
{
    let values = f(state, points)?;
    assert_eq!(
        values.len(),
        points.len(),
        "cell closure must return one value per point"
    );
    Ok(values)
}

/// One cell under a stop rule (see [`GridRunner::run_cells`]): returns
/// the kept values and the number of trials evaluated.
fn adaptive_cell<S, E, F>(
    state: &mut S,
    cell: &[GridPointCtx],
    rule: &StopRule,
    lookahead: Lookahead,
    f: &F,
) -> Result<(Vec<f64>, usize), E>
where
    F: Fn(&mut S, &[GridPointCtx]) -> Result<Vec<f64>, E>,
{
    if rule.is_never_satisfiable() {
        let values = call(f, state, &cell[..rule.max_trials.min(cell.len())])?;
        let evaluated = values.len();
        return Ok((values, evaluated));
    }
    let mut values = call(f, state, &cell[..rule.min_trials.min(cell.len())])?;
    let mut acc = Streaming::new();
    for &v in &values {
        acc.push(v);
    }
    let mut evaluated = values.len();
    while !rule.satisfied(&acc) && values.len() < cell.len() {
        let k = lookahead.group_size(rule, &acc, cell.len() - values.len());
        let group = call(f, state, &cell[values.len()..values.len() + k])?;
        evaluated += k;
        let keep = rule.first_stop_index(&acc, &group).map_or(k, |i| i + 1);
        for &v in &group[..keep] {
            acc.push(v);
        }
        values.extend_from_slice(&group[..keep]);
    }
    Ok((values, evaluated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_sim::metrics::{mean, std_dev};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spec_3x3x4() -> GridSpec {
        GridSpec::new(
            7,
            0xC0FFEE,
            vec!["a".into(), "b".into(), "c".into()],
            vec![0.001, 0.01, 0.1],
            4,
        )
    }

    #[test]
    fn point_order_is_technique_major_then_rate_then_trial() {
        let spec = spec_3x3x4();
        let points = spec.points();
        assert_eq!(points.len(), 36);
        let mut expected = Vec::new();
        for t in 0..3 {
            for r in 0..3 {
                for trial in 0..4 {
                    expected.push((t, r, trial));
                }
            }
        }
        let got: Vec<(usize, usize, usize)> = points
            .iter()
            .map(|p| (p.technique_idx, p.rate_idx, p.trial))
            .collect();
        assert_eq!(got, expected);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(p.rate, spec.rates[p.rate_idx]);
            assert_eq!(p.seed, spec.seed_for(p.rate_idx, p.trial, p.technique_idx));
        }
    }

    /// The packing contract with the rest of the workspace: technique 0
    /// and figure 0 degenerate to the historical rate × trial campaign
    /// packing, and the full form matches the figure harness's historical
    /// `point_seed` formula.
    #[test]
    fn seed_packing_matches_campaign_and_point_seed() {
        assert_eq!(pack_point(3, 0, 5), (3_u64 << 32) | 5);
        assert_eq!(pack_point(3, 2, 5), (3_u64 << 32) | (2 << 16) | 5);
        // Figure 0 is no salt: the rate × trial stream is
        // derive_seed(base, (ri << 32) | t).
        for ri in 0..4 {
            for t in 0..8 {
                assert_eq!(
                    grid_point_seed(42, 0, ri, t, 0),
                    derive_seed(42, ((ri as u64) << 32) | t as u64)
                );
            }
        }
        // grid_point_seed == the historical point_seed formula.
        let base = 0x50F7_511F_u64;
        for fig in [10_u64, 13, 99] {
            for (ri, t, ti) in [(0_usize, 0_usize, 0_usize), (3, 2, 4), (21, 1, 0)] {
                let legacy = derive_seed(
                    base ^ (fig << 48),
                    ((ri as u64) << 32) | ((ti as u64) << 16) | t as u64,
                );
                assert_eq!(grid_point_seed(base, fig, ri, t, ti), legacy);
            }
        }
    }

    /// Pins the exact derived seeds of the rate × trial stream: any
    /// change to the packing or to `derive_seed` silently invalidates
    /// every stored campaign result, so the values themselves are part of
    /// the contract.
    #[test]
    fn seed_for_values_are_pinned() {
        assert_eq!(grid_point_seed(42, 0, 0, 0, 0), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(grid_point_seed(42, 0, 0, 1, 0), 0x28EF_E333_B266_F103);
        assert_eq!(grid_point_seed(42, 0, 1, 0, 0), 0xBF98_AC77_734B_EC1D);
        assert_eq!(grid_point_seed(42, 0, 3, 7, 0), 0xF6B0_5A59_16DB_E2D8);
        assert_eq!(
            grid_point_seed(0xC0_FFEE, 0, 2, 5, 0),
            0x2729_EA8F_744C_8102
        );
    }

    /// The packing must keep rate and trial in disjoint halves: trial
    /// indices below 2³² can never collide with another rate's stream.
    #[test]
    fn seed_for_packs_rate_and_trial_disjointly() {
        let seed = |ri, t| grid_point_seed(7, 0, ri, t, 0);
        assert_ne!(seed(1, 0), seed(0, 1));
        assert_ne!(seed(1, 0), seed(0, 0));
    }

    #[test]
    fn per_point_seeds_are_unique_and_stable() {
        let spec = spec_3x3x4();
        let mut seeds: Vec<u64> = spec.points().iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), spec.n_points());
        assert_eq!(spec.seed_for(1, 2, 0), spec.seed_for(1, 2, 0));
    }

    #[test]
    fn offsets_shift_the_seed_stream() {
        let plain = GridSpec::new(99, 1, vec!["x".into()], vec![0.05; 4], 1);
        let offset = plain.clone().with_offsets(0, 10, 1);
        for i in 0..4 {
            assert_eq!(
                offset.seed_for(i, 0, 0),
                grid_point_seed(1, 99, 10 + i, 1, 0)
            );
            assert_ne!(offset.seed_for(i, 0, 0), plain.seed_for(i, 0, 0));
        }
    }

    /// Satellite regression for the old O(points²) scan: on a 3-technique
    /// × 3-rate × 4-trial grid, aggregation consumes each outcome exactly
    /// once and lands it in exactly one cell.
    #[test]
    fn aggregation_consumes_each_outcome_exactly_once() {
        let spec = spec_3x3x4();
        // Values are the (unique) flat point indices, so membership
        // proves placement.
        let values: Vec<f64> = (0..spec.n_points()).map(|i| i as f64).collect();
        let results = GridResults::aggregate(&spec, &values);
        assert_eq!(results.cells().len(), 9);
        let mut seen = vec![0_usize; spec.n_points()];
        for cell in results.cells() {
            assert_eq!(cell.trials.len(), 4);
            for &v in &cell.trials {
                let idx = v as usize;
                // Each trial value must belong to this cell's points.
                let p = spec.point(idx);
                assert_eq!(
                    (p.technique_idx, p.rate_idx),
                    (cell.key.technique_idx, cell.key.rate_idx),
                    "value {idx} landed in the wrong cell"
                );
                seen[idx] += 1;
            }
            assert_eq!(cell.mean, mean(&cell.trials));
            assert_eq!(cell.std_dev, std_dev(&cell.trials));
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every outcome consumed exactly once: {seen:?}"
        );
    }

    #[test]
    fn cell_lookup_is_positional() {
        let spec = spec_3x3x4();
        let values: Vec<f64> = (0..spec.n_points()).map(|i| i as f64).collect();
        let results = GridResults::aggregate(&spec, &values);
        for t in 0..3 {
            for r in 0..3 {
                let key = CellKey {
                    technique_idx: t,
                    rate_idx: r,
                };
                let cell = results.cell(key);
                assert_eq!(cell.key, key);
                assert_eq!(cell.technique, spec.techniques[t]);
                assert_eq!(cell.rate, spec.rates[r]);
            }
        }
    }

    /// A grouped closure returning each point's seed.
    fn seeds((): &mut (), points: &[GridPointCtx]) -> Result<Vec<f64>, std::convert::Infallible> {
        Ok(points.iter().map(|p| p.seed as f64).collect())
    }

    /// A grouped closure with low within-cell variance, so loose stop
    /// rules stop cells early while a zero half-width never does.
    fn low_variance(
        (): &mut (),
        points: &[GridPointCtx],
    ) -> Result<Vec<f64>, std::convert::Infallible> {
        Ok(points.iter().map(|p| 50.0 + (p.seed % 7) as f64).collect())
    }

    fn adaptive(rule: StopRule, lookahead: Lookahead) -> CellPolicy {
        CellPolicy::new(Some(rule), lookahead, 4).unwrap()
    }

    #[test]
    fn runner_values_are_identical_at_any_shard_width() {
        let spec = spec_3x3x4();
        let reference: Vec<f64> = spec.points().iter().map(|p| p.seed as f64).collect();
        let reference = GridResults::aggregate(&spec, &reference);
        let rule = StopRule::new(2, 4, 60.0, 0.6).unwrap();
        let sequential = GridRunner::new(spec.clone())
            .with_policy(adaptive(rule, Lookahead::Fixed(1)))
            .run_grouped(&(), low_variance)
            .unwrap();
        for cells_per_shard in [1, 2, 3, 9, 100] {
            let runner = GridRunner::new(spec.clone()).with_cells_per_shard(cells_per_shard);
            let got = runner.run_grouped(&(), seeds).unwrap();
            assert_eq!(got, reference, "cells_per_shard={cells_per_shard}");
            let got = runner
                .with_policy(adaptive(rule, Lookahead::Auto))
                .run_grouped(&(), low_variance)
                .unwrap();
            assert_eq!(
                got, sequential,
                "adaptive, cells_per_shard={cells_per_shard}"
            );
        }
    }

    #[test]
    fn runner_clones_state_once_per_shard() {
        #[derive(Default)]
        struct CloneCounter(std::sync::Arc<AtomicUsize>);
        impl Clone for CloneCounter {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, Ordering::Relaxed);
                Self(self.0.clone())
            }
        }
        let zeros = |_: &mut CloneCounter, points: &[GridPointCtx]| {
            Ok::<_, std::convert::Infallible>(vec![0.0; points.len()])
        };
        let rule = StopRule::new(2, 4, 60.0, 0.6).unwrap();
        for policy in [CellPolicy::Fixed, adaptive(rule, Lookahead::Fixed(2))] {
            let spec = spec_3x3x4(); // 9 cells, 36 points
            let proto = CloneCounter::default();
            let runner = GridRunner::new(spec).with_policy(policy);
            runner.run_grouped(&proto, zeros).unwrap();
            assert_eq!(
                proto.0.load(Ordering::Relaxed),
                9,
                "one clone per cell-shard, not per point ({policy:?})"
            );
            let proto = CloneCounter::default();
            runner
                .with_cells_per_shard(3)
                .run_grouped(&proto, zeros)
                .unwrap();
            assert_eq!(proto.0.load(Ordering::Relaxed), 3, "{policy:?}");
        }
    }

    #[test]
    fn sharded_closure_sees_whole_cells_in_order() {
        let spec = spec_3x3x4();
        let calls = AtomicUsize::new(0);
        let runner = GridRunner::new(spec.clone()).with_cells_per_shard(2);
        let results = runner
            .run_grouped(&(), |(), shard| {
                calls.fetch_add(1, Ordering::Relaxed);
                // Shards hold whole cells: length is a multiple of trials
                // (except possibly the last ragged shard).
                assert!(shard.len() % spec.trials == 0 || shard.len() < 2 * spec.trials);
                // Points arrive in flat order.
                for pair in shard.windows(2) {
                    assert_eq!(pair[1].index, pair[0].index + 1);
                }
                Ok::<Vec<f64>, std::convert::Infallible>(
                    shard.iter().map(|p| p.index as f64).collect(),
                )
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 5, "one call per shard");
        let expected: Vec<f64> = (0..spec.n_points()).map(|i| i as f64).collect();
        assert_eq!(results, GridResults::aggregate(&spec, &expected));
    }

    #[test]
    fn runner_propagates_the_first_error_in_shard_order() {
        let fail_from_8 = |(): &mut (), points: &[GridPointCtx]| -> Result<Vec<f64>, usize> {
            points
                .iter()
                .map(|p| if p.index >= 8 { Err(p.index) } else { Ok(0.0) })
                .collect()
        };
        let rule = StopRule::new(2, 4, 60.0, 0.6).unwrap();
        for policy in [CellPolicy::Fixed, adaptive(rule, Lookahead::Fixed(1))] {
            let runner = GridRunner::new(spec_3x3x4()).with_policy(policy);
            let err = runner.run_grouped(&(), fail_from_8).unwrap_err();
            assert_eq!(err, 8, "first failing point in order, not a racy winner");
        }
        // A failing sink is reported the same way, and only stops its own
        // shard: every other cell still reaches the sink.
        let seen = AtomicUsize::new(0);
        let runner = GridRunner::new(spec_3x3x4());
        let err = runner
            .run_cells(
                &spec_3x3x4().cell_keys(),
                &(),
                |(), points| Ok(vec![0.0; points.len()]),
                |run| {
                    seen.fetch_add(1, Ordering::Relaxed);
                    match run.key.rate_idx {
                        1 => Err((run.key.technique_idx, run.key.rate_idx)),
                        _ => Ok(()),
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err, (0, 1));
        assert_eq!(seen.load(Ordering::Relaxed), 9);
    }

    /// The codec contract that replaced the unsatisfiable serde gates:
    /// spec and cells survive a render → parse round trip bit-exactly.
    #[test]
    fn spec_and_aggregate_round_trip_through_the_codec() {
        use crate::codec::{Json, JsonCodec};
        let spec = spec_3x3x4().with_offsets(1, 20, 2);
        let parsed = GridSpec::from_json(&Json::parse(&spec.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, spec);
        // Seeds derived from the decoded spec are the originals.
        for p in spec.points() {
            assert_eq!(
                parsed.seed_for(p.rate_idx, p.trial, p.technique_idx),
                p.seed
            );
        }
        let values: Vec<f64> = spec.points().iter().map(|p| p.seed as f64 / 7.0).collect();
        let results = GridResults::aggregate(&spec, &values);
        for cell in results.cells() {
            let back =
                Aggregate::from_json(&Json::parse(&cell.to_json().render()).unwrap()).unwrap();
            assert_eq!(&back, cell);
            assert_eq!(back.mean.to_bits(), cell.mean.to_bits());
            assert_eq!(back.std_dev.to_bits(), cell.std_dev.to_bits());
        }
        // Degenerate decoded specs are refused.
        let mut zero = spec.to_json();
        if let Json::Obj(fields) = &mut zero {
            for (k, v) in fields.iter_mut() {
                if k == "trials" {
                    *v = Json::Num(0.0);
                }
            }
        }
        assert!(GridSpec::from_json(&zero).is_err());
    }

    /// Satellite regression for the streaming-aggregation rewrite: over
    /// the 3×3×4 fixture with order-sensitive values, the emitted mean
    /// and std_dev bits must be identical to the historical
    /// `metrics::mean` + `metrics::std_dev` two-pass pair.
    #[test]
    fn streaming_aggregation_bits_match_the_two_pass_reference() {
        let spec = spec_3x3x4();
        // Seed-derived values spanning magnitudes, so fold order and
        // association changes would change bits.
        let values: Vec<f64> = spec
            .points()
            .iter()
            .map(|p| (p.seed % 10_000) as f64 / 16.0 + 1e-3 * (p.index as f64))
            .collect();
        let results = GridResults::aggregate(&spec, &values);
        for cell in results.cells() {
            assert_eq!(cell.mean.to_bits(), mean(&cell.trials).to_bits());
            assert_eq!(cell.std_dev.to_bits(), std_dev(&cell.trials).to_bits());
            assert_eq!(cell.trials_run, 4);
            assert!(!cell.stopped_early);
        }
        assert_eq!(results.trials_run(), spec.n_points());
    }

    #[test]
    fn ragged_cell_trials_aggregate_with_early_stop_flags() {
        let spec = spec_3x3x4();
        let lens = [4, 1, 2, 3, 4, 2, 1, 4, 3];
        let cell_trials: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(c, &len)| (0..len).map(|t| (c * 10 + t) as f64).collect())
            .collect();
        let results = GridResults::from_cell_trials(&spec, cell_trials.clone());
        for ((cell, &len), trials) in results.cells().iter().zip(&lens).zip(&cell_trials) {
            assert_eq!(cell.trials, *trials);
            assert_eq!(cell.trials_run, len);
            assert_eq!(cell.stopped_early, len < 4);
            assert_eq!(cell.mean.to_bits(), mean(trials).to_bits());
            assert_eq!(cell.std_dev.to_bits(), std_dev(trials).to_bits());
        }
        assert_eq!(results.trials_run(), lens.iter().sum::<usize>());
    }

    #[test]
    fn adaptive_run_yields_bit_identical_prefixes_of_the_fixed_run() {
        let spec = spec_3x3x4();
        let fixed = GridRunner::new(spec.clone())
            .run_grouped(&(), low_variance)
            .unwrap();
        let rule = StopRule::new(2, 4, 60.0, 0.6).unwrap();
        let adaptive_results = GridRunner::new(spec.clone())
            .with_policy(adaptive(rule, Lookahead::default()))
            .run_grouped(&(), low_variance)
            .unwrap();
        let mut saved = 0;
        for (a, f) in adaptive_results.cells().iter().zip(fixed.cells()) {
            assert!(a.trials_run >= 2 && a.trials_run <= 4);
            saved += 4 - a.trials_run;
            let prefix = &f.trials[..a.trials_run];
            let a_bits: Vec<u64> = a.trials.iter().map(|v| v.to_bits()).collect();
            let f_bits: Vec<u64> = prefix.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, f_bits, "cell {:?} is not a prefix", a.key);
            assert_eq!(a.stopped_early, a.trials_run < 4);
        }
        assert!(saved > 0, "the loose rule must save trials somewhere");
        // half_width 0 degenerates to the fixed run exactly.
        let degenerate = GridRunner::new(spec)
            .with_policy(adaptive(
                StopRule::new(2, 4, 0.0, 0.9).unwrap(),
                Lookahead::default(),
            ))
            .run_grouped(&(), low_variance)
            .unwrap();
        assert_eq!(degenerate, fixed);
    }

    /// Every lookahead policy yields bit-identical results to the
    /// trial-at-a-time run — speculation changes grouping and waste,
    /// never which trials are kept — and the waste counts are exact.
    #[test]
    fn lookahead_policies_keep_the_exact_sequential_prefix() {
        let spec = spec_3x3x4();
        let keys = spec.cell_keys();
        // Hoeffding gives hw(2) ≈ 63.4 > 60 and hw(3) ≈ 51.8 ≤ 60, so
        // every cell keeps exactly 3 trials regardless of policy.
        let rule = StopRule::new(2, 4, 60.0, 0.6).unwrap();
        let run = |lookahead| {
            GridRunner::new(spec.clone())
                .with_policy(adaptive(rule, lookahead))
                .run_cells(&keys, &(), low_variance, Ok)
                .unwrap()
        };
        let sequential = run(Lookahead::Fixed(1));
        for lookahead in [
            Lookahead::Fixed(1),
            Lookahead::Fixed(2),
            Lookahead::Fixed(16),
            Lookahead::Auto,
        ] {
            let batched = run(lookahead);
            for (cell, seq) in batched.iter().zip(&sequential) {
                assert_eq!(cell.key, seq.key);
                assert_eq!(
                    cell.values, seq.values,
                    "{lookahead:?} changed the kept trials"
                );
                assert_eq!(cell.values.len(), 3);
                // Exact waste: Fixed(1) and Auto (which predicts 1 more
                // trial at n = 2, the hw ratio being barely above 1)
                // evaluate exactly the kept prefix; Fixed(2) and
                // Fixed(16) follow the unsatisfied head of 2 with one
                // group of 2 (clamped to the 4-trial budget) and keep
                // its first value.
                let expected = match lookahead {
                    Lookahead::Fixed(1) | Lookahead::Auto => 3,
                    Lookahead::Fixed(_) => 4,
                };
                assert_eq!(cell.evaluated, expected, "{lookahead:?}");
            }
        }
    }

    /// A never-satisfiable rule (`half_width = 0`) must evaluate each
    /// cell as ONE grouped whole-cell call instead of grinding through
    /// the budget one trial at a time — with values equal to the fixed
    /// run and no cell marked early-stopped.
    #[test]
    fn never_satisfiable_rule_runs_each_cell_as_one_grouped_call() {
        let spec = spec_3x3x4();
        let calls = AtomicUsize::new(0);
        let eval = |(): &mut (), shard: &[GridPointCtx]| {
            calls.fetch_add(1, Ordering::Relaxed);
            low_variance(&mut (), shard)
        };
        let fixed = GridRunner::new(spec.clone())
            .run_grouped(&(), eval)
            .unwrap();
        assert_eq!(calls.swap(0, Ordering::Relaxed), 9, "one call per cell");
        let runner = GridRunner::new(spec.clone()).with_policy(adaptive(
            StopRule::new(2, 4, 0.0, 0.9).unwrap(),
            Lookahead::default(),
        ));
        let runs = runner.run_cells(&spec.cell_keys(), &(), eval, Ok).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 9, "one call per cell");
        for (run, cell) in runs.iter().zip(fixed.cells()) {
            assert_eq!(run.evaluated, 4);
            assert_eq!(run.values, cell.trials);
            assert!(!cell.stopped_early);
        }
    }

    #[test]
    fn stop_rule_beyond_the_trial_budget_is_rejected() {
        let rule = StopRule::new(2, 5, 1.0, 0.9).unwrap();
        // 4 trials per cell.
        assert_eq!(
            CellPolicy::new(Some(rule), Lookahead::default(), 4).unwrap_err(),
            StatsError::MaxTrialsExceedsSpec {
                max_trials: 5,
                spec_trials: 4
            }
        );
        assert_eq!(
            CellPolicy::new(None, Lookahead::Fixed(0), 4).unwrap_err(),
            StatsError::BadLookahead { k: 0 }
        );
        assert_eq!(
            CellPolicy::new(None, Lookahead::Auto, 4),
            Ok(CellPolicy::Fixed)
        );
    }

    #[test]
    fn decoded_aggregate_rejects_inconsistent_trials_run() {
        let spec = spec_3x3x4();
        let values: Vec<f64> = (0..spec.n_points()).map(|i| i as f64).collect();
        let results = GridResults::aggregate(&spec, &values);
        let cell = &results.cells()[0];
        let mut json = cell.to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "trials_run" {
                    *v = Json::Num(2.0);
                }
            }
        }
        assert!(Aggregate::from_json(&json).is_err());
    }

    #[test]
    #[should_panic]
    fn empty_rates_axis_panics() {
        let _ = GridSpec::new(0, 0, vec!["a".into()], vec![], 1);
    }

    #[test]
    #[should_panic]
    fn zero_trials_panics() {
        let _ = GridSpec::new(0, 0, vec!["a".into()], vec![0.1], 0);
    }

    #[test]
    #[should_panic]
    fn wrong_value_count_panics() {
        let spec = spec_3x3x4();
        let _ = GridResults::aggregate(&spec, &[1.0, 2.0]);
    }
}
