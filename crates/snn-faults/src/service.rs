//! Campaign-as-a-service: resumable, checkpointed grid execution.
//!
//! The figure binaries run a [`GridSpec`] one-shot: lose the process half
//! way through a full-profile sweep and every finished cell is gone. This
//! module turns a grid into a **job** backed by a directory:
//!
//! ```text
//! <root>/<job>/job.json            spec + fingerprint + format version
//! <root>/<job>/cells/c012_003.json one checkpoint per completed cell
//! ```
//!
//! A pass runs the missing cells through the grid's one cell executor
//! ([`GridRunner::run_cells`]) under the pass's [`CellPolicy`], with a
//! sink that checkpoints each [`Aggregate`] cell as it lands (written to
//! a unique tmp file, then atomically renamed — a crash never leaves a
//! half-written checkpoint under the final name). A resumed run skips
//! every valid checkpoint and re-executes exactly the missing cells. The
//! per-point seeds make resumption *exact*: a cell's inputs are fully
//! determined by the spec, so the reassembled [`GridResults`] is
//! bit-identical to an uninterrupted run (pinned by root
//! `tests/checkpoint_resume.rs`).
//!
//! **The seed formula is the checkpoint key.** Every cell file records the
//! per-trial seeds it was computed with, and the loader recomputes
//! [`GridSpec::seed_for`] and rejects the cell on any mismatch. A change
//! to the workspace seed stream therefore invalidates checkpoint
//! directories loudly instead of splicing stale trials into fresh grids —
//! and MUST be accompanied by a [`FORMAT_VERSION`] bump.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{u64_json, Json, JsonCodec};
use crate::grid::{
    Aggregate, CellKey, CellPolicy, CellRun, GridPointCtx, GridResults, GridRunner, GridSpec,
};
use crate::stats::{Lookahead, StatsError, StopRule};

/// On-disk checkpoint format version. Bump whenever the cell layout *or
/// the workspace seed formula* changes — stored seeds are validated
/// against [`GridSpec::seed_for`], so a silent seed-stream change would
/// otherwise only be caught cell by cell.
///
/// History: 1 = fixed-trial cells; 2 = adaptive cells (the cell schema
/// grew `trials_run`/`stopped_early`, and a cell's stored trials/seeds
/// may be a proper prefix of the spec's budget). Version-1 checkpoints
/// are refused loudly and re-run — splicing a fixed-format cell into an
/// adaptive grid (or vice versa) must never happen silently.
pub const FORMAT_VERSION: u64 = 2;

/// Why a service operation failed.
#[derive(Debug)]
pub enum ServiceError {
    /// Filesystem trouble, with the path involved.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A job or checkpoint file exists but does not decode or validate.
    Format {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A resubmitted job's spec or fingerprint disagrees with the one on
    /// disk — resuming it would splice checkpoints from a different grid.
    SpecMismatch {
        /// What disagreed.
        detail: String,
    },
    /// A pass's stop rule or lookahead was refused by
    /// [`CellPolicy::new`] before any cell ran.
    Policy(StatsError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io { path, source } => {
                write!(f, "campaign I/O error at {}: {source}", path.display())
            }
            ServiceError::Format { path, detail } => {
                write!(f, "bad campaign file {}: {detail}", path.display())
            }
            ServiceError::SpecMismatch { detail } => {
                write!(f, "job spec mismatch: {detail}")
            }
            ServiceError::Policy(e) => write!(f, "bad run policy: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io { source, .. } => Some(source),
            ServiceError::Policy(e) => Some(e),
            _ => None,
        }
    }
}

impl ServiceError {
    fn io(path: &Path, source: io::Error) -> Self {
        ServiceError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    fn format(path: &Path, detail: impl Into<String>) -> Self {
        ServiceError::Format {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

/// A failed [`JobHandle::run`]: either the service layer broke (I/O,
/// corrupt job metadata) or the evaluation closure did.
#[derive(Debug)]
pub enum RunError<E> {
    /// The checkpoint/metadata layer failed.
    Service(ServiceError),
    /// The evaluation closure failed (first failing cell in cell order).
    Eval(E),
}

impl<E> From<ServiceError> for RunError<E> {
    fn from(e: ServiceError) -> Self {
        RunError::Service(e)
    }
}

impl<E: fmt::Display> fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Service(e) => e.fmt(f),
            RunError::Eval(e) => write!(f, "cell evaluation failed: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for RunError<E> {}

/// Options for one [`JobHandle::run`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Evaluate at most this many missing cells, then stop with
    /// [`RunOutcome::Interrupted`]. `None` runs the job to completion.
    /// This is the deterministic "kill it mid-grid" lever the resume
    /// tests and the CI smoke gate use.
    pub max_cells: Option<usize>,
    /// Sequential stop rule for this pass: each evaluated cell consumes
    /// its pinned seed stream in order and stops early once the rule is
    /// satisfied. `None` (the default) runs every cell's full trial
    /// budget. The rule is a *run-time* option, not part of the job's
    /// identity — every checkpointed cell records honestly how many
    /// trials it ran, and any prefix of the seed stream validates, so
    /// passes with different rules may legally complete one job (each
    /// cell self-describes via `trials_run`/`stopped_early`).
    pub stop_rule: Option<StopRule>,
    /// Speculative lookahead policy for adaptive passes (ignored without
    /// a stop rule): trials past the satisfied-check are evaluated in
    /// groups so grouped closures can batch them, then truncated to the
    /// exact first-satisfied prefix. Like the stop rule, this is a
    /// *run-time* option: it changes grouping and waste only, never
    /// which trials a checkpoint keeps, so passes under different
    /// lookaheads produce byte-identical cell files.
    pub lookahead: Lookahead,
}

/// What one [`JobHandle::run`] pass accomplished.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every cell is checkpointed; the grid was reassembled.
    Complete(GridResults),
    /// The pass stopped early (see [`RunOptions::max_cells`]).
    Interrupted {
        /// Cells with a valid checkpoint after this pass.
        done: usize,
        /// Total cells in the grid.
        total: usize,
    },
}

/// Progress of one checkpointed cell ([`JobStatus::cells`]): how many of
/// its budgeted trials actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellProgress {
    /// The cell's grid address.
    pub key: CellKey,
    /// Trials the checkpoint holds (a seed-stream prefix).
    pub trials_run: usize,
    /// Trials the cell actually *evaluated*: the kept prefix plus any
    /// speculative lookahead discards (always `>= trials_run`). Read
    /// from the cell's waste sidecar; equals `trials_run` when no
    /// sidecar exists (trial-at-a-time passes evaluate exactly what
    /// they keep).
    pub trials_evaluated: usize,
    /// Whether a stop rule ended the cell before its full budget.
    pub stopped_early: bool,
}

/// Per-job progress snapshot ([`JobHandle::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Total cells in the grid.
    pub total_cells: usize,
    /// Cells with a valid checkpoint.
    pub done_cells: usize,
    /// Cells whose checkpoint file exists but fails validation (corrupt,
    /// truncated, wrong seeds, wrong version) — these re-run on resume.
    pub invalid_cells: Vec<CellKey>,
    /// The spec's per-cell trial budget.
    pub trials_per_cell: usize,
    /// Per-cell progress of every valid checkpoint, in cell order — what
    /// lets `campaignd status` report adaptive savings without reading
    /// checkpoint JSON.
    pub cells: Vec<CellProgress>,
}

impl JobStatus {
    /// Whether every cell has a valid checkpoint.
    pub fn is_complete(&self) -> bool {
        self.done_cells == self.total_cells
    }

    /// Total trials run (kept) across checkpointed cells.
    pub fn trials_run(&self) -> usize {
        self.cells.iter().map(|c| c.trials_run).sum()
    }

    /// Total trials evaluated across checkpointed cells: kept plus
    /// speculatively discarded (always `>= trials_run()`).
    pub fn trials_evaluated(&self) -> usize {
        self.cells.iter().map(|c| c.trials_evaluated).sum()
    }

    /// Trials the stop rule saved across checkpointed cells, relative to
    /// the fixed budget (`done_cells × trials_per_cell`) — charged
    /// against trials *evaluated*, not trials kept, so lookahead waste
    /// can't masquerade as savings.
    pub fn trials_saved(&self) -> usize {
        (self.done_cells * self.trials_per_cell).saturating_sub(self.trials_evaluated())
    }
}

/// The campaign store: a root directory holding one subdirectory per
/// submitted job.
#[derive(Debug, Clone)]
pub struct CampaignService {
    root: PathBuf,
}

impl CampaignService {
    /// Opens (or designates) a campaign root. The directory is created
    /// lazily on first submit.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn job_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Submits a job: writes `job.json` if the job is new, or validates
    /// that the existing job on disk was built from the *same* spec and
    /// fingerprint (making `submit` idempotent and resume-safe).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on I/O failure, on a corrupt existing
    /// `job.json`, or when the existing job disagrees with `spec` /
    /// `fingerprint`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains path separators — job names
    /// are directory names, not paths.
    pub fn submit(
        &self,
        name: &str,
        spec: GridSpec,
        fingerprint: Option<u64>,
    ) -> Result<JobHandle, ServiceError> {
        assert!(
            !name.is_empty() && !name.contains(['/', '\\']),
            "job names are single path components"
        );
        let dir = self.job_dir(name);
        let job_path = dir.join("job.json");
        if job_path.exists() {
            let existing = JobHandle::load(dir)?;
            if existing.spec != spec {
                return Err(ServiceError::SpecMismatch {
                    detail: format!("job `{name}` exists with a different grid spec"),
                });
            }
            if existing.fingerprint != fingerprint {
                return Err(ServiceError::SpecMismatch {
                    detail: format!(
                        "job `{name}` exists with fingerprint {:?}, resubmitted with {:?}",
                        existing.fingerprint, fingerprint
                    ),
                });
            }
            return Ok(existing);
        }
        fs::create_dir_all(dir.join("cells")).map_err(|e| ServiceError::io(&dir, e))?;
        let job = JobHandle {
            dir,
            name: name.to_owned(),
            spec,
            fingerprint,
        };
        let mut fields = vec![
            ("format_version", Json::Num(FORMAT_VERSION as f64)),
            ("spec", job.spec.to_json()),
        ];
        if let Some(fp) = fingerprint {
            fields.push(("fingerprint", u64_json(fp)));
        }
        write_atomic(&job_path, &Json::obj(fields).render())?;
        Ok(job)
    }

    /// Opens an existing job by name.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] when the job does not exist or its
    /// `job.json` is corrupt.
    pub fn open(&self, name: &str) -> Result<JobHandle, ServiceError> {
        JobHandle::load(self.job_dir(name))
    }

    /// Lists submitted job names (directories containing a `job.json`),
    /// sorted.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on I/O failure; a missing root is an
    /// empty listing, not an error.
    pub fn jobs(&self) -> Result<Vec<String>, ServiceError> {
        let mut names = Vec::new();
        let entries = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(ServiceError::io(&self.root, e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| ServiceError::io(&self.root, e))?;
            if entry.path().join("job.json").is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// One submitted job: a spec bound to its checkpoint directory.
#[derive(Debug, Clone)]
pub struct JobHandle {
    dir: PathBuf,
    name: String,
    spec: GridSpec,
    fingerprint: Option<u64>,
}

impl JobHandle {
    fn load(dir: PathBuf) -> Result<Self, ServiceError> {
        let job_path = dir.join("job.json");
        let text = read_text(&job_path)?;
        let json =
            Json::parse(&text).map_err(|e| ServiceError::format(&job_path, e.to_string()))?;
        let version = json
            .usize_field("format_version")
            .map_err(|e| ServiceError::format(&job_path, e.to_string()))?;
        if version as u64 != FORMAT_VERSION {
            return Err(ServiceError::format(
                &job_path,
                format!("format version {version}, this build expects {FORMAT_VERSION}"),
            ));
        }
        let spec = json
            .field("spec")
            .and_then(GridSpec::from_json)
            .map_err(|e| ServiceError::format(&job_path, e.to_string()))?;
        let fingerprint =
            match json.get("fingerprint") {
                Some(v) => Some(v.as_str().and_then(|s| s.parse::<u64>().ok()).ok_or_else(
                    || ServiceError::format(&job_path, "fingerprint must be a decimal u64 string"),
                )?),
                None => None,
            };
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        Ok(Self {
            dir,
            name,
            spec,
            fingerprint,
        })
    }

    /// The job's name (its directory name under the service root).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's grid spec.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The config fingerprint recorded at submit time, if any.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// The job's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The checkpoint file backing one cell — stable across sessions, so
    /// external tooling (and byte-identity tests) can diff artifacts.
    pub fn cell_path(&self, key: CellKey) -> PathBuf {
        self.dir.join("cells").join(format!(
            "c{:03}_{:03}.json",
            key.technique_idx, key.rate_idx
        ))
    }

    /// The waste **sidecar** next to one cell's checkpoint: records how
    /// many trials the pass that produced the checkpoint *evaluated*
    /// (kept prefix plus speculative lookahead discards). Kept out of
    /// the checkpoint file itself deliberately — cell files are pinned
    /// byte-identical across lookahead policies, and waste is a property
    /// of the pass, not of the result.
    pub fn cell_waste_path(&self, key: CellKey) -> PathBuf {
        self.dir.join("cells").join(format!(
            "c{:03}_{:03}.eval.json",
            key.technique_idx, key.rate_idx
        ))
    }

    /// Reads one cell's waste sidecar; `trials_run` is the floor the
    /// value must respect (a sidecar claiming fewer evaluated trials
    /// than the checkpoint keeps, more than the budget, or failing to
    /// parse is ignored — waste accounting is advisory, never a reason
    /// to refuse a valid checkpoint).
    fn load_cell_waste(&self, key: CellKey, trials_run: usize) -> usize {
        let Ok(text) = fs::read_to_string(self.cell_waste_path(key)) else {
            return trials_run;
        };
        let Ok(json) = Json::parse(&text) else {
            return trials_run;
        };
        match json.usize_field("trials_evaluated") {
            Ok(v) if v >= trials_run && v <= self.spec.trials => v,
            _ => trials_run,
        }
    }

    /// Every cell of the grid, in cell order (technique-major).
    pub fn cell_keys(&self) -> Vec<CellKey> {
        self.spec.cell_keys()
    }

    /// Loads and validates one cell checkpoint. `Ok(None)` means "no
    /// file"; a file that exists but fails *any* validation (parse error,
    /// version/key/axis mismatch, wrong trial count, seed-formula
    /// mismatch, inconsistent mean/std) is reported as `Err` so callers
    /// can distinguish "never ran" from "corrupt, will re-run".
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on I/O failure or a failed validation.
    pub fn load_cell(&self, key: CellKey) -> Result<Option<Aggregate>, ServiceError> {
        let path = self.cell_path(key);
        let text = match read_text(&path) {
            Err(ServiceError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                return Ok(None)
            }
            text => text?,
        };
        let bad = |detail: String| ServiceError::format(&path, detail);
        let json = Json::parse(&text).map_err(|e| bad(e.to_string()))?;
        let version = json
            .usize_field("format_version")
            .map_err(|e| bad(e.to_string()))?;
        if version as u64 != FORMAT_VERSION {
            return Err(bad(format!(
                "format version {version}, this build expects {FORMAT_VERSION}"
            )));
        }
        let cell = json
            .field("cell")
            .and_then(Aggregate::from_json)
            .map_err(|e| bad(e.to_string()))?;
        if cell.key != key {
            return Err(bad(format!(
                "cell file addressed ({}, {}) but holds ({}, {})",
                key.technique_idx, key.rate_idx, cell.key.technique_idx, cell.key.rate_idx
            )));
        }
        if cell.technique != self.spec.techniques[key.technique_idx] {
            return Err(bad(format!(
                "technique label `{}` disagrees with spec `{}`",
                cell.technique, self.spec.techniques[key.technique_idx]
            )));
        }
        if cell.rate.to_bits() != self.spec.rates[key.rate_idx].to_bits() {
            return Err(bad(format!(
                "rate {} disagrees with spec rate {}",
                cell.rate, self.spec.rates[key.rate_idx]
            )));
        }
        if cell.trials.is_empty() || cell.trials.len() > self.spec.trials {
            return Err(bad(format!(
                "{} trials stored, spec budgets 1..={}",
                cell.trials.len(),
                self.spec.trials
            )));
        }
        if cell.stopped_early != (cell.trials.len() < self.spec.trials) {
            return Err(bad(format!(
                "stopped_early {} disagrees with {} of {} trials run",
                cell.stopped_early,
                cell.trials.len(),
                self.spec.trials
            )));
        }
        // The seed-formula pin: stored seeds must equal what the spec
        // derives today, trial for trial — a prefix of the cell's pinned
        // seed stream, exactly as long as the trials that ran. A
        // seed-stream change makes every old checkpoint fail here (and
        // must bump FORMAT_VERSION).
        let seeds = json.arr_field("seeds").map_err(|e| bad(e.to_string()))?;
        if seeds.len() != cell.trials.len() {
            return Err(bad(format!(
                "{} seeds stored for {} trials",
                seeds.len(),
                cell.trials.len()
            )));
        }
        for (trial, seed_json) in seeds.iter().enumerate() {
            let stored = seed_json
                .as_str()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| bad(format!("seed {trial} is not a decimal u64 string")))?;
            let expected = self.spec.seed_for(key.rate_idx, trial, key.technique_idx);
            if stored != expected {
                return Err(bad(format!(
                    "seed {trial} is {stored}, seed formula derives {expected} \
                     (stale checkpoint from a different seed stream?)"
                )));
            }
        }
        // Aggregates must be self-consistent with their trials.
        let expected = snn_sim::metrics::mean(&cell.trials);
        if cell.mean.to_bits() != expected.to_bits() {
            return Err(bad(format!(
                "stored mean {} disagrees with trials (expected {expected})",
                cell.mean
            )));
        }
        let expected = snn_sim::metrics::std_dev(&cell.trials);
        if cell.std_dev.to_bits() != expected.to_bits() {
            return Err(bad(format!(
                "stored std_dev {} disagrees with trials (expected {expected})",
                cell.std_dev
            )));
        }
        Ok(Some(cell))
    }

    /// Writes one cell checkpoint atomically (unique tmp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] on I/O failure.
    pub fn store_cell(&self, cell: &Aggregate) -> Result<(), ServiceError> {
        let points = self.spec.cell_points(cell.key);
        // Seeds for exactly the trials that ran: an early-stopped cell
        // stores (and later validates) the seed-stream prefix it
        // consumed, nothing more.
        let json = Json::obj([
            ("format_version", Json::Num(FORMAT_VERSION as f64)),
            ("cell", cell.to_json()),
            (
                "seeds",
                Json::Arr(
                    points[..cell.trials.len()]
                        .iter()
                        .map(|p| u64_json(p.seed))
                        .collect(),
                ),
            ),
        ]);
        write_atomic(&self.cell_path(cell.key), &json.render())
    }

    /// Scans every cell checkpoint and reports progress. Invalid files
    /// are listed, not errors — resume treats them as missing.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] only on I/O failure.
    pub fn status(&self) -> Result<JobStatus, ServiceError> {
        let mut done = 0;
        let mut invalid = Vec::new();
        let mut cells = Vec::new();
        for key in self.cell_keys() {
            match self.load_cell(key) {
                Ok(Some(cell)) => {
                    done += 1;
                    cells.push(CellProgress {
                        key,
                        trials_run: cell.trials_run,
                        trials_evaluated: self.load_cell_waste(key, cell.trials_run),
                        stopped_early: cell.stopped_early,
                    });
                }
                Ok(None) => {}
                Err(ServiceError::Format { .. }) => invalid.push(key),
                Err(e) => return Err(e),
            }
        }
        Ok(JobStatus {
            total_cells: self.spec.n_cells(),
            done_cells: done,
            invalid_cells: invalid,
            trials_per_cell: self.spec.trials,
            cells,
        })
    }

    /// The cells a resume pass must (re-)run, in cell order: cells with
    /// no checkpoint plus cells whose checkpoint fails validation.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] only on I/O failure.
    pub fn missing_cells(&self) -> Result<Vec<CellKey>, ServiceError> {
        let mut missing = Vec::new();
        for key in self.cell_keys() {
            match self.load_cell(key) {
                Ok(Some(_)) => {}
                Ok(None) => missing.push(key),
                Err(ServiceError::Format { .. }) => missing.push(key),
                Err(e) => return Err(e),
            }
        }
        Ok(missing)
    }

    /// Runs (or resumes) the job: evaluates every missing cell — in
    /// parallel across cells, each with its own clone of `proto` — through
    /// the grid's cell executor ([`GridRunner::run_cells`]), checkpointing
    /// each cell as it lands, then reassembles the full grid from
    /// checkpoints if everything is present.
    ///
    /// The closure has [`GridRunner::run_grouped`]'s shape: it receives
    /// one cell's contiguous trial points and returns one value per
    /// point, so the figure harness's grouped evaluation (multi-map
    /// batching included) plugs in unchanged. The reassembled
    /// [`GridResults`] is produced by [`GridResults::from_cell_trials`]
    /// over the checkpointed per-trial values — the same single pass an
    /// uninterrupted [`GridRunner`] run performs — so resume is
    /// bit-identical, not approximately equal.
    ///
    /// [`RunOptions::stop_rule`] and [`RunOptions::lookahead`] build the
    /// pass's [`CellPolicy`]. Under an adaptive policy the checkpoint
    /// records the trials and seeds that were *kept*; speculative extras
    /// are counted in the cell's waste sidecar ([`Self::cell_waste_path`]),
    /// never in the checkpoint, so cell files stay byte-identical across
    /// lookahead policies.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error in cell order
    /// ([`RunError::Eval`]), [`RunError::Service`] on checkpoint I/O
    /// failure, or [`ServiceError::Policy`] (before anything runs) when
    /// [`CellPolicy::new`] refuses the options.
    ///
    /// # Panics
    ///
    /// Panics if the closure returns the wrong number of values for a
    /// cell.
    pub fn run<S, E, F>(&self, proto: &S, opts: RunOptions, f: F) -> Result<RunOutcome, RunError<E>>
    where
        S: Clone + Sync,
        E: Send,
        F: Fn(&mut S, &[GridPointCtx]) -> Result<Vec<f64>, E> + Sync,
    {
        let policy = CellPolicy::new(opts.stop_rule, opts.lookahead, self.spec.trials)
            .map_err(ServiceError::Policy)?;
        let missing = self.missing_cells()?;
        let budget = opts.max_cells.unwrap_or(missing.len()).min(missing.len());
        GridRunner::new(self.spec.clone())
            .with_policy(policy)
            .run_cells(
                &missing[..budget],
                proto,
                |state, points| f(state, points).map_err(RunError::Eval),
                |run| self.checkpoint(run, policy).map_err(RunError::Service),
            )?;
        if budget < missing.len() {
            return Ok(RunOutcome::Interrupted {
                done: self.spec.n_cells() - (missing.len() - budget),
                total: self.spec.n_cells(),
            });
        }
        let results = self.results()?.expect("all cells just checkpointed");
        Ok(RunOutcome::Complete(results))
    }

    /// The service's sink: writes one finished cell's checkpoint, then
    /// its waste sidecar. Adaptive passes record what they evaluated;
    /// fixed passes remove any stale sidecar from an earlier adaptive
    /// attempt at this cell.
    fn checkpoint(&self, run: CellRun, policy: CellPolicy) -> Result<(), ServiceError> {
        let key = run.key;
        self.store_cell(&Aggregate::from_trials(
            key,
            self.spec.techniques[key.technique_idx].clone(),
            self.spec.rates[key.rate_idx],
            self.spec.trials,
            run.values,
        ))?;
        let waste_path = self.cell_waste_path(key);
        match policy {
            CellPolicy::Adaptive { .. } => write_atomic(
                &waste_path,
                &Json::obj([("trials_evaluated", Json::Num(run.evaluated as f64))]).render(),
            ),
            CellPolicy::Fixed => match fs::remove_file(&waste_path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => {
                    Err(ServiceError::io(&waste_path, e))
                }
                _ => Ok(()),
            },
        }
    }

    /// Reassembles the full grid from checkpoints: `Ok(None)` while any
    /// cell is missing or invalid. Aggregation re-runs
    /// [`GridResults::from_cell_trials`] over the stored per-trial
    /// values, so the result is bit-identical to an uninterrupted run —
    /// including adaptive cells that stopped before the trial budget.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] only on I/O failure.
    pub fn results(&self) -> Result<Option<GridResults>, ServiceError> {
        let mut cell_trials = Vec::with_capacity(self.spec.n_cells());
        for key in self.cell_keys() {
            match self.load_cell(key) {
                Ok(Some(cell)) => cell_trials.push(cell.trials),
                Ok(None) => return Ok(None),
                Err(ServiceError::Format { .. }) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(Some(GridResults::from_cell_trials(&self.spec, cell_trials)))
    }
}

/// Process-unique counter making concurrent tmp-file names distinct.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// Reads `path` as text. Bytes that are not UTF-8 make a corrupt file
/// ([`ServiceError::Format`]), not an I/O failure, so a checkpoint with
/// one flipped high bit re-runs on resume instead of failing the job.
fn read_text(path: &Path) -> Result<String, ServiceError> {
    let bytes = fs::read(path).map_err(|e| ServiceError::io(path, e))?;
    String::from_utf8(bytes).map_err(|e| ServiceError::format(path, e.to_string()))
}

/// Writes `text` (plus a trailing newline) to `path` atomically: the
/// bytes land under a unique tmp name first and are renamed into place,
/// so readers never observe a torn file and a crash leaves at worst an
/// orphaned `.tmp` that validation ignores. Parent directories are
/// created as needed.
///
/// # Errors
///
/// Returns [`ServiceError::Io`] when a directory, the tmp file or the
/// rename cannot be written.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), ServiceError> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(parent).map_err(|e| ServiceError::io(parent, e))?;
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{nonce}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut contents = String::with_capacity(text.len() + 1);
    contents.push_str(text);
    contents.push('\n');
    fs::write(&tmp, contents).map_err(|e| ServiceError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        ServiceError::io(path, e)
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "snn_service_{tag}_{}_{}",
            std::process::id(),
            TMP_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> GridSpec {
        GridSpec::new(
            13,
            0x50F7_511F,
            vec!["a".into(), "b".into()],
            vec![0.001, 0.1, 0.25],
            3,
        )
    }

    /// The evaluation every test uses: deterministic per-point values
    /// derived from the seed, so reruns are bit-identical by construction
    /// and any seed drift changes the answer.
    fn eval(_: &mut (), points: &[GridPointCtx]) -> Result<Vec<f64>, Infallible> {
        Ok(points
            .iter()
            .map(|p| (p.seed % 1000) as f64 / 16.0 + p.rate)
            .collect())
    }

    fn reference_results() -> GridResults {
        let spec = spec();
        let values: Vec<f64> = spec
            .points()
            .iter()
            .map(|p| (p.seed % 1000) as f64 / 16.0 + p.rate)
            .collect();
        GridResults::aggregate(&spec, &values)
    }

    #[test]
    fn one_shot_run_completes_and_matches_gridrunner() {
        let root = temp_root("oneshot");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), Some(7)).unwrap();
        let outcome = job.run(&(), RunOptions::default(), eval).unwrap();
        match outcome {
            RunOutcome::Complete(results) => assert_eq!(results, reference_results()),
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(job.status().unwrap().is_complete());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let root = temp_root("resume");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        // First pass: only 2 of the 6 cells.
        let outcome = job
            .run(
                &(),
                RunOptions {
                    max_cells: Some(2),
                    ..RunOptions::default()
                },
                eval,
            )
            .unwrap();
        match outcome {
            RunOutcome::Interrupted { done, total } => {
                assert_eq!((done, total), (2, 6));
            }
            other => panic!("expected interruption, got {other:?}"),
        }
        assert!(job.results().unwrap().is_none());
        // Resume through a fresh handle (as the CLI would).
        let job2 = service.open("j").unwrap();
        assert_eq!(job2.missing_cells().unwrap().len(), 4);
        let outcome = job2.run(&(), RunOptions::default(), eval).unwrap();
        match outcome {
            RunOutcome::Complete(results) => assert_eq!(results, reference_results()),
            other => panic!("expected completion, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_and_truncated_cells_rerun_on_resume() {
        let root = temp_root("corrupt");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        job.run(&(), RunOptions::default(), eval).unwrap();
        // Truncate one checkpoint, garble another.
        let k0 = CellKey {
            technique_idx: 0,
            rate_idx: 1,
        };
        let k1 = CellKey {
            technique_idx: 1,
            rate_idx: 2,
        };
        let p0 = job.cell_path(k0);
        let full = fs::read_to_string(&p0).unwrap();
        fs::write(&p0, &full[..full.len() / 2]).unwrap();
        fs::write(job.cell_path(k1), "not json at all").unwrap();
        let status = job.status().unwrap();
        assert_eq!(status.done_cells, 4);
        assert_eq!(status.invalid_cells, vec![k0, k1]);
        assert_eq!(job.missing_cells().unwrap(), vec![k0, k1]);
        assert!(
            job.results().unwrap().is_none(),
            "corrupt cells block results"
        );
        let outcome = job.run(&(), RunOptions::default(), eval).unwrap();
        match outcome {
            RunOutcome::Complete(results) => assert_eq!(results, reference_results()),
            other => panic!("expected completion, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn non_utf8_files_are_corrupt_not_io_failures() {
        let root = temp_root("utf8");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        job.run(&(), RunOptions::default(), eval).unwrap();
        let key = CellKey {
            technique_idx: 1,
            rate_idx: 0,
        };
        let mut bytes = fs::read(job.cell_path(key)).unwrap();
        bytes[3] |= 0x80;
        fs::write(job.cell_path(key), &bytes).unwrap();
        assert!(matches!(
            job.load_cell(key),
            Err(ServiceError::Format { .. })
        ));
        assert_eq!(job.status().unwrap().invalid_cells, vec![key]);
        assert_eq!(job.missing_cells().unwrap(), vec![key]);
        let outcome = job.run(&(), RunOptions::default(), eval).unwrap();
        assert!(matches!(outcome, RunOutcome::Complete(_)));
        let job_path = job.dir().join("job.json");
        let mut bytes = fs::read(&job_path).unwrap();
        bytes[0] = 0xFF;
        fs::write(&job_path, &bytes).unwrap();
        assert!(matches!(
            service.open("j"),
            Err(ServiceError::Format { .. })
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_seed_stream_is_rejected() {
        let root = temp_root("seeds");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        job.run(&(), RunOptions::default(), eval).unwrap();
        // Simulate a checkpoint written under a different seed formula by
        // rewriting one stored seed.
        let key = CellKey {
            technique_idx: 0,
            rate_idx: 0,
        };
        let path = job.cell_path(key);
        let text = fs::read_to_string(&path).unwrap();
        let real_seed = job.spec().seed_for(0, 0, 0).to_string();
        let tampered = text.replace(&real_seed, "12345");
        assert_ne!(text, tampered, "seed must appear in the checkpoint");
        fs::write(&path, tampered).unwrap();
        assert!(matches!(
            job.load_cell(key),
            Err(ServiceError::Format { .. })
        ));
        assert_eq!(job.missing_cells().unwrap(), vec![key]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn submit_is_idempotent_but_rejects_mismatches() {
        let root = temp_root("submit");
        let service = CampaignService::new(&root);
        service.submit("j", spec(), Some(1)).unwrap();
        // Same spec + fingerprint: fine (resume path).
        service.submit("j", spec(), Some(1)).unwrap();
        // Different fingerprint: refused.
        assert!(matches!(
            service.submit("j", spec(), Some(2)),
            Err(ServiceError::SpecMismatch { .. })
        ));
        // Different spec: refused.
        let mut other = spec();
        other.trials = 5;
        assert!(matches!(
            service.submit("j", other, Some(1)),
            Err(ServiceError::SpecMismatch { .. })
        ));
        assert_eq!(service.jobs().unwrap(), vec!["j".to_owned()]);
        let _ = fs::remove_dir_all(&root);
    }

    /// Stops every cell at exactly 2 of the spec's 3 trials: at `n = 2`
    /// the Hoeffding bound is `100·sqrt(ln(5)/4) ≈ 63.4 ≤ 70`.
    fn early_rule() -> StopRule {
        StopRule::new(2, 3, 70.0, 0.6).unwrap()
    }

    #[test]
    fn adaptive_run_checkpoints_seed_stream_prefixes() {
        let root = temp_root("adaptive");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        let opts = RunOptions {
            stop_rule: Some(early_rule()),
            ..RunOptions::default()
        };
        let outcome = job.run(&(), opts, eval).unwrap();
        let results = match outcome {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };
        let reference = reference_results();
        for (cell, full) in results.cells().iter().zip(reference.cells()) {
            assert_eq!(cell.trials_run, 2);
            assert!(cell.stopped_early);
            // The adaptive cell is bit-identical to the first-2-trials
            // prefix of the fixed-budget run.
            for (a, f) in cell.trials.iter().zip(&full.trials) {
                assert_eq!(a.to_bits(), f.to_bits());
            }
        }
        let status = job.status().unwrap();
        assert!(status.is_complete());
        assert_eq!(status.trials_run(), 12);
        assert_eq!(status.trials_saved(), 6);
        for progress in &status.cells {
            assert_eq!(progress.trials_run, 2);
            assert!(progress.stopped_early);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_adaptive_run_resumes_to_identical_checkpoints() {
        let root = temp_root("adaptive_resume");
        let service = CampaignService::new(&root);
        let opts = RunOptions {
            stop_rule: Some(early_rule()),
            ..RunOptions::default()
        };

        // Reference: one-shot adaptive job.
        let oneshot = service.submit("oneshot", spec(), None).unwrap();
        let reference = match oneshot.run(&(), opts, eval).unwrap() {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };

        // Same rule, interrupted after 2 cells, resumed via a fresh handle.
        let job = service.submit("resumed", spec(), None).unwrap();
        let first = RunOptions {
            max_cells: Some(2),
            ..opts
        };
        match job.run(&(), first, eval).unwrap() {
            RunOutcome::Interrupted { done, total } => assert_eq!((done, total), (2, 6)),
            other => panic!("expected interruption, got {other:?}"),
        }
        let job2 = service.open("resumed").unwrap();
        let resumed = match job2.run(&(), opts, eval).unwrap() {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(resumed, reference);
        // Checkpoint files byte-identical across the two jobs.
        for key in oneshot.cell_keys() {
            let a = fs::read(oneshot.cell_path(key)).unwrap();
            let b = fs::read(job2.cell_path(key)).unwrap();
            assert_eq!(a, b, "cell {key:?} artifact differs");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fixed_pass_tops_up_nothing_after_adaptive_pass() {
        // A stop rule is a run-time option, not part of the job identity:
        // adaptive checkpoints are complete cells, so a later fixed-mode
        // pass over the same job finds nothing missing.
        let root = temp_root("mixed");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        let opts = RunOptions {
            stop_rule: Some(early_rule()),
            ..RunOptions::default()
        };
        job.run(&(), opts, eval).unwrap();
        let job2 = service.open("j").unwrap();
        assert!(job2.missing_cells().unwrap().is_empty());
        match job2.run(&(), RunOptions::default(), eval).unwrap() {
            RunOutcome::Complete(results) => {
                assert_eq!(results.cells()[0].trials_run, 2);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// An 8-trial spec over the same axes, for lookahead tests with room
    /// to speculate.
    fn spec8() -> GridSpec {
        GridSpec::new(
            13,
            0x50F7_511F,
            vec!["a".into(), "b".into()],
            vec![0.001, 0.1, 0.25],
            8,
        )
    }

    /// Stops every cell at exactly 4 of 8 trials: the Hoeffding
    /// half-width `100·sqrt(ln(5)/2n)` is ≈ 51.8 at `n = 3` and ≈ 44.8
    /// at `n = 4` — data-independent, so waste is deterministic too.
    fn rule45() -> StopRule {
        StopRule::new(2, 8, 45.0, 0.6).unwrap()
    }

    #[test]
    fn lookahead_waste_lands_in_sidecars_and_checkpoints_stay_byte_identical() {
        let root = temp_root("lookahead");
        let service = CampaignService::new(&root);

        // Trial-at-a-time reference: evaluates exactly what it keeps.
        let seq = service.submit("seq", spec8(), None).unwrap();
        let opts_seq = RunOptions {
            stop_rule: Some(rule45()),
            ..RunOptions::default()
        };
        seq.run(&(), opts_seq, eval).unwrap();

        // Fixed(4) lookahead: the unsatisfied 2-trial head is followed by
        // one group of 4, of which only 2 are kept — 6 evaluated, 4 kept.
        let spec_job = service.submit("spec", spec8(), None).unwrap();
        let opts_spec = RunOptions {
            stop_rule: Some(rule45()),
            lookahead: Lookahead::Fixed(4),
            ..RunOptions::default()
        };
        let results = match spec_job.run(&(), opts_spec, eval).unwrap() {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };
        for cell in results.cells() {
            assert_eq!(cell.trials_run, 4);
            assert!(cell.stopped_early);
        }
        let status = spec_job.status().unwrap();
        assert_eq!(status.trials_run(), 4 * 6);
        assert_eq!(status.trials_evaluated(), 6 * 6);
        // Savings are charged against trials *evaluated*: 8 budgeted − 6
        // evaluated per cell, not 8 − 4.
        assert_eq!(status.trials_saved(), 2 * 6);
        for progress in &status.cells {
            assert_eq!(progress.trials_run, 4);
            assert_eq!(progress.trials_evaluated, 6);
            assert!(spec_job.cell_waste_path(progress.key).is_file());
        }

        // The sequential job evaluated exactly what it kept...
        let seq_status = seq.status().unwrap();
        assert_eq!(seq_status.trials_run(), 4 * 6);
        assert_eq!(seq_status.trials_evaluated(), 4 * 6);
        assert_eq!(seq_status.trials_saved(), 4 * 6);
        // ...and both jobs' checkpoint files are byte-identical: waste
        // never leaks into the cell format.
        for key in seq.cell_keys() {
            let a = fs::read(seq.cell_path(key)).unwrap();
            let b = fs::read(spec_job.cell_path(key)).unwrap();
            assert_eq!(a, b, "cell {key:?} differs across lookahead policies");
        }

        // A tampered sidecar claiming fewer evaluated trials than the
        // checkpoint keeps is advisory garbage: ignored, not an error.
        let key = seq.cell_keys()[0];
        fs::write(spec_job.cell_waste_path(key), "{\"trials_evaluated\":1}\n").unwrap();
        let status = spec_job.status().unwrap();
        assert_eq!(status.cells[0].trials_evaluated, 4);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fixed_rerun_removes_a_stale_waste_sidecar() {
        let root = temp_root("stale_waste");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec8(), None).unwrap();
        let opts = RunOptions {
            stop_rule: Some(rule45()),
            lookahead: Lookahead::Fixed(4),
            ..RunOptions::default()
        };
        job.run(&(), opts, eval).unwrap();
        let key = CellKey {
            technique_idx: 0,
            rate_idx: 1,
        };
        assert!(job.cell_waste_path(key).is_file());
        // Corrupt the checkpoint so a fixed-mode pass re-runs the cell.
        fs::write(job.cell_path(key), "not json").unwrap();
        job.run(&(), RunOptions::default(), eval).unwrap();
        assert!(
            !job.cell_waste_path(key).is_file(),
            "fixed re-run must remove the stale sidecar"
        );
        let status = job.status().unwrap();
        let progress = status.cells.iter().find(|c| c.key == key).unwrap();
        assert_eq!(progress.trials_run, 8);
        assert_eq!(progress.trials_evaluated, 8);
        assert!(!progress.stopped_early);
        // Untouched adaptive cells keep their waste accounting.
        let other = status
            .cells
            .iter()
            .find(|c| {
                c.key
                    == CellKey {
                        technique_idx: 0,
                        rate_idx: 0,
                    }
            })
            .unwrap();
        assert_eq!(other.trials_evaluated, 6);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn degenerate_lookahead_is_refused_before_anything_runs() {
        let root = temp_root("badlookahead");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        let opts = RunOptions {
            stop_rule: Some(early_rule()),
            lookahead: Lookahead::Fixed(0),
            ..RunOptions::default()
        };
        let result = job.run(&(), opts, eval);
        assert!(matches!(
            result,
            Err(RunError::Service(ServiceError::Policy(_)))
        ));
        assert_eq!(job.status().unwrap().done_cells, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stop_rule_beyond_spec_budget_is_refused() {
        let root = temp_root("badrule");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        let opts = RunOptions {
            // max_trials 5 > the spec's 3-trial budget.
            stop_rule: Some(StopRule::new(2, 5, 10.0, 0.9).unwrap()),
            ..RunOptions::default()
        };
        let result = job.run(&(), opts, eval);
        assert!(matches!(
            result,
            Err(RunError::Service(ServiceError::Policy(_)))
        ));
        // Nothing ran.
        assert_eq!(job.status().unwrap().done_cells, 0);
        let _ = fs::remove_dir_all(&root);
    }

    /// A bad policy is refused with the same typed error whether it is
    /// built for an in-memory [`GridRunner`] or handed to the service as
    /// run options: both go through [`CellPolicy::new`].
    #[test]
    fn grid_runner_and_service_reject_the_same_bad_policy() {
        let root = temp_root("samepolicy");
        let job = CampaignService::new(&root)
            .submit("j", spec(), None)
            .unwrap();
        let over_budget = StopRule::new(2, 5, 10.0, 0.9).unwrap();
        for (stop_rule, lookahead, expected) in [
            (
                Some(over_budget),
                Lookahead::Fixed(1),
                StatsError::MaxTrialsExceedsSpec {
                    max_trials: 5,
                    spec_trials: 3,
                },
            ),
            (
                Some(early_rule()),
                Lookahead::Fixed(0),
                StatsError::BadLookahead { k: 0 },
            ),
        ] {
            let grid = CellPolicy::new(stop_rule, lookahead, job.spec().trials);
            assert_eq!(grid, Err(expected));
            let opts = RunOptions {
                max_cells: None,
                stop_rule,
                lookahead,
            };
            match job.run(&(), opts, eval) {
                Err(RunError::Service(ServiceError::Policy(e))) => assert_eq!(e, expected),
                other => panic!("expected a policy error, got {other:?}"),
            }
        }
        assert_eq!(job.status().unwrap().done_cells, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_1_checkpoints_are_refused() {
        let root = temp_root("v1cell");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        job.run(&(), RunOptions::default(), eval).unwrap();
        // Rewind one cell file to the retired format version.
        let key = CellKey {
            technique_idx: 1,
            rate_idx: 0,
        };
        let path = job.cell_path(key);
        let text = fs::read_to_string(&path).unwrap();
        let stale = text.replace("\"format_version\":2", "\"format_version\":1");
        assert_ne!(text, stale, "version field must appear in the checkpoint");
        fs::write(&path, stale).unwrap();
        match job.load_cell(key) {
            Err(ServiceError::Format { detail, .. }) => {
                assert!(detail.contains("format version 1"), "got: {detail}");
            }
            other => panic!("expected format error, got {other:?}"),
        }
        assert_eq!(job.missing_cells().unwrap(), vec![key]);

        // A whole job written by a version-1 build is refused at open.
        let job_path = root.join("j").join("job.json");
        let text = fs::read_to_string(&job_path).unwrap();
        let stale = text.replace("\"format_version\":2", "\"format_version\":1");
        assert_ne!(text, stale);
        fs::write(&job_path, stale).unwrap();
        assert!(matches!(
            service.open("j"),
            Err(ServiceError::Format { .. })
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn eval_errors_surface_and_leave_good_cells_checkpointed() {
        let root = temp_root("evalerr");
        let service = CampaignService::new(&root);
        let job = service.submit("j", spec(), None).unwrap();
        let result = job.run(&(), RunOptions::default(), |_: &mut (), points| {
            if points[0].technique_idx == 1 {
                Err("boom")
            } else {
                Ok(points.iter().map(|p| p.seed as f64).collect())
            }
        });
        assert!(matches!(result, Err(RunError::Eval("boom"))));
        // Technique-0 cells landed before the failure surfaced.
        let status = job.status().unwrap();
        assert_eq!(status.done_cells, 3);
        let _ = fs::remove_dir_all(&root);
    }
}
