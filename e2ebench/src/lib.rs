//! End-to-end fault-injection campaign benchmark for the SoftSNN
//! reproduction. See `README.md` in this directory for the workloads,
//! the metrics and what each per-layer number predicts.
//!
//! One run alternates setting up a bench for one workload and running the
//! workload's campaign on the first bench, for the requested number of
//! seconds, checks every campaign's output, and reports medians. A traced
//! run (`--trace 1`) sets up once, records spans around the calls into
//! each layer, runs the unit-cost probes, and reports per-layer metrics.

pub mod golden;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use snn_faults::codec::{u64_json, Json};
use snn_faults::service::JobStatus;

use host::{Stopwatch, Took};
use metrics::Report;
use trace::{traced, Span, Tracer};
use workload::{BoxError, Kind, Prepared, N_CELLS};

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long to repeat setup and campaign, in seconds (at least one
    /// of each).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Compare with the recorded golden outputs (off only while
    /// recording them).
    pub golden: bool,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Grid cells produced over all campaign repetitions.
    pub attempted: u64,
    /// Cells that errored or disagreed with their reference or golden
    /// output; never more than `attempted`.
    pub failed: u64,
    /// Every collected sample.
    pub report: Report,
    /// What failed, for the log.
    pub problems: Vec<String>,
    /// Whether the data came from real IDX files.
    pub real_data: bool,
    /// Digest of the first campaign's result bits.
    pub digest: u64,
    /// The first campaign's `fig13.json`.
    pub artifact: Vec<u8>,
    /// Values of [`golden::COUNT_METRICS`].
    pub counts: Vec<f64>,
    /// Spans as JSON lines (traced runs only).
    pub trace_lines: Option<String>,
    /// Self time per layer, seconds (traced runs only).
    pub self_times: BTreeMap<&'static str, f64>,
    /// Median CPU time of the host-speed kernel, seconds (untraced runs
    /// only). Each setup's and campaign's CPU time is scaled by
    /// `host::NOMINAL_S` over the mean of the two kernels around it.
    pub host_probe_s: Option<f64>,
}

impl Outcome {
    /// Cells failed over cells attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's last line: `correct`, `attempted`, `failed` and the
    /// reported value of each metric of `defs`.
    pub fn result_line(&self, defs: &[metrics::MetricDef]) -> String {
        let metrics = self
            .report
            .select(defs)
            .into_iter()
            .map(|s| {
                (
                    s.def.name.to_owned(),
                    Json::obj([
                        ("value", Json::Num(s.median())),
                        ("unit", Json::from(s.def.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `.bench_tmp/<pid>-<n>` under the working directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn new() -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".bench_tmp").join(format!("{}-{n}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leaves `.bench_tmp` itself only if another run still uses it.
        let _ = fs::remove_dir(".bench_tmp");
    }
}

/// Peak resident memory of this process so far, MB (`VmHWM`). It covers
/// every workload the process has run, not only the current one.
///
/// # Errors
///
/// Fails where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One campaign repetition's checked output.
struct RepOutput {
    figure: softsnn_exp::fig13::Fig13Results,
    artifact: Vec<u8>,
    digest: u64,
    checkpoint_bytes: usize,
    status: Option<JobStatus>,
}

/// Runs one workload as `opts` asks, in `scratch`.
///
/// # Errors
///
/// Returns an error when setup fails or no campaign completes; failed
/// checks are reported in the [`Outcome`] instead.
pub fn run(opts: &Options, scratch: &Path) -> Result<Outcome, BoxError> {
    let tracer = opts
        .trace
        .then(|| Tracer::new(opts.seed ^ u64::from(std::process::id()).rotate_left(32)));
    let tr = tracer.as_ref();
    let root_attrs = || {
        vec![
            ("workload", Json::from(opts.kind.name())),
            ("seed", u64_json(opts.seed)),
        ]
    };
    let mut outcome = traced(tr, "run", None, root_attrs, |root| {
        run_traced(opts, scratch, tr, root)
    })?;
    if let Some(t) = tr {
        let spans = t.spans();
        outcome.self_times = trace::self_time_by_layer(&spans);
        outcome.trace_lines = Some(t.to_json_lines());
    }
    Ok(outcome)
}

/// Sets up one bench (data, training, engine, encoding, clean accuracy;
/// for the adaptive workload also a job submitted into a scratch
/// directory, removed again) and returns it with the time setup took.
fn timed_setup(
    opts: &Options,
    scratch: &Path,
    i: usize,
    tr: Option<&Tracer>,
    root: Option<u64>,
) -> Result<(Prepared, Took), BoxError> {
    let (kind, seed) = (opts.kind, opts.seed);
    let dir = scratch.join(format!("setup{i}"));
    let (p, took) = traced(
        tr,
        "setup",
        root,
        Vec::new,
        |setup| -> Result<_, BoxError> {
            let (p, mut took) = workload::prepare(kind, seed, tr, setup)?;
            if kind == Kind::CampaignAdaptive {
                let start = Stopwatch::start();
                workload::submit(&p, seed, &dir, tr, setup)?;
                took = took + start.read();
            }
            Ok((p, took))
        },
    )?;
    let _ = fs::remove_dir_all(&dir);
    eprintln!(
        "[e2ebench] {} setup {i}: {:.4} s wall, {:.4} s CPU",
        kind.name(),
        took.wall_s,
        took.cpu_s
    );
    Ok((p, took))
}

fn run_traced(
    opts: &Options,
    scratch: &Path,
    tr: Option<&Tracer>,
    root: Option<u64>,
) -> Result<Outcome, BoxError> {
    let (kind, seed) = (opts.kind, opts.seed);
    let mut report = Report::default();
    let mut problems = Vec::new();

    // An untraced run times the host-speed kernel before its first setup,
    // after every campaign (`kernels`) and between every setup and its
    // campaign (`mids`): setup `i` lies between `kernels[i]` and
    // `mids[i]`, campaign `i` between `mids[i]` and `kernels[i + 1]`.
    let (mut kernels, mut mids) = (Vec::new(), Vec::new());
    // End-to-end numbers are taken on one CPU: see `host`.
    let pinned = if opts.trace {
        None
    } else {
        Some(host::pin_to_one_cpu()?)
    };
    if !opts.trace {
        kernels.push(host::probe());
    }
    let start = Instant::now();
    let (prepared, took) = timed_setup(opts, scratch, 0, tr, root)?;
    let mut setups = vec![took];
    let bench = &prepared.bench;

    // Campaign repetitions. An untraced run sets up again before every
    // campaign after the first, so setup and campaign samples cover the
    // same stretch of the run and a slow spell of the host shows in both
    // alike; a traced run alternates untraced and traced campaigns so the
    // overhead compares like with like.
    let (mut attempted, mut failed) = (0_u64, 0_u64);
    let mut first: Option<RepOutput> = None;
    let mut matching_reps = 0_u64;
    let (mut untraced, mut traced_s) = (Vec::new(), Vec::new());
    for rep in 0.. {
        if rep > 0 && !opts.trace {
            let (p, took) = timed_setup(opts, scratch, rep, None, None)?;
            setups.push(took);
            if p.fingerprint != prepared.fingerprint {
                problems.push(format!("setup {rep} built a different bench than setup 0"));
            }
        }
        let rep_tr = if rep % 2 == 1 { tr } else { None };
        let dir = scratch.join(format!("rep{rep}"));
        fs::create_dir_all(&dir)?;
        let job = match kind {
            Kind::CampaignAdaptive => Some(workload::submit(&prepared, seed, &dir, None, None)?),
            Kind::Fig13Engine | Kind::Fig13Neuron => None,
        };
        if !opts.trace {
            mids.push(host::probe());
        }
        let window_start = tr.map_or(0.0, Tracer::now_s);
        let clock = Stopwatch::start();
        let result = traced(rep_tr, "campaign", root, Vec::new, |c| {
            workload::run_campaign(kind, seed, bench, &dir, job.as_ref(), rep_tr, c)
        });
        let took = clock.read();
        if !opts.trace {
            kernels.push(host::probe());
        }
        eprintln!(
            "[e2ebench] {} campaign {rep}: {:.4} s wall, {:.4} s CPU; kernels {:?} {:?} {:?}",
            kind.name(),
            took.wall_s,
            took.cpu_s,
            kernels.get(rep),
            mids.last(),
            kernels.last()
        );
        attempted += N_CELLS as u64;
        let (figure, artifact) = match result {
            Ok(out) => out,
            Err(e) => {
                failed += N_CELLS as u64;
                problems.push(format!("campaign {rep} failed: {e}"));
                let _ = fs::remove_dir_all(&dir);
                break;
            }
        };
        let (checkpoints, status) = match &job {
            Some(job) => {
                let (bytes, status) = workload::collect_job_output(job)?;
                (bytes, Some(status))
            }
            None => (Vec::new(), None),
        };
        let _ = fs::remove_dir_all(&dir);
        let digest = golden::digest(&artifact, &checkpoints);
        match rep_tr {
            None => untraced.push(took),
            Some(t) => {
                traced_s.push(took.wall_s);
                let spans: Vec<Span> = t
                    .spans()
                    .into_iter()
                    .filter(|s| s.start_s >= window_start && s.parent.is_some())
                    .collect();
                span_metrics(&spans, &mut report);
            }
        }
        match &first {
            None => {
                matching_reps = 1;
                first = Some(RepOutput {
                    figure,
                    artifact,
                    digest,
                    checkpoint_bytes: checkpoints.len(),
                    status,
                });
            }
            Some(f) if f.digest == digest => matching_reps += 1,
            Some(f) => {
                failed += N_CELLS as u64;
                problems.push(format!(
                    "campaign {rep} digest {digest} differs from campaign 0's {}",
                    f.digest
                ));
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / (rep + 1) as f64;
        let have_both = !opts.trace || (!untraced.is_empty() && !traced_s.is_empty());
        if have_both && elapsed + per_rep > opts.seconds {
            break;
        }
    }
    drop(pinned);
    let host_probe_s = (!opts.trace).then(|| {
        let all: Vec<f64> = kernels.iter().chain(&mids).copied().collect();
        metrics::quartiles(&all).1
    });
    if !opts.trace {
        // The first repetition is a warm-up (first touch of the process's
        // memory and caches) and is left out when more follow.
        let warm_up = usize::from(untraced.len() > 1);
        let scaled = |t: &Took, p: f64, q: f64| t.cpu_s * host::NOMINAL_S / ((p + q) / 2.0);
        for (i, (setup, campaign)) in setups.iter().zip(&untraced).enumerate().skip(warm_up) {
            report.push("setup_s", scaled(setup, kernels[i], mids[i]));
            report.push("campaign_s", scaled(campaign, mids[i], kernels[i + 1]));
        }
        report.push("peak_rss_mb", peak_rss_mb()?);
    }
    let first = first.ok_or("no campaign completed")?;

    // Checks on the output, outside every timed region. The repetitions
    // that matched the first share its verdict; each failing cell counts
    // once per repetition, so `failed` never exceeds `attempted`.
    let mut cell_problems = workload::shape_problems(kind, &first.figure);
    cell_problems.extend(workload::reference_mismatches(
        kind,
        seed,
        bench,
        &first.figure,
        workload::FIXED_TRIALS,
    )?);
    failed += workload::failed_cells(&cell_problems) * matching_reps;
    problems.extend(cell_problems.into_iter().map(|p| p.message));
    let census = workload::census(kind, seed, bench, &first.figure);
    let kept: usize = first.figure.cells.iter().map(|c| c.trials.len()).sum();
    let evaluated = first
        .status
        .as_ref()
        .map_or(kept, JobStatus::trials_evaluated);
    problems.extend(shape_guards(kind, &census, &first));
    let counts = vec![
        census.multi_map_cells as f64,
        census.fallback_cells as f64,
        kept as f64,
        evaluated as f64,
        census.weight_bits as f64,
        census.neuron_ops as f64,
    ];
    if opts.golden {
        let (matched, golden_problems) =
            golden::check(kind, seed, prepared.real_data, first.digest, &counts);
        if matched == Some(false) {
            failed = attempted;
        }
        problems.extend(golden_problems);
    }

    if let Some(t) = tr {
        // Per-layer numbers beyond the campaign spans.
        let setup_spans = t.spans();
        for name in [
            "data.load",
            "train.stdp",
            "encode.test_set",
            "methodology.clean",
        ] {
            let s = total(
                setup_spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(Span::duration_s),
            );
            report.push(&format!("{name}_s"), s);
        }
        probes::engine_build(bench, &mut report)?;
        problems.extend(probes::hw(kind, seed, bench, &mut report)?);
        problems.extend(probes::faults(
            kind,
            seed,
            bench,
            &first.figure,
            &census,
            &mut report,
        )?);
        for (name, value) in golden::COUNT_METRICS.iter().zip(&counts) {
            if !name.starts_with("faults.") {
                report.push(name, *value);
            }
        }
        report.push(
            "stats.waste_share",
            (evaluated - kept) as f64 / evaluated.max(1) as f64,
        );
        report.push("service.checkpoint_bytes", first.checkpoint_bytes as f64);
        let median = |v: &[f64]| metrics::quartiles(v).1;
        report.push(
            "trace.overhead_share",
            median(&traced_s) / median(&untraced.iter().map(|t| t.wall_s).collect::<Vec<_>>()) - 1.0,
        );
    }

    let correct = problems.is_empty() && failed == 0;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        report,
        problems,
        real_data: prepared.real_data,
        digest: first.digest,
        artifact: first.artifact,
        counts,
        trace_lines: None,
        self_times: BTreeMap::new(),
        host_probe_s,
    })
}

/// Loud failures for a workload that stopped measuring what it is named
/// for.
fn shape_guards(kind: Kind, census: &workload::Census, first: &RepOutput) -> Vec<String> {
    let mut problems = Vec::new();
    match kind {
        Kind::Fig13Neuron => {
            if census.weight_bits != 0 {
                problems.push(format!(
                    "shape guard: fig13_neuron drew {} weight bits; it must strike neuron ops only",
                    census.weight_bits
                ));
            }
        }
        Kind::CampaignAdaptive => {
            let stopped = first
                .status
                .as_ref()
                .map_or(0, |s| s.cells.iter().filter(|c| c.stopped_early).count());
            if stopped == 0 {
                problems.push(
                    "shape guard: campaign_adaptive stopped no cell early; the stop rule never fired"
                        .to_owned(),
                );
            }
        }
        Kind::Fig13Engine => {}
    }
    problems
}

/// Sum of durations; `+0.0` when there are none (`Iterator::sum` of no
/// `f64`s is `-0.0`).
fn total(durations: impl Iterator<Item = f64>) -> f64 {
    durations.fold(0.0, |a, b| a + b)
}

/// Per-layer metrics of one traced campaign, from its spans.
fn span_metrics(spans: &[Span], report: &mut Report) {
    let sum = |name: &str| {
        total(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_s),
        )
    };
    let cells: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "methodology.cell")
        .collect();
    let by_technique = |prefix: &str| {
        total(
            cells
                .iter()
                .filter(|s| {
                    s.attr_str("technique")
                        .is_some_and(|t| t.starts_with(prefix))
                })
                .map(|s| s.duration_s()),
        )
    };
    report.push("methodology.nomit_s", by_technique("nomit"));
    report.push("methodology.reexec_s", by_technique("reexec"));
    report.push("methodology.bnp_s", by_technique("bnp"));
    let busy = total(cells.iter().map(|s| s.duration_s()));
    let grid_wall = sum("grid.run") + sum("service.run");
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    report.push("grid.busy_s", busy);
    report.push("grid.efficiency", busy / (grid_wall * threads as f64));
    let mut per_cell: BTreeMap<(String, usize), f64> = BTreeMap::new();
    for s in &cells {
        let key = (
            s.attr_str("technique").unwrap_or_default().to_owned(),
            s.attr_usize("rate_idx").unwrap_or_default(),
        );
        *per_cell.entry(key).or_insert(0.0) += s.duration_s();
    }
    let cell_times: Vec<f64> = per_cell.into_values().collect();
    report.push("grid.cell_p50_s", metrics::quartiles(&cell_times).1);
    report.push("service.missing_cells_s", sum("service.missing_cells"));
    report.push("service.results_s", sum("service.results"));
    report.push("fig13.render_s", sum("fig13.render"));
}
