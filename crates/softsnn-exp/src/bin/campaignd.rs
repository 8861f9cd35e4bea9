//! `campaignd` — the campaign service CLI: submit, run, resume, inspect,
//! and export checkpointed fault-injection campaigns.
//!
//! ```text
//! campaignd submit  <job> --root DIR [--workload mnist|fashion] [--size N]
//!                         [--profile smoke|quick|default|full] [--backend dense|event]
//! campaignd run     <job> --root DIR [--max-cells K] [--adaptive]
//!                         [--half-width W] [--confidence C]
//!                         [--min-trials N] [--max-trials M]
//!                         [--lookahead N|auto]
//! campaignd resume  <job> --root DIR [--adaptive ...]
//! campaignd status  <job> --root DIR
//! campaignd results <job> --root DIR [--out FILE]
//! campaignd jobs          --root DIR
//! ```
//!
//! A job is a Fig. 13-shaped grid (techniques × rates × trials) for one
//! (workload, size, profile, backend) bench. `run` checkpoints each
//! completed cell atomically under `<root>/<job>/cells/`; killing the
//! process (or passing `--max-cells`) loses nothing — `resume` rebuilds
//! the bench from `config.json` (hitting the cross-job cache), validates
//! the stored fingerprint, and re-runs exactly the missing cells. On
//! completion `fig13.json` is written into the job directory,
//! byte-identical to what the one-shot `fig13` binary emits for the same
//! configuration (the CI resume-equivalence gate diffs the two).
//!
//! `--adaptive` arms a sequential stop rule for the pass: each cell
//! consumes its pinned trial seeds in order and stops once its accuracy
//! confidence interval (at `--confidence`, default 0.8) is narrower than
//! `--half-width` accuracy points (default 10), bounded by `--min-trials`
//! (default 2) and `--max-trials` (default: the profile's trial budget).
//! Early-stopped cells checkpoint exactly the trials that ran — always a
//! bit-identical prefix of what the fixed-budget run would produce — so
//! `status`/`results` can report honestly how many trials the rule saved.
//!
//! `--lookahead` (adaptive passes only) speculatively batches trials past
//! the satisfied-check in groups of N (or an adaptive size with `auto`),
//! recovering the engine's multi-map datapath inside the decision loop.
//! Speculation changes grouping and waste only, never which trials land
//! in a checkpoint: cell files stay byte-identical across lookahead
//! settings, and `status`/`results` report speculative discards
//! separately ("evaluated E, kept R") so waste can't pose as savings.

use snn_data::workload::Workload;
use snn_faults::service::{CampaignService, JobStatus, RunOptions};
use snn_faults::stats::{Lookahead, StopRule};
use softsnn_core::methodology::EngineBackendKind;
use softsnn_exp::campaign::{self, JobConfig, JobRunOutcome};
use softsnn_exp::profile::Profile;
use softsnn_exp::{artifact, fig13};

const USAGE: &str = "usage: campaignd <submit|run|resume|status|results|jobs> [<job>] \
                     --root DIR [--workload mnist|fashion] [--size N] \
                     [--profile smoke|quick|default|full] [--backend dense|event] \
                     [--max-cells K] [--adaptive] [--half-width W] [--confidence C] \
                     [--min-trials N] [--max-trials M] [--lookahead N|auto] [--out FILE]";

struct Args {
    command: String,
    job: Option<String>,
    root: String,
    workload: Workload,
    size: Option<usize>,
    profile: Profile,
    backend: EngineBackendKind,
    max_cells: Option<usize>,
    adaptive: bool,
    half_width: f64,
    confidence: f64,
    min_trials: usize,
    max_trials: Option<usize>,
    lookahead: Lookahead,
    out: Option<String>,
}

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut it = args.into_iter();
    let command = it.next().ok_or(USAGE)?;
    let mut parsed = Args {
        command,
        job: None,
        root: "campaigns".to_owned(),
        workload: Workload::Mnist,
        size: None,
        profile: Profile::Smoke,
        backend: EngineBackendKind::Dense,
        max_cells: None,
        adaptive: false,
        half_width: 10.0,
        confidence: 0.8,
        min_trials: 2,
        max_trials: None,
        lookahead: Lookahead::default(),
        out: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => parsed.root = it.next().ok_or("--root needs a value")?,
            "--workload" => {
                parsed.workload = it.next().ok_or("--workload needs a value")?.parse()?;
            }
            "--size" => {
                let v = it.next().ok_or("--size needs a value")?;
                parsed.size = Some(v.parse().map_err(|e| format!("bad --size `{v}`: {e}"))?);
            }
            "--profile" => {
                parsed.profile = it.next().ok_or("--profile needs a value")?.parse()?;
            }
            "--backend" => {
                parsed.backend = it.next().ok_or("--backend needs a value")?.parse()?;
            }
            "--max-cells" => {
                let v = it.next().ok_or("--max-cells needs a value")?;
                parsed.max_cells = Some(
                    v.parse()
                        .map_err(|e| format!("bad --max-cells `{v}`: {e}"))?,
                );
            }
            "--adaptive" => parsed.adaptive = true,
            "--half-width" => {
                let v = it.next().ok_or("--half-width needs a value")?;
                parsed.half_width = v
                    .parse()
                    .map_err(|e| format!("bad --half-width `{v}`: {e}"))?;
            }
            "--confidence" => {
                let v = it.next().ok_or("--confidence needs a value")?;
                parsed.confidence = v
                    .parse()
                    .map_err(|e| format!("bad --confidence `{v}`: {e}"))?;
            }
            "--min-trials" => {
                let v = it.next().ok_or("--min-trials needs a value")?;
                parsed.min_trials = v
                    .parse()
                    .map_err(|e| format!("bad --min-trials `{v}`: {e}"))?;
            }
            "--max-trials" => {
                let v = it.next().ok_or("--max-trials needs a value")?;
                parsed.max_trials = Some(
                    v.parse()
                        .map_err(|e| format!("bad --max-trials `{v}`: {e}"))?,
                );
            }
            "--lookahead" => {
                let v = it.next().ok_or("--lookahead needs a value (N or `auto`)")?;
                parsed.lookahead = if v == "auto" {
                    Lookahead::Auto
                } else {
                    let k: usize = v
                        .parse()
                        .map_err(|e| format!("bad --lookahead `{v}`: {e}"))?;
                    Lookahead::Fixed(k).validated().map_err(|e| e.to_string())?
                };
            }
            "--out" => parsed.out = Some(it.next().ok_or("--out needs a value")?),
            other if parsed.job.is_none() && !other.starts_with("--") => {
                parsed.job = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`; {USAGE}")),
        }
    }
    Ok(parsed)
}

fn job_name(args: &Args) -> Result<&str, String> {
    args.job
        .as_deref()
        .ok_or_else(|| format!("`{}` needs a job name; {USAGE}", args.command))
}

/// One-line trial accounting over the checkpointed cells: trials
/// evaluated (kept + speculatively discarded), trials kept, and honest
/// savings relative to the fixed budget — waste from lookahead
/// speculation is charged against the savings, never hidden in them.
fn trials_summary(status: &JobStatus) -> String {
    let evaluated = status.trials_evaluated();
    let kept = status.trials_run();
    let saved = status.trials_saved();
    let budget = status.done_cells * status.trials_per_cell;
    if budget == 0 {
        return "trials: 0 evaluated (no cells checkpointed)".to_owned();
    }
    format!(
        "trials: evaluated {evaluated}, kept {kept} of {budget} budgeted; saved {saved} ({:.0}%)",
        100.0 * saved as f64 / budget as f64
    )
}

fn write_results(
    job: &snn_faults::service::JobHandle,
    results: &fig13::Fig13Results,
    out: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let path = out.map_or_else(|| campaign::artifact_path(job), std::path::PathBuf::from);
    artifact::write_json(&path, &fig13::to_json(results))?;
    eprintln!("[campaignd] wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = dispatch(&args) {
        eprintln!("campaignd {} failed: {e}", args.command);
        std::process::exit(1);
    }
}

fn dispatch(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let service = CampaignService::new(&args.root);
    match args.command.as_str() {
        "submit" => {
            let name = job_name(args)?;
            let config = JobConfig {
                workload: args.workload,
                n_neurons: args.size.unwrap_or(args.profile.case_study_size()),
                profile: args.profile,
                backend: args.backend,
            };
            let (job, _bench) = campaign::submit_job(&service, name, config)?;
            let status = job.status()?;
            eprintln!(
                "[campaignd] submitted `{name}`: {} cells ({} already checkpointed)",
                status.total_cells, status.done_cells
            );
            Ok(())
        }
        "run" | "resume" => {
            let name = job_name(args)?;
            // Both verbs rebuild the bench from the stored config (cache
            // hit when this process already prepared it) and re-validate
            // the fingerprint through the idempotent submit path; `run`
            // on a fresh name also accepts the submit-style flags.
            let config = match campaign::load_config(&service, name) {
                Ok(config) => config,
                Err(_) if args.command == "run" => JobConfig {
                    workload: args.workload,
                    n_neurons: args.size.unwrap_or(args.profile.case_study_size()),
                    profile: args.profile,
                    backend: args.backend,
                },
                Err(e) => return Err(Box::new(e)),
            };
            let (job, bench) = campaign::submit_job(&service, name, config)?;
            let stop_rule = if args.adaptive {
                let max_trials = args.max_trials.unwrap_or(config.profile.trials());
                Some(StopRule::new(
                    args.min_trials,
                    max_trials,
                    args.half_width,
                    args.confidence,
                )?)
            } else {
                None
            };
            let opts = RunOptions {
                max_cells: args.max_cells,
                stop_rule,
                lookahead: args.lookahead,
            };
            match campaign::run_job(&job, &bench, opts)? {
                JobRunOutcome::Complete(results) => {
                    eprintln!("[campaignd] `{name}` complete");
                    eprintln!("[campaignd] {}", trials_summary(&job.status()?));
                    write_results(&job, &results, args.out.as_deref())
                }
                JobRunOutcome::Interrupted { done, total } => {
                    eprintln!("[campaignd] `{name}` interrupted: {done}/{total} cells done");
                    eprintln!("[campaignd] {}", trials_summary(&job.status()?));
                    Ok(())
                }
            }
        }
        "status" => {
            let name = job_name(args)?;
            let job = service.open(name)?;
            let status = job.status()?;
            println!(
                "{name}: {}/{} cells checkpointed{}",
                status.done_cells,
                status.total_cells,
                if status.is_complete() {
                    " (complete)"
                } else {
                    ""
                }
            );
            println!("{}", trials_summary(&status));
            for progress in &status.cells {
                let waste = if progress.trials_evaluated > progress.trials_run {
                    format!(" ({} evaluated)", progress.trials_evaluated)
                } else {
                    String::new()
                };
                println!(
                    "  cell technique {} rate {}: {}/{} trials{waste}{}",
                    progress.key.technique_idx,
                    progress.key.rate_idx,
                    progress.trials_run,
                    status.trials_per_cell,
                    if progress.stopped_early {
                        " (stopped early)"
                    } else {
                        ""
                    }
                );
            }
            for key in &status.invalid_cells {
                println!(
                    "  invalid checkpoint: technique {} rate {} (will re-run on resume)",
                    key.technique_idx, key.rate_idx
                );
            }
            Ok(())
        }
        "results" => {
            let name = job_name(args)?;
            let config = campaign::load_config(&service, name)?;
            let bench = softsnn_exp::workbench::prepare_cached(
                config.workload,
                config.n_neurons,
                config.profile,
                config.backend,
            )?;
            let job = service.open(name)?;
            match job.results()? {
                Some(grid) => {
                    eprintln!("[campaignd] {}", trials_summary(&job.status()?));
                    let results = campaign::fig13_results(&bench, &grid);
                    write_results(&job, &results, args.out.as_deref())
                }
                None => Err(format!(
                    "job `{name}` is incomplete; run `campaignd resume {name}` first"
                )
                .into()),
            }
        }
        "jobs" => {
            for name in service.jobs()? {
                let status = service.open(&name).and_then(|job| job.status());
                match status {
                    Ok(s) => println!("{name}: {}/{} cells", s.done_cells, s.total_cells),
                    Err(e) => println!("{name}: unreadable ({e})"),
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; {USAGE}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsnn_exp::profile::CliArgs;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_round_trip_and_both_parsers_agree() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse::<Workload>(), Ok(w));
            assert_eq!(w.name().to_uppercase().parse::<Workload>(), Ok(w));
        }
        for k in EngineBackendKind::ALL {
            assert_eq!(k.name().parse::<EngineBackendKind>(), Ok(k));
            assert_eq!(k.name().to_uppercase().parse::<EngineBackendKind>(), Ok(k));
        }
        // campaignd and the figure binaries share one name table: the
        // same spellings parse and the same bad value fails in both.
        let daemon = parse_args(args(&["submit", "j", "--backend", "EVENT"])).unwrap();
        let figure = CliArgs::parse(args(&["--backend", "EVENT"])).unwrap();
        assert_eq!(daemon.backend, EngineBackendKind::Event);
        assert_eq!(daemon.backend, figure.backend);
        let daemon = parse_args(args(&["submit", "j", "--backend", "gpu"]))
            .err()
            .expect("campaignd rejects it");
        let figure = CliArgs::parse(args(&["--backend", "gpu"])).unwrap_err();
        assert_eq!(daemon, figure);
        assert!(parse_args(args(&["submit", "j", "--workload", "cifar"])).is_err());
    }
}
