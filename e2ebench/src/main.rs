//! Command line of the end-to-end campaign benchmark.
//!
//! ```text
//! e2ebench --workload fig13_engine|fig13_neuron|campaign_adaptive|all
//!          [--seed N] [--seconds S] [--trace 0|1]
//! e2ebench --record-golden
//! ```
//!
//! Prints a table of every metric (name, unit, sample count, median and
//! quartiles), then, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and each metric's median.
//! Exits 1 on any failed check, 2 on a usage error.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use e2ebench::golden::{self, Entry, Golden};
use e2ebench::metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use e2ebench::workload::{Kind, DEFAULT_SEED};
use e2ebench::{run, Options, Outcome, Scratch};

const USAGE: &str = "usage: e2ebench --workload fig13_engine|fig13_neuron|campaign_adaptive|all \
                     [--seed N] [--seconds S] [--trace 0|1] | --record-golden";

enum Command {
    Run {
        kinds: Vec<Kind>,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    RecordGolden,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut kinds = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kinds = Some(match v.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?],
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=600".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--record-golden" => return Ok(Command::RecordGolden),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let kinds = kinds.ok_or("--workload is required")?;
    Ok(Command::Run {
        kinds,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Run {
            kinds,
            seed,
            seconds,
            trace,
        } => run_all(&kinds, seed, seconds, trace, scratch.path()),
        Command::RecordGolden => record_golden(scratch.path()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload, prints its table, and prints the result line of
/// the last one (or of all of them, metrics prefixed by workload, for
/// `--workload all`).
fn run_all(
    kinds: &[Kind],
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<bool, Box<dyn std::error::Error>> {
    let defs: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut outcomes = Vec::new();
    for &kind in kinds {
        let opts = Options {
            kind,
            seed,
            seconds,
            trace,
            golden: true,
        };
        let outcome = run(&opts, scratch)?;
        print_outcome(kind, seed, &outcome, defs);
        if let Some(lines) = &outcome.trace_lines {
            let out = Path::new(".bench_out");
            fs::create_dir_all(out)?;
            let file = out.join(format!("trace_{}_{seed}.jsonl", kind.name()));
            fs::write(&file, lines)?;
            println!("spans written to {}", file.display());
        }
        outcomes.push((kind, outcome));
    }
    let correct = outcomes.iter().all(|(_, o)| o.correct);
    let line = match outcomes.as_slice() {
        [(_, only)] => only.result_line(defs),
        many => combined_line(many, defs),
    };
    println!("{line}");
    Ok(correct)
}

fn print_outcome(kind: Kind, seed: u64, o: &Outcome, defs: &[MetricDef]) {
    println!(
        "== {} seed {seed}: {} data, digest {}",
        kind.name(),
        golden::provenance(o.real_data),
        o.digest
    );
    if let Some(p) = o.host_probe_s {
        println!(
            "host-speed kernel: median {p:.6} s CPU, nominal {} s; setup_s and campaign_s are \
             CPU times × nominal / the kernels around each (≈ × {:.6})",
            e2ebench::host::NOMINAL_S,
            e2ebench::host::NOMINAL_S / p
        );
    }
    print!("{}", Report::table(&o.report.select(defs)));
    println!(
        "{:<30} {:>6} {:>4} {:>14.6}   ({} of {} cells failed)",
        "error_rate",
        "ratio",
        1,
        o.error_rate(),
        o.failed,
        o.attempted
    );
    if !o.self_times.is_empty() {
        println!("self time by layer (s):");
        for (layer, s) in &o.self_times {
            println!("  {layer:<14} {s:>10.4}");
        }
    }
    for p in &o.problems {
        println!("FAILED CHECK: {p}");
    }
}

/// The result line of several workloads run in one process: each metric
/// prefixed by its workload, except `peak_rss_mb`, which is the peak of
/// the whole process and is given once, unprefixed.
fn combined_line(outcomes: &[(Kind, Outcome)], defs: &[MetricDef]) -> String {
    use snn_faults::codec::Json;
    const PROCESS_WIDE: &str = "peak_rss_mb";
    let entry = |name: String, s: &e2ebench::metrics::Samples| {
        (
            name,
            Json::obj([
                ("value", Json::Num(s.median())),
                ("unit", Json::from(s.def.unit)),
            ]),
        )
    };
    let mut metrics = Vec::new();
    for (kind, o) in outcomes {
        for s in o.report.select(defs) {
            if s.def.name != PROCESS_WIDE {
                metrics.push(entry(format!("{}.{}", kind.name(), s.def.name), s));
            }
        }
    }
    let last = outcomes.last().map(|(_, o)| o.report.select(defs));
    if let Some(s) = last.iter().flatten().find(|s| s.def.name == PROCESS_WIDE) {
        metrics.push(entry(PROCESS_WIDE.to_owned(), s));
    }
    Json::obj([
        (
            "correct",
            Json::Bool(outcomes.iter().all(|(_, o)| o.correct)),
        ),
        (
            "attempted",
            Json::Num(outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(outcomes.iter().map(|(_, o)| o.failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Runs every workload once at the default seed and writes their digests
/// and counts to `golden.json`, after checking that `fig13_engine`'s
/// artifact is byte-identical to the figure harness's own quick run.
fn record_golden(scratch: &Path) -> Result<bool, Box<dyn std::error::Error>> {
    let fig13_bytes = e2ebench::workload::figure_harness_artifact()?;
    let mut entries = Vec::new();
    let mut real_data = false;
    for kind in Kind::ALL {
        let opts = Options {
            kind,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            golden: false,
        };
        let outcome = run(&opts, scratch)?;
        if !outcome.correct {
            return Err(
                format!("{} failed its checks: {:?}", kind.name(), outcome.problems).into(),
            );
        }
        if kind == Kind::Fig13Engine && outcome.artifact != fig13_bytes {
            return Err(
                "fig13_engine's fig13.json differs from fig13::run at quick profile".into(),
            );
        }
        real_data = outcome.real_data;
        entries.push(Entry {
            workload: kind.name().to_owned(),
            digest: outcome.digest,
            counts: outcome.counts,
        });
    }
    let golden = Golden {
        seed: DEFAULT_SEED,
        provenance: golden::provenance(real_data).to_owned(),
        entries,
    };
    fs::write(golden::path(), golden.render())?;
    println!("recorded {}", golden::path().display());
    Ok(true)
}
