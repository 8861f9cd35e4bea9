//! Regenerates the paper's Fig. 13 accuracy comparison.
//!
//! Usage: `fig13 [--profile smoke|quick|default|full]
//! [--workload mnist|fashion|both] [--out DIR]`

use snn_data::workload::Workload;
use softsnn_exp::fig13;
use softsnn_exp::profile::CliArgs;

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload.as_deref() {
        None => Workload::ALL.to_vec(),
        Some(v) if v.eq_ignore_ascii_case("both") => Workload::ALL.to_vec(),
        Some(v) => match v.parse() {
            Ok(w) => vec![w],
            Err(_) => {
                eprintln!("unknown workload `{v}` (expected mnist|fashion|both)");
                std::process::exit(2);
            }
        },
    };
    eprintln!(
        "[fig13] profile={} workloads={:?}",
        args.profile,
        workloads.iter().map(|w| w.name()).collect::<Vec<_>>()
    );
    let results = match fig13::run_with_backend(args.profile, &workloads, args.backend) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig13 failed: {e}");
            std::process::exit(1);
        }
    };
    for (workload, n, clean) in &results.clean {
        println!("clean accuracy {workload} N{n}: {clean:.1}%");
    }
    for &workload in &workloads {
        println!("{}", fig13::accuracy_table(&results, workload).render());
    }
    println!("headline (rate 0.1): re-execution vs best BnP");
    for (workload, n, re, bnp) in fig13::headline_margins(&results) {
        println!(
            "  {workload} N{n}: re-exec {re:.1}%, best BnP {bnp:.1}% (degradation {:.1} pp)",
            re - bnp
        );
    }
    if let Err(e) = fig13::write_artifacts(&results, std::path::Path::new(&args.out_dir)) {
        eprintln!("failed to write artifacts: {e}");
        std::process::exit(1);
    }
    eprintln!("[fig13] wrote CSVs and fig13.json under {}", args.out_dir);
}
