//! Runs every experiment end to end (Figs. 3, 9, 10, 13, 14 + ablations)
//! and prints a consolidated summary — the one-command reproduction.
//!
//! Usage: `all [--profile smoke|quick|default|full] [--out DIR]`

use snn_data::workload::Workload;
use softsnn_exp::profile::CliArgs;
use softsnn_exp::{ablation, fig10, fig13, fig14, fig3, fig9};

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let out = std::path::Path::new(&args.out_dir);
    eprintln!("[all] profile={} out={}", args.profile, args.out_dir);

    let run = || -> Result<(), Box<dyn std::error::Error>> {
        // Fig. 14 first: pure cost models, instant, no training needed.
        let f14 = fig14::run();
        let (lat, energy, area) = fig14::panel_tables(&f14);
        println!("{}\n{}\n{}", lat.render(), energy.render(), area.render());
        fig14::write_artifacts(&f14, out)?;

        let f3 = fig3::run_with_backend(args.profile, args.backend)?;
        let t3a = fig3::accuracy_table(&f3);
        let t3b = fig3::overhead_table(&f3);
        println!("{}\n{}", t3a.render(), t3b.render());
        fig3::write_artifacts(&f3, out)?;

        let f9 = fig9::run_with_backend(args.profile, args.backend)?;
        println!("{}", fig9::summary_table(&f9).render());
        fig9::write_artifacts(&f9, out)?;

        let f10 = fig10::run_with_backend(args.profile, args.backend)?;
        let t10a = fig10::per_op_table(&f10);
        let t10b = fig10::combined_table(&f10);
        println!("{}\n{}", t10a.render(), t10b.render());
        fig10::write_artifacts(&f10, out)?;

        let f13 = fig13::run_with_backend(args.profile, &Workload::ALL, args.backend)?;
        for &w in &Workload::ALL {
            println!("{}", fig13::accuracy_table(&f13, w).render());
        }
        println!("headline (rate 0.1): re-execution vs best BnP");
        for (workload, n, re, bnp) in fig13::headline_margins(&f13) {
            println!(
                "  {workload} N{n}: re-exec {re:.1}%, best BnP {bnp:.1}% (degradation {:.1} pp)",
                re - bnp
            );
        }
        fig13::write_artifacts(&f13, out)?;

        let ab = ablation::run_with_backend(args.profile, args.backend)?;
        for sweep in [&ab.window, &ab.threshold, &ab.votes] {
            println!("{}", ablation::sweep_table(sweep).render());
        }
        ablation::write_artifacts(&ab, out)?;
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("experiment run failed: {e}");
        std::process::exit(1);
    }
    eprintln!("[all] complete; artifacts under {}", args.out_dir);
}
