//! Regenerates the paper's Fig. 9 weight-distribution analysis.
//!
//! Usage: `fig9 [--profile smoke|quick|default|full] [--out DIR]`

use softsnn_exp::fig9;
use softsnn_exp::profile::CliArgs;

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!("[fig9] profile={}", args.profile);
    let results = match fig9::run_with_backend(args.profile, args.backend) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig9 failed: {e}");
            std::process::exit(1);
        }
    };
    let hist = fig9::histogram_table(&results);
    let summary = fig9::summary_table(&results);
    println!("{}", summary.render());
    println!("{}", hist.render());
    if let Err(e) = fig9::write_artifacts(&results, std::path::Path::new(&args.out_dir)) {
        eprintln!("failed to write CSVs: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[fig9] wrote {}/fig9_histograms.csv and fig9_summary.csv",
        args.out_dir
    );
}
