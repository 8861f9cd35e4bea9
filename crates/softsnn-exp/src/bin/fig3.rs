//! Regenerates the paper's Fig. 3 case study.
//!
//! Usage: `fig3 [--profile smoke|quick|default|full] [--out DIR]`

use softsnn_exp::profile::CliArgs;
use softsnn_exp::{fig3, table::fmt_f};

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!("[fig3] profile={}", args.profile);
    let results = match fig3::run_with_backend(args.profile, args.backend) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig3 failed: {e}");
            std::process::exit(1);
        }
    };
    println!("clean accuracy: {}%", fmt_f(results.clean_accuracy_pct, 1));
    let acc = fig3::accuracy_table(&results);
    let over = fig3::overhead_table(&results);
    println!("{}", acc.render());
    println!("{}", over.render());
    if let Err(e) = fig3::write_artifacts(&results, std::path::Path::new(&args.out_dir)) {
        eprintln!("failed to write CSVs: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[fig3] wrote {}/fig3a_accuracy.csv and fig3b_overheads.csv",
        args.out_dir
    );
}
