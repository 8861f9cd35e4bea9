//! Regenerates the paper's Fig. 10 neuron-operation fault study.
//!
//! Usage: `fig10 [--profile smoke|quick|default|full] [--out DIR]`

use softsnn_exp::fig10;
use softsnn_exp::profile::CliArgs;

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!("[fig10] profile={}", args.profile);
    let results = match fig10::run_with_backend(args.profile, args.backend) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig10 failed: {e}");
            std::process::exit(1);
        }
    };
    let per_op = fig10::per_op_table(&results);
    let combined = fig10::combined_table(&results);
    println!("clean accuracy: {:.1}%", results.clean_accuracy_pct);
    println!("{}", per_op.render());
    println!("{}", combined.render());
    if let Err(e) = fig10::write_artifacts(&results, std::path::Path::new(&args.out_dir)) {
        eprintln!("failed to write artifacts: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[fig10] wrote {}/fig10a_neuron_ops.csv, fig10b_compute_engine.csv, and fig10.json",
        args.out_dir
    );
}
