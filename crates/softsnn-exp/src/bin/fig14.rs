//! Regenerates the paper's Fig. 14 overhead comparison and the
//! synthesis-style reports (cost models only — runs in milliseconds).
//!
//! Usage: `fig14 [--out DIR]`

use softsnn_exp::fig14;
use softsnn_exp::profile::CliArgs;

fn main() {
    let args = match CliArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let results = fig14::run();
    let (lat, energy, area) = fig14::panel_tables(&results);
    println!("{}", lat.render());
    println!("{}", energy.render());
    println!("{}", area.render());
    println!("{}", fig14::conventional_table().render());
    if let Err(e) = fig14::write_artifacts(&results, std::path::Path::new(&args.out_dir)) {
        eprintln!("failed to write artifacts: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[fig14] wrote fig14a/b/c CSVs and synthesis_reports.txt under {}",
        args.out_dir
    );
}
