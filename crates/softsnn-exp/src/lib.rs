//! # softsnn-exp — experiment harness for the SoftSNN reproduction
//!
//! One module per paper figure, each exposing a `run(...)` function that
//! regenerates the figure's data and returns structured results; the
//! `fig3`/`fig9`/`fig10`/`fig13`/`fig14` binaries are thin wrappers that
//! parse a [`profile::Profile`] from the command line, run the experiment,
//! and write aligned text tables plus CSV files under `results/`.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig3`] | Fig. 3: case study — accuracy vs weight-register fault rate for two fault maps; latency/energy of re-execution |
//! | [`fig9`] | Fig. 9: clean vs faulty weight-code histograms, `wgh_max` safe range |
//! | [`fig10`] | Fig. 10: accuracy under faulty neuron operations (per type) and the full compute engine |
//! | [`fig13`] | Fig. 13: accuracy of No-Mitigation / Re-execution / BnP1-3 across sizes, rates, workloads |
//! | [`fig14`] | Fig. 14: latency / energy / area across techniques and sizes |
//! | [`ablation`] | design-choice sweeps: monitor window, `wgh_th` scaling, vote width |
//!
//! Experiments default to laptop-scale sample counts ([`profile::Profile`])
//! — pass `--profile full` for paper-scale runs. Everything is
//! deterministic from seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod artifact;
pub mod campaign;
pub mod fig10;
pub mod fig13;
pub mod fig14;
pub mod fig3;
pub mod fig9;
pub mod profile;
pub mod table;
pub mod workbench;

pub use profile::Profile;
