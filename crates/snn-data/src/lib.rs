//! # snn-data — workloads for the SoftSNN experiments
//!
//! The paper evaluates on MNIST and Fashion-MNIST. Those datasets cannot be
//! redistributed inside this repository, so this crate provides:
//!
//! * [`synth_digits`] — a deterministic, seeded generator of MNIST-like
//!   28×28 grayscale digit images (stroke-rendered glyphs with per-sample
//!   jitter, translation, and noise), and
//! * [`synth_fashion`] — a Fashion-MNIST-like generator of textured garment
//!   silhouettes with deliberately higher class overlap (the paper's
//!   Fashion-MNIST accuracies are visibly lower than its MNIST ones), and
//! * [`idx`] — a reader/writer for the real IDX (`*-ubyte`) files, so the
//!   genuine datasets are used automatically when present on disk.
//!
//! The paper itself argues (Sec. 3.1, footnote 3) that the fault-tolerance
//! analysis is workload-agnostic as long as inputs share the same rate
//! coding and STDP keeps weights in the same positive range — which these
//! generators preserve.
//!
//! ```
//! use snn_data::synth_digits::SynthDigits;
//!
//! let data = SynthDigits::default().generate(100, 42);
//! assert_eq!(data.len(), 100);
//! assert_eq!(data.image(0).len(), 28 * 28);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod idx;
pub mod synth_digits;
pub mod synth_fashion;
pub mod transform;
pub mod workload;

pub use dataset::Dataset;
pub use synth_digits::SynthDigits;
pub use synth_fashion::SynthFashion;
pub use workload::Workload;
