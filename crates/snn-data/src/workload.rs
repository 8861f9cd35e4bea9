//! Workload selection: the paper's two benchmarks.

use crate::dataset::{DataError, Dataset};
use crate::idx;
use crate::synth_digits::SynthDigits;
use crate::synth_fashion::SynthFashion;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// The two workloads of the paper's evaluation (Sec. 4).
///
/// Each can be materialized either from the real IDX files (when present)
/// or from the deterministic synthetic generators.
///
/// # Examples
///
/// ```
/// use snn_data::workload::Workload;
///
/// let (train, test) = Workload::Mnist.generate(100, 20, 7);
/// assert_eq!(train.len(), 100);
/// assert_eq!(test.len(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// MNIST (or the MNIST-like [`SynthDigits`] substitute).
    Mnist,
    /// Fashion-MNIST (or the [`SynthFashion`] substitute).
    FashionMnist,
}

impl Workload {
    /// All workloads, in the paper's presentation order.
    pub const ALL: [Workload; 2] = [Workload::Mnist, Workload::FashionMnist];

    /// Short name used in result tables and file names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mnist => "mnist",
            Workload::FashionMnist => "fashion",
        }
    }

    /// Generates synthetic train/test sets deterministically from `seed`.
    ///
    /// The test set uses a derived seed so it never overlaps the training
    /// noise stream.
    pub fn generate(self, n_train: usize, n_test: usize, seed: u64) -> (Dataset, Dataset) {
        let test_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        match self {
            Workload::Mnist => {
                let gen = SynthDigits::default();
                (gen.generate(n_train, seed), gen.generate(n_test, test_seed))
            }
            Workload::FashionMnist => {
                let gen = SynthFashion::default();
                (gen.generate(n_train, seed), gen.generate(n_test, test_seed))
            }
        }
    }

    /// Loads the real dataset from `dir` if the canonical IDX files exist,
    /// otherwise falls back to [`Workload::generate`]. Returns the datasets
    /// truncated to the requested sizes and a flag telling whether real
    /// data was used.
    ///
    /// # Errors
    ///
    /// Returns an error only if IDX files exist but are malformed.
    pub fn load_or_generate<P: AsRef<Path>>(
        self,
        dir: P,
        n_train: usize,
        n_test: usize,
        seed: u64,
    ) -> Result<(Dataset, Dataset, bool), DataError> {
        let sub = dir.as_ref().join(self.name());
        if let Some((train, test)) = idx::try_load_dir(&sub, 10)? {
            return Ok((train.take(n_train), test.take(n_test), true));
        }
        let (train, test) = self.generate(n_train, n_test, seed);
        Ok((train, test, false))
    }
}

impl FromStr for Workload {
    type Err = String;

    /// Parses a [`name`](Workload::name), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.to_ascii_lowercase();
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (expected mnist|fashion)"))
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Mnist => "MNIST",
            Workload::FashionMnist => "Fashion-MNIST",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Workload::Mnist.name(), "mnist");
        assert_eq!(Workload::FashionMnist.name(), "fashion");
        assert_eq!(Workload::Mnist.to_string(), "MNIST");
    }

    #[test]
    fn generate_respects_counts() {
        let (train, test) = Workload::FashionMnist.generate(33, 11, 5);
        assert_eq!(train.len(), 33);
        assert_eq!(test.len(), 11);
    }

    #[test]
    fn train_and_test_differ() {
        let (train, test) = Workload::Mnist.generate(10, 10, 5);
        assert_ne!(train.images()[0], test.images()[0]);
    }

    #[test]
    fn load_or_generate_falls_back_to_synthetic() {
        let dir = std::env::temp_dir().join("snn_no_real_data_here");
        let (train, _test, real) = Workload::Mnist.load_or_generate(&dir, 12, 4, 1).unwrap();
        assert!(!real);
        assert_eq!(train.len(), 12);
    }
}
