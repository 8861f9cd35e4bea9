//! Golden outputs: the digest of each workload's result bits and its
//! exact counts at [`DEFAULT_SEED`](crate::workload::DEFAULT_SEED), recorded for this commit in
//! `golden.json` next to the manifest and compiled into the binary.

use snn_faults::codec::{u64_json, Json, JsonError};
use softsnn_core::fingerprint::Fnv1a;

use crate::workload::Kind;

/// The recorded file, as built into the binary.
pub const RECORDED: &str = include_str!("../golden.json");

/// Where `--record-golden` writes the file.
pub fn path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// Counts that repeat exactly across runs at one seed, by metric name.
pub const COUNT_METRICS: [&str; 6] = [
    "methodology.multi_map_cells",
    "methodology.fallback_cells",
    "stats.trials_kept",
    "stats.trials_evaluated",
    "faults.weight_bits",
    "faults.neuron_ops",
];

/// One workload's golden output.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Workload name.
    pub workload: String,
    /// [`digest`] of its result bits.
    pub digest: u64,
    /// Values of [`COUNT_METRICS`], in that order.
    pub counts: Vec<f64>,
}

/// The golden file.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// The seed the entries were recorded at.
    pub seed: u64,
    /// `"synthetic"` or `"idx"`: where the training and test data came
    /// from. Runs of different provenance are never compared.
    pub provenance: String,
    /// One entry per workload.
    pub entries: Vec<Entry>,
}

/// The provenance label of a run.
pub fn provenance(real_data: bool) -> &'static str {
    if real_data {
        "idx"
    } else {
        "synthetic"
    }
}

/// FNV-1a over the `fig13.json` bytes, then any checkpoint bytes.
pub fn digest(artifact: &[u8], checkpoints: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(artifact);
    h.write_bytes(checkpoints);
    h.finish()
}

impl Golden {
    /// Parses a golden file.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on a malformed file.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let json = Json::parse(text)?;
        let mut entries = Vec::new();
        for e in json.arr_field("workloads")? {
            let counts = e.field("counts")?;
            entries.push(Entry {
                workload: e.str_field("workload")?.to_owned(),
                digest: e.u64_str_field("digest")?,
                counts: COUNT_METRICS
                    .iter()
                    .map(|name| counts.f64_field(name))
                    .collect::<Result<_, _>>()?,
            });
        }
        Ok(Self {
            seed: json.u64_str_field("seed")?,
            provenance: json.str_field("provenance")?.to_owned(),
            entries,
        })
    }

    /// Renders the file, one workload per line.
    pub fn render(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let counts = Json::Obj(
                    COUNT_METRICS
                        .iter()
                        .zip(&e.counts)
                        .map(|(name, &v)| ((*name).to_owned(), Json::Num(v)))
                        .collect(),
                );
                Json::obj([
                    ("workload", Json::from(e.workload.as_str())),
                    ("digest", u64_json(e.digest)),
                    ("counts", counts),
                ])
                .render()
            })
            .collect();
        format!(
            "{{\"seed\":{},\"provenance\":{},\"workloads\":[\n  {}\n]}}\n",
            u64_json(self.seed).render(),
            Json::from(self.provenance.as_str()).render(),
            entries.join(",\n  ")
        )
    }

    /// The entry of `kind`, if recorded.
    pub fn entry(&self, kind: Kind) -> Option<&Entry> {
        self.entries.iter().find(|e| e.workload == kind.name())
    }
}

/// Compares a run's digest and counts with the recorded golden entry.
/// Applies only at the recorded seed; returns the problems found, and
/// whether the digest matched (`None` when no comparison applies).
///
/// # Panics
///
/// Panics if the compiled-in golden file is malformed.
pub fn check(
    kind: Kind,
    seed: u64,
    real_data: bool,
    digest: u64,
    counts: &[f64],
) -> (Option<bool>, Vec<String>) {
    let golden = Golden::parse(RECORDED).expect("golden.json is well-formed");
    if seed != golden.seed {
        return (None, Vec::new());
    }
    let ours = provenance(real_data);
    if ours != golden.provenance {
        return (
            None,
            vec![format!(
                "refusing to compare a {ours} run with golden outputs recorded on {} data",
                golden.provenance
            )],
        );
    }
    let Some(entry) = golden.entry(kind) else {
        return (
            None,
            vec![format!("no golden output recorded for {}", kind.name())],
        );
    };
    let mut problems = Vec::new();
    let matched = entry.digest == digest;
    if !matched {
        problems.push(format!(
            "digest {digest} differs from the golden {}",
            entry.digest
        ));
    }
    for ((name, &want), &got) in COUNT_METRICS.iter().zip(&entry.counts).zip(counts) {
        if want != got {
            problems.push(format!("{name} is {got}, golden {want}"));
        }
    }
    (Some(matched), problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::DEFAULT_SEED;

    #[test]
    fn golden_round_trips() {
        let g = Golden {
            seed: u64::MAX,
            provenance: "synthetic".into(),
            entries: vec![Entry {
                workload: "fig13_engine".into(),
                digest: 0xDEAD_BEEF_0123_4567,
                counts: vec![0.0, 20.0, 60.0, 60.0, 123.0, 45.0],
            }],
        };
        assert_eq!(Golden::parse(&g.render()).unwrap(), g);
    }

    #[test]
    fn recorded_file_parses_and_covers_every_workload() {
        let g = Golden::parse(RECORDED).unwrap();
        assert_eq!(g.seed, DEFAULT_SEED);
        for kind in Kind::ALL {
            assert!(g.entry(kind).is_some(), "{} missing", kind.name());
        }
    }
}
