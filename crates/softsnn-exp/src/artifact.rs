//! Machine-readable JSON artifacts for the figure harness.
//!
//! The printed tables and CSVs are for humans; downstream tooling (plot
//! scripts, regression dashboards) wants the aggregated grid cells as
//! structured data. The workspace vendors no serde; the [`Json`] value
//! tree (and its parser) lives in [`snn_faults::codec`] — shared with the
//! campaign service's checkpoint files, so one emitter covers both — and
//! is re-exported here for the figure harness.

pub use snn_faults::codec::{Json, JsonCodec, JsonError};

use snn_faults::grid::Aggregate;
use snn_faults::service::{write_atomic, ServiceError};
use std::path::Path;

/// One aggregated grid cell as a JSON object — the shared shape every
/// `figN.json` artifact builds its cell arrays from.
pub fn cell_json(cell: &Aggregate) -> Json {
    Json::obj([
        ("technique", Json::Str(cell.technique.clone())),
        ("technique_idx", cell.key.technique_idx.into()),
        ("rate", cell.rate.into()),
        ("rate_idx", cell.key.rate_idx.into()),
        ("mean", cell.mean.into()),
        ("std_dev", cell.std_dev.into()),
        ("trials_run", cell.trials_run.into()),
        ("stopped_early", Json::Bool(cell.stopped_early)),
        ("trials", Json::arr(cell.trials.iter().copied())),
    ])
}

/// Writes `json` (plus a trailing newline) to `path` through
/// [`write_atomic`], so a crash mid-write never leaves a torn file.
///
/// # Errors
///
/// Returns [`ServiceError::Io`] from creating or writing the file.
pub fn write_json<P: AsRef<Path>>(path: P, json: &Json) -> Result<(), ServiceError> {
    write_atomic(path.as_ref(), &json.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_faults::grid::CellKey;

    /// A minimal JSON well-formedness scanner: enough to catch an
    /// emitter that forgets a comma, quote, or brace.
    fn check_balanced(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escape = false;
        for c in s.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
        assert!(!in_str, "unterminated string: {s}");
    }

    #[test]
    fn renders_scalars_arrays_and_objects() {
        let j = Json::obj([
            ("a", Json::Num(62.5)),
            ("b", Json::arr([1.0_f64, 2.0])),
            ("c", Json::Str("x".into())),
            ("d", Json::Bool(true)),
            ("e", Json::Null),
        ]);
        let s = j.render();
        assert_eq!(s, r#"{"a":62.5,"b":[1,2],"c":"x","d":true,"e":null}"#);
        check_balanced(&s);
    }

    #[test]
    fn escapes_strings_and_guards_non_finite_numbers() {
        let s = Json::obj([
            ("q", Json::Str("he said \"hi\"\n\\".into())),
            ("nan", Json::Num(f64::NAN)),
            ("inf", Json::Num(f64::INFINITY)),
        ])
        .render();
        assert_eq!(s, r#"{"q":"he said \"hi\"\n\\","nan":null,"inf":null}"#);
        check_balanced(&s);
    }

    #[test]
    fn cell_json_carries_every_aggregate_field() {
        let cell = Aggregate {
            key: CellKey {
                technique_idx: 2,
                rate_idx: 1,
            },
            technique: "bnp3".into(),
            rate: 0.1,
            mean: 55.25,
            std_dev: 1.5,
            trials_run: 2,
            stopped_early: true,
            trials: vec![54.0, 56.5],
        };
        let s = cell_json(&cell).render();
        check_balanced(&s);
        for needle in [
            r#""technique":"bnp3""#,
            r#""technique_idx":2"#,
            r#""rate":0.1"#,
            r#""mean":55.25"#,
            r#""std_dev":1.5"#,
            r#""trials_run":2"#,
            r#""stopped_early":true"#,
            r#""trials":[54,56.5]"#,
        ] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }

    #[test]
    fn write_json_creates_parents_and_appends_newline() {
        let dir = std::env::temp_dir().join(format!("softsnn_json_{}", std::process::id()));
        let path = dir.join("nested").join("x.json");
        write_json(&path, &Json::arr([1.0_f64])).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[1]\n");
        // The tmp file the write went through was renamed into place.
        let entries = std::fs::read_dir(dir.join("nested")).unwrap().count();
        assert_eq!(entries, 1, "no tmp file left beside x.json");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
