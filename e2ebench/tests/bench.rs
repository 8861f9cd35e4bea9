//! The benchmark's own tests: metric names, and a short run of every
//! workload at the default seed against the recorded golden outputs.
//!
//! Run from this directory with `cargo test --release`.

use e2ebench::metrics::{self, END_TO_END, PER_LAYER};
use e2ebench::workload::{figure_harness_artifact, Kind, DEFAULT_SEED};
use e2ebench::{run, Options, Outcome, Scratch};
use snn_faults::codec::Json;

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, key: &str) -> Vec<(String, String)> {
    json.arr_field(key)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.str_field("name").unwrap().to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
            )
        })
        .collect()
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let json = benchmark_json();
    for (key, registry) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = names(&json, key);
        let ours: Vec<(String, String)> = registry
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect();
        assert_eq!(
            listed, ours,
            "{key} in BENCHMARK.json disagrees with the registry"
        );
        for d in registry {
            assert!(metrics::valid_name(d.name), "bad metric name {}", d.name);
            assert!(metrics::valid_unit(d.unit), "bad unit {}", d.unit);
        }
    }
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "metric names must be unique");
    let workloads: Vec<String> = names(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<&str> = Kind::LISTED.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, ours);
    assert!(!metrics::valid_name("_leading_underscore"));
    assert!(!metrics::valid_name("has space"));
    assert!(!metrics::valid_unit("way-too-long-a-unit"));
}

fn short_run(kind: Kind, trace: bool) -> Outcome {
    let scratch = Scratch::new().unwrap();
    let opts = Options {
        kind,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        golden: true,
    };
    let outcome = run(&opts, scratch.path()).unwrap();
    assert!(outcome.correct, "{}: {:?}", kind.name(), outcome.problems);
    assert_eq!(outcome.failed, 0);
    let defs = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = Json::parse(&outcome.result_line(defs)).unwrap();
    let metrics = line.field("metrics").unwrap();
    for d in defs {
        let value = metrics.field(d.name).unwrap().f64_field("value").unwrap();
        assert!(value.is_finite(), "{} is {value}", d.name);
    }
    outcome
}

#[test]
fn fig13_engine_short_run_matches_golden_and_the_figure_harness() {
    let outcome = short_run(Kind::Fig13Engine, false);
    assert_eq!(outcome.artifact, figure_harness_artifact().unwrap());
}

#[test]
fn fig13_neuron_short_traced_run_reports_every_layer() {
    let outcome = short_run(Kind::Fig13Neuron, true);
    let get = |name: &str| outcome.report.get(name).unwrap().median();
    assert_eq!(get("faults.weight_bits"), 0.0);
    assert_eq!(get("methodology.multi_map_cells"), 16.0);
    assert!(outcome
        .trace_lines
        .as_ref()
        .is_some_and(|l| l.lines().count() > 20));
}

#[test]
fn campaign_adaptive_short_run_matches_golden() {
    let outcome = short_run(Kind::CampaignAdaptive, false);
    assert_eq!(outcome.counts[2], 140.0, "trials kept");
    assert_eq!(outcome.counts[3], 140.0, "trials evaluated");
}
