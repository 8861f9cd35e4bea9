//! Fig. 14 — latency, energy, and area across techniques and network
//! sizes (paper Sec. 5.2), plus synthesis-style reports.

use crate::artifact::Json;
use crate::table::{fmt_f, Table};
use snn_faults::grid::GridSpec;
use snn_hw::components::EngineEnhancement;
use snn_hw::mapping::Tiling;
use snn_hw::params::EngineConfig;
use snn_hw::report::SynthesisReport;
use softsnn_core::mitigation::Technique;
use softsnn_core::overhead::{normalize_grid, overhead_for, OverheadRow, PAPER_SIZES};

/// Simulation timesteps per inference (the deployment default).
pub const TIMESTEPS: u32 = 100;

/// Results: the raw grid and paper-style normalized values.
#[derive(Debug, Clone)]
pub struct Fig14Results {
    /// One row per (technique, size).
    pub rows: Vec<OverheadRow>,
    /// `(technique, n_neurons, latency_norm, energy_norm, area_norm)`.
    pub normalized: Vec<(Technique, usize, f64, f64, f64)>,
}

/// The declarative Fig. 14 grid: techniques × network sizes (the value
/// axis carries the sizes — the grid layer's axes are shape, not
/// semantics). Cost models draw no randomness, so the seeds are unused.
pub fn grid_spec() -> GridSpec {
    GridSpec::new(
        14,
        0,
        Technique::PAPER_SET.iter().map(|t| t.id()).collect(),
        PAPER_SIZES.iter().map(|&n| n as f64).collect(),
        1,
    )
}

/// Computes the full Fig. 14 grid (pure cost models — fast at any scale),
/// one row per (technique, size) point, in the same technique-major
/// order the cost tables expect.
pub fn run() -> Fig14Results {
    let rows: Vec<OverheadRow> = grid_spec()
        .points()
        .iter()
        .map(|p| {
            overhead_for(
                Technique::PAPER_SET[p.technique_idx],
                EngineConfig::PAPER,
                784,
                p.rate as usize,
                TIMESTEPS,
            )
        })
        .collect();
    let normalized = normalize_grid(&rows);
    Fig14Results { rows, normalized }
}

/// Renders one normalized table per panel: (a) latency, (b) energy,
/// (c) area.
pub fn panel_tables(results: &Fig14Results) -> (Table, Table, Table) {
    let header: Vec<String> = std::iter::once("technique".to_owned())
        .chain(PAPER_SIZES.iter().map(|n| format!("N{n}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut lat = Table::new(
        "Fig. 14(a) — latency (normalized to N400 / No Mitigation)",
        &header_refs,
    );
    let mut energy = Table::new(
        "Fig. 14(b) — energy (normalized to N400 / No Mitigation)",
        &header_refs,
    );
    let mut area = Table::new(
        "Fig. 14(c) — area (normalized to No Mitigation)",
        &["technique", "area_ratio"],
    );
    for &technique in &Technique::PAPER_SET {
        let mut lat_row = vec![technique.name()];
        let mut energy_row = vec![technique.name()];
        for &n in &PAPER_SIZES {
            let entry = results
                .normalized
                .iter()
                .find(|(t, size, ..)| *t == technique && *size == n)
                .expect("grid covers every combination");
            lat_row.push(fmt_f(entry.2, 2));
            energy_row.push(fmt_f(entry.3, 2));
        }
        lat.row(&lat_row);
        energy.row(&energy_row);
        let area_ratio = results
            .normalized
            .iter()
            .find(|(t, size, ..)| *t == technique && *size == PAPER_SIZES[0])
            .expect("grid covers every combination")
            .4;
        area.row(&[technique.name(), fmt_f(area_ratio, 2)]);
    }
    (lat, energy, area)
}

/// Extension beyond the paper's evaluated set: the conventional
/// fault-tolerance baselines of Sec. 1.1 (SEC-DED ECC, DMR) priced on the
/// same cost models, normalized to the unprotected engine at N400.
pub fn conventional_table() -> Table {
    let mut t = Table::new(
        "Extension — conventional baselines vs BnP (normalized, N400)",
        &["technique", "latency", "energy", "area"],
    );
    for (name, lat, energy, area) in
        softsnn_core::conventional::comparison_table(784, 400, TIMESTEPS)
    {
        t.row(&[name, fmt_f(lat, 2), fmt_f(energy, 2), fmt_f(area, 2)]);
    }
    t
}

/// Generates the synthesis-style report for each technique at N400 (the
/// stand-in for the paper's Genus area/timing/power `.txt` outputs).
pub fn synthesis_reports() -> Vec<SynthesisReport> {
    let tiling = Tiling::for_network(EngineConfig::PAPER, 784, 400);
    let mut reports: Vec<SynthesisReport> = Technique::PAPER_SET
        .iter()
        .map(|t| {
            SynthesisReport::generate(EngineConfig::PAPER, &t.enhancement(), &tiling, TIMESTEPS)
        })
        .collect();
    // Also include the raw baseline engine for reference.
    reports.insert(
        0,
        SynthesisReport::generate(
            EngineConfig::PAPER,
            &EngineEnhancement::none(),
            &tiling,
            TIMESTEPS,
        ),
    );
    reports
}

/// The machine-readable `fig14.json` artifact: normalized latency /
/// energy / area per (technique, size).
pub fn to_json(results: &Fig14Results) -> Json {
    Json::obj([
        ("figure", Json::Num(14.0)),
        (
            "normalized",
            Json::Arr(
                results
                    .normalized
                    .iter()
                    .map(|&(technique, n, lat, energy, area)| {
                        Json::obj([
                            ("technique", technique.id().into()),
                            ("n_neurons", n.into()),
                            ("latency_norm", lat.into()),
                            ("energy_norm", energy.into()),
                            ("area_norm", area.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsnn_core::overhead::fig14_grid;

    /// Routing through the runner must reproduce the direct cost-model
    /// grid row for row.
    #[test]
    fn runner_grid_matches_direct_fig14_grid() {
        let direct = fig14_grid(&PAPER_SIZES, TIMESTEPS);
        assert_eq!(run().rows, direct);
    }

    #[test]
    fn grid_matches_paper_values() {
        let r = run();
        let find = |tech: Technique, n: usize| {
            r.normalized
                .iter()
                .find(|(t, size, ..)| *t == tech && *size == n)
                .copied()
                .unwrap()
        };
        // Spot-check the paper's printed bar values.
        let (_, _, lat, energy, area) = find(Technique::ReExecution { runs: 3 }, 3600);
        assert!(
            (lat - 22.5).abs() < 0.1,
            "Re-exec N3600 latency {lat} vs 22.5"
        );
        assert!((energy - 22.5).abs() < 0.1);
        assert!((area - 1.0).abs() < 1e-9);
        let (_, _, lat1, energy1, area1) = find(Technique::PAPER_SET[2], 400);
        assert!((lat1 - 1.0).abs() < 0.01, "BnP1 N400 latency {lat1} vs 1.0");
        assert!(
            (energy1 - 1.3).abs() < 0.07,
            "BnP1 N400 energy {energy1} vs 1.3"
        );
        assert!((area1 - 1.14).abs() < 0.01, "BnP1 area {area1} vs 1.14");
    }

    #[test]
    fn tables_have_five_techniques() {
        let r = run();
        let (lat, energy, area) = panel_tables(&r);
        assert_eq!(lat.len(), 5);
        assert_eq!(energy.len(), 5);
        assert_eq!(area.len(), 5);
    }

    #[test]
    fn synthesis_reports_cover_all_variants() {
        let reports = synthesis_reports();
        assert_eq!(reports.len(), 6);
        assert!(reports[0].to_string().contains("Baseline"));
    }

    #[test]
    fn json_covers_every_grid_entry() {
        let r = run();
        let json = to_json(&r).render();
        assert!(json.contains("\"latency_norm\""));
        assert_eq!(json.matches("\"technique\"").count(), r.normalized.len());
    }
}
