//! Assertions that the reproduction matches the paper's published
//! numbers/shapes wherever they are deterministic (the hardware cost
//! models of Figs. 3b and 14).

use softsnn::core::mitigation::Technique;
use softsnn::core::overhead::{fig14_grid, normalize_grid, PAPER_SIZES};
use softsnn::hw::mapping::Tiling;
use softsnn::hw::params::EngineConfig;
use softsnn::prelude::BnpVariant;

fn lookup(
    norm: &[(Technique, usize, f64, f64, f64)],
    technique: Technique,
    n: usize,
) -> (f64, f64, f64) {
    let row = norm
        .iter()
        .find(|(t, size, ..)| *t == technique && *size == n)
        .expect("grid covers combination");
    (row.2, row.3, row.4)
}

#[test]
fn fig14a_latency_bars_match_paper() {
    let norm = normalize_grid(&fig14_grid(&PAPER_SIZES, 100));
    // Paper bar labels: NoMit 1.0/2.0/3.5/5.0/7.5; ReExec 3.0/6.0/10.5/
    // 15.0/22.5; BnP1 = NoMit; BnP2/3 ~ 1.06x NoMit (printed 1.1/2.1/3.7/
    // 5.3/7.9).
    let nomit = [1.0, 2.0, 3.5, 5.0, 7.5];
    for (i, &n) in PAPER_SIZES.iter().enumerate() {
        let (lat, ..) = lookup(&norm, Technique::NoMitigation, n);
        assert!((lat - nomit[i]).abs() < 0.01, "NoMit N{n}: {lat}");
        let (lat_re, ..) = lookup(&norm, Technique::ReExecution { runs: 3 }, n);
        assert!(
            (lat_re - 3.0 * nomit[i]).abs() < 0.03,
            "ReExec N{n}: {lat_re}"
        );
        let (lat_b1, ..) = lookup(&norm, Technique::Bnp(BnpVariant::Bnp1), n);
        assert!((lat_b1 - nomit[i]).abs() < 0.01, "BnP1 N{n}: {lat_b1}");
        let (lat_b2, ..) = lookup(&norm, Technique::Bnp(BnpVariant::Bnp2), n);
        let paper_b2 = [1.1, 2.1, 3.7, 5.3, 7.9][i];
        assert!(
            (lat_b2 - paper_b2).abs() < 0.06,
            "BnP2 N{n}: {lat_b2} vs paper {paper_b2}"
        );
    }
}

#[test]
fn fig14b_energy_bars_match_paper() {
    let norm = normalize_grid(&fig14_grid(&PAPER_SIZES, 100));
    let paper_bnp1 = [1.3, 2.6, 4.5, 6.4, 9.6];
    let paper_bnp23 = [1.6, 3.1, 5.5, 7.8, 11.7];
    for (i, &n) in PAPER_SIZES.iter().enumerate() {
        let (_, e1, _) = lookup(&norm, Technique::Bnp(BnpVariant::Bnp1), n);
        assert!(
            (e1 - paper_bnp1[i]).abs() / paper_bnp1[i] < 0.06,
            "BnP1 energy N{n}: {e1} vs paper {}",
            paper_bnp1[i]
        );
        for v in [BnpVariant::Bnp2, BnpVariant::Bnp3] {
            let (_, e, _) = lookup(&norm, Technique::Bnp(v), n);
            assert!(
                (e - paper_bnp23[i]).abs() / paper_bnp23[i] < 0.06,
                "{v} energy N{n}: {e} vs paper {}",
                paper_bnp23[i]
            );
        }
    }
}

#[test]
fn fig14c_area_bars_match_paper() {
    let norm = normalize_grid(&fig14_grid(&[400], 100));
    let paper = [
        (Technique::NoMitigation, 1.00),
        (Technique::ReExecution { runs: 3 }, 1.00),
        (Technique::Bnp(BnpVariant::Bnp1), 1.14),
        (Technique::Bnp(BnpVariant::Bnp2), 1.18),
        (Technique::Bnp(BnpVariant::Bnp3), 1.18),
    ];
    for (technique, expected) in paper {
        let (.., area) = lookup(&norm, technique, 400);
        assert!(
            (area - expected).abs() < 0.01,
            "{technique} area {area} vs paper {expected}"
        );
    }
}

#[test]
fn headline_savings_match_abstract() {
    // "reducing latency and energy by up to 3x and 2.3x respectively, as
    // compared to the re-execution technique" (for N900 at rate 0.1, but
    // the ratios hold across sizes).
    let norm = normalize_grid(&fig14_grid(&PAPER_SIZES, 100));
    let (lat_re, e_re, _) = lookup(&norm, Technique::ReExecution { runs: 3 }, 900);
    let (lat_b1, e_b1, _) = lookup(&norm, Technique::Bnp(BnpVariant::Bnp1), 900);
    let lat_saving = lat_re / lat_b1;
    let energy_saving = e_re / e_b1;
    assert!(
        (2.9..=3.1).contains(&lat_saving),
        "latency saving {lat_saving} vs paper 3x"
    );
    assert!(
        (2.2..=2.4).contains(&energy_saving),
        "energy saving {energy_saving} vs paper 2.3x"
    );
}

#[test]
fn tiling_ladder_is_the_paper_ladder() {
    let base = Tiling::for_network(EngineConfig::PAPER, 784, 400).passes_per_timestep() as f64;
    let expected = [
        (400, 1.0),
        (900, 2.0),
        (1600, 3.5),
        (2500, 5.0),
        (3600, 7.5),
    ];
    for (n, e) in expected {
        let r =
            Tiling::for_network(EngineConfig::PAPER, 784, n).passes_per_timestep() as f64 / base;
        assert!((r - e).abs() < 1e-9, "N{n}: {r} vs {e}");
    }
}
