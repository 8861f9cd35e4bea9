//! The benchmark's metric registry, sample summaries and report printing.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of every value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by untraced runs. All lower-is-better.
pub const END_TO_END: [MetricDef; 3] = [
    m("setup_s", "s"),
    m("campaign_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [MetricDef; 29] = [
    m("data.load_s", "s"),
    m("train.stdp_s", "s"),
    m("hw.engine_build_s", "s"),
    m("encode.test_set_s", "s"),
    m("methodology.clean_s", "s"),
    m("faults.generate_s", "s"),
    m("faults.inject_s", "s"),
    m("faults.weight_bits", "count"),
    m("faults.neuron_ops", "count"),
    m("hw.heal_us", "us"),
    m("hw.batch_ms", "ms"),
    m("hw.multi_map_ms", "ms"),
    m("hw.sample_us", "us"),
    m("methodology.nomit_s", "s"),
    m("methodology.reexec_s", "s"),
    m("methodology.bnp_s", "s"),
    m("methodology.multi_map_cells", "count"),
    m("methodology.fallback_cells", "count"),
    m("grid.busy_s", "s"),
    m("grid.efficiency", "ratio"),
    m("grid.cell_p50_s", "s"),
    m("stats.trials_kept", "count"),
    m("stats.trials_evaluated", "count"),
    m("stats.waste_share", "ratio"),
    m("service.missing_cells_s", "s"),
    m("service.results_s", "s"),
    m("service.checkpoint_bytes", "bytes"),
    m("fig13.render_s", "s"),
    m("trace.overhead_share", "ratio"),
];

/// Looks a metric up by name in either registry.
pub fn def(name: &str) -> MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .copied()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not registered"))
}

/// Whether `name` follows the benchmark's naming rule: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` follows the unit rule: at most 16 characters of
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// First quartile, median and third quartile of `values`, computed
/// exactly as Python's `statistics.quantiles(values, n=4)` does (the
/// exclusive method, which extrapolates for very small samples); a
/// single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// The samples one metric collected in a run.
#[derive(Debug, Clone)]
pub struct Samples {
    /// The metric.
    pub def: MetricDef,
    /// Every sample, in collection order.
    pub values: Vec<f64>,
}

impl Samples {
    /// The median of the samples, the value the result line reports.
    pub fn median(&self) -> f64 {
        quartiles(&self.values).1
    }
}

/// Collected samples keyed by metric, in registration order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    entries: Vec<Samples>,
}

impl Report {
    /// Appends one sample to `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        let def = def(name);
        match self.entries.iter_mut().find(|s| s.def == def) {
            Some(samples) => samples.values.push(value),
            None => self.entries.push(Samples {
                def,
                values: vec![value],
            }),
        }
    }

    /// The samples of `name`, if any were collected.
    pub fn get(&self, name: &str) -> Option<&Samples> {
        self.entries.iter().find(|s| s.def.name == name)
    }

    /// Every metric of `defs` with its samples, in `defs` order.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `defs` collected no sample — each run mode
    /// must report every metric of its registry.
    pub fn select(&self, defs: &[MetricDef]) -> Vec<&Samples> {
        defs.iter()
            .map(|d| {
                self.get(d.name)
                    .unwrap_or_else(|| panic!("metric `{}` collected no sample", d.name))
            })
            .collect()
    }

    /// A human-readable table: name, unit, sample count, median and
    /// quartiles.
    pub fn table(rows: &[&Samples]) -> String {
        let mut out = format!(
            "{:<30} {:>6} {:>4} {:>14} {:>14} {:>14}\n",
            "metric", "unit", "n", "median", "q1", "q3"
        );
        for s in rows {
            let (q1, med, q3) = quartiles(&s.values);
            out.push_str(&format!(
                "{:<30} {:>6} {:>4} {:>14.6} {:>14.6} {:>14.6}\n",
                s.def.name,
                s.def.unit,
                s.values.len(),
                med,
                q1,
                q3
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
