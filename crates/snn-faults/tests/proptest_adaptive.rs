//! Property tests for adaptive (sequential early stopping) campaign
//! grids: whatever the stop rule, an adaptive cell must be a
//! **bit-identical prefix** of the fixed-budget run over the same pinned
//! seed stream — early stopping changes how many trials run, never which
//! trials they are.

use proptest::prelude::*;
use snn_faults::grid::{CellPolicy, GridPointCtx, GridResults, GridRunner, GridSpec};
use snn_faults::service::{CampaignService, RunOptions, RunOutcome};
use snn_faults::stats::{Lookahead, StopRule};
use std::convert::Infallible;

/// Deterministic synthetic evaluation: accuracy in [0, 100) derived from
/// the point's pinned seed alone, so any seed-order drift in the adaptive
/// path changes the observed bits.
fn eval(_: &mut (), points: &[GridPointCtx]) -> Result<Vec<f64>, Infallible> {
    Ok(points
        .iter()
        .map(|p| (p.seed % 997) as f64 / 997.0 * 100.0)
        .collect())
}

fn spec_for(base_seed: u64, n_techniques: usize, n_rates: usize, trials: usize) -> GridSpec {
    GridSpec::new(
        17,
        base_seed,
        (0..n_techniques).map(|t| format!("t{t}")).collect(),
        (1..=n_rates).map(|r| r as f64 / 10.0).collect(),
        trials,
    )
}

/// A runner over `spec` under `rule` and `lookahead`.
fn adaptive(spec: &GridSpec, rule: StopRule, lookahead: Lookahead) -> GridRunner {
    let policy = CellPolicy::new(Some(rule), lookahead, spec.trials).unwrap();
    GridRunner::new(spec.clone()).with_policy(policy)
}

/// The fixed-budget reference, computed straight from the pinned points.
fn reference(spec: &GridSpec) -> GridResults {
    let values: Vec<f64> = spec
        .points()
        .iter()
        .map(|p| (p.seed % 997) as f64 / 997.0 * 100.0)
        .collect();
    GridResults::aggregate(spec, &values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every randomized stop rule yields cells whose trials are exact
    /// bit-level prefixes of the fixed run's, with trial counts honestly
    /// bounded by the rule.
    #[test]
    fn adaptive_cells_are_bit_identical_prefixes_of_the_fixed_run(
        base_seed in any::<u64>(),
        n_techniques in 1_usize..4,
        n_rates in 1_usize..4,
        trials in 2_usize..9,
        min_frac in 0.0_f64..1.0,
        max_frac in 0.0_f64..1.0,
        half_width in 0.0_f64..40.0,
        confidence in 0.5_f64..0.95,
    ) {
        let min_trials = 2 + (min_frac * (trials - 2) as f64) as usize;
        let max_trials = (min_trials
            + (max_frac * (trials - min_trials) as f64) as usize)
            .min(trials);
        let rule = StopRule::new(min_trials, max_trials, half_width, confidence).unwrap();
        let spec = spec_for(base_seed, n_techniques, n_rates, trials);
        let fixed = reference(&spec);
        let adaptive = adaptive(&spec, rule, Lookahead::default())
            .run_grouped(&(), eval)
            .unwrap();
        prop_assert_eq!(adaptive.cells().len(), fixed.cells().len());
        for (cell, full) in adaptive.cells().iter().zip(fixed.cells()) {
            prop_assert!(cell.trials_run >= min_trials.min(trials));
            prop_assert!(cell.trials_run <= max_trials);
            prop_assert_eq!(cell.stopped_early, cell.trials_run < trials);
            prop_assert_eq!(cell.trials.len(), cell.trials_run);
            for (i, (a, f)) in cell.trials.iter().zip(&full.trials).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    f.to_bits(),
                    "cell {:?} trial {} diverged from the fixed-run prefix",
                    cell.key,
                    i
                );
            }
        }
    }

    /// `half_width = 0` can never be satisfied (both confidence bounds
    /// are strictly positive), so the adaptive runner degenerates to the
    /// fixed run exactly — same trials, same aggregates, same bits.
    #[test]
    fn zero_half_width_degenerates_to_the_fixed_run(
        base_seed in any::<u64>(),
        trials in 2_usize..7,
        confidence in 0.5_f64..0.95,
    ) {
        let rule = StopRule::new(2, trials, 0.0, confidence).unwrap();
        let spec = spec_for(base_seed, 2, 2, trials);
        let fixed = reference(&spec);
        let adaptive = adaptive(&spec, rule, Lookahead::default())
            .run_grouped(&(), eval)
            .unwrap();
        prop_assert_eq!(&adaptive, &fixed);
        for cell in adaptive.cells() {
            prop_assert_eq!(cell.trials_run, trials);
            prop_assert!(!cell.stopped_early);
        }
    }

    /// Tentpole invariant, property-tested: for every randomized stop
    /// rule and ragged cell shape, lookahead-batched adaptive execution
    /// is bit-identical to trial-at-a-time — per-cell trial bits, trial
    /// counts, and full aggregates — across Fixed(1)/Fixed(3)/Fixed(16)/
    /// Auto, and the evaluated count never undercounts the kept prefix.
    #[test]
    fn lookahead_batched_adaptive_is_bit_identical_to_trial_at_a_time(
        base_seed in any::<u64>(),
        n_techniques in 1_usize..4,
        n_rates in 1_usize..4,
        trials in 2_usize..9,
        min_frac in 0.0_f64..1.0,
        max_frac in 0.0_f64..1.0,
        half_width in 0.0_f64..40.0,
        confidence in 0.5_f64..0.95,
        lookahead_idx in 0_usize..4,
    ) {
        let min_trials = 2 + (min_frac * (trials - 2) as f64) as usize;
        let max_trials = (min_trials
            + (max_frac * (trials - min_trials) as f64) as usize)
            .min(trials);
        let rule = StopRule::new(min_trials, max_trials, half_width, confidence).unwrap();
        let lookahead = [
            Lookahead::Fixed(1),
            Lookahead::Fixed(3),
            Lookahead::Fixed(16),
            Lookahead::Auto,
        ][lookahead_idx];
        let spec = spec_for(base_seed, n_techniques, n_rates, trials);
        let sequential = adaptive(&spec, rule, Lookahead::default())
            .run_grouped(&(), eval)
            .unwrap();
        let runs = adaptive(&spec, rule, lookahead)
            .run_cells(&spec.cell_keys(), &(), eval, Ok)
            .unwrap();
        let evaluated: Vec<usize> = runs.iter().map(|run| run.evaluated).collect();
        let batched = GridResults::from_cell_trials(
            &spec,
            runs.into_iter().map(|run| run.values).collect(),
        );
        prop_assert_eq!(&batched, &sequential, "{:?} changed the results", lookahead);
        for ((cell, seq_cell), &e) in batched.cells().iter().zip(sequential.cells()).zip(&evaluated) {
            prop_assert_eq!(cell.trials_run, seq_cell.trials_run);
            let a: Vec<u64> = cell.trials.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = seq_cell.trials.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "cell {:?} trial bits diverged under {:?}", cell.key, lookahead);
            prop_assert!(e >= cell.trials_run, "evaluated {} < kept {}", e, cell.trials_run);
            prop_assert!(e <= trials, "evaluated {} exceeds the {}-trial budget", e, trials);
        }
    }

    /// Lookahead is a run-time option, not part of a job's identity: a
    /// checkpoint written under `--lookahead 16` resumes under
    /// `--lookahead 1` (and vice versa) to byte-identical cell files and
    /// identical reassembled results.
    #[test]
    fn checkpoints_resume_byte_identically_across_lookahead_policies(
        base_seed in any::<u64>(),
        trials in 3_usize..6,
        max_cells in 1_usize..4,
        half_width in 10.0_f64..80.0,
        wide_first in any::<bool>(),
    ) {
        let spec = spec_for(base_seed, 2, 2, trials);
        let rule = StopRule::new(2, trials, half_width, 0.8).unwrap();
        let (first_la, second_la) = if wide_first {
            (Lookahead::Fixed(16), Lookahead::Fixed(1))
        } else {
            (Lookahead::Fixed(1), Lookahead::Fixed(16))
        };
        let root = std::env::temp_dir().join(format!(
            "snn_prop_lookahead_{}_{base_seed:x}_{trials}_{max_cells}_{wide_first}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let service = CampaignService::new(&root);

        // Reference: uninterrupted trial-at-a-time adaptive job.
        let seq_opts = RunOptions {
            stop_rule: Some(rule),
            ..RunOptions::default()
        };
        let oneshot = service.submit("oneshot", spec.clone(), None).unwrap();
        let reference = match oneshot.run(&(), seq_opts, eval).unwrap() {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };

        // Write some cells under one policy, resume under the other.
        let mixed = service.submit("mixed", spec, None).unwrap();
        let first = RunOptions {
            max_cells: Some(max_cells),
            stop_rule: Some(rule),
            lookahead: first_la,
        };
        mixed.run(&(), first, eval).unwrap();
        let second = RunOptions {
            stop_rule: Some(rule),
            lookahead: second_la,
            ..RunOptions::default()
        };
        let resumed = match service.open("mixed").unwrap().run(&(), second, eval).unwrap() {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };
        prop_assert_eq!(&resumed, &reference);
        for key in oneshot.cell_keys() {
            let a = std::fs::read(oneshot.cell_path(key)).unwrap();
            let b = std::fs::read(mixed.cell_path(key)).unwrap();
            prop_assert_eq!(
                a, b,
                "cell {:?} differs across lookahead policies {:?} -> {:?}",
                key, first_la, second_la
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Interrupting an adaptive service pass after a random number of
    /// cells and resuming it produces byte-identical checkpoint artifacts
    /// to an uninterrupted adaptive run of the same job.
    #[test]
    fn interrupted_adaptive_jobs_resume_to_identical_artifacts(
        base_seed in any::<u64>(),
        trials in 3_usize..6,
        max_cells in 1_usize..4,
        half_width in 10.0_f64..80.0,
    ) {
        let spec = spec_for(base_seed, 2, 2, trials);
        let rule = StopRule::new(2, trials, half_width, 0.8).unwrap();
        let opts = RunOptions {
            stop_rule: Some(rule),
            ..RunOptions::default()
        };
        let root = std::env::temp_dir().join(format!(
            "snn_prop_adaptive_{}_{base_seed:x}_{trials}_{max_cells}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let service = CampaignService::new(&root);

        let oneshot = service.submit("oneshot", spec.clone(), None).unwrap();
        let reference = match oneshot.run(&(), opts, eval).unwrap() {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };

        let interrupted = service.submit("interrupted", spec, None).unwrap();
        let first = RunOptions {
            max_cells: Some(max_cells),
            ..opts
        };
        interrupted.run(&(), first, eval).unwrap();
        let resumed = match service
            .open("interrupted")
            .unwrap()
            .run(&(), opts, eval)
            .unwrap()
        {
            RunOutcome::Complete(results) => results,
            other => panic!("expected completion, got {other:?}"),
        };
        prop_assert_eq!(&resumed, &reference);
        for key in oneshot.cell_keys() {
            let a = std::fs::read(oneshot.cell_path(key)).unwrap();
            let b = std::fs::read(interrupted.cell_path(key)).unwrap();
            prop_assert_eq!(a, b, "cell {:?} artifact differs", key);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
