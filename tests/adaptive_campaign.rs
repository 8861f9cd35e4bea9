//! Adaptive (sequential early stopping) campaigns on the real Fig. 13
//! smoke grid: early-stopped cells must be bit-identical prefixes of the
//! pinned fixed-budget trials, interrupt/resume must splice to the same
//! artifact bytes, and the stop rule must actually save trials.

use snn_faults::grid::CellPolicy;
use snn_faults::service::RunOptions;
use snn_faults::stats::{Lookahead, StopRule};
use snn_faults::CampaignService;
use softsnn::data::workload::Workload;
use softsnn::exp::campaign::{self, JobConfig, JobRunOutcome};
use softsnn::exp::fig13;
use softsnn::exp::profile::Profile;
use softsnn_core::methodology::EngineBackendKind;

/// Stops every smoke cell at 2 of its 3 budgeted trials: at `n = 2` the
/// Hoeffding half-width is `100·sqrt(ln(2/0.4)/4) ≈ 63.4 ≤ 70`.
fn smoke_rule() -> StopRule {
    StopRule::new(2, 3, 70.0, 0.6).unwrap()
}

#[test]
fn adaptive_smoke_campaign_stops_on_pinned_prefixes_and_resumes_identically() {
    let root = std::env::temp_dir().join(format!("softsnn_adaptive_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service = CampaignService::new(&root);
    let config = JobConfig {
        workload: Workload::Mnist,
        n_neurons: 100,
        profile: Profile::Smoke,
        backend: EngineBackendKind::Dense,
    };
    let opts = RunOptions {
        stop_rule: Some(smoke_rule()),
        ..RunOptions::default()
    };

    // One-shot adaptive run.
    let (job, bench) = campaign::submit_job(&service, "oneshot", config).unwrap();
    let oneshot = match campaign::run_job(&job, &bench, opts).unwrap() {
        JobRunOutcome::Complete(results) => results,
        JobRunOutcome::Interrupted { done, total } => {
            panic!("full pass must complete, stopped at {done}/{total}")
        }
    };

    // The rule fired in every cell: 2 of 3 trials ran, 20 trials saved.
    let status = job.status().unwrap();
    assert!(status.is_complete());
    assert_eq!(status.trials_per_cell, 3);
    assert_eq!(status.trials_run(), 40);
    assert_eq!(status.trials_saved(), 20);
    for progress in &status.cells {
        assert_eq!(progress.trials_run, 2);
        assert!(progress.stopped_early);
    }

    // Early-stopped cells are bit-identical prefixes of the *pinned*
    // fixed-budget trials (tests/pinned_smoke.rs captures): the adaptive
    // path consumed the same seed stream, in the same order, and simply
    // stopped sooner. No pin was re-captured for this.
    let nomit_high: Vec<u64> = oneshot.cells[3]
        .trials
        .iter()
        .map(|t| t.to_bits())
        .collect();
    assert_eq!(
        nomit_high,
        vec![0x4039_0000_0000_0000, 0x4029_0000_0000_0000]
    );
    let bnp3_mid: Vec<u64> = oneshot.cells[18]
        .trials
        .iter()
        .map(|t| t.to_bits())
        .collect();
    assert_eq!(bnp3_mid, vec![0x4050_4000_0000_0000, 0x404E_0000_0000_0000]);

    // The direct (service-free) adaptive grid runner produces the same
    // cells as the checkpointed job.
    let policy = |lookahead| {
        CellPolicy::new(Some(smoke_rule()), lookahead, Profile::Smoke.trials()).unwrap()
    };
    let direct = fig13::run_grid(&bench, Profile::Smoke, &policy(Lookahead::default())).unwrap();
    assert_eq!(direct, oneshot.cells);

    // Interrupt an identical adaptive job after 7 cells, then resume it:
    // the rendered artifact must be byte-identical to the one-shot's.
    let (job2, bench2) = campaign::submit_job(&service, "resumed", config).unwrap();
    let first = RunOptions {
        max_cells: Some(7),
        ..opts
    };
    match campaign::run_job(&job2, &bench2, first).unwrap() {
        JobRunOutcome::Interrupted { done, total } => assert_eq!((done, total), (7, 20)),
        JobRunOutcome::Complete(_) => panic!("7 < 20 cells must interrupt"),
    }
    let resumed = match campaign::run_job(&job2, &bench2, opts).unwrap() {
        JobRunOutcome::Complete(results) => results,
        JobRunOutcome::Interrupted { done, total } => {
            panic!("full pass must complete, stopped at {done}/{total}")
        }
    };
    assert_eq!(
        fig13::to_json(&resumed).render(),
        fig13::to_json(&oneshot).render(),
        "resumed adaptive artifact diverged from the one-shot adaptive run"
    );
    // And the checkpoint files themselves are byte-identical.
    for key in job.cell_keys() {
        let a = std::fs::read(job.cell_path(key)).unwrap();
        let b = std::fs::read(job2.cell_path(key)).unwrap();
        assert_eq!(a, b, "cell {key:?} checkpoint differs");
    }

    // Lookahead arm against the SAME pins — no re-capture: speculative
    // batching at the widest group size must keep exactly the trials the
    // sequential run keeps, land byte-identical checkpoints, and render
    // the same artifact. Evaluated counts may exceed kept counts; the
    // kept trials may not move.
    let (job3, bench3) = campaign::submit_job(&service, "lookahead", config).unwrap();
    let lookahead_opts = RunOptions {
        stop_rule: Some(smoke_rule()),
        lookahead: Lookahead::Fixed(16),
        ..RunOptions::default()
    };
    let speculative = match campaign::run_job(&job3, &bench3, lookahead_opts).unwrap() {
        JobRunOutcome::Complete(results) => results,
        JobRunOutcome::Interrupted { done, total } => {
            panic!("full pass must complete, stopped at {done}/{total}")
        }
    };
    let la_nomit: Vec<u64> = speculative.cells[3]
        .trials
        .iter()
        .map(|t| t.to_bits())
        .collect();
    assert_eq!(la_nomit, vec![0x4039_0000_0000_0000, 0x4029_0000_0000_0000]);
    let la_bnp3: Vec<u64> = speculative.cells[18]
        .trials
        .iter()
        .map(|t| t.to_bits())
        .collect();
    assert_eq!(la_bnp3, vec![0x4050_4000_0000_0000, 0x404E_0000_0000_0000]);
    assert_eq!(
        fig13::to_json(&speculative).render(),
        fig13::to_json(&oneshot).render(),
        "lookahead artifact diverged from the sequential adaptive run"
    );
    for key in job.cell_keys() {
        let a = std::fs::read(job.cell_path(key)).unwrap();
        let b = std::fs::read(job3.cell_path(key)).unwrap();
        assert_eq!(a, b, "cell {key:?} differs under lookahead");
    }
    let la_status = job3.status().unwrap();
    assert_eq!(la_status.trials_run(), 40);
    assert!(
        la_status.trials_evaluated() >= la_status.trials_run(),
        "evaluated must cover the kept prefix"
    );
    // The direct lookahead grid runner agrees with the service cells too.
    let direct_la = fig13::run_grid(&bench, Profile::Smoke, &policy(Lookahead::Fixed(16))).unwrap();
    assert_eq!(direct_la, oneshot.cells);

    let _ = std::fs::remove_dir_all(&root);
}

/// The lookahead clamp and the engine's multi-map width are the same
/// number by design: a speculative group wider than what one
/// `run_batch_multi_map` pass can carry would silently split and lose
/// the batching it exists to recover.
#[test]
fn lookahead_clamp_matches_the_engine_multi_map_width() {
    assert_eq!(snn_faults::stats::MAX_LOOKAHEAD, snn_hw::engine::MAX_MAPS);
}
