//! Fig. 13-shaped jobs over the checkpointed campaign service.
//!
//! [`snn_faults::service`] knows how to checkpoint and resume an abstract
//! [`GridSpec`](snn_faults::grid::GridSpec); this module binds it to the
//! figure harness: a job is one (workload, size, profile, backend) bench
//! evaluated over the Fig. 13 technique × rate × trial grid, with the
//! bench itself coming from the **cross-job cache**
//! ([`workbench::prepare_cached`]) so N submitted jobs over one
//! configuration train and encode exactly once.
//!
//! Job lifecycle (the `campaignd` binary drives this):
//!
//! ```text
//! submit  →  job.json + config.json under <root>/<job>/
//! run     →  missing cells evaluated, each checkpointed as it lands
//! (crash) →  completed cells survive on disk
//! resume  →  config.json rebuilds the bench (cache hit), fingerprint
//!            re-validated, only missing/corrupt cells re-run
//! results →  GridResults reassembled from checkpoints, fig13.json
//!            byte-identical to a one-shot `fig13` binary run
//! ```
//!
//! The fingerprint stored at submit time covers the trained deployment
//! and the encoded test set ([`job_fingerprint`]); resume recomputes both
//! and refuses to splice checkpoints onto a drifted bench.

use std::path::PathBuf;

use snn_data::workload::Workload;
use snn_faults::codec::{Json, JsonCodec, JsonError};
use snn_faults::grid::GridResults;
use snn_faults::service::{
    write_atomic, CampaignService, JobHandle, RunOptions, RunOutcome, ServiceError,
};
use softsnn_core::methodology::EngineBackendKind;

use crate::fig13::{self, Fig13Results};
use crate::profile::Profile;
use crate::workbench::{self, Bench};

/// Everything needed to rebuild a job's bench on resume: the harness-side
/// half of a job (the service persists the [`snn_faults::grid::GridSpec`]
/// half). Stored as `config.json` next to `job.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Workload the bench trains and evaluates on.
    pub workload: Workload,
    /// Network size (neurons).
    pub n_neurons: usize,
    /// Scale profile (sample counts, epochs, trials).
    pub profile: Profile,
    /// Engine backend evaluations run through.
    pub backend: EngineBackendKind,
}

impl JsonCodec for JobConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.name())),
            ("n_neurons", Json::from(self.n_neurons)),
            ("profile", Json::from(self.profile.to_string())),
            ("backend", Json::from(self.backend.name())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let workload = json
            .str_field("workload")?
            .parse::<Workload>()
            .map_err(JsonError::decode)?;
        let profile = json
            .str_field("profile")?
            .parse::<Profile>()
            .map_err(JsonError::decode)?;
        let backend = json
            .str_field("backend")?
            .parse::<EngineBackendKind>()
            .map_err(JsonError::decode)?;
        Ok(Self {
            workload,
            n_neurons: json.usize_field("n_neurons")?,
            profile,
            backend,
        })
    }
}

/// The job fingerprint stored in `job.json`: a digest of the trained
/// deployment and the encoded test set. Two benches fingerprinting equal
/// would evaluate every grid point identically, so checkpoints from one
/// may complete a grid started under the other; anything else is refused
/// at resume.
pub fn job_fingerprint(bench: &Bench) -> u64 {
    let mut h = softsnn_core::fingerprint::Fnv1a::new();
    h.write_u64(bench.deployment.content_hash());
    h.write_u64(bench.encoded.content_hash());
    h.finish()
}

/// What [`run_job`] accomplished.
#[derive(Debug)]
pub enum JobRunOutcome {
    /// The grid is complete; full figure results reassembled from
    /// checkpoints.
    Complete(Fig13Results),
    /// The pass stopped early ([`RunOptions::max_cells`]).
    Interrupted {
        /// Cells with a valid checkpoint after this pass.
        done: usize,
        /// Total cells in the grid.
        total: usize,
    },
}

/// Submits (or idempotently re-opens) a Fig. 13-shaped job: prepares the
/// bench through the cross-job cache, fingerprints it, registers the grid
/// with the service, and persists `config.json` so a later `resume` can
/// rebuild the bench without being told the configuration again.
///
/// # Errors
///
/// Propagates bench-preparation errors and [`ServiceError`]s — including
/// the spec/fingerprint mismatch that stops a drifted bench from
/// completing someone else's checkpoints.
pub fn submit_job(
    service: &CampaignService,
    name: &str,
    config: JobConfig,
) -> Result<(JobHandle, Bench), Box<dyn std::error::Error>> {
    let bench = workbench::prepare_cached(
        config.workload,
        config.n_neurons,
        config.profile,
        config.backend,
    )?;
    let fingerprint = job_fingerprint(&bench);
    let handle = service.submit(name, fig13::grid_spec(config.profile), Some(fingerprint))?;
    let config_path = handle.dir().join("config.json");
    match std::fs::read_to_string(&config_path) {
        Ok(text) => {
            let existing = Json::parse(&text)
                .and_then(|json| JobConfig::from_json(&json))
                .map_err(|e| ServiceError::Format {
                    path: config_path.clone(),
                    detail: e.to_string(),
                })?;
            if existing != config {
                return Err(Box::new(ServiceError::SpecMismatch {
                    detail: format!(
                        "job `{name}` was submitted with config {existing:?}, \
                         resubmitted with {config:?}"
                    ),
                }));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            write_atomic(&config_path, &config.to_json().render())?;
        }
        Err(e) => return Err(Box::new(e)),
    }
    Ok((handle, bench))
}

/// Reads a submitted job's `config.json`.
///
/// # Errors
///
/// Returns [`ServiceError`] when the file is missing or malformed.
pub fn load_config(service: &CampaignService, name: &str) -> Result<JobConfig, ServiceError> {
    let handle = service.open(name)?;
    let path = handle.dir().join("config.json");
    let text = std::fs::read_to_string(&path).map_err(|e| ServiceError::Io {
        path: path.clone(),
        source: e,
    })?;
    Json::parse(&text)
        .and_then(|json| JobConfig::from_json(&json))
        .map_err(|e| ServiceError::Format {
            path,
            detail: e.to_string(),
        })
}

/// Runs (or resumes) a job: evaluates every missing cell through
/// [`fig13::evaluate_shard`] — literally the same code path as a one-shot
/// figure run — checkpointing each cell as it lands. On completion the
/// grid is reassembled from checkpoints and labeled as [`Fig13Results`],
/// so downstream artifacts are byte-identical to the `fig13` binary's.
///
/// Adaptive options thread straight through: with
/// [`RunOptions::stop_rule`] set, each cell stops at its first-satisfied
/// prefix, and [`RunOptions::lookahead`] controls how many trials past
/// the satisfied-check are speculatively batched per closure call —
/// grouping and waste only, never which trials land in a checkpoint.
///
/// # Errors
///
/// Propagates evaluation and checkpoint-I/O errors.
pub fn run_job(
    handle: &JobHandle,
    bench: &Bench,
    opts: RunOptions,
) -> Result<JobRunOutcome, Box<dyn std::error::Error>> {
    let outcome = handle
        .run(&bench.deployment, opts, |deployment, points| {
            fig13::evaluate_shard(deployment, points, &bench.encoded)
        })
        .map_err(|e| e.to_string())?;
    Ok(match outcome {
        RunOutcome::Complete(results) => JobRunOutcome::Complete(fig13_results(bench, &results)),
        RunOutcome::Interrupted { done, total } => JobRunOutcome::Interrupted { done, total },
    })
}

/// Labels reassembled grid cells as full figure results for one bench
/// (clean reference + per-cell accuracies) — the shape
/// [`fig13::to_json`] renders.
pub fn fig13_results(bench: &Bench, results: &GridResults) -> Fig13Results {
    Fig13Results {
        cells: fig13::cells_from_results(bench, results),
        clean: vec![(
            bench.workload,
            bench.deployment.quantized().n_neurons,
            bench.clean_accuracy,
        )],
    }
}

/// Where a job's completed `fig13.json` artifact lands.
pub fn artifact_path(handle: &JobHandle) -> PathBuf {
    handle.dir().join("fig13.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_config_round_trips_through_the_codec() {
        for config in [
            JobConfig {
                workload: Workload::Mnist,
                n_neurons: 100,
                profile: Profile::Smoke,
                backend: EngineBackendKind::Dense,
            },
            JobConfig {
                workload: Workload::FashionMnist,
                n_neurons: 400,
                profile: Profile::Full,
                backend: EngineBackendKind::Event,
            },
        ] {
            let parsed =
                JobConfig::from_json(&Json::parse(&config.to_json().render()).unwrap()).unwrap();
            assert_eq!(parsed, config);
        }
        assert!(JobConfig::from_json(&Json::parse("{}").unwrap()).is_err());
        let bad = Json::parse(
            r#"{"workload":"cifar","n_neurons":100,"profile":"smoke","backend":"dense"}"#,
        )
        .unwrap();
        assert!(JobConfig::from_json(&bad).is_err());
    }
}
