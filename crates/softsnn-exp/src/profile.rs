//! Experiment scale profiles.
//!
//! The paper's evaluation runs 3×60k training experiments and 10k
//! inference experiments per configuration on a multi-GPU machine. This
//! reproduction runs on a CPU, so experiments default to a reduced scale
//! that preserves the *shapes* of every figure; `--profile full`
//! approaches paper scale when compute is available.

use softsnn_core::methodology::EngineBackendKind;
use std::fmt;
use std::str::FromStr;

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Profile {
    /// Minutes-scale CI smoke: tiny network, tiny datasets.
    Smoke,
    /// Single small network, one trial — quick interactive runs.
    Quick,
    /// The default: N400+N900, a few trials (tens of minutes on one core).
    #[default]
    Default,
    /// Paper-scale sweep: all five sizes, full trial counts.
    Full,
}

impl Profile {
    /// Training samples per workload.
    pub fn n_train(self) -> usize {
        match self {
            Profile::Smoke => 200,
            Profile::Quick => 800,
            Profile::Default => 1500,
            Profile::Full => 6000,
        }
    }

    /// Test samples per evaluation point.
    pub fn n_test(self) -> usize {
        match self {
            Profile::Smoke => 40,
            Profile::Quick => 80,
            Profile::Default => 150,
            Profile::Full => 1000,
        }
    }

    /// Unsupervised training epochs (paper: 3).
    pub fn epochs(self) -> usize {
        match self {
            Profile::Smoke | Profile::Quick => 1,
            Profile::Default => 2,
            Profile::Full => 3,
        }
    }

    /// Independent fault maps per (rate, technique) point.
    ///
    /// Even the smallest profiles use 3 maps: a single fault map makes
    /// technique comparisons a coin flip at toy scale, and the campaign
    /// grid is parallel + encode-cached, so extra trials are cheap.
    pub fn trials(self) -> usize {
        match self {
            Profile::Smoke | Profile::Quick | Profile::Default => 3,
            Profile::Full => 5,
        }
    }

    /// Network sizes to sweep (paper: N400…N3600).
    pub fn sizes(self) -> Vec<usize> {
        match self {
            Profile::Smoke => vec![100],
            Profile::Quick => vec![400],
            Profile::Default => vec![400, 900],
            Profile::Full => vec![400, 900, 1600, 2500, 3600],
        }
    }

    /// The number of neurons used for single-network experiments
    /// (Figs. 3, 9, 10 use N400 in the paper).
    pub fn case_study_size(self) -> usize {
        match self {
            Profile::Smoke => 100,
            _ => 400,
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Profile::Smoke => "smoke",
            Profile::Quick => "quick",
            Profile::Default => "default",
            Profile::Full => "full",
        })
    }
}

impl FromStr for Profile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Profile::Smoke),
            "quick" => Ok(Profile::Quick),
            "default" => Ok(Profile::Default),
            "full" => Ok(Profile::Full),
            other => Err(format!(
                "unknown profile `{other}` (expected smoke|quick|default|full)"
            )),
        }
    }
}

/// Parses `--profile`, `--workload`, `--backend`, and `--out` style
/// arguments shared by every experiment binary. Unknown flags are
/// reported, not ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// The selected scale profile.
    pub profile: Profile,
    /// Workload filter: `None` = all workloads the figure uses.
    pub workload: Option<String>,
    /// Output directory for CSV artifacts.
    pub out_dir: String,
    /// Which engine backend deployments evaluate through (delay-free
    /// results are bit-identical across backends; this is a performance
    /// knob keyed to workload sparsity).
    pub backend: EngineBackendKind,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            profile: Profile::Default,
            workload: None,
            out_dir: "results".to_owned(),
            backend: EngineBackendKind::Dense,
        }
    }
}

impl CliArgs {
    /// Parses `std::env::args()`-style arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or bad values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut parsed = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--profile" => {
                    let v = it.next().ok_or("--profile needs a value")?;
                    parsed.profile = v.parse()?;
                }
                "--workload" => {
                    parsed.workload = Some(it.next().ok_or("--workload needs a value")?);
                }
                "--out" => {
                    parsed.out_dir = it.next().ok_or("--out needs a value")?;
                }
                "--backend" => {
                    parsed.backend = it.next().ok_or("--backend needs a value")?.parse()?;
                }
                other => {
                    return Err(format!(
                        "unknown argument `{other}`; usage: [--profile smoke|quick|default|full] [--workload mnist|fashion] [--backend dense|event] [--out DIR]"
                    ))
                }
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_monotonically() {
        let ps = [
            Profile::Smoke,
            Profile::Quick,
            Profile::Default,
            Profile::Full,
        ];
        for pair in ps.windows(2) {
            assert!(pair[0].n_train() <= pair[1].n_train());
            assert!(pair[0].n_test() <= pair[1].n_test());
            assert!(pair[0].trials() <= pair[1].trials());
        }
    }

    #[test]
    fn full_profile_covers_paper_sizes() {
        assert_eq!(Profile::Full.sizes(), vec![400, 900, 1600, 2500, 3600]);
    }

    #[test]
    fn profile_parses_case_insensitively() {
        assert_eq!("FULL".parse::<Profile>().unwrap(), Profile::Full);
        assert!("bogus".parse::<Profile>().is_err());
    }

    #[test]
    fn cli_args_parse_flags() {
        let args = CliArgs::parse(
            ["--profile", "quick", "--workload", "mnist", "--out", "x"].map(String::from),
        )
        .unwrap();
        assert_eq!(args.profile, Profile::Quick);
        assert_eq!(args.workload.as_deref(), Some("mnist"));
        assert_eq!(args.out_dir, "x");
    }

    #[test]
    fn cli_args_reject_unknown_flags() {
        assert!(CliArgs::parse(["--nope".to_owned()]).is_err());
        assert!(CliArgs::parse(["--profile".to_owned()]).is_err());
    }

    #[test]
    fn cli_args_parse_backend() {
        let args = CliArgs::parse(["--backend", "event"].map(String::from)).unwrap();
        assert_eq!(args.backend, EngineBackendKind::Event);
        assert_eq!(
            CliArgs::parse([]).unwrap().backend,
            EngineBackendKind::Dense
        );
        assert!(CliArgs::parse(["--backend", "gpu"].map(String::from)).is_err());
    }

    #[test]
    fn display_round_trips() {
        for p in [
            Profile::Smoke,
            Profile::Quick,
            Profile::Default,
            Profile::Full,
        ] {
            assert_eq!(p.to_string().parse::<Profile>().unwrap(), p);
        }
    }
}
