//! Sequential campaign statistics: streaming moments, distribution-free
//! confidence bounds, stop rules, and speculative lookahead.
//!
//! Fault-injection campaigns spend their time on trials, and most cells
//! converge long before the fixed trial budget is exhausted — the
//! SpikeFI observation. This module is the statistics half of that
//! speedup, kept dependency-free and deliberately boring:
//!
//! * [`Streaming`] — a single-pass moment accumulator. It tracks the
//!   plain left-fold sum (so its mean is **bit-identical** to
//!   [`snn_sim::metrics::mean`]) *and* Welford's running `M2` (so a
//!   numerically stable variance is available after every push without
//!   re-scanning the trials).
//! * [`hoeffding_half_width`] / [`empirical_bernstein_half_width`] —
//!   distribution-free confidence-interval half-widths for bounded
//!   values, pinned by table tests so the stopping behaviour can never
//!   drift silently.
//! * [`StopRule`] — "stop once the CI half-width is small enough",
//!   with typed construction errors instead of silent clamping.
//! * [`Lookahead`] — how many trials past the satisfied-check one
//!   evaluation call speculates.
//!
//! The module never touches the trial *order*: adaptive execution
//! ([`crate::grid::CellPolicy::Adaptive`]) consumes the exact pinned per-point seed stream and
//! merely stops early, so an early-stopped cell is the first-k prefix of
//! the fixed-mode cell, bit for bit.

use std::error::Error;
use std::fmt;

/// Why a [`StopRule`] (or a grid/service adaptive run using one) was
/// refused at construction. These are hard errors on purpose: silently
/// clamping `min_trials` to 2 or `max_trials` to the spec's budget would
/// make the effective rule differ from the requested one without anyone
/// noticing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsError {
    /// `min_trials < 2`: a sample variance (and thus the
    /// empirical-Bernstein bound) is undefined on fewer than two trials.
    MinTrialsTooSmall {
        /// The offending minimum.
        min_trials: usize,
    },
    /// `min_trials > max_trials`: the rule could never take effect.
    MinExceedsMax {
        /// The requested minimum.
        min_trials: usize,
        /// The requested maximum.
        max_trials: usize,
    },
    /// `max_trials` exceeds the grid's per-cell trial budget: the seed
    /// stream only defines `spec_trials` pinned trials per cell, so a
    /// larger maximum would demand seeds that do not exist.
    MaxTrialsExceedsSpec {
        /// The requested maximum.
        max_trials: usize,
        /// The grid's per-cell trial count.
        spec_trials: usize,
    },
    /// `half_width` is negative, NaN, or infinite.
    BadHalfWidth {
        /// The offending target half-width.
        half_width: f64,
    },
    /// `confidence` is outside the open interval (0, 1).
    BadConfidence {
        /// The offending confidence level.
        confidence: f64,
    },
    /// `range` is not a strictly positive finite number.
    BadRange {
        /// The offending value range.
        range: f64,
    },
    /// A fixed lookahead group size outside `1..=MAX_LOOKAHEAD`: zero
    /// groups make no progress, and groups wider than the engine's
    /// multi-map width ([`MAX_LOOKAHEAD`]) could never batch as one pass.
    BadLookahead {
        /// The offending group size.
        k: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::MinTrialsTooSmall { min_trials } => write!(
                f,
                "stop rule min_trials {min_trials} < 2 (sample variance needs two trials)"
            ),
            StatsError::MinExceedsMax {
                min_trials,
                max_trials,
            } => write!(
                f,
                "stop rule min_trials {min_trials} exceeds max_trials {max_trials}"
            ),
            StatsError::MaxTrialsExceedsSpec {
                max_trials,
                spec_trials,
            } => write!(
                f,
                "stop rule max_trials {max_trials} exceeds the grid's {spec_trials} \
                 pinned trials per cell"
            ),
            StatsError::BadHalfWidth { half_width } => {
                write!(
                    f,
                    "stop rule half_width {half_width} must be finite and >= 0"
                )
            }
            StatsError::BadConfidence { confidence } => {
                write!(f, "stop rule confidence {confidence} must lie in (0, 1)")
            }
            StatsError::BadRange { range } => {
                write!(f, "stop rule range {range} must be finite and > 0")
            }
            StatsError::BadLookahead { k } => {
                write!(
                    f,
                    "lookahead group size {k} must lie in 1..={MAX_LOOKAHEAD} \
                     (the engine's multi-map width)"
                )
            }
        }
    }
}

impl Error for StatsError {}

/// Single-pass streaming moments over a trial sequence.
///
/// Two accumulators run side by side:
///
/// * the **left-fold sum**, whose `sum / n` is bit-identical to
///   [`snn_sim::metrics::mean`] (`xs.iter().sum::<f64>() / n` folds left
///   in slice order) — this is what aggregation emits, so checkpointed
///   means never change bits;
/// * **Welford's `M2`**, giving a numerically stable running variance
///   after every push — this is what the stop rule consumes, so deciding
///   "stop or continue" after trial k is O(1), not O(k).
///
/// The sample standard deviation that aggregation *emits* is defined as
/// `sqrt(Σ(x − mean)² / (n − 1))` with the final mean —
/// [`snn_sim::metrics::std_dev`]'s exact expression — which no streaming
/// update reproduces bit-for-bit. [`Streaming::finalize`] therefore
/// performs the one irreducible re-scan for the emitted value (down from
/// the three passes the old `mean(&t)` + `std_dev(&t)` pair cost), while
/// the Welford variance drives the stop rule with zero re-scans.
///
/// # Examples
///
/// ```
/// use snn_faults::stats::Streaming;
///
/// let mut s = Streaming::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.push(x);
/// }
/// assert_eq!(s.n(), 3);
/// assert_eq!(s.mean().to_bits(), snn_sim::metrics::mean(&[2.0, 4.0, 6.0]).to_bits());
/// assert_eq!(s.variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Streaming {
    n: usize,
    sum: f64,
    welford_mean: f64,
    m2: f64,
}

impl Streaming {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one trial value.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.welford_mean;
        self.welford_mean += delta / self.n as f64;
        self.m2 += delta * (x - self.welford_mean);
    }

    /// Number of trials consumed.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The left-fold mean `sum / n` — bit-identical to
    /// [`snn_sim::metrics::mean`] over the same values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Welford's sample variance `M2 / (n − 1)` (0.0 for fewer than two
    /// trials). Numerically stable and available after every push; used
    /// by the stop rule, **not** emitted into artifacts.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// The emitted `(mean, std_dev)` pair for the accumulated trials:
    /// the streaming mean plus one variance re-scan replicating
    /// [`snn_sim::metrics::std_dev`]'s exact expression, so both values
    /// are bit-identical to the historical two-function aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not the sequence this accumulator consumed
    /// (length mismatch — the cheap half of that contract).
    pub fn finalize(&self, values: &[f64]) -> (f64, f64) {
        assert_eq!(values.len(), self.n, "finalize over the pushed values");
        let mean = self.mean();
        if self.n < 2 {
            return (mean, 0.0);
        }
        let var =
            values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        (mean, var.sqrt())
    }
}

/// Hoeffding confidence-interval half-width for `n` i.i.d. values in a
/// range of width `range`, at failure probability `delta`:
/// `range · sqrt(ln(2/δ) / (2n))`.
///
/// Distribution-free and variance-blind — the right bound while the
/// sample variance is still untrustworthy, and strictly positive for
/// every finite `n` (so a zero target half-width never stops early).
pub fn hoeffding_half_width(range: f64, n: usize, delta: f64) -> f64 {
    assert!(n > 0, "half-width of an empty sample");
    range * ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

/// Empirical-Bernstein confidence-interval half-width (Audibert et al. /
/// Mnih et al. form) for `n` values in a range of width `range` with
/// sample variance `variance`, at failure probability `delta`:
/// `sqrt(2·V·ln(3/δ)/n) + 3·range·ln(3/δ)/n`.
///
/// Variance-adaptive: once the observed variance is small the bound
/// shrinks like `range/n` instead of `range/sqrt(n)`, which is what lets
/// low-noise cells stop after a handful of trials. Strictly positive for
/// every finite `n`.
pub fn empirical_bernstein_half_width(range: f64, variance: f64, n: usize, delta: f64) -> f64 {
    assert!(n > 0, "half-width of an empty sample");
    let nf = n as f64;
    let log_term = (3.0 / delta).ln();
    (2.0 * variance * log_term / nf).sqrt() + 3.0 * range * log_term / nf
}

/// A sequential stopping rule: run at least `min_trials`, stop as soon
/// as the confidence interval's half-width drops to `half_width` (at
/// level `confidence`), and never run more than `max_trials`.
///
/// The half-width used is the **tighter** of the Hoeffding and
/// empirical-Bernstein bounds at `delta = 1 − confidence` — both are
/// valid simultaneously (up to a union-bound constant folded into the
/// conservative side), and each dominates in a different regime
/// (Hoeffding early / high variance, Bernstein once the trials are
/// visibly low-noise).
///
/// `half_width: 0.0` is valid and degenerates to fixed-trial mode by
/// construction: both bounds are strictly positive for every finite
/// trial count, so the rule is only "satisfied" when `max_trials` is
/// reached.
///
/// # Examples
///
/// ```
/// use snn_faults::stats::{StopRule, Streaming};
///
/// let rule = StopRule::new(4, 64, 5.0, 0.9).unwrap();
/// let mut s = Streaming::new();
/// s.push(50.0);
/// s.push(50.0);
/// assert!(!rule.satisfied(&s), "below min_trials");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Trials always run before the rule may stop a cell (≥ 2).
    pub min_trials: usize,
    /// Hard per-cell trial ceiling (≤ the grid's trial budget).
    pub max_trials: usize,
    /// Target confidence-interval half-width, in value units (accuracy
    /// percentage points for the figure grids). 0.0 = never stop early.
    pub half_width: f64,
    /// Confidence level of the interval, in (0, 1).
    pub confidence: f64,
    /// Width of the range trial values are bounded to (100.0 for
    /// accuracy percentages).
    pub range: f64,
}

/// Trial values are accuracy percentages unless stated otherwise.
pub const ACCURACY_RANGE: f64 = 100.0;

impl StopRule {
    /// Builds a rule for accuracy-percentage trials (range 100.0).
    ///
    /// # Errors
    ///
    /// Returns a typed [`StatsError`] — never clamps — when
    /// `min_trials < 2`, `min_trials > max_trials`, `half_width` is
    /// negative or non-finite, or `confidence` is outside (0, 1).
    pub fn new(
        min_trials: usize,
        max_trials: usize,
        half_width: f64,
        confidence: f64,
    ) -> Result<Self, StatsError> {
        Self {
            min_trials,
            max_trials,
            half_width,
            confidence,
            range: ACCURACY_RANGE,
        }
        .validated()
    }

    /// Replaces the value range (for sweeps whose trial values are not
    /// accuracy percentages).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadRange`] unless `range` is finite and
    /// strictly positive.
    pub fn with_range(mut self, range: f64) -> Result<Self, StatsError> {
        self.range = range;
        self.validated()
    }

    fn validated(self) -> Result<Self, StatsError> {
        if self.min_trials < 2 {
            return Err(StatsError::MinTrialsTooSmall {
                min_trials: self.min_trials,
            });
        }
        if self.min_trials > self.max_trials {
            return Err(StatsError::MinExceedsMax {
                min_trials: self.min_trials,
                max_trials: self.max_trials,
            });
        }
        if !self.half_width.is_finite() || self.half_width < 0.0 {
            return Err(StatsError::BadHalfWidth {
                half_width: self.half_width,
            });
        }
        if !self.confidence.is_finite() || self.confidence <= 0.0 || self.confidence >= 1.0 {
            return Err(StatsError::BadConfidence {
                confidence: self.confidence,
            });
        }
        if !self.range.is_finite() || self.range <= 0.0 {
            return Err(StatsError::BadRange { range: self.range });
        }
        Ok(self)
    }

    /// Checks the rule against a grid's per-cell trial budget. Adaptive
    /// runners call this before consuming any seed: `max_trials` beyond
    /// the budget would demand pinned seeds that do not exist.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::MaxTrialsExceedsSpec`] when
    /// `max_trials > spec_trials`.
    pub fn validate_against_trials(&self, spec_trials: usize) -> Result<(), StatsError> {
        if self.max_trials > spec_trials {
            return Err(StatsError::MaxTrialsExceedsSpec {
                max_trials: self.max_trials,
                spec_trials,
            });
        }
        Ok(())
    }

    /// The current confidence-interval half-width for an accumulator:
    /// the tighter of the two bounds at `delta = 1 − confidence`.
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator.
    pub fn current_half_width(&self, stats: &Streaming) -> f64 {
        let delta = 1.0 - self.confidence;
        let hoeffding = hoeffding_half_width(self.range, stats.n(), delta);
        let bernstein =
            empirical_bernstein_half_width(self.range, stats.variance(), stats.n(), delta);
        hoeffding.min(bernstein)
    }

    /// Whether a cell with these accumulated trials may stop: at least
    /// `min_trials` consumed, and either the interval is tight enough or
    /// the `max_trials` ceiling is reached.
    pub fn satisfied(&self, stats: &Streaming) -> bool {
        if stats.n() < self.min_trials {
            return false;
        }
        if stats.n() >= self.max_trials {
            return true;
        }
        self.current_half_width(stats) <= self.half_width
    }

    /// Whether this rule can never stop a cell before `max_trials`: with
    /// a zero target half-width both confidence bounds are strictly
    /// positive for every finite trial count, so the half-width
    /// condition can never fire and the cell always runs to its ceiling.
    /// Adaptive runners use this to evaluate the whole reachable budget
    /// as one grouped call instead of grinding trial by trial.
    pub fn is_never_satisfiable(&self) -> bool {
        self.half_width <= 0.0
    }

    /// The first index `i` in `values` at which pushing
    /// `values[..=i]` onto a copy of `acc` satisfies the rule, or `None`
    /// if no prefix does. This is *the* prefix search speculative
    /// lookahead shares with the sequential path: pushing one value and
    /// re-checking [`satisfied`](Self::satisfied) per step is exactly
    /// what the trial-at-a-time loop does, so truncating a speculative
    /// group to `..=first_stop_index` keeps literally the trials the
    /// sequential run would have kept. `acc` itself is not modified.
    ///
    /// # Examples
    ///
    /// ```
    /// use snn_faults::stats::{StopRule, Streaming};
    ///
    /// // min 2 trials, then stop unconditionally (huge half-width).
    /// let rule = StopRule::new(2, 8, 99.0, 0.6).unwrap();
    /// let acc = Streaming::new();
    /// assert_eq!(rule.first_stop_index(&acc, &[50.0, 60.0, 70.0]), Some(1));
    /// assert_eq!(rule.first_stop_index(&acc, &[50.0]), None);
    /// ```
    pub fn first_stop_index(&self, acc: &Streaming, values: &[f64]) -> Option<usize> {
        let mut probe = *acc;
        for (i, &v) in values.iter().enumerate() {
            probe.push(v);
            if self.satisfied(&probe) {
                return Some(i);
            }
        }
        None
    }
}

/// Hard cap on speculative lookahead group sizes — the engine's
/// multi-map width (`snn_hw::engine::MAX_MAPS`, pinned equal by a root
/// regression test): wider groups could not batch as one
/// `run_batch_multi_map` pass, so speculating past it only grows waste.
pub const MAX_LOOKAHEAD: usize = 16;

/// How many trials an adaptive runner evaluates **per closure call**
/// past the satisfied-check — the speculative lookahead policy.
///
/// Sequential early stopping checks the rule after every trial; calling
/// the evaluation closure one point at a time makes each remaining trial
/// pay a full heal-on-entry reload and forfeits the engine's multi-map
/// batching. A lookahead policy instead evaluates the next K pinned
/// points as one group, then truncates to the exact
/// [`StopRule::first_stop_index`] prefix — speculative extras are
/// evaluated but never aggregated, so *which* trials a cell keeps is
/// byte-for-byte unchanged; only grouping (cost) and waste change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// Always speculate `K` trials per group (clamped to the trials the
    /// cell can still legally run). `Fixed(1)` is the sequential
    /// trial-at-a-time behaviour.
    Fixed(usize),
    /// Predict trials-to-satisfaction from the current half-width ratio:
    /// half-widths shrink like `1/√n`, so reaching the target from the
    /// current `hw` after `n` trials takes roughly `n·(hw/target)²`
    /// trials total — speculate the missing `n·(hw/target)² − n`,
    /// clamped to `[1, MAX_LOOKAHEAD]`. Low waste near the stop point
    /// (the predictor shrinks as the interval closes in), full-width
    /// groups while the interval is still far too wide.
    Auto,
}

impl Default for Lookahead {
    /// Sequential trial-at-a-time evaluation — the PR 9 behaviour.
    fn default() -> Self {
        Lookahead::Fixed(1)
    }
}

impl Lookahead {
    /// Validates the policy (typed error, never clamps — the runtime
    /// clamping in [`group_size`](Self::group_size) only ever *shrinks*
    /// a valid K to what the cell can still run).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadLookahead`] for `Fixed(0)` (no progress)
    /// and `Fixed(k > MAX_LOOKAHEAD)` (wider than one multi-map pass).
    pub fn validated(self) -> Result<Self, StatsError> {
        if let Lookahead::Fixed(k) = self {
            if k == 0 || k > MAX_LOOKAHEAD {
                return Err(StatsError::BadLookahead { k });
            }
        }
        Ok(self)
    }

    /// The number of trials to speculate next for a cell whose
    /// accumulator is `acc`, with `remaining` pinned points left in the
    /// cell. Always in `1..=remaining`, never past `rule.max_trials`
    /// (trials beyond the ceiling would be guaranteed waste), and never
    /// past [`MAX_LOOKAHEAD`].
    ///
    /// # Panics
    ///
    /// Panics if `remaining` is zero (the caller's loop condition
    /// guarantees at least one point is left).
    pub fn group_size(&self, rule: &StopRule, acc: &Streaming, remaining: usize) -> usize {
        assert!(remaining > 0, "group size for an exhausted cell");
        let cap = remaining
            .min(MAX_LOOKAHEAD)
            .min(rule.max_trials.saturating_sub(acc.n()).max(1));
        let want = match *self {
            Lookahead::Fixed(k) => k,
            Lookahead::Auto => {
                if rule.is_never_satisfiable() {
                    // No finite n satisfies the half-width: take the cap.
                    cap
                } else {
                    let ratio = rule.current_half_width(acc) / rule.half_width;
                    // Total trials needed ≈ n·ratio²; speculate the gap.
                    let predicted = acc.n() as f64 * (ratio * ratio - 1.0);
                    if predicted.is_finite() {
                        predicted.ceil().max(1.0).min(cap as f64) as usize
                    } else {
                        cap
                    }
                }
            }
        };
        want.clamp(1, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_sim::metrics::{mean, std_dev};

    #[test]
    fn streaming_mean_is_bit_identical_to_metrics_mean() {
        // Values chosen to make fold order matter: mixing magnitudes
        // makes `sum/n` differ across association orders, so bit
        // equality here is evidence of the same fold, not luck.
        let xs = [62.5, 1e-3, 57.5, 3.25e8, 60.0, -12.125, 0.1 + 0.2];
        for len in 0..=xs.len() {
            let slice = &xs[..len];
            let mut s = Streaming::new();
            for &x in slice {
                s.push(x);
            }
            assert_eq!(s.mean().to_bits(), mean(slice).to_bits(), "len {len}");
            let (m, sd) = s.finalize(slice);
            assert_eq!(m.to_bits(), mean(slice).to_bits(), "len {len}");
            assert_eq!(sd.to_bits(), std_dev(slice).to_bits(), "len {len}");
        }
    }

    #[test]
    fn streaming_variance_matches_two_pass_closely() {
        let xs = [55.0, 60.0, 57.5, 62.5, 40.0, 58.0];
        let mut s = Streaming::new();
        for &x in &xs {
            s.push(x);
        }
        let sd = std_dev(&xs);
        assert!((s.variance() - sd * sd).abs() < 1e-9);
    }

    /// The pinned bound table: exact `to_bits` values captured at
    /// implementation time. Any change to the formulas (reassociation,
    /// different constants, a "harmless" refactor) trips this test, so
    /// stopping behaviour can never drift silently under the campaigns.
    #[test]
    fn confidence_bounds_are_pinned() {
        // (range, n, delta, variance, hoeffding_bits, bernstein_bits)
        let cases: [(f64, usize, f64, f64, u64, u64); 6] = [
            (100.0, 2, 0.1, 0.0, 0x4055A29E6B4567C8, 0x407FE2DFABD9DF7E),
            (100.0, 8, 0.1, 0.0, 0x4045A29E6B4567C8, 0x405FE2DFABD9DF7E),
            (
                100.0,
                8,
                0.25,
                156.25,
                0x4042067C6CEDCB2D,
                0x4059C251C5F1C342,
            ),
            (
                100.0,
                32,
                0.05,
                42.1875,
                0x40380210DC7E0FF3,
                0x4044D5C785C98D1C,
            ),
            (
                100.0,
                128,
                0.25,
                6.5,
                0x4022067C6CEDCB2D,
                0x40194E3354A64296,
            ),
            (1.0, 16, 0.5, 0.04, 0x3FCAA4499161CD47, 0x3FDB8F0BBB046A32),
        ];
        for (range, n, delta, variance, h_bits, b_bits) in cases {
            assert_eq!(
                hoeffding_half_width(range, n, delta).to_bits(),
                h_bits,
                "hoeffding({range}, {n}, {delta})"
            );
            assert_eq!(
                empirical_bernstein_half_width(range, variance, n, delta).to_bits(),
                b_bits,
                "bernstein({range}, {variance}, {n}, {delta})"
            );
        }
    }

    #[test]
    fn hoeffding_shrinks_like_inverse_sqrt_n() {
        let a = hoeffding_half_width(100.0, 25, 0.05);
        let b = hoeffding_half_width(100.0, 100, 0.05);
        assert!(
            (a / b - 2.0).abs() < 1e-12,
            "4x the trials halves the bound"
        );
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn bernstein_beats_hoeffding_once_variance_is_low() {
        // Zero observed variance: Bernstein's range term decays like 1/n
        // and must undercut Hoeffding's 1/sqrt(n) for large n.
        let n = 400;
        let h = hoeffding_half_width(100.0, n, 0.1);
        let b = empirical_bernstein_half_width(100.0, 0.0, n, 0.1);
        assert!(b < h, "bernstein {b} vs hoeffding {h}");
    }

    #[test]
    fn bounds_are_strictly_positive_for_any_n() {
        for n in [1, 2, 10, 1_000_000] {
            assert!(hoeffding_half_width(100.0, n, 0.5) > 0.0);
            assert!(empirical_bernstein_half_width(100.0, 0.0, n, 0.5) > 0.0);
        }
    }

    #[test]
    fn stop_rule_construction_rejects_bad_parameters_with_typed_errors() {
        assert_eq!(
            StopRule::new(1, 10, 5.0, 0.9).unwrap_err(),
            StatsError::MinTrialsTooSmall { min_trials: 1 }
        );
        assert_eq!(
            StopRule::new(0, 10, 5.0, 0.9).unwrap_err(),
            StatsError::MinTrialsTooSmall { min_trials: 0 }
        );
        assert_eq!(
            StopRule::new(8, 4, 5.0, 0.9).unwrap_err(),
            StatsError::MinExceedsMax {
                min_trials: 8,
                max_trials: 4
            }
        );
        assert_eq!(
            StopRule::new(2, 10, -1.0, 0.9).unwrap_err(),
            StatsError::BadHalfWidth { half_width: -1.0 }
        );
        assert!(StopRule::new(2, 10, f64::NAN, 0.9).is_err());
        assert_eq!(
            StopRule::new(2, 10, 5.0, 1.0).unwrap_err(),
            StatsError::BadConfidence { confidence: 1.0 }
        );
        assert_eq!(
            StopRule::new(2, 10, 5.0, 0.0).unwrap_err(),
            StatsError::BadConfidence { confidence: 0.0 }
        );
        assert_eq!(
            StopRule::new(2, 10, 5.0, 0.9).unwrap().with_range(0.0),
            Err(StatsError::BadRange { range: 0.0 })
        );
        let rule = StopRule::new(2, 10, 5.0, 0.9).unwrap();
        assert_eq!(
            rule.validate_against_trials(8),
            Err(StatsError::MaxTrialsExceedsSpec {
                max_trials: 10,
                spec_trials: 8
            })
        );
        assert_eq!(rule.validate_against_trials(10), Ok(()));
        // Errors render as readable messages.
        assert!(StatsError::MinTrialsTooSmall { min_trials: 1 }
            .to_string()
            .contains("min_trials"));
    }

    #[test]
    fn zero_half_width_never_stops_before_max_trials() {
        let rule = StopRule::new(2, 50, 0.0, 0.99).unwrap();
        let mut s = Streaming::new();
        for i in 0..50 {
            s.push(62.5); // identical values: variance 0, tightest case
            if i + 1 < 50 {
                assert!(!rule.satisfied(&s), "stopped early at n={}", i + 1);
            }
        }
        assert!(rule.satisfied(&s), "max_trials must stop the cell");
    }

    #[test]
    fn low_variance_cells_stop_early_and_noisy_cells_do_not() {
        let rule = StopRule::new(4, 1000, 10.0, 0.75).unwrap();
        // Constant trials: Hoeffding alone satisfies hw<=10 at
        // n >= ln(8)/2 * (100/10)^2 ≈ 104; Bernstein (V=0) at
        // n >= 3*100*ln(12)/10 ≈ 75. Must stop well before 1000.
        let mut s = Streaming::new();
        let mut stopped_at = None;
        for i in 1..=1000 {
            s.push(60.0);
            if rule.satisfied(&s) {
                stopped_at = Some(i);
                break;
            }
        }
        let stopped_at = stopped_at.expect("constant cell must stop");
        assert!(stopped_at <= 110, "stopped at {stopped_at}");
        // Alternating extremes (max variance): the same rule must need
        // strictly more trials than the constant cell.
        let mut noisy = Streaming::new();
        for i in 0..stopped_at {
            noisy.push(if i % 2 == 0 { 0.0 } else { 100.0 });
        }
        assert!(!rule.satisfied(&noisy), "noisy cell must not stop as early");
    }

    /// `first_stop_index` replicates the sequential push-then-check loop
    /// exactly: the returned index is the first trial after which the
    /// trial-at-a-time loop would have exited.
    #[test]
    fn first_stop_index_matches_the_sequential_loop() {
        let rules = [
            StopRule::new(2, 8, 99.0, 0.6).unwrap(),
            StopRule::new(3, 5, 40.0, 0.75).unwrap(),
            StopRule::new(2, 4, 0.0, 0.9).unwrap(),
        ];
        let streams: [&[f64]; 3] = [
            &[50.0, 60.0, 55.0, 52.0, 58.0, 50.0, 51.0, 54.0],
            &[0.0, 100.0, 0.0, 100.0],
            &[62.5; 6],
        ];
        for rule in &rules {
            for values in streams {
                for head in 0..values.len() {
                    let mut acc = Streaming::new();
                    for &v in &values[..head] {
                        acc.push(v);
                    }
                    let tail = &values[head..];
                    // Reference: sequential push-and-check.
                    let mut probe = acc;
                    let mut expected = None;
                    for (i, &v) in tail.iter().enumerate() {
                        probe.push(v);
                        if rule.satisfied(&probe) {
                            expected = Some(i);
                            break;
                        }
                    }
                    assert_eq!(rule.first_stop_index(&acc, tail), expected);
                    // The probe copy never mutates the caller's state.
                    assert_eq!(acc.n(), head);
                }
            }
        }
    }

    #[test]
    fn never_satisfiable_rules_are_detected() {
        assert!(StopRule::new(2, 8, 0.0, 0.9)
            .unwrap()
            .is_never_satisfiable());
        assert!(!StopRule::new(2, 8, 0.1, 0.9)
            .unwrap()
            .is_never_satisfiable());
    }

    #[test]
    fn lookahead_validation_rejects_degenerate_fixed_sizes() {
        assert_eq!(
            Lookahead::Fixed(0).validated(),
            Err(StatsError::BadLookahead { k: 0 })
        );
        assert_eq!(
            Lookahead::Fixed(MAX_LOOKAHEAD + 1).validated(),
            Err(StatsError::BadLookahead {
                k: MAX_LOOKAHEAD + 1
            })
        );
        assert_eq!(Lookahead::Fixed(1).validated(), Ok(Lookahead::Fixed(1)));
        assert_eq!(
            Lookahead::Fixed(MAX_LOOKAHEAD).validated(),
            Ok(Lookahead::Fixed(MAX_LOOKAHEAD))
        );
        assert_eq!(Lookahead::Auto.validated(), Ok(Lookahead::Auto));
        assert_eq!(Lookahead::default(), Lookahead::Fixed(1));
        assert!(StatsError::BadLookahead { k: 0 }
            .to_string()
            .contains("lookahead"));
    }

    #[test]
    fn fixed_group_size_is_clamped_to_what_the_cell_can_run() {
        let rule = StopRule::new(2, 10, 20.0, 0.75).unwrap();
        let mut acc = Streaming::new();
        acc.push(50.0);
        acc.push(60.0);
        // Plenty of room: K wins.
        assert_eq!(Lookahead::Fixed(3).group_size(&rule, &acc, 20), 3);
        // Fewer points left than K.
        assert_eq!(Lookahead::Fixed(8).group_size(&rule, &acc, 2), 2);
        // max_trials ceiling: only 10 − 2 = 8 trials may still run.
        assert_eq!(Lookahead::Fixed(16).group_size(&rule, &acc, 20), 8);
        // Never exceeds the engine's multi-map width.
        let wide = StopRule::new(2, 100, 20.0, 0.75).unwrap();
        assert_eq!(
            Lookahead::Fixed(MAX_LOOKAHEAD).group_size(&wide, &acc, 64),
            MAX_LOOKAHEAD
        );
    }

    #[test]
    fn auto_group_size_tracks_the_half_width_ratio() {
        // The bench rule: range 100, confidence 0.75 (δ 0.25), target 20.
        // At n = 8 the Hoeffding bound is 100·sqrt(ln8/16) ≈ 36.05, so
        // the predictor asks for 8·(36.05/20)² − 8 ≈ 18 → clamped to 16.
        let rule = StopRule::new(8, 96, 20.0, 0.75).unwrap();
        let mut acc = Streaming::new();
        for i in 0..8 {
            acc.push(if i % 2 == 0 { 40.0 } else { 60.0 });
        }
        assert_eq!(Lookahead::Auto.group_size(&rule, &acc, 88), MAX_LOOKAHEAD);
        // At n = 24 the bound is ≈ 20.8 — nearly there: predict 2, not 16.
        for i in 8..24 {
            acc.push(if i % 2 == 0 { 40.0 } else { 60.0 });
        }
        assert_eq!(Lookahead::Auto.group_size(&rule, &acc, 72), 2);
        // A zero target half-width can never satisfy: take the full cap.
        let degenerate = StopRule::new(2, 96, 0.0, 0.75).unwrap();
        assert_eq!(
            Lookahead::Auto.group_size(&degenerate, &acc, 72),
            MAX_LOOKAHEAD
        );
        // Auto never predicts below one trial even when satisfied-adjacent.
        let loose = StopRule::new(2, 96, 80.0, 0.75).unwrap();
        assert_eq!(Lookahead::Auto.group_size(&loose, &acc, 72), 1);
    }
}
