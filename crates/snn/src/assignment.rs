//! Neuron-to-class assignment and spike-count decoding for the
//! unsupervised classifier.
//!
//! After unsupervised STDP training, a labeled pass collects per-neuron,
//! per-class response rates. [`Assignment::predict`] decodes a sample's
//! output spike counts from those statistics:
//!
//! * with rate templates (an assignment built from responses) it
//!   correlates the spike-count vector against each class's mean rate
//!   template ([`Assignment::predict_template`]). This uses exactly the
//!   same assignment statistics but tolerates the class-mixed neurons that
//!   short unsupervised training produces, which matters for laptop-scale
//!   reproductions (the paper trains on 3×60k samples);
//! * without them (an assignment built from explicit labels) it takes the
//!   classical Diehl & Cook mean vote ([`Assignment::predict_mean_vote`]):
//!   each neuron is assigned its argmax class, and the predicted class is
//!   the one whose assigned neurons fired most on average.
//!
//! Both read only the compute engine's *output spike counts*; in the
//! paper's accelerator the class readout happens off the compute engine,
//! so the decoding is orthogonal to the soft-error mitigation being
//! studied.

use crate::error::SnnError;

/// A mapping from excitatory neurons to class labels.
///
/// # Examples
///
/// ```
/// use snn_sim::assignment::Assignment;
///
/// // Two neurons for class 0, one for class 1.
/// let a = Assignment::from_labels(vec![Some(0), Some(0), Some(1)], 2).unwrap();
/// // Neuron votes: neuron 2 fires a lot -> class 1 wins.
/// assert_eq!(a.predict(&[1, 0, 9]), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    labels: Vec<Option<usize>>,
    n_classes: usize,
    per_class: Vec<usize>,
    /// Flattened `[neuron][class]` mean response rates; present when built
    /// from response statistics.
    templates: Option<Vec<f64>>,
    /// Per-class mean of the template column over neurons, precomputed at
    /// construction (templates are immutable) so
    /// [`Assignment::predict_template`] — called once per evaluated
    /// sample — does not re-derive it per prediction. Empty when no
    /// templates were recorded.
    template_means: Vec<f64>,
    /// Per-class template deviation sums `Σ_j (t[j][c] − mean_c)²`,
    /// precomputed for the same reason (class-invariant across
    /// predictions). Empty when no templates were recorded.
    template_devs: Vec<f64>,
}

impl Assignment {
    /// Builds an assignment from explicit per-neuron labels.
    ///
    /// `None` marks a neuron that never responded during assignment and
    /// does not vote. Without response statistics [`Assignment::predict`]
    /// takes the mean vote.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if any label is `>= n_classes`.
    pub fn from_labels(labels: Vec<Option<usize>>, n_classes: usize) -> Result<Self, SnnError> {
        if labels.iter().flatten().any(|&c| c >= n_classes) {
            return Err(SnnError::InvalidConfig {
                field: "labels",
                reason: format!("labels must be < n_classes ({n_classes})"),
            });
        }
        let mut per_class = vec![0_usize; n_classes];
        for &c in labels.iter().flatten() {
            per_class[c] += 1;
        }
        Ok(Self {
            labels,
            n_classes,
            per_class,
            templates: None,
            template_means: Vec::new(),
            template_devs: Vec::new(),
        })
    }

    /// Builds the assignment from accumulated response statistics:
    /// `responses[j][c]` = total spikes of neuron `j` over samples of class
    /// `c`, with `class_counts[c]` samples per class.
    ///
    /// Responses are normalized per class (so an over-represented class
    /// does not grab every neuron) and each neuron takes the argmax class;
    /// neurons with zero total response stay unassigned.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if rows have inconsistent width.
    pub fn from_responses(
        responses: &[Vec<u64>],
        class_counts: &[usize],
    ) -> Result<Self, SnnError> {
        Self::from_responses_selective(responses, class_counts, 0.0)
    }

    /// Like [`Assignment::from_responses`], but leaves *unselective*
    /// neurons unassigned: a neuron only votes if its best per-class rate
    /// is at least `min_selectivity ×` its mean per-class rate.
    ///
    /// Neurons that never specialized during (short) unsupervised training
    /// respond almost identically to every class; letting them vote adds a
    /// constant per-class bias that can dominate the mean-rate vote. A
    /// `min_selectivity` of 1.2–1.6 excludes them while keeping genuinely
    /// tuned neurons.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if rows have inconsistent width.
    pub fn from_responses_selective(
        responses: &[Vec<u64>],
        class_counts: &[usize],
        min_selectivity: f64,
    ) -> Result<Self, SnnError> {
        let n_classes = class_counts.len();
        let mut labels = Vec::with_capacity(responses.len());
        for row in responses {
            if row.len() != n_classes {
                return Err(SnnError::ShapeMismatch {
                    expected: n_classes,
                    actual: row.len(),
                    what: "response row",
                });
            }
            let mut best: Option<(usize, f64)> = None;
            let mut rate_sum = 0.0;
            let mut rated_classes = 0_usize;
            for (c, &count) in row.iter().enumerate() {
                if class_counts[c] == 0 {
                    continue;
                }
                let rate = count as f64 / class_counts[c] as f64;
                rate_sum += rate;
                rated_classes += 1;
                if count > 0 && best.is_none_or(|(_, b)| rate > b) {
                    best = Some((c, rate));
                }
            }
            let label = best.and_then(|(c, peak)| {
                let mean = if rated_classes > 0 {
                    rate_sum / rated_classes as f64
                } else {
                    0.0
                };
                if mean <= 0.0 || peak >= min_selectivity * mean {
                    Some(c)
                } else {
                    None
                }
            });
            labels.push(label);
        }
        let mut assignment = Self::from_labels(labels, n_classes)?;
        // Rate templates: mean spikes per sample of class c for neuron j.
        let mut templates = vec![0.0_f64; responses.len() * n_classes];
        for (j, row) in responses.iter().enumerate() {
            for (c, &count) in row.iter().enumerate() {
                if class_counts[c] > 0 {
                    templates[j * n_classes + c] = count as f64 / class_counts[c] as f64;
                }
            }
        }
        // Per-class means and deviation sums over neurons, accumulated in
        // neuron order — the same values `predict_template` would
        // otherwise re-derive from the gathered column on every
        // prediction.
        let n_neurons = responses.len();
        let mut template_means = vec![0.0_f64; n_classes];
        let mut template_devs = vec![0.0_f64; n_classes];
        if n_neurons > 0 {
            let nf = n_neurons as f64;
            for (c, (mean, dev)) in template_means
                .iter_mut()
                .zip(template_devs.iter_mut())
                .enumerate()
            {
                let mut sum = 0.0_f64;
                for j in 0..n_neurons {
                    sum += templates[j * n_classes + c];
                }
                *mean = sum / nf;
                for j in 0..n_neurons {
                    *dev += (templates[j * n_classes + c] - *mean).powi(2);
                }
            }
        }
        assignment.templates = Some(templates);
        assignment.template_means = template_means;
        assignment.template_devs = template_devs;
        Ok(assignment)
    }

    /// Number of neurons covered.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the assignment covers zero neurons.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The label of neuron `j` (`None` = unassigned).
    pub fn label(&self, j: usize) -> Option<usize> {
        self.labels[j]
    }

    /// Per-neuron labels.
    pub fn labels(&self) -> &[Option<usize>] {
        &self.labels
    }

    /// How many neurons are assigned to each class.
    pub fn class_sizes(&self) -> &[usize] {
        &self.per_class
    }

    /// Fraction of neurons that received a label.
    pub fn coverage(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|l| l.is_some()).count() as f64 / self.labels.len() as f64
    }

    /// The per-class rate template over neurons, if response statistics
    /// were recorded (`templates()[j]` = mean spikes of neuron `j` per
    /// sample of `class`).
    pub fn template(&self, class: usize) -> Option<Vec<f64>> {
        let t = self.templates.as_ref()?;
        Some(
            (0..self.labels.len())
                .map(|j| t[j * self.n_classes + class])
                .collect(),
        )
    }

    /// Predicts the class for one sample from per-neuron output spike
    /// counts: rate-template matching when response statistics were
    /// recorded, the mean vote otherwise. Returns `None` if no decision can
    /// be made (e.g. the network stayed silent).
    ///
    /// # Panics
    ///
    /// Panics if `spike_counts.len()` differs from [`Assignment::len`].
    pub fn predict(&self, spike_counts: &[u32]) -> Option<usize> {
        assert_eq!(
            spike_counts.len(),
            self.labels.len(),
            "spike count vector must cover every neuron"
        );
        if self.templates.is_some() {
            self.predict_template(spike_counts)
        } else {
            self.predict_mean_vote(spike_counts)
        }
    }

    /// The classical Diehl & Cook mean-rate vote over assigned neurons.
    ///
    /// # Panics
    ///
    /// Panics if `spike_counts.len()` differs from [`Assignment::len`].
    pub fn predict_mean_vote(&self, spike_counts: &[u32]) -> Option<usize> {
        assert_eq!(spike_counts.len(), self.labels.len());
        let mut sums = vec![0_u64; self.n_classes];
        for (j, &count) in spike_counts.iter().enumerate() {
            if let Some(c) = self.labels[j] {
                sums[c] += count as u64;
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (c, (&sum, &n)) in sums.iter().zip(&self.per_class).enumerate() {
            if n == 0 {
                continue;
            }
            let mean = sum as f64 / n as f64;
            if mean > 0.0 && best.is_none_or(|(_, b)| mean > b) {
                best = Some((c, mean));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Rate-template matching: Pearson-correlates the spike-count vector
    /// against each class's rate template. Returns `None` when the count
    /// vector or every template is constant (no information), or when no
    /// templates were recorded.
    ///
    /// Allocation-free: correlations are computed by iterating the flat
    /// template store directly instead of materializing per-class column
    /// vectors, with the class-invariant count-deviation sum hoisted out
    /// of the class loop and the per-class template means/deviations
    /// precomputed at construction — the arithmetic (and therefore every
    /// prediction) is identical to a Pearson correlation over gathered
    /// columns, which the unit tests cross-check against an oracle. This
    /// sits in evaluation's innermost loop (one call per sample), so it
    /// must not allocate.
    pub fn predict_template(&self, spike_counts: &[u32]) -> Option<usize> {
        assert_eq!(spike_counts.len(), self.labels.len());
        let templates = self.templates.as_ref()?;
        let n = self.labels.len();
        if n == 0 {
            return None;
        }
        let nf = n as f64;
        let mut sum_a = 0.0_f64;
        for &c in spike_counts {
            sum_a += c as f64;
        }
        let ma = sum_a / nf;
        // The count-side deviation sum is class-invariant: computed once,
        // outside the class loop. Zero variance in the counts means no
        // class can correlate, exactly as in the per-class formulation.
        let mut da = 0.0_f64;
        for &count in spike_counts {
            da += (count as f64 - ma).powi(2);
        }
        if da <= 0.0 {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (c, (&mb, &db)) in self
            .template_means
            .iter()
            .zip(&self.template_devs)
            .enumerate()
        {
            if db <= 0.0 {
                continue;
            }
            let mut num = 0.0;
            for (j, &count) in spike_counts.iter().enumerate() {
                let x = count as f64;
                let y = templates[j * self.n_classes + c];
                num += (x - ma) * (y - mb);
            }
            let r = num / (da * db).sqrt();
            if best.is_none_or(|(_, b)| r > b) {
                best = Some((c, r));
            }
        }
        best.map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pearson correlation over gathered slices; `None` when either side
    /// has zero variance. The oracle for
    /// [`Assignment::predict_template`]'s strided inline formulation.
    fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
        let n = a.len() as f64;
        if a.is_empty() {
            return None;
        }
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for (x, y) in a.iter().zip(b) {
            num += (x - ma) * (y - mb);
            da += (x - ma).powi(2);
            db += (y - mb).powi(2);
        }
        if da <= 0.0 || db <= 0.0 {
            None
        } else {
            Some(num / (da * db).sqrt())
        }
    }

    #[test]
    fn from_labels_rejects_out_of_range() {
        assert!(Assignment::from_labels(vec![Some(5)], 3).is_err());
    }

    #[test]
    fn from_responses_assigns_argmax_class() {
        // neuron 0 responds to class 1, neuron 1 to class 0, neuron 2 silent.
        let responses = vec![vec![1, 10], vec![8, 2], vec![0, 0]];
        let a = Assignment::from_responses(&responses, &[10, 10]).unwrap();
        assert_eq!(a.label(0), Some(1));
        assert_eq!(a.label(1), Some(0));
        assert_eq!(a.label(2), None);
        assert!((a.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_responses_normalizes_by_class_count() {
        // Class 0 saw 100 samples, class 1 only 10. Raw counts favour class
        // 0 (20 vs 10) but the per-sample rate favours class 1 (0.2 vs 1.0).
        let responses = vec![vec![20, 10]];
        let a = Assignment::from_responses(&responses, &[100, 10]).unwrap();
        assert_eq!(a.label(0), Some(1));
    }

    #[test]
    fn predict_uses_mean_over_class_neurons() {
        // class 0 has two neurons, class 1 has one.
        let a = Assignment::from_labels(vec![Some(0), Some(0), Some(1)], 2).unwrap();
        // class 0 total = 6 over 2 neurons (mean 3); class 1 total 4 (mean 4).
        assert_eq!(a.predict(&[3, 3, 4]), Some(1));
    }

    #[test]
    fn predict_returns_none_when_silent() {
        let a = Assignment::from_labels(vec![Some(0), Some(1)], 2).unwrap();
        assert_eq!(a.predict(&[0, 0]), None);
    }

    #[test]
    fn unassigned_neurons_do_not_vote() {
        let a = Assignment::from_labels(vec![None, Some(1)], 2).unwrap();
        assert_eq!(a.predict(&[100, 1]), Some(1));
    }

    #[test]
    fn shape_mismatch_detected() {
        let responses = vec![vec![1, 2, 3]];
        assert!(Assignment::from_responses(&responses, &[1, 1]).is_err());
    }

    #[test]
    fn responses_enable_template_decoder() {
        let responses = vec![vec![10, 0], vec![0, 10], vec![5, 5]];
        let a = Assignment::from_responses(&responses, &[10, 10]).unwrap();
        assert!(a.template(0).is_some());
        // Sample that looks like class 0: neuron 0 fires, neuron 1 silent.
        assert_eq!(a.predict(&[8, 0, 3]), Some(0));
        // Sample that looks like class 1.
        assert_eq!(a.predict(&[0, 9, 4]), Some(1));
    }

    #[test]
    fn template_decoder_handles_silence() {
        let responses = vec![vec![10, 0], vec![0, 10]];
        let a = Assignment::from_responses(&responses, &[10, 10]).unwrap();
        assert_eq!(a.predict(&[0, 0]), None); // zero-variance counts
    }

    #[test]
    fn template_accessor_returns_per_class_rates() {
        let responses = vec![vec![10, 0], vec![0, 20]];
        let a = Assignment::from_responses(&responses, &[10, 10]).unwrap();
        assert_eq!(a.template(1).unwrap(), vec![0.0, 2.0]);
        let b = Assignment::from_labels(vec![Some(0)], 2).unwrap();
        assert!(b.template(0).is_none());
    }

    #[test]
    fn unselective_neurons_left_out_with_threshold() {
        // neuron 0: flat responder; neuron 1: selective.
        let responses = vec![vec![10, 10], vec![2, 20]];
        let a = Assignment::from_responses_selective(&responses, &[10, 10], 1.5).unwrap();
        assert_eq!(a.label(0), None);
        assert_eq!(a.label(1), Some(1));
    }

    #[test]
    fn predict_template_matches_gathered_pearson_oracle() {
        // The strided inline correlation must pick exactly the class the
        // original gather-into-columns formulation picks.
        let responses = vec![vec![10, 3, 1], vec![0, 9, 2], vec![5, 5, 5], vec![1, 0, 8]];
        let a = Assignment::from_responses(&responses, &[10, 9, 11]).unwrap();
        let n = responses.len();
        for counts in [[8_u32, 1, 4, 0], [0, 9, 5, 1], [2, 2, 2, 9], [0, 0, 0, 0]] {
            let gathered: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            let mut best: Option<(usize, f64)> = None;
            for c in 0..3 {
                let column: Vec<f64> = (0..n).map(|j| a.template(c).unwrap()[j]).collect();
                if let Some(r) = pearson(&gathered, &column) {
                    if best.is_none_or(|(_, b)| r > b) {
                        best = Some((c, r));
                    }
                }
            }
            assert_eq!(a.predict_template(&counts), best.map(|(c, _)| c));
        }
    }

    #[test]
    fn pearson_detects_zero_variance() {
        assert!(pearson(&[1.0, 1.0], &[0.0, 1.0]).is_none());
        assert!(pearson(&[], &[]).is_none());
        let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }
}
