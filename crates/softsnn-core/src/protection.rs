//! Neuron protection: the faulty-`Vmem reset` monitor (paper Sec. 3.2/3.3).
//!
//! A healthy neuron's `Vmem ≥ Vth` comparator is true for a single cycle
//! at a time — the reset operation immediately pulls `Vmem` back below
//! threshold. A neuron whose reset operation is fault-stuck keeps its
//! comparator true cycle after cycle and floods the network with burst
//! spikes that dominate classification (the catastrophic case of
//! Fig. 10a). The monitor counts consecutive true cycles per neuron; at
//! `window` (paper: 2) it latches that neuron's spike generation off until
//! parameter replacement. In hardware this is the AND gate + output mux of
//! Fig. 11(c).
//!
//! # Batched observation
//!
//! The monitor stores its per-neuron latches as `u64` bitmask words
//! (bit `j % 64` of word `j / 64`), which makes the engine's batched
//! [`SpikeGuard::observe_cycle`] protocol nearly free: for the paper's
//! 2-cycle window the whole update is
//! `disabled |= streak & cmp; streak = cmp; allow = !disabled` — three
//! word operations per 64 neurons per cycle, replacing 64 stateful calls.
//! Wider windows keep exact per-neuron streak counters but only touch
//! words with a nonzero comparator or live streak, so idle regions of the
//! network cost one word compare per cycle.

use snn_hw::engine::SpikeGuard;

/// The paper's monitor window: `Vmem ≥ Vth` for ≥ 2 consecutive cycles
/// flags a faulty reset.
pub const PAPER_WINDOW: u8 = 2;

/// Per-neuron faulty-reset monitor implementing [`SpikeGuard`].
///
/// # Examples
///
/// ```
/// use softsnn_core::protection::ResetMonitor;
/// use snn_hw::engine::SpikeGuard;
///
/// let mut m = ResetMonitor::new(1, 2);
/// assert!(m.allow_spike(0, true));  // first hot cycle: spike allowed
/// assert!(!m.allow_spike(0, true)); // second consecutive: latched off
/// assert!(m.is_disabled(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetMonitor {
    window: u8,
    n_neurons: usize,
    /// Bit `j`: neuron `j`'s comparator was true last cycle (i.e. its
    /// consecutive-hot streak is nonzero).
    streak_words: Vec<u64>,
    /// Bit `j`: neuron `j`'s spike generation is latched off.
    disabled_words: Vec<u64>,
    /// Exact streak counters, maintained only when `window > 2` (for
    /// windows ≤ 2 the streak bitmask fully determines behaviour).
    consecutive: Vec<u8>,
}

impl ResetMonitor {
    /// Creates a monitor for `n_neurons` neurons with the given window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(n_neurons: usize, window: u8) -> Self {
        assert!(window > 0, "monitor window must be at least 1 cycle");
        let words = n_neurons.div_ceil(64);
        Self {
            window,
            n_neurons,
            streak_words: vec![0; words],
            disabled_words: vec![0; words],
            consecutive: if window > 2 {
                vec![0; n_neurons]
            } else {
                Vec::new()
            },
        }
    }

    /// Creates a monitor with the paper's 2-cycle window.
    pub fn paper(n_neurons: usize) -> Self {
        Self::new(n_neurons, PAPER_WINDOW)
    }

    /// The configured window length.
    pub fn window(&self) -> u8 {
        self.window
    }

    /// Number of monitored neurons.
    pub fn n_neurons(&self) -> usize {
        self.n_neurons
    }

    /// Whether neuron `j`'s spike generation is currently latched off.
    pub fn is_disabled(&self, j: usize) -> bool {
        self.disabled_words[j >> 6] & (1 << (j & 63)) != 0
    }

    /// Number of neurons currently latched off — a popcount over the
    /// disabled bitmask, O(words) rather than O(neurons).
    pub fn n_disabled(&self) -> usize {
        self.disabled_words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

impl SpikeGuard for ResetMonitor {
    fn allow_spike(&mut self, neuron: usize, cmp_out: bool) -> bool {
        // Explicit bounds check: the word indexing below would otherwise
        // silently accept (and latch padding bits for) out-of-range
        // neurons up to the word capacity.
        assert!(
            neuron < self.n_neurons,
            "neuron {neuron} out of range for a {}-neuron monitor",
            self.n_neurons
        );
        let w = neuron >> 6;
        let bit = 1_u64 << (neuron & 63);
        if cmp_out {
            let latch = match self.window {
                1 => true,
                2 => self.streak_words[w] & bit != 0,
                window => {
                    let c = self.consecutive[neuron].saturating_add(1);
                    self.consecutive[neuron] = c;
                    c >= window
                }
            };
            if latch {
                self.disabled_words[w] |= bit;
            }
            self.streak_words[w] |= bit;
        } else {
            self.streak_words[w] &= !bit;
            if self.window > 2 {
                self.consecutive[neuron] = 0;
            }
        }
        self.disabled_words[w] & bit == 0
    }

    // Always inlined, so the engine's AVX2 lane pass compiles it in.
    #[inline(always)]
    fn observe_cycle(&mut self, cmp_words: &[u64], allow_words: &mut [u64], n_neurons: usize) {
        // A monitor smaller than the observed engine would otherwise
        // leave the uncovered allow words stale — a silent mute of every
        // neuron past its capacity. Fail loudly, like the per-neuron
        // protocol does.
        assert!(
            n_neurons <= self.n_neurons,
            "monitor sized for {} neurons observed a {n_neurons}-neuron cycle",
            self.n_neurons
        );
        let words = self
            .disabled_words
            .len()
            .min(cmp_words.len())
            .min(allow_words.len());
        match self.window {
            1 => {
                for w in 0..words {
                    self.disabled_words[w] |= cmp_words[w];
                    self.streak_words[w] = cmp_words[w];
                    allow_words[w] = !self.disabled_words[w];
                }
            }
            2 => {
                // The paper's window: a neuron latches iff it was hot last
                // cycle and is hot again — `prev & cmp`.
                for w in 0..words {
                    let cmp = cmp_words[w];
                    self.disabled_words[w] |= self.streak_words[w] & cmp;
                    self.streak_words[w] = cmp;
                    allow_words[w] = !self.disabled_words[w];
                }
            }
            window => {
                for w in 0..words {
                    let cmp = cmp_words[w];
                    // Lanes with no comparator activity and no live streak
                    // need no counter work at all.
                    let mut touched = cmp | self.streak_words[w];
                    if touched != 0 {
                        let mut streak = 0_u64;
                        while touched != 0 {
                            let b = touched.trailing_zeros() as usize;
                            touched &= touched - 1;
                            let j = w * 64 + b;
                            if cmp & (1 << b) != 0 {
                                let c = self.consecutive[j].saturating_add(1);
                                self.consecutive[j] = c;
                                if c >= window {
                                    self.disabled_words[w] |= 1 << b;
                                }
                                streak |= 1 << b;
                            } else {
                                self.consecutive[j] = 0;
                            }
                        }
                        self.streak_words[w] = streak;
                    }
                    allow_words[w] = !self.disabled_words[w];
                }
            }
        }
    }

    fn on_param_reload(&mut self) {
        self.streak_words.fill(0);
        self.disabled_words.fill(0);
        self.consecutive.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_single_cycle_fires_are_always_allowed() {
        let mut m = ResetMonitor::paper(1);
        for _ in 0..100 {
            assert!(m.allow_spike(0, true)); // fire
            assert!(m.allow_spike(0, false)); // reset pulled Vmem down
        }
        assert!(!m.is_disabled(0));
    }

    #[test]
    fn two_consecutive_hot_cycles_latch_off() {
        let mut m = ResetMonitor::paper(1);
        assert!(m.allow_spike(0, true));
        assert!(!m.allow_spike(0, true), "second hot cycle must be vetoed");
        // Stays off even if the comparator later goes false.
        assert!(!m.allow_spike(0, false));
        assert!(!m.allow_spike(0, true));
        assert_eq!(m.n_disabled(), 1);
    }

    #[test]
    fn neurons_are_independent() {
        let mut m = ResetMonitor::paper(2);
        m.allow_spike(0, true);
        m.allow_spike(0, true); // neuron 0 latches
        assert!(m.is_disabled(0));
        assert!(!m.is_disabled(1));
        assert!(m.allow_spike(1, true));
    }

    #[test]
    fn param_reload_heals_latches() {
        let mut m = ResetMonitor::paper(1);
        m.allow_spike(0, true);
        m.allow_spike(0, true);
        assert!(m.is_disabled(0));
        m.on_param_reload();
        assert!(!m.is_disabled(0));
        assert!(m.allow_spike(0, true));
    }

    #[test]
    fn wider_window_tolerates_longer_streaks() {
        let mut m = ResetMonitor::new(1, 4);
        assert!(m.allow_spike(0, true));
        assert!(m.allow_spike(0, true));
        assert!(m.allow_spike(0, true));
        assert!(!m.allow_spike(0, true), "fourth consecutive latches");
    }

    #[test]
    fn interrupted_streaks_reset_the_counter() {
        let mut m = ResetMonitor::paper(1);
        assert!(m.allow_spike(0, true));
        assert!(m.allow_spike(0, false));
        assert!(m.allow_spike(0, true), "streak was broken, still allowed");
        assert!(!m.is_disabled(0));
    }

    #[test]
    #[should_panic]
    fn zero_window_panics() {
        let _ = ResetMonitor::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_neuron_panics() {
        // Word capacity (128 bits for n=70) must not silently accept
        // neurons beyond n_neurons.
        let mut m = ResetMonitor::paper(70);
        m.allow_spike(100, true);
    }

    #[test]
    #[should_panic(expected = "observed a")]
    fn undersized_monitor_rejects_batched_cycle() {
        // A monitor smaller than the engine must fail loudly under the
        // batched protocol, like the per-neuron protocol does.
        let mut m = ResetMonitor::paper(64);
        let cmp = vec![0_u64; 2];
        let mut allow = vec![0_u64; 2];
        m.observe_cycle(&cmp, &mut allow, 100);
    }

    /// Deterministic pseudo-random comparator pattern over `n` neurons.
    fn cmp_pattern(n: usize, cycle: usize) -> Vec<bool> {
        (0..n)
            .map(|j| {
                // Mix of cold neurons, single-cycle fires, and long streaks.
                match j % 5 {
                    0 => false,
                    1 => (cycle + j).is_multiple_of(7),
                    2 => cycle % 4 < 2,
                    3 => cycle >= j % 11,
                    _ => (cycle * 31 + j * 17).is_multiple_of(3),
                }
            })
            .collect()
    }

    fn to_words(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0_u64; bits.len().div_ceil(64)];
        for (j, &b) in bits.iter().enumerate() {
            words[j >> 6] |= (b as u64) << (j & 63);
        }
        words
    }

    #[test]
    fn batched_observe_cycle_matches_per_neuron_calls() {
        // The word-level batched implementation must agree with one
        // allow_spike call per neuron, for every window class (1, the
        // paper's 2, and the counter-based wide path), across word
        // boundaries (n = 130 spans three words).
        let n = 130;
        for window in [1_u8, 2, 3, 5] {
            let mut scalar = ResetMonitor::new(n, window);
            let mut batched = ResetMonitor::new(n, window);
            let mut allow_words = vec![0_u64; n.div_ceil(64)];
            for cycle in 0..40 {
                let cmp = cmp_pattern(n, cycle);
                let cmp_words = to_words(&cmp);
                batched.observe_cycle(&cmp_words, &mut allow_words, n);
                for (j, &c) in cmp.iter().enumerate() {
                    let allowed_scalar = scalar.allow_spike(j, c);
                    let allowed_batched = (allow_words[j >> 6] >> (j & 63)) & 1 != 0;
                    assert_eq!(
                        allowed_batched, allowed_scalar,
                        "window {window}, cycle {cycle}, neuron {j}"
                    );
                }
                assert_eq!(batched, scalar, "window {window}, cycle {cycle}");
            }
        }
    }

    #[test]
    fn n_disabled_popcount_matches_per_neuron_view() {
        // Regression pin for the O(words) popcount: it must agree with
        // counting is_disabled across every neuron, under both the scalar
        // and batched update paths.
        let n = 200;
        for window in [1_u8, 2, 4] {
            let mut m = ResetMonitor::new(n, window);
            let mut allow_words = vec![0_u64; n.div_ceil(64)];
            for cycle in 0..30 {
                let cmp = cmp_pattern(n, cycle);
                if cycle % 2 == 0 {
                    m.observe_cycle(&to_words(&cmp), &mut allow_words, n);
                } else {
                    for (j, &c) in cmp.iter().enumerate() {
                        m.allow_spike(j, c);
                    }
                }
                let per_neuron = (0..n).filter(|&j| m.is_disabled(j)).count();
                assert_eq!(m.n_disabled(), per_neuron, "window {window}, cycle {cycle}");
            }
            assert!(m.n_disabled() > 0, "pattern must latch some neurons");
        }
    }

    #[test]
    fn batched_reload_heals_and_reuses() {
        let n = 70;
        let mut m = ResetMonitor::paper(n);
        let mut allow = vec![0_u64; 2];
        // All 70 neurons hot; padding bits beyond n stay zero per the
        // observe_cycle contract.
        let hot = vec![u64::MAX, (1_u64 << 6) - 1];
        m.observe_cycle(&hot, &mut allow, n);
        m.observe_cycle(&hot, &mut allow, n);
        assert_eq!(m.n_disabled(), n);
        m.on_param_reload();
        assert_eq!(m.n_disabled(), 0);
        m.observe_cycle(&hot, &mut allow, n);
        assert_eq!(m.n_disabled(), 0, "first hot cycle after heal is allowed");
    }
}
