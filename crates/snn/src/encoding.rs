//! Poisson rate encoding of images into spike trains.
//!
//! Each pixel of intensity `p ∈ [0, 1]` becomes an independent Bernoulli
//! process firing with probability `p * max_rate` per timestep, the standard
//! rate coding used by the paper's evaluation framework (and by BindsNET).
//!
//! # Integer thresholds
//!
//! A channel fires at a step when a uniform draw `u` falls below its
//! probability `p`. The draw is `gen::<f32>()`, which is `k · 2⁻²⁴` with
//! `k = next_u32() >> 8`: an exact value. Because `p ≤ 1`, `p · 2²⁴` is
//! exact too (scaling by a power of two only moves the exponent, also for
//! subnormal `p`). So `u < p` holds exactly when `k < ceil(p · 2²⁴)`, and
//! the encoder compares integers: once per image it lists the channels
//! with `p > 0` together with that threshold, and each step draws once per
//! listed channel, in channel order. Channels with `p ≤ 0` or a NaN `p`
//! never fire and never draw. The trains and the RNG stream are those of
//! the float formulation `p > 0.0 && rng.gen::<f32>() < p`, which
//! `crates/snn/tests/proptest_trainer_equivalence.rs` keeps as its oracle.

use crate::rng::Rng;
use crate::spike::SpikeTrain;
use rand::RngCore as _;

/// Poisson (Bernoulli-per-step) rate encoder.
///
/// # Examples
///
/// ```
/// use snn_sim::encoding::PoissonEncoder;
/// use snn_sim::rng::seeded_rng;
///
/// let enc = PoissonEncoder::new(0.5);
/// let mut rng = seeded_rng(1);
/// let train = enc.encode(&[1.0, 0.0], 100, &mut rng);
/// let counts = train.channel_counts();
/// assert!(counts[0] > 30);      // bright pixel fires ~50% of steps
/// assert_eq!(counts[1], 0);     // dark pixel never fires
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonEncoder {
    max_rate: f32,
}

impl PoissonEncoder {
    /// Creates an encoder with peak per-step firing probability `max_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is not in `[0, 1]`.
    pub fn new(max_rate: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&max_rate),
            "max_rate must be a probability in [0, 1]"
        );
        Self { max_rate }
    }

    /// The configured peak firing probability.
    pub fn max_rate(&self) -> f32 {
        self.max_rate
    }

    /// Encodes `intensities` (each in `[0, 1]`) into a spike train of
    /// `timesteps` steps.
    ///
    /// Intensities outside `[0, 1]` are clamped.
    ///
    /// Delegates to [`PoissonEncoder::encode_into`] on a fresh train, so
    /// there is exactly one sampling loop and the two paths can never
    /// drift apart in their RNG draw sequence.
    pub fn encode(&self, intensities: &[f32], timesteps: u32, rng: &mut Rng) -> SpikeTrain {
        let mut train = SpikeTrain::new(intensities.len(), timesteps as usize);
        self.encode_into(intensities, timesteps, rng, &mut train);
        // A fresh train is usually kept (an encoded test set holds one per
        // sample), so it does not keep the encoder's tables.
        drop(train.take_encode_scratch());
        train
    }

    /// Encodes into an existing train, reusing its step buffers: given the
    /// same RNG stream this produces a train equal to
    /// [`PoissonEncoder::encode`] (identical Bernoulli draw sequence)
    /// while performing no per-step allocations, so training/assignment/
    /// evaluation loops can recycle one buffer across every sample.
    ///
    /// Intensities outside `[0, 1]` are clamped.
    pub fn encode_into(
        &self,
        intensities: &[f32],
        timesteps: u32,
        rng: &mut Rng,
        out: &mut SpikeTrain,
    ) {
        out.clear_reuse(intensities.len(), timesteps as usize);
        // The per-image tables live in the train between calls, so a
        // reused train allocates nothing at all.
        let mut scratch = out.take_encode_scratch();
        scratch.load(intensities, self.max_rate);
        for _ in 0..timesteps {
            let hits = scratch.draw(rng);
            // One push per spike, not `extend_from_slice`: pushes grow a
            // fresh step buffer to power-of-two capacities. Exact-size
            // buffers in the kept test sets fragmented the heap across
            // re-encodes and raised e2ebench `campaign_adaptive`'s
            // `peak_rss_mb` from 13.8 to 15.5 MB.
            out.push_step_with(|active| {
                for &c in hits {
                    active.push(c);
                }
            });
        }
        out.put_encode_scratch(scratch);
    }
}

/// The encoder's per-image tables (see the module docs' *Integer
/// thresholds*).
#[derive(Debug, Clone, Default)]
pub(crate) struct EncodeScratch {
    /// Channels with `p > 0`, ascending.
    channels: Vec<u32>,
    /// `ceil(p · 2²⁴)` of each listed channel.
    thresholds: Vec<u32>,
    /// One step's spikes: every listed channel is written, and the write
    /// position advances past the ones that fire.
    hits: Vec<u32>,
}

impl EncodeScratch {
    /// Lists the channels that can fire and their thresholds.
    fn load(&mut self, intensities: &[f32], max_rate: f32) {
        self.channels.clear();
        self.thresholds.clear();
        for (i, &x) in intensities.iter().enumerate() {
            let p = x.clamp(0.0, 1.0) * max_rate;
            if p > 0.0 {
                self.channels.push(i as u32);
                self.thresholds.push((p * (1 << 24) as f32).ceil() as u32);
            }
        }
        self.hits.clear();
        self.hits.resize(self.channels.len(), 0);
    }

    /// Draws one step: the listed channels that fire, ascending.
    fn draw(&mut self, rng: &mut Rng) -> &[u32] {
        let mut n = 0;
        for (&c, &t) in self.channels.iter().zip(&self.thresholds) {
            self.hits[n] = c;
            n += usize::from((rng.next_u32() >> 8) < t);
        }
        &self.hits[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn rates_scale_with_intensity() {
        let enc = PoissonEncoder::new(0.4);
        let mut rng = seeded_rng(3);
        let train = enc.encode(&[0.25, 0.75], 4000, &mut rng);
        let counts = train.channel_counts();
        let r0 = counts[0] as f64 / 4000.0;
        let r1 = counts[1] as f64 / 4000.0;
        assert!((r0 - 0.1).abs() < 0.02, "r0={r0}");
        assert!((r1 - 0.3).abs() < 0.02, "r1={r1}");
    }

    #[test]
    fn zero_rate_encoder_is_silent() {
        let enc = PoissonEncoder::new(0.0);
        let mut rng = seeded_rng(3);
        let train = enc.encode(&[1.0; 16], 50, &mut rng);
        assert_eq!(train.total_spikes(), 0);
    }

    #[test]
    fn intensities_are_clamped() {
        let enc = PoissonEncoder::new(1.0);
        let mut rng = seeded_rng(3);
        let train = enc.encode(&[5.0], 10, &mut rng);
        assert_eq!(train.channel_counts()[0], 10); // clamped to 1.0 -> fires every step
    }

    #[test]
    fn deterministic_for_same_seed() {
        let enc = PoissonEncoder::new(0.3);
        let a = enc.encode(&[0.5; 8], 20, &mut seeded_rng(11));
        let b = enc.encode(&[0.5; 8], 20, &mut seeded_rng(11));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn rejects_rate_above_one() {
        let _ = PoissonEncoder::new(1.2);
    }

    #[test]
    fn encode_into_equals_encode_for_same_rng_stream() {
        let enc = PoissonEncoder::new(0.6);
        let img: Vec<f32> = (0..32).map(|i| (i as f32) / 40.0).collect();
        let fresh = enc.encode(&img, 25, &mut seeded_rng(0xE0C0));
        let mut reused = SpikeTrain::new(1, 1);
        // Dirty the buffer first so reuse actually has something to clear.
        reused.push_step(vec![0]);
        enc.encode_into(&img, 25, &mut seeded_rng(0xE0C0), &mut reused);
        assert_eq!(fresh, reused);
        // The RNG is left in the same state: subsequent encodes agree too.
        let mut rng_a = seeded_rng(7);
        let mut rng_b = seeded_rng(7);
        let a1 = enc.encode(&img, 10, &mut rng_a);
        let a2 = enc.encode(&img, 10, &mut rng_a);
        enc.encode_into(&img, 10, &mut rng_b, &mut reused);
        assert_eq!(a1, reused);
        enc.encode_into(&img, 10, &mut rng_b, &mut reused);
        assert_eq!(a2, reused);
    }
}
