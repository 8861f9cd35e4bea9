//! Spike-train containers shared between the encoder, the functional
//! simulator, and the hardware engine model, and the 0/1-byte ↔ bitmask
//! word conversions both neuron phases use for their spike words.

use crate::encoding::EncodeScratch;

/// A spike train over a fixed number of timesteps, stored as per-step lists
/// of active channel indices (sparse representation).
///
/// The sparse layout matches how both the functional simulator and the
/// hardware crossbar consume input: per timestep, iterate the spiking rows.
///
/// # Examples
///
/// ```
/// use snn_sim::spike::SpikeTrain;
///
/// let mut train = SpikeTrain::new(8, 3);
/// train.push_step(vec![0, 5]);
/// train.push_step(vec![]);
/// train.push_step(vec![7]);
/// assert_eq!(train.total_spikes(), 3);
/// assert_eq!(train.step(0), &[0, 5]);
/// ```
/// The first `filled` entries of `steps` are the logical timesteps;
/// entries beyond that are retained spare buffers from a previous use of
/// this train (see [`SpikeTrain::clear_reuse`]), so re-encoding a sample
/// into an existing train performs no per-step allocations.
#[derive(Debug, Clone, Default)]
pub struct SpikeTrain {
    n_channels: usize,
    steps: Vec<Vec<u32>>,
    filled: usize,
    capacity_steps: usize,
    /// The Poisson encoder's per-image tables, parked here between
    /// `encode_into` calls.
    encode_scratch: EncodeScratch,
}

/// Spare step buffers beyond the logical length (and the encoder scratch)
/// are an allocation-reuse detail: two trains are equal iff their
/// observable shape and recorded steps agree.
impl PartialEq for SpikeTrain {
    fn eq(&self, other: &Self) -> bool {
        self.n_channels == other.n_channels
            && self.capacity_steps == other.capacity_steps
            && self.steps[..self.filled] == other.steps[..other.filled]
    }
}

impl Eq for SpikeTrain {}

impl SpikeTrain {
    /// Creates an empty spike train for `n_channels` channels, expecting
    /// `n_steps` timesteps to be pushed.
    pub fn new(n_channels: usize, n_steps: usize) -> Self {
        Self {
            n_channels,
            steps: Vec::with_capacity(n_steps),
            filled: 0,
            capacity_steps: n_steps,
            encode_scratch: EncodeScratch::default(),
        }
    }

    /// Takes the train's encoder scratch; return it with
    /// [`SpikeTrain::put_encode_scratch`] when done so its allocations
    /// survive to the next use.
    pub(crate) fn take_encode_scratch(&mut self) -> EncodeScratch {
        std::mem::take(&mut self.encode_scratch)
    }

    /// Returns a scratch taken with [`SpikeTrain::take_encode_scratch`].
    pub(crate) fn put_encode_scratch(&mut self, scratch: EncodeScratch) {
        self.encode_scratch = scratch;
    }

    /// Number of channels (e.g. input pixels) this train covers.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Number of timesteps currently recorded.
    pub fn n_steps(&self) -> usize {
        self.filled
    }

    /// The number of steps this train was created for.
    pub fn expected_steps(&self) -> usize {
        self.capacity_steps
    }

    /// Clears the train for re-filling with a (possibly different) shape,
    /// retaining the per-step buffers so subsequent
    /// [`SpikeTrain::push_step_with`] calls allocate nothing. The
    /// workhorse behind `PoissonEncoder::encode_into`.
    pub fn clear_reuse(&mut self, n_channels: usize, n_steps: usize) {
        self.n_channels = n_channels;
        self.capacity_steps = n_steps;
        self.filled = 0;
    }

    /// Appends one timestep worth of spikes (channel indices).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any index is out of range.
    pub fn push_step(&mut self, mut active: Vec<u32>) {
        debug_assert!(
            active.iter().all(|&i| (i as usize) < self.n_channels),
            "spike index out of range"
        );
        active.sort_unstable();
        if self.filled < self.steps.len() {
            self.steps[self.filled] = active;
        } else {
            self.steps.push(active);
        }
        self.filled += 1;
    }

    /// Appends one timestep by handing `fill` a cleared, recycled buffer
    /// to push channel indices into — the allocation-free counterpart of
    /// [`SpikeTrain::push_step`] for trains prepared with
    /// [`SpikeTrain::clear_reuse`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `fill` pushes an out-of-range index.
    pub fn push_step_with(&mut self, fill: impl FnOnce(&mut Vec<u32>)) {
        if self.filled == self.steps.len() {
            self.steps.push(Vec::new());
        }
        let slot = &mut self.steps[self.filled];
        slot.clear();
        fill(slot);
        debug_assert!(
            slot.iter().all(|&i| (i as usize) < self.n_channels),
            "spike index out of range"
        );
        slot.sort_unstable();
        self.filled += 1;
    }

    /// The active channel indices at `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step >= self.n_steps()`.
    pub fn step(&self, step: usize) -> &[u32] {
        assert!(step < self.filled, "step out of range");
        &self.steps[step]
    }

    /// Iterator over per-step active-index slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.steps[..self.filled].iter().map(|v| v.as_slice())
    }

    /// Total number of spikes across all steps and channels.
    pub fn total_spikes(&self) -> usize {
        self.steps[..self.filled].iter().map(Vec::len).sum()
    }

    /// Per-channel spike counts.
    ///
    /// # Examples
    ///
    /// ```
    /// # use snn_sim::spike::SpikeTrain;
    /// let mut t = SpikeTrain::new(3, 2);
    /// t.push_step(vec![1]);
    /// t.push_step(vec![1, 2]);
    /// assert_eq!(t.channel_counts(), vec![0, 2, 1]);
    /// ```
    pub fn channel_counts(&self) -> Vec<u32> {
        let mut counts = vec![0_u32; self.n_channels];
        for step in &self.steps[..self.filled] {
            for &i in step {
                counts[i as usize] += 1;
            }
        }
        counts
    }

    /// Mean firing probability per channel per step.
    pub fn mean_rate(&self) -> f64 {
        if self.filled == 0 || self.n_channels == 0 {
            return 0.0;
        }
        self.total_spikes() as f64 / (self.filled * self.n_channels) as f64
    }
}

/// Packs 64 0/1 bytes into a bitmask word, byte `b` to bit `b`. Each
/// group of eight bytes is gathered by one multiply: byte `i`'s bit lands
/// on bit `56 + i` of the product, and no two partial products share a
/// bit, so nothing carries.
#[inline(always)]
pub fn pack_bytes(bytes: &[u8; 64]) -> u64 {
    let mut word = 0;
    for i in 0..8 {
        let eight = u64::from_le_bytes(std::array::from_fn(|k| bytes[8 * i + k]));
        word |= (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    word
}

/// Spreads a bitmask word into 64 0/1 bytes, bit `b` to byte `b` (the
/// inverse of [`pack_bytes`]): each group of eight bits is copied into
/// every byte, byte `i` keeps bit `i`, and adding `0x7f` moves any set
/// bit to the byte's top bit.
#[inline(always)]
pub fn spread_word(word: u64) -> [u8; 64] {
    let mut bytes = [0; 64];
    for i in 0..8 {
        let eight = (word >> (8 * i)) & 0xff;
        let picked = eight.wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
        let flags = ((picked + 0x7f7f_7f7f_7f7f_7f7f) >> 7) & 0x0101_0101_0101_0101;
        bytes[8 * i..8 * i + 8].copy_from_slice(&flags.to_le_bytes());
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_train_has_zero_spikes() {
        let t = SpikeTrain::new(4, 0);
        assert_eq!(t.total_spikes(), 0);
        assert_eq!(t.mean_rate(), 0.0);
    }

    #[test]
    fn push_and_read_back() {
        let mut t = SpikeTrain::new(10, 2);
        t.push_step(vec![3, 1]);
        // indices are kept sorted for deterministic iteration
        assert_eq!(t.step(0), &[1, 3]);
    }

    #[test]
    fn mean_rate_is_fraction_of_all_slots() {
        let mut t = SpikeTrain::new(4, 2);
        t.push_step(vec![0, 1]);
        t.push_step(vec![2, 3]);
        assert!((t.mean_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_panics_in_debug() {
        let mut t = SpikeTrain::new(2, 1);
        t.push_step(vec![5]);
        // silence "unused" when debug_assertions are off
        let _ = t.total_spikes();
        #[cfg(not(debug_assertions))]
        panic!("expected panic only in debug builds");
    }

    #[test]
    fn clear_reuse_produces_equal_trains_without_reallocating_steps() {
        let fill = |t: &mut SpikeTrain| {
            t.push_step_with(|a| a.extend([3, 1]));
            t.push_step_with(|_| {});
            t.push_step_with(|a| a.push(0));
        };
        let mut fresh = SpikeTrain::new(4, 3);
        fill(&mut fresh);

        let mut reused = SpikeTrain::new(4, 3);
        // Fill once with different content, then reuse.
        reused.push_step(vec![2, 0]);
        reused.push_step(vec![1]);
        reused.push_step(vec![3]);
        reused.clear_reuse(4, 3);
        fill(&mut reused);

        assert_eq!(fresh, reused);
        assert_eq!(
            reused.step(0),
            &[1, 3],
            "push_step_with sorts like push_step"
        );
        assert_eq!(reused.n_steps(), 3);
        assert_eq!(reused.total_spikes(), 3);
    }

    #[test]
    fn equality_ignores_spare_step_buffers() {
        let mut long = SpikeTrain::new(4, 3);
        long.push_step(vec![0]);
        long.push_step(vec![1]);
        long.push_step(vec![2]);
        long.clear_reuse(4, 1); // keeps three spare buffers
        long.push_step(vec![0]);

        let mut short = SpikeTrain::new(4, 1);
        short.push_step(vec![0]);

        assert_eq!(long, short);
        assert_eq!(long.n_steps(), 1);
        assert_eq!(long.channel_counts(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn spread_word_and_pack_bytes_are_inverse() {
        for word in [0, 1, 1 << 63, 0xdead_beef_0123_4567, u64::MAX] {
            let bytes = spread_word(word);
            assert!(bytes.iter().all(|&b| b <= 1));
            assert_eq!(pack_bytes(&bytes), word);
        }
    }

    #[test]
    fn clear_reuse_can_reshape_the_train() {
        let mut t = SpikeTrain::new(8, 2);
        t.push_step(vec![7]);
        t.clear_reuse(2, 4);
        t.push_step(vec![1]);
        assert_eq!(t.n_channels(), 2);
        assert_eq!(t.expected_steps(), 4);
        assert_eq!(t.n_steps(), 1);
        assert_eq!(t.step(0), &[1]);
    }
}
