//! Structure-of-arrays neuron datapath: the engine's hot-path state.
//!
//! [`crate::neuron_unit::NeuronUnit`] is the *architectural* view of one
//! LIF datapath — membrane register, refractory counter, per-operation
//! fault flags — and remains the fault-injection API and the behavioral
//! oracle (`step_reference`). The hot path, however, advances every
//! neuron every timestep, and an array-of-structs layout forces the
//! compiler through a per-neuron branch chain (refractory? vi faulty?
//! vl faulty? …) that defeats vectorization.
//!
//! [`NeuronLanes`] keeps the same state as parallel lanes:
//!
//! * `vmem: Vec<i32>` and `refrac: Vec<u32>` — contiguous per-neuron
//!   state the fused kernel streams over;
//! * one `Vec<u64>` bitmask per faulty operation (`vi`/`vl`/`vr`/`sg`),
//!   bit `j % 64` of word `j / 64` set when neuron `j` has that fault;
//! * a sparse index list of faulty neurons (`faulty`), rebuilt whenever
//!   the fault masks are imported.
//!
//! [`NeuronLanes::step_fused`] advances all neurons with a branch-free
//! integrate→leak→compare→reset kernel assuming the fault-free common
//! case, then re-runs the handful of faulty neurons through the exact
//! [`NeuronUnit::step`] semantics in a sparse patch pass, overwriting
//! their lanes and comparator/spike bits. Comparator and spike results
//! are produced as `u64` bitmask words — the currency of the batched
//! [`crate::engine::SpikeGuard::observe_cycle`] protocol.
//!
//! # Vectorized bodies
//!
//! The fused pass, lateral inhibition
//! ([`NeuronLanes::inhibit_non_fired`]) and the silent-cycle replay
//! ([`NeuronLanes::advance_silent`]) each run one private helper per
//! 64-neuron word. A helper takes the word's state as separate slices,
//! not through `&mut self`: slice parameters are `noalias`, which is what
//! lets LLVM prove the membrane and refractory buffers disjoint. Every
//! input is re-sliced to the membrane length (no bounds checks), the body
//! uses selects only, and bits cross the word boundary as 0/1 bytes —
//! comparator bytes are gathered eight per multiply, fired and fault
//! bits are spread the same way — instead of a per-neuron variable shift.
//! The integer operations and their order are those of the scalar
//! formulation, so results are bit-identical to [`NeuronUnit`] (the
//! `lanes_match_units_step_by_step_on_edge_ranges` lockstep property
//! pins it neuron by neuron, saturating edges included). Nothing in the
//! neuron phase allocates.
//!
//! The three loops vectorize for the baseline x86-64 target (SSE2, no
//! `target-cpu` flag). The workspace builds release with `lto = "thin"`,
//! so a per-crate `--emit asm` shows pre-link code in which the loop
//! vectorizer has not run yet; check the linked binary instead:
//!
//! ```text
//! cargo build --release
//! objdump -d --no-show-raw-insn -C target/release/fig13 \
//!     | awk '/<snn_hw::neuron_lanes::NeuronLanes::step_fused>:/,/^$/' | grep -c xmm
//! ```
//!
//! A count of zero means the fused pass fell back to scalar code (likewise
//! for `inhibit_non_fired` and `advance_silent`).
//!
//! Lanes only ever read the architectural view: [`NeuronLanes::configure`]
//! imports the units' fault flags into lanes at rest at the start of a
//! run, and nothing is written back — the units stay the one home of the
//! fault flags (see [`crate::engine::ComputeEngine::neurons`]).
//!
//! # Trial groups
//!
//! The engine's trial-group pass (every dense entry point, a single
//! sample being its one-lane case) keeps a bank of these lanes, one per
//! (fault map, sample) pair. [`NeuronLanes::configure`] sizes a lane from
//! rest over the engine's persisted faults plus one map's neuron-op sites
//! (none for a plain batch; the map's weight flips reach the lane as
//! drive corrections instead), so every lane evolves exactly like an
//! engine with that map injected running that sample — the cross-path
//! property suite in `tests/proptest_engine_equivalence.rs` pins it. The
//! event backend's sample loop keeps one lane of its own, configured the
//! same way.

use crate::neuron_unit::{NeuronHwParams, NeuronOp, NeuronUnit, OpFaults};
use snn_sim::spike::{pack_bytes, spread_word};

/// Number of `u64` bitmask words covering `n` neurons.
#[inline]
pub fn n_words(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// Neurons per bitmask word, and per slice the word helpers below take.
const WORD: usize = 64;

// The neuron phase's loop bodies, one word each (see the module docs'
// *Vectorized bodies* for why they take slices).

/// The fault-free fused integrate → leak → compare → reset pass over one
/// word; returns its comparator bits (bit `j` for neuron `j` of the word).
#[inline(always)]
fn fused_word(
    vmem: &mut [i32],
    refrac: &mut [u32],
    acc: &[i32],
    v_thresh: &[i32],
    params: &NeuronHwParams,
) -> u64 {
    let m = vmem.len();
    let (refrac, acc, v_thresh) = (&mut refrac[..m], &acc[..m], &v_thresh[..m]);
    let (v_leak, v_reset, t_refrac) = (params.v_leak, params.v_reset, params.t_refrac);
    let mut hot = [0_u8; WORD];
    let hot_m = &mut hot[..m];
    for j in 0..m {
        let r = refrac[j];
        let active = r == 0;
        let v = (vmem[j].saturating_add(acc[j]) - v_leak).max(0);
        let fire = active & (v >= v_thresh[j]);
        vmem[j] = if fire {
            v_reset
        } else if active {
            v
        } else {
            vmem[j]
        };
        refrac[j] = if fire { t_refrac } else { r.saturating_sub(1) };
        hot_m[j] = u8::from(fire);
    }
    pack_bytes(&hot)
}

/// Lateral inhibition over one word: every neuron whose `fired` bit is
/// clear and that is not refractory drops by `total_inh`, floored at 0.
#[inline(always)]
fn inhibit_word(vmem: &mut [i32], refrac: &[u32], fired: u64, total_inh: i32) {
    let m = vmem.len();
    let refrac = &refrac[..m];
    let fired = spread_word(fired);
    let fired = &fired[..m];
    for j in 0..m {
        let held = (fired[j] != 0) | (refrac[j] != 0);
        let v = (vmem[j] - total_inh).max(0);
        vmem[j] = if held { vmem[j] } else { v };
    }
}

/// `k` drive-free cycles over one word (see
/// [`NeuronLanes::advance_silent`]); `held` has bit `j` set for the
/// leak-faulty neurons.
#[inline(always)]
fn silent_word(vmem: &mut [i32], refrac: &mut [u32], held: u64, k: u32, v_leak: i32) {
    let m = vmem.len();
    let refrac = &mut refrac[..m];
    let held = spread_word(held);
    let held = &held[..m];
    for j in 0..m {
        let r = refrac[j].min(k);
        refrac[j] -= r;
        let k_leak = k - r;
        let v = i64::from(vmem[j]) - i64::from(v_leak) * i64::from(k_leak);
        let keep = (k_leak == 0) | (held[j] != 0);
        vmem[j] = if keep { vmem[j] } else { v.max(0) as i32 };
    }
}

/// One plane of per-operation fault bitmasks plus the sparse faulty-index
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OpMasks {
    vi_words: Vec<u64>,
    vl_words: Vec<u64>,
    vr_words: Vec<u64>,
    sg_words: Vec<u64>,
    /// Indices of neurons with at least one op fault, ascending.
    faulty: Vec<u32>,
}

impl OpMasks {
    fn with_words(words: usize) -> Self {
        Self {
            vi_words: vec![0; words],
            vl_words: vec![0; words],
            vr_words: vec![0; words],
            sg_words: vec![0; words],
            faulty: Vec::new(),
        }
    }

    /// Rebuilds every mask from the architectural units, sized to cover
    /// them.
    fn import(&mut self, units: &[NeuronUnit]) {
        let words = n_words(units.len());
        for plane in [
            &mut self.vi_words,
            &mut self.vl_words,
            &mut self.vr_words,
            &mut self.sg_words,
        ] {
            plane.clear();
            plane.resize(words, 0);
        }
        self.faulty.clear();
        for (j, u) in units.iter().enumerate() {
            let (w, bit) = (j >> 6, 1_u64 << (j & 63));
            if u.faults.vi {
                self.vi_words[w] |= bit;
            }
            if u.faults.vl {
                self.vl_words[w] |= bit;
            }
            if u.faults.vr {
                self.vr_words[w] |= bit;
            }
            if u.faults.sg {
                self.sg_words[w] |= bit;
            }
            if u.faults.any() {
                self.faulty.push(j as u32);
            }
        }
    }

    /// Marks operation `op` of neuron `j` faulty in the bitmask plane
    /// (the overlay write path of [`NeuronLanes::configure`]); callers
    /// must [`rebuild_faulty`](Self::rebuild_faulty) afterwards.
    fn set(&mut self, j: usize, op: NeuronOp) {
        let (w, bit) = (j >> 6, 1_u64 << (j & 63));
        match op {
            NeuronOp::VmemIncrease => self.vi_words[w] |= bit,
            NeuronOp::VmemLeak => self.vl_words[w] |= bit,
            NeuronOp::VmemReset => self.vr_words[w] |= bit,
            NeuronOp::SpikeGeneration => self.sg_words[w] |= bit,
        }
    }

    /// Recomputes the sparse faulty-index list from the op bitmask words
    /// (ascending, one entry per neuron with any fault).
    fn rebuild_faulty(&mut self) {
        self.faulty.clear();
        for w in 0..self.vi_words.len() {
            let mut any = self.vi_words[w] | self.vl_words[w] | self.vr_words[w] | self.sg_words[w];
            while any != 0 {
                self.faulty.push((w * 64) as u32 + any.trailing_zeros());
                any &= any - 1;
            }
        }
    }

    /// The fault flags of neuron `j`, reassembled from the op bitmasks.
    fn faults_of(&self, j: usize) -> OpFaults {
        let (w, bit) = (j >> 6, 1_u64 << (j & 63));
        OpFaults {
            vi: self.vi_words[w] & bit != 0,
            vl: self.vl_words[w] & bit != 0,
            vr: self.vr_words[w] & bit != 0,
            sg: self.sg_words[w] & bit != 0,
        }
    }
}

/// The engine's structure-of-arrays neuron state (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeuronLanes {
    n: usize,
    vmem: Vec<i32>,
    refrac: Vec<u32>,
    masks: OpMasks,
    /// Pre-step `(index, vmem, refrac)` snapshots of the faulty neurons,
    /// reused across steps so the patch pass never allocates.
    patch_scratch: Vec<(u32, i32, u32)>,
}

impl NeuronLanes {
    /// Rested, fault-free lanes for `n` neurons.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            vmem: vec![0; n],
            refrac: vec![0; n],
            masks: OpMasks::with_words(n_words(n)),
            patch_scratch: Vec::new(),
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the lanes hold zero neurons.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of bitmask words per op-fault / comparator mask.
    pub fn words(&self) -> usize {
        self.masks.vi_words.len()
    }

    /// Per-neuron membrane potentials.
    pub fn vmem(&self) -> &[i32] {
        &self.vmem
    }

    /// Clears membrane and refractory state (per-sample reset); fault
    /// masks persist, mirroring [`NeuronUnit::reset_state`].
    pub fn reset_state(&mut self) {
        self.vmem.fill(0);
        self.refrac.fill(0);
    }

    /// Resizes the lanes to the hardware described by `units` and puts
    /// them at rest, with a fault plane of `units`' persisted faults
    /// plus `overlay`'s `(neuron, op)` sites — the lanes then evolve
    /// exactly like units carrying the union of both. An empty overlay
    /// imports the persisted faults alone. Reuses allocations, so the
    /// engine's lane bank reconfigures per trial group for free.
    ///
    /// # Panics
    ///
    /// Panics if an overlay site's neuron index is out of range.
    pub fn configure(&mut self, units: &[NeuronUnit], overlay: &[(u32, NeuronOp)]) {
        let n = units.len();
        self.n = n;
        self.vmem.clear();
        self.vmem.resize(n, 0);
        self.refrac.clear();
        self.refrac.resize(n, 0);
        self.masks.import(units);
        if overlay.is_empty() {
            return;
        }
        for &(j, op) in overlay {
            assert!(
                (j as usize) < n,
                "overlay site neuron {j} out of range for {n} lanes"
            );
            self.masks.set(j as usize, op);
        }
        self.masks.rebuild_faulty();
    }

    /// Advances every neuron one timestep: the fused integrate → leak →
    /// compare → reset kernel.
    ///
    /// `acc` is the per-neuron accumulated synaptic drive, `v_thresh` the
    /// per-neuron thresholds. On return, bit `j` of `cmp_words` holds
    /// neuron `j`'s `Vmem ≥ Vth` comparator output and bit `j` of
    /// `spike_words` its internal spike (pre-guard); bits at or beyond
    /// the neuron count are zero.
    ///
    /// The main pass is branch-free and assumes no op faults; neurons on
    /// the sparse faulty list are then re-run through the exact
    /// [`NeuronUnit::step`] semantics from their pre-step state, patching
    /// lanes and output bits. Equivalence with the per-neuron reference
    /// is property-tested in `tests/proptest_engine_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `acc`/`v_thresh` lengths differ from the lane count or
    /// the word buffers differ from [`words`](Self::words) (exact length,
    /// so no caller-supplied word can be left stale).
    pub fn step_fused(
        &mut self,
        acc: &[i32],
        v_thresh: &[i32],
        params: &NeuronHwParams,
        cmp_words: &mut [u64],
        spike_words: &mut [u64],
    ) {
        assert_eq!(acc.len(), self.n, "drive width");
        assert_eq!(v_thresh.len(), self.n, "threshold width");
        let words = self.words();
        assert_eq!(cmp_words.len(), words, "comparator word width");
        assert_eq!(spike_words.len(), words, "spike word width");

        // Save the faulty lanes' pre-step state before the vector pass
        // clobbers it.
        self.patch_scratch.clear();
        for &j in &self.masks.faulty {
            let j_us = j as usize;
            self.patch_scratch
                .push((j, self.vmem[j_us], self.refrac[j_us]));
        }

        // Branch-free fused pass, assuming the fault-free case.
        let chunks = self
            .vmem
            .chunks_mut(WORD)
            .zip(self.refrac.chunks_mut(WORD))
            .zip(acc.chunks(WORD).zip(v_thresh.chunks(WORD)));
        for (wi, ((vm_c, rf_c), (acc_c, th_c))) in chunks.enumerate() {
            let cmp_w = fused_word(vm_c, rf_c, acc_c, th_c, params);
            cmp_words[wi] = cmp_w;
            spike_words[wi] = cmp_w;
        }

        // Sparse patch pass: replay each faulty neuron from its saved
        // pre-step state through the exact unit semantics.
        for &(j, vmem0, refrac0) in &self.patch_scratch {
            let j_us = j as usize;
            let mut unit = NeuronUnit {
                vmem: vmem0,
                refrac: refrac0,
                faults: self.masks.faults_of(j_us),
            };
            let out = unit.step(acc[j_us] as i64, v_thresh[j_us], params);
            self.vmem[j_us] = unit.vmem;
            self.refrac[j_us] = unit.refrac;
            let (w, shift) = (j_us >> 6, j_us & 63);
            let mask = !(1_u64 << shift);
            cmp_words[w] = cmp_words[w] & mask | (out.cmp_out as u64) << shift;
            spike_words[w] = spike_words[w] & mask | (out.spike as u64) << shift;
        }
    }

    /// Applies lateral inhibition `total_inh` to every neuron whose bit
    /// in `fired_words` is clear, mirroring [`NeuronUnit::inhibit`]
    /// (floored at 0, skipped while refractory).
    ///
    /// # Panics
    ///
    /// Panics if `fired_words` differs from [`words`](Self::words).
    pub fn inhibit_non_fired(&mut self, fired_words: &[u64], total_inh: i32) {
        assert_eq!(fired_words.len(), self.words(), "fired word width");
        let chunks = self.vmem.chunks_mut(WORD).zip(self.refrac.chunks(WORD));
        for ((vm_c, rf_c), &fired) in chunks.zip(fired_words) {
            inhibit_word(vm_c, rf_c, fired, total_inh);
        }
    }

    /// Whether any lane's membrane sits at or above its per-neuron
    /// threshold. The event backend uses this after a comparator-active
    /// cycle to decide whether silent cycles may be skipped (a lane still
    /// at threshold — a reset-faulty burst neuron — must keep stepping).
    ///
    /// # Panics
    ///
    /// Panics if `v_thresh` length differs from the lane count.
    pub fn any_at_or_above(&self, v_thresh: &[i32]) -> bool {
        assert_eq!(v_thresh.len(), self.n, "threshold width");
        self.vmem.iter().zip(v_thresh).any(|(&v, &t)| v >= t)
    }

    /// Advances every lane `k` drive-free timesteps in one pass: each
    /// neuron first burns `r = min(refrac, k)` cycles of refractory
    /// countdown (membrane held, exactly as the fused kernel holds it),
    /// then applies `k − r` floored leak steps of `v_leak` collapsed to
    /// one subtraction — `max(v − k·d, 0)` equals `k` sequential
    /// `max(v − d, 0)` folds for any `d ≥ 0`, which the lazy-leak proptest
    /// pins against sequential [`step_fused`](Self::step_fused) cycles.
    /// Leak-faulty (`vl`) lanes hold their membrane, mirroring
    /// [`NeuronUnit::step`]'s faulty path with zero drive.
    ///
    /// Callers guarantee the skipped cycles were genuinely silent (no
    /// drive, no comparator activity) and `v_leak ≥ 0`; under that
    /// contract no spike, reset, or inhibition could have occurred, so
    /// state advance is all there is to replay.
    pub fn advance_silent(&mut self, k: u32, v_leak: i32) {
        let chunks = self.vmem.chunks_mut(WORD).zip(self.refrac.chunks_mut(WORD));
        for ((vm_c, rf_c), &vl) in chunks.zip(&self.masks.vl_words) {
            silent_word(vm_c, rf_c, vl, k, v_leak);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron_unit::NeuronOp;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    fn params() -> NeuronHwParams {
        NeuronHwParams {
            v_reset: 0,
            v_leak: 10,
            t_refrac: 2,
            v_inh: 100,
        }
    }

    /// Drives `n` architectural units and the lanes side by side through
    /// the same random-ish schedule and asserts identical state and
    /// outputs every step.
    fn assert_lockstep(mut units: Vec<NeuronUnit>, drives: impl Fn(usize, usize) -> i32) {
        let p = params();
        let n = units.len();
        let thresholds = vec![500_i32; n];
        let mut lanes = NeuronLanes::new(0);
        lanes.configure(&units, &[]);
        let words = lanes.words();
        let mut cmp = vec![0_u64; words];
        let mut spk = vec![0_u64; words];
        for t in 0..50 {
            let acc: Vec<i32> = (0..n).map(|j| drives(t, j)).collect();
            lanes.step_fused(&acc, &thresholds, &p, &mut cmp, &mut spk);
            for (j, u) in units.iter_mut().enumerate() {
                let out = u.step(acc[j] as i64, thresholds[j], &p);
                let (w, b) = (j >> 6, j & 63);
                assert_eq!((cmp[w] >> b) & 1 != 0, out.cmp_out, "cmp t={t} j={j}");
                assert_eq!((spk[w] >> b) & 1 != 0, out.spike, "spike t={t} j={j}");
                assert_eq!(lanes.vmem[j], u.vmem, "vmem t={t} j={j}");
                assert_eq!(lanes.refrac[j], u.refrac, "refrac t={t} j={j}");
            }
        }
    }

    #[test]
    fn fault_free_lanes_match_units() {
        let units = vec![NeuronUnit::new(); 70];
        assert_lockstep(units, |t, j| ((t * 131 + j * 37) % 400) as i32);
    }

    #[test]
    fn faulty_lanes_match_units_via_patch_pass() {
        let mut units = vec![NeuronUnit::new(); 70];
        units[0].faults.set(NeuronOp::VmemIncrease);
        units[3].faults.set(NeuronOp::VmemLeak);
        units[64].faults.set(NeuronOp::VmemReset);
        units[65].faults.set(NeuronOp::SpikeGeneration);
        units[69].faults.set(NeuronOp::VmemReset);
        units[69].faults.set(NeuronOp::SpikeGeneration);
        assert_lockstep(units, |t, j| ((t * 211 + j * 53) % 600) as i32);
    }

    #[test]
    fn inhibition_matches_units() {
        let p = params();
        let mut units = vec![NeuronUnit::new(); 66];
        for (j, u) in units.iter_mut().enumerate() {
            u.vmem = (j as i32) * 7;
        }
        units[5].refrac = 1;
        let mut lanes = NeuronLanes::new(0);
        lanes.configure(&units, &[]);
        for (j, u) in units.iter().enumerate() {
            lanes.vmem[j] = u.vmem;
            lanes.refrac[j] = u.refrac;
        }
        let mut fired_words = vec![0_u64; lanes.words()];
        fired_words[0] |= 1 << 2;
        fired_words[1] |= 1 << 1; // neuron 65
        lanes.inhibit_non_fired(&fired_words, 40);
        for (j, u) in units.iter_mut().enumerate() {
            if j != 2 && j != 65 {
                u.inhibit(40);
            }
        }
        for (j, u) in units.iter().enumerate() {
            assert_eq!(lanes.vmem[j], u.vmem, "j={j}");
        }
        let _ = p;
    }

    #[test]
    fn reset_state_keeps_fault_masks() {
        let mut units = vec![NeuronUnit::new(); 4];
        units[1].faults.set(NeuronOp::VmemReset);
        let mut lanes = NeuronLanes::new(0);
        lanes.configure(&units, &[]);
        lanes.vmem[1] = 50;
        lanes.reset_state();
        assert_eq!(lanes.vmem()[1], 0);
        assert!(lanes.masks.faults_of(1).vr);
        assert_eq!(lanes.masks.faulty, vec![1]);
    }

    /// Steps a bank of lanes, each configured from `base_units` plus its
    /// overlay, beside lanes configured from units carrying the base faults ∪
    /// that overlay, and asserts identical outputs and state every cycle.
    fn assert_bank_lockstep(
        base_units: &[NeuronUnit],
        overlays: &[Vec<(u32, NeuronOp)>],
        drives: impl Fn(usize, usize, usize) -> i32,
    ) {
        let p = params();
        let n = base_units.len();
        let thresholds = vec![500_i32; n];
        let mut bank: Vec<NeuronLanes> = overlays
            .iter()
            .map(|overlay| {
                let mut lane = NeuronLanes::new(0);
                lane.configure(base_units, overlay);
                lane
            })
            .collect();
        let mut singles: Vec<NeuronLanes> = overlays
            .iter()
            .map(|overlay| {
                let mut units = base_units.to_vec();
                for &(j, op) in overlay {
                    units[j as usize].faults.set(op);
                }
                let mut l = NeuronLanes::new(0);
                l.configure(&units, &[]);
                l
            })
            .collect();
        let words = n_words(n);
        let (mut cmp_b, mut spk_b) = (vec![0_u64; words], vec![0_u64; words]);
        let (mut cmp_s, mut spk_s) = (vec![0_u64; words], vec![0_u64; words]);
        for t in 0..40 {
            for (l, (lane, single)) in bank.iter_mut().zip(&mut singles).enumerate() {
                assert_eq!(lane.words(), words);
                let acc: Vec<i32> = (0..n).map(|j| drives(t, l, j)).collect();
                lane.step_fused(&acc, &thresholds, &p, &mut cmp_b, &mut spk_b);
                single.step_fused(&acc, &thresholds, &p, &mut cmp_s, &mut spk_s);
                assert_eq!(cmp_b, cmp_s, "cmp t={t} lane={l}");
                assert_eq!(spk_b, spk_s, "spike t={t} lane={l}");
                // Inhibit off the spike words to also exercise inhibition.
                lane.inhibit_non_fired(&spk_b, 40);
                single.inhibit_non_fired(&spk_s, 40);
                assert_eq!(lane.vmem(), single.vmem(), "vmem t={t} lane={l}");
            }
        }
    }

    #[test]
    fn batch_lanes_match_independent_single_lanes() {
        // The batched pass: every sample's lane (empty overlay) must evolve
        // exactly like its own NeuronLanes over the same faulty hardware.
        let mut units = vec![NeuronUnit::new(); 70];
        units[0].faults.set(NeuronOp::VmemReset);
        units[65].faults.set(NeuronOp::SpikeGeneration);
        units[69].faults.set(NeuronOp::VmemLeak);
        assert_bank_lockstep(&units, &[vec![], vec![], vec![]], |t, s, j| {
            ((t * 131 + j * 37 + s * 71) % 550) as i32
        });
    }

    #[test]
    fn batch_lanes_reconfigure_resets_state() {
        let units = vec![NeuronUnit::new(); 4];
        let p = params();
        let mut bank = vec![NeuronLanes::new(0), NeuronLanes::new(0)];
        for lane in &mut bank {
            lane.configure(&units, &[]);
        }
        let mut cmp = vec![0_u64; 1];
        let mut spk = vec![0_u64; 1];
        bank[1].step_fused(&[400; 4], &[500; 4], &p, &mut cmp, &mut spk);
        assert!(bank[1].vmem().iter().any(|&v| v > 0));
        // Reconfiguring (next chunk of a campaign) starts from rest again.
        bank[1].configure(&units, &[]);
        assert!(bank[1].vmem().iter().all(|&v| v == 0));
        assert!(!bank[1].is_empty());
        assert_eq!(bank[1].len(), 4);
    }

    #[test]
    fn map_lanes_match_independent_single_lanes_with_union_faults() {
        // The multi-map pass: every map's lane must evolve exactly like a
        // NeuronLanes whose units carry the base faults ∪ that map's overlay.
        let mut base_units = vec![NeuronUnit::new(); 70];
        base_units[7].faults.set(NeuronOp::VmemLeak);
        base_units[64].faults.set(NeuronOp::SpikeGeneration);
        let overlays: Vec<Vec<(u32, NeuronOp)>> = vec![
            vec![],
            vec![(0, NeuronOp::VmemReset), (69, NeuronOp::VmemReset)],
            vec![(7, NeuronOp::VmemLeak), (65, NeuronOp::VmemIncrease)],
        ];
        // One shared drive per cycle, as the trial-group pass feeds every
        // map lane of a sample.
        assert_bank_lockstep(&base_units, &overlays, |t, _, j| {
            ((t * 131 + j * 37) % 550) as i32
        });
    }

    #[test]
    fn map_lanes_reconfigure_resets_state_and_masks() {
        let units = vec![NeuronUnit::new(); 4];
        let p = params();
        let mut lane = NeuronLanes::new(0);
        lane.configure(&units, &[(1, NeuronOp::SpikeGeneration)]);
        assert_eq!(lane.masks.faulty, vec![1]);
        let mut cmp = vec![0_u64; 1];
        let mut spk = vec![0_u64; 1];
        lane.step_fused(&[400; 4], &[500; 4], &p, &mut cmp, &mut spk);
        assert!(lane.vmem().iter().any(|&v| v > 0));
        // Reconfiguring (next trial group) starts from rest with a fresh
        // fault plane — the old overlay must not leak into it.
        lane.configure(&units, &[]);
        assert!(lane.vmem().iter().all(|&v| v == 0));
        assert!(lane.masks.faulty.is_empty());
        lane.configure(&units, &[(2, NeuronOp::VmemReset)]);
        assert_eq!(lane.masks.faulty, vec![2]);
        assert!(!lane.masks.faults_of(1).sg);
    }

    #[test]
    fn overlay_duplicates_and_base_overlap_are_idempotent() {
        let mut units = vec![NeuronUnit::new(); 4];
        units[3].faults.set(NeuronOp::VmemReset);
        let mut lane = NeuronLanes::new(0);
        lane.configure(
            &units,
            &[
                (3, NeuronOp::VmemReset),
                (2, NeuronOp::VmemLeak),
                (2, NeuronOp::VmemLeak),
            ],
        );
        assert_eq!(lane.masks.faulty, vec![2, 3]);
        assert!(lane.masks.faults_of(3).vr);
        assert!(lane.masks.faults_of(2).vl);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overlay_out_of_range_neuron_panics() {
        let units = vec![NeuronUnit::new(); 4];
        NeuronLanes::new(0).configure(&units, &[(9, NeuronOp::VmemReset)]);
    }

    /// A value from `lo..=hi`, or (one draw in four) within 64 of `hi`:
    /// membranes, drives and thresholds near `i32::MAX` exercise the
    /// saturating add.
    fn near_top(rng: &mut StdRng, lo: i32, hi: i32) -> i32 {
        if rng.gen_bool(0.25) {
            rng.gen_range(hi - 64..=hi)
        } else {
            rng.gen_range(lo..=hi)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `step_fused` and `inhibit_non_fired` against `NeuronUnit::step`
        /// and `NeuronUnit::inhibit`, neuron by neuron and every step, over
        /// ragged widths (partial 64-neuron words and 8-neuron tails),
        /// state near `i32::MAX`, thresholds ≤ 0, `t_refrac = 0`, op faults
        /// from the units and from an overlay (random at rates up to 1, or
        /// dense: every vi/vl/vr/sg combination), and fired words with
        /// random bits, including non-refractory neurons and bits past `n`.
        /// Every range keeps `NeuronUnit` itself free of overflow.
        #[test]
        fn lanes_match_units_step_by_step_on_edge_ranges(
            n in 1_usize..=200,
            t_refrac in 0_u32..=3,
            v_leak in 0_i32..=40,
            v_reset in -50_i32..=50,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = NeuronHwParams { v_reset, v_leak, t_refrac, v_inh: 0 };
            // A rate per (neuron, op), or `None`: neuron `j` carries op
            // combination `j % 16` (bit `i` for `NeuronOp::ALL[i]`).
            let fault_rate = [Some(0.0), Some(0.05), Some(0.3), Some(1.0), None]
                [rng.gen_range(0..5_usize)];
            let mut base = vec![NeuronUnit::new(); n];
            let mut units = base.clone();
            let mut overlay = Vec::new();
            for j in 0..n {
                for (i, op) in NeuronOp::ALL.into_iter().enumerate() {
                    let faulty = match fault_rate {
                        Some(rate) => rng.gen_bool(rate),
                        None => ((j % 16) >> i) & 1 != 0,
                    };
                    if faulty {
                        units[j].faults.set(op);
                        if rng.gen_bool(0.5) {
                            base[j].faults.set(op);
                        } else {
                            overlay.push((j as u32, op));
                        }
                    }
                }
            }
            let mut lanes = NeuronLanes::new(0);
            lanes.configure(&base, &overlay);
            for (j, u) in units.iter_mut().enumerate() {
                u.vmem = near_top(&mut rng, v_reset.min(0), i32::MAX);
                u.refrac = rng.gen_range(0..=t_refrac + 1);
                lanes.vmem[j] = u.vmem;
                lanes.refrac[j] = u.refrac;
            }
            let v_thresh: Vec<i32> = (0..n)
                .map(|_| match rng.gen_range(0..3_u32) {
                    0 => rng.gen_range(-100..=0),
                    1 => rng.gen_range(1..=2_000),
                    _ => near_top(&mut rng, 1, i32::MAX),
                })
                .collect();
            let words = n_words(n);
            let (mut cmp, mut spk) = (vec![!0_u64; words], vec![!0_u64; words]);
            for t in 0..24 {
                let acc: Vec<i32> = (0..n).map(|_| near_top(&mut rng, -1_000, i32::MAX)).collect();
                lanes.step_fused(&acc, &v_thresh, &params, &mut cmp, &mut spk);
                for (j, u) in units.iter_mut().enumerate() {
                    let out = u.step(i64::from(acc[j]), v_thresh[j], &params);
                    let (w, b) = (j / 64, j % 64);
                    prop_assert_eq!((cmp[w] >> b) & 1 != 0, out.cmp_out, "cmp t={} j={}", t, j);
                    prop_assert_eq!((spk[w] >> b) & 1 != 0, out.spike, "spike t={} j={}", t, j);
                    prop_assert_eq!(lanes.vmem[j], u.vmem, "vmem t={} j={}", t, j);
                    prop_assert_eq!(lanes.refrac[j], u.refrac, "refrac t={} j={}", t, j);
                }
                if !n.is_multiple_of(64) {
                    let past_n = !0_u64 << (n % 64);
                    prop_assert_eq!(cmp[words - 1] & past_n, 0, "cmp bits past n, t={}", t);
                    prop_assert_eq!(spk[words - 1] & past_n, 0, "spike bits past n, t={}", t);
                }
                let fired: Vec<u64> = (0..words).map(|_| rng.gen::<u64>()).collect();
                let total_inh = rng.gen_range(0..=5_000);
                lanes.inhibit_non_fired(&fired, total_inh);
                for (j, u) in units.iter_mut().enumerate() {
                    if (fired[j / 64] >> (j % 64)) & 1 == 0 {
                        u.inhibit(total_inh);
                    }
                    prop_assert_eq!(lanes.vmem[j], u.vmem, "inhibited vmem t={} j={}", t, j);
                    prop_assert_eq!(lanes.refrac[j], u.refrac, "inhibited refrac t={} j={}", t, j);
                }
            }
        }
    }

    #[test]
    fn word_count_covers_partial_words() {
        assert_eq!(n_words(0), 0);
        assert_eq!(n_words(1), 1);
        assert_eq!(n_words(64), 1);
        assert_eq!(n_words(65), 2);
        assert_eq!(NeuronLanes::new(130).words(), 3);
    }
}
