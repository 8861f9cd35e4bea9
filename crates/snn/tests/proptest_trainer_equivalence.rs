//! Equivalence properties for the optimized trainer hot path.
//!
//! The allocation-free, layout-aware `step`/`run_sample_into`/
//! `normalize_weights` datapath must be spike-for-spike AND
//! weight-for-weight (bit-for-bit) identical to the retained reference
//! formulation (`step_reference` / `run_sample_reference` /
//! `normalize_weights_reference`) across random networks, plastic and
//! frozen modes, with and without divisive weight normalization, and
//! ragged train lengths —
//! the same obligation the engine equivalence suite
//! (`crates/snn-hw/tests/proptest_engine_equivalence.rs`) places on the
//! hardware model. Any future trainer optimization must keep these
//! properties green. The Poisson encoder's integer thresholds are held
//! to the float loop they replaced (`encode_float_oracle`) the same way.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use snn_sim::config::SnnConfig;
use snn_sim::encoding::PoissonEncoder;
use snn_sim::network::Network;
use snn_sim::rng::seeded_rng;
use snn_sim::spike::SpikeTrain;
use snn_sim::stdp::StdpConfig;

/// Leak values the properties draw from: none, the usual, and a leak
/// that floors most membranes at zero.
const V_LEAKS: [f32; 3] = [0.0, 0.05, 0.5];
/// Reset values the properties draw from: validation accepts `-0.0`, and
/// a membrane reset to it must keep its sign bit on both paths.
const V_RESETS: [f32; 3] = [0.0, -0.0, 0.5];

/// Builds a random-but-valid config covering normalization on/off and
/// the single-winner tie-break on/off.
#[allow(clippy::too_many_arguments)]
fn make_cfg(
    n_inputs: usize,
    n_neurons: usize,
    norm_on: bool,
    single_winner: bool,
    v_leak: f32,
    v_reset: f32,
    v_inh: f32,
    t_refrac: u32,
    trace_decay: f32,
    rest_steps: u32,
) -> SnnConfig {
    SnnConfig::builder()
        .n_inputs(n_inputs)
        .n_neurons(n_neurons)
        .v_thresh(1.5)
        .v_leak(v_leak)
        .v_reset(v_reset)
        .v_inh(v_inh)
        .t_refrac(t_refrac)
        .timesteps(20)
        .rest_steps(rest_steps)
        .max_rate(0.5)
        .theta_plus(0.4)
        .theta_decay(0.995)
        .norm_frac(if norm_on { 0.15 } else { 0.0 })
        .single_winner_training(single_winner)
        .w_init((0.1, 0.5))
        .stdp(StdpConfig {
            eta_post: 0.2,
            x_offset: 0.3,
            trace_decay,
            trace_max: 1.0,
        })
        .build()
        .expect("valid config")
}

/// Two identical networks from the same seed: one driven through the
/// fast path, one through the reference path.
fn twin_networks(cfg: &SnnConfig, net_seed: u64) -> (Network, Network) {
    let fast = Network::new(cfg.clone(), &mut seeded_rng(net_seed));
    let slow = Network::from_parts(cfg.clone(), fast.weights().to_vec()).expect("same shape");
    (fast, slow)
}

/// A random spike train over `n_inputs` channels.
fn random_train(n_inputs: usize, n_steps: usize, seed: u64, density: f64) -> SpikeTrain {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = SpikeTrain::new(n_inputs, n_steps);
    for _ in 0..n_steps {
        let active: Vec<u32> = (0..n_inputs as u32)
            .filter(|_| rng.gen_bool(density))
            .collect();
        train.push_step(active);
    }
    train
}

/// Bit-exact comparison of two f32 slices (plain `==` would conflate
/// -0.0 with 0.0; the bit patterns must agree exactly).
fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {k} diverged ({x} vs {y})"
        );
    }
}

/// Asserts every observable piece of network state agrees bit-for-bit.
fn assert_networks_eq(fast: &Network, slow: &Network, label: &str) {
    assert_bits_eq(fast.weights(), slow.weights(), &format!("{label}: weights"));
    assert_bits_eq(fast.thetas(), slow.thetas(), &format!("{label}: thetas"));
    assert_bits_eq(
        fast.pre_trace_values(),
        slow.pre_trace_values(),
        &format!("{label}: pre traces"),
    );
    let n = fast.cfg().n_neurons;
    for j in 0..n {
        assert_eq!(
            fast.membrane(j).to_bits(),
            slow.membrane(j).to_bits(),
            "{label}: membrane {j} diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Step-level equivalence across the full mode cross-product:
    /// identical fired sets and identical weights/traces/thetas/membranes
    /// at every step.
    #[test]
    fn step_matches_reference(
        net_seed in any::<u64>(),
        train_seed in any::<u64>(),
        n_inputs in 4_usize..20,
        n_neurons in 2_usize..150,
        norm_on in any::<bool>(),
        single_winner in any::<bool>(),
        plastic in any::<bool>(),
        v_leak in 0_usize..V_LEAKS.len(),
        v_reset in 0_usize..V_RESETS.len(),
        v_inh in 0.0_f32..4.0,
        no_inh in any::<bool>(),
        t_refrac in 0_u32..4,
        trace_decay in 0.2_f32..1.0,
        density in 0.1_f64..0.9,
    ) {
        let v_inh = if no_inh { 0.0 } else { v_inh };
        let cfg = make_cfg(
            n_inputs, n_neurons, norm_on, single_winner,
            V_LEAKS[v_leak], V_RESETS[v_reset], v_inh, t_refrac, trace_decay, 3,
        );
        let (mut fast, mut slow) = twin_networks(&cfg, net_seed);
        if !plastic {
            fast.set_frozen();
            slow.set_frozen();
        }
        let train = random_train(n_inputs, 40, train_seed, density);
        for s in 0..train.n_steps() {
            let rows = train.step(s).to_vec();
            let a = fast.step(&rows).to_vec();
            let b = slow.step_reference(&rows);
            prop_assert_eq!(&a, &b, "fired diverged at step {}", s);
            assert_networks_eq(&fast, &slow, &format!("step {s}"));
        }
    }

    /// Whole-sample equivalence: spike counts and post-sample weights
    /// agree for the optimized owned, optimized borrowed, and reference
    /// sample paths.
    #[test]
    fn run_sample_matches_reference(
        net_seed in any::<u64>(),
        train_seed in any::<u64>(),
        n_inputs in 4_usize..20,
        n_neurons in 2_usize..150,
        single_winner in any::<bool>(),
        plastic in any::<bool>(),
        v_leak in 0_usize..V_LEAKS.len(),
        v_reset in 0_usize..V_RESETS.len(),
        n_steps in 0_usize..35,
        rest_steps in 0_u32..8,
    ) {
        let cfg = make_cfg(
            n_inputs, n_neurons, true, single_winner,
            V_LEAKS[v_leak], V_RESETS[v_reset], 2.0, 2, 0.9, rest_steps,
        );
        let (mut fast, mut slow) = twin_networks(&cfg, net_seed);
        if !plastic {
            fast.set_frozen();
            slow.set_frozen();
        }
        let train = random_train(n_inputs, n_steps, train_seed, 0.4);
        let reference = slow.run_sample_reference(&train);
        let owned = fast.run_sample(&train);
        prop_assert_eq!(&owned, &reference, "owned counts diverged");
        assert_networks_eq(&fast, &slow, "after run_sample");
        // A second presentation through the borrowed path (both networks
        // have learned identically, so the property still holds).
        let borrowed = fast.run_sample_into(&train).to_vec();
        let reference2 = slow.run_sample_reference(&train);
        prop_assert_eq!(&borrowed, &reference2, "borrowed counts diverged");
        assert_networks_eq(&fast, &slow, "after run_sample_into");
    }

    /// Trainer-loop equivalence: normalize-then-present over several
    /// samples with ragged train lengths — the exact shape of
    /// `train_unsupervised`'s inner loop — stays bit-identical, which
    /// also proves the incrementally maintained column sums equal the
    /// reference's fresh `O(m·n)` re-summation at every normalize.
    #[test]
    fn training_loop_matches_reference(
        net_seed in any::<u64>(),
        train_seed in any::<u64>(),
        n_inputs in 4_usize..16,
        n_neurons in 2_usize..7,
        norm_on in any::<bool>(),
        n_samples in 1_usize..6,
    ) {
        let cfg = make_cfg(
            n_inputs, n_neurons, norm_on, true, 0.05, 0.0, 2.0, 2, 0.9, 3,
        );
        let (mut fast, mut slow) = twin_networks(&cfg, net_seed);
        // Ragged lengths: sample s runs 5..25 steps.
        let trains: Vec<SpikeTrain> = (0..n_samples)
            .map(|s| random_train(n_inputs, 5 + (s * 7) % 20, train_seed ^ (s as u64 + 1), 0.4))
            .collect();
        for (s, train) in trains.iter().enumerate() {
            fast.normalize_weights();
            slow.normalize_weights_reference();
            assert_bits_eq(fast.weights(), slow.weights(), &format!("normalize before sample {s}"));
            let a = fast.run_sample_into(train).to_vec();
            let b = slow.run_sample_reference(train);
            prop_assert_eq!(&a, &b, "counts diverged at sample {}", s);
            assert_networks_eq(&fast, &slow, &format!("sample {s}"));
        }
        // Final normalize (the assignment pass trains frozen afterwards).
        fast.normalize_weights();
        slow.normalize_weights_reference();
        assert_bits_eq(fast.weights(), slow.weights(), "final normalize");
    }

    /// Mixing paths mid-stream is legal: a fast-path network that suffers
    /// an occasional reference step (which bypasses the fast path's
    /// bookkeeping) must still normalize and learn bit-identically —
    /// i.e. cache invalidation at the reference boundary is airtight.
    #[test]
    fn interleaved_fast_and_reference_calls_stay_consistent(
        net_seed in any::<u64>(),
        train_seed in any::<u64>(),
        n_inputs in 4_usize..14,
        n_neurons in 2_usize..6,
        mix in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let cfg = make_cfg(n_inputs, n_neurons, true, true, 0.05, 0.0, 2.0, 1, 0.9, 2);
        let (mut mixed, mut slow) = twin_networks(&cfg, net_seed);
        let train = random_train(n_inputs, mix.len(), train_seed, 0.5);
        for (s, &use_fast) in mix.iter().enumerate() {
            let rows = train.step(s).to_vec();
            let a = if use_fast {
                mixed.step(&rows).to_vec()
            } else {
                mixed.step_reference(&rows)
            };
            let b = slow.step_reference(&rows);
            prop_assert_eq!(&a, &b, "fired diverged at step {}", s);
            if s % 5 == 0 {
                mixed.normalize_weights();
                slow.normalize_weights_reference();
            }
            assert_bits_eq(mixed.weights(), slow.weights(), &format!("step {s}"));
        }
    }

    /// `encode_into` with a recycled buffer is draw-for-draw identical to
    /// `encode` across random images, and leaves the RNG in the same
    /// state (so downstream sampling stays aligned).
    #[test]
    fn encode_into_matches_encode(
        rng_seed in any::<u64>(),
        max_rate in 0.0_f32..1.0,
        timesteps in 0_u32..30,
        img in prop::collection::vec(-0.2_f32..1.4, 1..40),
    ) {
        let enc = PoissonEncoder::new(max_rate);
        let mut rng_a = seeded_rng(rng_seed);
        let mut rng_b = seeded_rng(rng_seed);
        let mut reused = SpikeTrain::new(1, 1);
        reused.push_step(vec![0]); // dirty the buffer
        for round in 0..3 {
            let fresh = enc.encode(&img, timesteps, &mut rng_a);
            enc.encode_into(&img, timesteps, &mut rng_b, &mut reused);
            prop_assert_eq!(&fresh, &reused, "encode diverged in round {}", round);
        }
    }

    /// The integer-threshold encoder draws exactly what the float
    /// formulation draws, train for train, and leaves the RNG where the
    /// float loop leaves it. Intensities mix edge values (zero, signed
    /// zero, subnormals, one, out of range, infinities, NaN, and values
    /// whose `p · 2²⁴` is an integer) with uniform ones; `max_rate` is 0,
    /// 1 or uniform.
    #[test]
    fn encoder_matches_float_oracle(
        rng_seed in any::<u64>(),
        rate_kind in 0_usize..4,
        rate in 0.0_f32..1.0,
        timesteps in 0_u32..30,
        img in prop::collection::vec((0_usize..2 * EDGE_INTENSITIES.len(), -0.5_f32..1.5), 1..40),
    ) {
        let max_rate = match rate_kind {
            0 => 0.0,
            1 => 1.0,
            _ => rate,
        };
        let img: Vec<f32> = img
            .iter()
            .map(|&(k, x)| EDGE_INTENSITIES.get(k).map_or(x, |edge| edge(x)))
            .collect();
        let enc = PoissonEncoder::new(max_rate);
        let mut rng_new = seeded_rng(rng_seed);
        let mut rng_old = seeded_rng(rng_seed);
        let mut reused = SpikeTrain::new(1, 1);
        for round in 0..3 {
            enc.encode_into(&img, timesteps, &mut rng_new, &mut reused);
            let oracle = encode_float_oracle(max_rate, &img, timesteps, &mut rng_old);
            prop_assert_eq!(&reused, &oracle, "encode diverged in round {}", round);
            prop_assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "RNG diverged");
        }
    }
}

/// Random draws almost never land on a channel's threshold, so this test
/// builds the boundary: for one-channel images, `p` is set to the coming
/// draw `u` itself (must not fire) and to its neighbours (`p` just above
/// fires, `p` just below does not), with `max_rate` 1 so `p` is the
/// intensity.
#[test]
fn encoder_matches_float_oracle_on_the_draw_boundary() {
    let enc = PoissonEncoder::new(1.0);
    let mut reused = SpikeTrain::new(1, 1);
    for seed in 0..64 {
        let u = seeded_rng(seed).gen::<f32>();
        for p in [u, u.next_up(), u.next_down()] {
            let mut rng_new = seeded_rng(seed);
            let mut rng_old = seeded_rng(seed);
            enc.encode_into(&[p], 1, &mut rng_new, &mut reused);
            let oracle = encode_float_oracle(1.0, &[p], 1, &mut rng_old);
            assert_eq!(reused, oracle, "seed {seed}, p {p:e}, draw {u:e}");
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "RNG diverged");
        }
    }
}

/// Edge intensities for the encoder oracle, each a function of a uniform
/// draw `x ∈ [-0.5, 1.5)`.
const EDGE_INTENSITIES: [fn(f32) -> f32; 10] = [
    |_| 0.0,
    |_| -0.0,
    |_| f32::from_bits(1),
    |_| f32::MIN_POSITIVE / 2.0,
    |_| 1.0,
    |x| 1.0 + x.abs(),
    |x| -x.abs() - f32::MIN_POSITIVE,
    |_| f32::NAN,
    |x| (x.clamp(0.0, 1.0) * (1 << 24) as f32).floor() / (1 << 24) as f32,
    |x| {
        if x < 0.5 {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        }
    },
];

/// The float formulation the integer-threshold encoder replaced: one
/// `gen::<f32>()` per channel with `p > 0` per step, firing when the draw
/// is below `p`.
fn encode_float_oracle(
    max_rate: f32,
    intensities: &[f32],
    timesteps: u32,
    rng: &mut snn_sim::rng::Rng,
) -> SpikeTrain {
    let probs: Vec<f32> = intensities
        .iter()
        .map(|&p| p.clamp(0.0, 1.0) * max_rate)
        .collect();
    let mut train = SpikeTrain::new(intensities.len(), timesteps as usize);
    for _ in 0..timesteps {
        let mut active = Vec::new();
        for (i, &p) in probs.iter().enumerate() {
            if p > 0.0 && rng.gen::<f32>() < p {
                active.push(i as u32);
            }
        }
        train.push_step(active);
    }
    train
}

/// The trainer-facing composition at fixed seeds: `train_unsupervised` +
/// `assign_classes` + `evaluate` (all routed through the fast path) must
/// reproduce a hand-rolled reference loop with the same RNG stream.
#[test]
fn full_pipeline_matches_handrolled_reference_loop() {
    use snn_sim::trainer::{train_unsupervised, TrainOptions};

    let cfg = make_cfg(12, 5, true, true, 0.05, 0.0, 2.0, 2, 0.9, 4);
    let images: Vec<Vec<f32>> = (0..6)
        .map(|k| {
            (0..12)
                .map(|i| if (i + k) % 3 == 0 { 0.9 } else { 0.1 })
                .collect()
        })
        .collect();

    let mut fast_net = Network::new(cfg.clone(), &mut seeded_rng(0xFA57));
    let mut slow_net = Network::from_parts(cfg.clone(), fast_net.weights().to_vec()).unwrap();

    // Fast: the real trainer (shuffle off so both sides see one order).
    let mut rng_fast = seeded_rng(0x5EED);
    let report = train_unsupervised(
        &mut fast_net,
        &images,
        TrainOptions {
            epochs: 2,
            shuffle: false,
        },
        &mut rng_fast,
    )
    .unwrap();

    // Reference: the same loop, hand-rolled on the oracle methods.
    let mut rng_slow = seeded_rng(0x5EED);
    let encoder = PoissonEncoder::new(cfg.max_rate);
    slow_net.set_plastic();
    let mut ref_spikes = 0_u64;
    for _ in 0..2 {
        for img in &images {
            slow_net.normalize_weights_reference();
            let train = encoder.encode(img, cfg.timesteps, &mut rng_slow);
            let counts = slow_net.run_sample_reference(&train);
            ref_spikes += counts.iter().map(|&c| u64::from(c)).sum::<u64>();
        }
    }

    assert_eq!(report.samples_seen, 12);
    assert_eq!(report.total_output_spikes, ref_spikes);
    assert_bits_eq(fast_net.weights(), slow_net.weights(), "pipeline weights");
    assert_bits_eq(fast_net.thetas(), slow_net.thetas(), "pipeline thetas");
}
