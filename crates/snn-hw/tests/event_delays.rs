//! Synaptic-delay semantics of the event-driven backend.
//!
//! Delays are the one capability the dense engine cannot express, so
//! these tests pin them against two independent oracles:
//!
//! * **time-shift**: a uniform delay `d` on every synapse is exactly the
//!   dense engine run on the same train shifted `d` cycles later (with
//!   deliveries past the end of the sample dropped, matching the ring),
//! * **manual reference**: arbitrary per-synapse delay maps are replayed
//!   through a hand-rolled [`NeuronUnit`]-based simulator that schedules
//!   each weight into a future-cycle accumulator.
//!
//! The ring-buffer edge cases ride along: zero delay (ring unused), the
//! maximum delay, wrap-around (train length ≫ ring length), and
//! same-slot collisions (two spikes landing on one cycle). So does the
//! per-map fallback only delayed engines take for trial groups.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use snn_hw::engine::{
    BatchResult, ComputeEngine, DirectRead, MultiMapResult, NeuronFaultOverlay, NoGuard,
    SpikeGuard, WeightReadPath,
};
use snn_hw::error::HwError;
use snn_hw::event::EventEngine;
use snn_hw::neuron_unit::{NeuronOp, NeuronUnit, OpFaults};
use snn_sim::config::SnnConfig;
use snn_sim::network::Network;
use snn_sim::quant::QuantizedNetwork;
use snn_sim::rng::seeded_rng;
use snn_sim::spike::SpikeTrain;
use softsnn_core::protection::ResetMonitor;

const N_INPUTS: usize = 24;
const N_NEURONS: usize = 10;

fn test_engine(net_seed: u64) -> ComputeEngine {
    let cfg = SnnConfig::builder()
        .n_inputs(N_INPUTS)
        .n_neurons(N_NEURONS)
        .v_thresh(2.0)
        .v_leak(0.1)
        .v_inh(3.0)
        .t_refrac(2)
        .build()
        .expect("valid config");
    let net = Network::new(cfg, &mut seeded_rng(net_seed));
    let qn = QuantizedNetwork::from_network_default(&net);
    ComputeEngine::for_network(&qn).expect("deployable")
}

fn random_train(n_steps: usize, seed: u64, density: f64) -> SpikeTrain {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = SpikeTrain::new(N_INPUTS, n_steps);
    for _ in 0..n_steps {
        let active: Vec<u32> = (0..N_INPUTS as u32)
            .filter(|_| rng.gen_bool(density))
            .collect();
        train.push_step(active);
    }
    train
}

/// The same train delivered `d` cycles later, truncated to the original
/// length — deliveries that would land past the end are dropped, exactly
/// like ring entries scheduled beyond the last cycle.
fn shifted_train(train: &SpikeTrain, d: usize) -> SpikeTrain {
    let n_steps = train.n_steps();
    let mut shifted = SpikeTrain::new(N_INPUTS, n_steps);
    for t in 0..n_steps {
        if t >= d {
            shifted.push_step(train.step(t - d).to_vec());
        } else {
            shifted.push_step(Vec::new());
        }
    }
    shifted
}

/// Hand-rolled delay-aware reference: schedules every resolved weight
/// `delay(row, col)` cycles ahead, then steps each [`NeuronUnit`] with
/// the engine's exact cycle semantics (integrate → leak → compare →
/// spike/reset, then summed direct lateral inhibition of non-fired
/// neurons).
fn manual_delay_reference<P: WeightReadPath, G: SpikeGuard>(
    engine: &ComputeEngine,
    delay: impl Fn(usize, usize) -> u16,
    train: &SpikeTrain,
    path: &P,
    guard: &mut G,
) -> Vec<u32> {
    let n = engine.n_neurons();
    let n_steps = train.n_steps();
    let params = engine.hw_params();
    let v_thresh = engine.thresholds().to_vec();
    let mut units: Vec<NeuronUnit> = engine.neurons().to_vec();
    for u in &mut units {
        u.reset_state();
    }
    // Scheduling pass (kept separate from the stepping pass for clarity).
    let mut pending = vec![vec![0_i64; n]; n_steps];
    for t in 0..n_steps {
        for &row in train.step(t) {
            let row = row as usize;
            // Indexed on purpose: each column lands in a different
            // `pending[target]` plane, so no single slice to iterate.
            #[allow(clippy::needless_range_loop)]
            for col in 0..n {
                let w = path.read(engine.crossbar().read(row, col));
                if w == 0 {
                    continue;
                }
                let target = t + delay(row, col) as usize;
                if target < n_steps {
                    pending[target][col] += i64::from(w);
                }
            }
        }
    }
    let mut counts = vec![0_u32; n];
    for drive in &pending {
        let mut fired: Vec<usize> = Vec::new();
        for (j, unit) in units.iter_mut().enumerate() {
            let out = unit.step(drive[j], v_thresh[j], &params);
            let allowed = guard.allow_spike(j, out.cmp_out);
            if out.spike && allowed {
                fired.push(j);
            }
        }
        if !fired.is_empty() && params.v_inh > 0 {
            let total_inh = params.v_inh.saturating_mul(fired.len() as i32);
            for (j, unit) in units.iter_mut().enumerate() {
                if !fired.contains(&j) {
                    unit.inhibit(total_inh);
                }
            }
        }
        for &j in &fired {
            counts[j] += 1;
        }
    }
    counts
}

/// Applies `delay(row, col)` to every synapse of the event engine.
fn set_all_delays(event: &mut EventEngine, delay: impl Fn(usize, usize) -> u16) {
    for row in 0..N_INPUTS {
        for col in 0..N_NEURONS {
            event
                .set_synapse_delay(row, col, delay(row, col))
                .expect("in range");
        }
    }
}

/// Uniform delay `d` on every synapse equals the dense engine on the
/// `d`-shifted train — for `d` from 1 up to 5, with trains long enough
/// that the ring wraps dozens of times.
#[test]
fn uniform_delay_matches_time_shifted_dense() {
    for d in 1_u16..=5 {
        let mut dense = test_engine(0xd31a);
        let mut event = EventEngine::new(dense.clone());
        set_all_delays(&mut event, |_, _| d);
        assert_eq!(event.max_delay(), d);
        let train = random_train(80, 100 + u64::from(d), 0.35);
        let expected = dense.run_sample(
            &shifted_train(&train, d as usize),
            &DirectRead,
            &mut NoGuard,
        );
        let got = event.run_sample(&train, &DirectRead, &mut NoGuard);
        assert_eq!(
            got, expected,
            "uniform delay {d} diverged from time-shift oracle"
        );
        // The same equivalence under a stateful guard.
        let mut dense_guard = ResetMonitor::new(N_NEURONS, 2);
        let mut event_guard = ResetMonitor::new(N_NEURONS, 2);
        let expected = dense.run_sample(
            &shifted_train(&train, d as usize),
            &DirectRead,
            &mut dense_guard,
        );
        let got = event.run_sample(&train, &DirectRead, &mut event_guard);
        assert_eq!(
            got, expected,
            "uniform delay {d} diverged under ResetMonitor"
        );
        assert_eq!(dense_guard.n_disabled(), event_guard.n_disabled());
    }
}

/// Arbitrary per-synapse delay maps (including zero-delay synapses mixed
/// with the maximum) match the manual scheduling reference across random
/// trains and seeds.
#[test]
fn arbitrary_delay_map_matches_manual_reference() {
    for seed in 0_u64..6 {
        let mut rng = StdRng::seed_from_u64(0xde1a ^ seed);
        let mut delays = [[0_u16; N_NEURONS]; N_INPUTS];
        for row in delays.iter_mut() {
            for d in row.iter_mut() {
                *d = rng.gen_range(0..=4);
            }
        }
        let dense = test_engine(0xabc0 + seed);
        let mut event = EventEngine::new(dense.clone());
        set_all_delays(&mut event, |r, c| delays[r][c]);
        let train = random_train(60, 0x500 + seed, 0.4);
        let expected = manual_delay_reference(
            &dense,
            |r, c| delays[r][c],
            &train,
            &DirectRead,
            &mut NoGuard,
        );
        let got = event.run_sample(&train, &DirectRead, &mut NoGuard);
        assert_eq!(
            got, expected,
            "delay map seed {seed} diverged from manual reference"
        );
    }
}

/// Setting delays and then clearing them back to zero restores exact
/// dense equivalence — the ring is provably out of the path again.
#[test]
fn zero_delay_after_nonzero_matches_dense() {
    let mut dense = test_engine(0x0de1);
    let mut event = EventEngine::new(dense.clone());
    set_all_delays(&mut event, |r, _| (r % 3) as u16);
    assert_eq!(event.max_delay(), 2);
    set_all_delays(&mut event, |_, _| 0);
    assert_eq!(event.max_delay(), 0);
    let train = random_train(50, 0x77, 0.4);
    let expected = dense.run_sample(&train, &DirectRead, &mut NoGuard);
    let got = event.run_sample(&train, &DirectRead, &mut NoGuard);
    assert_eq!(got, expected);
}

/// Two spikes delayed onto the same cycle (delays 2 and 1, fired one
/// cycle apart) accumulate additively in one ring slot — pinned against
/// the manual reference so the collision is provably summed, not
/// overwritten.
#[test]
fn same_slot_collisions_accumulate() {
    let dense = test_engine(0xc011);
    let mut event = EventEngine::new(dense.clone());
    // Row 0 delayed 2 cycles, row 1 delayed 1 cycle, all else immediate.
    let delay = |r: usize, _c: usize| -> u16 {
        match r {
            0 => 2,
            1 => 1,
            _ => 0,
        }
    };
    set_all_delays(&mut event, delay);
    let mut train = SpikeTrain::new(N_INPUTS, 10);
    train.push_step(vec![0]); // t=0, lands t=2
    train.push_step(vec![1]); // t=1, lands t=2 — collision
    for _ in 2..10 {
        train.push_step(Vec::new());
    }
    let expected = manual_delay_reference(&dense, delay, &train, &DirectRead, &mut NoGuard);
    let got = event.run_sample(&train, &DirectRead, &mut NoGuard);
    assert_eq!(got, expected);
}

/// Deliveries scheduled past the end of the sample are dropped: with a
/// uniform delay and input only on the final cycle, nothing is ever
/// delivered and no neuron can fire.
#[test]
fn deliveries_past_sample_end_are_dropped() {
    let dense = test_engine(0xe4d);
    let mut event = EventEngine::new(dense.clone());
    set_all_delays(&mut event, |_, _| 3);
    let mut train = SpikeTrain::new(N_INPUTS, 8);
    for _ in 0..7 {
        train.push_step(Vec::new());
    }
    train.push_step((0..N_INPUTS as u32).collect());
    let got = event.run_sample(&train, &DirectRead, &mut NoGuard);
    assert!(
        got.iter().all(|&c| c == 0),
        "delayed-past-end input must not fire: {got:?}"
    );
}

/// Delay state does not survive into the next sample — the ring is
/// cleared at the start of every sample, so no delivery leaks across.
#[test]
fn ring_state_does_not_leak_across_samples() {
    let dense = test_engine(0x1ea);
    let mut event = EventEngine::new(dense.clone());
    set_all_delays(&mut event, |_, _| 2);
    // Sample A ends with pending deliveries in flight.
    let mut tail_loaded = SpikeTrain::new(N_INPUTS, 4);
    for _ in 0..3 {
        tail_loaded.push_step(Vec::new());
    }
    tail_loaded.push_step((0..N_INPUTS as u32).collect());
    let _ = event.run_sample(&tail_loaded, &DirectRead, &mut NoGuard);
    // Sample B is fully silent: any carried-over ring slot would fire.
    let silent = SpikeTrain::new(N_INPUTS, 6);
    let counts = event.run_sample(&silent, &DirectRead, &mut NoGuard);
    assert!(
        counts.iter().all(|&c| c == 0),
        "ring leaked deliveries across samples: {counts:?}"
    );
}

/// Out-of-range rows and columns are rejected with the indexed error.
#[test]
fn set_synapse_delay_bounds_errors() {
    let mut event = EventEngine::new(test_engine(0xb0b));
    assert!(event.set_synapse_delay(0, 0, 5).is_ok());
    match event.set_synapse_delay(N_INPUTS, 0, 1) {
        Err(HwError::IndexOutOfRange { what, index, bound }) => {
            assert_eq!(what, "row");
            assert_eq!(index, N_INPUTS);
            assert_eq!(bound, N_INPUTS);
        }
        other => panic!("expected row bounds error, got {other:?}"),
    }
    match event.set_synapse_delay(0, N_NEURONS, 1) {
        Err(HwError::IndexOutOfRange { what, index, bound }) => {
            assert_eq!(what, "col");
            assert_eq!(index, N_NEURONS);
            assert_eq!(bound, N_NEURONS);
        }
        other => panic!("expected col bounds error, got {other:?}"),
    }
}

/// A delayed engine keeps the per-map fallback (the lane pass has no
/// delay ring): each trial-group entry equals per-(map, sample)
/// `run_sample` calls on a clone with the map injected, under a stateful
/// guard and a persisted base fault, and the crossbar codes and neuron
/// fault flags are restored after every call.
#[test]
fn delayed_trial_groups_match_injected_per_sample_runs() {
    let mut dense = test_engine(0xfa11);
    dense.neurons_mut()[2].faults.set(NeuronOp::VmemLeak);
    let mut event = EventEngine::new(dense);
    set_all_delays(&mut event, |r, c| ((r + 2 * c) % 4) as u16);
    assert_eq!(event.max_delay(), 3);
    let trains: Vec<SpikeTrain> = (0..3).map(|s| random_train(30, 0x900 + s, 0.4)).collect();
    let mut rng = StdRng::seed_from_u64(0xf11b);
    let maps: Vec<NeuronFaultOverlay> = (0..6)
        .map(|m| {
            let mut overlay = NeuronFaultOverlay::new();
            overlay.push_neuron_op((m * 3 % N_NEURONS) as u32, NeuronOp::ALL[m % 4]);
            overlay.push_neuron_op(((m + 5) % N_NEURONS) as u32, NeuronOp::VmemReset);
            for _ in 0..2 + m * 3 {
                overlay.push_weight_flip(
                    rng.gen_range(0..N_INPUTS) as u32,
                    rng.gen_range(0..N_NEURONS) as u32,
                    rng.gen_range(0_u8..8),
                );
            }
            overlay
        })
        .collect();
    let guard = ResetMonitor::new(N_NEURONS, 2);
    let pristine = event.clone();
    let injected_run = |map: &NeuronFaultOverlay, train: &SpikeTrain| {
        let mut e = pristine.clone();
        for &(row, col, bit) in map.weight_flips() {
            e.engine_mut()
                .flip_weight_bit(row as usize, col as usize, bit)
                .expect("in range");
        }
        for &(j, op) in map.neuron_ops() {
            e.engine_mut().neurons_mut()[j as usize].faults.set(op);
        }
        e.run_sample(train, &DirectRead, &mut guard.clone())
    };
    let codes = event.engine().crossbar().codes();
    let faults: Vec<OpFaults> = event.engine().neurons().iter().map(|u| u.faults).collect();
    let assert_restored = |event: &EventEngine, label: &str| {
        assert_eq!(event.engine().crossbar().codes(), codes, "{label}: codes");
        let now: Vec<OpFaults> = event.engine().neurons().iter().map(|u| u.faults).collect();
        assert_eq!(now, faults, "{label}: neuron fault flags");
    };

    let mut batch = BatchResult::new();
    event.run_batch_into(&trains, &DirectRead, &guard, &mut batch);
    for (s, train) in trains.iter().enumerate() {
        let want = injected_run(&NeuronFaultOverlay::new(), train);
        assert_eq!(batch.counts(s), want.as_slice(), "batch sample {s}");
    }
    assert_restored(&event, "batch");

    let mut out = MultiMapResult::new();
    event.run_batch_multi_map(&trains, &maps, &DirectRead, &guard, &mut out);
    for (m, map) in maps.iter().enumerate() {
        for (s, train) in trains.iter().enumerate() {
            let want = injected_run(map, train);
            assert_eq!(out.counts(m, s), want.as_slice(), "map {m} sample {s}");
        }
    }
    assert_restored(&event, "multi-map");
}
