//! Micro-benchmarks of the compute-engine datapath: whole-sample runs,
//! batches and trial groups, with the baseline and the bounded read path.
//!
//! The single-sample group benches the optimized hot path
//! (`run_sample_into`: the one-lane trial group, SoA lanes + batched
//! guard, allocation-free) side by side with the retained
//! pre-optimization reference (`run_sample_reference`, per-element
//! closure reads, per-neuron guard calls, per-call allocations), so the
//! speedup is measured inside the same binary on the same fixture.
//!
//! `engine_run_sample` crosses both read-path shapes (the identity
//! `DirectRead`, which reads the registers, and the bounded BnP3 path,
//! which reads the transformed-crossbar image of its table) with both
//! guards (NoGuard/ResetMonitor), so guard overhead is visible per read
//! path. A trailing pseudo-group derives
//! `guard_overhead` (monitored / unguarded sample cost) and
//! `monitored_speedup_vs_reference` for the JSON perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use snn_faults::grid::{CellPolicy, GridPointCtx, GridRunner, GridSpec};
use snn_faults::location::FaultDomain;
use snn_faults::stats::{Lookahead, StopRule};
use snn_hw::engine::{BatchResult, DirectRead, NoGuard, SpikeGuard, WeightReadPath};
use softsnn_bench::fixture;
use softsnn_core::bounding::{BnpVariant, BoundedRead};
use softsnn_core::methodology::SoftSnnDeployment;
use softsnn_core::mitigation::Technique;
use softsnn_core::protection::ResetMonitor;
use softsnn_exp::fig13::{evaluate_shard, evaluate_shard_in_domain};
use std::hint::black_box;

fn bench_run_sample(c: &mut Criterion) {
    // Both read paths (identity / bounded table) × every guard (NoGuard /
    // paper ResetMonitor), plus the reference formulation at both ends of
    // the crossing.
    let f = fixture();
    let n = f.deployment.quantized().n_neurons;
    let bounded = BoundedRead::new(f.deployment.bounding_for(BnpVariant::Bnp3));

    fn bench_kernel<P: WeightReadPath, G: SpikeGuard>(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        fixture: &softsnn_bench::Fixture,
        path: &P,
        mut guard: G,
    ) {
        group.bench_function(name, |b| {
            let mut deployment = fixture.deployment.clone();
            let engine = deployment.engine_mut();
            let train = &fixture.trains[0];
            b.iter(|| black_box(engine.run_sample_into(train, path, &mut guard).len()));
        });
    }

    fn bench_reference<P: WeightReadPath, G: SpikeGuard>(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        fixture: &softsnn_bench::Fixture,
        path: &P,
        mut guard: G,
    ) {
        group.bench_function(name, |b| {
            let mut deployment = fixture.deployment.clone();
            let engine = deployment.engine_mut();
            let train = &fixture.trains[0];
            b.iter(|| black_box(engine.run_sample_reference(train, path, &mut guard)));
        });
    }

    let mut group = c.benchmark_group("engine_run_sample");
    group.sample_size(20);
    bench_kernel(&mut group, "direct_noguard", f, &DirectRead, NoGuard);
    bench_reference(
        &mut group,
        "direct_noguard_reference",
        f,
        &DirectRead,
        NoGuard,
    );
    let monitor = || ResetMonitor::paper(n);
    bench_kernel(&mut group, "direct_monitored", f, &DirectRead, monitor());
    // Same BnP3 read path without the monitor: the denominator that
    // isolates guard cost from the read-path change.
    bench_kernel(&mut group, "bounded_noguard", f, &bounded, NoGuard);
    bench_kernel(&mut group, "bounded_monitored", f, &bounded, monitor());
    bench_reference(
        &mut group,
        "bounded_monitored_reference",
        f,
        &bounded,
        monitor(),
    );
    group.finish();
}

/// The paper-scale campaign fixture shared by the batched-sample and
/// multi-map groups: an N400 engine (784 inputs — untrained random
/// weights; engine throughput does not care), a BnP3-shaped bounded read
/// path, the paper reset monitor, and 10 Poisson-encoded test samples.
/// Construction is seed-for-seed the fixture `engine_run_batch` has
/// always used, so its trajectory metrics stay comparable.
fn paper_scale_campaign_fixture() -> (
    snn_hw::engine::ComputeEngine,
    BoundedRead,
    ResetMonitor,
    Vec<snn_sim::spike::SpikeTrain>,
) {
    use snn_sim::encoding::PoissonEncoder;
    use snn_sim::network::Network;
    use snn_sim::quant::QuantizedNetwork;
    use snn_sim::rng::seeded_rng;
    use softsnn_core::bounding::BoundingConfig;

    let cfg = snn_sim::config::SnnConfig::builder()
        .n_neurons(400)
        .timesteps(40)
        .build()
        .expect("paper-shaped config");
    let net = Network::new(cfg.clone(), &mut seeded_rng(0xba7c4));
    let qn = QuantizedNetwork::from_network_default(&net);
    let engine = snn_hw::engine::ComputeEngine::for_network(&qn).expect("deployable");
    let path = BoundedRead::new(BoundingConfig {
        threshold_code: 96,
        default_code: 6,
    });
    let monitor = ResetMonitor::paper(400);
    let encoder = PoissonEncoder::new(cfg.max_rate);
    let mut rng = seeded_rng(0x5eed);
    let trains: Vec<snn_sim::spike::SpikeTrain> = (0..10)
        .map(|s| {
            let img: Vec<f32> = (0..784)
                .map(|p| if (p + s * 13) % 5 < 2 { 0.8 } else { 0.0 })
                .collect();
            encoder.encode(&img, cfg.timesteps, &mut rng)
        })
        .collect();
    (engine, path, monitor, trains)
}

fn bench_run_batch(c: &mut Criterion) {
    // The campaign workload at campaign scale: the protected
    // configuration (BnP3-shaped bounding + reset monitor) batched
    // through `run_batch_into` vs the per-sample loop with the same
    // per-sample guard-cloning semantics. The two paths produce
    // bit-identical counts (property-tested) and run the same lane pass —
    // a single sample is its one-lane case — so this measures sample
    // interleaving alone; at N400 the transformed-crossbar image is
    // ~306 KiB, so keeping each cycle's active rows hot across the whole
    // batch is where interleaving pays.
    let (mut engine, path, monitor, trains) = paper_scale_campaign_fixture();

    let mut group = c.benchmark_group("engine_run_batch");
    group.sample_size(20);
    group.bench_function("bnp3_monitored_batched", |b| {
        let mut engine = engine.clone();
        let mut out = BatchResult::new();
        b.iter(|| {
            engine.run_batch_into(&trains, &path, &monitor, &mut out);
            black_box(out.counts(0)[0])
        });
    });
    group.bench_function("bnp3_monitored_per_sample", |b| {
        b.iter(|| {
            let mut acc = 0_u32;
            for train in &trains {
                let mut guard = monitor.clone();
                acc += engine.run_sample_into(train, &path, &mut guard)[0];
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_run_multi_map(c: &mut Criterion) {
    // The trials-batching lever: K = 4 neuron-only fault maps of one
    // trial group (the Fig. 13 cell shape — same technique, same rate,
    // independent maps) on the N400 BnP3+monitor workload, evaluated
    // through `run_batch_multi_map` (one drive/accumulate per cycle for
    // all K maps) vs the previous best — one `run_batch_into` pass per
    // map. Both produce bit-identical counts (property-tested), so the
    // ratio is pure drive-phase amortization.
    use snn_hw::engine::{MultiMapResult, NeuronFaultOverlay};
    use snn_hw::neuron_unit::NeuronOp;

    let (engine, path, monitor, trains) = paper_scale_campaign_fixture();
    let maps: Vec<NeuronFaultOverlay> = (0..4)
        .map(|m| {
            (0..8)
                .map(|i| {
                    (
                        ((m * 97 + i * 31 + 5) % 400) as u32,
                        NeuronOp::ALL[(m + i) % 4],
                    )
                })
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("engine_multi_map");
    group.sample_size(20);
    group.bench_function("bnp3_monitored_multi_map", |b| {
        let mut engine = engine.clone();
        let mut out = MultiMapResult::new();
        b.iter(|| {
            engine.run_batch_multi_map(&trains, &maps, &path, &monitor, &mut out);
            black_box(out.counts(0, 0)[0])
        });
    });
    group.bench_function("bnp3_monitored_per_map", |b| {
        let mut engine = engine.clone();
        let mut out = BatchResult::new();
        b.iter(|| {
            let mut acc = 0_u32;
            for map in &maps {
                engine.apply_overlay(map).expect("in range");
                engine.run_batch_into(&trains, &path, &monitor, &mut out);
                acc += out.counts(0)[0];
                engine.reload_parameters(&mut NoGuard);
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_run_weight_multi_map(c: &mut Criterion) {
    // The headline trial-group lever on the paper's Fig. 13 fault model:
    // K = 16 compute-engine fault maps at rate 1e-3 (≈ 315 weight flips
    // plus a neuron site or two each) on the N400 BnP3+monitor workload.
    // `run_batch_multi_map` shares one drive accumulate per cycle across
    // all K maps and adds each map's weight deltas on the active rows;
    // the baseline is the per-map loop it replaced — heal, inject, one
    // `run_batch_into` pass per map. Each side starts from the same
    // generated maps and includes its own map handling (lowering vs
    // injection); both produce bit-identical counts (property-tested).
    use snn_faults::fault_map::FaultMap;
    use snn_faults::injector::{inject, lower_overlay};
    use snn_faults::location::FaultSpace;
    use snn_hw::engine::{MultiMapResult, NeuronFaultOverlay};

    let (engine, path, monitor, trains) = paper_scale_campaign_fixture();
    let space = FaultSpace::new(
        engine.n_inputs(),
        engine.n_neurons(),
        FaultDomain::ComputeEngine,
    );
    let maps: Vec<FaultMap> = (0..16)
        .map(|m| FaultMap::generate(&space, 1e-3, 0x3a9 + m))
        .collect();

    let mut group = c.benchmark_group("engine_weight_multi_map");
    group.sample_size(10);
    group.bench_function("bnp3_monitored_multi_map", |b| {
        let mut engine = engine.clone();
        let mut out = MultiMapResult::new();
        let mut overlays = vec![NeuronFaultOverlay::new(); maps.len()];
        b.iter(|| {
            for (overlay, map) in overlays.iter_mut().zip(&maps) {
                lower_overlay(&engine, map, overlay).expect("in range");
            }
            engine.reload_parameters(&mut monitor.clone());
            engine.run_batch_multi_map(&trains, &overlays, &path, &monitor, &mut out);
            black_box(out.counts(0, 0)[0])
        });
    });
    group.bench_function("bnp3_monitored_per_map", |b| {
        let mut engine = engine.clone();
        let mut out = BatchResult::new();
        b.iter(|| {
            let mut acc = 0_u32;
            for map in &maps {
                engine.reload_parameters(&mut monitor.clone());
                inject(&mut engine, map).expect("in range");
                engine.run_batch_into(&trains, &path, &monitor, &mut out);
                acc += out.counts(0)[0];
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_engine_accumulate(c: &mut Criterion) {
    // The accumulate kernel in isolation at N400 paper scale: one
    // cycle's drive phase over the fixture crossbar image (784 × 400
    // codes) with a realistic Poisson-encoded active-row set. The
    // baseline is the scalar zero-then-add row-at-a-time formulation
    // (the historical `accumulate_cached_rows` shape: one accumulator
    // pass per row); `u16_tiles` is the engine's one kernel, which sums
    // the active rows into `u16` partials per 64-column tile and widens
    // them once per tile. Both are bit-identical (property-tested); the
    // ratio is pure formulation cost.
    use snn_hw::kernels::write_rows_blocked;

    let (engine, _path, _monitor, trains) = paper_scale_campaign_fixture();
    let n = 400_usize;
    let src: Vec<u8> = engine.crossbar().codes_slice().to_vec();
    let active: Vec<u32> = trains[0].step(0).to_vec();
    let mut acc = vec![0_i32; n];

    let mut group = c.benchmark_group("engine_accumulate");
    group.sample_size(20);
    group.bench_function("scalar_rows", |b| {
        b.iter(|| {
            acc.fill(0);
            for &row in &active {
                let base = row as usize * n;
                for (a, &c) in acc.iter_mut().zip(&src[base..base + n]) {
                    *a += c as i32;
                }
            }
            black_box(acc[0])
        });
    });
    group.bench_function("u16_tiles", |b| {
        b.iter(|| {
            write_rows_blocked(&src, n, &active, &mut acc);
            black_box(acc[0])
        });
    });
    group.finish();
}

fn bench_engine_sparse(c: &mut Criterion) {
    // The event-backend lever: the same N400 BnP3+monitor workload on a
    // *sparse* input regime — a handful of low-intensity pixels per
    // image, the shape of paper-typical low-rate Poisson coding — where
    // most cycles carry no spikes at all. The dense engine pays the full
    // neuron phase every cycle; the event engine skips provably-silent
    // cycles and replays leak lazily. Both loops use identical per-sample
    // guard-clone discipline and produce bit-identical counts
    // (property-tested), so the ratio is pure silent-cycle savings.
    use snn_hw::event::EventEngine;
    use snn_sim::encoding::PoissonEncoder;
    use snn_sim::rng::seeded_rng;
    use softsnn_core::methodology::SpikeActivityStats;

    let (engine, path, monitor, _dense_trains) = paper_scale_campaign_fixture();
    let encoder = PoissonEncoder::new(0.25);
    let mut rng = seeded_rng(0x5a75e);
    let trains: Vec<snn_sim::spike::SpikeTrain> = (0..10)
        .map(|s| {
            // 12 lit pixels at intensity 0.14 → per-pixel rate 0.035,
            // P(silent cycle) = 0.965^12 ≈ 0.65.
            let img: Vec<f32> = (0..784)
                .map(|p| {
                    if (p * 61 + s * 17) % 784 < 12 {
                        0.14
                    } else {
                        0.0
                    }
                })
                .collect();
            encoder.encode(&img, 40, &mut rng)
        })
        .collect();
    // Ground the claimed regime in what was actually encoded.
    let stats = SpikeActivityStats::of_trains(&trains);
    eprintln!(
        "engine_sparse fixture: {:.2} events/cycle, {:.1}% silent cycles",
        stats.events_per_cycle(),
        stats.silent_fraction() * 100.0,
    );

    let mut group = c.benchmark_group("engine_sparse");
    group.sample_size(20);
    group.bench_function("dense_per_sample", |b| {
        let mut engine = engine.clone();
        b.iter(|| {
            let mut acc = 0_u32;
            for train in &trains {
                let mut guard = monitor.clone();
                acc += engine.run_sample_into(train, &path, &mut guard)[0];
            }
            black_box(acc)
        });
    });
    group.bench_function("event_per_sample", |b| {
        let mut event = EventEngine::new(engine.clone());
        b.iter(|| {
            let mut acc = 0_u32;
            for train in &trains {
                let mut guard = monitor.clone();
                acc += event.run_sample_into(train, &path, &mut guard)[0];
            }
            black_box(acc)
        });
    });
    group.finish();
}

/// The adaptive-campaign fixture grid: No-Mitigation × 2 fault rates at
/// a deep per-cell trial budget, evaluated through literally the Fig. 13
/// shard path on the shared N64 bench deployment.
fn adaptive_grid_spec() -> GridSpec {
    GridSpec::new(
        13,
        0x5EED,
        vec![Technique::PAPER_SET[0].id()],
        vec![0.02, 0.08],
        96,
    )
}

/// The bench stop rule: at confidence 0.75 and half-width 20 pp the
/// distribution-free Hoeffding bound is satisfied by `n ≈ 26`, so every
/// cell stops well short of the 96-trial budget regardless of the
/// observed accuracies (lower variance only stops it sooner via the
/// empirical-Bernstein bound).
fn adaptive_rule() -> StopRule {
    StopRule::new(8, 96, 20.0, 0.75).expect("valid bench stop rule")
}

fn bench_campaign_adaptive(c: &mut Criterion) {
    // Fixed-budget vs sequential-early-stopping campaign on the same
    // grid, same pinned seed stream, same shard evaluation: the adaptive
    // run's cells are bit-identical prefixes of the fixed run's, so the
    // entire time difference is trials *not run*.
    let f = fixture();
    let encoded = f
        .deployment
        .encode_test_set(f.test.images(), f.test.labels(), 21)
        .expect("encode bench test set");
    let spec = adaptive_grid_spec();

    let mut group = c.benchmark_group("campaign_adaptive");
    group.sample_size(10);
    group.bench_function("fixed_budget", |b| {
        let runner = GridRunner::new(spec.clone());
        b.iter(|| {
            let results = runner
                .run_grouped(&f.deployment, |d, shard| evaluate_shard(d, shard, &encoded))
                .expect("fixed campaign run");
            black_box(results.cells().len())
        });
    });
    let runner = |lookahead| {
        let policy = CellPolicy::new(Some(adaptive_rule()), lookahead, spec.trials)
            .expect("rule fits budget");
        GridRunner::new(spec.clone()).with_policy(policy)
    };
    group.bench_function("adaptive", |b| {
        let runner = runner(Lookahead::default());
        b.iter(|| {
            let results = runner
                .run_grouped(&f.deployment, |d, shard| evaluate_shard(d, shard, &encoded))
                .expect("adaptive campaign run");
            black_box(results.cells().len())
        });
    });

    // The lookahead pair runs on a neuron-only fault domain: its maps add
    // no weight corrections to the shared drive, so the ratio measures
    // grouping alone (one reload and one shared drive phase per group
    // instead of per trial). Auto lookahead sizes groups from the
    // half-width ratio — at this distribution-free rule it lands on the
    // stop trial with zero discards.
    let neuron_domain = |d: &mut SoftSnnDeployment, shard: &[GridPointCtx]| {
        evaluate_shard_in_domain(d, shard, &encoded, FaultDomain::Neurons(None))
    };
    group.bench_function("adaptive_seq_neuron", |b| {
        let runner = runner(Lookahead::default());
        b.iter(|| {
            let results = runner
                .run_grouped(&f.deployment, neuron_domain)
                .expect("sequential neuron-domain campaign run");
            black_box(results.cells().len())
        });
    });
    group.bench_function("adaptive_lookahead", |b| {
        let runner = runner(Lookahead::Auto);
        b.iter(|| {
            let results = runner
                .run_grouped(&f.deployment, neuron_domain)
                .expect("lookahead campaign run");
            black_box(results.cells().len())
        });
    });
    group.finish();

    // Trials saved is a property of the grid + rule, not of timing noise:
    // count it from one real adaptive pass.
    let adaptive = runner(Lookahead::default())
        .run_grouped(&f.deployment, |d, shard| evaluate_shard(d, shard, &encoded))
        .expect("adaptive campaign run");
    let saved: usize = adaptive
        .cells()
        .iter()
        .map(|cell| spec.trials - cell.trials_run)
        .sum();
    c.add_metric("adaptive_trials_saved", saved as f64);

    // Lookahead waste is likewise deterministic: evaluated − kept across
    // cells under the Auto policy, counted from one real pass. Emitted so
    // the trajectory shows speculation cost next to its speedup.
    let waste: usize = runner(Lookahead::Auto)
        .run_cells(&spec.cell_keys(), &f.deployment, neuron_domain, |run| {
            Ok(run.evaluated - run.values.len())
        })
        .expect("lookahead campaign run")
        .iter()
        .sum();
    c.add_metric("adaptive_lookahead_waste", waste as f64);
}

fn emit_derived_metrics(c: &mut Criterion) {
    // Derived metrics for the BENCH_engine.json trajectory: guard cost
    // isolated on the same read path (monitored / unmonitored BnP3, so a
    // monitor regression cannot hide behind the read-path difference) and
    // the protected path's in-binary speedup over the retained reference
    // formulation.
    let monitored = c.ns_per_iter("engine_run_sample", "bounded_monitored");
    let bounded = c.ns_per_iter("engine_run_sample", "bounded_noguard");
    let reference = c.ns_per_iter("engine_run_sample", "bounded_monitored_reference");
    if let (Some(monitored), Some(bounded)) = (monitored, bounded) {
        if bounded > 0.0 {
            c.add_metric("guard_overhead", monitored / bounded);
        }
    }
    if let (Some(monitored), Some(reference)) = (monitored, reference) {
        if monitored > 0.0 {
            c.add_metric("monitored_speedup_vs_reference", reference / monitored);
        }
    }
    // Campaign-throughput headline: the batched pass vs the per-sample
    // loop on the identical BnP3+monitor workload.
    let batched = c.ns_per_iter("engine_run_batch", "bnp3_monitored_batched");
    let per_sample = c.ns_per_iter("engine_run_batch", "bnp3_monitored_per_sample");
    if let (Some(batched), Some(per_sample)) = (batched, per_sample) {
        if batched > 0.0 {
            c.add_metric("batch_speedup", per_sample / batched);
        }
    }
    // Trial-group headline: K=4 neuron-only fault maps through one shared
    // drive phase vs one batched pass per map.
    let multi = c.ns_per_iter("engine_multi_map", "bnp3_monitored_multi_map");
    let per_map = c.ns_per_iter("engine_multi_map", "bnp3_monitored_per_map");
    if let (Some(multi), Some(per_map)) = (multi, per_map) {
        if multi > 0.0 {
            c.add_metric("multi_map_speedup", per_map / multi);
        }
    }
    // Weight-fault trial-group headline: K=16 compute-engine maps through
    // one shared drive phase plus per-map weight deltas vs heal, inject
    // and one batched pass per map.
    let multi = c.ns_per_iter("engine_weight_multi_map", "bnp3_monitored_multi_map");
    let per_map = c.ns_per_iter("engine_weight_multi_map", "bnp3_monitored_per_map");
    if let (Some(multi), Some(per_map)) = (multi, per_map) {
        if multi > 0.0 {
            c.add_metric("weight_multi_map_speedup", per_map / multi);
        }
    }
    // Kernel headline: the engine's `u16`-tile accumulate vs the scalar
    // row-at-a-time formulation on the same N400 drive phase.
    let scalar = c.ns_per_iter("engine_accumulate", "scalar_rows");
    let tiles = c.ns_per_iter("engine_accumulate", "u16_tiles");
    if let (Some(scalar), Some(tiles)) = (scalar, tiles) {
        if tiles > 0.0 {
            c.add_metric("accum_speedup", scalar / tiles);
        }
    }
    // Sparse-workload headline: the event-driven backend vs the dense
    // engine on the identical sparse N400 workload and guard discipline.
    let dense = c.ns_per_iter("engine_sparse", "dense_per_sample");
    let event = c.ns_per_iter("engine_sparse", "event_per_sample");
    if let (Some(dense), Some(event)) = (dense, event) {
        if event > 0.0 {
            c.add_metric("sparse_speedup", dense / event);
        }
    }
    // Statistics headline: the sequential-early-stopping campaign vs the
    // fixed 96-trial budget on the identical grid and seed stream — the
    // whole ratio is trials the stop rule proved unnecessary.
    let fixed = c.ns_per_iter("campaign_adaptive", "fixed_budget");
    let adaptive = c.ns_per_iter("campaign_adaptive", "adaptive");
    if let (Some(fixed), Some(adaptive)) = (fixed, adaptive) {
        if adaptive > 0.0 {
            c.add_metric("adaptive_speedup", fixed / adaptive);
        }
    }
    // Speculation headline: trial-at-a-time vs lookahead-batched adaptive
    // on the identical neuron-domain grid, rule, and seed stream — both
    // keep bit-identical trials, so the ratio is pure grouping (one
    // multi-map drive phase per group instead of one reload per trial).
    let seq = c.ns_per_iter("campaign_adaptive", "adaptive_seq_neuron");
    let lookahead = c.ns_per_iter("campaign_adaptive", "adaptive_lookahead");
    if let (Some(seq), Some(lookahead)) = (seq, lookahead) {
        if lookahead > 0.0 {
            c.add_metric("adaptive_batch_speedup", seq / lookahead);
        }
    }
}

criterion_group!(
    benches,
    bench_run_sample,
    bench_run_batch,
    bench_run_multi_map,
    bench_run_weight_multi_map,
    bench_engine_accumulate,
    bench_engine_sparse,
    bench_campaign_adaptive,
    emit_derived_metrics
);
criterion_main!(benches);
