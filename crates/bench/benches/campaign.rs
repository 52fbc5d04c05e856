//! Criterion bench for the campaign engine: one sweep chunk of the
//! Section IV random-fault experiment on the 30×30 Table I array (1704
//! valves).
//!
//! It times [`SWEEP_CHUNK`] trials at fault count 3, the unit of work the
//! bit-parallel kernel sweeps vector by vector, on one thread with chip
//! setup excluded via [`campaign::run_in`], against the scalar oracle:
//! [`TestSuite::detects`] applied to each trial's fault set, drawn as the
//! campaign draws it. A single chunk runs inline on the calling thread, so
//! worker counts cannot differ here; the pool's determinism is pinned by
//! the campaign tests instead.
//!
//! Before timing, the kernel must produce the oracle's exact row for one
//! chunk at each of the Section IV fault counts 1–5 (asserted below), and
//! the printed summary lines record the speedup and the kernel's word
//! passes verbatim.

use criterion::{criterion_group, criterion_main, Criterion};
use fpva_atpg::Atpg;
use fpva_grid::{layouts, Fpva};
use fpva_sim::bitsim::SWEEP_CHUNK;
use fpva_sim::campaign::{self, CampaignConfig, CampaignRow, ChipContext};
use fpva_sim::TestSuite;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// The scalar oracle's row for the single fault count of `config`: each
/// trial's fault set, drawn from its own RNG as the campaign draws it,
/// against [`TestSuite::detects`].
fn oracle_row(
    fpva: &Fpva,
    suite: &TestSuite,
    config: &CampaignConfig,
    ctx: &ChipContext,
) -> CampaignRow {
    let fault_count = config.fault_counts[0];
    let mut row = CampaignRow {
        fault_count,
        trials: config.trials,
        detected: 0,
        escapes: Vec::new(),
    };
    for trial in 0..config.trials {
        let mut rng = StdRng::seed_from_u64(campaign::trial_seed(config.seed, fault_count, trial));
        let set = campaign::random_fault_set_from(fpva, &mut rng, fault_count, ctx.leaks());
        if suite.detects(fpva, &set) {
            row.detected += 1;
        } else if row.escapes.len() < campaign::MAX_RECORDED_ESCAPES {
            row.escapes.push(set);
        }
    }
    row
}

fn bench_campaign(c: &mut Criterion) {
    let fpva = layouts::table1_30x30();
    let plan = Atpg::new().generate(&fpva).expect("valid layout");
    let suite = plan.to_suite(&fpva);
    let ctx = ChipContext::build(&fpva);
    let config = CampaignConfig {
        trials: SWEEP_CHUNK,
        fault_counts: vec![3],
        threads: 1,
        ..Default::default()
    };
    for fault_count in 1..=5 {
        let config = CampaignConfig {
            fault_counts: vec![fault_count],
            ..config.clone()
        };
        assert_eq!(
            campaign::run_in(&fpva, &suite, &config, &ctx).0,
            [oracle_row(&fpva, &suite, &config, &ctx)],
            "campaign rows must equal the scalar oracle's at fault count {fault_count}"
        );
    }
    let oracle = || oracle_row(&fpva, &suite, &config, &ctx);
    let kernel = || campaign::run_in(black_box(&fpva), &suite, &config, &ctx);

    let mut group = c.benchmark_group(format!("campaign_30x30_{SWEEP_CHUNK}_trials"));
    group.sample_size(10);
    group.bench_function("scalar_1thread", |b| b.iter(oracle));
    group.bench_function("bit_1thread", |b| b.iter(kernel));
    group.finish();

    // Explicit best-of-3 measurements, so the speedup lands in the bench
    // output verbatim.
    let best = |run: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let scalar = best(&|| {
        black_box(oracle());
    });
    let bit = best(&|| {
        black_box(kernel());
    });
    let stats = kernel().1;
    println!(
        "campaign 30x30, {SWEEP_CHUNK} trials (1 thread): scalar oracle {scalar:.2?} vs bit-parallel {bit:.2?} -> {:.2}x speedup",
        scalar.as_secs_f64() / bit.as_secs_f64().max(f64::EPSILON)
    );
    println!(
        "campaign 30x30, {SWEEP_CHUNK} trials (bit-parallel): {} word passes for {} 64-trial blocks ({:.2} per block)",
        stats.word_passes,
        stats.blocks,
        stats.word_passes as f64 / stats.blocks.max(1) as f64
    );
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
