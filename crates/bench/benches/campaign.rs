//! Criterion bench for the campaign engine: one sweep chunk of the
//! Section IV random-fault experiment on the 30×30 Table I array (1704
//! valves).
//!
//! It times [`SWEEP_CHUNK`] trials at fault count 3, the unit of work the
//! bit-parallel kernel sweeps vector by vector, on one thread with chip
//! setup excluded via [`campaign::run_in`]: the scalar per-trial BFS
//! oracle against the bit-parallel kernel. A single chunk runs inline on
//! the calling thread, so worker counts cannot differ here; the pool's
//! determinism is pinned by the campaign tests instead.
//!
//! Both kernels must produce the oracle's exact rows (asserted below),
//! and the printed summary lines record the speedup and the bit kernel's
//! word passes verbatim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpva_atpg::Atpg;
use fpva_grid::layouts;
use fpva_sim::bitsim::SWEEP_CHUNK;
use fpva_sim::campaign::{self, CampaignConfig, ChipContext};
use fpva_sim::SimKernel;
use std::hint::black_box;
use std::time::Instant;

fn config(kernel: SimKernel) -> CampaignConfig {
    CampaignConfig {
        trials: SWEEP_CHUNK,
        fault_counts: vec![3],
        threads: 1,
        kernel,
        ..Default::default()
    }
}

fn bench_campaign(c: &mut Criterion) {
    let fpva = layouts::table1_30x30();
    let plan = Atpg::new().generate(&fpva).expect("valid layout");
    let suite = plan.to_suite(&fpva);
    let ctx = ChipContext::build(&fpva);

    // The scalar path is the oracle: both kernels benched below must
    // produce its exact rows.
    let oracle = campaign::run_in(&fpva, &suite, &config(SimKernel::Scalar), &ctx).0;

    let mut group = c.benchmark_group(format!("campaign_30x30_{SWEEP_CHUNK}_trials"));
    group.sample_size(10);
    for (name, kernel) in [
        ("scalar_1thread", SimKernel::Scalar),
        ("bit_1thread", SimKernel::BitParallel),
    ] {
        let cfg = config(kernel);
        assert_eq!(
            campaign::run_in(&fpva, &suite, &cfg, &ctx).0,
            oracle,
            "campaign rows must not depend on the kernel"
        );
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| campaign::run_in(black_box(&fpva), &suite, cfg, &ctx));
        });
    }
    group.finish();

    // Explicit best-of-3 measurements, so the speedup lands in the bench
    // output verbatim.
    let best = |cfg: &CampaignConfig| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                black_box(campaign::run_in(&fpva, &suite, cfg, &ctx));
                t0.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let scalar = best(&config(SimKernel::Scalar));
    let bit = best(&config(SimKernel::BitParallel));
    let stats = campaign::run_in(&fpva, &suite, &config(SimKernel::BitParallel), &ctx).1;
    println!(
        "campaign 30x30, {SWEEP_CHUNK} trials (1 thread): scalar {scalar:.2?} vs bit-parallel {bit:.2?} -> {:.2}x speedup",
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
