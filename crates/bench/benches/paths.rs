//! Criterion bench comparing the flow-path engines (the Fig. 8 trade-off):
//! hierarchical band construction vs direct greedy cover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpva_atpg::heuristic::greedy_cover;
use fpva_atpg::hierarchy::{hierarchical_cover, HierarchyConfig};
use fpva_grid::layouts;
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let sizes = [10usize, 15, 20, 30];
    let mut group = c.benchmark_group("path_engines_full_arrays");
    group.sample_size(10);
    for n in sizes {
        let f = layouts::full_array(n, n);
        group.bench_with_input(BenchmarkId::new("hierarchical", n), &f, |b, f| {
            b.iter(|| hierarchical_cover(black_box(f), &HierarchyConfig::default()).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &f, |b, f| {
            b.iter(|| greedy_cover(black_box(f), 7).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
