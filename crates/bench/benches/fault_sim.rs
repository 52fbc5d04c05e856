//! Criterion bench for the Section IV detection experiment: pressure
//! propagation, suite application, a scaled-down random campaign and the
//! exhaustive two-fault audit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpva_atpg::Atpg;
use fpva_grid::{layouts, TestVector};
use fpva_sim::audit;
use fpva_sim::campaign::{self, CampaignConfig};
use fpva_sim::{propagate, FaultSet};
use std::hint::black_box;

fn bench_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("pressure_propagation_all_open");
    for entry in layouts::table1() {
        let vector = TestVector::all_open(entry.fpva.valve_count());
        group.bench_with_input(
            BenchmarkId::from_parameter(entry.name),
            &entry.fpva,
            |b, f| {
                b.iter(|| propagate(black_box(f), black_box(&vector), &FaultSet::new()));
            },
        );
    }
    group.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_campaign_100_trials");
    group.sample_size(10);
    for entry in layouts::table1().into_iter().take(3) {
        let plan = Atpg::new().generate(&entry.fpva).expect("valid layout");
        let suite = plan.to_suite(&entry.fpva);
        let config = CampaignConfig {
            trials: 100,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(entry.name),
            &(entry.fpva, suite, config),
            |b, (f, suite, config)| {
                b.iter(|| campaign::run(black_box(f), suite, config));
            },
        );
    }
    group.finish();
}

fn bench_two_fault_audit(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_fault_audit");
    group.sample_size(10);
    let audited = |name: &str| matches!(name, "15x15" | "30x30");
    for entry in layouts::table1().into_iter().filter(|e| audited(e.name)) {
        let plan = Atpg::new().generate(&entry.fpva).expect("valid layout");
        let suite = plan.to_suite(&entry.fpva);
        group.bench_with_input(
            BenchmarkId::from_parameter(entry.name),
            &(entry.fpva, suite),
            |b, (f, suite)| {
                b.iter(|| {
                    let report = audit::two_fault_audit(black_box(f), suite, 1);
                    assert!(
                        report.is_complete(),
                        "masked pairs: {:?}",
                        report.undetected
                    );
                    report
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_propagation,
    bench_campaign,
    bench_two_fault_audit
);
criterion_main!(benches);
