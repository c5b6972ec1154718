//! Scan vs. indexed triage at the paper's scale (`|S| = 10 000`): the
//! linear-scan workforce matrix against the `StrategyCatalog` R-tree path,
//! plus the underlying eligibility primitive and the one-off cost of
//! building the catalog.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stratrec_core::batch::{BatchObjective, BatchStrat};
use stratrec_core::engine::BatchEngine;
use stratrec_core::workforce::{AggregationMode, EligibilityRule, WorkforceMatrix};
use stratrec_workload::scenario::BatchScenario;

fn paper_scale_scenario(strategy_count: usize) -> BatchScenario {
    BatchScenario {
        batch_size: 10,
        strategy_count,
        k: 10,
        availability: 0.5,
        ..BatchScenario::default()
    }
}

fn bench_triage_scan_vs_indexed(c: &mut Criterion) {
    let mut group = c.benchmark_group("triage_scan_vs_indexed");
    group.sample_size(20);
    for &s in &[1_000_usize, 10_000] {
        let instance = paper_scale_scenario(s).materialize();
        let catalog = instance.catalog();
        let engine = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max);
        group.bench_with_input(BenchmarkId::new("scan", s), &s, |b, _| {
            b.iter(|| {
                engine
                    .recommend_with_models(
                        black_box(&instance.requests),
                        black_box(&instance.strategies),
                        &instance.models,
                        10,
                        instance.availability,
                    )
                    .expect("models cover every strategy")
            });
        });
        group.bench_with_input(BenchmarkId::new("indexed", s), &s, |b, _| {
            b.iter(|| {
                engine
                    .recommend_with_catalog(
                        black_box(&instance.requests),
                        black_box(&catalog),
                        &instance.models,
                        10,
                        instance.availability,
                    )
                    .expect("models cover every strategy")
            });
        });
    }
    group.finish();
}

fn bench_eligibility_primitive(c: &mut Criterion) {
    let instance = paper_scale_scenario(10_000).materialize();
    let catalog = instance.catalog();
    let request = &instance.requests[0];
    let mut group = c.benchmark_group("eligibility_10k");
    group.sample_size(30);
    group.bench_function("linear_scan", |b| {
        b.iter(|| black_box(request.eligible_strategies(black_box(&instance.strategies))));
    });
    group.bench_function("rtree_query", |b| {
        b.iter(|| black_box(catalog.eligible_for(black_box(&request.params))));
    });
    group.finish();
}

fn bench_matrix_paths(c: &mut Criterion) {
    let instance = paper_scale_scenario(10_000).materialize();
    let catalog = instance.catalog();
    let mut group = c.benchmark_group("workforce_matrix_10k");
    group.sample_size(20);
    group.bench_function("scan", |b| {
        b.iter(|| {
            WorkforceMatrix::compute_with_rule(
                black_box(&instance.requests),
                black_box(&instance.strategies),
                &instance.models,
                EligibilityRule::default(),
            )
            .expect("models cover every strategy")
        });
    });
    group.bench_function("indexed", |b| {
        b.iter(|| {
            BatchEngine::sequential()
                .workforce_matrix(
                    black_box(&instance.requests),
                    black_box(&catalog),
                    &instance.models,
                    EligibilityRule::default(),
                )
                .expect("models cover every strategy")
        });
    });
    group.finish();
}

fn bench_catalog_build(c: &mut Criterion) {
    let instance = paper_scale_scenario(10_000).materialize();
    let mut group = c.benchmark_group("catalog_build_10k");
    group.sample_size(10);
    group.bench_function("bulk_load", |b| {
        b.iter(|| black_box(instance.catalog()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_triage_scan_vs_indexed,
    bench_eligibility_primitive,
    bench_matrix_paths,
    bench_catalog_build
);
criterion_main!(benches);
