//! Benchmarks for the parallel batch engine: row-sharded workforce-matrix
//! construction and the ADPaR fan-out with catalog-resident axis orders, at
//! the paper's `|S| = 10 000` scale with batch sizes `m ∈ {64, 512}`.
//!
//! The comparisons of record (quoted in the README "Performance" section):
//!
//! * `engine_workforce_matrix/*`: `BatchEngine::sequential()` vs
//!   `BatchEngine::new()` row sharding — identical cells, wall-clock
//!   divided by the core count.
//! * `engine_requirements/*`: each request's top-k requirement at the
//!   serving batch sizes `m ∈ {6, 64}`, streamed from its eligible slots
//!   (`BatchEngine::requirements`, the serving path) vs the dense matrix
//!   fill followed by `WorkforceMatrix::aggregate` — identical outputs.
//! * `engine_adpar_exact/*`: one ADPaR-Exact solve driven through a reused
//!   `SolveScratch` (catalog-resident orders, zero steady-state
//!   allocation).
//! * `engine_adpar_fanout/*`: a whole unsatisfied-request fan-out,
//!   sequential vs parallel engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stratrec_core::adpar::{AdparExact, AdparProblem, SolveScratch};
use stratrec_core::engine::BatchEngine;
use stratrec_core::workforce::{AggregationMode, EligibilityRule};
use stratrec_workload::scenario::{AdparScenario, BatchScenario, ParameterDistribution};

const STRATEGY_COUNT: usize = 10_000;
const BATCH_SIZES: [usize; 2] = [64, 512];
/// Strategies recommended per request.
const K: usize = 10;

fn batch_instance(m: usize) -> stratrec_workload::scenario::BatchInstance {
    BatchScenario {
        batch_size: m,
        strategy_count: STRATEGY_COUNT,
        k: K,
        availability: 0.5,
        distribution: ParameterDistribution::Uniform,
        seed: 2020,
    }
    .materialize()
}

fn bench_workforce_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_workforce_matrix");
    group.sample_size(10);
    for &m in &BATCH_SIZES {
        let instance = batch_instance(m);
        let catalog = instance.catalog();
        group.bench_with_input(BenchmarkId::new("sequential", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    BatchEngine::sequential()
                        .workforce_matrix(
                            &instance.requests,
                            &catalog,
                            &instance.models,
                            EligibilityRule::StrategyParameters,
                        )
                        .expect("models cover the catalog"),
                )
            });
        });
        let engine = BatchEngine::new();
        group.bench_with_input(BenchmarkId::new("parallel", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    engine
                        .workforce_matrix(
                            &instance.requests,
                            &catalog,
                            &instance.models,
                            EligibilityRule::StrategyParameters,
                        )
                        .expect("models cover the catalog"),
                )
            });
        });
    }
    group.finish();
}

fn bench_requirements(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_requirements");
    group.sample_size(10);
    let (rule, mode) = (EligibilityRule::StrategyParameters, AggregationMode::Sum);
    let engine = BatchEngine::new();
    for m in [6, 64] {
        let instance = batch_instance(m);
        let catalog = instance.catalog();
        let (requests, models) = (&instance.requests, &instance.models);
        group.bench_with_input(BenchmarkId::new("fused", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    engine
                        .requirements(requests, &catalog, models, rule, K, mode)
                        .expect("models cover the catalog"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("matrix_then_aggregate", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    engine
                        .workforce_matrix(requests, &catalog, models, rule)
                        .expect("models cover the catalog")
                        .aggregate(K, mode),
                )
            });
        });
    }
    group.finish();
}

fn bench_adpar_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_adpar_exact");
    group.sample_size(10);
    let instance = AdparScenario {
        strategy_count: STRATEGY_COUNT,
        k: 10,
        ..AdparScenario::default()
    }
    .materialize();
    let catalog = instance.catalog();
    group.bench_function("catalog_orders_reused_scratch", |b| {
        let problem = AdparProblem::with_catalog(&instance.request, &catalog, instance.k);
        let mut scratch = SolveScratch::new();
        b.iter(|| {
            black_box(
                AdparExact
                    .solve_with_scratch(black_box(&problem), &mut scratch)
                    .expect("|S| >= k"),
            )
        });
    });
    group.finish();
}

fn bench_adpar_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_adpar_fanout");
    group.sample_size(10);
    let m = BATCH_SIZES[0];
    let instance = batch_instance(m);
    let catalog = instance.catalog();
    let indices: Vec<usize> = (0..instance.requests.len()).collect();
    for (label, engine) in [
        ("sequential", BatchEngine::sequential()),
        ("parallel", BatchEngine::new()),
    ] {
        group.bench_with_input(BenchmarkId::new(label, m), &m, |b, _| {
            b.iter(|| {
                black_box(engine.solve_adpar_batch(&instance.requests, &catalog, &indices, K))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_workforce_matrix,
    bench_requirements,
    bench_adpar_exact,
    bench_adpar_fanout
);
criterion_main!(benches);
