//! Criterion micro-benchmarks for the batch-deployment pipeline
//! (Figure 18a counterpart), including the sum-case vs max-case aggregation
//! ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stratrec_core::batch::{BatchAlgorithm, BatchObjective, BatchStrat};
use stratrec_core::workforce::{AggregationMode, EligibilityRule, WorkforceMatrix};
use stratrec_workload::scenario::BatchScenario;

fn bench_batch_recommendation(c: &mut Criterion) {
    let mut group = c.benchmark_group("batchstrat_vs_m");
    group.sample_size(20);
    for &m in &[50_usize, 200, 800] {
        let scenario = BatchScenario {
            batch_size: m,
            strategy_count: 30,
            k: 10,
            availability: 0.75,
            ..BatchScenario::default()
        };
        let instance = scenario.materialize();
        group.bench_with_input(BenchmarkId::new("BatchStrat", m), &m, |b, _| {
            let engine = BatchStrat::new(BatchObjective::Payoff, AggregationMode::Max);
            b.iter(|| {
                let outcome = engine
                    .recommend_with_models(
                        black_box(&instance.requests),
                        black_box(&instance.strategies),
                        &instance.models,
                        scenario.k,
                        instance.availability,
                    )
                    .expect("models cover every strategy");
                black_box(outcome.objective_value)
            });
        });
        if m <= 50 {
            // Brute force beyond ~25 requests is intractable; keep one point
            // for the exponential-vs-linear contrast of Figure 18a.
            group.bench_with_input(BenchmarkId::new("BruteForce", m), &m, |b, _| {
                let engine = BatchStrat::new(BatchObjective::Payoff, AggregationMode::Max)
                    .with_algorithm(BatchAlgorithm::BruteForce);
                b.iter(|| {
                    let outcome = engine
                        .recommend_with_models(
                            black_box(&instance.requests),
                            black_box(&instance.strategies),
                            &instance.models,
                            scenario.k,
                            instance.availability,
                        )
                        .expect("models cover every strategy");
                    black_box(outcome.objective_value)
                });
            });
        }
    }
    group.finish();
}

fn bench_aggregation_modes(c: &mut Criterion) {
    let scenario = BatchScenario {
        batch_size: 100,
        strategy_count: 5_000,
        k: 10,
        ..BatchScenario::default()
    };
    let instance = scenario.materialize();
    let matrix = WorkforceMatrix::compute_with_rule(
        &instance.requests,
        &instance.strategies,
        &instance.models,
        EligibilityRule::default(),
    )
    .expect("models cover every strategy");
    let mut group = c.benchmark_group("workforce_aggregation_ablation");
    group.sample_size(20);
    for (label, mode) in [
        ("sum_case", AggregationMode::Sum),
        ("max_case", AggregationMode::Max),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(matrix.aggregate(black_box(10), mode)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_recommendation, bench_aggregation_modes);
criterion_main!(benches);
