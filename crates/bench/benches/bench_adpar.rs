//! Criterion micro-benchmarks for the ADPaR solvers (Figures 17–18
//! counterparts): ADPaR-Exact scaling in |S| and k, and the baseline solvers
//! on a fixed instance. Every problem is posed over the instance's
//! `StrategyCatalog`, as the serving path poses it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stratrec_core::adpar::{
    AdparBaseline2, AdparBaseline3, AdparExact, AdparProblem, AdparSolver, SolveScratch,
};
use stratrec_workload::scenario::AdparScenario;

fn bench_exact_vs_strategy_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("adpar_exact_vs_strategy_count");
    group.sample_size(10);
    for &s in &[500_usize, 1_000, 2_000] {
        let instance = AdparScenario {
            strategy_count: s,
            k: 5,
            ..AdparScenario::default()
        }
        .materialize();
        // The sweep walks the catalog's pre-sorted axis orders through a
        // reused scratch: no per-problem sort at all.
        let catalog = instance.catalog();
        group.bench_with_input(BenchmarkId::new("catalog", s), &s, |b, _| {
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
    }
    group.finish();
}

fn bench_exact_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("adpar_exact_vs_k");
    group.sample_size(10);
    for &k in &[5_usize, 25, 50] {
        let instance = AdparScenario {
            strategy_count: 1_000,
            k,
            ..AdparScenario::default()
        }
        .materialize();
        let catalog = instance.catalog();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            let problem = AdparProblem::with_catalog(&instance.request, &catalog, instance.k);
            b.iter(|| black_box(AdparExact.solve(black_box(&problem)).expect("|S| >= k")));
        });
    }
    group.finish();
}

fn bench_solver_comparison(c: &mut Criterion) {
    let instance = AdparScenario::default().materialize();
    let catalog = instance.catalog();
    let problem = AdparProblem::with_catalog(&instance.request, &catalog, instance.k);
    let mut group = c.benchmark_group("adpar_solver_comparison");
    group.sample_size(20);
    group.bench_function("adpar_exact", |b| {
        b.iter(|| black_box(AdparExact.solve(black_box(&problem)).expect("feasible")));
    });
    group.bench_function("baseline2", |b| {
        b.iter(|| black_box(AdparBaseline2.solve(black_box(&problem)).expect("feasible")));
    });
    group.bench_function("baseline3", |b| {
        b.iter(|| black_box(AdparBaseline3.solve(black_box(&problem)).expect("feasible")));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_vs_strategy_count,
    bench_exact_vs_k,
    bench_solver_comparison
);
criterion_main!(benches);
