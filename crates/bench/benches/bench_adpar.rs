//! Criterion micro-benchmarks for the ADPaR solvers (Figures 17–18
//! counterparts): ADPaR-Exact scaling in |S| and k, and the baseline solvers
//! on a fixed instance. Every problem is posed over the instance's
//! `StrategyCatalog`, as the serving path poses it.
//!
//! The `adpar_serving` group times ADPaR as the server runs it:
//! `BatchEngine::sequential().solve_adpar_batch` over a set of requests,
//! problem posing included, at |S| ∈ {1k, 10k} and k = 5, on two request
//! sets — requests that already admit k strategies at their own thresholds
//! (the serving mix: half from an easy box, half from the paper's
//! [0.625, 1]³ range, kept when at least k strategies meet them), and
//! `AdparScenario`'s demanding requests, which always need a relaxation. It
//! writes `BENCH_adpar.json` at the workspace root (median µs per request
//! over the timed repetitions, plus `available_parallelism`). The group
//! uses only long-standing public API, so the same file runs on an older
//! checkout for a before/after pair; the committed `BENCH_adpar.json`
//! holds such pairs, run alternately, and a fresh run replaces it with its
//! own rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use stratrec_core::adpar::{
    AdparBaseline2, AdparBaseline3, AdparExact, AdparProblem, AdparSolver, SolveScratch,
};
use stratrec_core::catalog::StrategyCatalog;
use stratrec_core::engine::BatchEngine;
use stratrec_core::model::{DeploymentParameters, DeploymentRequest};
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

/// Cardinality constraint of the serving group (the server's k).
const SERVING_K: usize = 5;
/// Requests in the admissible set.
const ADMISSIBLE_REQUESTS: usize = 32;
/// Requests in the demanding set: each costs a full sweep (about 0.3 s at
/// |S| = 10k), so the set is smaller.
const DEMANDING_REQUESTS: usize = 8;

/// The serving group's catalog (`AdparScenario`'s strategies at `|S|`) and
/// its two request sets: `(admissible, demanding)`.
fn serving_sets(
    strategy_count: usize,
) -> (
    StrategyCatalog,
    Vec<DeploymentRequest>,
    Vec<DeploymentRequest>,
) {
    let scenario = AdparScenario {
        strategy_count,
        k: SERVING_K,
        ..AdparScenario::default()
    };
    let instance = scenario.materialize();
    let catalog = instance.catalog();
    let mut rng = StdRng::seed_from_u64(7);
    let mut admissible = Vec::with_capacity(ADMISSIBLE_REQUESTS);
    while admissible.len() < ADMISSIBLE_REQUESTS {
        let params = if rng.gen_bool(0.5) {
            DeploymentParameters::clamped(
                rng.gen_range(0.3..=0.6),
                rng.gen_range(0.7..=1.0),
                rng.gen_range(0.7..=1.0),
            )
        } else {
            DeploymentParameters::clamped(
                rng.gen_range(0.625..=1.0),
                rng.gen_range(0.625..=1.0),
                rng.gen_range(0.625..=1.0),
            )
        };
        if catalog.eligible_for(&params).len() >= SERVING_K {
            let mut request = instance.request.clone();
            request.params = params;
            admissible.push(request);
        }
    }
    let demanding = (1..=DEMANDING_REQUESTS as u64)
        .map(|i| {
            AdparScenario {
                seed: scenario.seed + i,
                ..scenario
            }
            .materialize()
            .request
        })
        .collect();
    (catalog, admissible, demanding)
}

/// Median and minimum µs per request of
/// `BatchEngine::sequential().solve_adpar_batch` over `requests` across
/// `reps` timed repetitions (after one warm-up).
fn time_serving_batch(
    catalog: &StrategyCatalog,
    requests: &[DeploymentRequest],
    reps: usize,
) -> (f64, f64) {
    let engine = BatchEngine::sequential();
    let indices: Vec<usize> = (0..requests.len()).collect();
    let solve = || {
        let results = engine.solve_adpar_batch(black_box(requests), catalog, &indices, SERVING_K);
        assert!(results.iter().all(Result::is_ok), "|S| >= k");
        black_box(results);
    };
    solve();
    let mut per_request: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            solve();
            start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64
        })
        .collect();
    per_request.sort_by(f64::total_cmp);
    (per_request[per_request.len() / 2], per_request[0])
}

/// Times the serving-shaped ADPaR batch and writes `BENCH_adpar.json`. It
/// keeps its own repetitions instead of criterion samples: a demanding
/// batch at |S| = 10k takes seconds.
fn bench_adpar_serving(_: &mut Criterion) {
    let smoke = stratrec_bench::artifact::smoke_mode();
    let (admissible_reps, demanding_reps) = if smoke { (1, 1) } else { (21, 7) };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json_rows = Vec::new();
    for strategy_count in [1_000_usize, 10_000] {
        let (catalog, admissible, demanding) = serving_sets(strategy_count);
        for (set, requests, reps) in [
            ("admissible", &admissible, admissible_reps),
            ("demanding", &demanding, demanding_reps),
        ] {
            let (median_us, min_us) = time_serving_batch(&catalog, requests, reps);
            eprintln!(
                "adpar_serving/{set}/{strategy_count}: median {median_us:.2} µs per request \
                 (min {min_us:.2}, {reps} reps)"
            );
            json_rows.push(format!(
                "    {{\"set\": \"{set}\", \"strategies\": {strategy_count}, \"k\": {SERVING_K}, \
                 \"requests\": {}, \"reps\": {reps}, \"median_us_per_request\": {median_us:.2}, \
                 \"min_us_per_request\": {min_us:.2}}}",
                requests.len()
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"adpar_serving\",\n  \"smoke\": {smoke},\n  \
         \"available_parallelism\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    stratrec_bench::artifact::write_json_artifact(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adpar.json"),
        &json,
        smoke,
    );
}

criterion_group!(
    benches,
    bench_exact_vs_strategy_count,
    bench_exact_vs_k,
    bench_solver_comparison,
    bench_adpar_serving
);
criterion_main!(benches);
