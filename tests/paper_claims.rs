//! Integration tests pinning the paper's formal claims and experimental
//! observations (see EXPERIMENTS.md for the full mapping).

use stratrec::core::adpar::AdparBruteForce;
use stratrec::core::batch::{BatchAlgorithm, BatchObjective};
use stratrec::core::prelude::*;
use stratrec::workload::scenario::{AdparScenario, BatchScenario, ParameterDistribution};

/// Theorem 2: `BatchStrat-ThroughPut` is exact. Verified against brute force
/// on the paper's reduced grid.
#[test]
fn theorem_2_throughput_is_exact() {
    for seed in 0..10 {
        let instance = BatchScenario {
            batch_size: 12,
            strategy_count: 30,
            k: 5,
            availability: 0.5,
            distribution: ParameterDistribution::Uniform,
            seed,
        }
        .materialize();
        let run = |algorithm| {
            BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max)
                .with_algorithm(algorithm)
                .recommend_with_models(
                    &instance.requests,
                    &instance.strategies,
                    &instance.models,
                    5,
                    instance.availability,
                )
                .unwrap()
                .objective_value
        };
        assert!((run(BatchAlgorithm::BatchStrat) - run(BatchAlgorithm::BruteForce)).abs() < 1e-9);
    }
}

/// Theorem 3: `BatchStrat-PayOff` achieves at least half the optimum; the
/// paper's Observation 1 is that empirically it stays above 0.9.
#[test]
fn theorem_3_payoff_half_approximation_and_observation_1() {
    let mut worst_factor: f64 = 1.0;
    for seed in 0..10 {
        let instance = BatchScenario {
            batch_size: 10,
            strategy_count: 30,
            k: 5,
            availability: 0.5,
            distribution: ParameterDistribution::Normal,
            seed,
        }
        .materialize();
        let run = |algorithm| {
            BatchStrat::new(BatchObjective::Payoff, AggregationMode::Max)
                .with_algorithm(algorithm)
                .recommend_with_models(
                    &instance.requests,
                    &instance.strategies,
                    &instance.models,
                    5,
                    instance.availability,
                )
                .unwrap()
                .objective_value
        };
        let optimum = run(BatchAlgorithm::BruteForce);
        let approx = run(BatchAlgorithm::BatchStrat);
        if optimum > 1e-9 {
            worst_factor = worst_factor.min(approx / optimum);
        }
        assert!(approx + 1e-9 >= optimum / 2.0);
    }
    assert!(
        worst_factor > 0.9,
        "Observation 1 expects empirical factors above 0.9, got {worst_factor}"
    );
}

/// Theorem 4 / Observation 3: `ADPaR-Exact` equals the exhaustive optimum and
/// strictly dominates the two baselines in aggregate.
#[test]
fn theorem_4_adpar_exact_is_optimal() {
    use stratrec::core::adpar::{AdparBaseline2, AdparBaseline3};
    let mut exact_total = 0.0;
    let mut b2_total = 0.0;
    let mut b3_total = 0.0;
    for seed in 0..8 {
        let instance = AdparScenario {
            strategy_count: 18,
            k: 4,
            seed,
            ..AdparScenario::brute_force_defaults()
        }
        .materialize();
        let catalog = instance.catalog();
        let problem = AdparProblem::with_catalog(&instance.request, &catalog, instance.k);
        let exact = AdparExact.solve(&problem).unwrap().distance;
        let brute = AdparBruteForce.solve(&problem).unwrap().distance;
        assert!((exact - brute).abs() < 1e-9, "seed {seed}");
        exact_total += exact;
        b2_total += AdparBaseline2.solve(&problem).unwrap().distance;
        b3_total += AdparBaseline3.solve(&problem).unwrap().distance;
    }
    assert!(exact_total <= b2_total + 1e-9);
    assert!(exact_total <= b3_total + 1e-9);
}

/// Running example (§2.2 / §2.3): d3 is served with {s2, s3, s4}; d1's
/// alternative parameters are (0.4, 0.5, 0.28) exactly as printed in the
/// paper.
#[test]
fn running_example_numbers_match_the_paper() {
    let strategies = stratrec::core::examples_data::running_example_strategies();
    let requests = stratrec::core::examples_data::running_example_requests();
    let outcome = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max).recommend(
        &requests,
        &strategies,
        3,
        WorkerAvailability::new(0.8).unwrap(),
    );
    assert_eq!(outcome.satisfied.len(), 1);
    assert_eq!(outcome.satisfied[0].request_index, 2);

    let catalog = StrategyCatalog::new(strategies.as_slice());
    let problem = AdparProblem::with_catalog(&requests[0], &catalog, 3);
    let solution = AdparExact.solve(&problem).unwrap();
    assert!((solution.alternative.quality - 0.4).abs() < 1e-9);
    assert!((solution.alternative.cost - 0.5).abs() < 1e-9);
    assert!((solution.alternative.latency - 0.28).abs() < 1e-9);
}

/// Figure 14 shapes: satisfaction decreases in k, increases in |S| and W.
#[test]
fn figure_14_shapes_hold() {
    let rate = |k: usize, s: usize, w: f64| {
        let instance = BatchScenario {
            batch_size: 10,
            strategy_count: s,
            k,
            availability: w,
            distribution: ParameterDistribution::Uniform,
            seed: 3,
        }
        .materialize();
        BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max)
            .recommend_with_models(
                &instance.requests,
                &instance.strategies,
                &instance.models,
                k,
                instance.availability,
            )
            .unwrap()
            .satisfaction_rate()
    };
    assert!(rate(2, 500, 0.5) + 1e-9 >= rate(50, 500, 0.5));
    assert!(rate(5, 1000, 0.5) + 1e-9 >= rate(5, 20, 0.5));
    assert!(rate(5, 500, 0.9) + 1e-9 >= rate(5, 500, 0.5));
}
