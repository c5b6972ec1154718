//! Integration tests spanning the whole workspace: platform simulation →
//! model fitting → batch recommendation → alternative-parameter
//! recommendation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stratrec::core::batch::BatchObjective;
use stratrec::core::model::{
    all_dimension_combinations, DeploymentParameters, DeploymentRequest, Strategy, TaskType,
};
use stratrec::core::modeling::ModelLibrary;
use stratrec::core::prelude::*;
use stratrec::core::stratrec::StratRecConfig;
use stratrec::platform::execution::StrategyExecutor;
use stratrec::platform::experiment::CalibrationExperiment;
use stratrec::workload::scenario::{AdparScenario, BatchScenario, ParameterDistribution};
use stratrec::workload::{generate_models, generate_requests, generate_strategies};

/// The full pipeline of the paper's Figure 1, driven by simulated platform
/// data: estimate availability, fit models, triage a batch, and produce
/// alternatives for whatever cannot be served.
#[test]
fn full_pipeline_from_simulation_to_recommendations() {
    let task = TaskType::SentenceTranslation;
    let calibration = CalibrationExperiment::with_seed(11);

    // Availability from the simulated deployment windows.
    let study = calibration.availability_study(task);
    let observations: Vec<f64> = study
        .iter()
        .flat_map(|(_, _, est)| est.observations.clone())
        .collect();
    let availability = AvailabilityPdf::from_observations(&observations).unwrap();
    assert!(availability.expectation().value() > 0.0);

    // Strategy set with fitted models.
    let expected = availability.expectation();
    let mut strategies = Vec::new();
    let mut models = ModelLibrary::new();
    for (idx, (structure, organization, style)) in all_dimension_combinations().iter().enumerate() {
        let truth = StrategyExecutor::ground_truth_model(task, *structure, *organization, *style);
        let params = truth.estimate_parameters(expected);
        let strategy = Strategy::new(idx as u64, *structure, *organization, *style, params);
        models.insert(strategy.id, truth);
        strategies.push(strategy);
    }

    // A mixed batch: some requests realistic, some impossible.
    let requests = vec![
        DeploymentRequest::new(0, task, DeploymentParameters::clamped(0.7, 0.9, 0.9)),
        DeploymentRequest::new(1, task, DeploymentParameters::clamped(0.8, 0.8, 0.8)),
        DeploymentRequest::new(2, task, DeploymentParameters::clamped(0.99, 0.05, 0.05)),
    ];
    let layer = StratRec::new(StratRecConfig {
        k: 3,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Max,
    });
    let report = layer
        .process_batch(&requests, &strategies, &models, &availability)
        .unwrap();

    // Every request is accounted for exactly once.
    assert_eq!(
        report.batch.satisfied.len() + report.batch.unsatisfied.len(),
        requests.len()
    );
    // The impossible request is not satisfied directly…
    assert!(report.batch.unsatisfied.contains(&2));
    // …but gets feasible alternative parameters admitting k strategies.
    let alt = report
        .alternatives
        .iter()
        .find(|a| a.request_index == 2)
        .unwrap();
    let solution = alt.solution.as_ref().unwrap();
    assert!(solution.strategy_indices.len() >= 3);
    for &idx in &solution.strategy_indices {
        assert!(strategies[idx].params.satisfies(&solution.alternative));
    }
    // Satisfied requests stay within the workforce budget.
    assert!(report.batch.workforce_used <= report.availability.value() + 1e-9);
}

/// Synthetic workloads round-trip through the batch engine without violating
/// the workforce budget, for both distributions and both objectives.
#[test]
fn synthetic_batch_respects_budget_for_all_configurations() {
    for distribution in ParameterDistribution::ALL {
        for objective in [BatchObjective::Throughput, BatchObjective::Payoff] {
            let instance = BatchScenario {
                strategy_count: 300,
                batch_size: 20,
                k: 5,
                availability: 0.4,
                distribution,
                seed: 99,
            }
            .materialize();
            let outcome = BatchStrat::new(objective, AggregationMode::Sum)
                .recommend_with_models(
                    &instance.requests,
                    &instance.strategies,
                    &instance.models,
                    5,
                    instance.availability,
                )
                .unwrap();
            assert!(outcome.workforce_used <= instance.availability.value() + 1e-9);
            for rec in &outcome.satisfied {
                assert_eq!(rec.strategy_indices.len(), 5);
                // Every recommended strategy really satisfies the request.
                for &s in &rec.strategy_indices {
                    assert!(instance.strategies[s].satisfies(&instance.requests[rec.request_index]));
                }
            }
        }
    }
}

/// ADPaR solvers agree on feasibility across a synthetic scenario, and the
/// exact solver is never beaten.
#[test]
fn adpar_solvers_are_consistent_on_synthetic_scenarios() {
    use stratrec::core::adpar::{AdparBaseline2, AdparBaseline3};
    for seed in 0..5 {
        let instance = AdparScenario {
            strategy_count: 60,
            k: 6,
            seed,
            ..AdparScenario::default()
        }
        .materialize();
        let catalog = instance.catalog();
        let problem = AdparProblem::with_catalog(&instance.request, &catalog, instance.k);
        let exact = AdparExact.solve(&problem).unwrap();
        let b2 = AdparBaseline2.solve(&problem).unwrap();
        let b3 = AdparBaseline3.solve(&problem).unwrap();
        assert!(exact.distance <= b2.distance + 1e-9);
        assert!(exact.distance <= b3.distance + 1e-9);
        assert!(exact.strategy_indices.len() >= instance.k);
    }
}

/// The umbrella crate's re-exports expose a coherent API surface: workload
/// generators produce inputs the core accepts directly.
#[test]
fn umbrella_reexports_compose() {
    let mut rng = StdRng::seed_from_u64(5);
    let strategies = generate_strategies(50, ParameterDistribution::Uniform, &mut rng);
    let models = generate_models(&strategies, &mut rng);
    let requests = generate_requests(5, &mut rng);
    let outcome = BatchStrat::default()
        .recommend_with_models(
            &requests,
            &strategies,
            &models,
            3,
            WorkerAvailability::new(0.9).unwrap(),
        )
        .unwrap();
    assert_eq!(
        outcome.satisfied.len() + outcome.unsatisfied.len(),
        requests.len()
    );
}
