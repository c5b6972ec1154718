//! Parity tests: the catalog-backed (R-tree-indexed, parallel) pipeline must
//! produce results **identical** to the seed's linear-scan pipeline — same
//! workforce matrices, same `BatchOutcome`s — on the paper's running example
//! and on randomized synthetic scenarios, for every engine thread count.
//! ADPaR problems are always posed over a catalog; their reference is a
//! catalog that reaches the same live set by another history (one insert at
//! a time into the unindexed tail, or a pristine catalog of the live set
//! after churn), with the same `AdparSolution`s required of all four
//! solvers.

use stratrec::core::adpar::{
    relaxation_of, AdparBaseline2, AdparBaseline3, AdparBruteForce, AdparExact, AdparProblem,
    AdparSolver,
};
use stratrec::core::availability::AvailabilityPdf;
use stratrec::core::batch::{BatchObjective, BatchStrat};
use stratrec::core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec::core::engine::BatchEngine;
use stratrec::core::model::{DeploymentParameters, DeploymentRequest, Strategy, TaskType};
use stratrec::core::modeling::{LinearModel, ModelLibrary, StrategyModel};
use stratrec::core::prelude::*;
use stratrec::core::stratrec::{StratRec, StratRecConfig};
use stratrec::core::workforce::{EligibilityRule, WorkforceMatrix};
use stratrec::workload::scenario::{AdparScenario, BatchScenario, ParameterDistribution};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 6] = [2020, 1, 7, 42, 99, 123_456];

fn assert_matrices_equal(
    requests: &[DeploymentRequest],
    strategies: &[Strategy],
    catalog: &StrategyCatalog,
    models: &ModelLibrary,
    rule: EligibilityRule,
    context: &str,
) {
    let scan = WorkforceMatrix::compute_with_rule(requests, strategies, models, rule).unwrap();
    let indexed = BatchEngine::sequential()
        .workforce_matrix(requests, catalog, models, rule)
        .unwrap();
    assert_eq!(scan, indexed, "workforce matrix diverged: {context}");
}

#[test]
fn eligibility_matches_linear_scan_on_random_scenarios() {
    for seed in SEEDS {
        for distribution in ParameterDistribution::ALL {
            let instance = BatchScenario {
                batch_size: 15,
                strategy_count: 400,
                k: 5,
                availability: 0.5,
                distribution,
                seed,
            }
            .materialize();
            let catalog = instance.catalog();
            for request in &instance.requests {
                assert_eq!(
                    catalog.eligible_for(&request.params),
                    request.eligible_strategies(&instance.strategies),
                    "seed {seed}, {distribution:?}, request {:?}",
                    request.id
                );
            }
        }
    }
}

#[test]
fn workforce_matrices_match_on_running_example_and_random_seeds() {
    // Running example.
    let strategies = stratrec::core::examples_data::running_example_strategies();
    let requests = stratrec::core::examples_data::running_example_requests();
    let models = stratrec::core::examples_data::running_example_models();
    let catalog = StrategyCatalog::new(strategies.as_slice());
    for rule in [
        EligibilityRule::StrategyParameters,
        EligibilityRule::ModelOnly,
    ] {
        assert_matrices_equal(
            &requests,
            &strategies,
            &catalog,
            &models,
            rule,
            "running example",
        );
    }

    // Random scenarios, both distributions and both eligibility rules.
    for seed in SEEDS {
        for distribution in ParameterDistribution::ALL {
            let instance = BatchScenario {
                batch_size: 12,
                strategy_count: 300,
                k: 5,
                availability: 0.6,
                distribution,
                seed,
            }
            .materialize();
            let catalog = instance.catalog();
            for rule in [
                EligibilityRule::StrategyParameters,
                EligibilityRule::ModelOnly,
            ] {
                assert_matrices_equal(
                    &instance.requests,
                    &instance.strategies,
                    &catalog,
                    &instance.models,
                    rule,
                    &format!("seed {seed}, {distribution:?}, {rule:?}"),
                );
            }
        }
    }
}

#[test]
fn batch_outcomes_match_for_both_objectives_and_aggregations() {
    for seed in SEEDS {
        let instance = BatchScenario {
            batch_size: 20,
            strategy_count: 500,
            k: 4,
            availability: 0.5,
            distribution: ParameterDistribution::Uniform,
            seed,
        }
        .materialize();
        let catalog = instance.catalog();
        for objective in [BatchObjective::Throughput, BatchObjective::Payoff] {
            for aggregation in [AggregationMode::Sum, AggregationMode::Max] {
                let engine = BatchStrat::new(objective, aggregation);
                let scan = engine
                    .recommend_with_models(
                        &instance.requests,
                        &instance.strategies,
                        &instance.models,
                        instance.requests.len().min(4),
                        instance.availability,
                    )
                    .unwrap();
                let indexed = engine
                    .recommend_with_catalog(
                        &instance.requests,
                        &catalog,
                        &instance.models,
                        instance.requests.len().min(4),
                        instance.availability,
                    )
                    .unwrap();
                assert_eq!(scan, indexed, "seed {seed}, {objective:?}, {aggregation:?}");
            }
        }
    }
}

#[test]
fn adpar_solutions_match_for_all_four_solvers() {
    for seed in SEEDS {
        let instance = AdparScenario {
            strategy_count: 18,
            k: 4,
            seed,
            ..AdparScenario::default()
        }
        .materialize();
        // The reference is the same strategies inserted one by one into a
        // catalog that never merges: every slot sits in the unindexed tail,
        // so the sweeps merge the tail's axis orders and Baseline3 loads its
        // own tree instead of reusing the bulk-loaded one.
        let catalog = instance.catalog();
        let mut tail_only = StrategyCatalog::with_policy(Vec::new(), RebuildPolicy::never());
        for strategy in &instance.strategies {
            tail_only.insert(strategy.clone());
        }
        assert!(!tail_only.index_is_packed_live());
        let scan_problem = AdparProblem::with_catalog(&instance.request, &tail_only, instance.k);
        let indexed_problem = AdparProblem::with_catalog(&instance.request, &catalog, instance.k);
        let expected: Vec<_> = instance
            .strategies
            .iter()
            .map(|s| relaxation_of(&s.params, &instance.request.params))
            .collect();
        assert_eq!(scan_problem.relaxations(), &expected[..]);
        assert_eq!(indexed_problem.relaxations(), &expected[..]);

        let solvers: [&dyn AdparSolver; 4] = [
            &AdparExact,
            &AdparBruteForce,
            &AdparBaseline2,
            &AdparBaseline3,
        ];
        for solver in solvers {
            let scan = solver.solve(&scan_problem).unwrap();
            let indexed = solver.solve(&indexed_problem).unwrap();
            assert_eq!(scan, indexed, "seed {seed}, solver {}", solver.name());
        }
    }
}

#[test]
fn adpar_parity_survives_catalog_churn() {
    // Post-churn parity: mutate the running-example catalog (insert two
    // strategies, retire one original slot), then re-run the four-solver
    // parity check against a pristine catalog over the compacted live set.
    // The churned problem reports stable slot indices; mapping the pristine
    // solution through the live slot order must reproduce them exactly, and
    // the retired slot is sentinel-masked out.
    use stratrec::core::model::DeploymentParameters;

    for policy in [
        RebuildPolicy::always(),
        RebuildPolicy::threshold(2),
        RebuildPolicy::never(),
    ] {
        let strategies = stratrec::core::examples_data::running_example_strategies();
        let requests = stratrec::core::examples_data::running_example_requests();
        let mut catalog = StrategyCatalog::with_policy(strategies, policy);
        assert!(catalog.is_pristine());
        catalog.insert(stratrec::core::model::Strategy::from_params(
            10,
            DeploymentParameters::clamped(0.9, 0.45, 0.2),
        ));
        catalog.insert(stratrec::core::model::Strategy::from_params(
            11,
            DeploymentParameters::clamped(0.6, 0.15, 0.35),
        ));
        assert!(catalog.retire(0)); // retire s1
        assert_eq!(catalog.epoch(), 3);
        assert!(!catalog.is_pristine());

        let live_slots = catalog.live_indices();
        let compact: Vec<Strategy> = live_slots
            .iter()
            .map(|&slot| catalog.strategy(slot).clone())
            .collect();
        assert_eq!(compact.len(), 5);
        let pristine = StrategyCatalog::new(compact);

        let solvers: [&dyn AdparSolver; 4] = [
            &AdparExact,
            &AdparBruteForce,
            &AdparBaseline2,
            &AdparBaseline3,
        ];
        let check_parity = |catalog: &StrategyCatalog, stage: &str| {
            for request in &requests {
                let scan_problem = AdparProblem::with_catalog(request, &pristine, 3);
                let indexed_problem = AdparProblem::with_catalog(request, catalog, 3);
                for solver in solvers {
                    let scan = solver.solve(&scan_problem).unwrap();
                    let indexed = solver.solve(&indexed_problem).unwrap();
                    let context = format!(
                        "{policy:?}, {stage}, solver {}, request {:?}",
                        solver.name(),
                        request.id
                    );
                    assert_eq!(scan.alternative, indexed.alternative, "{context}");
                    assert_eq!(scan.relaxation, indexed.relaxation, "{context}");
                    assert!(
                        (scan.distance - indexed.distance).abs() < 1e-12,
                        "{context}"
                    );
                    let mapped: Vec<usize> = scan
                        .strategy_indices
                        .iter()
                        .map(|&compact_idx| live_slots[compact_idx])
                        .collect();
                    assert_eq!(mapped, indexed.strategy_indices, "{context}");
                    // The retired slot can never be recommended.
                    assert!(!indexed.strategy_indices.contains(&0), "{context}");
                }
            }
        };
        check_parity(&catalog, "post-churn");

        // Re-packing restores the shared-index fast path for Baseline3
        // without changing any solver's answer.
        catalog.force_rebuild();
        assert!(catalog.index_is_packed_live());
        check_parity(&catalog, "post-force_rebuild");
    }
}

#[test]
fn four_solver_parity_survives_compaction() {
    // Solve, compact, remap the solution slots, solve again: for every
    // solver the two answers must be **bit-identical modulo the remap** —
    // compaction renumbers slots but never changes the live set, the
    // relative slot order (all tie-breaks), the packed STR structure, or a
    // single floating-point input of any solver.
    use stratrec::core::model::DeploymentParameters;

    for policy in [
        RebuildPolicy::always(),
        RebuildPolicy::threshold(2),
        RebuildPolicy::never(),
    ] {
        let strategies = stratrec::core::examples_data::running_example_strategies();
        let requests = stratrec::core::examples_data::running_example_requests();
        let mut catalog = StrategyCatalog::with_policy(strategies, policy);
        catalog.insert(stratrec::core::model::Strategy::from_params(
            10,
            DeploymentParameters::clamped(0.9, 0.45, 0.2),
        ));
        catalog.insert(stratrec::core::model::Strategy::from_params(
            11,
            DeploymentParameters::clamped(0.6, 0.15, 0.35),
        ));
        assert!(catalog.retire(0));
        assert!(catalog.retire(2));

        let solvers: [&dyn AdparSolver; 4] = [
            &AdparExact,
            &AdparBruteForce,
            &AdparBaseline2,
            &AdparBaseline3,
        ];

        // Solve everything against the churned (pre-compaction) numbering.
        let before: Vec<Vec<_>> = requests
            .iter()
            .map(|request| {
                solvers
                    .iter()
                    .map(|solver| {
                        solver
                            .solve(&AdparProblem::with_catalog(request, &catalog, 3))
                            .unwrap()
                    })
                    .collect()
            })
            .collect();

        let remap = catalog.compact();
        assert_eq!(catalog.slot_count(), catalog.len());
        assert!(catalog.index_is_packed_live());

        for (request, request_before) in requests.iter().zip(&before) {
            for (solver, old) in solvers.iter().zip(request_before) {
                let context = format!(
                    "{policy:?}, solver {}, request {:?}",
                    solver.name(),
                    request.id
                );
                let remapped = AdparSolution {
                    strategy_indices: remap.remap_slots(&old.strategy_indices).unwrap_or_else(
                        || panic!("pre-compaction solutions admit live slots only: {context}"),
                    ),
                    ..old.clone()
                };
                let fresh = solver
                    .solve(&AdparProblem::with_catalog(request, &catalog, 3))
                    .unwrap();
                // Full structural equality: alternative, relaxation and
                // distance bit-identical, indices equal after renumbering.
                assert_eq!(remapped, fresh, "{context}");
            }
        }
    }
}

/// A batch instance whose every input lies on the 1/64 grid: strategy and
/// request parameters in `[0, 1]`, model slopes `±n/64` with `|α| ≥ 1/4`
/// and intercepts in `[-1/2, 3/2]`, so model lines rise, fall, overshoot
/// and undershoot, and satisfaction comparisons hit exact ties.
fn grid_instance(seed: u64) -> (Vec<DeploymentRequest>, StrategyCatalog, ModelLibrary) {
    fn grid(rng: &mut StdRng, lo: u32, hi: u32) -> f64 {
        f64::from(rng.gen_range(lo..=hi)) / 64.0
    }
    fn params(rng: &mut StdRng) -> DeploymentParameters {
        DeploymentParameters::clamped(grid(rng, 0, 64), grid(rng, 0, 64), grid(rng, 0, 64))
    }
    fn line(rng: &mut StdRng) -> LinearModel {
        let alpha = grid(rng, 16, 63);
        let alpha = if rng.gen_bool(0.5) { -alpha } else { alpha };
        LinearModel::new(alpha, grid(rng, 0, 128) - 0.5)
    }
    let rng = &mut StdRng::seed_from_u64(seed);
    let strategies: Vec<Strategy> = (0..64)
        .map(|id| Strategy::from_params(id, params(rng)))
        .collect();
    let requests: Vec<DeploymentRequest> = (0..12)
        .map(|id| DeploymentRequest::new(id, TaskType::SentenceTranslation, params(rng)))
        .collect();
    let models = ModelLibrary::from_pairs(
        strategies
            .iter()
            .map(|s| (s.id, StrategyModel::new(line(rng), line(rng), line(rng)))),
    );
    (
        requests,
        StrategyCatalog::new(strategies.as_slice()),
        models,
    )
}

#[test]
fn batch_engine_outputs_are_identical_for_every_thread_count() {
    // The parallel engine must produce byte-identical workforce matrices,
    // streamed requirements and ADPaR solutions no matter how the rows /
    // problems are sharded, equal to the linear scan and to standalone
    // solves.
    let instances = SEEDS
        .iter()
        .map(|&seed| {
            let instance = BatchScenario {
                batch_size: 24,
                strategy_count: 400,
                k: 4,
                availability: 0.4,
                distribution: ParameterDistribution::Uniform,
                seed,
            }
            .materialize();
            let catalog = instance.catalog();
            (
                format!("seed {seed}"),
                (instance.requests, catalog, instance.models),
            )
        })
        .chain(std::iter::once(("1/64 grid".to_owned(), grid_instance(64))));
    for (label, (requests, catalog, models)) in instances {
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            // Every catalog here is pristine, so the linear scan over its
            // strategies is the reference.
            let scan =
                WorkforceMatrix::compute_with_rule(&requests, catalog.strategies(), &models, rule)
                    .unwrap();
            for threads in [1, 2, 3, 5, 0] {
                let parallel = BatchEngine::with_threads(threads)
                    .workforce_matrix(&requests, &catalog, &models, rule)
                    .unwrap();
                assert_eq!(scan, parallel, "{label}, {rule:?}, {threads} threads");
            }
            for mode in [AggregationMode::Sum, AggregationMode::Max] {
                let expected = scan.aggregate(4, mode);
                for threads in [1, 2, 3, 5, 0] {
                    let streamed = BatchEngine::with_threads(threads)
                        .requirements(&requests, &catalog, &models, rule, 4, mode)
                        .unwrap();
                    assert_eq!(
                        streamed, expected,
                        "{label}, {rule:?}, {mode:?}, {threads} threads"
                    );
                }
            }
        }

        // ADPaR fan-out over every request in the batch, against standalone
        // solves in input order.
        let indices: Vec<usize> = (0..requests.len()).collect();
        let expected: Vec<_> = indices
            .iter()
            .map(|&idx| AdparExact.solve(&AdparProblem::with_catalog(&requests[idx], &catalog, 4)))
            .collect();
        for threads in [1, 2, 3, 0] {
            let batch = BatchEngine::with_threads(threads)
                .solve_adpar_batch(&requests, &catalog, &indices, 4);
            assert_eq!(batch, expected, "{label}, {threads} threads");
        }
    }
}

#[test]
fn middle_layer_reports_match_the_sequential_scan_pipeline() {
    let layer = StratRec::new(StratRecConfig {
        k: 3,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Max,
    });

    // Reference: the sequential scan pipeline (`BatchStrat` over the slice,
    // then one standalone ADPaR-Exact solve per unsatisfied request),
    // reconstructed inline.
    let sequential = |requests: &[DeploymentRequest],
                      strategies: &[Strategy],
                      models: &ModelLibrary,
                      availability: &AvailabilityPdf| {
        let expected = availability.expectation();
        let engine = BatchStrat::new(layer.config.objective, layer.config.aggregation);
        let batch = engine
            .recommend_with_models(requests, strategies, models, layer.config.k, expected)
            .unwrap();
        let catalog = StrategyCatalog::new(strategies);
        let alternatives: Vec<_> = batch
            .unsatisfied
            .iter()
            .map(|&idx| {
                AdparExact.solve(&AdparProblem::with_catalog(
                    &requests[idx],
                    &catalog,
                    layer.config.k,
                ))
            })
            .collect();
        (batch, alternatives)
    };

    // Running example plus random scenarios wide enough to exercise the
    // parallel ADPaR fan-out.
    let mut cases: Vec<(Vec<DeploymentRequest>, Vec<Strategy>, ModelLibrary)> = vec![(
        stratrec::core::examples_data::running_example_requests(),
        stratrec::core::examples_data::running_example_strategies(),
        stratrec::core::examples_data::running_example_models(),
    )];
    for seed in SEEDS {
        let instance = BatchScenario {
            batch_size: 16,
            strategy_count: 250,
            k: 3,
            availability: 0.3,
            distribution: ParameterDistribution::Uniform,
            seed,
        }
        .materialize();
        cases.push((instance.requests, instance.strategies, instance.models));
    }

    for (i, (requests, strategies, models)) in cases.iter().enumerate() {
        let pdf = AvailabilityPdf::certain(if i == 0 { 0.8 } else { 0.3 });
        let (expected_batch, expected_alternatives) =
            sequential(requests, strategies, models, &pdf);
        let report = layer
            .process_batch(requests, strategies, models, &pdf)
            .unwrap();
        assert_eq!(report.batch, expected_batch, "case {i}");
        assert_eq!(
            report.alternatives.len(),
            expected_alternatives.len(),
            "case {i}"
        );
        for (alt, expected) in report.alternatives.iter().zip(&expected_alternatives) {
            assert_eq!(&alt.solution, expected, "case {i}");
        }
        // The parallel fan-out preserves the order of `unsatisfied`.
        let order: Vec<usize> = report
            .alternatives
            .iter()
            .map(|a| a.request_index)
            .collect();
        assert_eq!(order, report.batch.unsatisfied, "case {i}");
    }
}

/// One grid step: `n / 64`, exact in f64 for the ranges drawn here.
fn grid(n: u32) -> f64 {
    f64::from(n) / 64.0
}

/// A line with slope `±n/64` (`|α| ≥ 1/4`) and intercept on the wider
/// `[-1/2, 3/2]` grid, so lines rise, fall, overshoot and undershoot.
type LineSpec = (u32, bool, u32);

fn line(spec: LineSpec) -> LinearModel {
    let (alpha_num, negative, beta_num) = spec;
    let alpha = if negative {
        -grid(alpha_num)
    } else {
        grid(alpha_num)
    };
    let beta = (f64::from(beta_num) - 32.0) / 64.0;
    LinearModel::new(alpha, beta)
}

type StrategySpec = ((u32, u32, u32), (LineSpec, LineSpec, LineSpec));

fn build_grid_instance(
    specs: &[StrategySpec],
    request_specs: &[(u32, u32, u32)],
) -> (StrategyCatalog, ModelLibrary, Vec<DeploymentRequest>) {
    let strategies: Vec<Strategy> = specs
        .iter()
        .enumerate()
        .map(|(i, &((q, c, l), _))| {
            Strategy::from_params(
                i as u64,
                DeploymentParameters::clamped(grid(q), grid(c), grid(l)),
            )
        })
        .collect();
    let models =
        ModelLibrary::from_pairs(specs.iter().enumerate().map(|(i, &(_, (lq, lc, ll)))| {
            (
                strategies[i].id,
                StrategyModel::new(line(lq), line(lc), line(ll)),
            )
        }));
    let requests = request_specs
        .iter()
        .enumerate()
        .map(|(i, &(q, c, l))| {
            DeploymentRequest::new(
                i as u64,
                TaskType::SentenceTranslation,
                DeploymentParameters::clamped(grid(q), grid(c), grid(l)),
            )
        })
        .collect();
    (StrategyCatalog::new(strategies), models, requests)
}

proptest! {
    /// Inputs on the 1/64 grid are exact in f64: every satisfaction
    /// comparison is then either an exact tie or separated by at least
    /// 1/64, so the instances exercise the fill's boundary cases and index
    /// tie-breaking rather than only generic positions. The engine fills
    /// rows independently through the R-tree, so at every thread count its
    /// matrix must equal the linear scan over the same strategies bit for
    /// bit.
    #[test]
    fn engine_matrix_matches_the_scan_on_the_grid_for_every_thread_count(
        specs in proptest::collection::vec(
            (
                (0_u32..=64, 0_u32..=64, 0_u32..=64),
                (
                    (16_u32..=63, proptest::bool::ANY, 0_u32..=128),
                    (16_u32..=63, proptest::bool::ANY, 0_u32..=128),
                    (16_u32..=63, proptest::bool::ANY, 0_u32..=128),
                ),
            ),
            1..24,
        ),
        request_specs in proptest::collection::vec(
            (0_u32..=64, 0_u32..=64, 0_u32..=64),
            1..6,
        ),
    ) {
        let (catalog, models, requests) = build_grid_instance(&specs, &request_specs);
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let scan =
                WorkforceMatrix::compute_with_rule(&requests, catalog.strategies(), &models, rule)
                    .unwrap();
            for threads in 0..=4 {
                let sharded = BatchEngine::with_threads(threads)
                    .workforce_matrix(&requests, &catalog, &models, rule)
                    .unwrap();
                prop_assert_eq!(&scan, &sharded, "{:?}, {} threads", rule, threads);
            }
        }
    }
}
