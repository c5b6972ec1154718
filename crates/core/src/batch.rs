//! Batch deployment recommendation (paper §3, Problem 1).
//!
//! Given a batch of `m` deployment requests, a strategy set `S`, a
//! cardinality constraint `k` and the expected worker availability `W`, the
//! Aggregator distributes `W` among the requests so that a platform-centric
//! objective is maximized:
//!
//! * **Throughput** — the number of satisfied requests. `BatchStrat` solves
//!   this exactly by selecting requests in ascending order of workforce
//!   requirement (Theorem 2).
//! * **Pay-off** — the total cost budget of satisfied requests. This is
//!   NP-hard by reduction from 0/1 knapsack (Theorem 1); `BatchStrat` is the
//!   greedy ½-approximation (Theorem 3).
//!
//! The module also implements the paper's experimental baselines: the plain
//! greedy `BaselineG` and the exponential `Brute Force` reference (§5.2.1).

use serde::{Deserialize, Serialize};
use stratrec_optim::knapsack::{self, KnapsackItem};

use crate::availability::WorkerAvailability;
use crate::catalog::StrategyCatalog;
use crate::engine::BatchEngine;
use crate::error::StratRecError;
use crate::model::{DeploymentRequest, RequestId, Strategy};
use crate::modeling::{ModelLibrary, StrategyModel};
use crate::workforce::{AggregationMode, EligibilityRule, RequestRequirement, WorkforceMatrix};

/// Platform-centric objective maximized by the Aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BatchObjective {
    /// Maximize the number of satisfied deployment requests.
    #[default]
    Throughput,
    /// Maximize the total pay-off (the cost budgets of satisfied requests).
    Payoff,
}

/// Which selection algorithm to run over the per-request requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BatchAlgorithm {
    /// The paper's `BatchStrat`: greedy in density order with the
    /// better-of-prefix-or-breaking-item fix-up (exact for throughput,
    /// ½-approximate for pay-off).
    #[default]
    BatchStrat,
    /// `BaselineG`: greedy in density order, keeps adding requests that still
    /// fit until the workforce is exhausted, no fix-up and no guarantee.
    BaselineG,
    /// Exhaustive enumeration of request subsets (exponential; the paper caps
    /// it at `m ≈ 30`).
    BruteForce,
}

/// One satisfied deployment request and the strategies recommended for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Index of the request in the input batch.
    pub request_index: usize,
    /// Identifier of the request.
    pub request_id: RequestId,
    /// Indices (into the strategy slice) of the `k` recommended strategies,
    /// cheapest workforce first.
    pub strategy_indices: Vec<usize>,
    /// Aggregated workforce requirement charged against `W`.
    pub workforce: f64,
    /// Contribution of this request to the objective (1 for throughput, the
    /// request's cost budget for pay-off).
    pub objective_contribution: f64,
}

/// Result of triaging one batch of deployment requests.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchOutcome {
    /// Requests that received `k` strategy recommendations.
    pub satisfied: Vec<Recommendation>,
    /// Indices of requests that were not satisfied (either not selected under
    /// the workforce budget, or structurally infeasible because fewer than
    /// `k` strategies meet their thresholds). These are forwarded to ADPaR.
    pub unsatisfied: Vec<usize>,
    /// Total objective value achieved.
    pub objective_value: f64,
    /// Total workforce consumed by the satisfied requests.
    pub workforce_used: f64,
}

impl BatchOutcome {
    /// Fraction of the batch that was satisfied (`0` for an empty batch).
    #[must_use]
    pub fn satisfaction_rate(&self) -> f64 {
        let total = self.satisfied.len() + self.unsatisfied.len();
        if total == 0 {
            0.0
        } else {
            self.satisfied.len() as f64 / total as f64
        }
    }
}

/// The Aggregator's batch-recommendation engine.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchStrat {
    /// Objective to maximize.
    pub objective: BatchObjective,
    /// Workforce aggregation mode over the `k` recommended strategies.
    pub aggregation: AggregationMode,
    /// Selection algorithm (the paper's `BatchStrat` by default).
    pub algorithm: BatchAlgorithm,
    /// How strategies are filtered before the workforce computation.
    pub eligibility: EligibilityRule,
}

impl BatchStrat {
    /// Creates an engine with the default [`BatchAlgorithm::BatchStrat`]
    /// selection rule.
    #[must_use]
    pub fn new(objective: BatchObjective, aggregation: AggregationMode) -> Self {
        Self {
            objective,
            aggregation,
            algorithm: BatchAlgorithm::BatchStrat,
            eligibility: EligibilityRule::default(),
        }
    }

    /// Replaces the selection algorithm (used to run the paper's baselines on
    /// identical inputs).
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: BatchAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Replaces the strategy-eligibility rule. The synthetic experiments of
    /// §5.2 recommend any strategy whose *model* can meet the thresholds
    /// ([`EligibilityRule::ModelOnly`]); real deployments filter on the
    /// strategies' estimated parameters (the default).
    #[must_use]
    pub fn with_eligibility(mut self, eligibility: EligibilityRule) -> Self {
        self.eligibility = eligibility;
        self
    }

    /// Recommends strategies for a batch using a *default* model library in
    /// which every strategy follows `param = 1.0 · w + 0.0` — i.e. meeting a
    /// quality threshold `q` requires a workforce fraction `q`. This is a
    /// convenience for examples and demos; production callers fit per-strategy
    /// models from history and use [`Self::recommend_with_models`].
    #[must_use]
    pub fn recommend(
        &self,
        requests: &[DeploymentRequest],
        strategies: &[Strategy],
        k: usize,
        availability: WorkerAvailability,
    ) -> BatchOutcome {
        let models = ModelLibrary::uniform_for(strategies, StrategyModel::uniform(1.0, 0.0));
        self.recommend_with_models(requests, strategies, &models, k, availability)
            .expect("uniform library covers every strategy")
    }

    /// Recommends strategies for a batch using fitted per-strategy models.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a strategy lacks a model.
    pub fn recommend_with_models(
        &self,
        requests: &[DeploymentRequest],
        strategies: &[Strategy],
        models: &ModelLibrary,
        k: usize,
        availability: WorkerAvailability,
    ) -> Result<BatchOutcome, StratRecError> {
        let matrix =
            WorkforceMatrix::compute_with_rule(requests, strategies, models, self.eligibility)?;
        let requirements = matrix.aggregate(k, self.aggregation);
        Ok(self.select(requests, &requirements, availability))
    }

    /// Recommends strategies for a batch against an indexed
    /// [`StrategyCatalog`], answering eligibility through the catalog's
    /// R-tree instead of scanning every strategy per request, and streaming
    /// each request's eligible cells into its top-k
    /// ([`BatchEngine::requirements`] on the calling thread) instead of
    /// building the workforce matrix. Produces an outcome identical to
    /// [`Self::recommend_with_models`] over `catalog.strategies()`.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a catalog strategy lacks
    /// a model.
    pub fn recommend_with_catalog(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        k: usize,
        availability: WorkerAvailability,
    ) -> Result<BatchOutcome, StratRecError> {
        let requirements = BatchEngine::sequential().requirements(
            requests,
            catalog,
            models,
            self.eligibility,
            k,
            self.aggregation,
        )?;
        Ok(self.select(requests, &requirements, availability))
    }

    /// Runs the selection step over per-request requirements (`None` entries
    /// are structurally infeasible requests).
    ///
    /// # Panics
    ///
    /// Panics when `requirements` is not parallel to `requests`: a request
    /// without a requirement would get no answer and never reach ADPaR.
    #[must_use]
    pub fn select(
        &self,
        requests: &[DeploymentRequest],
        requirements: &[Option<RequestRequirement>],
        availability: WorkerAvailability,
    ) -> BatchOutcome {
        assert_eq!(
            requests.len(),
            requirements.len(),
            "one requirement per request is needed to select a batch"
        );
        // Feasible candidates become knapsack items.
        let mut candidate_indices = Vec::new();
        let mut items = Vec::new();
        for (idx, requirement) in requirements.iter().enumerate() {
            if let Some(req) = requirement {
                let value = match self.objective {
                    BatchObjective::Throughput => 1.0,
                    BatchObjective::Payoff => requests[idx].payoff(),
                };
                candidate_indices.push(idx);
                items.push(KnapsackItem::new(req.workforce, value));
            }
        }

        let capacity = availability.value();
        let solution = match self.algorithm {
            BatchAlgorithm::BatchStrat => match self.objective {
                // Ascending-workforce greedy is exact for throughput
                // (Theorem 2) and coincides with density order because every
                // value is 1.
                BatchObjective::Throughput => knapsack::solve_greedy_half_approx(&items, capacity),
                BatchObjective::Payoff => knapsack::solve_greedy_half_approx(&items, capacity),
            },
            BatchAlgorithm::BaselineG => knapsack::solve_greedy_density(&items, capacity),
            BatchAlgorithm::BruteForce => knapsack::solve_brute_force(&items, capacity),
        };

        let selected: std::collections::HashSet<usize> = solution
            .selected
            .iter()
            .map(|&item_idx| candidate_indices[item_idx])
            .collect();

        let mut satisfied = Vec::with_capacity(selected.len());
        let mut unsatisfied = Vec::new();
        let mut objective_value = 0.0;
        let mut workforce_used = 0.0;
        for (idx, requirement) in requirements.iter().enumerate() {
            match requirement {
                Some(req) if selected.contains(&idx) => {
                    let contribution = match self.objective {
                        BatchObjective::Throughput => 1.0,
                        BatchObjective::Payoff => requests[idx].payoff(),
                    };
                    objective_value += contribution;
                    workforce_used += req.workforce;
                    satisfied.push(Recommendation {
                        request_index: idx,
                        request_id: requests[idx].id,
                        strategy_indices: req.strategy_indices.clone(),
                        workforce: req.workforce,
                        objective_contribution: contribution,
                    });
                }
                _ => unsatisfied.push(idx),
            }
        }

        BatchOutcome {
            satisfied,
            unsatisfied,
            objective_value,
            workforce_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DeploymentParameters, TaskType};
    use proptest::prelude::*;

    fn avail(w: f64) -> WorkerAvailability {
        WorkerAvailability::new(w).unwrap()
    }

    fn request(id: u64, q: f64, c: f64, l: f64) -> DeploymentRequest {
        DeploymentRequest::new(
            id,
            TaskType::TextCreation,
            DeploymentParameters::clamped(q, c, l),
        )
    }

    fn requirement(idx: usize, workforce: f64) -> Option<RequestRequirement> {
        Some(RequestRequirement {
            request_index: idx,
            strategy_indices: vec![0, 1, 2],
            workforce,
        })
    }

    #[test]
    fn running_example_matches_paper() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let engine = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max);
        let outcome = engine.recommend(&requests, &strategies, 3, avail(0.8));
        assert_eq!(outcome.satisfied.len(), 1);
        assert_eq!(outcome.satisfied[0].request_index, 2);
        let mut rec = outcome.satisfied[0].strategy_indices.clone();
        rec.sort_unstable();
        assert_eq!(rec, vec![1, 2, 3]); // s2, s3, s4
        assert_eq!(outcome.unsatisfied, vec![0, 1]);
        assert!((outcome.objective_value - 1.0).abs() < 1e-12);
        assert!((outcome.satisfaction_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn payoff_objective_uses_cost_budgets() {
        let requests = vec![
            request(1, 0.6, 0.9, 0.9),
            request(2, 0.6, 0.3, 0.9),
            request(3, 0.6, 0.5, 0.9),
        ];
        let requirements = vec![
            requirement(0, 0.6),
            requirement(1, 0.3),
            requirement(2, 0.5),
        ];
        let engine = BatchStrat::new(BatchObjective::Payoff, AggregationMode::Sum);
        let outcome = engine.select(&requests, &requirements, avail(0.8));
        // Optimal subsets within capacity 0.8: {0} (0.9) vs {1,2} (0.8).
        assert!(outcome.objective_value >= 0.8);
        assert!(outcome.workforce_used <= 0.8 + 1e-9);
    }

    #[test]
    fn throughput_greedy_is_exact_against_brute_force() {
        let requests: Vec<DeploymentRequest> = (0..8)
            .map(|i| request(i, 0.5, 0.5 + 0.05 * i as f64, 0.9))
            .collect();
        let requirements: Vec<Option<RequestRequirement>> = (0..8)
            .map(|i| requirement(i, 0.05 + 0.07 * i as f64))
            .collect();
        for w in [0.1, 0.3, 0.5, 0.8] {
            let greedy = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum).select(
                &requests,
                &requirements,
                avail(w),
            );
            let brute = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum)
                .with_algorithm(BatchAlgorithm::BruteForce)
                .select(&requests, &requirements, avail(w));
            assert_eq!(greedy.satisfied.len(), brute.satisfied.len(), "W = {w}");
        }
    }

    #[test]
    fn infeasible_requests_are_always_unsatisfied() {
        let requests = vec![request(1, 0.9, 0.1, 0.1), request(2, 0.2, 0.9, 0.9)];
        let requirements = vec![None, requirement(1, 0.2)];
        let outcome = BatchStrat::default().select(&requests, &requirements, avail(1.0));
        assert_eq!(outcome.satisfied.len(), 1);
        assert_eq!(outcome.unsatisfied, vec![0]);
    }

    #[test]
    fn zero_availability_satisfies_only_zero_cost_requests() {
        let requests = vec![request(1, 0.5, 0.5, 0.5), request(2, 0.5, 0.5, 0.5)];
        let requirements = vec![requirement(0, 0.0), requirement(1, 0.4)];
        let outcome = BatchStrat::default().select(&requests, &requirements, avail(0.0));
        assert_eq!(outcome.satisfied.len(), 1);
        assert_eq!(outcome.satisfied[0].request_index, 0);
    }

    #[test]
    fn baseline_g_keeps_filling_after_breaking_item() {
        // Density order: idx0 (w=0.5, v=1), idx1 (w=0.6, v=1), idx2 (w=0.1, v=1).
        // With W=0.6 BatchStrat stops at idx1 and compares with the best
        // single item, while BaselineG skips idx1 and still takes idx2.
        let requests = vec![
            request(1, 0.5, 0.5, 0.5),
            request(2, 0.5, 0.5, 0.5),
            request(3, 0.5, 0.5, 0.5),
        ];
        let requirements = vec![
            requirement(0, 0.5),
            requirement(1, 0.6),
            requirement(2, 0.1),
        ];
        let baseline = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum)
            .with_algorithm(BatchAlgorithm::BaselineG)
            .select(&requests, &requirements, avail(0.6));
        assert_eq!(baseline.satisfied.len(), 2);
        let strat = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum).select(
            &requests,
            &requirements,
            avail(0.6),
        );
        assert_eq!(strat.satisfied.len(), 2); // ascending-workforce order: idx2 then idx0
    }

    #[test]
    fn empty_batch_produces_empty_outcome() {
        let outcome = BatchStrat::default().select(&[], &[], avail(0.5));
        assert!(outcome.satisfied.is_empty());
        assert!(outcome.unsatisfied.is_empty());
        assert_eq!(outcome.objective_value, 0.0);
        assert_eq!(outcome.satisfaction_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one requirement per request is needed to select a batch")]
    fn select_refuses_requests_without_a_requirement() {
        // Three requests, one requirement: requests 1 and 2 would be
        // dropped without an answer.
        let requests = vec![
            request(1, 0.5, 0.5, 0.5),
            request(2, 0.5, 0.5, 0.5),
            request(3, 0.5, 0.5, 0.5),
        ];
        let _ = BatchStrat::default().select(&requests, &[None], avail(0.5));
    }

    #[test]
    fn recommend_with_models_propagates_missing_model_error() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let result = BatchStrat::default().recommend_with_models(
            &requests,
            &strategies,
            &ModelLibrary::new(),
            3,
            avail(0.5),
        );
        assert!(matches!(result, Err(StratRecError::MissingModel { .. })));
    }

    proptest! {
        #[test]
        fn workforce_budget_is_never_exceeded(
            workforces in proptest::collection::vec(0.0_f64..0.5, 1..12),
            availability in 0.0_f64..1.0,
            payoff_objective in proptest::bool::ANY,
        ) {
            let requests: Vec<DeploymentRequest> = workforces
                .iter()
                .enumerate()
                .map(|(i, _)| request(i as u64, 0.5, 0.7, 0.9))
                .collect();
            let requirements: Vec<Option<RequestRequirement>> = workforces
                .iter()
                .enumerate()
                .map(|(i, &w)| requirement(i, w))
                .collect();
            let objective = if payoff_objective {
                BatchObjective::Payoff
            } else {
                BatchObjective::Throughput
            };
            for algorithm in [
                BatchAlgorithm::BatchStrat,
                BatchAlgorithm::BaselineG,
                BatchAlgorithm::BruteForce,
            ] {
                let outcome = BatchStrat::new(objective, AggregationMode::Sum)
                    .with_algorithm(algorithm)
                    .select(&requests, &requirements, avail(availability));
                prop_assert!(outcome.workforce_used <= availability + 1e-9);
                prop_assert_eq!(
                    outcome.satisfied.len() + outcome.unsatisfied.len(),
                    requests.len()
                );
            }
        }

        #[test]
        fn batchstrat_payoff_is_half_approximate(
            workforces in proptest::collection::vec(0.01_f64..0.6, 1..10),
            costs in proptest::collection::vec(0.1_f64..1.0, 10..=10),
            availability in 0.1_f64..1.0,
        ) {
            let n = workforces.len();
            let requests: Vec<DeploymentRequest> = (0..n)
                .map(|i| request(i as u64, 0.5, costs[i], 0.9))
                .collect();
            let requirements: Vec<Option<RequestRequirement>> = workforces
                .iter()
                .enumerate()
                .map(|(i, &w)| requirement(i, w))
                .collect();
            let approx = BatchStrat::new(BatchObjective::Payoff, AggregationMode::Sum)
                .select(&requests, &requirements, avail(availability));
            let brute = BatchStrat::new(BatchObjective::Payoff, AggregationMode::Sum)
                .with_algorithm(BatchAlgorithm::BruteForce)
                .select(&requests, &requirements, avail(availability));
            prop_assert!(approx.objective_value + 1e-9 >= brute.objective_value / 2.0);
            prop_assert!(approx.objective_value <= brute.objective_value + 1e-9);
        }

        #[test]
        fn throughput_greedy_matches_brute_force(
            workforces in proptest::collection::vec(0.01_f64..0.5, 1..10),
            availability in 0.0_f64..1.0,
        ) {
            let requests: Vec<DeploymentRequest> = (0..workforces.len())
                .map(|i| request(i as u64, 0.5, 0.7, 0.9))
                .collect();
            let requirements: Vec<Option<RequestRequirement>> = workforces
                .iter()
                .enumerate()
                .map(|(i, &w)| requirement(i, w))
                .collect();
            let greedy = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum)
                .select(&requests, &requirements, avail(availability));
            let brute = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum)
                .with_algorithm(BatchAlgorithm::BruteForce)
                .select(&requests, &requirements, avail(availability));
            prop_assert_eq!(greedy.satisfied.len(), brute.satisfied.len());
        }
    }
}
