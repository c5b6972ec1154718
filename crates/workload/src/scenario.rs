//! Experiment scenarios: the parameter grids behind Figures 14–18.
//!
//! Each scenario bundles the knobs of one synthetic experiment (batch size
//! `m`, strategy-set size `|S|`, cardinality `k`, worker availability `W`,
//! parameter distribution and seed) together with generators that materialize
//! a concrete instance. The defaults are the paper's: `|S| = 10 000`,
//! `m = 10`, `k = 10`, `W = 0.5` for the satisfaction experiments, and the
//! reduced `|S| = 30`, `m = 5` grid wherever brute force participates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use stratrec_core::availability::WorkerAvailability;
use stratrec_core::catalog::StrategyCatalog;
use stratrec_core::model::{DeploymentRequest, Strategy};
use stratrec_core::modeling::ModelLibrary;

use crate::model_gen::generate_models;
use crate::request_gen::generate_requests;
use crate::strategy_gen::generate_strategies;

/// Distribution of the synthetic strategy parameters (paper §5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ParameterDistribution {
    /// Uniform over `[0.5, 1]`.
    #[default]
    Uniform,
    /// Normal with mean 0.75 and standard deviation 0.1, clamped to `[0, 1]`.
    Normal,
}

impl ParameterDistribution {
    /// Both distributions, in the order the paper plots them.
    pub const ALL: [ParameterDistribution; 2] = [
        ParameterDistribution::Uniform,
        ParameterDistribution::Normal,
    ];

    /// Label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Uniform => "Uniform",
            Self::Normal => "Normal",
        }
    }
}

/// A materialized batch-recommendation instance.
#[derive(Debug, Clone)]
pub struct BatchInstance {
    /// The deployment requests of the batch.
    pub requests: Vec<DeploymentRequest>,
    /// The strategy set.
    pub strategies: Vec<Strategy>,
    /// Per-strategy availability models.
    pub models: ModelLibrary,
    /// Expected worker availability.
    pub availability: WorkerAvailability,
}

impl BatchInstance {
    /// Builds the shared indexed catalog over this instance's strategies,
    /// for the catalog-backed pipeline (`recommend_with_catalog`,
    /// `process_batch_with_catalog_at`).
    #[must_use]
    pub fn catalog(&self) -> StrategyCatalog {
        StrategyCatalog::new(self.strategies.as_slice())
    }
}

/// Scenario for the batch-deployment experiments (Figures 14–16, 18a).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchScenario {
    /// Number of deployment requests `m`.
    pub batch_size: usize,
    /// Number of strategies `|S|`.
    pub strategy_count: usize,
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Expected worker availability `W`.
    pub availability: f64,
    /// Distribution of the strategy parameters.
    pub distribution: ParameterDistribution,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BatchScenario {
    /// The defaults of Figure 14: `|S| = 10 000`, `m = 10`, `k = 10`,
    /// `W = 0.5`.
    fn default() -> Self {
        Self {
            batch_size: 10,
            strategy_count: 10_000,
            k: 10,
            availability: 0.5,
            distribution: ParameterDistribution::Uniform,
            seed: 2020,
        }
    }
}

impl BatchScenario {
    /// The reduced grid used whenever brute force participates
    /// (Figures 15–16): `k = 10`, `m = 5`, `|S| = 30`, `W = 0.5`.
    #[must_use]
    pub fn brute_force_defaults() -> Self {
        Self {
            batch_size: 5,
            strategy_count: 30,
            k: 10,
            availability: 0.5,
            ..Self::default()
        }
    }

    /// Materializes the scenario into concrete requests, strategies and
    /// models.
    #[must_use]
    pub fn materialize(&self) -> BatchInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let strategies = generate_strategies(self.strategy_count, self.distribution, &mut rng);
        let models = generate_models(&strategies, &mut rng);
        let requests = generate_requests(self.batch_size, &mut rng);
        BatchInstance {
            requests,
            strategies,
            models,
            availability: WorkerAvailability::clamped(self.availability),
        }
    }
}

/// A materialized ADPaR instance: one request and the strategy set.
#[derive(Debug, Clone)]
pub struct AdparInstance {
    /// The unsatisfied deployment request.
    pub request: DeploymentRequest,
    /// The strategy set.
    pub strategies: Vec<Strategy>,
    /// Cardinality constraint.
    pub k: usize,
}

impl AdparInstance {
    /// Builds the shared indexed catalog over this instance's strategies,
    /// for catalog-backed ADPaR problems (`AdparProblem::with_catalog`).
    #[must_use]
    pub fn catalog(&self) -> StrategyCatalog {
        StrategyCatalog::new(self.strategies.as_slice())
    }
}

/// Scenario for the ADPaR experiments (Figures 17, 18b–c).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdparScenario {
    /// Number of strategies `|S|`.
    pub strategy_count: usize,
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Distribution of the strategy parameters.
    pub distribution: ParameterDistribution,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdparScenario {
    /// The quality-experiment defaults: `|S| = 200`, `k = 5`.
    fn default() -> Self {
        Self {
            strategy_count: 200,
            k: 5,
            distribution: ParameterDistribution::Uniform,
            seed: 2020,
        }
    }
}

impl AdparScenario {
    /// The reduced grid used when comparing against `ADPaRB`
    /// (`|S| = 20`, `k = 5`).
    #[must_use]
    pub fn brute_force_defaults() -> Self {
        Self {
            strategy_count: 20,
            k: 5,
            ..Self::default()
        }
    }

    /// Materializes the scenario. The request is drawn *demanding* — high
    /// quality, low cost and latency budgets (outside the strategy cloud) —
    /// so that it is genuinely unsatisfiable and ADPaR has work to do.
    #[must_use]
    pub fn materialize(&self) -> AdparInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let strategies = generate_strategies(self.strategy_count, self.distribution, &mut rng);
        let request = crate::request_gen::generate_requests_in_range(1, 0.9, 1.0, &mut rng)
            .pop()
            .map(|mut r| {
                // Tighten cost and latency below the generated strategy range
                // so no strategy satisfies the request outright.
                r.params.cost = 1.0 - r.params.cost;
                r.params.latency = 1.0 - r.params.latency;
                r
            })
            .expect("one request was generated");
        AdparInstance {
            request,
            strategies,
            k: self.k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_batch_scenario_matches_paper_defaults() {
        let scenario = BatchScenario::default();
        assert_eq!(scenario.strategy_count, 10_000);
        assert_eq!(scenario.batch_size, 10);
        assert_eq!(scenario.k, 10);
        assert!((scenario.availability - 0.5).abs() < 1e-12);
        let brute = BatchScenario::brute_force_defaults();
        assert_eq!(brute.strategy_count, 30);
        assert_eq!(brute.batch_size, 5);
    }

    #[test]
    fn batch_materialization_is_consistent_and_reproducible() {
        let scenario = BatchScenario {
            strategy_count: 100,
            batch_size: 7,
            ..BatchScenario::default()
        };
        let a = scenario.materialize();
        let b = scenario.materialize();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.strategies, b.strategies);
        assert_eq!(a.requests.len(), 7);
        assert_eq!(a.strategies.len(), 100);
        assert_eq!(a.models.len(), 100);
        assert!((a.availability.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adpar_materialization_produces_an_unsatisfiable_request() {
        let scenario = AdparScenario {
            strategy_count: 50,
            ..AdparScenario::default()
        };
        let instance = scenario.materialize();
        assert_eq!(instance.strategies.len(), 50);
        assert_eq!(instance.k, 5);
        let eligible = instance.request.eligible_strategies(&instance.strategies);
        assert!(
            eligible.len() < instance.k,
            "the request should need ADPaR ({} eligible)",
            eligible.len()
        );
    }

    #[test]
    fn catalogs_index_the_materialized_strategies() {
        let batch = BatchScenario {
            strategy_count: 40,
            ..BatchScenario::default()
        }
        .materialize();
        assert_eq!(batch.catalog().strategies(), &batch.strategies[..]);
        let adpar = AdparScenario {
            strategy_count: 25,
            ..AdparScenario::default()
        }
        .materialize();
        let catalog = adpar.catalog();
        assert_eq!(catalog.len(), 25);
        assert_eq!(
            catalog.eligible_for(&adpar.request.params),
            adpar.request.eligible_strategies(&adpar.strategies)
        );
    }

    #[test]
    fn distribution_labels_are_stable() {
        assert_eq!(ParameterDistribution::Uniform.label(), "Uniform");
        assert_eq!(ParameterDistribution::Normal.label(), "Normal");
        assert_eq!(ParameterDistribution::ALL.len(), 2);
    }

    #[test]
    fn different_seeds_give_different_instances() {
        let a = BatchScenario {
            seed: 1,
            strategy_count: 50,
            ..BatchScenario::default()
        }
        .materialize();
        let b = BatchScenario {
            seed: 2,
            strategy_count: 50,
            ..BatchScenario::default()
        }
        .materialize();
        assert_ne!(a.strategies, b.strategies);
    }
}
