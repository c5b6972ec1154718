//! The StratRec middle layer (paper Figure 1, §2.2).
//!
//! [`StratRec`] wires the two modules together: the **Aggregator**
//! ([`BatchStrat`]) triages a batch of deployment requests against worker
//! availability and recommends `k` strategies for each satisfied request;
//! every unsatisfied request is then forwarded to **ADPaR**
//! ([`AdparExact`](crate::adpar::AdparExact)) which recommends the closest
//! alternative deployment parameters for which `k` strategies exist.
//!
//! Both stages run over a shared [`StrategyCatalog`] and execute on the
//! layer's [`BatchEngine`] (a pub field: set it to
//! [`BatchEngine::sequential`] or a thread cap directly). Eligibility is an
//! R-tree box query instead of an `O(|S|)` scan per request. Each request's
//! top-k requirement is streamed from its eligible cells
//! ([`BatchEngine::requirements`]), with rows sharded across a scoped thread
//! pool, so the catalog path never builds the dense workforce matrix:
//! [`WorkforceMatrix`](crate::workforce::WorkforceMatrix) is the paper's
//! §3.2 object for the slice/scan path and the oracle the streamed
//! requirements are tested and replayed against. The independent ADPaR
//! problems of a batch fan out in parallel with one reusable solver scratch
//! per worker.
//!
//! A batch enters through one of two calls:
//! [`StratRec::process_batch`] over a strategy slice (it builds a temporary
//! catalog) or [`StratRec::process_batch_with_catalog_at`] over a shared
//! catalog at a [`ServiceQuality`]. At
//! [`ServiceQuality::Full`] the reports are identical to the sequential scan
//! pipeline (see `tests/catalog_parity.rs`).

use serde::{Deserialize, Serialize};

use crate::adpar::AdparSolution;
use crate::availability::{AvailabilityPdf, WorkerAvailability};
use crate::batch::{BatchObjective, BatchOutcome, BatchStrat};
use crate::catalog::StrategyCatalog;
use crate::engine::BatchEngine;
use crate::error::StratRecError;
use crate::model::{DeploymentRequest, Strategy};
use crate::modeling::ModelLibrary;
use crate::workforce::{AggregationMode, RequestRequirement};

/// Configuration of the middle layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StratRecConfig {
    /// Number of strategies to recommend per request.
    pub k: usize,
    /// Platform-centric objective of the Aggregator.
    pub objective: BatchObjective,
    /// Workforce aggregation mode over the `k` recommended strategies.
    pub aggregation: AggregationMode,
}

impl Default for StratRecConfig {
    fn default() -> Self {
        Self {
            k: 3,
            objective: BatchObjective::Throughput,
            aggregation: AggregationMode::Sum,
        }
    }
}

/// The ADPaR solver a batch's unsatisfied requests are answered with. The
/// Aggregator stage is identical at both levels, so a `Degraded` report
/// differs from the `Full` one only in its [`AlternativeRecommendation`]s —
/// and those are bit-identical to what [`crate::adpar::AdparBaseline2`]
/// computes standalone over the same catalog state. The streaming server
/// serves only `Full`: `Baseline2` costs more than exact ADPaR per problem,
/// so degrading to it under overload saved no work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ServiceQuality {
    /// The normal pipeline: exact ADPaR for every unsatisfied request.
    #[default]
    Full,
    /// `Baseline2` alternatives, same Aggregator. Nothing serves it; kept
    /// only because the end-to-end benchmark names it.
    Degraded,
}

/// The alternative parameters recommended to one unsatisfied request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlternativeRecommendation {
    /// Index of the request in the input batch.
    pub request_index: usize,
    /// The ADPaR solution, or the error explaining why none exists (e.g. the
    /// platform has fewer than `k` strategies in total).
    pub solution: Result<AdparSolution, StratRecError>,
}

/// The full report produced for one batch of deployment requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratRecReport {
    /// Expected worker availability the batch was planned with.
    pub availability: WorkerAvailability,
    /// Outcome of the Aggregator (satisfied requests and their strategies).
    pub batch: BatchOutcome,
    /// Alternative parameters for every unsatisfied request, in the order of
    /// [`BatchOutcome::unsatisfied`].
    pub alternatives: Vec<AlternativeRecommendation>,
}

impl StratRecReport {
    /// Number of requests that received either direct recommendations or a
    /// feasible alternative.
    #[must_use]
    pub fn served_requests(&self) -> usize {
        self.batch.satisfied.len()
            + self
                .alternatives
                .iter()
                .filter(|a| a.solution.is_ok())
                .count()
    }
}

/// The optimization-driven middle layer between requesters, workers and the
/// platform.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StratRec {
    /// Middle-layer configuration.
    pub config: StratRecConfig,
    /// Batch executor sharding workforce-matrix rows and ADPaR solves
    /// across scoped threads (defaults to one worker per core).
    pub engine: BatchEngine,
}

impl StratRec {
    /// Creates a middle layer with the given configuration and the default
    /// one-worker-per-core [`BatchEngine`].
    #[must_use]
    pub fn new(config: StratRecConfig) -> Self {
        Self {
            config,
            engine: BatchEngine::new(),
        }
    }

    /// Each request's workforce requirement over the configured `k` and
    /// aggregation mode, streamed from its eligible catalog cells
    /// ([`BatchEngine::requirements`]).
    fn requirements(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
    ) -> Result<Vec<Option<RequestRequirement>>, StratRecError> {
        self.engine.requirements(
            requests,
            catalog,
            models,
            self.aggregator().eligibility,
            self.config.k,
            self.config.aggregation,
        )
    }

    /// The Aggregator configured by this layer.
    fn aggregator(&self) -> BatchStrat {
        BatchStrat::new(self.config.objective, self.config.aggregation)
    }

    /// Processes a batch of deployment requests: estimates availability from
    /// the pdf, runs the Aggregator, and sends every unsatisfied request to
    /// ADPaR.
    ///
    /// Builds a temporary [`StrategyCatalog`] over `strategies`; callers
    /// serving many batches over the same strategy set should build the
    /// catalog once and use [`Self::process_batch_with_catalog_at`].
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a strategy has no fitted
    /// model in `models`.
    pub fn process_batch(
        &self,
        requests: &[DeploymentRequest],
        strategies: &[Strategy],
        models: &ModelLibrary,
        availability: &AvailabilityPdf,
    ) -> Result<StratRecReport, StratRecError> {
        self.process_batch_with_catalog_at(
            requests,
            &StrategyCatalog::new(strategies),
            models,
            availability,
            ServiceQuality::Full,
        )
    }

    /// Processes a batch over a shared, pre-indexed [`StrategyCatalog`] on
    /// the configured [`BatchEngine`], at an explicit [`ServiceQuality`].
    /// The Aggregator streams each request's eligible cells (found through
    /// the catalog's R-tree) into its top-k, with rows sharded across scoped
    /// threads, and the unsatisfied requests fan out to ADPaR in parallel
    /// with one reusable solver scratch per worker. `Full` answers them with
    /// exact ADPaR; `Degraded` with `Baseline2`, whose alternatives are
    /// bit-identical to standalone [`crate::adpar::AdparBaseline2`] solves
    /// over the same catalog. The `quality` parameter is kept only because
    /// the end-to-end benchmark passes it; every other caller passes
    /// `Full`. At `Full` the report is identical to the sequential scan
    /// pipeline, and at both levels it is deterministic regardless of
    /// thread count. This is the call a streaming front-end serves each
    /// admission window with, and the reference every served answer is
    /// pinned against.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a catalog strategy has
    /// no fitted model in `models`.
    pub fn process_batch_with_catalog_at(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        availability: &AvailabilityPdf,
        quality: ServiceQuality,
    ) -> Result<StratRecReport, StratRecError> {
        let requirements = self.requirements(requests, catalog, models)?;
        Ok(self.plan(requests, catalog, &requirements, availability, quality))
    }

    /// The stages after aggregation, shared by every entry point: the
    /// Aggregator's selection over `requirements`, then the ADPaR fan-out
    /// for each unsatisfied request — exact solves at
    /// [`ServiceQuality::Full`], `Baseline2` solves at
    /// [`ServiceQuality::Degraded`]. Everything upstream (the requirements)
    /// is quality-independent.
    fn plan(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        requirements: &[Option<RequestRequirement>],
        availability: &AvailabilityPdf,
        quality: ServiceQuality,
    ) -> StratRecReport {
        let expected = availability.expectation();
        let batch = self.aggregator().select(requests, requirements, expected);
        let (unsatisfied, k) = (&batch.unsatisfied, self.config.k);
        let solutions = match quality {
            ServiceQuality::Full => {
                self.engine
                    .solve_adpar_batch(requests, catalog, unsatisfied, k)
            }
            ServiceQuality::Degraded => {
                self.engine
                    .solve_adpar_batch_degraded(requests, catalog, unsatisfied, k)
            }
        };
        let alternatives = unsatisfied
            .iter()
            .zip(solutions)
            .map(|(&request_index, solution)| AlternativeRecommendation {
                request_index,
                solution,
            })
            .collect();
        StratRecReport {
            availability: expected,
            batch,
            alternatives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdf(w: f64) -> AvailabilityPdf {
        AvailabilityPdf::certain(w)
    }

    #[test]
    fn running_example_end_to_end() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let models = crate::examples_data::running_example_models();
        let layer = StratRec::new(StratRecConfig {
            k: 3,
            objective: BatchObjective::Throughput,
            aggregation: AggregationMode::Max,
        });
        let report = layer
            .process_batch(&requests, &strategies, &models, &pdf(0.8))
            .unwrap();
        assert!((report.availability.value() - 0.8).abs() < 1e-12);
        assert_eq!(report.batch.satisfied.len(), 1);
        assert_eq!(report.batch.satisfied[0].request_index, 2);
        assert_eq!(report.alternatives.len(), 2);
        // Both unsatisfied requests obtain feasible alternative parameters.
        assert!(report.alternatives.iter().all(|a| a.solution.is_ok()));
        assert_eq!(report.served_requests(), 3);
        // d1's alternative matches the paper: (0.4, 0.5, 0.28).
        let d1 = report
            .alternatives
            .iter()
            .find(|a| a.request_index == 0)
            .unwrap();
        let solution = d1.solution.as_ref().unwrap();
        assert!((solution.alternative.cost - 0.5).abs() < 1e-9);
    }

    #[test]
    fn default_config_is_reasonable() {
        let config = StratRecConfig::default();
        assert_eq!(config.k, 3);
        assert_eq!(config.objective, BatchObjective::Throughput);
        assert_eq!(config.aggregation, AggregationMode::Sum);
    }

    #[test]
    fn k_larger_than_strategy_count_yields_errors_in_alternatives() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let models = crate::examples_data::running_example_models();
        let layer = StratRec::new(StratRecConfig {
            k: 10,
            ..StratRecConfig::default()
        });
        let report = layer
            .process_batch(&requests, &strategies, &models, &pdf(0.9))
            .unwrap();
        assert!(report.batch.satisfied.is_empty());
        assert_eq!(report.alternatives.len(), 3);
        assert!(report
            .alternatives
            .iter()
            .all(|a| matches!(a.solution, Err(StratRecError::NotEnoughStrategies { .. }))));
        assert_eq!(report.served_requests(), 0);
    }

    #[test]
    fn missing_models_propagate() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let layer = StratRec::default();
        assert!(layer
            .process_batch(&requests, &strategies, &ModelLibrary::new(), &pdf(0.5))
            .is_err());
    }

    fn fixture() -> (
        StrategyCatalog,
        ModelLibrary,
        Vec<DeploymentRequest>,
        AvailabilityPdf,
    ) {
        let strategies: Vec<Strategy> = (0..18_u64)
            .map(|i| {
                Strategy::from_params(
                    i,
                    crate::model::DeploymentParameters::clamped(
                        0.35 + (i as f64 * 0.11) % 0.6,
                        0.2 + (i as f64 * 0.27) % 0.7,
                        0.15 + (i as f64 * 0.19) % 0.7,
                    ),
                )
            })
            .collect();
        let models = ModelLibrary::from_pairs(strategies.iter().map(|s| {
            let alpha = 0.45 + (s.id.0 % 35) as f64 / 100.0;
            (
                s.id,
                crate::modeling::StrategyModel::uniform(alpha, 1.0 - alpha),
            )
        }));
        let requests: Vec<DeploymentRequest> = (0..5_u64)
            .map(|i| {
                DeploymentRequest::new(
                    i,
                    crate::model::TaskType::SentenceTranslation,
                    crate::model::DeploymentParameters::clamped(
                        0.3 + (i as f64) * 0.1,
                        0.9 - (i as f64) * 0.05,
                        0.85 - (i as f64) * 0.04,
                    ),
                )
            })
            .collect();
        let catalog =
            StrategyCatalog::with_policy(strategies, crate::catalog::RebuildPolicy::threshold(3));
        (catalog, models, requests, pdf(0.6))
    }

    #[test]
    fn degraded_reports_swap_only_the_adpar_stage() {
        use crate::adpar::{AdparBaseline2, AdparProblem, AdparSolver};
        let (catalog, models, requests, _) = fixture();
        // Zero availability pushes every request to ADPaR, so the degraded
        // fan-out has maximal surface to diverge on.
        let availability = pdf(0.0);
        let layer = StratRec::default();
        let serve = |quality| {
            layer
                .process_batch_with_catalog_at(&requests, &catalog, &models, &availability, quality)
                .unwrap()
        };
        let full = serve(ServiceQuality::Full);
        let degraded = serve(ServiceQuality::Degraded);
        // The Aggregator stage is quality-independent...
        assert_eq!(degraded.batch, full.batch);
        assert_eq!(degraded.availability, full.availability);
        assert_eq!(degraded.alternatives.len(), full.alternatives.len());
        assert!(!degraded.alternatives.is_empty());
        // ...and every degraded alternative is bit-identical to a
        // standalone Baseline2 solve over the same catalog.
        for alternative in &degraded.alternatives {
            let expected = AdparBaseline2.solve(&AdparProblem::with_catalog(
                &requests[alternative.request_index],
                &catalog,
                layer.config.k,
            ));
            assert_eq!(alternative.solution, expected);
        }
        // Full service over the pristine catalog equals the slice path.
        let sliced = layer
            .process_batch(&requests, catalog.strategies(), &models, &availability)
            .unwrap();
        assert_eq!(sliced, full);
    }

    #[test]
    fn zero_availability_pushes_everything_to_adpar() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let models = crate::examples_data::running_example_models();
        let layer = StratRec::new(StratRecConfig {
            k: 3,
            objective: BatchObjective::Payoff,
            aggregation: AggregationMode::Max,
        });
        let report = layer
            .process_batch(&requests, &strategies, &models, &pdf(0.0))
            .unwrap();
        assert!(report.batch.satisfied.is_empty());
        assert_eq!(report.alternatives.len(), 3);
    }
}
