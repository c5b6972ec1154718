//! The StratRec middle layer (paper Figure 1, §2.2).
//!
//! [`StratRec`] wires the two modules together: the **Aggregator**
//! ([`BatchStrat`]) triages a batch of deployment requests against worker
//! availability and recommends `k` strategies for each satisfied request;
//! every unsatisfied request is then forwarded to **ADPaR** ([`AdparExact`])
//! which recommends the closest alternative deployment parameters for which
//! `k` strategies exist.
//!
//! Both stages run over a shared [`StrategyCatalog`] and execute on a
//! [`BatchEngine`]: eligibility is an R-tree box query instead of an
//! `O(|S|)` scan per request, the workforce-matrix rows are sharded across
//! a scoped thread pool, and the independent ADPaR problems of a batch fan
//! out in parallel with one reusable solver scratch per worker. Outputs are
//! identical to the sequential scan pipeline (see
//! `tests/catalog_parity.rs`).

use serde::{Deserialize, Serialize};

use std::sync::Arc;

use crate::adpar::AdparSolution;
use crate::availability::{AvailabilityPdf, WorkerAvailability};
use crate::batch::{BatchObjective, BatchOutcome, BatchStrat};
use crate::catalog::{
    CatalogDelta, DeltaSubscription, EpochSnapshot, SnapshotReader, StrategyCatalog,
};
use crate::engine::BatchEngine;
use crate::error::StratRecError;
use crate::fairness::FairnessPolicy;
use crate::model::{DeploymentRequest, Strategy};
use crate::modeling::{ModelLibrary, StrategyModel};
use crate::workforce::{AggregationCache, AggregationMode, RequestRequirement, WorkforceMatrix};

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

/// The quality level a batch was served at. A streaming front-end under
/// backpressure can **degrade** the expensive exact ADPaR stage to the cheap
/// one-axis-at-a-time `Baseline2` solver; the Aggregator stage is identical
/// at both levels, so a degraded report differs from the full one only in
/// its [`AlternativeRecommendation`]s — and those are bit-identical to what
/// [`crate::adpar::AdparBaseline2`] computes standalone over the same
/// catalog state. Responses must carry this tag so callers can tell a
/// degraded answer from a full one; degradation is never silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ServiceQuality {
    /// The normal pipeline: exact ADPaR for every unsatisfied request.
    #[default]
    Full,
    /// The overload pipeline: `Baseline2` alternatives, same Aggregator.
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

    /// Replaces the batch engine (e.g. [`BatchEngine::sequential`] for
    /// differential testing or a thread cap for co-tenanted services).
    #[must_use]
    pub fn with_engine(mut self, engine: BatchEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Aggregates `matrix` over the configured `k` and aggregation mode.
    fn aggregate_matrix(&self, matrix: &WorkforceMatrix) -> Vec<Option<RequestRequirement>> {
        matrix.aggregate(self.config.k, self.config.aggregation)
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
    /// catalog once and use [`Self::process_batch_with_catalog`].
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
        let catalog = StrategyCatalog::from_slice(strategies);
        self.process_batch_with_catalog(requests, &catalog, models, availability)
    }

    /// Processes a batch over a shared, pre-indexed [`StrategyCatalog`] on
    /// the configured [`BatchEngine`]: the Aggregator answers eligibility
    /// through the catalog's R-tree with the workforce-matrix rows sharded
    /// across scoped threads, and the unsatisfied requests fan out to ADPaR
    /// in parallel with one reusable solver scratch per worker. Results are
    /// identical to the sequential scan pipeline and deterministic
    /// regardless of thread count.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a catalog strategy has
    /// no fitted model in `models`.
    pub fn process_batch_with_catalog(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        availability: &AvailabilityPdf,
    ) -> Result<StratRecReport, StratRecError> {
        self.process_batch_with_catalog_at(
            requests,
            catalog,
            models,
            availability,
            ServiceQuality::Full,
        )
    }

    /// [`Self::process_batch_with_catalog`] at an explicit
    /// [`ServiceQuality`]: `Full` is the ordinary pipeline, `Degraded`
    /// answers every unsatisfied request with the cheap `Baseline2` solver
    /// instead of exact ADPaR. The Aggregator stage is identical at both
    /// levels, and the degraded alternatives are bit-identical to standalone
    /// [`crate::adpar::AdparBaseline2`] solves over the same catalog. This
    /// is the call a streaming front-end serves each admission window with,
    /// and the reference every served answer is pinned against.
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
        let matrix = self.engine.workforce_matrix(
            requests,
            catalog,
            models,
            self.aggregator().eligibility,
        )?;
        let requirements = self.aggregate_matrix(&matrix);
        Ok(self.plan(requests, catalog, &requirements, availability, quality))
    }

    /// The stages after aggregation, shared by every entry point: the
    /// Aggregator's selection over `requirements`, then the ADPaR fan-out
    /// for each unsatisfied request — exact solves at
    /// [`ServiceQuality::Full`], `Baseline2` solves at
    /// [`ServiceQuality::Degraded`]. Everything upstream (matrix,
    /// aggregation) is quality-independent.
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

    /// Processes a **standing** batch of deployment requests across catalog
    /// churn epochs, maintaining the workforce matrix and its aggregation
    /// **incrementally** through `session` instead of recomputing them per
    /// call.
    ///
    /// The first call computes everything from scratch and registers a
    /// [`DeltaSubscription`] with the catalog; every later call drains the
    /// churn since the previous one ([`StrategyCatalog::take_delta`]),
    /// recomputes only the inserted-slot columns
    /// ([`BatchEngine::apply_matrix_delta`], sharded across the engine's
    /// threads), writes `∞` into retired columns in place, and repairs only
    /// the aggregation rows the churn can have moved
    /// ([`AggregationCache::repair`]) — epoch maintenance proportional to
    /// the churn rather than to `n · |S|`. The report is **identical** to
    /// [`Self::process_batch_with_catalog`] over the same catalog state
    /// (pinned by tests here and by the workload churn suite); the
    /// steady-state epoch allocates nothing for model collection (the
    /// session reuses one model buffer).
    ///
    /// Reuse is keyed on content: the session remembers the requests it was
    /// primed for and re-primes with a full compute whenever `requests`
    /// differ from them, or `k` or the aggregation mode changed. One session
    /// follows one catalog; call [`StratRecSession::detach`] before moving it
    /// to another.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a live catalog strategy
    /// (full compute) or an inserted live slot (incremental path) has no
    /// fitted model. On any error the session detaches itself, so the next
    /// call recovers with a full recompute.
    pub fn process_batch_with_session(
        &self,
        requests: &[DeploymentRequest],
        catalog: &mut StrategyCatalog,
        models: &ModelLibrary,
        availability: &AvailabilityPdf,
        session: &mut StratRecSession,
    ) -> Result<StratRecReport, StratRecError> {
        // A stale handle (the session's tracker was evicted after lapsing,
        // or the session was moved across catalogs without a detach) fails
        // typed: release it and re-prime under a fresh subscription instead
        // of mis-applying another subscriber's window.
        let delta = session.subscription.and_then(|subscription| {
            let delta = catalog.take_delta(&subscription).ok();
            if delta.is_none() {
                catalog.unsubscribe_delta(subscription);
                session.subscription = None;
            }
            delta
        });
        if let Err(error) = self.sync_session(requests, catalog, delta, models, session) {
            session.detach(catalog);
            return Err(error);
        }
        if session.subscription.is_none() {
            // Subscribe *after* the compute: both observe the same epoch
            // (the caller holds the catalog exclusively throughout).
            session.subscription = Some(catalog.subscribe_delta());
        }
        Ok(self.plan(
            requests,
            catalog,
            session.requirements(),
            availability,
            ServiceQuality::Full,
        ))
    }

    /// The **concurrent** counterpart of [`Self::process_batch_with_session`]:
    /// serves a standing batch from the [`EpochSnapshot`]s a
    /// [`ConcurrentCatalog`](crate::catalog::ConcurrentCatalog) publishes,
    /// while a writer thread keeps churning. Each call first migrates
    /// `reader` to the latest published snapshot
    /// ([`SnapshotReader::migrate`] — the only moment any lock is touched),
    /// folds the drained [`CatalogDelta`] into the session exactly like the
    /// sequential delta path, then plans the batch **entirely lock-free**
    /// against the pinned snapshot. The report is identical to
    /// [`Self::process_batch_with_catalog`] over the snapshot's catalog
    /// (pinned by `tests/snapshot_isolation.rs` with readers racing a
    /// churning writer), and the snapshot the report was
    /// planned against is returned alongside it so callers can attribute
    /// the answer to its epoch.
    ///
    /// The reader owns the subscription (and releases it on drop); the
    /// session holds only derived state. A reader evicted for lapsing past
    /// the catalog's delta-lapse limit re-pins and recomputes from scratch
    /// instead of failing, and any error resets the session so the next
    /// call re-primes. A session still holding a catalog-side subscription
    /// was primed through [`Self::process_batch_with_session`] on another
    /// catalog, so it re-primes too and drops that handle; the abandoned
    /// tracker lapses out of its catalog unless the session was
    /// [detached](StratRecSession::detach) first.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a live strategy of the
    /// pinned snapshot (full compute) or an inserted live slot (delta path)
    /// has no fitted model in `models`.
    pub fn process_batch_with_reader(
        &self,
        requests: &[DeploymentRequest],
        reader: &mut SnapshotReader,
        models: &ModelLibrary,
        availability: &AvailabilityPdf,
        session: &mut StratRecSession,
    ) -> Result<(StratRecReport, Arc<EpochSnapshot>), StratRecError> {
        // An evicted reader fails the migration typed (StaleSubscription):
        // re-pin and re-prime instead of serving from a torn delta window.
        let migrated = reader.migrate().ok();
        let snapshot = match migrated {
            Some(_) => Arc::clone(reader.pinned()),
            None => reader.re_pin(),
        };
        // The reader's delta continues this reader's window, not the one
        // a catalog-side subscription tracked.
        let primed_on_a_catalog = session.subscription.take().is_some();
        let delta = migrated.filter(|_| !primed_on_a_catalog);
        if let Err(error) = self.sync_session(requests, snapshot.catalog(), delta, models, session)
        {
            session.reset();
            return Err(error);
        }
        let report = self.plan(
            requests,
            snapshot.catalog(),
            session.requirements(),
            availability,
            ServiceQuality::Full,
        );
        Ok((report, snapshot))
    }

    /// Brings `session` to `catalog`'s state. `delta` is the churn since the
    /// session's previous call, drawn by the caller from its delta source,
    /// or `None` when the source had none to give (first call, stale or
    /// evicted subscription). The delta is applied only when the session
    /// was primed for exactly these requests under the current
    /// configuration; anything else re-primes with a full compute, which
    /// supersedes the delta.
    fn sync_session(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        delta: Option<CatalogDelta>,
        models: &ModelLibrary,
        session: &mut StratRecSession,
    ) -> Result<(), StratRecError> {
        let eligibility = self.aggregator().eligibility;
        if let (Some(delta), Some(matrix), Some(cache)) =
            (delta, session.matrix.as_mut(), session.cache.as_mut())
        {
            if session.primed == requests
                && cache.k() == self.config.k
                && cache.mode() == self.config.aggregation
            {
                session.last_repaired_rows = if delta.is_empty() {
                    0
                } else {
                    self.engine.apply_matrix_delta(
                        matrix,
                        &delta,
                        requests,
                        catalog,
                        models,
                        eligibility,
                        &mut session.model_buf,
                    )?;
                    cache.repair(matrix, &delta)
                };
                return Ok(());
            }
        }
        session.cache = None;
        session.primed.clear();
        // Refill into the stale matrix when the session still holds one:
        // a full recompute either way, but the tens-of-megabytes cell
        // allocation survives re-primes.
        let mut matrix = session
            .matrix
            .take()
            .unwrap_or_else(|| WorkforceMatrix::from_cells(0, 0, Vec::new()));
        self.engine.refill_workforce_matrix(
            requests,
            catalog,
            models,
            eligibility,
            &mut matrix,
            &mut session.model_buf,
        )?;
        let mut cache = AggregationCache::new(self.config.k, self.config.aggregation);
        cache.prime(&matrix);
        session.cache = Some(cache);
        session.last_repaired_rows = matrix.rows();
        session.matrix = Some(matrix);
        session.primed.extend_from_slice(requests);
        Ok(())
    }

    /// Serves one batch **per tenant** over a shared catalog and one shared
    /// availability budget, divided by `policy` ([`FairnessPolicy::split`]):
    /// every tenant's aggregate demand is computed first, the budget is split into per-tenant grants —
    /// floors before weighted residual, so a tenant flooding the queue can
    /// never starve another below its floor — and each tenant's Aggregator
    /// then selects against **its own grant** instead of the whole pool.
    ///
    /// Outcomes come back in tenant order and are deterministic: the split
    /// is a pure function of `(policy, budget, demands)` and each per-tenant
    /// selection is the ordinary [`BatchStrat::select`].
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::InvalidFairnessPolicy`] when `policy` does
    /// not name exactly one share per tenant batch, and
    /// [`StratRecError::MissingModel`] as the single-tenant paths do.
    pub fn process_tenant_batches(
        &self,
        batches: &[&[DeploymentRequest]],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        availability: &AvailabilityPdf,
        policy: &FairnessPolicy,
    ) -> Result<Vec<TenantOutcome>, StratRecError> {
        if policy.tenant_count() != batches.len() {
            return Err(StratRecError::InvalidFairnessPolicy(format!(
                "policy names {} tenants but {} batches were submitted",
                policy.tenant_count(),
                batches.len()
            )));
        }
        let budget = availability.expectation().value();
        let aggregator = self.aggregator();
        let mut requirements: Vec<Vec<Option<RequestRequirement>>> =
            Vec::with_capacity(batches.len());
        for batch in batches {
            let matrix =
                self.engine
                    .workforce_matrix(batch, catalog, models, aggregator.eligibility)?;
            requirements.push(self.aggregate_matrix(&matrix));
        }
        let demands: Vec<f64> = requirements
            .iter()
            .map(|reqs| {
                reqs.iter()
                    .flatten()
                    .map(|requirement| requirement.workforce)
                    .filter(|workforce| workforce.is_finite())
                    .sum()
            })
            .collect();
        let grants = policy.split(budget, &demands);
        batches
            .iter()
            .zip(requirements.iter().zip(demands.iter().zip(grants)))
            .enumerate()
            .map(|(tenant, (batch, (reqs, (&demand, grant))))| {
                let granted = WorkerAvailability::new(grant)?;
                let outcome = aggregator.select(batch, reqs, granted);
                Ok(TenantOutcome {
                    tenant,
                    demand,
                    granted,
                    batch: outcome,
                })
            })
            .collect()
    }
}

/// One tenant's result from [`StratRec::process_tenant_batches`]: what it
/// asked for, what the [`FairnessPolicy`] granted it, and the Aggregator's
/// selection under that grant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Index of the tenant in the submitted batch list (and in the
    /// policy's share list).
    pub tenant: usize,
    /// The tenant's aggregate workforce demand: the sum of its feasible
    /// requests' requirements.
    pub demand: f64,
    /// The availability budget the fairness split granted this tenant.
    pub granted: WorkerAvailability,
    /// The Aggregator's outcome for the tenant's batch under its grant.
    pub batch: BatchOutcome,
}

/// Reusable cross-epoch state for [`StratRec::process_batch_with_session`]
/// and [`StratRec::process_batch_with_reader`]: the delta-maintained
/// workforce matrix, the lazily repaired aggregation cache, the requests
/// they were computed for, and the model collection buffer — everything
/// an incremental serving loop holds between catalog churn epochs. On the
/// catalog path the session also owns its [`DeltaSubscription`]; on the
/// reader path the [`SnapshotReader`] owns it instead.
///
/// Cached state is reused only for the exact requests it was primed for,
/// so any batch may be passed on any call: a changed batch re-primes.
///
/// Deliberately **not** `Clone`: a clone would share the original's
/// subscription id, and whichever copy drained the catalog first would
/// silently corrupt the other's delta window. One session per delta
/// source; create a fresh one instead of cloning.
#[derive(Debug, Default)]
pub struct StratRecSession {
    matrix: Option<WorkforceMatrix>,
    cache: Option<AggregationCache>,
    primed: Vec<DeploymentRequest>,
    subscription: Option<DeltaSubscription>,
    model_buf: Vec<Option<StrategyModel>>,
    last_repaired_rows: usize,
}

impl StratRecSession {
    /// An empty session; the first call through it initializes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The delta-maintained workforce matrix, once initialized.
    #[must_use]
    pub fn matrix(&self) -> Option<&WorkforceMatrix> {
        self.matrix.as_ref()
    }

    /// How many aggregation rows the most recent call re-aggregated: the
    /// full row count on (re-)initialization, then only the churn-affected
    /// rows — the observable "work proportional to churn" signal.
    #[must_use]
    pub fn last_repaired_rows(&self) -> usize {
        self.last_repaired_rows
    }

    /// Drops the derived state so the next call recomputes from scratch.
    /// A catalog-side subscription is kept (and drained on re-init); use
    /// [`Self::detach`] when the catalog is available to release it too.
    pub fn reset(&mut self) {
        self.matrix = None;
        self.cache = None;
    }

    /// [`Self::reset`] plus releasing the session's subscription from
    /// `catalog` — the clean way to retire a session or to move it to a
    /// different catalog.
    pub fn detach(&mut self, catalog: &mut StrategyCatalog) {
        if let Some(subscription) = self.subscription.take() {
            catalog.unsubscribe_delta(subscription);
        }
        self.reset();
    }

    /// The primed requirements; only called after a successful sync.
    fn requirements(&self) -> &[Option<RequestRequirement>] {
        self.cache
            .as_ref()
            .expect("a synced session holds a cache")
            .requirements()
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

    fn session_fixture() -> (
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

    use crate::catalog::StrategyCatalog;
    use crate::model::Strategy;

    fn fixture_strategy(id: u64) -> Strategy {
        Strategy::from_params(
            id,
            crate::model::DeploymentParameters::clamped(
                0.4 + (id as f64 * 0.13) % 0.5,
                0.25 + (id as f64 * 0.17) % 0.6,
                0.2 + (id as f64 * 0.23) % 0.6,
            ),
        )
    }

    fn fixture_model(id: u64) -> crate::modeling::StrategyModel {
        let alpha = 0.45 + (id % 35) as f64 / 100.0;
        crate::modeling::StrategyModel::uniform(alpha, 1.0 - alpha)
    }

    /// The two delta sources a session can be served from, behind one test
    /// harness: the catalog's own subscription
    /// ([`StratRec::process_batch_with_session`]) and a reader of a
    /// concurrent catalog ([`StratRec::process_batch_with_reader`]).
    enum Source {
        Catalog(Box<StrategyCatalog>),
        Reader(crate::catalog::ConcurrentCatalog, Option<SnapshotReader>),
    }

    impl Source {
        /// Both sources over the session fixture's catalog, with the given
        /// delta-lapse limit.
        fn both(lapse_limit: u64) -> [Self; 2] {
            let catalog = || {
                let mut catalog = session_fixture().0;
                catalog.set_delta_lapse_limit(lapse_limit);
                catalog
            };
            let concurrent = crate::catalog::ConcurrentCatalog::new(catalog());
            let reader = concurrent.reader();
            [
                Self::Catalog(Box::new(catalog())),
                Self::Reader(concurrent, Some(reader)),
            ]
        }

        fn name(&self) -> &'static str {
            match self {
                Self::Catalog(_) => "catalog",
                Self::Reader(..) => "reader",
            }
        }

        /// Runs one churn epoch on the source's catalog.
        fn churn(&mut self, f: impl FnOnce(&mut StrategyCatalog)) {
            match self {
                Self::Catalog(catalog) => f(catalog),
                Self::Reader(concurrent, _) => {
                    concurrent.update(f);
                }
            }
        }

        fn serve(
            &mut self,
            layer: &StratRec,
            requests: &[DeploymentRequest],
            models: &ModelLibrary,
            availability: &AvailabilityPdf,
            session: &mut StratRecSession,
        ) -> Result<StratRecReport, StratRecError> {
            match self {
                Self::Catalog(catalog) => layer.process_batch_with_session(
                    requests,
                    catalog,
                    models,
                    availability,
                    session,
                ),
                Self::Reader(concurrent, reader) => {
                    let reader = reader.as_mut().expect("the reader is live");
                    let (report, snapshot) = layer.process_batch_with_reader(
                        requests,
                        reader,
                        models,
                        availability,
                        session,
                    )?;
                    assert_eq!(snapshot.epoch(), concurrent.epoch(), "no writer races");
                    Ok(report)
                }
            }
        }

        /// The catalog state the last serve was planned against.
        fn catalog(&self) -> &StrategyCatalog {
            match self {
                Self::Catalog(catalog) => catalog,
                Self::Reader(_, reader) => reader.as_ref().expect("the reader is live").pinned(),
            }
        }

        /// A fresh sequential pipeline over [`Self::catalog`].
        fn reference(
            &self,
            layer: &StratRec,
            requests: &[DeploymentRequest],
            models: &ModelLibrary,
            availability: &AvailabilityPdf,
        ) -> StratRecReport {
            layer
                .process_batch_with_catalog(requests, self.catalog(), models, availability)
                .unwrap()
        }

        /// Live delta subscriptions and lapse evictions on the writer side.
        fn subscriptions(&self) -> (usize, u64) {
            match self {
                Self::Catalog(catalog) => {
                    (catalog.delta_subscriber_count(), catalog.delta_evictions())
                }
                Self::Reader(concurrent, _) => {
                    let stats = concurrent.stats();
                    (stats.subscribers, stats.delta_evictions)
                }
            }
        }

        /// Retires the session's subscription: detach, or drop the reader.
        fn release(&mut self, session: &mut StratRecSession) {
            match self {
                Self::Catalog(catalog) => session.detach(catalog),
                Self::Reader(_, reader) => *reader = None,
            }
        }
    }

    #[test]
    fn sessions_match_the_per_epoch_full_pipeline_from_both_delta_sources() {
        let (_, mut models, requests, availability) = session_fixture();
        let layer = StratRec::default().with_engine(BatchEngine::with_threads(2));
        let mut next_id = 18_u64;
        for mut source in Source::both(4096) {
            let name = source.name();
            let mut session = StratRecSession::new();
            for epoch in 0..6 {
                if epoch > 0 {
                    // Churn between batches: two inserts, two retirements,
                    // and a mid-stream compaction at epoch 3.
                    let inserted: Vec<Strategy> =
                        (0..2).map(|i| fixture_strategy(next_id + i)).collect();
                    next_id += 2;
                    for strategy in &inserted {
                        models.insert(strategy.id, fixture_model(strategy.id.0));
                    }
                    source.churn(|catalog| {
                        for strategy in inserted {
                            catalog.insert(strategy);
                        }
                        let live = catalog.live_indices();
                        assert!(catalog.retire(live[epoch % live.len()]));
                        assert!(catalog.retire(live[(epoch * 3 + 1) % live.len()]));
                        if epoch == 3 {
                            catalog.compact();
                        }
                    });
                }
                let report = source
                    .serve(&layer, &requests, &models, &availability, &mut session)
                    .unwrap();
                let full = source.reference(&layer, &requests, &models, &availability);
                assert_eq!(report, full, "{name}, epoch {epoch}");
                if epoch == 0 {
                    assert_eq!(session.last_repaired_rows(), requests.len());
                } else {
                    assert!(session.last_repaired_rows() <= requests.len());
                }
                assert_eq!(
                    session.matrix().unwrap().cols(),
                    source.catalog().slot_count(),
                    "{name}, epoch {epoch}"
                );
            }
            assert_eq!(source.subscriptions(), (1, 0), "{name}");
            source.release(&mut session);
            assert_eq!(source.subscriptions().0, 0, "{name}");
        }
    }

    /// Reuse is keyed on content: a batch of the same length as the primed
    /// one but with other requests (here reordered, or one request swapped
    /// for another) re-primes, and only the exact primed batch takes the
    /// delta path.
    #[test]
    fn sessions_reuse_state_only_for_the_requests_they_were_primed_for() {
        let (_, mut models, requests, availability) = session_fixture();
        let reversed: Vec<DeploymentRequest> = requests.iter().rev().cloned().collect();
        let mut swapped = requests.clone();
        swapped[2] = DeploymentRequest::new(
            7,
            crate::model::TaskType::SentenceTranslation,
            crate::model::DeploymentParameters::clamped(0.95, 0.1, 0.1),
        );
        let layer = StratRec::default();
        for mut source in Source::both(4096) {
            let name = source.name();
            let mut session = StratRecSession::new();
            let mut primed: Option<&Vec<DeploymentRequest>> = None;
            for (step, (batch, churn)) in [
                (&requests, false),
                (&reversed, false),
                (&reversed, false),
                (&swapped, true),
                (&swapped, true),
                (&requests, false),
            ]
            .into_iter()
            .enumerate()
            {
                if churn {
                    let strategy = fixture_strategy(200 + step as u64);
                    models.insert(strategy.id, fixture_model(strategy.id.0));
                    source.churn(|catalog| {
                        catalog.insert(strategy);
                    });
                }
                let report = source
                    .serve(&layer, batch, &models, &availability, &mut session)
                    .unwrap();
                let reference = source.reference(&layer, batch, &models, &availability);
                assert_eq!(report, reference, "{name}, step {step}");
                let expected_rows = match (primed == Some(batch), churn) {
                    (false, _) => Some(batch.len()),
                    (true, false) => Some(0),
                    (true, true) => None,
                };
                if let Some(rows) = expected_rows {
                    assert_eq!(session.last_repaired_rows(), rows, "{name}, step {step}");
                }
                primed = Some(batch);
            }
            assert_eq!(source.subscriptions(), (1, 0), "{name}");
        }
    }

    #[test]
    fn sessions_reprime_on_batch_shape_or_config_changes() {
        let (_, models, requests, availability) = session_fixture();
        let layer = StratRec::default();
        let stricter = StratRec::new(StratRecConfig {
            k: 5,
            ..StratRecConfig::default()
        });
        let shorter = &requests[..3];
        for mut source in Source::both(4096) {
            let name = source.name();
            let mut session = StratRecSession::new();
            source
                .serve(&layer, &requests, &models, &availability, &mut session)
                .unwrap();
            // A shorter standing batch re-primes instead of mis-applying
            // deltas; a changed k re-primes too. Neither publishes a
            // subscription: the standing one is drained and kept.
            for (layer, batch) in [(&layer, shorter), (&stricter, shorter)] {
                let report = source
                    .serve(layer, batch, &models, &availability, &mut session)
                    .unwrap();
                assert_eq!(session.last_repaired_rows(), batch.len(), "{name}");
                let reference = source.reference(layer, batch, &models, &availability);
                assert_eq!(report, reference, "{name}");
                assert_eq!(source.subscriptions(), (1, 0), "{name}");
            }
        }
    }

    #[test]
    fn sessions_recover_with_a_full_recompute_after_an_error() {
        let layer = StratRec::default();
        for mut source in Source::both(4096) {
            let (_, mut models, requests, availability) = session_fixture();
            let name = source.name();
            let mut session = StratRecSession::new();
            source
                .serve(&layer, &requests, &models, &availability, &mut session)
                .unwrap();
            // An insert without a model fails the incremental epoch...
            let orphan = fixture_strategy(900);
            let inserted = orphan.clone();
            source.churn(|catalog| {
                catalog.insert(inserted);
            });
            assert!(matches!(
                source.serve(&layer, &requests, &models, &availability, &mut session),
                Err(StratRecError::MissingModel { strategy: 900 })
            ));
            assert!(
                session.matrix().is_none(),
                "{name}: errors reset the session"
            );
            if let Source::Catalog(_) = source {
                assert_eq!(source.subscriptions().0, 0, "errors detach");
            }
            // ...and once the model arrives, the session rebuilds from
            // scratch and agrees with the full pipeline again.
            models.insert(orphan.id, fixture_model(900));
            let report = source
                .serve(&layer, &requests, &models, &availability, &mut session)
                .unwrap();
            let reference = source.reference(&layer, &requests, &models, &availability);
            assert_eq!(report, reference, "{name}");
            assert_eq!(session.last_repaired_rows(), requests.len(), "{name}");
            assert_eq!(source.subscriptions().0, 1, "{name}");
        }
    }

    /// A session whose tracker was evicted for lapsing keeps working: the
    /// stale handle (or the evicted reader's migration) fails typed inside
    /// the entry point, which falls back to a full recompute under one
    /// fresh subscription.
    #[test]
    fn sessions_survive_delta_tracker_eviction() {
        let (_, mut models, requests, availability) = session_fixture();
        let layer = StratRec::default();
        for mut source in Source::both(8) {
            let name = source.name();
            let mut session = StratRecSession::new();
            source
                .serve(&layer, &requests, &models, &availability, &mut session)
                .unwrap();
            // Stall the session far past the lapse limit.
            for i in 0..20_u64 {
                let strategy = fixture_strategy(300 + i);
                models.insert(strategy.id, fixture_model(300 + i));
                source.churn(|catalog| {
                    catalog.insert(strategy);
                });
            }
            assert_eq!(source.subscriptions(), (0, 1), "{name}: the tracker lapsed");
            let report = source
                .serve(&layer, &requests, &models, &availability, &mut session)
                .unwrap();
            assert_eq!(
                session.last_repaired_rows(),
                requests.len(),
                "{name}: full re-prime"
            );
            let reference = source.reference(&layer, &requests, &models, &availability);
            assert_eq!(report, reference, "{name}");
            assert_eq!(
                source.subscriptions(),
                (1, 1),
                "{name}: one live re-subscription"
            );
        }
    }

    /// A session primed on a catalog and then handed to a reader of another
    /// catalog re-primes instead of applying the reader's delta to a matrix
    /// built from the first catalog. It drops the catalog-side handle, whose
    /// tracker lapses out of that catalog, and follows the reader from then
    /// on.
    #[test]
    fn a_session_moved_from_a_catalog_to_a_reader_reprimes() {
        let (_, mut models, requests, availability) = session_fixture();
        let layer = StratRec::default();
        let [mut on_catalog, mut on_reader] = Source::both(8);
        let mut session = StratRecSession::new();
        // The two catalogs diverge: the first gains two strategies, the
        // second loses one after its reader pinned.
        for id in [400, 401] {
            let strategy = fixture_strategy(id);
            models.insert(strategy.id, fixture_model(id));
            on_catalog
                .serve(&layer, &requests, &models, &availability, &mut session)
                .unwrap();
            on_catalog.churn(|catalog| {
                catalog.insert(strategy);
            });
        }
        on_catalog
            .serve(&layer, &requests, &models, &availability, &mut session)
            .unwrap();
        on_reader.churn(|catalog| {
            let live = catalog.live_indices();
            assert!(catalog.retire(live[0]));
        });
        let report = on_reader
            .serve(&layer, &requests, &models, &availability, &mut session)
            .unwrap();
        assert_eq!(
            report,
            on_reader.reference(&layer, &requests, &models, &availability)
        );
        assert_eq!(session.last_repaired_rows(), requests.len(), "re-primed");
        assert_eq!(
            session.matrix().unwrap().cols(),
            on_reader.catalog().slot_count()
        );
        // The abandoned tracker lapses out of the first catalog.
        assert_eq!(on_catalog.subscriptions(), (1, 0));
        for id in 410..430 {
            let strategy = fixture_strategy(id);
            models.insert(strategy.id, fixture_model(id));
            on_catalog.churn(|catalog| {
                catalog.insert(strategy);
            });
        }
        assert_eq!(on_catalog.subscriptions(), (0, 1));
        // The reader's next window continues on the delta path.
        let report = on_reader
            .serve(&layer, &requests, &models, &availability, &mut session)
            .unwrap();
        assert_eq!(
            report,
            on_reader.reference(&layer, &requests, &models, &availability)
        );
        assert_eq!(session.last_repaired_rows(), 0, "nothing to repair");
        assert_eq!(on_reader.subscriptions(), (1, 0));
    }

    /// The detach-on-error audit: every error exit of
    /// `process_batch_with_session` releases the catalog-side subscription,
    /// and the stale handle the session dropped can never drain a newer
    /// subscriber that recycled the same id.
    #[test]
    fn every_session_error_exit_releases_the_subscription() {
        let (mut catalog, mut models, requests, availability) = session_fixture();
        let layer = StratRec::default();

        // Error on the *priming* path: a live strategy with no model fails
        // the very first call — no subscription may survive it.
        let orphan_a = fixture_strategy(901);
        catalog.insert(orphan_a.clone());
        let mut session = StratRecSession::new();
        assert!(layer
            .process_batch_with_session(
                &requests,
                &mut catalog,
                &models,
                &availability,
                &mut session,
            )
            .is_err());
        assert_eq!(catalog.delta_subscriber_count(), 0, "prime error detaches");

        // Error on the *delta* path: prime successfully, then churn in a
        // modelless insert.
        models.insert(orphan_a.id, fixture_model(901));
        layer
            .process_batch_with_session(
                &requests,
                &mut catalog,
                &models,
                &availability,
                &mut session,
            )
            .unwrap();
        assert_eq!(catalog.delta_subscriber_count(), 1);
        let orphan_b = fixture_strategy(902);
        catalog.insert(orphan_b.clone());
        assert!(layer
            .process_batch_with_session(
                &requests,
                &mut catalog,
                &models,
                &availability,
                &mut session,
            )
            .is_err());
        assert_eq!(catalog.delta_subscriber_count(), 0, "delta error detaches");

        // The freed id is recycled by a second session. The errored session
        // recovers with a full recompute + fresh generation-tagged handle —
        // and both coexist without draining each other's windows.
        models.insert(orphan_b.id, fixture_model(902));
        let mut second = StratRecSession::new();
        layer
            .process_batch_with_session(
                &requests,
                &mut catalog,
                &models,
                &availability,
                &mut second,
            )
            .unwrap();
        layer
            .process_batch_with_session(
                &requests,
                &mut catalog,
                &models,
                &availability,
                &mut session,
            )
            .unwrap();
        assert_eq!(catalog.delta_subscriber_count(), 2);
        let extra = fixture_strategy(903);
        models.insert(extra.id, fixture_model(903));
        catalog.insert(extra.clone());
        let full = layer
            .process_batch_with_catalog(&requests, &catalog, &models, &availability)
            .unwrap();
        for s in [&mut second, &mut session] {
            let report = layer
                .process_batch_with_session(&requests, &mut catalog, &models, &availability, s)
                .unwrap();
            assert_eq!(report, full, "both sessions absorb the same delta once");
        }
        session.detach(&mut catalog);
        second.detach(&mut catalog);
        assert_eq!(catalog.delta_subscriber_count(), 0);
    }

    #[test]
    fn degraded_reports_swap_only_the_adpar_stage() {
        use crate::adpar::{AdparBaseline2, AdparProblem, AdparSolver};
        let (catalog, models, requests, _) = session_fixture();
        // Zero availability pushes every request to ADPaR, so the degraded
        // fan-out has maximal surface to diverge on.
        let availability = pdf(0.0);
        let layer = StratRec::default();
        let full = layer
            .process_batch_with_catalog(&requests, &catalog, &models, &availability)
            .unwrap();
        let degraded = layer
            .process_batch_with_catalog_at(
                &requests,
                &catalog,
                &models,
                &availability,
                ServiceQuality::Degraded,
            )
            .unwrap();
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
        // Full at the explicit quality equals the implicit-quality method.
        let explicit = layer
            .process_batch_with_catalog_at(
                &requests,
                &catalog,
                &models,
                &availability,
                ServiceQuality::Full,
            )
            .unwrap();
        assert_eq!(explicit, full);
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

    #[test]
    fn tenant_batches_split_the_budget_and_honor_floors() {
        use crate::fairness::{FairnessPolicy, TenantShare};
        let (catalog, models, requests, availability) = session_fixture();
        // Tenant 0 floods the queue with 10× the volume of tenants 1 and 2.
        let heavy: Vec<DeploymentRequest> = (0..10).flat_map(|_| requests.clone()).collect();
        let light_a = requests.clone();
        let light_b = &requests[..3];
        let policy = FairnessPolicy::new(vec![
            TenantShare::new(0.2, 1.0),
            TenantShare::new(0.2, 1.0),
            TenantShare::new(0.2, 1.0),
        ])
        .unwrap();
        let layer = StratRec::default();
        let outcomes = layer
            .process_tenant_batches(
                &[&heavy, &light_a, light_b],
                &catalog,
                &models,
                &availability,
                &policy,
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        let budget = availability.expectation().value();
        let total: f64 = outcomes.iter().map(|o| o.granted.value()).sum();
        assert!(total <= budget + 1e-12);
        for outcome in &outcomes[1..] {
            // The heavy tenant must never push a light one below its
            // floor (a tenant demanding less than the floor is simply
            // satisfied in full).
            let entitled = (0.2 * budget).min(outcome.demand);
            assert!(
                outcome.granted.value() >= entitled - 1e-12,
                "tenant {} got {} under its entitlement {}",
                outcome.tenant,
                outcome.granted.value(),
                entitled
            );
        }
        // Each tenant's selection is exactly the Aggregator under its
        // own grant.
        let aggregator = BatchStrat::new(layer.config.objective, layer.config.aggregation);
        let matrix = layer
            .engine
            .workforce_matrix(&light_a, &catalog, &models, aggregator.eligibility)
            .unwrap();
        let requirements = matrix.aggregate(layer.config.k, layer.config.aggregation);
        let expected = aggregator.select(&light_a, &requirements, outcomes[1].granted);
        assert_eq!(outcomes[1].batch, expected);
        // Arity mismatches fail typed.
        assert!(matches!(
            StratRec::default().process_tenant_batches(
                &[&heavy],
                &catalog,
                &models,
                &availability,
                &policy
            ),
            Err(StratRecError::InvalidFairnessPolicy(_))
        ));
    }
}
