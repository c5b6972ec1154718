//! The parallel batch engine: row-sharded workforce matrices and ADPaR
//! fan-out over a shared [`StrategyCatalog`].
//!
//! The paper's hot path is *Aggregator → workforce matrix → ADPaR fan-out*.
//! Both halves are embarrassingly parallel — workforce-matrix rows are
//! independent per request, and every unsatisfied request becomes an
//! independent ADPaR problem — yet the seed ran the matrix sequentially and
//! scattered ad-hoc scoped threads through `StratRec` for the fan-out. A
//! [`BatchEngine`] centralizes that parallelism:
//!
//! * [`BatchEngine::workforce_matrix`] shards the `m` matrix rows across a
//!   scoped thread pool in contiguous row chunks. Each thread owns a
//!   disjoint `&mut` slice of the row-major cell buffer, so no
//!   synchronization is needed and the output is **byte-identical** to the
//!   sequential [`WorkforceMatrix::compute_with_catalog`] regardless of
//!   thread count.
//! * [`BatchEngine::solve_adpar_batch`] fans a batch of unsatisfied
//!   requests out to [`AdparExact`] with one reusable
//!   [`SolveScratch`](crate::adpar::SolveScratch) **and** one reused
//!   relaxation buffer per worker thread
//!   ([`AdparProblem::with_catalog_reusing`]), so the steady state
//!   allocates nothing per problem beyond the returned solution. Results
//!   come back in input order.
//!
//! Determinism is a hard guarantee, not a best effort: every work item is
//! pure (it reads the shared catalog and writes only its own output slot),
//! so chunking changes wall-clock time but never a single output bit. The
//! parity suites in `tests/catalog_parity.rs` pin the engine against the
//! sequential paths.

use serde::{Deserialize, Serialize};

use crate::adpar::{
    AdparBaseline2, AdparExact, AdparProblem, AdparSolution, AdparSolver, SolveScratch,
};
use crate::catalog::{CatalogDelta, StrategyCatalog};
use crate::error::StratRecError;
use crate::model::DeploymentRequest;
use crate::modeling::{ModelLibrary, StrategyModel};
use crate::workforce::{self, EligibilityRule, WorkforceMatrix};

/// A scoped-thread batch executor. Cheap to copy and hold inside
/// configuration structs; threads are spawned per call and joined before
/// returning, so the engine itself owns no resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BatchEngine {
    /// Worker-thread cap; `0` means "one per available core".
    threads: usize,
}

impl BatchEngine {
    /// An engine using one worker per available core.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine capped at `threads` workers (`0` = one per available
    /// core).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// An engine that always runs on the calling thread — useful for
    /// differential tests and latency-sensitive single-request callers.
    #[must_use]
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// The configured worker cap (`0` = auto).
    #[must_use]
    pub fn thread_cap(&self) -> usize {
        self.threads
    }

    /// Workers actually used for `work_items` parallel items: the cap (or
    /// core count) bounded by the number of items, at least 1.
    #[must_use]
    pub fn effective_threads(&self, work_items: usize) -> usize {
        let cap = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        };
        cap.min(work_items).max(1)
    }

    /// Computes the workforce matrix for a batch over a shared catalog,
    /// sharding rows across scoped threads. Cells are identical to the
    /// sequential [`WorkforceMatrix::compute_with_catalog`] (and therefore
    /// to the linear-scan path) for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a **live** catalog
    /// strategy has no fitted model in `models`; an empty batch never
    /// consults the model library (the sequential contract).
    pub fn workforce_matrix(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
    ) -> Result<WorkforceMatrix, StratRecError> {
        // Rows are slot-shaped: one column per catalog slot, so row width —
        // and the whole cell buffer — tracks `slot_count`, which a
        // `compact()` snaps back to `len()` (the live count). Long-lived
        // matrices follow the same compaction through
        // `WorkforceMatrix::remap_columns`.
        let cols = catalog.slot_count();
        let threads = self.effective_threads(requests.len());
        if threads < 2 || cols == 0 {
            // One worker (or nothing to shard): the sequential path IS the
            // engine's semantics, so delegate rather than duplicate it.
            return WorkforceMatrix::compute_with_catalog(requests, catalog, models, rule);
        }
        let strategy_models = workforce::collect_live_models(catalog, models)?;
        // Same start state as the sequential fill: the fill writes only
        // eligible cells, so rows start at `∞`.
        let mut cells = vec![f64::INFINITY; requests.len() * cols];
        let rows_per_chunk = requests.len().div_ceil(threads);
        let strategy_models = &strategy_models;
        std::thread::scope(|scope| {
            for (chunk_requests, chunk_cells) in requests
                .chunks(rows_per_chunk)
                .zip(cells.chunks_mut(rows_per_chunk * cols))
            {
                scope.spawn(move || {
                    for (request, row) in chunk_requests.iter().zip(chunk_cells.chunks_mut(cols)) {
                        workforce::fill_catalog_row(request, catalog, strategy_models, rule, row);
                    }
                });
            }
        });
        Ok(WorkforceMatrix::from_cells(requests.len(), cols, cells))
    }

    /// Applies a [`CatalogDelta`] to a long-lived workforce matrix
    /// ([`WorkforceMatrix::apply_delta`] semantics, bit-identical result),
    /// sharding the inserted-column model fill — the only `O(n · churn)`
    /// model-evaluation work — across scoped threads in contiguous row
    /// chunks, each thread owning a disjoint `&mut` slice of the cell
    /// buffer. The structural steps (remap, widening, retired-column `∞`
    /// writes) are pure `memmove`-class work and stay sequential. The model
    /// buffer is a reusable scratch (`workforce::collect_slot_models_into`
    /// over the inserted slots), so steady-state epochs allocate nothing for
    /// model collection.
    ///
    /// # Errors
    ///
    /// As [`WorkforceMatrix::apply_delta`]; a failed apply leaves the matrix
    /// unchanged.
    // One argument per pipeline ingredient, mirroring
    // `WorkforceMatrix::apply_delta_with_scratch`; bundling them would only
    // add a struct the two call sites immediately unpack.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_matrix_delta(
        &self,
        matrix: &mut WorkforceMatrix,
        delta: &CatalogDelta,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
        model_buf: &mut Vec<Option<StrategyModel>>,
    ) -> Result<(), StratRecError> {
        let threads = self.effective_threads(requests.len());
        if threads < 2 || delta.inserted.is_empty() {
            return matrix
                .apply_delta_with_scratch(delta, requests, catalog, models, rule, model_buf);
        }
        matrix.apply_delta_structure(delta, requests, catalog, models, model_buf)?;
        let cols = matrix.cols();
        let rows_per_chunk = requests.len().div_ceil(threads);
        let inserted = &delta.inserted;
        let inserted_models = &*model_buf;
        let cells = matrix.cells_mut();
        std::thread::scope(|scope| {
            for (chunk_requests, chunk_cells) in requests
                .chunks(rows_per_chunk)
                .zip(cells.chunks_mut(rows_per_chunk * cols))
            {
                scope.spawn(move || {
                    for (request, row) in chunk_requests.iter().zip(chunk_cells.chunks_mut(cols)) {
                        workforce::fill_inserted_cells(
                            request,
                            catalog,
                            inserted,
                            inserted_models,
                            rule,
                            row,
                        );
                    }
                });
            }
        });
        Ok(())
    }

    /// Solves one catalog-backed ADPaR problem per entry of
    /// `request_indices` (indices into `requests`), sharding the problems
    /// across scoped threads with one reusable solver scratch per worker.
    /// The result vector is parallel to `request_indices` — output order is
    /// deterministic and independent of the thread count, and each solution
    /// is identical to a standalone [`AdparExact`] solve.
    #[must_use]
    pub fn solve_adpar_batch(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        request_indices: &[usize],
        k: usize,
    ) -> Vec<Result<AdparSolution, StratRecError>> {
        self.fan_out_adpar(requests, catalog, request_indices, k, |problem, scratch| {
            AdparExact.solve_with_scratch(problem, scratch)
        })
    }

    /// The **degraded** counterpart of [`Self::solve_adpar_batch`]: the same
    /// deterministic fan-out, but every problem is answered by the cheap
    /// one-axis-at-a-time [`AdparBaseline2`] instead of the exact solver.
    /// Each solution is bit-identical to a standalone
    /// `AdparBaseline2.solve(&AdparProblem::with_catalog(..))` over the same
    /// catalog state — this is what a streaming front-end serves while its
    /// backpressure controller holds the pipeline in
    /// [`ServiceQuality::Degraded`](crate::stratrec::ServiceQuality).
    #[must_use]
    pub fn solve_adpar_batch_degraded(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        request_indices: &[usize],
        k: usize,
    ) -> Vec<Result<AdparSolution, StratRecError>> {
        self.fan_out_adpar(requests, catalog, request_indices, k, |problem, _| {
            AdparBaseline2.solve(problem)
        })
    }

    /// The chunked ADPaR fan-out behind both solvers: contiguous chunks of
    /// `request_indices` go to scoped threads, each owning one
    /// [`SolveScratch`] and one relaxation buffer reused across its
    /// problems ([`AdparProblem::with_catalog_reusing`]), and every result
    /// lands in its input slot.
    fn fan_out_adpar<S>(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        request_indices: &[usize],
        k: usize,
        solve: S,
    ) -> Vec<Result<AdparSolution, StratRecError>>
    where
        S: Fn(&AdparProblem<'_>, &mut SolveScratch) -> Result<AdparSolution, StratRecError> + Sync,
    {
        let solve_chunk =
            |indices: &[usize], out: &mut [Option<Result<AdparSolution, StratRecError>>]| {
                let mut scratch = SolveScratch::new();
                let mut relaxations: Vec<stratrec_geometry::Point3> = Vec::new();
                for (slot, &idx) in out.iter_mut().zip(indices) {
                    let problem = AdparProblem::with_catalog_reusing(
                        &requests[idx],
                        catalog,
                        k,
                        std::mem::take(&mut relaxations),
                    );
                    *slot = Some(solve(&problem, &mut scratch));
                    relaxations = problem.into_relaxations();
                }
            };

        let mut results: Vec<Option<Result<AdparSolution, StratRecError>>> =
            vec![None; request_indices.len()];
        let threads = self.effective_threads(request_indices.len());
        if threads < 2 {
            solve_chunk(request_indices, &mut results);
        } else {
            let chunk_size = request_indices.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (indices, slots) in request_indices
                    .chunks(chunk_size)
                    .zip(results.chunks_mut(chunk_size))
                {
                    scope.spawn(move || solve_chunk(indices, slots));
                }
            });
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every chunk slot is filled by its thread"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpar::AdparSolver;
    use crate::workforce::AggregationMode;

    fn setup() -> (
        Vec<DeploymentRequest>,
        Vec<crate::model::Strategy>,
        ModelLibrary,
    ) {
        (
            crate::examples_data::running_example_requests(),
            crate::examples_data::running_example_strategies(),
            crate::examples_data::running_example_models(),
        )
    }

    #[test]
    fn engine_matrix_matches_sequential_for_every_thread_count() {
        let (requests, strategies, models) = setup();
        let catalog = StrategyCatalog::from_slice(&strategies);
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let sequential =
                WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
            for threads in [0, 1, 2, 3, 7] {
                let parallel = BatchEngine::with_threads(threads)
                    .workforce_matrix(&requests, &catalog, &models, rule)
                    .unwrap();
                assert_eq!(sequential, parallel, "{rule:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn engine_matrix_preserves_the_empty_batch_contract() {
        let (_, strategies, _) = setup();
        let catalog = StrategyCatalog::from_slice(&strategies);
        let empty_models = ModelLibrary::new();
        let matrix = BatchEngine::new()
            .workforce_matrix(&[], &catalog, &empty_models, EligibilityRule::default())
            .unwrap();
        assert_eq!(matrix.rows(), 0);
        assert_eq!(matrix.cols(), strategies.len());
        // Missing models still error for non-empty batches.
        let (requests, _, _) = setup();
        assert!(matches!(
            BatchEngine::new().workforce_matrix(
                &requests,
                &catalog,
                &empty_models,
                EligibilityRule::default()
            ),
            Err(StratRecError::MissingModel { .. })
        ));
    }

    #[test]
    fn engine_matrix_handles_an_empty_catalog() {
        let (requests, _, models) = setup();
        let catalog = StrategyCatalog::new(Vec::new());
        let matrix = BatchEngine::new()
            .workforce_matrix(&requests, &catalog, &models, EligibilityRule::default())
            .unwrap();
        assert_eq!(matrix.rows(), requests.len());
        assert_eq!(matrix.cols(), 0);
        assert!(matrix
            .aggregate(1, AggregationMode::Sum)
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn matrix_width_tracks_live_count_after_a_compacted_rebuild() {
        // Regression: the engine's row width is the catalog's slot count,
        // which grows with churn; after a `compact()` it must equal the
        // live count, not the historical slot count — and the remapped old
        // matrix must equal the freshly computed narrow one.
        let (requests, strategies, _) = setup();
        let mut catalog = StrategyCatalog::from_slice(&strategies);
        catalog.insert(crate::model::Strategy::from_params(
            10,
            crate::model::DeploymentParameters::clamped(0.85, 0.25, 0.3),
        ));
        let models = ModelLibrary::uniform_for(
            catalog.strategies(),
            crate::modeling::StrategyModel::uniform(1.0, 0.0),
        );
        assert!(catalog.retire(1));
        assert!(catalog.retire(3));
        assert_eq!(catalog.slot_count(), 5);
        assert_eq!(catalog.len(), 3);

        let rule = EligibilityRule::StrategyParameters;
        let wide = BatchEngine::sequential()
            .workforce_matrix(&requests, &catalog, &models, rule)
            .unwrap();
        assert_eq!(wide.cols(), catalog.slot_count());

        let remap = catalog.compact();
        assert_eq!(catalog.slot_count(), catalog.len());
        for threads in [1, 3, 0] {
            let narrow = BatchEngine::with_threads(threads)
                .workforce_matrix(&requests, &catalog, &models, rule)
                .unwrap();
            assert_eq!(narrow.cols(), catalog.len(), "{threads} threads");
            assert_eq!(
                narrow.cols(),
                3,
                "{threads} threads: width is the live count, not the 5 historical slots"
            );
            assert_eq!(wide.remap_columns(&remap), narrow, "{threads} threads");
        }
    }

    #[test]
    fn adpar_batch_matches_standalone_solves_in_order() {
        let (requests, strategies, _) = setup();
        let catalog = StrategyCatalog::from_slice(&strategies);
        let indices = [2, 0, 1, 0];
        for threads in [0, 1, 2, 3] {
            let batch = BatchEngine::with_threads(threads)
                .solve_adpar_batch(&requests, &catalog, &indices, 3);
            assert_eq!(batch.len(), indices.len(), "{threads} threads");
            for (&idx, result) in indices.iter().zip(&batch) {
                let expected =
                    AdparExact.solve(&AdparProblem::with_catalog(&requests[idx], &catalog, 3));
                assert_eq!(result, &expected, "{threads} threads, request {idx}");
            }
        }
    }

    #[test]
    fn degraded_adpar_batch_matches_standalone_baseline2_in_order() {
        let (requests, strategies, _) = setup();
        let catalog = StrategyCatalog::from_slice(&strategies);
        let indices = [2, 0, 1, 0];
        for threads in [0, 1, 2, 3] {
            let batch = BatchEngine::with_threads(threads)
                .solve_adpar_batch_degraded(&requests, &catalog, &indices, 3);
            assert_eq!(batch.len(), indices.len(), "{threads} threads");
            for (&idx, result) in indices.iter().zip(&batch) {
                let expected =
                    AdparBaseline2.solve(&AdparProblem::with_catalog(&requests[idx], &catalog, 3));
                assert_eq!(result, &expected, "{threads} threads, request {idx}");
            }
        }
        // Per-problem errors surface the same way as on the exact path.
        let failing =
            BatchEngine::new().solve_adpar_batch_degraded(&requests, &catalog, &[0, 1], 9);
        assert!(failing
            .iter()
            .all(|r| matches!(r, Err(StratRecError::NotEnoughStrategies { .. }))));
        assert!(BatchEngine::new()
            .solve_adpar_batch_degraded(&requests, &catalog, &[], 3)
            .is_empty());
    }

    #[test]
    fn adpar_batch_reports_per_problem_errors() {
        let (requests, strategies, _) = setup();
        let catalog = StrategyCatalog::from_slice(&strategies);
        // k larger than the catalog: every problem fails, none panics.
        let results = BatchEngine::new().solve_adpar_batch(&requests, &catalog, &[0, 1, 2], 9);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(StratRecError::NotEnoughStrategies { .. }))));
        // An empty fan-out is a no-op.
        assert!(BatchEngine::new()
            .solve_adpar_batch(&requests, &catalog, &[], 3)
            .is_empty());
    }

    #[test]
    fn engine_delta_apply_matches_sequential_and_fresh_for_every_thread_count() {
        // Build a wider churn fixture so multiple row chunks exist, churn
        // it over several windows (one of them compacting), and pin the
        // engine-applied matrix against both the sequentially-applied one
        // and a fresh recompute, for every thread count.
        let strategies: Vec<crate::model::Strategy> = (0..30)
            .map(|i| {
                crate::model::Strategy::from_params(
                    i,
                    crate::model::DeploymentParameters::clamped(
                        0.3 + (i as f64 * 0.13) % 0.6,
                        0.2 + (i as f64 * 0.29) % 0.7,
                        0.1 + (i as f64 * 0.17) % 0.8,
                    ),
                )
            })
            .collect();
        let mut models = ModelLibrary::from_pairs(strategies.iter().map(|s| {
            let alpha = 0.4 + (s.id.0 % 40) as f64 / 100.0;
            (
                s.id,
                crate::modeling::StrategyModel::uniform(alpha, 1.0 - alpha),
            )
        }));
        let requests: Vec<DeploymentRequest> = (0..9)
            .map(|i| {
                crate::model::DeploymentRequest::new(
                    i,
                    crate::model::TaskType::SentenceTranslation,
                    crate::model::DeploymentParameters::clamped(
                        0.2 + (i as f64) * 0.08,
                        0.95 - (i as f64) * 0.05,
                        0.9 - (i as f64) * 0.04,
                    ),
                )
            })
            .collect();
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let mut catalog = StrategyCatalog::with_policy(
                strategies.clone(),
                crate::catalog::RebuildPolicy::threshold(3),
            );
            let base =
                WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
            let sub = catalog.subscribe_delta();
            let engines = [0_usize, 1, 2, 3, 7];
            let mut matrices: Vec<WorkforceMatrix> = engines.iter().map(|_| base.clone()).collect();
            let mut next_id = 30_u64;
            for window in 0..3 {
                for _ in 0..4 {
                    let strategy = crate::model::Strategy::from_params(
                        next_id,
                        crate::model::DeploymentParameters::clamped(
                            0.4 + (next_id as f64 * 0.11) % 0.5,
                            0.3 + (next_id as f64 * 0.23) % 0.6,
                            0.2 + (next_id as f64 * 0.31) % 0.7,
                        ),
                    );
                    let alpha = 0.4 + (next_id % 40) as f64 / 100.0;
                    models.insert(
                        strategy.id,
                        crate::modeling::StrategyModel::uniform(alpha, 1.0 - alpha),
                    );
                    catalog.insert(strategy);
                    next_id += 1;
                }
                let live = catalog.live_indices();
                assert!(catalog.retire(live[(window * 5) % live.len()]));
                assert!(catalog.retire(live[(window * 11 + 3) % live.len()]));
                if window == 1 {
                    catalog.compact();
                }
                let delta = catalog.take_delta(&sub).unwrap();
                let fresh =
                    WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule)
                        .unwrap();
                for (&threads, matrix) in engines.iter().zip(&mut matrices) {
                    let mut model_buf = Vec::new();
                    BatchEngine::with_threads(threads)
                        .apply_matrix_delta(
                            matrix,
                            &delta,
                            &requests,
                            &catalog,
                            &models,
                            rule,
                            &mut model_buf,
                        )
                        .unwrap();
                    assert_eq!(
                        matrix, &fresh,
                        "{rule:?}, window {window}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn effective_threads_respects_cap_and_items() {
        assert_eq!(BatchEngine::sequential().effective_threads(100), 1);
        assert_eq!(BatchEngine::with_threads(4).effective_threads(2), 2);
        assert_eq!(BatchEngine::with_threads(4).effective_threads(100), 4);
        assert!(BatchEngine::new().effective_threads(100) >= 1);
        assert_eq!(BatchEngine::new().effective_threads(0), 1);
        assert_eq!(BatchEngine::with_threads(3).thread_cap(), 3);
        assert_eq!(BatchEngine::default(), BatchEngine::new());
    }
}
