//! The parallel batch engine: row-sharded workforce requirements and ADPaR
//! fan-out over a shared [`StrategyCatalog`].
//!
//! The paper's hot path is *Aggregator → workforce requirements → ADPaR
//! fan-out*. Both halves are embarrassingly parallel — a request's
//! requirement depends only on its own row, and every unsatisfied request
//! becomes an independent ADPaR problem. A [`BatchEngine`] centralizes that
//! parallelism:
//!
//! * [`BatchEngine::requirements`] is the serving path. It shards the `m`
//!   requests across a scoped thread pool in contiguous chunks and streams
//!   each request's eligible cells into a bounded top-k heap, so it never
//!   allocates the dense `m × slot_count` matrix. Its output equals
//!   `workforce_matrix(..).aggregate(k, mode)` bit for bit.
//! * [`BatchEngine::workforce_matrix`] builds that matrix — the paper's
//!   §3.2 object, kept as the scan oracle and for replay — sharding rows the
//!   same way, and [`BatchEngine::apply_matrix_delta`] keeps a standing
//!   matrix in step with catalog churn. They are the only catalog fill and
//!   the only delta apply: one thread runs the same code as many. Each
//!   thread owns a disjoint `&mut` slice of the row-major cell buffer, so no
//!   synchronization is needed and the output is **byte-identical** for
//!   every thread count, and equal to the linear scan
//!   [`WorkforceMatrix::compute_with_rule`] over the catalog's strategies.
//! * [`BatchEngine::solve_adpar_batch`] fans a batch of unsatisfied
//!   requests out to [`AdparExact`] with one reusable
//!   [`SolveScratch`] **and** one reused
//!   relaxation buffer per worker thread
//!   ([`AdparProblem::with_catalog_reusing`]), so the steady state
//!   allocates nothing per problem beyond the returned solution. Results
//!   come back in input order.
//!
//! Determinism is a hard guarantee, not a best effort: every work item is
//! pure (it reads the shared catalog and writes only its own output slot),
//! so chunking changes wall-clock time but never a single output bit. The
//! parity suites in `tests/catalog_parity.rs` pin the engine against the
//! linear-scan paths and against [`BatchEngine::sequential`].

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::adpar::{
    AdparBaseline2, AdparExact, AdparProblem, AdparSolution, AdparSolver, SolveScratch,
};
use crate::catalog::{CatalogDelta, StrategyCatalog};
use crate::error::StratRecError;
use crate::model::DeploymentRequest;
use crate::modeling::{ModelLibrary, StrategyModel};
use crate::workforce::{
    self, AggregationMode, EligibilityRule, RequestRequirement, RowAggregator, WorkforceMatrix,
};

/// The machine's core count, resolved once per process: the query is a
/// syscall, and a `threads == 0` engine asks on every fan-out.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

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
            available_cores()
        } else {
            self.threads
        };
        cap.min(work_items).max(1)
    }

    /// Each request's workforce requirement over the `k` cheapest
    /// strategies of a shared catalog, without building the workforce
    /// matrix: equal to
    /// [`Self::workforce_matrix`]`(..)`[`.aggregate(k, mode)`](WorkforceMatrix::aggregate)
    /// bit for bit, for every thread count.
    ///
    /// Each row is one pass over the cells that can be finite — the
    /// request's eligible slots ([`StrategyCatalog::for_each_eligible`]), or
    /// every live slot under [`EligibilityRule::ModelOnly`] — streamed into
    /// a bounded top-k heap. So a row costs `O(eligible · log k)` rather
    /// than the matrix's `O(slot_count)` fill and scan. Rows are sharded
    /// across scoped threads in contiguous chunks, one heap per worker.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a **live** catalog
    /// strategy has no fitted model in `models`, even one no request is
    /// eligible for; an empty batch never consults the model library (the
    /// contract of [`Self::workforce_matrix`]).
    pub fn requirements(
        &self,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
        k: usize,
        mode: AggregationMode,
    ) -> Result<Vec<Option<RequestRequirement>>, StratRecError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let strategy_models = workforce::collect_live_models(catalog, models)?;
        let serve_chunk =
            |first: usize, chunk: &[DeploymentRequest], out: &mut [Option<RequestRequirement>]| {
                let mut aggregator = RowAggregator::new(k, mode);
                for (offset, (request, slot)) in chunk.iter().zip(out).enumerate() {
                    *slot = aggregator.catalog_row(
                        request,
                        first + offset,
                        catalog,
                        &strategy_models,
                        rule,
                    );
                }
            };
        let mut out = vec![None; requests.len()];
        let threads = self.effective_threads(requests.len());
        shard(threads, requests, &mut out, 1, serve_chunk);
        Ok(out)
    }

    /// Computes the workforce matrix for a batch through a shared catalog,
    /// sharding rows across scoped threads. Each row's eligibility is an
    /// R-tree box query instead of a scan over all `|S|` strategies; only
    /// eligible cells invert their model and every other cell is
    /// `f64::INFINITY`, so the matrix is **identical** to
    /// [`WorkforceMatrix::compute_with_rule`] over a pristine catalog's
    /// strategies, for every thread count.
    ///
    /// Columns are catalog **slots** (live and retired), so column numbers
    /// stay stable across churn; retired slots are infeasible in every row
    /// and never consult the model library. With
    /// [`EligibilityRule::ModelOnly`] every live cell is evaluated.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a **live** catalog
    /// strategy has no fitted model in `models`, even one no request is
    /// eligible for (the scan path's contract). An empty batch never
    /// consults the model library and always succeeds.
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
        if requests.is_empty() || cols == 0 {
            // No cells to fill (and `chunks_mut(0)` would panic); an empty
            // catalog has no model to miss.
            return Ok(WorkforceMatrix::from_cells(
                requests.len(),
                cols,
                Vec::new(),
            ));
        }
        let strategy_models = workforce::collect_live_models(catalog, models)?;
        // The fill writes only eligible cells, so rows start at `∞`.
        let mut cells = vec![f64::INFINITY; requests.len() * cols];
        shard(
            self.effective_threads(requests.len()),
            requests,
            &mut cells,
            cols,
            |_, chunk, chunk_cells| {
                for (request, row) in chunk.iter().zip(chunk_cells.chunks_mut(cols)) {
                    workforce::fill_catalog_row(request, catalog, &strategy_models, rule, row);
                }
            },
        );
        Ok(WorkforceMatrix::from_cells(requests.len(), cols, cells))
    }

    /// Applies a [`CatalogDelta`] drained from the catalog `matrix` was
    /// computed over, bringing it to the state a fresh
    /// [`Self::workforce_matrix`] over the **updated** catalog would
    /// produce — bit for bit (pinned by the `tests/catalog_churn.rs`
    /// replay) — while touching only the changed columns:
    ///
    /// 1. the window's composed compaction remap (if any) renumbers the
    ///    columns ([`WorkforceMatrix::remap_columns`], shedding reclaimed
    ///    slots);
    /// 2. one column is appended per inserted slot and **only those**
    ///    columns are computed (eligibility by the exact per-strategy
    ///    predicate, the model inversion per eligible cell); slots retired
    ///    again within the window append as all-`∞`;
    /// 3. `f64::INFINITY` is written into the retired columns in place.
    ///
    /// Steps 1 and 3 are `memmove`-class work and run on the calling
    /// thread. The inserted-column model fill — the only `O(n · churn)`
    /// model-evaluation work — is sharded across scoped threads in
    /// contiguous row chunks. `model_buf` is a reusable scratch for the
    /// inserted slots' models, so steady-state epochs allocate nothing for
    /// model collection.
    ///
    /// The missing-model contract is enforced for the **inserted** live
    /// slots (pre-existing columns were validated when first computed), and
    /// the check runs before any mutation. An empty request batch never
    /// consults the model library, exactly like the fresh fill.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::StaleCatalog`] when `delta.to_epoch` is not
    /// the catalog's current epoch (the delta was not drained against this
    /// catalog state), and [`StratRecError::MissingModel`] when an inserted
    /// live slot has no fitted model. A failed apply leaves the matrix
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics when the matrix shape does not match `requests` and the
    /// delta's source slot count.
    // One argument per pipeline ingredient; bundling them would only add a
    // struct every call site immediately unpacks.
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
        matrix.absorb_delta_structure(delta, requests, catalog, models, model_buf)?;
        if delta.inserted.is_empty() {
            return Ok(());
        }
        // At least one inserted column, so `cols > 0`.
        let cols = matrix.cols();
        let inserted = &delta.inserted;
        let inserted_models = &*model_buf;
        shard(
            self.effective_threads(requests.len()),
            requests,
            matrix.cells_mut(),
            cols,
            |_, chunk, chunk_cells| {
                for (request, row) in chunk.iter().zip(chunk_cells.chunks_mut(cols)) {
                    workforce::fill_inserted_cells(
                        request,
                        catalog,
                        inserted,
                        inserted_models,
                        rule,
                        row,
                    );
                }
            },
        );
        Ok(())
    }

    /// Solves one ADPaR problem over `catalog` per entry of
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
    /// catalog state. Nothing serves it; kept only because the end-to-end
    /// benchmark's replay times it as what degrading would cost.
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
        shard(
            threads,
            request_indices,
            &mut results,
            1,
            |_, indices, slots| {
                solve_chunk(indices, slots);
            },
        );
        results
            .into_iter()
            .map(|slot| slot.expect("every chunk slot is filled by its thread"))
            .collect()
    }
}

/// Runs `work(first, chunk, chunk_out)` over `threads` contiguous chunks of
/// `items`, each paired with its `out_per_item`-wide share of `out` (`first`
/// is the chunk's offset into `items`). The first chunk runs on the calling
/// thread and the others on scoped threads, so a fan-out spawns
/// `threads − 1` threads. Every chunk writes only its own slice of `out`,
/// so the result does not depend on `threads`.
fn shard<T: Sync, U: Send>(
    threads: usize,
    items: &[T],
    out: &mut [U],
    out_per_item: usize,
    work: impl Fn(usize, &[T], &mut [U]) + Sync,
) {
    if threads < 2 {
        work(0, items, out);
        return;
    }
    let per_chunk = items.len().div_ceil(threads);
    let work = &work;
    std::thread::scope(|scope| {
        let mut chunks = items
            .chunks(per_chunk)
            .zip(out.chunks_mut(per_chunk * out_per_item))
            .enumerate();
        let first = chunks.next();
        for (index, (chunk, chunk_out)) in chunks {
            scope.spawn(move || work(index * per_chunk, chunk, chunk_out));
        }
        if let Some((_, (chunk, chunk_out))) = first {
            work(0, chunk, chunk_out);
        }
    });
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
    fn engine_matrix_matches_the_scan_for_every_thread_count() {
        let (requests, strategies, models) = setup();
        let catalog = StrategyCatalog::new(strategies.as_slice());
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let scan =
                WorkforceMatrix::compute_with_rule(&requests, catalog.strategies(), &models, rule)
                    .unwrap();
            for threads in [0, 1, 2, 3, 7] {
                let parallel = BatchEngine::with_threads(threads)
                    .workforce_matrix(&requests, &catalog, &models, rule)
                    .unwrap();
                assert_eq!(scan, parallel, "{rule:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn engine_matrix_preserves_the_empty_batch_contract() {
        let (requests, strategies, _) = setup();
        let catalog = StrategyCatalog::new(strategies.as_slice());
        let empty_models = ModelLibrary::new();
        let rule = EligibilityRule::default();
        // The scan never consults the model library for an empty batch; the
        // catalog fill must not either.
        let scan =
            WorkforceMatrix::compute_with_rule(&[], &strategies, &empty_models, rule).unwrap();
        for threads in 0..=4 {
            let engine = BatchEngine::with_threads(threads);
            let matrix = engine
                .workforce_matrix(&[], &catalog, &empty_models, rule)
                .unwrap();
            assert_eq!(matrix, scan, "{threads} threads");
            assert_eq!(matrix.rows(), 0);
            assert_eq!(matrix.cols(), strategies.len());
            // Missing models still error for non-empty batches.
            assert!(matches!(
                engine.workforce_matrix(&requests, &catalog, &empty_models, rule),
                Err(StratRecError::MissingModel { .. })
            ));
        }
    }

    #[test]
    fn engine_matrix_handles_an_empty_catalog() {
        let (requests, _, models) = setup();
        let catalog = StrategyCatalog::new(Vec::new());
        for threads in 0..=4 {
            let matrix = BatchEngine::with_threads(threads)
                .workforce_matrix(&requests, &catalog, &models, EligibilityRule::default())
                .unwrap();
            assert_eq!(matrix.rows(), requests.len(), "{threads} threads");
            assert_eq!(matrix.cols(), 0);
            assert!(matrix
                .aggregate(1, AggregationMode::Sum)
                .iter()
                .all(Option::is_none));
        }
    }

    #[test]
    fn matrix_width_tracks_live_count_after_a_compacted_rebuild() {
        // Regression: the engine's row width is the catalog's slot count,
        // which grows with churn; after a `compact()` it must equal the
        // live count, not the historical slot count — and the remapped old
        // matrix must equal the freshly computed narrow one.
        let (requests, strategies, _) = setup();
        let mut catalog = StrategyCatalog::new(strategies.as_slice());
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
    fn adpar_batch_matches_standalone_solves_in_order_for_every_thread_count() {
        let (requests, strategies, _) = setup();
        let catalog = StrategyCatalog::new(strategies.as_slice());
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
    fn degraded_adpar_batch_matches_standalone_baseline2_in_order_for_every_thread_count() {
        let (requests, strategies, _) = setup();
        let catalog = StrategyCatalog::new(strategies.as_slice());
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
        let catalog = StrategyCatalog::new(strategies.as_slice());
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
    fn engine_delta_apply_matches_a_fresh_fill_for_every_thread_count() {
        // Build a wider churn fixture so multiple row chunks exist, churn
        // it over several windows (one of them compacting, one retiring
        // only), and pin the engine-applied matrix against a fresh
        // one-thread fill, for every thread count.
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
            let fresh_fill = |catalog: &StrategyCatalog, models: &ModelLibrary| {
                BatchEngine::sequential()
                    .workforce_matrix(&requests, catalog, models, rule)
                    .unwrap()
            };
            let base = fresh_fill(&catalog, &models);
            let sub = catalog.subscribe_delta();
            let engines = [0_usize, 1, 2, 3, 7];
            let mut matrices: Vec<WorkforceMatrix> = engines.iter().map(|_| base.clone()).collect();
            let mut next_id = 30_u64;
            for window in 0..4 {
                // The last window only retires: no inserted column to fill.
                let inserts = if window == 3 { 0 } else { 4 };
                for _ in 0..inserts {
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
                let fresh = fresh_fill(&catalog, &models);
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
    fn effective_threads_resolves_the_core_count_once() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        for items in 0..2 * cores + 3 {
            assert_eq!(
                BatchEngine::new().effective_threads(items),
                cores.min(items).max(1),
                "auto cap, {items} items"
            );
            for cap in 1..6 {
                assert_eq!(
                    BatchEngine::with_threads(cap).effective_threads(items),
                    cap.min(items).max(1),
                    "cap {cap}, {items} items"
                );
            }
        }
    }

    #[test]
    fn requirements_keep_the_missing_model_and_empty_batch_contracts() {
        let (requests, mut strategies, mut models) = setup();
        // A live strategy no request is eligible for, with no model.
        strategies.push(crate::model::Strategy::from_params(
            77,
            crate::model::DeploymentParameters::clamped(0.0, 1.0, 1.0),
        ));
        let catalog = StrategyCatalog::new(strategies.as_slice());
        let slot = strategies.len() - 1;
        for request in &requests {
            assert!(!catalog.eligible_for(&request.params).contains(&slot));
        }
        let rule = EligibilityRule::StrategyParameters;
        for threads in 0..=4 {
            let engine = BatchEngine::with_threads(threads);
            assert!(matches!(
                engine.requirements(&requests, &catalog, &models, rule, 3, AggregationMode::Sum),
                Err(StratRecError::MissingModel { strategy: 77 })
            ));
            // An empty batch never consults the library, even an empty one
            // over an empty catalog.
            for (catalog, models) in [
                (&catalog, &models),
                (&StrategyCatalog::new(Vec::new()), &ModelLibrary::new()),
            ] {
                assert_eq!(
                    engine.requirements(&[], catalog, models, rule, 3, AggregationMode::Sum),
                    Ok(Vec::new())
                );
            }
        }
        // Once the model exists the strategy changes nothing: it is never
        // eligible.
        models.insert(
            crate::model::StrategyId(77),
            crate::modeling::StrategyModel::uniform(1.0, 0.0),
        );
        let with_spare = BatchEngine::new()
            .requirements(&requests, &catalog, &models, rule, 3, AggregationMode::Max)
            .unwrap();
        let without = BatchEngine::new()
            .requirements(
                &requests,
                &StrategyCatalog::new(&strategies[..slot]),
                &models,
                rule,
                3,
                AggregationMode::Max,
            )
            .unwrap();
        assert_eq!(with_spare, without);
        // An empty catalog leaves every request infeasible.
        let empty = BatchEngine::new()
            .requirements(
                &requests,
                &StrategyCatalog::new(Vec::new()),
                &ModelLibrary::new(),
                rule,
                1,
                AggregationMode::Sum,
            )
            .unwrap();
        assert_eq!(empty, vec![None; requests.len()]);
    }

    fn proptest_strategy(id: u64, (q, c, l): (f64, f64, f64)) -> crate::model::Strategy {
        crate::model::Strategy::from_params(
            id,
            crate::model::DeploymentParameters::clamped(q, c, l),
        )
    }

    /// Id-varied models: some cells need no workforce (ties at `0.0`), some
    /// a fraction of it, some are unreachable (`∞`).
    fn proptest_model(id: u64) -> crate::modeling::StrategyModel {
        let alpha = 0.2 + ((id * 37) % 70) as f64 / 100.0;
        crate::modeling::StrategyModel::uniform(alpha, 1.0 - alpha)
    }

    /// Asserts the fused requirements equal the matrix oracle for both
    /// rules, both modes, `k ∈ {0, 1, 3, more than live}` and engine
    /// threads 0–4, plus the empty batch.
    fn assert_fused_matches_matrix(
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        stage: &str,
    ) {
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let matrix = BatchEngine::sequential()
                .workforce_matrix(requests, catalog, models, rule)
                .unwrap();
            for mode in [AggregationMode::Sum, AggregationMode::Max] {
                for k in [0, 1, 3, catalog.len() + 1] {
                    let expected = matrix.aggregate(k, mode);
                    for threads in 0..=4 {
                        let engine = BatchEngine::with_threads(threads);
                        assert_eq!(
                            engine
                                .requirements(requests, catalog, models, rule, k, mode)
                                .unwrap(),
                            expected,
                            "{stage}: {rule:?}, {mode:?}, k = {k}, {threads} threads"
                        );
                        assert_eq!(
                            engine.requirements(&[], catalog, models, rule, k, mode),
                            Ok(Vec::new()),
                            "{stage}: empty batch"
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn fused_requirements_match_matrix_aggregate_for_every_thread_count(
            base in proptest::collection::vec((0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 0..40),
            inserts in proptest::collection::vec((0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 0..12),
            retires in proptest::collection::vec(0_usize..1000, 0..10),
            queries in proptest::collection::vec((0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 0..9),
            merge_threshold in 1_usize..16,
        ) {
            let strategies: Vec<crate::model::Strategy> = base
                .iter()
                .enumerate()
                .map(|(i, &params)| proptest_strategy(i as u64, params))
                .collect();
            let mut models = ModelLibrary::from_pairs(
                strategies.iter().map(|s| (s.id, proptest_model(s.id.0))),
            );
            let mut catalog = StrategyCatalog::with_policy(
                strategies,
                crate::catalog::RebuildPolicy::threshold(merge_threshold),
            );
            // Interleave inserts with retires: tombstones in the index, and
            // an unmerged tail whenever the last merge was recent.
            for (step, &params) in inserts.iter().enumerate() {
                let id = (base.len() + step) as u64;
                models.insert(crate::model::StrategyId(id), proptest_model(id));
                catalog.insert(proptest_strategy(id, params));
                if let Some(&pick) = retires.get(step) {
                    let live = catalog.live_indices();
                    if !live.is_empty() {
                        catalog.retire(live[pick % live.len()]);
                    }
                }
            }
            let requests: Vec<DeploymentRequest> = queries
                .iter()
                .enumerate()
                .map(|(i, &(q, c, l))| {
                    DeploymentRequest::new(
                        i as u64,
                        crate::model::TaskType::SentenceTranslation,
                        crate::model::DeploymentParameters::clamped(q, c, l),
                    )
                })
                .collect();
            assert_fused_matches_matrix(&requests, &catalog, &models, "churned");
            catalog.compact();
            assert_fused_matches_matrix(&requests, &catalog, &models, "compacted");
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
