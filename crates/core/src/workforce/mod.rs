//! Workforce-requirement computation (paper §3.2).
//!
//! Given `m` deployment requests and `|S|` strategies, the Aggregator builds
//! the matrix `W` whose cell `w_ij` is the minimum workforce needed to
//! deploy request `d_i` with strategy `s_j` (the maximum over the three
//! per-parameter requirements obtained by inverting the linear model of
//! Equation 4). The per-request requirement is then aggregated over the `k`
//! cheapest strategies, either as their sum (*sum-case*: the requester will
//! run all `k` recommended strategies) or as the `k`-th smallest value
//! (*max-case*: only one of the `k` will be run).
//!
//! The cold fill has one implementation: per request, the catalog's R-tree
//! answers eligibility and only the eligible cells invert their model in
//! `f64`. The delta fill of inserted columns evaluates the same per-cell
//! arithmetic, so a delta-maintained matrix equals a cold fill bit for bit.
//!
//! Aggregation has one implementation: a flat per-row top-k over the full
//! slot range. The cold [`WorkforceMatrix::aggregate`] and the
//! delta-repaired [`AggregationCache`] both reduce a row through the same
//! private helper, so a repaired cache equals a fresh aggregate bit for
//! bit.

use serde::{Deserialize, Serialize};
use stratrec_optim::topk::{self, TopKScratch};

use crate::catalog::{CatalogDelta, SlotRemap, StrategyCatalog};
use crate::error::StratRecError;
use crate::model::{DeploymentRequest, Strategy};
use crate::modeling::{ModelLibrary, StrategyModel};

/// How the workforce requirement of the `k` recommended strategies is
/// aggregated into a single per-request requirement (paper §3.2, step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AggregationMode {
    /// The requester intends to run **all** `k` strategies: the requirement
    /// is the sum of the `k` smallest cells of the request's row.
    #[default]
    Sum,
    /// The requester will run **one** of the `k` strategies: the requirement
    /// is the `k`-th smallest cell of the request's row.
    Max,
}

/// How a strategy's basic eligibility for a request is decided before any
/// workforce consideration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EligibilityRule {
    /// A strategy is eligible only when its estimated parameters satisfy the
    /// request's thresholds (`s.quality ≥ d.quality`, `s.cost ≤ d.cost`,
    /// `s.latency ≤ d.latency`) — the rule used throughout the paper's
    /// examples and synthetic experiments.
    #[default]
    StrategyParameters,
    /// Every strategy is eligible; feasibility is decided purely by whether
    /// the model inversion yields a finite workforce requirement. Useful when
    /// strategy parameter estimates are unavailable and only models exist.
    ModelOnly,
}

/// The workforce requirement of one deployment request: which `k` strategies
/// are recommended and how much of the worker pool they need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRequirement {
    /// Index of the request in the input batch.
    pub request_index: usize,
    /// Indices of the `k` recommended strategies, cheapest first.
    pub strategy_indices: Vec<usize>,
    /// Aggregated workforce requirement in `[0, 1]` (fraction of the suitable
    /// worker pool).
    pub workforce: f64,
}

impl RequestRequirement {
    /// Renumbers the recommended slots through a catalog compaction's
    /// [`SlotRemap`]. Returns `None` when any recommended slot was reclaimed
    /// — the requirement predates a retirement and must be re-aggregated.
    #[must_use]
    pub fn remap(&self, remap: &SlotRemap) -> Option<Self> {
        let strategy_indices = remap.remap_slots(&self.strategy_indices)?;
        Some(Self {
            request_index: self.request_index,
            strategy_indices,
            workforce: self.workforce,
        })
    }
}

/// The `m × |S|` workforce-requirement matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkforceMatrix {
    rows: usize,
    cols: usize,
    /// Row-major cells; `f64::INFINITY` marks an infeasible (request,
    /// strategy) pair.
    cells: Vec<f64>,
}

impl WorkforceMatrix {
    /// Computes the matrix for a batch of requests against a strategy set,
    /// consulting `models` for the per-strategy linear models and using the
    /// default [`EligibilityRule::StrategyParameters`].
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a strategy has no fitted
    /// model in `models`.
    pub fn compute(
        requests: &[DeploymentRequest],
        strategies: &[Strategy],
        models: &ModelLibrary,
    ) -> Result<Self, StratRecError> {
        Self::compute_with_rule(requests, strategies, models, EligibilityRule::default())
    }

    /// Computes the matrix with an explicit eligibility rule.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when a strategy has no fitted
    /// model in `models`.
    pub fn compute_with_rule(
        requests: &[DeploymentRequest],
        strategies: &[Strategy],
        models: &ModelLibrary,
        rule: EligibilityRule,
    ) -> Result<Self, StratRecError> {
        let mut cells = Vec::with_capacity(requests.len() * strategies.len());
        for request in requests {
            for strategy in strategies {
                let model = models.require(strategy.id)?;
                let eligible = match rule {
                    EligibilityRule::StrategyParameters => strategy.satisfies(request),
                    EligibilityRule::ModelOnly => true,
                };
                let cell = if eligible {
                    model.required_workforce(&request.params)
                } else {
                    f64::INFINITY
                };
                cells.push(cell);
            }
        }
        Ok(Self {
            rows: requests.len(),
            cols: strategies.len(),
            cells,
        })
    }

    /// Computes the matrix through a [`StrategyCatalog`], answering
    /// per-request eligibility with an R-tree box query instead of scanning
    /// all `|S|` strategies. The resulting matrix is **identical** to
    /// [`Self::compute_with_rule`] on the catalog's strategies: the index
    /// only prunes which cells need the model inversion; ineligible cells
    /// stay at `f64::INFINITY` exactly as in the scan path.
    ///
    /// Columns are catalog **slots** (live and retired), so column numbers
    /// stay stable across churn; retired slots are infeasible
    /// (`f64::INFINITY`) in every row and never consult the model library.
    ///
    /// With [`EligibilityRule::ModelOnly`] every **live** cell is feasible
    /// by definition, so the index offers nothing and all live cells are
    /// computed.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::MissingModel`] when any **live** catalog
    /// strategy has no fitted model in `models` (the scan path's contract,
    /// preserved even for strategies that are never eligible). As in the
    /// scan path, an empty batch never consults the model library and always
    /// succeeds.
    pub fn compute_with_catalog(
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
    ) -> Result<Self, StratRecError> {
        let cols = catalog.slot_count();
        if requests.is_empty() {
            return Ok(Self::from_cells(0, cols, Vec::new()));
        }
        let strategy_models = collect_live_models(catalog, models)?;
        // The fill writes only eligible cells, so rows start at `∞`.
        let mut cells = vec![f64::INFINITY; requests.len() * cols];
        for (request, row) in requests.iter().zip(cells.chunks_mut(cols.max(1))) {
            fill_catalog_row(request, catalog, &strategy_models, rule, row);
        }
        Ok(Self::from_cells(requests.len(), cols, cells))
    }

    /// Builds a matrix directly from row-major cells (used in tests and by
    /// callers that estimate requirements through other means).
    ///
    /// # Panics
    ///
    /// Panics when `cells.len() != rows * cols` (with full row/column
    /// context, matching the style of [`Self::get`] / [`Self::row`]).
    #[must_use]
    pub fn from_cells(rows: usize, cols: usize, cells: Vec<f64>) -> Self {
        assert!(
            cells.len() == rows * cols,
            "cell count {} does not fill a {rows}x{cols} workforce matrix ({} cells needed)",
            cells.len(),
            rows * cols
        );
        Self { rows, cols, cells }
    }

    /// Number of requests (rows).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of strategies (columns).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The workforce requirement of deploying request `i` with strategy `j`.
    ///
    /// # Panics
    ///
    /// Panics when `request >= self.rows()` or `strategy >= self.cols()`
    /// (with full row/column context in debug builds).
    #[must_use]
    pub fn get(&self, request: usize, strategy: usize) -> f64 {
        debug_assert!(
            request < self.rows,
            "request row {request} out of bounds for a {}x{} workforce matrix",
            self.rows,
            self.cols
        );
        debug_assert!(
            strategy < self.cols,
            "strategy column {strategy} out of bounds for a {}x{} workforce matrix",
            self.rows,
            self.cols
        );
        self.cells[request * self.cols + strategy]
    }

    /// The full row of request `i`.
    ///
    /// # Panics
    ///
    /// Panics when `request >= self.rows()` (with full row context in debug
    /// builds).
    #[must_use]
    pub fn row(&self, request: usize) -> &[f64] {
        debug_assert!(
            request < self.rows,
            "request row {request} out of bounds for a {}x{} workforce matrix",
            self.rows,
            self.cols
        );
        &self.cells[request * self.cols..(request + 1) * self.cols]
    }

    /// Mutable view of the row-major cell buffer — for
    /// [`crate::engine::BatchEngine`]'s row-sharded fills.
    pub(crate) fn cells_mut(&mut self) -> &mut [f64] {
        &mut self.cells
    }

    /// Renumbers the matrix columns through a catalog compaction's
    /// [`SlotRemap`]: column `old` moves to `remap.forward[old]` and the
    /// columns of reclaimed slots — retired, therefore `f64::INFINITY` in
    /// every row — are shed. A long-lived matrix thus follows its catalog
    /// through [`StrategyCatalog::compact`] instead of being recomputed:
    /// the result is **identical** to [`Self::compute_with_catalog`] over
    /// the compacted catalog (same requests, models and rule), which the
    /// engine regression tests pin.
    ///
    /// # Panics
    ///
    /// Panics when the matrix width does not match the remap's
    /// pre-compaction slot count.
    #[must_use]
    pub fn remap_columns(&self, remap: &SlotRemap) -> Self {
        assert_eq!(
            self.cols,
            remap.len(),
            "matrix width must equal the remap's pre-compaction slot count"
        );
        let cols = remap.live_len;
        let mut cells = vec![f64::INFINITY; self.rows * cols];
        for row in 0..self.rows {
            let src = &self.cells[row * self.cols..(row + 1) * self.cols];
            let dst = &mut cells[row * cols..(row + 1) * cols];
            for (old, new) in remap.mapped_pairs() {
                dst[new] = src[old];
            }
        }
        Self {
            rows: self.rows,
            cols,
            cells,
        }
    }

    /// Applies a [`CatalogDelta`] drained from the catalog this matrix was
    /// computed over, bringing it to the state a fresh
    /// [`Self::compute_with_catalog`] over the **updated** catalog would
    /// produce — bit for bit (pinned by the `tests/catalog_churn.rs`
    /// replay) — while touching only the changed columns:
    ///
    /// 1. the window's composed compaction remap (if any) renumbers the
    ///    columns ([`Self::remap_columns`], shedding reclaimed slots);
    /// 2. one column is appended per inserted slot and **only those**
    ///    columns are computed (eligibility by the exact per-strategy
    ///    predicate, the model inversion per eligible cell); slots retired
    ///    again within the window append as all-`∞`;
    /// 3. `f64::INFINITY` is written into the retired columns in place.
    ///
    /// The missing-model contract is enforced for the **inserted** live
    /// slots (pre-existing columns were validated when first computed), and
    /// the check runs before any mutation, so a failed apply leaves the
    /// matrix unchanged. An empty request batch never consults the model
    /// library, exactly like the fresh-compute path.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::StaleCatalog`] when `delta.to_epoch` is not
    /// the catalog's current epoch (the delta was not drained against this
    /// catalog state), and [`StratRecError::MissingModel`] when an inserted
    /// live slot has no fitted model.
    ///
    /// # Panics
    ///
    /// Panics when the matrix shape does not match `requests` and the
    /// delta's source slot count.
    pub fn apply_delta(
        &mut self,
        delta: &CatalogDelta,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
    ) -> Result<(), StratRecError> {
        let mut model_buf = Vec::new();
        self.apply_delta_with_scratch(delta, requests, catalog, models, rule, &mut model_buf)
    }

    /// [`Self::apply_delta`] reusing a caller-provided model buffer
    /// ([`collect_slot_models_into`] over the inserted slots), so
    /// steady-state epochs do zero model-collection allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::apply_delta`].
    pub fn apply_delta_with_scratch(
        &mut self,
        delta: &CatalogDelta,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
        model_buf: &mut Vec<Option<StrategyModel>>,
    ) -> Result<(), StratRecError> {
        self.apply_delta_structure(delta, requests, catalog, models, model_buf)?;
        let cols = self.cols;
        for (request, row) in requests.iter().zip(self.cells.chunks_mut(cols.max(1))) {
            fill_inserted_cells(request, catalog, &delta.inserted, model_buf, rule, row);
        }
        Ok(())
    }

    /// Everything of [`Self::apply_delta`] except the inserted-cell model
    /// fill: validation, model collection (into `model_buf`, parallel to
    /// `delta.inserted`), the remap, the widening and the retired-column
    /// `∞` writes. [`crate::engine::BatchEngine::apply_matrix_delta`] runs
    /// this sequentially and shards the remaining fill across threads.
    pub(crate) fn apply_delta_structure(
        &mut self,
        delta: &CatalogDelta,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        model_buf: &mut Vec<Option<StrategyModel>>,
    ) -> Result<(), StratRecError> {
        if delta.to_epoch != catalog.epoch() {
            return Err(StratRecError::StaleCatalog {
                expected: delta.to_epoch,
                found: catalog.epoch(),
            });
        }
        assert_eq!(
            self.rows,
            requests.len(),
            "request count must equal the matrix row count"
        );
        assert_eq!(
            self.cols, delta.source_cols,
            "matrix width must equal the delta's source slot count"
        );
        // Enforce the missing-model contract before any mutation, so a
        // failed apply leaves the matrix untouched. The fresh-compute path
        // never consults the library for an empty batch; neither does this.
        model_buf.clear();
        if !requests.is_empty() {
            collect_slot_models_into(catalog, models, &delta.inserted, model_buf)?;
        }
        if let Some(remap) = &delta.remap {
            *self = self.remap_columns(remap);
        }
        debug_assert_eq!(self.cols + delta.inserted.len(), delta.target_cols);
        self.widen(delta.target_cols);
        for row in 0..self.rows {
            let base = row * self.cols;
            for &slot in &delta.retired {
                self.cells[base + slot] = f64::INFINITY;
            }
        }
        Ok(())
    }

    /// Grows the matrix to `new_cols` columns in place (backward row
    /// shifts), initializing the appended cells to `f64::INFINITY`.
    fn widen(&mut self, new_cols: usize) {
        let old_cols = self.cols;
        debug_assert!(new_cols >= old_cols, "widen never shrinks");
        if new_cols == old_cols {
            return;
        }
        self.cells.resize(self.rows * new_cols, f64::INFINITY);
        for row in (0..self.rows).rev() {
            self.cells
                .copy_within(row * old_cols..(row + 1) * old_cols, row * new_cols);
            self.cells[row * new_cols + old_cols..(row + 1) * new_cols].fill(f64::INFINITY);
        }
        self.cols = new_cols;
    }

    /// Aggregates each row into a per-request requirement over the `k`
    /// cheapest strategies (paper §3.2 step 2, the vector `~W`).
    ///
    /// Requests with fewer than `k` feasible strategies yield `None`: no
    /// amount of workforce lets the platform recommend `k` strategies, so the
    /// request must go to ADPaR.
    ///
    /// The selection heap and index buffer are reused across all `m` rows
    /// (`topk::k_smallest_aggregates_into`); the only per-row allocation left
    /// is the `strategy_indices` vector handed to the caller, and rows with
    /// fewer than `k` feasible strategies allocate nothing at all.
    #[must_use]
    pub fn aggregate(&self, k: usize, mode: AggregationMode) -> Vec<Option<RequestRequirement>> {
        let mut scratch = TopKScratch::new();
        let mut selected: Vec<usize> = Vec::new();
        (0..self.rows)
            .map(|i| aggregate_row(self.row(i), i, k, mode, &mut scratch, &mut selected))
            .collect()
    }
}

/// Aggregates one matrix row (the shared primitive of
/// [`WorkforceMatrix::aggregate`] and [`AggregationCache::repair`], so the
/// full and the repaired paths are the same code — bit-identical by
/// construction).
fn aggregate_row(
    row: &[f64],
    request_index: usize,
    k: usize,
    mode: AggregationMode,
    scratch: &mut TopKScratch,
    selected: &mut Vec<usize>,
) -> Option<RequestRequirement> {
    let aggregates = topk::k_smallest_aggregates_into(row, k, scratch, selected)?;
    let workforce = match mode {
        AggregationMode::Sum => aggregates.sum,
        AggregationMode::Max => aggregates.kth,
    };
    Some(RequestRequirement {
        request_index,
        strategy_indices: selected.clone(),
        workforce,
    })
}

/// Cached per-row top-k aggregations of a delta-maintained
/// [`WorkforceMatrix`], repaired lazily under churn.
///
/// [`WorkforceMatrix::aggregate`] walks all `m · |S|` cells; under churn
/// only a few rows can actually change. After the matrix absorbed a
/// [`CatalogDelta`] ([`WorkforceMatrix::apply_delta`]), [`Self::repair`]
/// re-aggregates a row **only when the delta can have moved its top-k**:
///
/// * a retired column intersects the row's current top-k (one of its
///   recommended cells just became `∞`), or
/// * an inserted column's cell beats the row's `k`-th value (a new strategy
///   enters the top-k; ties lose — appended slots carry the largest
///   indices, and selection tie-breaks by ascending index), or
/// * the row was infeasible (fewer than `k` finite cells) and an inserted
///   column is finite for it, or
/// * a compaction reclaimed one of its recommended slots
///   ([`RequestRequirement::remap`] answers `None`).
///
/// Everything else is provably unchanged and kept verbatim (surviving
/// requirements are renumbered through the window's remap in place). The
/// repaired state equals a fresh `aggregate` over the updated matrix bit
/// for bit — same helper, same cells — pinned per churn step by the
/// `tests/catalog_churn.rs` replay. The selection heap is a single
/// [`TopKScratch`] reused across every repair.
#[derive(Debug, Clone)]
pub struct AggregationCache {
    k: usize,
    mode: AggregationMode,
    /// Slot width of the matrix the cache last synchronized with.
    cols: usize,
    primed: bool,
    requirements: Vec<Option<RequestRequirement>>,
    scratch: TopKScratch,
    selected: Vec<usize>,
}

impl AggregationCache {
    /// An unprimed cache aggregating over the `k` cheapest strategies with
    /// `mode`.
    #[must_use]
    pub fn new(k: usize, mode: AggregationMode) -> Self {
        Self {
            k,
            mode,
            cols: 0,
            primed: false,
            requirements: Vec::new(),
            scratch: TopKScratch::new(),
            selected: Vec::new(),
        }
    }

    /// The cardinality constraint the cache aggregates with.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The aggregation mode the cache aggregates with.
    #[must_use]
    pub fn mode(&self) -> AggregationMode {
        self.mode
    }

    /// Whether [`Self::prime`] has run (repairs need a baseline).
    #[must_use]
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// The cached per-request requirements — identical to
    /// `matrix.aggregate(k, mode)` over the matrix last primed/repaired
    /// against. Empty before the first [`Self::prime`].
    #[must_use]
    pub fn requirements(&self) -> &[Option<RequestRequirement>] {
        &self.requirements
    }

    /// Fully (re-)aggregates `matrix`, making it the cache's baseline.
    pub fn prime(&mut self, matrix: &WorkforceMatrix) {
        self.requirements.clear();
        self.requirements.reserve(matrix.rows());
        for i in 0..matrix.rows() {
            self.requirements.push(aggregate_row(
                matrix.row(i),
                i,
                self.k,
                self.mode,
                &mut self.scratch,
                &mut self.selected,
            ));
        }
        self.cols = matrix.cols();
        self.primed = true;
    }

    /// Repairs the cache after `matrix` absorbed `delta`
    /// ([`WorkforceMatrix::apply_delta`] with the same delta), re-aggregating
    /// only the rows the delta can have changed. Returns the number of rows
    /// re-aggregated — proportional to the churn, not to `m`, in steady
    /// state. An unprimed cache falls back to a full [`Self::prime`].
    ///
    /// # Panics
    ///
    /// Panics when the cache or the matrix do not line up with the delta
    /// (wrong row count, cache synchronized at a different width, or the
    /// matrix has not absorbed the delta yet).
    pub fn repair(&mut self, matrix: &WorkforceMatrix, delta: &CatalogDelta) -> usize {
        if !self.primed {
            self.prime(matrix);
            return matrix.rows();
        }
        assert_eq!(
            self.requirements.len(),
            matrix.rows(),
            "cache row count must equal the matrix row count"
        );
        assert_eq!(
            self.cols, delta.source_cols,
            "cache was synchronized at a different slot width than the delta's source"
        );
        assert_eq!(
            matrix.cols(),
            delta.target_cols,
            "the matrix must absorb the delta before the cache repairs"
        );
        let mut repaired = 0;
        for i in 0..matrix.rows() {
            // Step 1: follow the window's compaction remap. A reclaimed
            // recommended slot means the row genuinely lost a strategy.
            let mut lost_to_compaction = false;
            if let Some(remap) = &delta.remap {
                if let Some(requirement) = &self.requirements[i] {
                    match requirement.remap(remap) {
                        Some(renumbered) => self.requirements[i] = Some(renumbered),
                        None => lost_to_compaction = true,
                    }
                }
            }
            // Step 2: decide whether the delta can have moved this row's
            // top-k at all.
            let row = matrix.row(i);
            let dirty = lost_to_compaction
                || match &self.requirements[i] {
                    // An infeasible row can only become feasible through a
                    // new finite cell.
                    None => delta.inserted.iter().any(|&slot| row[slot].is_finite()),
                    Some(requirement) => {
                        let retired_hit = requirement
                            .strategy_indices
                            .iter()
                            .any(|slot| delta.retired.binary_search(slot).is_ok());
                        retired_hit || {
                            // The k-th (largest) selected value; every
                            // selected cell is untouched here, since no
                            // retired column intersected the selection.
                            let kth = row[*requirement
                                .strategy_indices
                                .last()
                                .expect("a Some requirement selects k >= 1 strategies")];
                            // Strict `<`: an inserted slot has a larger
                            // index than every selected one (columns
                            // append), so it loses value ties.
                            delta.inserted.iter().any(|&slot| row[slot] < kth)
                        }
                    }
                };
            if dirty {
                self.requirements[i] = aggregate_row(
                    row,
                    i,
                    self.k,
                    self.mode,
                    &mut self.scratch,
                    &mut self.selected,
                );
                repaired += 1;
            }
        }
        self.cols = matrix.cols();
        repaired
    }
}

/// Hoists the per-cell model lookups of the scan path into one id-indexed
/// pass, returning a buffer parallel to the catalog slots. This also
/// enforces the missing-model contract for every **live** slot. Retired
/// slots keep a `None` placeholder: their model may have been dropped from
/// the library along with the strategy.
pub(crate) fn collect_live_models(
    catalog: &StrategyCatalog,
    models: &ModelLibrary,
) -> Result<Vec<Option<StrategyModel>>, StratRecError> {
    let mut out = Vec::with_capacity(catalog.slot_count());
    for (slot, strategy) in catalog.strategies().iter().enumerate() {
        out.push(if catalog.is_live(slot) {
            Some(*models.require(strategy.id)?)
        } else {
            None
        });
    }
    Ok(out)
}

/// The slot-subset variant of [`collect_live_models`]: collects the
/// models of exactly `slots` (the buffer comes back parallel to `slots`,
/// `None` for retired ones), enforcing the missing-model contract for the
/// live ones. The delta fill uses this so per-epoch model collection is
/// `O(churn)` instead of `O(|S|)`.
pub(crate) fn collect_slot_models_into(
    catalog: &StrategyCatalog,
    models: &ModelLibrary,
    slots: &[usize],
    out: &mut Vec<Option<StrategyModel>>,
) -> Result<(), StratRecError> {
    out.clear();
    out.reserve(slots.len());
    for &slot in slots {
        out.push(if catalog.is_live(slot) {
            Some(*models.require(catalog.strategy(slot).id)?)
        } else {
            None
        });
    }
    Ok(())
}

/// Fills one workforce-matrix row (pre-initialized to `f64::INFINITY`) for
/// `request`: the unit of work sharded across threads by
/// [`crate::engine::BatchEngine`] and run in a plain loop by
/// [`WorkforceMatrix::compute_with_catalog`]. `strategy_models` comes from
/// [`collect_live_models`] and is parallel to the catalog slots.
pub(crate) fn fill_catalog_row(
    request: &DeploymentRequest,
    catalog: &StrategyCatalog,
    strategy_models: &[Option<StrategyModel>],
    rule: EligibilityRule,
    row: &mut [f64],
) {
    match rule {
        EligibilityRule::StrategyParameters => {
            for j in catalog.eligible_for(&request.params) {
                let model = strategy_models[j].expect("eligible slots are live");
                row[j] = model.required_workforce(&request.params);
            }
        }
        EligibilityRule::ModelOnly => {
            for (cell, model) in row.iter_mut().zip(strategy_models) {
                if let Some(model) = model {
                    *cell = model.required_workforce(&request.params);
                }
            }
        }
    }
}

/// Computes the cells of the freshly appended `inserted` columns in one
/// (full-width, post-widening) matrix row: the unit of work sharded across
/// threads by [`crate::engine::BatchEngine::apply_matrix_delta`] and run in
/// a plain loop by [`WorkforceMatrix::apply_delta`]. `inserted_models` comes
/// from [`collect_slot_models_into`] and is parallel to `inserted`; `None`
/// entries (slots retired again within the window) leave their cell at
/// `f64::INFINITY`. Eligibility uses the same exact epsilon-tolerant
/// predicate as the R-tree query path, so the filled cells are identical to
/// a fresh [`fill_catalog_row`] over the updated catalog.
pub(crate) fn fill_inserted_cells(
    request: &DeploymentRequest,
    catalog: &StrategyCatalog,
    inserted: &[usize],
    inserted_models: &[Option<StrategyModel>],
    rule: EligibilityRule,
    row: &mut [f64],
) {
    for (&slot, model) in inserted.iter().zip(inserted_models) {
        let Some(model) = model else {
            continue; // retired within the window: the column stays infinite
        };
        let eligible = match rule {
            EligibilityRule::StrategyParameters => {
                catalog.strategy(slot).params.satisfies(&request.params)
            }
            EligibilityRule::ModelOnly => true,
        };
        if eligible {
            row[slot] = model.required_workforce(&request.params);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::WorkerAvailability;
    use crate::model::{DeploymentParameters, TaskType};
    use crate::modeling::StrategyModel;

    fn request(id: u64, q: f64, c: f64, l: f64) -> DeploymentRequest {
        DeploymentRequest::new(
            id,
            TaskType::SentenceTranslation,
            DeploymentParameters::new(q, c, l).unwrap(),
        )
    }

    fn example_setup() -> (Vec<DeploymentRequest>, Vec<Strategy>, ModelLibrary) {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let models = crate::examples_data::running_example_models();
        (requests, strategies, models)
    }

    #[test]
    fn matrix_shape_and_cells() {
        let (requests, strategies, models) = example_setup();
        let matrix = WorkforceMatrix::compute(&requests, &strategies, &models).unwrap();
        assert_eq!(matrix.rows(), 3);
        assert_eq!(matrix.cols(), 4);
        assert_eq!(matrix.row(0).len(), 4);
        // d1 and d2 have no eligible strategies: whole rows are infinite.
        assert!(matrix.row(0).iter().all(|w| w.is_infinite()));
        assert!(matrix.row(1).iter().all(|w| w.is_infinite()));
        // d3 can use s2, s3, s4 with finite workforce; s1 is ineligible.
        assert!(matrix.get(2, 0).is_infinite());
        for j in 1..4 {
            assert!(matrix.get(2, j).is_finite());
            assert!(matrix.get(2, j) <= 1.0);
        }
    }

    #[test]
    fn catalog_path_matches_scan_path_on_running_example() {
        let (requests, strategies, models) = example_setup();
        let catalog = crate::catalog::StrategyCatalog::from_slice(&strategies);
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let scan =
                WorkforceMatrix::compute_with_rule(&requests, &strategies, &models, rule).unwrap();
            let indexed =
                WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
            assert_eq!(scan, indexed, "{rule:?}");
        }
    }

    #[test]
    fn catalog_path_empty_batch_matches_scan_even_without_models() {
        // The scan path never consults the model library when the batch is
        // empty; the catalog path must not either.
        let strategies = crate::examples_data::running_example_strategies();
        let catalog = crate::catalog::StrategyCatalog::from_slice(&strategies);
        let empty_models = ModelLibrary::new();
        let scan = WorkforceMatrix::compute(&[], &strategies, &empty_models).unwrap();
        let indexed = WorkforceMatrix::compute_with_catalog(
            &[],
            &catalog,
            &empty_models,
            EligibilityRule::default(),
        )
        .unwrap();
        assert_eq!(scan, indexed);
        assert_eq!(indexed.rows(), 0);
        assert_eq!(indexed.cols(), strategies.len());
        // With a non-empty batch the missing-model contract still applies.
        let requests = crate::examples_data::running_example_requests();
        assert!(matches!(
            WorkforceMatrix::compute_with_catalog(
                &requests,
                &catalog,
                &empty_models,
                EligibilityRule::default(),
            ),
            Err(StratRecError::MissingModel { .. })
        ));
    }

    #[test]
    fn remapped_columns_match_a_fresh_compute_over_the_compacted_catalog() {
        let (requests, strategies, _) = example_setup();
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let mut catalog = crate::catalog::StrategyCatalog::from_slice(&strategies);
            catalog.insert(Strategy::from_params(
                9,
                DeploymentParameters::clamped(0.8, 0.3, 0.3),
            ));
            assert!(catalog.retire(0));
            assert!(catalog.retire(2));
            // The pre-compaction matrix carries the dead columns...
            let models =
                ModelLibrary::uniform_for(catalog.strategies(), StrategyModel::uniform(1.0, 0.0));
            let wide =
                WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
            assert_eq!(wide.cols(), 5);

            // ...and sheds exactly them through the remap, landing on the
            // same cells a recompute over the compacted catalog produces.
            let remap = catalog.compact();
            let narrow = wide.remap_columns(&remap);
            assert_eq!(narrow.cols(), catalog.len());
            assert_eq!(narrow.rows(), wide.rows());
            let recomputed =
                WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
            assert_eq!(narrow, recomputed, "{rule:?}");
        }
    }

    #[test]
    #[should_panic(expected = "pre-compaction slot count")]
    fn remap_columns_validates_the_width() {
        let mut catalog = crate::catalog::StrategyCatalog::new(vec![Strategy::from_params(
            0,
            DeploymentParameters::clamped(0.8, 0.2, 0.2),
        )]);
        let remap = catalog.compact();
        let _ = WorkforceMatrix::from_cells(1, 3, vec![0.0; 3]).remap_columns(&remap);
    }

    #[test]
    fn request_requirements_remap_through_a_compaction() {
        let mut catalog = crate::catalog::StrategyCatalog::new(vec![
            Strategy::from_params(0, DeploymentParameters::clamped(0.8, 0.2, 0.2)),
            Strategy::from_params(1, DeploymentParameters::clamped(0.7, 0.3, 0.3)),
            Strategy::from_params(2, DeploymentParameters::clamped(0.6, 0.4, 0.4)),
        ]);
        assert!(catalog.retire(1));
        let remap = catalog.compact();
        let requirement = RequestRequirement {
            request_index: 3,
            strategy_indices: vec![0, 2],
            workforce: 0.4,
        };
        let remapped = requirement.remap(&remap).unwrap();
        assert_eq!(remapped.strategy_indices, vec![0, 1]);
        assert_eq!(remapped.request_index, 3);
        assert!((remapped.workforce - 0.4).abs() < 1e-12);
        // A requirement recommending the reclaimed slot is stale.
        let stale = RequestRequirement {
            strategy_indices: vec![0, 1],
            ..requirement
        };
        assert!(stale.remap(&remap).is_none());
    }

    #[test]
    fn model_only_rule_ignores_strategy_parameters() {
        let (requests, strategies, models) = example_setup();
        let matrix = WorkforceMatrix::compute_with_rule(
            &requests,
            &strategies,
            &models,
            EligibilityRule::ModelOnly,
        )
        .unwrap();
        // With the uniform synthetic model every cell is finite.
        for i in 0..matrix.rows() {
            for j in 0..matrix.cols() {
                assert!(matrix.get(i, j).is_finite());
            }
        }
    }

    #[test]
    fn missing_model_is_an_error() {
        let (requests, strategies, _) = example_setup();
        let empty = ModelLibrary::new();
        assert!(matches!(
            WorkforceMatrix::compute(&requests, &strategies, &empty),
            Err(StratRecError::MissingModel { .. })
        ));
    }

    #[test]
    fn sum_and_max_aggregation_differ_as_expected() {
        // One request, four strategies with known requirements.
        let matrix = WorkforceMatrix::from_cells(1, 4, vec![0.4, 0.1, 0.3, 0.2]);
        let sum = matrix.aggregate(3, AggregationMode::Sum);
        let max = matrix.aggregate(3, AggregationMode::Max);
        let sum = sum[0].as_ref().unwrap();
        let max = max[0].as_ref().unwrap();
        assert_eq!(sum.strategy_indices, vec![1, 3, 2]);
        assert!((sum.workforce - 0.6).abs() < 1e-12);
        assert_eq!(max.strategy_indices, vec![1, 3, 2]);
        assert!((max.workforce - 0.3).abs() < 1e-12);
        assert!(max.workforce <= sum.workforce);
    }

    #[test]
    fn infeasible_rows_aggregate_to_none() {
        let matrix = WorkforceMatrix::from_cells(
            2,
            3,
            vec![
                0.2,
                f64::INFINITY,
                f64::INFINITY, // only one feasible strategy
                0.1,
                0.2,
                0.3, // fully feasible
            ],
        );
        let agg = matrix.aggregate(2, AggregationMode::Sum);
        assert!(agg[0].is_none());
        let r1 = agg[1].as_ref().unwrap();
        assert_eq!(r1.request_index, 1);
        assert_eq!(r1.strategy_indices, vec![0, 1]);
        assert!((r1.workforce - 0.3).abs() < 1e-12);
    }

    #[test]
    fn k_zero_aggregates_to_none() {
        let matrix = WorkforceMatrix::from_cells(1, 2, vec![0.1, 0.2]);
        assert!(matrix.aggregate(0, AggregationMode::Sum)[0].is_none());
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn from_cells_validates_dimensions() {
        let _ = WorkforceMatrix::from_cells(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn running_example_d3_is_deployable_within_availability() {
        let (requests, strategies, models) = example_setup();
        let matrix = WorkforceMatrix::compute(&requests, &strategies, &models).unwrap();
        let agg = matrix.aggregate(3, AggregationMode::Max);
        // d3 gets exactly {s2, s3, s4} (indices 1, 2, 3) and fits in W = 0.8.
        let d3 = agg[2].as_ref().unwrap();
        let mut sorted = d3.strategy_indices.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
        assert!(d3.workforce <= WorkerAvailability::new(0.8).unwrap().value());
        assert!(agg[0].is_none());
        assert!(agg[1].is_none());
    }

    #[test]
    fn eligibility_uses_request_thresholds() {
        // A request satisfied by exactly one strategy.
        let strategies = vec![
            Strategy::from_params(0, DeploymentParameters::new(0.9, 0.1, 0.1).unwrap()),
            Strategy::from_params(1, DeploymentParameters::new(0.3, 0.1, 0.1).unwrap()),
        ];
        let models = ModelLibrary::uniform_for(&strategies, StrategyModel::uniform(1.0, 0.0));
        let requests = vec![request(0, 0.8, 0.5, 0.5)];
        let matrix = WorkforceMatrix::compute(&requests, &strategies, &models).unwrap();
        assert!(matrix.get(0, 0).is_finite());
        assert!(matrix.get(0, 1).is_infinite());
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "request row 3 out of bounds")
    )]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "index out of bounds"))]
    fn get_reports_the_offending_row() {
        let _ = WorkforceMatrix::from_cells(2, 2, vec![0.0; 4]).get(3, 0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "strategy column 5 out of bounds")
    )]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "index out of bounds"))]
    fn get_reports_the_offending_column() {
        let _ = WorkforceMatrix::from_cells(2, 2, vec![0.0; 4]).get(1, 5);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "request row 2 out of bounds")
    )]
    #[cfg_attr(not(debug_assertions), should_panic(expected = "out of range"))]
    fn row_reports_the_offending_row() {
        let _ = WorkforceMatrix::from_cells(2, 2, vec![0.0; 4]).row(2);
    }

    /// A deterministic, id-varied model so churned matrices have a genuine
    /// mix of finite / infinite cells and distinct top-k orders.
    fn varied_model(id: u64) -> StrategyModel {
        let alpha = 0.35 + ((id * 37) % 50) as f64 / 100.0;
        StrategyModel::uniform(alpha, 1.0 - alpha)
    }

    fn varied_strategy(id: u64) -> Strategy {
        let q = 0.3 + ((id * 13) % 60) as f64 / 100.0;
        let c = 0.2 + ((id * 29) % 70) as f64 / 100.0;
        let l = 0.1 + ((id * 17) % 80) as f64 / 100.0;
        Strategy::from_params(id, DeploymentParameters::clamped(q, c, l))
    }

    /// Churned-window fixture: catalog + library + standing requests.
    fn churn_fixture() -> (
        crate::catalog::StrategyCatalog,
        ModelLibrary,
        Vec<DeploymentRequest>,
    ) {
        let strategies: Vec<Strategy> = (0..24).map(varied_strategy).collect();
        let models =
            ModelLibrary::from_pairs(strategies.iter().map(|s| (s.id, varied_model(s.id.0))));
        let catalog = crate::catalog::StrategyCatalog::with_policy(
            strategies,
            crate::catalog::RebuildPolicy::threshold(4),
        );
        let requests = vec![
            request(0, 0.55, 0.8, 0.8),
            request(1, 0.8, 0.6, 0.7),
            request(2, 0.2, 0.95, 0.95),
            request(3, 0.95, 0.2, 0.2),
        ];
        (catalog, models, requests)
    }

    #[test]
    fn apply_delta_matches_a_fresh_recompute_across_churn_and_compaction() {
        // The delta-maintained matrix must stay bit-identical to a fresh
        // fill across inserts, retires and compactions, and the caches —
        // which route through the shared fused top-k primitive — must track
        // exactly.
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let (mut catalog, mut models, requests) = churn_fixture();
            let mut matrix =
                WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
            let mut cache_sum = AggregationCache::new(3, AggregationMode::Sum);
            let mut cache_max = AggregationCache::new(3, AggregationMode::Max);
            cache_sum.prime(&matrix);
            cache_max.prime(&matrix);
            let sub = catalog.subscribe_delta();
            let mut next_id = 24_u64;
            let mut model_buf = Vec::new();

            // Five churn windows; the third and fifth compact mid-window.
            for window in 0..5 {
                for _ in 0..3 {
                    let strategy = varied_strategy(next_id);
                    models.insert(strategy.id, varied_model(next_id));
                    catalog.insert(strategy);
                    next_id += 1;
                }
                let live = catalog.live_indices();
                assert!(catalog.retire(live[window % live.len()]));
                assert!(catalog.retire(live[(window * 7 + 2) % live.len()]));
                if window == 2 || window == 4 {
                    catalog.compact();
                    // Churn continues after the compaction, same window.
                    let strategy = varied_strategy(next_id);
                    models.insert(strategy.id, varied_model(next_id));
                    catalog.insert(strategy);
                    next_id += 1;
                }

                let delta = catalog.take_delta(&sub).unwrap();
                matrix
                    .apply_delta_with_scratch(
                        &delta,
                        &requests,
                        &catalog,
                        &models,
                        rule,
                        &mut model_buf,
                    )
                    .unwrap();
                let fresh =
                    WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule)
                        .unwrap();
                assert_eq!(matrix, fresh, "{rule:?}, window {window}");

                let repaired = cache_sum.repair(&matrix, &delta);
                assert!(repaired <= matrix.rows(), "{rule:?}, window {window}");
                cache_max.repair(&matrix, &delta);
                assert_eq!(
                    cache_sum.requirements(),
                    &matrix.aggregate(3, AggregationMode::Sum)[..],
                    "{rule:?}, window {window}, sum"
                );
                assert_eq!(
                    cache_max.requirements(),
                    &matrix.aggregate(3, AggregationMode::Max)[..],
                    "{rule:?}, window {window}, max"
                );
            }
        }
    }

    #[test]
    fn apply_delta_rejects_a_delta_the_catalog_moved_past() {
        let (mut catalog, models, requests) = churn_fixture();
        let rule = EligibilityRule::StrategyParameters;
        let mut matrix =
            WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
        let sub = catalog.subscribe_delta();
        assert!(catalog.retire(0));
        let delta = catalog.take_delta(&sub).unwrap();
        // The catalog mutates again before the delta is applied.
        assert!(catalog.retire(1));
        let before = matrix.clone();
        assert!(matches!(
            matrix.apply_delta(&delta, &requests, &catalog, &models, rule),
            Err(StratRecError::StaleCatalog { .. })
        ));
        assert_eq!(matrix, before, "a failed apply must not mutate the matrix");
    }

    #[test]
    fn apply_delta_missing_inserted_model_fails_before_mutating() {
        let (mut catalog, models, requests) = churn_fixture();
        let rule = EligibilityRule::StrategyParameters;
        let mut matrix =
            WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule).unwrap();
        let sub = catalog.subscribe_delta();
        catalog.insert(varied_strategy(999)); // no model registered
        assert!(catalog.retire(0));
        let delta = catalog.take_delta(&sub).unwrap();
        let before = matrix.clone();
        assert!(matches!(
            matrix.apply_delta(&delta, &requests, &catalog, &models, rule),
            Err(StratRecError::MissingModel { strategy: 999 })
        ));
        assert_eq!(matrix, before);
    }

    #[test]
    fn empty_deltas_and_empty_batches_apply_cleanly() {
        let (mut catalog, models, _) = churn_fixture();
        let rule = EligibilityRule::StrategyParameters;
        // Zero-row matrices still track the column count through a delta,
        // without ever consulting the model library.
        let empty_models = ModelLibrary::new();
        let mut matrix =
            WorkforceMatrix::compute_with_catalog(&[], &catalog, &empty_models, rule).unwrap();
        let sub = catalog.subscribe_delta();
        let noop = catalog.take_delta(&sub).unwrap();
        assert!(noop.is_empty());
        matrix
            .apply_delta(&noop, &[], &catalog, &empty_models, rule)
            .unwrap();
        catalog.insert(varied_strategy(500));
        assert!(catalog.retire(3));
        let delta = catalog.take_delta(&sub).unwrap();
        matrix
            .apply_delta(&delta, &[], &catalog, &empty_models, rule)
            .unwrap();
        assert_eq!(matrix.rows(), 0);
        assert_eq!(matrix.cols(), catalog.slot_count());
        let _ = models;
    }

    #[test]
    fn cache_repair_skips_rows_the_delta_cannot_have_changed() {
        // Two rows over four slots; the churn only touches slots outside
        // row 0's top-2 and only beats row 1's k-th value.
        let mut matrix = WorkforceMatrix::from_cells(
            2,
            4,
            vec![
                0.1, 0.2, 0.9, 0.8, // row 0: top-2 = {0, 1}
                0.7, 0.6, 0.5, 0.4, // row 1: top-2 = {3, 2}
            ],
        );
        let catalog_stub =
            |retired: Vec<usize>, inserted: Vec<usize>| crate::catalog::CatalogDelta {
                from_epoch: 0,
                to_epoch: 1,
                source_cols: 4,
                target_cols: 4 + inserted.len(),
                remap: None,
                inserted,
                retired,
            };
        let mut cache = AggregationCache::new(2, AggregationMode::Sum);
        cache.prime(&matrix);
        assert!(cache.is_primed());
        assert_eq!(cache.k(), 2);
        assert_eq!(cache.mode(), AggregationMode::Sum);

        // Retiring slot 2 hits row 1's top-2 but not row 0's.
        let delta = catalog_stub(vec![2], vec![]);
        for row in 0..2 {
            let cells = matrix.row(row).to_vec();
            let mut cells = cells;
            cells[2] = f64::INFINITY;
            for (j, v) in cells.into_iter().enumerate() {
                // Rebuild the matrix cell-by-cell to emulate apply_delta's
                // retired write without a catalog.
                let idx = row * 4 + j;
                matrix.cells_mut()[idx] = v;
            }
        }
        let repaired = cache.repair(&matrix, &delta);
        assert_eq!(repaired, 1, "only row 1 re-aggregates");
        assert_eq!(
            cache.requirements(),
            &matrix.aggregate(2, AggregationMode::Sum)[..]
        );

        // An appended column that beats only row 0's k-th value.
        let wide = WorkforceMatrix::from_cells(
            2,
            5,
            vec![
                0.1,
                0.2,
                f64::INFINITY,
                0.8,
                0.15, // beats row 0's 0.2
                0.7,
                0.6,
                f64::INFINITY,
                0.4,
                0.95, // worse than row 1's 0.7
            ],
        );
        let delta = crate::catalog::CatalogDelta {
            from_epoch: 1,
            to_epoch: 2,
            source_cols: 4,
            target_cols: 5,
            remap: None,
            inserted: vec![4],
            retired: vec![],
        };
        let repaired = cache.repair(&wide, &delta);
        assert_eq!(repaired, 1, "only row 0 re-aggregates");
        assert_eq!(
            cache.requirements(),
            &wide.aggregate(2, AggregationMode::Sum)[..]
        );
    }

    #[test]
    fn cache_ties_on_the_kth_value_leave_the_row_untouched() {
        // The appended slot ties row 0's k-th value: selection tie-breaks by
        // ascending index, and appended slots have the largest index, so the
        // cached selection must stand and the row must not re-aggregate.
        let matrix = WorkforceMatrix::from_cells(1, 3, vec![0.1, 0.2, 0.2]);
        let mut cache = AggregationCache::new(2, AggregationMode::Sum);
        cache.prime(&WorkforceMatrix::from_cells(1, 2, vec![0.1, 0.2]));
        let delta = crate::catalog::CatalogDelta {
            from_epoch: 0,
            to_epoch: 1,
            source_cols: 2,
            target_cols: 3,
            remap: None,
            inserted: vec![2],
            retired: vec![],
        };
        assert_eq!(cache.repair(&matrix, &delta), 0);
        assert_eq!(
            cache.requirements(),
            &matrix.aggregate(2, AggregationMode::Sum)[..]
        );
    }

    #[test]
    fn cache_infeasible_rows_revive_through_inserted_columns() {
        let matrix = WorkforceMatrix::from_cells(1, 2, vec![0.4, f64::INFINITY]);
        let mut cache = AggregationCache::new(2, AggregationMode::Max);
        cache.prime(&matrix);
        assert_eq!(cache.requirements(), &[None]);
        let wide = WorkforceMatrix::from_cells(1, 3, vec![0.4, f64::INFINITY, 0.9]);
        let delta = crate::catalog::CatalogDelta {
            from_epoch: 0,
            to_epoch: 1,
            source_cols: 2,
            target_cols: 3,
            remap: None,
            inserted: vec![2],
            retired: vec![],
        };
        assert_eq!(cache.repair(&wide, &delta), 1);
        let req = cache.requirements()[0].as_ref().unwrap();
        assert_eq!(req.strategy_indices, vec![0, 2]);
        assert!((req.workforce - 0.9).abs() < 1e-12);
        assert_eq!(
            cache.requirements(),
            &wide.aggregate(2, AggregationMode::Max)[..]
        );
    }

    #[test]
    fn cache_unprimed_repair_falls_back_to_prime() {
        let matrix = WorkforceMatrix::from_cells(1, 4, vec![0.4, 0.3, 0.2, 0.1]);
        let mut cache = AggregationCache::new(2, AggregationMode::Max);
        let delta = crate::catalog::CatalogDelta {
            from_epoch: 0,
            to_epoch: 0,
            source_cols: 4,
            target_cols: 4,
            remap: None,
            inserted: vec![],
            retired: vec![],
        };
        assert_eq!(cache.repair(&matrix, &delta), 1);
        assert!(cache.is_primed());
        assert_eq!(
            cache.requirements(),
            &matrix.aggregate(2, AggregationMode::Max)[..]
        );
    }
}
