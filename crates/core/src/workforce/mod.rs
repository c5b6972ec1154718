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
//! On the catalog path a request's row is never materialised. The serving
//! path ([`crate::engine::BatchEngine::requirements`]) walks the request's
//! eligible slots through the catalog's R-tree, inverts each slot's model in
//! `f64` and streams the value into a bounded top-k heap: one
//! `O(eligible)` pass per row instead of an `O(slot_count)` fill plus an
//! `O(slot_count)` scan.
//!
//! The dense [`WorkforceMatrix`] stays as the paper's object: the slice/scan
//! path builds it ([`WorkforceMatrix::compute_with_rule`]), the catalog fill
//! ([`crate::engine::BatchEngine::workforce_matrix`]) evaluates the same
//! cells as the streamed pass, and it is the oracle the streamed
//! requirements are tested and replayed against. The delta fill of inserted
//! columns ([`crate::engine::BatchEngine::apply_matrix_delta`]) evaluates
//! the same per-cell arithmetic, so a delta-maintained matrix equals a cold
//! fill bit for bit.
//!
//! Aggregation has one comparator. The streamed path, the cold
//! [`WorkforceMatrix::aggregate`] and the delta-repaired
//! [`AggregationCache`] all reduce a row through one private
//! `RowAggregator` and the same top-k `begin` / `offer` / `finish` stream,
//! whose `(value, index)` order makes the selection independent of the
//! order cells are offered in. So all three agree bit for bit.

use serde::{Deserialize, Serialize};
use stratrec_optim::topk::{self, TopKAggregates, TopKScratch};

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
    /// Computes the matrix for a batch of requests against a strategy set by
    /// scanning every (request, strategy) pair, consulting `models` for the
    /// per-strategy linear models and deciding eligibility by `rule`.
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
    /// Panics when `request >= self.rows()` or `strategy >= self.cols()`,
    /// naming the offending row or column.
    #[must_use]
    pub fn get(&self, request: usize, strategy: usize) -> f64 {
        self.check_row(request);
        assert!(
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
    /// Panics when `request >= self.rows()`, naming the offending row.
    #[must_use]
    pub fn row(&self, request: usize) -> &[f64] {
        self.check_row(request);
        &self.cells[request * self.cols..(request + 1) * self.cols]
    }

    fn check_row(&self, request: usize) {
        assert!(
            request < self.rows,
            "request row {request} out of bounds for a {}x{} workforce matrix",
            self.rows,
            self.cols
        );
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
    /// the result is **identical** to
    /// [`crate::engine::BatchEngine::workforce_matrix`] over the compacted
    /// catalog (same requests, models and rule), which the engine
    /// regression tests pin.
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

    /// Every step of [`crate::engine::BatchEngine::apply_matrix_delta`]
    /// except the inserted-cell model fill, which the engine shards across
    /// threads: validation, model collection (into `model_buf`, parallel to
    /// `delta.inserted`), the remap, the widening and the retired-column `∞`
    /// writes.
    pub(crate) fn absorb_delta_structure(
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
        // failed apply leaves the matrix untouched. The fresh fill never
        // consults the library for an empty batch; neither does this.
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
    /// One `RowAggregator` is reused across all `m` rows; the only per-row
    /// allocation left is the `strategy_indices` vector handed to the caller,
    /// and rows with fewer than `k` feasible strategies allocate nothing at
    /// all.
    #[must_use]
    pub fn aggregate(&self, k: usize, mode: AggregationMode) -> Vec<Option<RequestRequirement>> {
        let mut aggregator = RowAggregator::new(k, mode);
        (0..self.rows)
            .map(|i| aggregator.matrix_row(self.row(i), i))
            .collect()
    }
}

/// Reduces rows to [`RequestRequirement`]s over the `k` cheapest cells,
/// reusing one top-k scratch and index buffer across rows.
///
/// Both row sources end in the same [`TopKScratch`] `begin` / `offer` /
/// `finish` stream: a materialised matrix row offers every cell
/// ([`Self::matrix_row`]), a catalog row offers only the cells that can be
/// finite ([`Self::catalog_row`]). The skipped cells are `∞`, which the
/// selection ignores, and the selection does not depend on offer order, so
/// the two are bit-identical.
#[derive(Debug, Clone)]
pub(crate) struct RowAggregator {
    k: usize,
    mode: AggregationMode,
    scratch: TopKScratch,
    selected: Vec<usize>,
}

impl RowAggregator {
    pub(crate) fn new(k: usize, mode: AggregationMode) -> Self {
        Self {
            k,
            mode,
            scratch: TopKScratch::new(),
            selected: Vec::new(),
        }
    }

    /// The requirement of one materialised matrix row.
    fn matrix_row(&mut self, row: &[f64], request_index: usize) -> Option<RequestRequirement> {
        let aggregates =
            topk::k_smallest_aggregates_into(row, self.k, &mut self.scratch, &mut self.selected);
        self.requirement(aggregates, request_index)
    }

    /// The requirement of `request`'s catalog row, streamed from the cells
    /// [`for_each_catalog_cell`] evaluates without building the row: equal
    /// to `matrix_row` over the [`fill_catalog_row`] row.
    pub(crate) fn catalog_row(
        &mut self,
        request: &DeploymentRequest,
        request_index: usize,
        catalog: &StrategyCatalog,
        strategy_models: &[Option<&StrategyModel>],
        rule: EligibilityRule,
    ) -> Option<RequestRequirement> {
        let scratch = &mut self.scratch;
        scratch.begin(self.k);
        for_each_catalog_cell(request, catalog, strategy_models, rule, |slot, value| {
            scratch.offer(value, slot);
        });
        let aggregates = scratch.finish(&mut self.selected);
        self.requirement(aggregates, request_index)
    }

    fn requirement(
        &self,
        aggregates: Option<TopKAggregates>,
        request_index: usize,
    ) -> Option<RequestRequirement> {
        let aggregates = aggregates?;
        let workforce = match self.mode {
            AggregationMode::Sum => aggregates.sum,
            AggregationMode::Max => aggregates.kth,
        };
        Some(RequestRequirement {
            request_index,
            strategy_indices: self.selected.clone(),
            workforce,
        })
    }
}

/// Cached per-row top-k aggregations of a delta-maintained
/// [`WorkforceMatrix`], repaired lazily under churn.
///
/// [`WorkforceMatrix::aggregate`] walks all `m · |S|` cells; under churn
/// only a few rows can actually change. After the matrix absorbed a
/// [`CatalogDelta`] ([`crate::engine::BatchEngine::apply_matrix_delta`]),
/// [`Self::repair`]
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
    aggregator: RowAggregator,
    /// Slot width of the matrix the cache last synchronized with.
    cols: usize,
    primed: bool,
    requirements: Vec<Option<RequestRequirement>>,
}

impl AggregationCache {
    /// An unprimed cache aggregating over the `k` cheapest strategies with
    /// `mode`.
    #[must_use]
    pub fn new(k: usize, mode: AggregationMode) -> Self {
        Self {
            aggregator: RowAggregator::new(k, mode),
            cols: 0,
            primed: false,
            requirements: Vec::new(),
        }
    }

    /// The cardinality constraint the cache aggregates with.
    #[must_use]
    pub fn k(&self) -> usize {
        self.aggregator.k
    }

    /// The aggregation mode the cache aggregates with.
    #[must_use]
    pub fn mode(&self) -> AggregationMode {
        self.aggregator.mode
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
            self.requirements
                .push(self.aggregator.matrix_row(matrix.row(i), i));
        }
        self.cols = matrix.cols();
        self.primed = true;
    }

    /// Repairs the cache after `matrix` absorbed `delta`
    /// ([`crate::engine::BatchEngine::apply_matrix_delta`] with the same
    /// delta), re-aggregating
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
                self.requirements[i] = self.aggregator.matrix_row(row, i);
                repaired += 1;
            }
        }
        self.cols = matrix.cols();
        repaired
    }
}

/// Hoists the per-cell model lookups of the scan path into one id-indexed
/// pass, returning references into `models` parallel to the catalog slots
/// (8 bytes a slot, so the per-window buffer stays small). This also
/// enforces the missing-model contract for every **live** slot. Retired
/// slots keep a `None` placeholder: their model may have been dropped from
/// the library along with the strategy.
pub(crate) fn collect_live_models<'m>(
    catalog: &StrategyCatalog,
    models: &'m ModelLibrary,
) -> Result<Vec<Option<&'m StrategyModel>>, StratRecError> {
    let mut out = Vec::with_capacity(catalog.slot_count());
    for (slot, strategy) in catalog.strategies().iter().enumerate() {
        out.push(if catalog.is_live(slot) {
            Some(models.require(strategy.id)?)
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

/// Calls `visit(slot, value)` for every cell of `request`'s catalog row
/// that can be finite, in no particular order: under
/// [`EligibilityRule::StrategyParameters`] the eligible slots
/// ([`StrategyCatalog::for_each_eligible`]), under
/// [`EligibilityRule::ModelOnly`] every live slot. Each visited cell inverts
/// its slot's model; every other cell of the row is `f64::INFINITY`.
/// `strategy_models` comes from [`collect_live_models`] and is parallel to
/// the catalog slots.
fn for_each_catalog_cell<F: FnMut(usize, f64)>(
    request: &DeploymentRequest,
    catalog: &StrategyCatalog,
    strategy_models: &[Option<&StrategyModel>],
    rule: EligibilityRule,
    mut visit: F,
) {
    match rule {
        EligibilityRule::StrategyParameters => catalog.for_each_eligible(&request.params, |slot| {
            let model = strategy_models[slot].expect("eligible slots are live");
            visit(slot, model.required_workforce(&request.params));
        }),
        EligibilityRule::ModelOnly => {
            for (slot, model) in strategy_models.iter().enumerate() {
                if let Some(model) = model {
                    visit(slot, model.required_workforce(&request.params));
                }
            }
        }
    }
}

/// Fills one workforce-matrix row (pre-initialized to `f64::INFINITY`) for
/// `request` with the cells [`for_each_catalog_cell`] evaluates: the unit
/// of work [`crate::engine::BatchEngine::workforce_matrix`] shards across
/// threads.
pub(crate) fn fill_catalog_row(
    request: &DeploymentRequest,
    catalog: &StrategyCatalog,
    strategy_models: &[Option<&StrategyModel>],
    rule: EligibilityRule,
    row: &mut [f64],
) {
    for_each_catalog_cell(request, catalog, strategy_models, rule, |slot, value| {
        row[slot] = value;
    });
}

/// Computes the cells of the freshly appended `inserted` columns in one
/// (full-width, post-widening) matrix row: the unit of work
/// [`crate::engine::BatchEngine::apply_matrix_delta`] shards across threads.
/// `inserted_models` comes
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
    use crate::engine::BatchEngine;
    use crate::model::{DeploymentParameters, TaskType};
    use crate::modeling::StrategyModel;

    fn request(id: u64, q: f64, c: f64, l: f64) -> DeploymentRequest {
        DeploymentRequest::new(
            id,
            TaskType::SentenceTranslation,
            DeploymentParameters::new(q, c, l).unwrap(),
        )
    }

    /// The scan path under the default eligibility rule.
    fn scan(
        requests: &[DeploymentRequest],
        strategies: &[Strategy],
        models: &ModelLibrary,
    ) -> Result<WorkforceMatrix, StratRecError> {
        WorkforceMatrix::compute_with_rule(requests, strategies, models, EligibilityRule::default())
    }

    /// The catalog fill on one thread.
    fn fill(
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
    ) -> WorkforceMatrix {
        BatchEngine::sequential()
            .workforce_matrix(requests, catalog, models, rule)
            .unwrap()
    }

    /// The delta apply on one thread, with a throwaway model buffer.
    fn apply(
        matrix: &mut WorkforceMatrix,
        delta: &CatalogDelta,
        requests: &[DeploymentRequest],
        catalog: &StrategyCatalog,
        models: &ModelLibrary,
        rule: EligibilityRule,
    ) -> Result<(), StratRecError> {
        BatchEngine::sequential().apply_matrix_delta(
            matrix,
            delta,
            requests,
            catalog,
            models,
            rule,
            &mut Vec::new(),
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
        let matrix = scan(&requests, &strategies, &models).unwrap();
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
    fn remapped_columns_match_a_fresh_compute_over_the_compacted_catalog() {
        let (requests, strategies, _) = example_setup();
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let mut catalog = StrategyCatalog::new(strategies.as_slice());
            catalog.insert(Strategy::from_params(
                9,
                DeploymentParameters::clamped(0.8, 0.3, 0.3),
            ));
            assert!(catalog.retire(0));
            assert!(catalog.retire(2));
            // The pre-compaction matrix carries the dead columns...
            let models =
                ModelLibrary::uniform_for(catalog.strategies(), StrategyModel::uniform(1.0, 0.0));
            let wide = fill(&requests, &catalog, &models, rule);
            assert_eq!(wide.cols(), 5);

            // ...and sheds exactly them through the remap, landing on the
            // same cells a recompute over the compacted catalog produces.
            let remap = catalog.compact();
            let narrow = wide.remap_columns(&remap);
            assert_eq!(narrow.cols(), catalog.len());
            assert_eq!(narrow.rows(), wide.rows());
            let recomputed = fill(&requests, &catalog, &models, rule);
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
            scan(&requests, &strategies, &empty),
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
        let matrix = scan(&requests, &strategies, &models).unwrap();
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
        let matrix = scan(&requests, &strategies, &models).unwrap();
        assert!(matrix.get(0, 0).is_finite());
        assert!(matrix.get(0, 1).is_infinite());
    }

    #[test]
    #[should_panic(expected = "request row 3 out of bounds for a 2x2 workforce matrix")]
    fn get_reports_the_offending_row() {
        let _ = WorkforceMatrix::from_cells(2, 2, vec![0.0; 4]).get(3, 0);
    }

    #[test]
    #[should_panic(expected = "strategy column 5 out of bounds for a 2x2 workforce matrix")]
    fn get_reports_the_offending_column() {
        let _ = WorkforceMatrix::from_cells(2, 2, vec![0.0; 4]).get(1, 5);
    }

    /// A column one past the end still lies inside the cell buffer (it is
    /// the first cell of the next row), so only the explicit check catches
    /// it.
    #[test]
    #[should_panic(expected = "strategy column 2 out of bounds for a 2x2 workforce matrix")]
    fn get_rejects_a_column_that_aliases_the_next_row() {
        let _ = WorkforceMatrix::from_cells(2, 2, vec![1.0, 2.0, 3.0, 4.0]).get(0, 2);
    }

    #[test]
    #[should_panic(expected = "request row 2 out of bounds for a 2x2 workforce matrix")]
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
    fn delta_apply_and_cache_repair_match_a_fresh_fill_across_churn_and_compaction() {
        // The delta-maintained matrix must stay bit-identical to a fresh
        // fill across inserts, retires and compactions, and the caches —
        // which route through the shared fused top-k primitive — must track
        // exactly.
        for rule in [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ] {
            let (mut catalog, mut models, requests) = churn_fixture();
            let mut matrix = fill(&requests, &catalog, &models, rule);
            let mut cache_sum = AggregationCache::new(3, AggregationMode::Sum);
            let mut cache_max = AggregationCache::new(3, AggregationMode::Max);
            cache_sum.prime(&matrix);
            cache_max.prime(&matrix);
            let sub = catalog.subscribe_delta();
            let mut next_id = 24_u64;

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
                apply(&mut matrix, &delta, &requests, &catalog, &models, rule).unwrap();
                let fresh = fill(&requests, &catalog, &models, rule);
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
    fn delta_apply_rejects_a_delta_the_catalog_moved_past() {
        let (mut catalog, models, requests) = churn_fixture();
        let rule = EligibilityRule::StrategyParameters;
        let mut matrix = fill(&requests, &catalog, &models, rule);
        let sub = catalog.subscribe_delta();
        assert!(catalog.retire(0));
        let delta = catalog.take_delta(&sub).unwrap();
        // The catalog mutates again before the delta is applied.
        assert!(catalog.retire(1));
        let before = matrix.clone();
        assert!(matches!(
            apply(&mut matrix, &delta, &requests, &catalog, &models, rule),
            Err(StratRecError::StaleCatalog { .. })
        ));
        assert_eq!(matrix, before, "a failed apply must not mutate the matrix");
    }

    #[test]
    fn delta_apply_missing_inserted_model_fails_before_mutating() {
        let (mut catalog, models, requests) = churn_fixture();
        let rule = EligibilityRule::StrategyParameters;
        let mut matrix = fill(&requests, &catalog, &models, rule);
        let sub = catalog.subscribe_delta();
        catalog.insert(varied_strategy(999)); // no model registered
        assert!(catalog.retire(0));
        let delta = catalog.take_delta(&sub).unwrap();
        let before = matrix.clone();
        assert!(matches!(
            apply(&mut matrix, &delta, &requests, &catalog, &models, rule),
            Err(StratRecError::MissingModel { strategy: 999 })
        ));
        assert_eq!(matrix, before);
    }

    #[test]
    fn empty_deltas_and_empty_batches_apply_cleanly() {
        let (mut catalog, _, _) = churn_fixture();
        let rule = EligibilityRule::StrategyParameters;
        // Zero-row matrices still track the column count through a delta,
        // without ever consulting the model library.
        let empty_models = ModelLibrary::new();
        let mut matrix = fill(&[], &catalog, &empty_models, rule);
        let sub = catalog.subscribe_delta();
        let noop = catalog.take_delta(&sub).unwrap();
        assert!(noop.is_empty());
        apply(&mut matrix, &noop, &[], &catalog, &empty_models, rule).unwrap();
        catalog.insert(varied_strategy(500));
        assert!(catalog.retire(3));
        let delta = catalog.take_delta(&sub).unwrap();
        apply(&mut matrix, &delta, &[], &catalog, &empty_models, rule).unwrap();
        assert_eq!(matrix.rows(), 0);
        assert_eq!(matrix.cols(), catalog.slot_count());
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
                // Rebuild the matrix cell-by-cell to emulate the delta apply's
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
