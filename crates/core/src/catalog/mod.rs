//! Shared, indexed view of the platform's strategy set.
//!
//! The seed implementation re-derived everything per request: `BatchStrat`
//! decided eligibility by scanning all `|S|` strategies for every deployment
//! request (`O(m · |S|)` parameter comparisons per batch), and every ADPaR
//! problem re-normalized the full strategy set from scratch — `Baseline3`
//! even bulk-loaded a fresh R-tree per call. A [`StrategyCatalog`] performs
//! that work **once**, and is the paper's ADPaR point set (§4): strategies are normalized into the minimization space
//! (`quality` inverted so smaller is better on every axis, exactly as ADPaR's
//! §4.1 normalization does) and bulk-loaded into a
//! [`stratrec_geometry::RTree`]. The catalog is then shared by reference
//! across the whole pipeline:
//!
//! * per-request eligibility becomes an R-tree box query
//!   ([`StrategyCatalog::eligible_for`]) instead of a linear scan;
//! * every ADPaR problem is posed over a catalog
//!   ([`crate::adpar::AdparProblem::with_catalog`]): the sweeps walk its
//!   pre-sorted axis orders and `Baseline3` reuses its index instead of
//!   bulk-loading one per solve;
//! * [`crate::stratrec::StratRec`] fans unsatisfied requests out to ADPaR in
//!   parallel over the same shared catalog.
//!
//! # The catalog lifecycle
//!
//! A long-lived catalog moves through three kinds of maintenance, each owned
//! by one submodule of this directory:
//!
//! 1. **Churn** (`overlay.rs`) — [`StrategyCatalog::insert`] appends to a small
//!    unindexed *tail*, [`StrategyCatalog::retire`] marks a slot with a *tombstone*;
//!    queries answer `index ∪ tail − tombstones` with the exact predicate,
//!    so results are exact at every point of the churn stream. The overlay
//!    merges into the R-tree incrementally at the [`RebuildPolicy`]
//!    threshold. Slot indices are **stable**: retiring never renumbers, so
//!    `strategy_indices` in recommendations stay valid across churn.
//! 2. **Axis-order maintenance** (`axis.rs`) — the three pre-sorted per-axis
//!    slot permutations follow the same log-structured discipline (sorted
//!    base + sorted tail, tombstones filtered at query time) so
//!    ADPaR problems never sort.
//! 3. **Compaction** (`compact.rs`) — the price of stable slots is monotone
//!    growth: tombstoned slots are never reclaimed, so [`StrategyCatalog::slot_count`]
//!    — and every slot-shaped allocation downstream (workforce-matrix
//!    columns, per-slot relaxations, axis buffers) — grows without bound
//!    under indefinite churn. [`StrategyCatalog::compact`] closes the lifecycle: it
//!    renumbers the live slots densely (dropping retired metadata), rebuilds
//!    the R-tree and the axis orders over the compacted range, bumps the
//!    epoch and returns a [`SlotRemap`] every holder of old slot numbers
//!    applies ([`crate::workforce::WorkforceMatrix::remap_columns`],
//!    [`SlotRemap::remap_slots`]).
//! 4. **Delta feed** (`delta.rs`) — derived state that would otherwise be
//!    recomputed per epoch (the workforce matrix and its aggregation)
//!    subscribes to the catalog's churn: [`StrategyCatalog::subscribe_delta`] /
//!    [`StrategyCatalog::take_delta`] hand each consumer exactly the slots inserted
//!    and retired since it last synchronized as a [`CatalogDelta`],
//!    composing the [`SlotRemap`] of any interleaved [`StrategyCatalog::compact`] into
//!    the window, so maintenance work is proportional to the churn rather
//!    than to `|S|`.
//!
//! [`StrategyCatalog::epoch`] increments on every mutation — compaction
//! included. An ADPaR problem borrows its catalog, so the catalog cannot
//! change under it. Derived state that outlives a borrow is keyed by the
//! epoch instead: a delta applied to a matrix built at another epoch fails
//! with the typed [`crate::error::StratRecError::StaleCatalog`] instead of
//! silently reusing stale slot references.
//!
//! All catalog-backed paths return results **identical** to the linear-scan
//! paths over the live strategies (the R-tree query is a conservative
//! candidate filter followed by the exact
//! [`DeploymentParameters::satisfies`] predicate); the parity tests in
//! `tests/catalog_parity.rs` and the property-based churn suite in
//! `tests/catalog_churn.rs` pin this down — including interleaved
//! compactions, whose remaps are replayed against the shadow scan.

mod axis;
mod compact;
mod delta;
mod overlay;
mod snapshot;

pub use compact::SlotRemap;
pub use delta::{CatalogDelta, DeltaSubscription, DEFAULT_DELTA_LAPSE_LIMIT};
pub use snapshot::{CatalogStats, ConcurrentCatalog, EpochSnapshot, SnapshotReader};

use serde::{Deserialize, Serialize};
use stratrec_geometry::{Aabb3, Point3, RTree};

use crate::model::{DeploymentParameters, Strategy};

use axis::sorted_axis_orders;

/// Default overlay size above which the catalog merges into its R-tree.
pub const DEFAULT_REBUILD_THRESHOLD: usize = 128;

/// When the catalog merges its log-structured overlay into the R-tree.
///
/// The overlay is the unindexed tail of recent inserts plus the tombstones
/// still present in the index; a merge is triggered as soon as the overlay
/// size *exceeds* the limit. [`RebuildPolicy::always`] (limit 0) keeps the
/// index exact after every mutation, [`RebuildPolicy::never`] leaves the
/// overlay to grow unboundedly (queries stay exact either way — the overlay
/// is scanned linearly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RebuildPolicy {
    overlay_limit: usize,
}

impl RebuildPolicy {
    /// Merge once the overlay holds more than `limit` entries.
    #[must_use]
    pub const fn threshold(limit: usize) -> Self {
        Self {
            overlay_limit: limit,
        }
    }

    /// Merge after every mutation (threshold 0): the index always reflects
    /// the full live set.
    #[must_use]
    pub const fn always() -> Self {
        Self::threshold(0)
    }

    /// Never merge: the tail and tombstone set absorb all churn.
    #[must_use]
    pub const fn never() -> Self {
        Self::threshold(usize::MAX)
    }

    /// The overlay size above which a merge is triggered.
    #[must_use]
    pub const fn overlay_limit(self) -> usize {
        self.overlay_limit
    }
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        Self::threshold(DEFAULT_REBUILD_THRESHOLD)
    }
}

/// One catalog mutation, as recorded by the mutation journal
/// ([`StrategyCatalog::enable_journal`]) in the order it was applied. This
/// is the unit a write-ahead logger persists: replaying the sequence through
/// [`StrategyCatalog::insert`] / [`StrategyCatalog::retire`] /
/// [`StrategyCatalog::compact`] against the same starting state rebuilds the
/// catalog exactly (slot numbering included — inserts record the slot they
/// landed on and compactions the [`SlotRemap`] they produced, so replay can
/// verify itself record by record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CatalogMutation {
    /// A [`StrategyCatalog::insert`]: `strategy` landed on `slot`.
    Insert {
        /// The stable slot index the insert returned.
        slot: usize,
        /// The inserted strategy.
        strategy: Strategy,
        /// The catalog epoch right after the insert.
        epoch_after: u64,
    },
    /// A live-slot [`StrategyCatalog::retire`] (no-op retires are not
    /// journaled — they do not mutate the catalog).
    Retire {
        /// The retired slot.
        slot: usize,
        /// The catalog epoch right after the retirement.
        epoch_after: u64,
    },
    /// A [`StrategyCatalog::compact`], carrying the full remap (its
    /// [`SlotRemap::target_epoch`] is the epoch after the compaction).
    Compact {
        /// The old→new renumbering the compaction returned.
        remap: SlotRemap,
    },
}

impl CatalogMutation {
    /// The catalog epoch right after this mutation was applied.
    #[must_use]
    pub fn epoch_after(&self) -> u64 {
        match self {
            Self::Insert { epoch_after, .. } | Self::Retire { epoch_after, .. } => *epoch_after,
            Self::Compact { remap } => remap.target_epoch(),
        }
    }
}

/// A strategy set normalized once and indexed for box queries, absorbing
/// live insert/retire churn through a log-structured overlay and reclaiming
/// tombstoned slots through [`Self::compact`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyCatalog {
    /// Every slot inserted since the last compaction, retired ones included
    /// (stable indices between compactions).
    strategies: Vec<Strategy>,
    /// Normalized points, parallel to `strategies`.
    points: Vec<Point3>,
    /// Liveness per slot; `false` marks a retired (tombstoned) slot.
    live: Vec<bool>,
    /// Number of live slots.
    live_count: usize,
    /// R-tree over the slots present at the last merge.
    index: RTree,
    /// Live slots inserted since the last merge (ascending, not indexed).
    tail: Vec<usize>,
    /// Retired slots still present in `index`.
    pending_tombstones: Vec<usize>,
    /// Overlay merge policy.
    policy: RebuildPolicy,
    /// Bumped on every `insert` / `retire` / `compact`; cache-invalidation
    /// key.
    epoch: u64,
    /// Number of overlay merges / full rebuilds performed.
    merges: u64,
    /// Whether `index` is still a deterministic STR bulk load (set by
    /// construction, `force_rebuild` and `compact`, cleared by incremental
    /// merges).
    packed: bool,
    /// Per-axis slot permutations sorted ascending by `(coordinate, slot)`,
    /// covering exactly the slots present in `index` (the slots live at the
    /// last merge). Tail slots are merged in and tombstones filtered out at
    /// query time ([`Self::axis_order_into`]), same log-structured
    /// discipline as the R-tree.
    axis_base: [Vec<usize>; 3],
    /// The tail, kept sorted per axis by `(coordinate, slot)` while
    /// `axis_tail_sorted` holds, letting [`Self::axis_order_into`] merge
    /// without sorting or allocating.
    axis_tail: [Vec<usize>; 3],
    /// Whether `axis_tail` mirrors `tail`. The per-insert sorted
    /// maintenance shifts `O(tail)` elements, so it is abandoned (the three
    /// vectors are cleared, this flag drops) once the tail outgrows
    /// [`axis::SORTED_TAIL_LIMIT`] — only reachable with rebuild thresholds
    /// above the limit, e.g. [`RebuildPolicy::never`] — keeping inserts
    /// `O(1)` amortized there instead of quadratic;
    /// [`Self::axis_order_into`] then falls back to sorting a tail copy per
    /// call. Restored whenever the tail empties (merge, rebuild, compaction
    /// or retiring the last tail slot).
    axis_tail_sorted: bool,
    /// Per-subscriber churn accumulation for delta-maintained derived state
    /// ([`delta`]): generation-tagged tracker slots; empty trackers are
    /// released ids awaiting reuse under a bumped generation.
    subscriptions: Vec<delta::SubscriptionSlot>,
    /// Mutations a subscriber may sit through without draining before its
    /// tracker is evicted ([`Self::delta_lapse_limit`]).
    delta_lapse_limit: u64,
    /// Trackers evicted so far for lapsing ([`Self::delta_evictions`]).
    delta_evictions: u64,
    /// Mutation journal for the durable tier: when enabled
    /// ([`Self::enable_journal`]), every insert / live retire / compact
    /// appends a [`CatalogMutation`] for a write-ahead logger to drain
    /// ([`Self::take_journal`]). `None` (the default) costs nothing on the
    /// mutation paths.
    journal: Option<Vec<CatalogMutation>>,
}

/// Margin added to eligibility query boxes so the R-tree pass is a strict
/// superset of [`DeploymentParameters::satisfies`] (which tolerates `1e-9`
/// on every axis); candidates are then confirmed with the exact predicate,
/// so catalog eligibility is identical to the linear scan.
const QUERY_MARGIN: f64 = 2e-9;

impl StrategyCatalog {
    /// Builds a catalog owning `strategies`, normalizing every strategy into
    /// the minimization space and bulk-loading the R-tree index. Accepts
    /// anything convertible into a `Vec<Strategy>` (an owned vector moves in
    /// without a copy; a borrowed slice is cloned once).
    #[must_use]
    pub fn new(strategies: impl Into<Vec<Strategy>>) -> Self {
        Self::with_policy(strategies, RebuildPolicy::default())
    }

    /// Builds a catalog with an explicit overlay merge policy.
    #[must_use]
    pub fn with_policy(strategies: impl Into<Vec<Strategy>>, policy: RebuildPolicy) -> Self {
        let strategies: Vec<Strategy> = strategies.into();
        let points: Vec<Point3> = strategies
            .iter()
            .map(Strategy::to_normalized_point)
            .collect();
        let index = RTree::bulk_load(&points);
        let live_count = strategies.len();
        let axis_base = sorted_axis_orders(&points, (0..strategies.len()).collect());
        Self {
            live: vec![true; live_count],
            live_count,
            strategies,
            points,
            index,
            tail: Vec::new(),
            pending_tombstones: Vec::new(),
            policy,
            epoch: 0,
            merges: 0,
            packed: true,
            axis_base,
            axis_tail: [Vec::new(), Vec::new(), Vec::new()],
            axis_tail_sorted: true,
            subscriptions: Vec::new(),
            delta_lapse_limit: delta::DEFAULT_DELTA_LAPSE_LIMIT,
            delta_evictions: 0,
            journal: None,
        }
    }

    /// Restores a catalog from checkpointed slot state: the slot-parallel
    /// `(strategy, liveness)` pairs of the numbering in force at `epoch`,
    /// exactly as [`Self::strategies`] + [`Self::is_live`] would report
    /// them. The result is **observably identical** to the catalog the
    /// checkpoint captured — same eligibility answers, axis orders, slot
    /// numbering and epoch — because all of those are functions of the slot
    /// contents alone; only the R-tree's internal shape (merge history) and
    /// the merge counter differ, and no query depends on either. The overlay starts empty and the index packed, as after
    /// [`Self::force_rebuild`].
    #[must_use]
    pub fn from_checkpoint_parts(
        slots: Vec<(Strategy, bool)>,
        epoch: u64,
        policy: RebuildPolicy,
    ) -> Self {
        let mut strategies = Vec::with_capacity(slots.len());
        let mut live = Vec::with_capacity(slots.len());
        for (strategy, is_live) in slots {
            strategies.push(strategy);
            live.push(is_live);
        }
        let points: Vec<Point3> = strategies
            .iter()
            .map(Strategy::to_normalized_point)
            .collect();
        let live_count = live.iter().filter(|&&l| l).count();
        let live_entries: Vec<(usize, Point3)> = points
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| live[i])
            .collect();
        let live_slots: Vec<usize> = live_entries.iter().map(|&(i, _)| i).collect();
        let index =
            RTree::bulk_load_entries(live_entries, stratrec_geometry::DEFAULT_NODE_CAPACITY);
        let axis_base = sorted_axis_orders(&points, live_slots);
        Self {
            live,
            live_count,
            strategies,
            points,
            index,
            tail: Vec::new(),
            pending_tombstones: Vec::new(),
            policy,
            epoch,
            merges: 0,
            packed: true,
            axis_base,
            axis_tail: [Vec::new(), Vec::new(), Vec::new()],
            axis_tail_sorted: true,
            subscriptions: Vec::new(),
            delta_lapse_limit: delta::DEFAULT_DELTA_LAPSE_LIMIT,
            delta_evictions: 0,
            journal: None,
        }
    }

    /// A clone of this catalog's **read state** — strategies, points,
    /// liveness, R-tree, axis orders, epoch — with the subscription table
    /// and the mutation journal left behind. This is what an
    /// [`EpochSnapshot`] captures: subscriptions and the journal are
    /// writer-side lifecycle state (draining them requires `&mut`), so an
    /// immutable snapshot carrying them would only mislead.
    #[must_use]
    pub fn detached_clone(&self) -> Self {
        let mut clone = self.clone();
        clone.subscriptions = Vec::new();
        clone.delta_evictions = 0;
        clone.journal = None;
        clone
    }

    /// Turns the mutation journal on: from now on every [`Self::insert`],
    /// live [`Self::retire`] and [`Self::compact`] appends a
    /// [`CatalogMutation`] for [`Self::take_journal`] to drain. Idempotent;
    /// the durable tier enables this on its writer catalog so mutations can
    /// be write-ahead-logged before publication.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Whether the mutation journal is recording.
    #[must_use]
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Drains the journaled mutations accumulated since the last drain, in
    /// application order. Empty when the journal is disabled or nothing
    /// mutated.
    pub fn take_journal(&mut self) -> Vec<CatalogMutation> {
        match &mut self.journal {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    /// Journal hook shared by the mutation paths. Callers gate on
    /// [`Self::journal_enabled`] before cloning anything into the record, so
    /// a disabled journal never materializes a mutation.
    fn journal_note(&mut self, mutation: CatalogMutation) {
        if let Some(journal) = &mut self.journal {
            journal.push(mutation);
        }
    }

    /// Every slot of the current numbering, in slot order — **including
    /// retired slots**; check [`Self::is_live`] or use
    /// [`Self::live_indices`] when liveness matters. Pristine and
    /// freshly-compacted catalogs contain live slots only.
    #[must_use]
    pub fn strategies(&self) -> &[Strategy] {
        &self.strategies
    }

    /// The strategy at `slot` (retired slots included — their metadata stays
    /// addressable for reporting until the next [`Self::compact`]).
    ///
    /// # Panics
    ///
    /// Panics when `slot >= self.slot_count()`.
    #[must_use]
    pub fn strategy(&self, slot: usize) -> &Strategy {
        &self.strategies[slot]
    }

    /// Whether `slot` refers to a live (non-retired) strategy; `false` for
    /// out-of-range slots.
    #[must_use]
    pub fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot).copied().unwrap_or(false)
    }

    /// The live slot indices, ascending.
    #[must_use]
    pub fn live_indices(&self) -> Vec<usize> {
        (0..self.strategies.len())
            .filter(|&i| self.live[i])
            .collect()
    }

    /// The live `(slot, normalized point)` entries, ascending by slot.
    #[must_use]
    pub fn live_entries(&self) -> Vec<(usize, Point3)> {
        (0..self.strategies.len())
            .filter(|&i| self.live[i])
            .map(|i| (i, self.points[i]))
            .collect()
    }

    /// The pre-normalized points of **all** slots (parallel to
    /// [`Self::strategies`]): `(1 − quality, cost, latency)`.
    #[must_use]
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// The shared R-tree. Between merges it covers the slots live at the
    /// last merge — use [`Self::eligible_for`] for exact answers, or check
    /// [`Self::is_pristine`] before treating the tree as the full live set.
    #[must_use]
    pub fn index(&self) -> &RTree {
        &self.index
    }

    /// Number of **live** strategies in the catalog.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the catalog has no live strategies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Total number of slots in the current numbering (live + retired).
    /// Grows monotonically under churn and snaps back to [`Self::len`] at
    /// every [`Self::compact`].
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.strategies.len()
    }

    /// Number of retired slots still occupying the numbering (reclaimed by
    /// the next [`Self::compact`]).
    #[must_use]
    pub fn retired_count(&self) -> usize {
        self.strategies.len() - self.live_count
    }

    /// Size of the log-structured overlay: unindexed tail entries plus
    /// tombstones still present in the index.
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.tail.len() + self.pending_tombstones.len()
    }

    /// Whether the overlay is empty (the R-tree covers exactly the live
    /// set).
    #[must_use]
    pub fn overlay_is_empty(&self) -> bool {
        self.tail.is_empty() && self.pending_tombstones.is_empty()
    }

    /// Whether the catalog has never been mutated — its R-tree is still the
    /// pristine STR bulk load over slots `0..n`.
    #[must_use]
    pub fn is_pristine(&self) -> bool {
        self.epoch == 0
    }

    /// Whether the R-tree is a deterministic STR bulk load covering exactly
    /// the live slots (true at construction and after
    /// [`Self::force_rebuild`] / [`Self::compact`] with no overlay since;
    /// false once an incremental merge reshaped the tree). `Baseline3`
    /// shares the index only in this state — its MBB heuristic is pinned to
    /// the packed structure.
    #[must_use]
    pub fn index_is_packed_live(&self) -> bool {
        self.packed && self.overlay_is_empty()
    }

    /// Mutation counter: bumped by every [`Self::insert`] / [`Self::retire`]
    /// / [`Self::compact`]. Derived data keyed by an epoch (a workforce matrix
    /// maintained through catalog deltas) must be discarded — or, after a
    /// compaction, remapped through the returned [`SlotRemap`] — when the
    /// catalog's epoch moves past it.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of overlay merges / full rebuilds performed so far.
    #[must_use]
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// The overlay merge policy.
    #[must_use]
    pub fn rebuild_policy(&self) -> RebuildPolicy {
        self.policy
    }

    /// Indices of the live strategies satisfying the request thresholds
    /// `params`, ascending — exactly the set (and order) of
    /// [`crate::model::DeploymentRequest::eligible_strategies`] over the
    /// live slots: [`Self::for_each_eligible`], collected and sorted.
    #[must_use]
    pub fn eligible_for(&self, params: &DeploymentParameters) -> Vec<usize> {
        let mut eligible = Vec::new();
        self.for_each_eligible(params, |slot| eligible.push(slot));
        eligible.sort_unstable();
        eligible
    }

    /// Calls `visit` once with every live slot whose strategy satisfies the
    /// request thresholds `params`, found through the index plus the
    /// overlay, in no particular order. This is the catalog's one
    /// eligibility predicate; the streamed workforce requirement folds it
    /// without materialising a slot list.
    ///
    /// A strategy satisfies a request when, in the normalized minimization
    /// space, its point is covered by the request's point. That makes
    /// eligibility an origin-anchored box query whose top-right corner is the
    /// request point; the box is inflated by `QUERY_MARGIN`, tombstoned
    /// hits are dropped, the unindexed tail is scanned, and candidates are
    /// confirmed with the exact epsilon-tolerant predicate.
    pub fn for_each_eligible<F: FnMut(usize)>(&self, params: &DeploymentParameters, mut visit: F) {
        self.for_each_in_request_box(params, |slot| {
            if self.strategies[slot].params.satisfies(params) {
                visit(slot);
            }
        });
    }

    /// Calls `visit` once with every live slot the eligibility query for
    /// `params` reaches, in no particular order: the indexed slots inside
    /// the origin-anchored box whose top-right corner is the request's
    /// normalized point inflated by `QUERY_MARGIN`, plus every unindexed
    /// tail slot, unfiltered. The slots are a superset of every slot within
    /// `QUERY_MARGIN` of the request's box; [`Self::for_each_eligible`]
    /// narrows them with the exact predicate, and ADPaR-Exact's
    /// zero-relaxation answer with its coverage test.
    pub(crate) fn for_each_in_request_box<F: FnMut(usize)>(
        &self,
        params: &DeploymentParameters,
        mut visit: F,
    ) {
        let corner = params.to_normalized_point();
        let query = Aabb3::anchored_at_origin(Point3::new(
            corner.x + QUERY_MARGIN,
            corner.y + QUERY_MARGIN,
            corner.z + QUERY_MARGIN,
        ));
        self.index.for_each_in_box(&query, |slot| {
            if self.live[slot] {
                visit(slot);
            }
        });
        for &slot in &self.tail {
            visit(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_mirrors_the_strategy_set() {
        let strategies = crate::examples_data::running_example_strategies();
        let catalog = StrategyCatalog::new(strategies.as_slice());
        assert_eq!(catalog.len(), 4);
        assert_eq!(catalog.slot_count(), 4);
        assert_eq!(catalog.retired_count(), 0);
        assert!(!catalog.is_empty());
        assert!(catalog.is_pristine());
        assert_eq!(catalog.epoch(), 0);
        assert_eq!(catalog.strategies(), &strategies[..]);
        assert_eq!(catalog.points().len(), 4);
        assert_eq!(catalog.index().len(), 4);
        for (i, (strategy, point)) in strategies.iter().zip(catalog.points()).enumerate() {
            assert_eq!(strategy.to_normalized_point(), *point);
            assert_eq!(catalog.strategy(i), strategy);
            assert!(catalog.is_live(i));
        }
        assert!(!catalog.is_live(4));
    }

    #[test]
    fn eligibility_matches_linear_scan_on_running_example() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let catalog = StrategyCatalog::new(strategies.as_slice());
        for request in &requests {
            assert_eq!(
                catalog.eligible_for(&request.params),
                request.eligible_strategies(&strategies),
                "request {:?}",
                request.id
            );
        }
    }

    #[test]
    fn empty_catalog_behaves() {
        let catalog = StrategyCatalog::new(Vec::new());
        assert!(catalog.is_empty());
        assert_eq!(catalog.len(), 0);
        let loosest = DeploymentParameters::default();
        assert!(catalog.eligible_for(&loosest).is_empty());
    }

    #[test]
    fn boundary_strategies_stay_eligible() {
        // A strategy exactly on the request's thresholds is eligible under
        // the epsilon-tolerant predicate; the inflated query box must not
        // lose it.
        let params = DeploymentParameters::clamped(0.7, 0.3, 0.4);
        let strategies = vec![Strategy::from_params(0, params)];
        let catalog = StrategyCatalog::new(strategies.as_slice());
        assert_eq!(catalog.eligible_for(&params), vec![0]);
    }

    #[test]
    fn borrowed_and_owned_strategies_build_the_same_catalog() {
        let strategies = crate::examples_data::running_example_strategies();
        let borrowed = StrategyCatalog::new(strategies.as_slice());
        assert_eq!(borrowed, StrategyCatalog::new(strategies));
    }

    #[test]
    fn insert_appends_a_live_slot_and_bumps_the_epoch() {
        let strategies = crate::examples_data::running_example_strategies();
        let mut catalog = StrategyCatalog::new(strategies.as_slice());
        let loosest = DeploymentParameters::default();
        let slot = catalog.insert(Strategy::from_params(
            99,
            DeploymentParameters::clamped(0.9, 0.1, 0.1),
        ));
        assert_eq!(slot, 4);
        assert_eq!(catalog.len(), 5);
        assert_eq!(catalog.slot_count(), 5);
        assert_eq!(catalog.epoch(), 1);
        assert!(!catalog.is_pristine());
        assert!(catalog.is_live(slot));
        // Immediately visible to queries even while still in the tail.
        assert!(catalog.eligible_for(&loosest).contains(&slot));
    }

    #[test]
    fn retire_tombstones_without_renumbering() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let mut catalog = StrategyCatalog::new(strategies.as_slice());
        // d3's eligible set is {1, 2, 3}; retiring slot 2 must drop exactly
        // that slot while 1 and 3 keep their numbers.
        assert!(catalog.retire(2));
        assert!(!catalog.retire(2), "double retirement is a no-op");
        assert!(!catalog.retire(42), "out-of-range retirement is a no-op");
        assert_eq!(catalog.len(), 3);
        assert_eq!(catalog.slot_count(), 4);
        assert_eq!(catalog.retired_count(), 1);
        assert!(!catalog.is_live(2));
        assert_eq!(catalog.eligible_for(&requests[2].params), vec![1, 3]);
        assert_eq!(catalog.live_indices(), vec![0, 1, 3]);
        assert_eq!(catalog.epoch(), 1);
    }
}
