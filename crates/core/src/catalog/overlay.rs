//! The log-structured churn overlay: unindexed tail + tombstones.
//!
//! A crowdsourcing platform adds and retires strategies continuously, so the
//! catalog is **mutable**: [`StrategyCatalog::insert`] appends a strategy to
//! a small unindexed *tail* and [`StrategyCatalog::retire`] marks a slot
//! with a *tombstone*. Queries answer `index ∪ tail − tombstones`: the
//! R-tree reports candidates from the last merge (tombstoned hits are
//! filtered out), the tail is scanned linearly, and every candidate is
//! confirmed with the exact predicate — so results are **exact at every
//! point of the churn stream**. When the overlay (tail + pending
//! tombstones) outgrows the [`RebuildPolicy`](super::RebuildPolicy)
//! threshold it is merged into the R-tree incrementally (`RTree::remove` for
//! tombstones, `RTree::insert` with node splits for the tail), which is far
//! cheaper than the per-epoch full rebuild a long-running service would
//! otherwise pay; [`StrategyCatalog::force_rebuild`] re-packs the tree from
//! scratch when desired, and [`StrategyCatalog::compact`](super::compact)
//! additionally reclaims the tombstoned slot numbers.

use stratrec_geometry::{Axis, RTree};

use super::axis::{merge_axis_order_into, sorted_axis_tail};
use super::StrategyCatalog;
use crate::model::Strategy;

impl StrategyCatalog {
    /// Inserts a strategy, returning its stable slot index. The strategy
    /// lands in the unindexed tail and is merged into the R-tree when the
    /// overlay crosses the rebuild threshold; it is eligible for queries
    /// immediately either way. The returned slot stays valid until the next
    /// [`Self::compact`](StrategyCatalog::compact), whose
    /// [`SlotRemap`](super::SlotRemap) renumbers it.
    pub fn insert(&mut self, strategy: Strategy) -> usize {
        let slot = self.strategies.len();
        let point = strategy.to_normalized_point();
        self.strategies.push(strategy);
        self.points.push(point);
        self.live.push(true);
        self.live_count += 1;
        self.tail.push(slot);
        self.axis_tail_insert(slot);
        self.delta_note_insert();
        self.epoch += 1;
        if self.journal_enabled() {
            self.journal_note(super::CatalogMutation::Insert {
                slot,
                strategy: self.strategies[slot].clone(),
                epoch_after: self.epoch,
            });
        }
        self.maybe_merge();
        slot
    }

    /// Retires the strategy at `slot`, returning whether a live strategy was
    /// retired (`false` for out-of-range or already-retired slots). The slot
    /// index is never reused; queries stop reporting it immediately.
    pub fn retire(&mut self, slot: usize) -> bool {
        if slot >= self.strategies.len() || !self.live[slot] {
            return false;
        }
        self.live[slot] = false;
        self.live_count -= 1;
        if let Ok(pos) = self.tail.binary_search(&slot) {
            // Never indexed: drop it from the tail and we are done.
            self.tail.remove(pos);
            self.axis_tail_retire(slot);
        } else {
            self.pending_tombstones.push(slot);
        }
        self.delta_note_retire(slot);
        self.epoch += 1;
        if self.journal_enabled() {
            self.journal_note(super::CatalogMutation::Retire {
                slot,
                epoch_after: self.epoch,
            });
        }
        self.maybe_merge();
        true
    }

    /// Merges the overlay when it outgrows the policy threshold.
    fn maybe_merge(&mut self) {
        if self.overlay_len() > self.policy.overlay_limit() {
            self.merge_overlay();
        }
    }

    /// Merges the overlay into the R-tree incrementally: pending tombstones
    /// are removed, tail entries inserted (with node splits). No-op when the
    /// overlay is empty.
    pub fn merge_overlay(&mut self) {
        if self.overlay_is_empty() {
            return;
        }
        for slot in std::mem::take(&mut self.pending_tombstones) {
            let removed = self.index.remove(slot, &self.points[slot]);
            debug_assert!(removed, "tombstoned slot {slot} was not in the index");
        }
        let tail = std::mem::take(&mut self.tail);
        for &slot in &tail {
            self.index.insert(slot, self.points[slot]);
        }
        // The sorted axis orders absorb the same overlay: tombstoned slots
        // are filtered out of each base, the sorted tail is merged in —
        // O(|S|) per axis (plus a tail sort if the incremental sorted tails
        // were abandoned past SORTED_TAIL_LIMIT) instead of a full re-sort.
        for axis in Axis::ALL {
            let tail_sorted = if self.axis_tail_sorted {
                std::mem::take(&mut self.axis_tail[axis.index()])
            } else {
                sorted_axis_tail(&self.points, &tail, axis)
            };
            let base = std::mem::take(&mut self.axis_base[axis.index()]);
            let mut merged = Vec::new();
            merge_axis_order_into(
                &base,
                &tail_sorted,
                &self.live,
                &self.points,
                axis,
                &mut merged,
            );
            self.axis_base[axis.index()] = merged;
        }
        self.axis_tail_reset();
        self.merges += 1;
        self.packed = false;
    }

    /// Re-packs the R-tree from scratch over the live slots (STR bulk load)
    /// and clears the overlay — slot numbers are **kept** (use
    /// [`Self::compact`](StrategyCatalog::compact) to also reclaim retired
    /// ones). Use after heavy churn to restore the packed structure
    /// incremental merges slowly degrade.
    pub fn force_rebuild(&mut self) {
        self.index = RTree::bulk_load_entries(self.live_entries(), self.index.node_capacity());
        self.tail.clear();
        self.pending_tombstones.clear();
        self.axis_rebuild_live();
        self.merges += 1;
        self.packed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{RebuildPolicy, StrategyCatalog};
    use crate::model::{DeploymentParameters, Strategy};

    #[test]
    fn retiring_a_tail_slot_never_touches_the_index() {
        let mut catalog = StrategyCatalog::with_policy(Vec::new(), RebuildPolicy::never());
        let a = catalog.insert(Strategy::from_params(
            0,
            DeploymentParameters::clamped(0.8, 0.2, 0.2),
        ));
        let b = catalog.insert(Strategy::from_params(
            1,
            DeploymentParameters::clamped(0.9, 0.1, 0.1),
        ));
        assert_eq!(catalog.overlay_len(), 2);
        assert!(catalog.retire(a));
        // The retired slot was still in the tail: overlay shrinks instead of
        // gaining a tombstone.
        assert_eq!(catalog.overlay_len(), 1);
        assert_eq!(catalog.index().len(), 0);
        let loosest = DeploymentParameters::default();
        assert_eq!(catalog.eligible_for(&loosest), vec![b]);
    }

    #[test]
    fn rebuild_policies_control_merging() {
        let strategies = crate::examples_data::running_example_strategies();
        let strategy = |id| Strategy::from_params(id, DeploymentParameters::clamped(0.8, 0.3, 0.3));

        let mut always = StrategyCatalog::with_policy(strategies.clone(), RebuildPolicy::always());
        always.insert(strategy(10));
        assert!(
            always.overlay_is_empty(),
            "always-policy merges immediately"
        );
        assert_eq!(always.index().len(), 5);
        assert_eq!(always.merge_count(), 1);

        let mut never = StrategyCatalog::with_policy(strategies.clone(), RebuildPolicy::never());
        never.insert(strategy(10));
        never.retire(0);
        assert_eq!(never.overlay_len(), 2);
        assert_eq!(never.index().len(), 4, "never-policy leaves the tree alone");
        assert_eq!(never.merge_count(), 0);

        let mut thresholded = StrategyCatalog::with_policy(strategies, RebuildPolicy::threshold(2));
        thresholded.insert(strategy(10));
        thresholded.retire(0);
        assert_eq!(thresholded.overlay_len(), 2, "at the limit, no merge yet");
        thresholded.insert(strategy(11));
        assert!(thresholded.overlay_is_empty(), "crossing the limit merges");
        // Tombstone removed, two inserts applied: 4 - 1 + 2.
        assert_eq!(thresholded.index().len(), 5);
    }

    #[test]
    fn packed_live_tracking_follows_merges_and_rebuilds() {
        let strategies = crate::examples_data::running_example_strategies();
        let mut catalog = StrategyCatalog::with_policy(strategies, RebuildPolicy::threshold(1));
        assert!(
            catalog.index_is_packed_live(),
            "pristine catalogs are packed"
        );
        catalog.insert(Strategy::from_params(
            10,
            DeploymentParameters::clamped(0.8, 0.3, 0.3),
        ));
        assert!(
            !catalog.index_is_packed_live(),
            "an unmerged tail breaks the packed-live state"
        );
        catalog.insert(Strategy::from_params(
            11,
            DeploymentParameters::clamped(0.8, 0.3, 0.3),
        ));
        assert!(
            catalog.overlay_is_empty(),
            "threshold 1 merged at 2 entries"
        );
        assert!(
            !catalog.index_is_packed_live(),
            "incremental merges reshape the tree away from the STR packing"
        );
        catalog.force_rebuild();
        assert!(
            catalog.index_is_packed_live(),
            "force_rebuild restores a packed live index"
        );
    }

    #[test]
    fn merge_and_force_rebuild_preserve_eligibility() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        let mut catalog = StrategyCatalog::with_policy(strategies.clone(), RebuildPolicy::never());
        catalog.retire(1);
        let slot = catalog.insert(Strategy::from_params(
            50,
            DeploymentParameters::clamped(0.72, 0.5, 0.2),
        ));
        let before: Vec<Vec<usize>> = requests
            .iter()
            .map(|r| catalog.eligible_for(&r.params))
            .collect();
        catalog.merge_overlay();
        assert!(catalog.overlay_is_empty());
        assert_eq!(catalog.index().len(), 4); // 4 - 1 tombstone + 1 insert
        for (request, expected) in requests.iter().zip(&before) {
            assert_eq!(&catalog.eligible_for(&request.params), expected);
        }
        catalog.force_rebuild();
        for (request, expected) in requests.iter().zip(&before) {
            assert_eq!(&catalog.eligible_for(&request.params), expected);
        }
        assert!(catalog.is_live(slot));
        assert_eq!(catalog.live_entries().len(), 4);
    }
}
