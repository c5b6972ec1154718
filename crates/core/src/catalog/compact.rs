//! Slot compaction: reclaiming tombstoned slots with an old→new remap.
//!
//! Stable slot indices (the overlay's contract) cost monotone growth:
//! retired slots are tombstoned, never reclaimed, so
//! [`StrategyCatalog::slot_count`] — and every slot-shaped allocation
//! downstream (workforce-matrix columns, per-slot relaxation vectors, axis
//! buffers, `BatchEngine` row widths) — grows without bound in an
//! indefinitely-churning service. [`StrategyCatalog::compact`] is the
//! generational rewrite of this log-structured scheme: it renumbers the live
//! slots densely (their relative order is preserved), drops retired
//! metadata, rebuilds the R-tree as a packed STR bulk load and re-sorts the
//! three axis orders over the compacted range, bumps the epoch and returns a
//! [`SlotRemap`] that every holder of old slot numbers applies.
//!
//! The remap contract: `forward[old]` is `Some(new)` for slots that were
//! live at compaction time and `None` for reclaimed (retired) slots. Dense
//! renumbering preserves ascending slot order, so remapped slot lists stay
//! sorted and tie-breaks by slot number (axis orders, sweep orders, STR
//! tie-breaking) are preserved — which is why every query, axis order and
//! ADPaR solve is *bit-identical* before and after compaction modulo the
//! remap (pinned by `tests/catalog_churn.rs` and `tests/catalog_parity.rs`).

use serde::{Deserialize, Serialize};
use stratrec_geometry::RTree;

use super::StrategyCatalog;

/// The old→new slot mapping returned by [`StrategyCatalog::compact`].
///
/// Slot references captured *before* the compaction — recommendation
/// `strategy_indices`, workforce-matrix columns, cached
/// [`crate::adpar::AdparSolution`]s — are renumbered through
/// [`Self::remap`]; a `None` answer means the slot had been retired and the
/// derived data referencing it is genuinely stale.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotRemap {
    /// `forward[old] = Some(new)` for surviving (live) slots, `None` for
    /// reclaimed (retired) ones. Indexed by pre-compaction slot number.
    pub forward: Vec<Option<usize>>,
    /// Number of live slots after compaction — the new, dense slot range is
    /// `0..live_len`.
    pub live_len: usize,
    /// Catalog epoch the compaction was applied at (before the bump).
    source_epoch: u64,
    /// Catalog epoch after the compaction.
    target_epoch: u64,
}

impl SlotRemap {
    /// Builds a remap from raw parts — used by the delta trackers
    /// ([`super::delta`]) to compose consecutive compaction remaps into a
    /// single subscriber-scoped remap.
    pub(super) fn from_parts(
        forward: Vec<Option<usize>>,
        live_len: usize,
        source_epoch: u64,
        target_epoch: u64,
    ) -> Self {
        Self {
            forward,
            live_len,
            source_epoch,
            target_epoch,
        }
    }

    /// Number of pre-compaction slots the remap covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the pre-compaction catalog had no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The new slot number of pre-compaction slot `old`, or `None` when the
    /// slot was reclaimed (retired before the compaction) or out of range.
    #[must_use]
    pub fn remap(&self, old: usize) -> Option<usize> {
        self.forward.get(old).copied().flatten()
    }

    /// Remaps a slice of pre-compaction slot numbers, or `None` when any of
    /// them was reclaimed — the caller's slot set predates a retirement and
    /// must be re-derived. Ascending inputs stay ascending (the renumbering
    /// is order-preserving).
    #[must_use]
    pub fn remap_slots(&self, slots: &[usize]) -> Option<Vec<usize>> {
        slots.iter().map(|&slot| self.remap(slot)).collect()
    }

    /// Iterates the surviving `(old, new)` slot pairs, ascending.
    pub fn mapped_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.forward
            .iter()
            .enumerate()
            .filter_map(|(old, new)| new.map(|new| (old, new)))
    }

    /// Whether the compaction renumbered nothing (no slot had ever been
    /// retired): every surviving slot keeps its number.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.live_len == self.forward.len()
    }

    /// The catalog epoch at which the compaction ran. The remap renumbers
    /// slot references expressed in the numbering in force at that epoch —
    /// i.e. captured anywhere between the *previous* compaction (exclusive)
    /// and this one (slot numbers are stable between compactions, so the
    /// whole window shares one numbering). References predating an earlier
    /// compaction live in an older numbering and must be taken through that
    /// compaction's remap first; feeding them here would silently alias
    /// other strategies.
    #[must_use]
    pub fn source_epoch(&self) -> u64 {
        self.source_epoch
    }

    /// The catalog epoch right after the compaction — the epoch remapped
    /// derived data should be re-keyed to.
    #[must_use]
    pub fn target_epoch(&self) -> u64 {
        self.target_epoch
    }
}

impl StrategyCatalog {
    /// Compacts the catalog: live slots are renumbered densely `0..len()`
    /// (relative order preserved), retired slot metadata is dropped, the
    /// R-tree is re-packed (STR bulk load over the compacted entries), the
    /// three axis orders are rebuilt over the new range and the overlay is
    /// cleared. The epoch is bumped — compaction is a mutation: every slot
    /// number handed out before it goes through the returned [`SlotRemap`].
    ///
    /// After `compact()`:
    ///
    /// * `slot_count() == len()` — no tombstones occupy the numbering;
    /// * [`Self::index_is_packed_live`] holds (Baseline3 shares the tree);
    /// * every query, axis order and ADPaR solve is
    ///   identical to its pre-compaction answer modulo the remap.
    ///
    /// Compacting a catalog that never retired anything still re-packs the
    /// index, clears the overlay and bumps the epoch; the returned remap is
    /// then the identity ([`SlotRemap::is_identity`]).
    pub fn compact(&mut self) -> SlotRemap {
        let source_epoch = self.epoch;
        let old_len = self.strategies.len();
        let mut forward = vec![None; old_len];
        let mut strategies = Vec::with_capacity(self.live_count);
        let mut points = Vec::with_capacity(self.live_count);
        for (old, strategy) in std::mem::take(&mut self.strategies).into_iter().enumerate() {
            if self.live[old] {
                forward[old] = Some(strategies.len());
                strategies.push(strategy);
                points.push(self.points[old]);
            }
        }
        let live_len = strategies.len();
        debug_assert_eq!(live_len, self.live_count);
        self.strategies = strategies;
        self.points = points;
        self.live.clear();
        self.live.resize(live_len, true);
        self.index = RTree::bulk_load_entries(
            self.points.iter().copied().enumerate().collect(),
            self.index.node_capacity(),
        );
        self.tail.clear();
        self.pending_tombstones.clear();
        self.axis_rebuild_live();
        self.epoch += 1;
        self.merges += 1;
        self.packed = true;
        let remap = SlotRemap {
            forward,
            live_len,
            source_epoch,
            target_epoch: self.epoch,
        };
        self.delta_note_compact(&remap);
        if self.journal_enabled() {
            self.journal_note(super::CatalogMutation::Compact {
                remap: remap.clone(),
            });
        }
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::super::{RebuildPolicy, StrategyCatalog};
    use crate::model::{DeploymentParameters, Strategy};
    use stratrec_geometry::Axis;

    fn strategy(id: u64, q: f64, c: f64, l: f64) -> Strategy {
        Strategy::from_params(id, DeploymentParameters::clamped(q, c, l))
    }

    /// A churned running-example catalog: slots {0, 2} retired, slots
    /// {1, 3, 4, 5} live (4 and 5 inserted).
    fn churned(policy: RebuildPolicy) -> StrategyCatalog {
        let strategies = crate::examples_data::running_example_strategies();
        let mut catalog = StrategyCatalog::with_policy(strategies, policy);
        catalog.insert(strategy(10, 0.9, 0.45, 0.2));
        catalog.insert(strategy(11, 0.6, 0.15, 0.35));
        assert!(catalog.retire(0));
        assert!(catalog.retire(2));
        catalog
    }

    #[test]
    fn compaction_renumbers_live_slots_densely() {
        for policy in [
            RebuildPolicy::always(),
            RebuildPolicy::threshold(2),
            RebuildPolicy::never(),
        ] {
            let mut catalog = churned(policy);
            let epoch_before = catalog.epoch();
            let live_before: Vec<Strategy> = catalog
                .live_indices()
                .iter()
                .map(|&slot| catalog.strategy(slot).clone())
                .collect();
            let loosest = DeploymentParameters::default();
            let eligible_before = catalog.eligible_for(&loosest);

            let remap = catalog.compact();

            assert_eq!(catalog.slot_count(), catalog.len(), "{policy:?}");
            assert_eq!(catalog.len(), 4, "{policy:?}");
            assert_eq!(catalog.retired_count(), 0, "{policy:?}");
            assert!(catalog.overlay_is_empty(), "{policy:?}");
            assert!(catalog.index_is_packed_live(), "{policy:?}");
            assert_eq!(catalog.epoch(), epoch_before + 1, "{policy:?}");
            assert_eq!(catalog.strategies(), &live_before[..], "{policy:?}");

            // The remap covers the old numbering and preserves order.
            assert_eq!(remap.len(), 6, "{policy:?}");
            assert_eq!(remap.live_len, 4, "{policy:?}");
            assert!(!remap.is_identity(), "{policy:?}");
            assert_eq!(remap.remap(0), None, "{policy:?}");
            assert_eq!(remap.remap(1), Some(0), "{policy:?}");
            assert_eq!(remap.remap(2), None, "{policy:?}");
            assert_eq!(remap.remap(3), Some(1), "{policy:?}");
            assert_eq!(remap.remap(4), Some(2), "{policy:?}");
            assert_eq!(remap.remap(5), Some(3), "{policy:?}");
            assert_eq!(remap.remap(6), None, "out of range, {policy:?}");
            assert_eq!(remap.source_epoch(), epoch_before, "{policy:?}");
            assert_eq!(remap.target_epoch(), catalog.epoch(), "{policy:?}");
            assert_eq!(
                remap.mapped_pairs().collect::<Vec<_>>(),
                vec![(1, 0), (3, 1), (4, 2), (5, 3)],
                "{policy:?}"
            );

            // Queries answer the same live set under the new numbering.
            assert_eq!(
                catalog.eligible_for(&loosest),
                remap.remap_slots(&eligible_before).unwrap(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn compaction_preserves_queries_and_axis_orders_modulo_remap() {
        for policy in [
            RebuildPolicy::always(),
            RebuildPolicy::threshold(2),
            RebuildPolicy::never(),
        ] {
            let mut catalog = churned(policy);
            let requests = crate::examples_data::running_example_requests();
            let eligible_before: Vec<Vec<usize>> = requests
                .iter()
                .map(|r| catalog.eligible_for(&r.params))
                .collect();
            let axis_before: Vec<Vec<usize>> =
                Axis::ALL.iter().map(|&a| catalog.axis_order(a)).collect();

            let remap = catalog.compact();

            for (request, before) in requests.iter().zip(&eligible_before) {
                assert_eq!(
                    catalog.eligible_for(&request.params),
                    remap.remap_slots(before).unwrap(),
                    "{policy:?}, request {:?}",
                    request.id
                );
            }
            for (&axis, before) in Axis::ALL.iter().zip(&axis_before) {
                assert_eq!(
                    catalog.axis_order(axis),
                    remap.remap_slots(before).unwrap(),
                    "{policy:?}, {axis:?}"
                );
            }
        }
    }

    #[test]
    fn compacting_without_retirements_is_the_identity() {
        let strategies = crate::examples_data::running_example_strategies();
        let mut catalog = StrategyCatalog::with_policy(strategies, RebuildPolicy::never());
        catalog.insert(strategy(9, 0.85, 0.2, 0.3));
        let epoch_before = catalog.epoch();
        let remap = catalog.compact();
        assert!(remap.is_identity());
        assert_eq!(remap.live_len, 5);
        assert_eq!(remap.remap_slots(&[0, 1, 4]).unwrap(), vec![0, 1, 4]);
        // Still a mutation: the tail was merged, the epoch bumped.
        assert!(catalog.overlay_is_empty());
        assert!(catalog.index_is_packed_live());
        assert_eq!(catalog.epoch(), epoch_before + 1);
    }

    #[test]
    fn compacting_an_empty_catalog_is_harmless() {
        let mut catalog = StrategyCatalog::new(Vec::new());
        let remap = catalog.compact();
        assert!(remap.is_empty());
        assert!(remap.is_identity());
        assert_eq!(remap.live_len, 0);
        assert_eq!(catalog.slot_count(), 0);
        assert_eq!(catalog.epoch(), 1);
    }

    #[test]
    fn remapping_a_reclaimed_slot_reports_staleness() {
        let mut catalog = churned(RebuildPolicy::default());
        let remap = catalog.compact();
        // Slot 0 was retired before compaction: any slot set containing it
        // is stale as a whole.
        assert_eq!(remap.remap_slots(&[1, 0, 3]), None);
        assert_eq!(remap.remap_slots(&[1, 3]), Some(vec![0, 1]));
    }

    #[test]
    fn repeated_compaction_is_stable() {
        let mut catalog = churned(RebuildPolicy::threshold(3));
        let first = catalog.compact();
        assert!(!first.is_identity());
        let strategies_after_first = catalog.strategies().to_vec();
        let second = catalog.compact();
        assert!(second.is_identity());
        assert_eq!(second.len(), first.live_len);
        assert_eq!(catalog.strategies(), &strategies_after_first[..]);
        // Churn keeps working on the compacted numbering.
        let slot = catalog.insert(strategy(77, 0.7, 0.3, 0.3));
        assert_eq!(slot, 4);
        assert!(catalog.retire(0));
        let third = catalog.compact();
        assert_eq!(third.remap(slot), Some(3));
        assert_eq!(catalog.slot_count(), 4);
    }
}
