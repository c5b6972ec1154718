//! Catalog-resident per-axis slot orders.
//!
//! The catalog owns three slot permutations, one per normalized axis, each
//! sorted ascending by `(coordinate, slot)`. They follow the same
//! log-structured discipline as the R-tree — a sorted *base* covering the
//! slots present at the last merge, a sorted *tail* maintained per insert,
//! tombstones filtered at query time — so
//! [`StrategyCatalog::axis_order_into`] is exact at every churn point
//! without sorting. Because the ADPaR relaxation `max(0, coord − threshold)`
//! is monotone in the coordinate, these orders **are** the ascending
//! per-axis relaxation orders of any request;
//! [`crate::adpar::AdparProblem`]s walk them instead of sorting.

use stratrec_geometry::{Axis, Point3};

use super::StrategyCatalog;

/// Tail size up to which the per-axis sorted tails are maintained
/// incrementally. Far above
/// [`DEFAULT_REBUILD_THRESHOLD`](super::DEFAULT_REBUILD_THRESHOLD); only
/// unbounded policies ever cross it.
pub(super) const SORTED_TAIL_LIMIT: usize = 1024;

impl StrategyCatalog {
    /// Writes the **live** slots into `out`, sorted ascending by
    /// `(normalized coordinate on axis, slot)` — exact at every churn point.
    ///
    /// The order is merged on the fly from the pre-sorted per-axis base
    /// permutation (rebuilt at every overlay merge) and the per-axis sorted
    /// tail (maintained on every insert), filtering tombstones — `O(live)`
    /// with **no allocation beyond `out`**, instead of a full
    /// `O(|S| log |S|)` sort. (If the tail has outgrown the incremental
    /// sorted-tail regime — possible only with rebuild thresholds above
    /// `SORTED_TAIL_LIMIT` — a tail copy is sorted per call instead.)
    /// Because the ADPaR relaxation `max(0, coord − threshold)` is monotone
    /// in the coordinate, this order **is** the ascending per-axis
    /// relaxation order of any request — [`crate::adpar::AdparProblem`]s
    /// derive their sweep orders from it without sorting.
    pub fn axis_order_into(&self, axis: Axis, out: &mut Vec<usize>) {
        let overflow_tail = if self.axis_tail_sorted {
            None
        } else {
            Some(sorted_axis_tail(&self.points, &self.tail, axis))
        };
        let tail_sorted = overflow_tail
            .as_deref()
            .unwrap_or(&self.axis_tail[axis.index()]);
        merge_axis_order_into(
            &self.axis_base[axis.index()],
            tail_sorted,
            &self.live,
            &self.points,
            axis,
            out,
        );
    }

    /// Allocating convenience for [`Self::axis_order_into`].
    #[must_use]
    pub fn axis_order(&self, axis: Axis) -> Vec<usize> {
        let mut out = Vec::new();
        self.axis_order_into(axis, &mut out);
        out
    }

    /// Registers a freshly inserted tail `slot` with the per-axis sorted
    /// tails, abandoning the incremental regime once the tail outgrows
    /// [`SORTED_TAIL_LIMIT`].
    pub(super) fn axis_tail_insert(&mut self, slot: usize) {
        if !self.axis_tail_sorted {
            return;
        }
        if self.tail.len() > SORTED_TAIL_LIMIT {
            self.axis_tail_sorted = false;
            for order in &mut self.axis_tail {
                order.clear();
            }
        } else {
            for axis in Axis::ALL {
                let order = &mut self.axis_tail[axis.index()];
                let pos = order.partition_point(|&s| axis_cmp(&self.points, axis, s, slot).is_lt());
                order.insert(pos, slot);
            }
        }
    }

    /// Drops a retired tail `slot` from the per-axis sorted tails (the
    /// caller has already removed it from `tail`); outside the incremental
    /// regime, an emptied tail restores it.
    pub(super) fn axis_tail_retire(&mut self, slot: usize) {
        if self.axis_tail_sorted {
            for order in &mut self.axis_tail {
                let pos = order
                    .iter()
                    .position(|&s| s == slot)
                    .expect("tail slots are present in every axis tail");
                order.remove(pos);
            }
        } else if self.tail.is_empty() {
            // An emptied tail trivially mirrors the (empty) axis tails.
            self.axis_tail_sorted = true;
        }
    }

    /// Clears the per-axis tails and restores the incremental regime — for
    /// use when the catalog tail has just been emptied (merge, rebuild or
    /// compaction).
    pub(super) fn axis_tail_reset(&mut self) {
        for order in &mut self.axis_tail {
            order.clear();
        }
        self.axis_tail_sorted = true;
    }

    /// Re-sorts the per-axis bases over exactly the live slots and resets
    /// the tails — the axis-order counterpart of a full index rebuild.
    pub(super) fn axis_rebuild_live(&mut self) {
        self.axis_base = sorted_axis_orders(&self.points, self.live_indices());
        self.axis_tail_reset();
    }
}

/// Total order of two slots on one axis: `(coordinate, slot)` under
/// `f64::total_cmp`, so ties break deterministically by slot number and
/// every comparison site agrees on edge values like `-0.0` vs `0.0` (a
/// `PartialOrd` tuple comparison would call those coordinates equal while
/// the sorts would not, desynchronizing the merged orders).
pub(super) fn axis_cmp(points: &[Point3], axis: Axis, a: usize, b: usize) -> std::cmp::Ordering {
    points[a]
        .coord(axis)
        .total_cmp(&points[b].coord(axis))
        .then(a.cmp(&b))
}

/// A copy of `slots` sorted ascending by `(coordinate on axis, slot)`.
pub(super) fn sorted_axis_tail(points: &[Point3], slots: &[usize], axis: Axis) -> Vec<usize> {
    let mut order = slots.to_vec();
    order.sort_unstable_by(|&a, &b| axis_cmp(points, axis, a, b));
    order
}

/// Builds the three per-axis permutations of `slots` sorted ascending by
/// `(coordinate, slot)`.
pub(super) fn sorted_axis_orders(points: &[Point3], slots: Vec<usize>) -> [Vec<usize>; 3] {
    Axis::ALL.map(|axis| sorted_axis_tail(points, &slots, axis))
}

/// Merges a sorted axis base with a sorted tail into `out` (cleared first),
/// dropping non-live base slots. Tail slots are always live — retiring a
/// tail slot removes it from the tail instead of tombstoning — so only the
/// base needs filtering. Serves both the query path
/// ([`StrategyCatalog::axis_order_into`]) and the overlay merge, keeping
/// the two orderings identical by construction.
pub(super) fn merge_axis_order_into(
    base: &[usize],
    tail_sorted: &[usize],
    live: &[bool],
    points: &[Point3],
    axis: Axis,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.reserve(base.len() + tail_sorted.len());
    let mut tail_iter = tail_sorted.iter().copied().peekable();
    for slot in base.iter().copied().filter(|&slot| live[slot]) {
        while let Some(&t) = tail_iter.peek() {
            if axis_cmp(points, axis, t, slot).is_lt() {
                out.push(t);
                tail_iter.next();
            } else {
                break;
            }
        }
        out.push(slot);
    }
    out.extend(tail_iter);
}

#[cfg(test)]
mod tests {
    use super::super::{RebuildPolicy, StrategyCatalog};
    use super::SORTED_TAIL_LIMIT;
    use crate::model::{DeploymentParameters, Strategy};
    use stratrec_geometry::Axis;

    /// Reference: live slots sorted ascending by `(coordinate, slot)`.
    fn scan_axis_order(catalog: &StrategyCatalog, axis: Axis) -> Vec<usize> {
        let mut slots = catalog.live_indices();
        slots.sort_by(|&a, &b| {
            catalog.points()[a]
                .coord(axis)
                .total_cmp(&catalog.points()[b].coord(axis))
                .then(a.cmp(&b))
        });
        slots
    }

    #[test]
    fn axis_orders_match_a_sorted_scan() {
        let strategies = crate::examples_data::running_example_strategies();
        let catalog = StrategyCatalog::new(strategies.as_slice());
        for axis in Axis::ALL {
            assert_eq!(catalog.axis_order(axis), scan_axis_order(&catalog, axis));
        }
        // Spot-check the quality axis: ascending 1 - quality means
        // descending quality, and the running example's qualities ascend
        // from s1 to s4.
        assert_eq!(catalog.axis_order(Axis::X), vec![3, 2, 1, 0]);
    }

    #[test]
    fn axis_orders_stay_exact_under_churn() {
        for policy in [
            RebuildPolicy::always(),
            RebuildPolicy::threshold(2),
            RebuildPolicy::never(),
        ] {
            let strategies = crate::examples_data::running_example_strategies();
            let mut catalog = StrategyCatalog::with_policy(strategies, policy);
            catalog.insert(Strategy::from_params(
                10,
                DeploymentParameters::clamped(0.8, 0.25, 0.31),
            ));
            catalog.retire(1);
            catalog.insert(Strategy::from_params(
                11,
                DeploymentParameters::clamped(0.65, 0.4, 0.1),
            ));
            for axis in Axis::ALL {
                assert_eq!(
                    catalog.axis_order(axis),
                    scan_axis_order(&catalog, axis),
                    "{policy:?}, {axis:?}, pre-merge"
                );
            }
            catalog.merge_overlay();
            catalog.retire(3);
            for axis in Axis::ALL {
                assert_eq!(
                    catalog.axis_order(axis),
                    scan_axis_order(&catalog, axis),
                    "{policy:?}, {axis:?}, post-merge"
                );
            }
            catalog.force_rebuild();
            for axis in Axis::ALL {
                assert_eq!(
                    catalog.axis_order(axis),
                    scan_axis_order(&catalog, axis),
                    "{policy:?}, {axis:?}, post-rebuild"
                );
            }
        }
    }

    #[test]
    fn axis_orders_survive_tail_overflow_under_never_policy() {
        // Past SORTED_TAIL_LIMIT the incremental sorted tails are abandoned
        // (keeping inserts O(1) amortized under unbounded policies) and the
        // query path sorts a tail copy instead; orders must stay exact
        // through the overflow, through retires inside it, and after the
        // merge that restores the incremental regime.
        let mut catalog = StrategyCatalog::with_policy(Vec::new(), RebuildPolicy::never());
        for i in 0..(SORTED_TAIL_LIMIT + 40) {
            let q = 0.3 + 0.4 * ((i % 97) as f64 / 97.0);
            catalog.insert(Strategy::from_params(
                i as u64,
                DeploymentParameters::clamped(q, 1.0 - q, (i % 13) as f64 / 13.0),
            ));
        }
        for axis in Axis::ALL {
            assert_eq!(
                catalog.axis_order(axis),
                scan_axis_order(&catalog, axis),
                "{axis:?}, overflowed tail"
            );
        }
        for slot in [0, 7, SORTED_TAIL_LIMIT + 5] {
            assert!(catalog.retire(slot));
        }
        for axis in Axis::ALL {
            assert_eq!(
                catalog.axis_order(axis),
                scan_axis_order(&catalog, axis),
                "{axis:?}, retires while overflowed"
            );
        }
        catalog.merge_overlay();
        assert!(catalog.overlay_is_empty());
        catalog.insert(Strategy::from_params(
            90_000,
            DeploymentParameters::clamped(0.5, 0.5, 0.5),
        ));
        for axis in Axis::ALL {
            assert_eq!(
                catalog.axis_order(axis),
                scan_axis_order(&catalog, axis),
                "{axis:?}, post-merge incremental regime"
            );
        }
    }

    #[test]
    fn axis_order_ties_break_by_slot() {
        let params = DeploymentParameters::clamped(0.7, 0.3, 0.4);
        let strategies = vec![
            Strategy::from_params(0, params),
            Strategy::from_params(1, params),
            Strategy::from_params(2, params),
        ];
        let catalog = StrategyCatalog::new(strategies.as_slice());
        for axis in Axis::ALL {
            assert_eq!(catalog.axis_order(axis), vec![0, 1, 2]);
        }
    }

    #[test]
    fn negative_zero_coordinates_keep_the_total_order() {
        // clamped() preserves -0.0 (since -0.0 < 0.0 is false) and
        // total_cmp orders -0.0 before +0.0. Every comparison site — the
        // base sort, the insert-time partition point and the query-time
        // merge — must agree on that, or a -0.0 tail insert desynchronizes
        // the merged order from the documented (coordinate, slot) sort.
        let mut catalog = StrategyCatalog::with_policy(
            vec![Strategy::from_params(
                0,
                DeploymentParameters::clamped(0.7, 0.0, 0.4),
            )],
            RebuildPolicy::never(),
        );
        catalog.insert(Strategy::from_params(
            1,
            DeploymentParameters::clamped(0.7, -0.0, 0.4),
        ));
        assert_eq!(
            catalog.axis_order(Axis::Y),
            scan_axis_order(&catalog, Axis::Y)
        );
        assert_eq!(catalog.axis_order(Axis::Y), vec![1, 0]);
        catalog.merge_overlay();
        assert_eq!(catalog.axis_order(Axis::Y), vec![1, 0]);
    }
}
