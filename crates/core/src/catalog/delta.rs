//! Churn deltas: the catalog's change feed for delta-maintained derived
//! state.
//!
//! A consumer that derives slot-shaped state from the catalog — the
//! workforce matrix above all — used to have exactly one way to follow
//! churn: recompute from scratch every epoch, `O(n · |S|)` model inversions
//! for a 1 % change. A [`DeltaSubscription`] turns that into incremental
//! maintenance: the catalog accumulates, per subscriber, which slots were
//! **inserted** and **retired** since the subscriber last synchronized, and
//! [`StrategyCatalog::take_delta`] drains the accumulated window as a
//! [`CatalogDelta`]. The consumer then touches only the changed columns
//! ([`crate::workforce::WorkforceMatrix::apply_delta`]) and repairs only the
//! affected aggregation rows
//! ([`crate::workforce::AggregationCache::repair`]), with work proportional
//! to the churn instead of `|S|`.
//!
//! # Composition across `compact()`
//!
//! Slot numbers are stable between compactions, so within one window the
//! delta is just two slot lists. A [`StrategyCatalog::compact`] renumbers
//! everything; the tracker *composes* the compaction's
//! [`SlotRemap`](super::SlotRemap) into the pending window instead of
//! invalidating it:
//!
//! * the remap is restricted to the subscriber's numbering (its slot width
//!   at the last drain) and chained onto any previously pending remap —
//!   `forward[old]` walks every compaction of the window at once;
//! * pending retirements are dropped (a compaction reclaims every tombstone,
//!   so the remap already maps those slots to `None` and
//!   [`WorkforceMatrix::remap_columns`](crate::workforce::WorkforceMatrix::remap_columns)
//!   sheds their columns);
//! * slots inserted during the window keep riding along: dense renumbering
//!   preserves order, and every window insert was appended *after* the
//!   subscriber's slots, so the surviving subscriber columns always occupy a
//!   prefix `0..p` of the current numbering and the window inserts the tail
//!   `p..slot_count` — which is exactly how [`CatalogDelta::inserted`] is
//!   materialized at drain time.
//!
//! The net contract: applying one [`CatalogDelta`] — remap, then append the
//! inserted columns, then infinity-out the retired ones — lands a derived
//! matrix on **bit-identical** state to a fresh recompute over the updated
//! catalog, no matter how many inserts, retires and compactions the window
//! saw (pinned per step by the `tests/catalog_churn.rs` replay).

use serde::{Deserialize, Serialize};

use super::{SlotRemap, StrategyCatalog};
use crate::error::StratRecError;

/// Default [`StrategyCatalog::delta_lapse_limit`]: how many catalog
/// mutations a subscriber may sit through without draining before its
/// tracker is evicted. Large enough that a per-epoch drainer at paper-scale
/// churn (a few hundred mutations per epoch) never lapses; small enough
/// that a leaked tracker stops costing per-mutation bookkeeping after a
/// bounded number of epochs.
pub const DEFAULT_DELTA_LAPSE_LIMIT: u64 = 4096;

/// One subscriber's view of the churn since it last synchronized, drained by
/// [`StrategyCatalog::take_delta`].
///
/// The delta describes how to bring slot-shaped state captured at
/// [`Self::from_epoch`] (over [`Self::source_cols`] slots) up to the catalog
/// state at [`Self::to_epoch`] (over [`Self::target_cols`] slots):
///
/// 1. if [`Self::remap`] is present, renumber through it first (the
///    composed effect of every `compact()` in the window; reclaimed slots
///    map to `None` and their columns are shed);
/// 2. append one column per [`Self::inserted`] slot — these are exactly the
///    current-numbering slots `post_remap_cols..target_cols`, ascending;
///    slots inserted *and* retired within the window are present but not
///    live, so their columns stay infeasible;
/// 3. write `f64::INFINITY` into every [`Self::retired`] column in place —
///    these are always pre-existing columns (`< post_remap_cols`), retired
///    after the window's last compaction (earlier retirements were
///    reclaimed and live in the remap instead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogDelta {
    /// Catalog epoch of the subscriber's last drain (where the window
    /// starts).
    pub from_epoch: u64,
    /// Catalog epoch this delta brings the subscriber to — always the
    /// catalog's current epoch at drain time.
    pub to_epoch: u64,
    /// The subscriber's slot width at `from_epoch` (what derived state must
    /// be shaped like before applying this delta).
    pub source_cols: usize,
    /// The catalog's slot count at `to_epoch` (what derived state is shaped
    /// like after applying this delta).
    pub target_cols: usize,
    /// Composed compaction remap covering `0..source_cols`, present iff the
    /// window crossed at least one [`StrategyCatalog::compact`].
    pub remap: Option<SlotRemap>,
    /// Current-numbering slots appended during the window (ascending; the
    /// contiguous range `post_remap_cols..target_cols`). Includes slots
    /// retired again within the window — they still occupy the numbering.
    pub inserted: Vec<usize>,
    /// Current-numbering slots retired during the window that the
    /// subscriber holds live columns for, ascending. Disjoint from
    /// `inserted` and always `< post_remap_cols`.
    pub retired: Vec<usize>,
}

impl CatalogDelta {
    /// Whether the window saw no mutation at all (applying the delta is a
    /// no-op).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.from_epoch == self.to_epoch
    }

    /// The subscriber's column count after step 1 (the remap) and before
    /// step 2 (the appends): [`SlotRemap::live_len`] of the composed remap,
    /// or [`Self::source_cols`] when the window crossed no compaction.
    #[must_use]
    pub fn post_remap_cols(&self) -> usize {
        self.remap
            .as_ref()
            .map_or(self.source_cols, |remap| remap.live_len)
    }
}

/// Handle identifying one delta tracker registered with a catalog via
/// [`StrategyCatalog::subscribe_delta`].
///
/// The handle is **generation-tagged**: ids are recycled by later
/// subscribers, but every issuance carries a fresh generation, so a stale
/// `Copy` of a released (or [evicted](StrategyCatalog::delta_lapse_limit))
/// handle can never silently drain — or release — a *different* subscriber
/// that happens to reuse the same id. [`StrategyCatalog::take_delta`] on a
/// stale or unknown handle fails with the typed
/// [`StratRecError::StaleSubscription`] instead.
///
/// The handle is `Copy` for ergonomic storage; it is only meaningful
/// against the catalog (or clones of the catalog) it was issued by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeltaSubscription {
    id: usize,
    generation: u64,
}

impl DeltaSubscription {
    /// The (recyclable) tracker-slot id this handle names; the generation
    /// tag decides whether the handle still owns that slot.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }
}

/// One tracker slot of the catalog's subscription table. The generation
/// counts issuances of this slot's id: it is bumped every time the slot is
/// (re-)subscribed, and a handle is honored only while its generation
/// matches — releasing, evicting, or re-issuing the slot strands every
/// previously issued handle with a typed error instead of silent aliasing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(super) struct SubscriptionSlot {
    /// Generation of the most recent issuance of this slot's id.
    generation: u64,
    /// The live tracker, or `None` once released/evicted.
    tracker: Option<DeltaTracker>,
}

/// Per-subscriber accumulation state (see the module docs for the
/// composition rules).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(super) struct DeltaTracker {
    /// Catalog epoch at the last drain.
    base_epoch: u64,
    /// Catalog slot count at the last drain — the subscriber's numbering
    /// width, which `remap` (when present) covers.
    base_width: usize,
    /// How many of the subscriber's slots are still present in the current
    /// numbering; they always occupy the prefix `0..present_base`, so any
    /// slot `>= present_base` was inserted during the window.
    present_base: usize,
    /// Composed remap of every `compact()` in the window, restricted to
    /// `0..base_width`.
    remap: Option<SlotRemap>,
    /// Subscriber columns retired since the later of the last drain and the
    /// window's last compaction (push order; sorted at drain time).
    retired: Vec<usize>,
    /// Catalog mutations observed since the last drain (or since
    /// subscribing). A tracker whose count exceeds the catalog's
    /// [`StrategyCatalog::delta_lapse_limit`] has lapsed — its subscriber
    /// leaked or starved — and is evicted so the catalog stops paying
    /// per-mutation bookkeeping for it forever.
    undrained: u64,
}

impl DeltaTracker {
    fn new(epoch: u64, width: usize) -> Self {
        Self {
            base_epoch: epoch,
            base_width: width,
            present_base: width,
            remap: None,
            retired: Vec::new(),
            undrained: 0,
        }
    }

    /// Records the retirement of `slot` (current numbering). Window inserts
    /// (`slot >= present_base`) are not recorded: the subscriber has no
    /// column for them yet, and the drain-time append consults liveness.
    /// Deduplicated against the pending window — a slot retires at most
    /// once between compactions, so a duplicate record could only come from
    /// replaying a mutation against a tracker that already saw it, and must
    /// not grow the window.
    fn note_retire(&mut self, slot: usize) {
        if slot < self.present_base && !self.retired.contains(&slot) {
            self.retired.push(slot);
        }
    }

    /// Composes a compaction's full remap into the pending window.
    fn note_compact(&mut self, full: &SlotRemap) {
        let forward: Vec<Option<usize>> = (0..self.base_width)
            .map(|old| {
                let current = match &self.remap {
                    Some(remap) => remap.forward[old],
                    None => Some(old),
                };
                current.and_then(|slot| full.remap(slot))
            })
            .collect();
        let live_len = forward.iter().flatten().count();
        self.present_base = live_len;
        self.remap = Some(SlotRemap::from_parts(
            forward,
            live_len,
            self.base_epoch,
            full.target_epoch(),
        ));
        // Every tombstone — recorded here or not — was just reclaimed; the
        // composed remap maps those slots to `None` instead.
        self.retired.clear();
    }

    /// Drains the window into a [`CatalogDelta`] and re-bases the tracker at
    /// the catalog's current `(epoch, slot_count)`.
    fn drain(&mut self, epoch: u64, slot_count: usize) -> CatalogDelta {
        let mut retired = std::mem::take(&mut self.retired);
        retired.sort_unstable();
        let delta = CatalogDelta {
            from_epoch: self.base_epoch,
            to_epoch: epoch,
            source_cols: self.base_width,
            target_cols: slot_count,
            remap: self.remap.take(),
            inserted: (self.present_base..slot_count).collect(),
            retired,
        };
        self.base_epoch = epoch;
        self.base_width = slot_count;
        self.present_base = slot_count;
        self.undrained = 0;
        delta
    }
}

impl StrategyCatalog {
    /// Registers a delta subscriber synchronized with the catalog's current
    /// state: the first [`Self::take_delta`] covers every mutation from this
    /// moment on. Subscribe at the instant the derived state is computed
    /// (both observe the same epoch). Released tracker slots are recycled,
    /// but every issuance carries a fresh generation tag, so handles from
    /// earlier issuances of the same id stay dead.
    pub fn subscribe_delta(&mut self) -> DeltaSubscription {
        let tracker = DeltaTracker::new(self.epoch, self.strategies.len());
        for (id, slot) in self.subscriptions.iter_mut().enumerate() {
            if slot.tracker.is_none() {
                slot.generation += 1;
                slot.tracker = Some(tracker);
                return DeltaSubscription {
                    id,
                    generation: slot.generation,
                };
            }
        }
        self.subscriptions.push(SubscriptionSlot {
            generation: 0,
            tracker: Some(tracker),
        });
        DeltaSubscription {
            id: self.subscriptions.len() - 1,
            generation: 0,
        }
    }

    /// Drains the churn accumulated for `subscription` since its last drain
    /// (or since [`Self::subscribe_delta`]) and re-bases the subscriber at
    /// the current epoch. Apply the returned delta immediately — it brings
    /// derived state exactly to the catalog's current state, and the next
    /// drain assumes it was applied.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::StaleSubscription`] when `subscription` is
    /// not registered with this catalog: never issued here, released by
    /// [`Self::unsubscribe_delta`], evicted after lapsing past
    /// [`Self::delta_lapse_limit`], or an earlier-generation handle of a
    /// recycled id. The caller must re-subscribe and recompute its derived
    /// state from scratch.
    pub fn take_delta(
        &mut self,
        subscription: &DeltaSubscription,
    ) -> Result<CatalogDelta, StratRecError> {
        let epoch = self.epoch;
        let slot_count = self.strategies.len();
        self.subscriptions
            .get_mut(subscription.id)
            .filter(|slot| slot.generation == subscription.generation)
            .and_then(|slot| slot.tracker.as_mut())
            .map(|tracker| tracker.drain(epoch, slot_count))
            .ok_or(StratRecError::StaleSubscription {
                id: subscription.id,
            })
    }

    /// Releases a delta subscription, returning whether a live tracker was
    /// released. Stale handles — released, evicted, or an earlier
    /// generation of a recycled id — are ignored (`false`), so a detached
    /// holder can never release a *different* subscriber's tracker.
    pub fn unsubscribe_delta(&mut self, subscription: DeltaSubscription) -> bool {
        match self.subscriptions.get_mut(subscription.id) {
            Some(slot) if slot.generation == subscription.generation => {
                slot.tracker.take().is_some()
            }
            _ => false,
        }
    }

    /// Number of live delta subscriptions.
    #[must_use]
    pub fn delta_subscriber_count(&self) -> usize {
        self.subscriptions
            .iter()
            .filter(|slot| slot.tracker.is_some())
            .count()
    }

    /// How many catalog mutations a subscriber may sit through without
    /// draining before its tracker is evicted (its handles then fail with
    /// [`StratRecError::StaleSubscription`]). Bounds the cost of leaked
    /// subscriptions: a subscriber that stops draining without unsubscribing
    /// stops charging per-mutation bookkeeping once it lapses. `u64::MAX`
    /// disables eviction.
    #[must_use]
    pub fn delta_lapse_limit(&self) -> u64 {
        self.delta_lapse_limit
    }

    /// Sets [`Self::delta_lapse_limit`] (`u64::MAX` disables eviction).
    pub fn set_delta_lapse_limit(&mut self, limit: u64) {
        self.delta_lapse_limit = limit;
    }

    /// Number of trackers evicted so far for lapsing past
    /// [`Self::delta_lapse_limit`].
    #[must_use]
    pub fn delta_evictions(&self) -> u64 {
        self.delta_evictions
    }

    /// Mutation hook: records a retirement with every tracker (called by
    /// [`Self::retire`](StrategyCatalog::retire) after tombstoning).
    pub(super) fn delta_note_retire(&mut self, slot: usize) {
        for tracker in self.live_trackers() {
            tracker.note_retire(slot);
        }
        self.delta_evict_lapsed();
    }

    /// Mutation hook: inserts carry no per-tracker payload (the drain-time
    /// append derives them from the width), but they still age every
    /// pending window (called by
    /// [`Self::insert`](StrategyCatalog::insert)).
    pub(super) fn delta_note_insert(&mut self) {
        self.delta_evict_lapsed();
    }

    /// Mutation hook: composes a compaction's remap into every tracker
    /// (called by [`Self::compact`](StrategyCatalog::compact) before the
    /// remap is returned).
    pub(super) fn delta_note_compact(&mut self, remap: &SlotRemap) {
        for tracker in self.live_trackers() {
            tracker.note_compact(remap);
        }
        self.delta_evict_lapsed();
    }

    fn live_trackers(&mut self) -> impl Iterator<Item = &mut DeltaTracker> {
        self.subscriptions
            .iter_mut()
            .filter_map(|slot| slot.tracker.as_mut())
    }

    /// Ages every pending window by one mutation and evicts trackers that
    /// lapsed past [`Self::delta_lapse_limit`]. Eviction is safe precisely
    /// because handles are generation-tagged: the stranded subscriber's
    /// next drain fails typed instead of aliasing a recycled slot.
    fn delta_evict_lapsed(&mut self) {
        let limit = self.delta_lapse_limit;
        let mut evicted = 0;
        for slot in &mut self.subscriptions {
            if let Some(tracker) = slot.tracker.as_mut() {
                tracker.undrained += 1;
                if tracker.undrained > limit {
                    slot.tracker = None;
                    evicted += 1;
                }
            }
        }
        self.delta_evictions += evicted;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{RebuildPolicy, StrategyCatalog};
    use crate::error::StratRecError;
    use crate::model::{DeploymentParameters, Strategy};

    fn strategy(id: u64, q: f64, c: f64, l: f64) -> Strategy {
        Strategy::from_params(id, DeploymentParameters::clamped(q, c, l))
    }

    fn running_catalog(policy: RebuildPolicy) -> StrategyCatalog {
        StrategyCatalog::with_policy(crate::examples_data::running_example_strategies(), policy)
    }

    #[test]
    fn an_untouched_window_drains_empty() {
        let mut catalog = running_catalog(RebuildPolicy::default());
        let sub = catalog.subscribe_delta();
        assert_eq!(catalog.delta_subscriber_count(), 1);
        let delta = catalog.take_delta(&sub).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.from_epoch, delta.to_epoch);
        assert_eq!(delta.source_cols, 4);
        assert_eq!(delta.target_cols, 4);
        assert_eq!(delta.post_remap_cols(), 4);
        assert!(delta.remap.is_none());
        assert!(delta.inserted.is_empty());
        assert!(delta.retired.is_empty());
    }

    #[test]
    fn inserts_and_retires_accumulate_per_window() {
        let mut catalog = running_catalog(RebuildPolicy::never());
        let sub = catalog.subscribe_delta();
        let a = catalog.insert(strategy(10, 0.9, 0.4, 0.2));
        let b = catalog.insert(strategy(11, 0.6, 0.2, 0.4));
        assert!(catalog.retire(1));
        assert!(catalog.retire(3));
        let delta = catalog.take_delta(&sub).unwrap();
        assert!(!delta.is_empty());
        assert_eq!(delta.from_epoch, 0);
        assert_eq!(delta.to_epoch, catalog.epoch());
        assert_eq!(delta.source_cols, 4);
        assert_eq!(delta.target_cols, 6);
        assert!(delta.remap.is_none());
        assert_eq!(delta.inserted, vec![a, b]);
        assert_eq!(delta.retired, vec![1, 3]);

        // The next window starts clean and rides on the new width.
        assert!(catalog.retire(a));
        let next = catalog.take_delta(&sub).unwrap();
        assert_eq!(next.from_epoch, delta.to_epoch);
        assert_eq!(next.source_cols, 6);
        assert_eq!(next.target_cols, 6);
        assert_eq!(next.retired, vec![a]);
        assert!(next.inserted.is_empty());
    }

    #[test]
    fn a_window_insert_retired_in_the_same_window_stays_in_inserted_only() {
        let mut catalog = running_catalog(RebuildPolicy::never());
        let sub = catalog.subscribe_delta();
        let slot = catalog.insert(strategy(10, 0.9, 0.4, 0.2));
        assert!(catalog.retire(slot));
        let delta = catalog.take_delta(&sub).unwrap();
        // The slot still occupies the numbering, so the subscriber must
        // append a (dead, infeasible) column for it — but it never had a
        // live column to blank.
        assert_eq!(delta.inserted, vec![slot]);
        assert!(delta.retired.is_empty());
        assert!(!catalog.is_live(slot));
    }

    #[test]
    fn compaction_composes_into_the_pending_window() {
        for policy in [
            RebuildPolicy::always(),
            RebuildPolicy::threshold(2),
            RebuildPolicy::never(),
        ] {
            let mut catalog = running_catalog(policy);
            let sub = catalog.subscribe_delta();
            let ins = catalog.insert(strategy(10, 0.9, 0.4, 0.2));
            assert!(catalog.retire(0));
            assert!(catalog.retire(2));
            let full = catalog.compact();
            // Post-compaction churn keeps accumulating in the same window.
            assert!(catalog.retire(full.remap(1).unwrap()));
            let late = catalog.insert(strategy(11, 0.6, 0.2, 0.4));

            let delta = catalog.take_delta(&sub).unwrap();
            assert_eq!(delta.source_cols, 4, "{policy:?}");
            assert_eq!(delta.target_cols, catalog.slot_count(), "{policy:?}");
            let remap = delta.remap.as_ref().expect("window crossed a compact");
            // Restricted to the subscriber's four original slots: 0 and 2
            // reclaimed, 1 and 3 renumbered densely.
            assert_eq!(remap.len(), 4, "{policy:?}");
            assert_eq!(remap.remap(0), None, "{policy:?}");
            assert_eq!(remap.remap(1), Some(0), "{policy:?}");
            assert_eq!(remap.remap(2), None, "{policy:?}");
            assert_eq!(remap.remap(3), Some(1), "{policy:?}");
            assert_eq!(remap.live_len, 2, "{policy:?}");
            assert_eq!(delta.post_remap_cols(), 2, "{policy:?}");
            // The surviving window insert follows the compaction (slot `ins`
            // became slot 2), the post-compaction insert appends after it.
            assert_eq!(delta.inserted, vec![full.remap(ins).unwrap(), late]);
            // The post-compaction retirement is the only recorded one — the
            // pre-compaction tombstones live in the remap.
            assert_eq!(delta.retired, vec![0], "{policy:?}");
            assert_eq!(delta.to_epoch, catalog.epoch(), "{policy:?}");
        }
    }

    #[test]
    fn repeated_compactions_chain_through_one_remap() {
        let mut catalog = running_catalog(RebuildPolicy::default());
        let sub = catalog.subscribe_delta();
        assert!(catalog.retire(0));
        catalog.compact(); // 1→0, 2→1, 3→2
        assert!(catalog.retire(1)); // originally slot 2
        catalog.compact(); // 0→0, 2→1
        let delta = catalog.take_delta(&sub).unwrap();
        let remap = delta.remap.as_ref().unwrap();
        assert_eq!(remap.len(), 4);
        assert_eq!(remap.remap(0), None);
        assert_eq!(remap.remap(1), Some(0));
        assert_eq!(remap.remap(2), None);
        assert_eq!(remap.remap(3), Some(1));
        assert!(delta.retired.is_empty());
        assert!(delta.inserted.is_empty());
        assert_eq!(delta.target_cols, 2);
    }

    #[test]
    fn subscribers_drain_independently_and_ids_recycle() {
        let mut catalog = running_catalog(RebuildPolicy::default());
        let early = catalog.subscribe_delta();
        catalog.insert(strategy(10, 0.9, 0.4, 0.2));
        let late = catalog.subscribe_delta();
        assert!(catalog.retire(1));
        assert_eq!(catalog.delta_subscriber_count(), 2);

        let early_delta = catalog.take_delta(&early).unwrap();
        assert_eq!(early_delta.inserted, vec![4]);
        assert_eq!(early_delta.retired, vec![1]);
        let late_delta = catalog.take_delta(&late).unwrap();
        assert!(late_delta.inserted.is_empty());
        assert_eq!(late_delta.retired, vec![1]);

        assert!(catalog.unsubscribe_delta(early));
        assert_eq!(catalog.delta_subscriber_count(), 1);
        let reissued = catalog.subscribe_delta();
        assert_eq!(catalog.delta_subscriber_count(), 2);
        // The freed id is recycled; the reissued tracker starts clean.
        assert_eq!(reissued.id(), early.id());
        assert!(catalog.take_delta(&reissued).unwrap().is_empty());
    }

    #[test]
    fn draining_a_released_subscription_fails_typed() {
        let mut catalog = running_catalog(RebuildPolicy::default());
        let sub = catalog.subscribe_delta();
        assert!(catalog.unsubscribe_delta(sub));
        assert!(!catalog.unsubscribe_delta(sub), "double release is inert");
        assert_eq!(
            catalog.take_delta(&sub),
            Err(StratRecError::StaleSubscription { id: sub.id() })
        );
    }

    #[test]
    fn a_stale_handle_never_drains_a_recycled_id() {
        // The regression the generation tag exists for: a consumer that
        // unsubscribed keeps a `Copy` of its released handle while a new subscriber is
        // issued the same id. The stale copy must fail typed instead of
        // silently draining (and thereby corrupting) the new subscriber's
        // window.
        let mut catalog = running_catalog(RebuildPolicy::never());
        let stale = catalog.subscribe_delta();
        assert!(catalog.unsubscribe_delta(stale));
        let fresh = catalog.subscribe_delta();
        assert_eq!(fresh.id(), stale.id(), "the id is recycled");
        assert_ne!(fresh, stale, "but the issuance is distinguishable");

        catalog.insert(strategy(10, 0.9, 0.4, 0.2));
        assert!(catalog.retire(1));
        assert_eq!(
            catalog.take_delta(&stale),
            Err(StratRecError::StaleSubscription { id: stale.id() }),
            "the stale copy must not drain the recycled slot"
        );
        assert!(
            !catalog.unsubscribe_delta(stale),
            "nor release the new subscriber"
        );
        // The new subscriber's window is intact: both mutations drain.
        let delta = catalog.take_delta(&fresh).unwrap();
        assert_eq!(delta.inserted, vec![4]);
        assert_eq!(delta.retired, vec![1]);

        // A handle from a catalog that never issued this id also fails.
        let mut other = running_catalog(RebuildPolicy::default());
        assert_eq!(
            other.take_delta(&fresh),
            Err(StratRecError::StaleSubscription { id: fresh.id() })
        );
    }

    #[test]
    fn lapsed_trackers_are_evicted_and_memory_stays_pinned() {
        // A leaked subscriber (dropped without `unsubscribe_delta`) must not
        // keep charging the catalog forever: after `delta_lapse_limit`
        // mutations without a drain the tracker is evicted, its handle
        // fails typed, and an active subscriber draining every epoch is
        // untouched.
        let mut catalog = running_catalog(RebuildPolicy::threshold(8));
        catalog.set_delta_lapse_limit(64);
        assert_eq!(catalog.delta_lapse_limit(), 64);
        let leaked = catalog.subscribe_delta();
        let active = catalog.subscribe_delta();
        for epoch in 0..1_000_u64 {
            let slot = catalog.insert(strategy(100 + epoch, 0.8, 0.3, 0.3));
            assert!(catalog.retire(slot));
            if epoch % 7 == 6 {
                catalog.compact();
            }
            // The active subscriber drains every epoch and never lapses.
            assert!(!catalog.take_delta(&active).unwrap().is_empty());
        }
        assert_eq!(catalog.delta_evictions(), 1, "exactly the leaked tracker");
        assert_eq!(catalog.delta_subscriber_count(), 1);
        assert_eq!(
            catalog.take_delta(&leaked),
            Err(StratRecError::StaleSubscription { id: leaked.id() })
        );
        // The leaked slot is recyclable again — under a new generation.
        let recycled = catalog.subscribe_delta();
        assert_eq!(recycled.id(), leaked.id());
        assert_eq!(catalog.delta_subscriber_count(), 2);
        assert!(catalog.take_delta(&recycled).unwrap().is_empty());
    }

    #[test]
    fn the_default_lapse_limit_spares_slow_but_live_subscribers() {
        let mut catalog = running_catalog(RebuildPolicy::threshold(8));
        let slow = catalog.subscribe_delta();
        // Well under DEFAULT_DELTA_LAPSE_LIMIT mutations: nothing evicts.
        for i in 0..200_u64 {
            catalog.insert(strategy(50 + i, 0.7, 0.4, 0.4));
        }
        assert_eq!(catalog.delta_evictions(), 0);
        let delta = catalog.take_delta(&slow).unwrap();
        assert_eq!(delta.inserted.len(), 200);
    }
}
