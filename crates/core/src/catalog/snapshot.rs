//! Lock-free epoch snapshots: concurrent serving under churn.
//!
//! Everything upstream of this module is `&mut`-serialized: a churn epoch
//! and a serving batch cannot overlap, so throughput is capped at one
//! writer's pace no matter how many cores exist. This module splits the
//! catalog into the two halves a single-writer/many-reader service needs:
//!
//! * an [`EpochSnapshot`] — an **immutable** capture of the catalog's read
//!   state (strategies, normalized points, liveness bitmap, R-tree, axis
//!   orders) at one epoch, shared as a cheaply-clonable `Arc<EpochSnapshot>`. Every read path that takes `&StrategyCatalog`
//!   serves from a pinned snapshot unchanged — the snapshot derefs to the
//!   catalog it captured;
//! * a [`ConcurrentCatalog`] — the publication cell. A single writer folds
//!   churn (insert / retire / compact) into its private working catalog
//!   under [`ConcurrentCatalog::update`] and publishes the result as the
//!   next snapshot with one pointer swap. Readers [`ConcurrentCatalog::pin`]
//!   the current snapshot and then serve **entirely lock-free**: the only
//!   synchronization a reader ever touches is the brief `Arc` clone at pin
//!   or migration time, never during a solve.
//!
//! # Migration
//!
//! A reader holding derived slot-shaped state (a workforce matrix, an
//! aggregation cache) does not recompute when the snapshot advances: a
//! [`SnapshotReader`] owns a [`DeltaSubscription`] on the writer's catalog,
//! and [`SnapshotReader::migrate`] drains the churn window as a
//! [`CatalogDelta`] while re-pinning the latest snapshot — the reader then
//! applies the delta exactly as the sequential incremental path does
//! ([`crate::engine::BatchEngine::apply_matrix_delta`]). The subscription
//! is released on drop (an RAII detach guard), so a reader that goes away
//! without ceremony cannot leak its tracker; a reader that *stalls* past
//! the catalog's [`StrategyCatalog::delta_lapse_limit`] is evicted and its
//! next migration fails with the typed
//! [`StratRecError::StaleSubscription`](crate::error::StratRecError::StaleSubscription),
//! after which [`SnapshotReader::re_pin`] recovers with a fresh
//! subscription and a full recompute.
//!
//! # Ordering contract
//!
//! The publish/acquire pair is a swap under a write lock against clones
//! under a read lock (`RwLock<Arc<EpochSnapshot>>`), with all writer-side
//! state behind one `Mutex` acquired *before* the cell in every path — the
//! lock pair is the `arc_swap`-style pointer swap this offline build can
//! express without `unsafe`. Two invariants follow, and the stress tests
//! below plus `tests/snapshot_isolation.rs` pin them:
//!
//! 1. **Committed-state reads**: every pinned snapshot is a state the
//!    writer published at an epoch boundary — readers can never observe a
//!    half-applied churn epoch, because mutation happens on the writer's
//!    private catalog and publication is a single pointer swap.
//! 2. **Monotonic epochs**: consecutive pins (and migrations) of one reader
//!    never move backwards.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use super::{CatalogDelta, CatalogMutation, DeltaSubscription, StrategyCatalog};
use crate::error::StratRecError;

/// An immutable capture of a catalog's read state at one epoch, shared as
/// `Arc<EpochSnapshot>`. Derefs to the captured [`StrategyCatalog`], so
/// every `&StrategyCatalog` read path (eligibility queries, axis orders,
/// ADPaR problems, workforce-matrix fills) serves from a
/// snapshot unchanged — and lock-free, since nothing can mutate it.
#[derive(Debug)]
pub struct EpochSnapshot {
    catalog: StrategyCatalog,
}

impl EpochSnapshot {
    /// Captures `catalog`'s read state (subscription lifecycle state is
    /// writer-side and deliberately left behind).
    fn capture(catalog: &StrategyCatalog) -> Self {
        Self {
            catalog: catalog.detached_clone(),
        }
    }

    /// The captured catalog.
    #[must_use]
    pub fn catalog(&self) -> &StrategyCatalog {
        &self.catalog
    }

    /// The catalog epoch this snapshot was published at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.catalog.epoch()
    }
}

impl Deref for EpochSnapshot {
    type Target = StrategyCatalog;

    fn deref(&self) -> &StrategyCatalog {
        &self.catalog
    }
}

/// Writer-side state: the single writer's working catalog, which also owns
/// every reader's [`DeltaSubscription`] tracker.
#[derive(Debug)]
struct Shared {
    /// The published snapshot cell. Readers clone the `Arc` under the read
    /// lock (nanoseconds, no allocation); the writer swaps a new snapshot
    /// in under the write lock. Lock order: `writer` before `current`,
    /// everywhere.
    current: RwLock<Arc<EpochSnapshot>>,
    /// The writer's private working catalog. Outside an
    /// [`ConcurrentCatalog::update`] critical section it is always
    /// byte-identical to the published snapshot's catalog (modulo the
    /// subscription table the snapshot strips).
    writer: Mutex<StrategyCatalog>,
    /// Snapshots published since construction (the initial snapshot is not
    /// counted — it was never *re*-published). Health counter surfaced by
    /// [`ConcurrentCatalog::stats`].
    published: AtomicU64,
}

impl Shared {
    /// Locks the writer catalog, shrugging off poison: the catalog is
    /// mutated only through `update`, whose closure runs *before* the
    /// publish step, so a panicking epoch simply never publishes — the
    /// writer state a panicked closure left behind is re-synchronized by
    /// the next successful `update`.
    fn lock_writer(&self) -> MutexGuard<'_, StrategyCatalog> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn load(&self) -> Arc<EpochSnapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn store(&self, snapshot: Arc<EpochSnapshot>) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
    }
}

/// A point-in-time health sample of a [`ConcurrentCatalog`], read under the
/// writer lock so every field belongs to the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogStats {
    /// The writer catalog's current epoch (equals the published snapshot's
    /// epoch outside an `update` critical section).
    pub epoch: u64,
    /// Live reader [`DeltaSubscription`]s on the writer catalog.
    pub subscribers: usize,
    /// Delta trackers evicted so far for lapsing past the catalog's
    /// [`StrategyCatalog::delta_lapse_limit`].
    pub delta_evictions: u64,
    /// Snapshots published since construction (one per mutating `update`).
    pub published_epochs: u64,
}

/// The publication cell of the single-writer / many-reader catalog: one
/// writer folds churn into the next [`EpochSnapshot`] and publishes it
/// atomically, any number of readers pin snapshots and serve lock-free.
/// Cloning the handle clones the `Arc` — all clones share one cell (writers
/// racing on `update` serialize on the writer lock).
#[derive(Clone)]
pub struct ConcurrentCatalog {
    shared: Arc<Shared>,
}

impl ConcurrentCatalog {
    /// Wraps `catalog` and publishes it as the initial snapshot.
    #[must_use]
    pub fn new(catalog: StrategyCatalog) -> Self {
        let snapshot = Arc::new(EpochSnapshot::capture(&catalog));
        Self {
            shared: Arc::new(Shared {
                current: RwLock::new(snapshot),
                writer: Mutex::new(catalog),
                published: AtomicU64::new(0),
            }),
        }
    }

    /// Pins the currently published snapshot. The returned `Arc` keeps that
    /// epoch's state alive for as long as the caller holds it; serving from
    /// it takes no locks.
    #[must_use]
    pub fn pin(&self) -> Arc<EpochSnapshot> {
        self.shared.load()
    }

    /// The epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.pin().epoch()
    }

    /// Number of live reader subscriptions on the writer catalog.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.shared.lock_writer().delta_subscriber_count()
    }

    /// Runs one **churn epoch**: `f` mutates the writer's working catalog
    /// (insert / retire / compact, any number of them), and the result is
    /// published as the next snapshot in a single pointer swap before the
    /// writer lock is released. Returns `f`'s result and the snapshot now
    /// being served (unchanged if `f` performed no mutation — a read-only
    /// closure publishes nothing).
    ///
    /// Publication cost is one catalog clone per *epoch*, amortized over
    /// the epoch's mutations and paid on the writer's thread — never on a
    /// reader's. Batch an epoch's churn into one `update` call.
    pub fn update<R>(&self, f: impl FnOnce(&mut StrategyCatalog) -> R) -> (R, Arc<EpochSnapshot>) {
        let mut writer = self.shared.lock_writer();
        let before = writer.epoch();
        let result = f(&mut writer);
        if writer.epoch() == before {
            drop(writer);
            return (result, self.pin());
        }
        let snapshot = Arc::new(EpochSnapshot::capture(&writer));
        self.shared.store(Arc::clone(&snapshot));
        self.shared.published.fetch_add(1, Ordering::Relaxed);
        drop(writer);
        (result, snapshot)
    }

    /// [`Self::update`] with a durability hook between mutation and
    /// publication: `f` mutates the writer catalog as usual, then `log`
    /// receives the post-mutation catalog and the drained
    /// [`CatalogMutation`] journal **before** the new snapshot becomes
    /// visible to any reader — the write-ahead ordering a durable tier
    /// needs. If `log` fails, nothing is published: readers keep serving
    /// the previous (durable) snapshot and the error is returned.
    ///
    /// The mutation journal must be enabled on the writer catalog
    /// ([`StrategyCatalog::enable_journal`]); `update_logged` enables it on
    /// entry so the first logged epoch is never silently empty. A
    /// read-only `f` (epoch unchanged) skips `log` entirely.
    ///
    /// # Errors
    ///
    /// Propagates `log`'s error after discarding the unpublished mutation.
    /// The writer catalog **has** applied `f` at that point — callers that
    /// keep using the handle after a log failure must treat the writer
    /// state as ahead of the published state (the durable tier fail-stops
    /// instead).
    pub fn update_logged<R, E>(
        &self,
        f: impl FnOnce(&mut StrategyCatalog) -> R,
        log: impl FnOnce(&StrategyCatalog, &[CatalogMutation]) -> Result<(), E>,
    ) -> Result<(R, Arc<EpochSnapshot>), E> {
        let mut writer = self.shared.lock_writer();
        writer.enable_journal();
        let before = writer.epoch();
        let result = f(&mut writer);
        let mutations = writer.take_journal();
        if writer.epoch() == before {
            debug_assert!(
                mutations.is_empty(),
                "an unchanged epoch cannot have journaled mutations"
            );
            drop(writer);
            return Ok((result, self.pin()));
        }
        log(&writer, &mutations)?;
        let snapshot = Arc::new(EpochSnapshot::capture(&writer));
        self.shared.store(Arc::clone(&snapshot));
        self.shared.published.fetch_add(1, Ordering::Relaxed);
        drop(writer);
        Ok((result, snapshot))
    }

    /// A point-in-time health sample of the publication cell; see
    /// [`CatalogStats`]. Takes the writer lock briefly — a monitoring call,
    /// not a serving-path one.
    #[must_use]
    pub fn stats(&self) -> CatalogStats {
        let writer = self.shared.lock_writer();
        CatalogStats {
            epoch: writer.epoch(),
            subscribers: writer.delta_subscriber_count(),
            delta_evictions: writer.delta_evictions(),
            published_epochs: self.shared.published.load(Ordering::Relaxed),
        }
    }

    /// Registers a migrating reader: subscribes it to the writer catalog's
    /// delta feed and pins the snapshot of the same epoch, atomically with
    /// respect to concurrent `update`s — the reader's derived state and its
    /// subscription window start from the very same epoch.
    #[must_use]
    pub fn reader(&self) -> SnapshotReader {
        let mut writer = self.shared.lock_writer();
        let subscription = writer.subscribe_delta();
        let pinned = self.shared.load();
        debug_assert_eq!(pinned.epoch(), writer.epoch());
        drop(writer);
        SnapshotReader {
            shared: Arc::clone(&self.shared),
            pinned,
            subscription: Some(subscription),
        }
    }
}

impl std::fmt::Debug for ConcurrentCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentCatalog")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// One migrating reader of a [`ConcurrentCatalog`]: a pinned
/// [`EpochSnapshot`] to serve from lock-free, plus the [`DeltaSubscription`]
/// that carries its derived state forward across epochs. Dropping the
/// reader releases the subscription (RAII detach — no leaked trackers).
#[derive(Debug)]
pub struct SnapshotReader {
    shared: Arc<Shared>,
    pinned: Arc<EpochSnapshot>,
    subscription: Option<DeltaSubscription>,
}

impl SnapshotReader {
    /// The snapshot this reader currently serves from.
    #[must_use]
    pub fn pinned(&self) -> &Arc<EpochSnapshot> {
        &self.pinned
    }

    /// The epoch this reader is pinned at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.pinned.epoch()
    }

    /// Advances the reader to the latest published snapshot, returning the
    /// [`CatalogDelta`] that brings slot-shaped derived state from the
    /// previously pinned epoch to the new one (empty when nothing was
    /// published since). Apply it before serving —
    /// [`Self::pinned`] already points at the new snapshot when this
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns
    /// [`StratRecError::StaleSubscription`](crate::error::StratRecError::StaleSubscription)
    /// when this reader lapsed past the catalog's
    /// [`StrategyCatalog::delta_lapse_limit`] and was evicted; recover with
    /// [`Self::re_pin`] and a full recompute of the derived state.
    pub fn migrate(&mut self) -> Result<CatalogDelta, StratRecError> {
        let subscription = self
            .subscription
            .as_ref()
            .expect("subscription is only vacated transiently by re_pin/drop");
        let mut writer = self.shared.lock_writer();
        let delta = writer.take_delta(subscription)?;
        let pinned = self.shared.load();
        debug_assert_eq!(
            delta.to_epoch,
            pinned.epoch(),
            "writer state and published snapshot agree outside update sections"
        );
        drop(writer);
        self.pinned = pinned;
        Ok(delta)
    }

    /// Re-synchronizes from scratch: releases the old subscription (if any
    /// survives), subscribes afresh, and pins the snapshot of the same
    /// epoch. The recovery path after an eviction or a derived-state
    /// error — the caller recomputes against the returned snapshot.
    pub fn re_pin(&mut self) -> Arc<EpochSnapshot> {
        let mut writer = self.shared.lock_writer();
        if let Some(old) = self.subscription.take() {
            writer.unsubscribe_delta(old);
        }
        self.subscription = Some(writer.subscribe_delta());
        let pinned = self.shared.load();
        debug_assert_eq!(pinned.epoch(), writer.epoch());
        drop(writer);
        self.pinned = Arc::clone(&pinned);
        pinned
    }
}

impl Drop for SnapshotReader {
    fn drop(&mut self) {
        if let Some(subscription) = self.subscription.take() {
            self.shared.lock_writer().unsubscribe_delta(subscription);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::RebuildPolicy;
    use super::*;
    use crate::model::{DeploymentParameters, Strategy};

    fn strategy(id: u64, q: f64, c: f64, l: f64) -> Strategy {
        Strategy::from_params(id, DeploymentParameters::clamped(q, c, l))
    }

    fn running_concurrent() -> ConcurrentCatalog {
        ConcurrentCatalog::new(StrategyCatalog::with_policy(
            crate::examples_data::running_example_strategies(),
            RebuildPolicy::threshold(2),
        ))
    }

    #[test]
    fn pins_serve_the_published_epoch_and_survive_later_churn() {
        let concurrent = running_concurrent();
        let loosest = DeploymentParameters::default();
        let old = concurrent.pin();
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.len(), 4);

        let ((slot, retired), fresh) = concurrent.update(|catalog| {
            let slot = catalog.insert(strategy(10, 0.9, 0.2, 0.2));
            (slot, catalog.retire(1))
        });
        assert!(retired);
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(concurrent.epoch(), 2);

        // The old pin is frozen at its epoch: the churn is invisible to it.
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.eligible_for(&loosest), vec![0, 1, 2, 3]);
        // The new snapshot serves the post-churn state.
        assert!(fresh.eligible_for(&loosest).contains(&slot));
        assert!(!fresh.is_live(1));
        // A fresh pin observes the newest snapshot.
        assert_eq!(concurrent.pin().epoch(), 2);
    }

    #[test]
    fn read_only_updates_publish_nothing() {
        let concurrent = running_concurrent();
        let before = concurrent.pin();
        let (len, after) = concurrent.update(|catalog| catalog.len());
        assert_eq!(len, 4);
        assert!(Arc::ptr_eq(&before, &after), "no mutation, no new snapshot");
    }

    #[test]
    fn snapshots_strip_writer_side_subscription_state() {
        let concurrent = running_concurrent();
        let _reader = concurrent.reader();
        assert_eq!(concurrent.subscriber_count(), 1);
        let (_, snapshot) = concurrent.update(|catalog| catalog.insert(strategy(9, 0.8, 0.3, 0.3)));
        assert_eq!(snapshot.catalog().delta_subscriber_count(), 0);
    }

    #[test]
    fn readers_migrate_forward_with_the_exact_delta() {
        let concurrent = running_concurrent();
        let mut reader = concurrent.reader();
        assert_eq!(reader.epoch(), 0);

        let (slot, _) = concurrent.update(|catalog| {
            let slot = catalog.insert(strategy(10, 0.9, 0.2, 0.2));
            assert!(catalog.retire(0));
            slot
        });
        let delta = reader.migrate().unwrap();
        assert_eq!(reader.epoch(), 2);
        assert_eq!(delta.from_epoch, 0);
        assert_eq!(delta.to_epoch, 2);
        assert_eq!(delta.inserted, vec![slot]);
        assert_eq!(delta.retired, vec![0]);

        // Nothing new: the next migration is an empty window.
        assert!(reader.migrate().unwrap().is_empty());

        // A compaction in the window arrives composed as a remap.
        concurrent.update(|catalog| {
            catalog.compact();
        });
        let delta = reader.migrate().unwrap();
        let remap = delta.remap.expect("window crossed a compaction");
        assert_eq!(remap.remap(0), None);
        assert_eq!(delta.target_cols, reader.pinned().slot_count());
    }

    #[test]
    fn dropping_a_reader_releases_its_subscription() {
        let concurrent = running_concurrent();
        let reader = concurrent.reader();
        let second = concurrent.reader();
        assert_eq!(concurrent.subscriber_count(), 2);
        drop(reader);
        assert_eq!(concurrent.subscriber_count(), 1);
        drop(second);
        assert_eq!(concurrent.subscriber_count(), 0);
    }

    #[test]
    fn evicted_readers_fail_typed_and_recover_by_re_pinning() {
        let concurrent = ConcurrentCatalog::new({
            let mut catalog = StrategyCatalog::with_policy(
                crate::examples_data::running_example_strategies(),
                RebuildPolicy::threshold(4),
            );
            catalog.set_delta_lapse_limit(8);
            catalog
        });
        let mut reader = concurrent.reader();
        for i in 0..20_u64 {
            concurrent.update(|catalog| catalog.insert(strategy(100 + i, 0.8, 0.3, 0.3)));
        }
        assert!(matches!(
            reader.migrate(),
            Err(StratRecError::StaleSubscription { .. })
        ));
        // Recovery: re-pin re-subscribes at the current epoch.
        let snapshot = reader.re_pin();
        assert_eq!(snapshot.epoch(), concurrent.epoch());
        assert_eq!(concurrent.subscriber_count(), 1);
        concurrent.update(|catalog| catalog.insert(strategy(999, 0.7, 0.4, 0.4)));
        assert_eq!(reader.migrate().unwrap().inserted.len(), 1);
    }

    #[test]
    fn stats_track_epoch_publishes_subscribers_and_evictions() {
        let concurrent = running_concurrent();
        let initial = concurrent.stats();
        assert_eq!(initial.epoch, 0);
        assert_eq!(initial.subscribers, 0);
        assert_eq!(initial.delta_evictions, 0);
        assert_eq!(initial.published_epochs, 0);

        let reader = concurrent.reader();
        concurrent.update(|catalog| {
            catalog.insert(strategy(10, 0.9, 0.2, 0.2));
            catalog.retire(0);
        });
        concurrent.update(|catalog| catalog.len()); // read-only: no publish
        let stats = concurrent.stats();
        assert_eq!(stats.epoch, 2, "two mutations in one epoch");
        assert_eq!(stats.subscribers, 1);
        assert_eq!(stats.published_epochs, 1, "one mutating update published");
        drop(reader);
        assert_eq!(concurrent.stats().subscribers, 0);
    }

    #[test]
    fn update_logged_hands_the_journal_to_the_log_before_publishing() {
        let concurrent = running_concurrent();
        let before = concurrent.pin();
        let logged = std::cell::RefCell::new(Vec::new());
        let (slot, snapshot) = concurrent
            .update_logged(
                |catalog| {
                    let slot = catalog.insert(strategy(10, 0.9, 0.2, 0.2));
                    assert!(catalog.retire(0));
                    slot
                },
                |catalog, mutations| -> Result<(), StratRecError> {
                    assert_eq!(catalog.epoch(), 2, "log sees the post-mutation state");
                    logged.borrow_mut().extend_from_slice(mutations);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(snapshot.epoch(), 2);
        let mutations = logged.into_inner();
        assert_eq!(mutations.len(), 2);
        assert!(matches!(
            &mutations[0],
            crate::catalog::CatalogMutation::Insert { slot: s, epoch_after: 1, .. } if *s == slot
        ));
        assert!(matches!(
            &mutations[1],
            crate::catalog::CatalogMutation::Retire {
                slot: 0,
                epoch_after: 2
            }
        ));
        assert_eq!(before.epoch(), 0, "pre-update pin is untouched");
    }

    #[test]
    fn update_logged_failures_publish_nothing() {
        let concurrent = running_concurrent();
        let before = concurrent.pin();
        let result: Result<(usize, _), StratRecError> = concurrent.update_logged(
            |catalog| catalog.insert(strategy(10, 0.9, 0.2, 0.2)),
            |_, _| {
                Err(StratRecError::WalCorrupt {
                    offset: 0,
                    kind: "disk full".into(),
                })
            },
        );
        assert!(result.is_err());
        let after = concurrent.pin();
        assert!(
            Arc::ptr_eq(&before, &after),
            "a failed log call must not publish"
        );
        assert_eq!(concurrent.stats().published_epochs, 0);
    }

    #[test]
    fn update_logged_skips_the_log_for_read_only_epochs() {
        let concurrent = running_concurrent();
        let (len, _) = concurrent
            .update_logged(
                |catalog| catalog.len(),
                |_, _| -> Result<(), StratRecError> { panic!("read-only epochs never log") },
            )
            .unwrap();
        assert_eq!(len, 4);
    }

    /// The publish/acquire ordering stress: one writer publishes epochs
    /// while reader threads continuously pin. Every pinned snapshot must be
    /// an internally consistent committed state (no torn epochs) and each
    /// reader's observed epochs must be monotone.
    #[test]
    fn concurrent_pins_observe_committed_monotone_states() {
        const EPOCHS: u64 = 60;
        const READERS: usize = 4;
        let concurrent = ConcurrentCatalog::new(StrategyCatalog::with_policy(
            crate::examples_data::running_example_strategies(),
            RebuildPolicy::threshold(3),
        ));
        // One more input: a migrating reader, subscribed before any publish,
        // whose deltas must chain epoch to epoch without a gap or overlap.
        let mut migrating = concurrent.reader();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut last_to = migrating.epoch();
                while last_to < EPOCHS {
                    let delta = migrating.migrate().expect("well under the lapse limit");
                    assert_eq!(delta.from_epoch, last_to, "deltas chain");
                    assert_eq!(delta.to_epoch, migrating.epoch());
                    // Every published epoch inserted exactly one strategy.
                    assert_eq!(
                        delta.inserted.len() as u64,
                        delta.to_epoch - delta.from_epoch
                    );
                    last_to = delta.to_epoch;
                    std::thread::yield_now();
                }
            });
            for _ in 0..READERS {
                let handle = concurrent.clone();
                scope.spawn(move || {
                    let mut last_epoch = 0_u64;
                    loop {
                        let snapshot = handle.pin();
                        // Monotone: the cell never moves backwards.
                        assert!(snapshot.epoch() >= last_epoch);
                        last_epoch = snapshot.epoch();
                        // Committed: every published epoch inserted exactly
                        // one live strategy, so liveness, slot count and
                        // epoch always agree — a torn state could not.
                        assert_eq!(snapshot.slot_count(), 4 + snapshot.epoch() as usize);
                        assert_eq!(snapshot.len(), snapshot.slot_count());
                        assert_eq!(
                            snapshot.live_indices().len(),
                            snapshot.len(),
                            "liveness bitmap out of step with the epoch"
                        );
                        if snapshot.epoch() == EPOCHS {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            for i in 0..EPOCHS {
                concurrent.update(|catalog| {
                    catalog.insert(strategy(1000 + i, 0.8, 0.3, 0.3));
                });
            }
        });
        assert_eq!(concurrent.epoch(), EPOCHS);
    }
}
