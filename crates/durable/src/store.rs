//! [`DurableCatalog`]: the logged publication cell.
//!
//! A thin shell around [`ConcurrentCatalog`] that makes every churn epoch
//! durable before it becomes visible:
//!
//! 1. [`DurableCatalog::update`] runs the caller's mutation closure on the
//!    writer catalog (exactly like [`ConcurrentCatalog::update`]);
//! 2. the epoch's journaled mutations are appended to the WAL and (by
//!    default) synced — **before** the new snapshot is published;
//! 3. only then does the snapshot swap happen, so a reader can never serve
//!    state that would be lost by a crash.
//!
//! If step 2 fails, the update returns the error, the snapshot is not
//! published, and the handle **fail-stops**: the in-memory writer catalog
//! has already applied the mutations and is now ahead of the durable log,
//! so every later mutation is refused with [`DurableError::Poisoned`]
//! rather than silently widening the gap. Readers keep serving the last
//! durable snapshot; the operator recovers by reopening the directory
//! ([`DurableCatalog::recover`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use stratrec_core::catalog::{
    CatalogStats, ConcurrentCatalog, EpochSnapshot, RebuildPolicy, StrategyCatalog,
};

use crate::checkpoint::{write_checkpoint, Checkpoint, CheckpointPolicy};
use crate::record::{DecisionRecord, WalRecord};
use crate::recovery::{recover_catalog, RecoveryReport};
use crate::wal::{WalWriter, WAL_FILE_NAME};
use crate::{DurableError, Result};

/// Tuning of the durable tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Force every logged epoch to stable storage (`fdatasync`) before
    /// publishing. `true` is the durability contract; tests that model
    /// crash-by-prefix-cut (which never involves the OS page cache) turn it
    /// off for speed.
    pub sync: bool,
    /// When to write compacted checkpoints.
    pub checkpoint: CheckpointPolicy,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            sync: true,
            checkpoint: CheckpointPolicy::EveryMutations(256),
        }
    }
}

/// Writer-side durable state, serialized by one mutex (lock order: the
/// inner catalog's writer lock is always taken first, by `update_logged`).
#[derive(Debug)]
struct LogState {
    wal: WalWriter,
    options: DurableOptions,
    mutations_since_checkpoint: u64,
}

/// What [`DurableCatalog::recover`] returns: the reopened handle, the
/// recovery diagnostics, and every logged decision in the valid prefix.
pub type Recovered = (DurableCatalog, RecoveryReport, Vec<(u64, DecisionRecord)>);

/// A [`ConcurrentCatalog`] whose every mutation is write-ahead logged, with
/// crash recovery and decision provenance. Cloning shares the cell and the
/// log.
#[derive(Debug, Clone)]
pub struct DurableCatalog {
    inner: ConcurrentCatalog,
    dir: PathBuf,
    state: Arc<Mutex<LogState>>,
    poisoned: Arc<AtomicBool>,
}

impl DurableCatalog {
    /// Creates a fresh durable directory at `dir` (which must exist and be
    /// empty of durable files): writes the WAL header and the **genesis
    /// checkpoint** capturing `catalog` as-is, so replay-from-scratch is
    /// just "genesis + whole log".
    pub fn create(dir: &Path, catalog: StrategyCatalog, options: DurableOptions) -> Result<Self> {
        let mut wal = WalWriter::create(&dir.join(WAL_FILE_NAME))?;
        if options.sync {
            wal.sync()?;
        }
        write_checkpoint(dir, &Checkpoint::capture(&catalog, wal.len()))?;
        Ok(Self {
            inner: ConcurrentCatalog::new(catalog),
            dir: dir.to_path_buf(),
            state: Arc::new(Mutex::new(LogState {
                wal,
                options,
                mutations_since_checkpoint: 0,
            })),
            poisoned: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Re-opens a durable directory after a crash: recovers the last valid
    /// prefix (see [`crate::recovery`]), truncates the corrupt tail off the
    /// log so appends extend the valid prefix, and returns the handle plus
    /// the recovery diagnostics (including the typed corruption, if the log
    /// had any).
    pub fn recover(
        dir: &Path,
        policy: RebuildPolicy,
        options: DurableOptions,
    ) -> Result<Recovered> {
        let recovered = recover_catalog(dir, policy)?;
        let wal = WalWriter::open_truncated(&dir.join(WAL_FILE_NAME), recovered.report.valid_len)?;
        let handle = Self {
            inner: ConcurrentCatalog::new(recovered.catalog),
            dir: dir.to_path_buf(),
            state: Arc::new(Mutex::new(LogState {
                wal,
                options,
                mutations_since_checkpoint: 0,
            })),
            poisoned: Arc::new(AtomicBool::new(false)),
        };
        Ok((handle, recovered.report, recovered.decisions))
    }

    /// One durable churn epoch: `f` mutates the writer catalog, the epoch's
    /// mutations are logged (and synced, per [`DurableOptions::sync`])
    /// before the snapshot publishes. Read-only closures log nothing.
    ///
    /// # Errors
    ///
    /// [`DurableError::Poisoned`] after an earlier logging failure; the
    /// logging failure itself on this epoch (in which case nothing was
    /// published and the handle fail-stops).
    pub fn update<R>(
        &self,
        f: impl FnOnce(&mut StrategyCatalog) -> R,
    ) -> Result<(R, Arc<EpochSnapshot>)> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DurableError::Poisoned);
        }
        let result = self.inner.update_logged(f, |catalog, mutations| {
            let mut state = self.lock_state();
            for mutation in mutations {
                state.wal.append(&WalRecord::from_mutation(mutation))?;
            }
            if state.options.sync {
                state.wal.sync()?;
            }
            state.mutations_since_checkpoint += mutations.len() as u64;
            if state
                .options
                .checkpoint
                .due(state.mutations_since_checkpoint)
            {
                let wal_offset = state.wal.len();
                write_checkpoint(&self.dir, &Checkpoint::capture(catalog, wal_offset))?;
                state.mutations_since_checkpoint = 0;
            }
            Ok(())
        });
        if result.is_err() {
            // The writer catalog is now ahead of the durable log: refuse
            // every further mutation instead of widening the gap.
            self.poisoned.store(true, Ordering::Release);
        }
        result
    }

    /// Appends a deployment decision to the log — the provenance row for a
    /// batch served from the snapshot at `decision.epoch`. Returns the byte
    /// offset of the record's frame.
    ///
    /// # Errors
    ///
    /// [`DurableError::Poisoned`] after an earlier logging failure, or the
    /// append/sync failure itself (which also poisons the handle).
    pub fn log_decision(&self, decision: &DecisionRecord) -> Result<u64> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DurableError::Poisoned);
        }
        let mut state = self.lock_state();
        let appended = state
            .wal
            .append(&WalRecord::Decision(decision.clone()))
            .and_then(|offset| {
                if state.options.sync {
                    state.wal.sync()?;
                }
                Ok(offset)
            });
        if appended.is_err() {
            self.poisoned.store(true, Ordering::Release);
        }
        appended
    }

    /// The underlying lock-free publication cell (for spawning readers on
    /// other threads, pinning snapshots, etc. — reads need no durability
    /// shim).
    #[must_use]
    pub fn catalog(&self) -> &ConcurrentCatalog {
        &self.inner
    }

    /// Pins the currently published (and durable) snapshot.
    #[must_use]
    pub fn pin(&self) -> Arc<EpochSnapshot> {
        self.inner.pin()
    }

    /// The published epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Health counters of the inner cell.
    #[must_use]
    pub fn stats(&self) -> CatalogStats {
        self.inner.stats()
    }

    /// Bytes in the WAL so far.
    pub fn wal_len(&self) -> Result<u64> {
        Ok(self.lock_state().wal.len())
    }

    /// Whether an earlier logging failure fail-stopped this handle.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn lock_state(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use crate::wal;
    use stratrec_core::model::{DeploymentParameters, Strategy};

    fn options() -> DurableOptions {
        DurableOptions {
            sync: false,
            checkpoint: CheckpointPolicy::Never,
        }
    }

    fn strategy(id: u64) -> Strategy {
        Strategy::from_params(id, DeploymentParameters::clamped(0.8, 0.3, 0.3))
    }

    fn seeded(dir: &Path, options: DurableOptions) -> DurableCatalog {
        let catalog = StrategyCatalog::with_policy(
            stratrec_core::examples_data::running_example_strategies(),
            RebuildPolicy::threshold(3),
        );
        DurableCatalog::create(dir, catalog, options).unwrap()
    }

    #[test]
    fn every_update_logs_its_mutations_before_publishing() {
        let dir = TempDir::new("store-log");
        let durable = seeded(dir.path(), options());
        let ((), snapshot) = durable
            .update(|catalog| {
                catalog.insert(strategy(10));
                catalog.retire(0);
            })
            .unwrap();
        assert_eq!(snapshot.epoch(), 2);

        let scan = wal::scan(&dir.path().join(WAL_FILE_NAME)).unwrap();
        assert!(scan.corruption.is_none());
        assert_eq!(scan.records.len(), 2);
        assert!(matches!(
            scan.records[0].1,
            WalRecord::Insert {
                slot: 4,
                epoch_after: 1,
                ..
            }
        ));
        assert!(matches!(
            scan.records[1].1,
            WalRecord::Retire {
                slot: 0,
                epoch_after: 2
            }
        ));
    }

    #[test]
    fn checkpoints_appear_on_the_configured_cadence() {
        let dir = TempDir::new("store-ckpt");
        let durable = seeded(
            dir.path(),
            DurableOptions {
                sync: false,
                checkpoint: CheckpointPolicy::EveryMutations(3),
            },
        );
        for round in 0..7_u64 {
            durable
                .update(|catalog| {
                    catalog.insert(strategy(100 + round));
                })
                .unwrap();
        }
        let checkpoints = crate::checkpoint::list_checkpoints(dir.path()).unwrap();
        // Genesis (epoch 0) + cadence checkpoints at epochs 3 and 6.
        let epochs: Vec<u64> = checkpoints
            .iter()
            .map(|path| crate::checkpoint::read_checkpoint(path).unwrap().epoch)
            .collect();
        assert_eq!(epochs, vec![6, 3, 0]);
    }

    #[test]
    fn a_poisoned_handle_refuses_mutations_but_keeps_serving() {
        let dir = TempDir::new("store-poison");
        let durable = seeded(dir.path(), options());
        durable
            .update(|catalog| {
                catalog.insert(strategy(10));
            })
            .unwrap();
        let published = durable.pin();

        // Force an append failure: replace the WAL with a directory so the
        // reopened-on-append path cannot write. Simpler: poison directly by
        // removing the file and making the *sync* path fail is platform
        // dependent — instead, exercise the flag through its public
        // contract.
        durable.poisoned.store(true, Ordering::Release);
        assert!(matches!(
            durable.update(|catalog| catalog.insert(strategy(11))),
            Err(DurableError::Poisoned)
        ));
        assert!(durable.is_poisoned());
        // Reads still serve the last durable snapshot.
        assert_eq!(durable.pin().epoch(), published.epoch());
    }

    #[test]
    fn recover_reopens_the_log_for_appending() {
        let dir = TempDir::new("store-reopen");
        let durable = seeded(dir.path(), options());
        durable
            .update(|catalog| {
                catalog.insert(strategy(10));
            })
            .unwrap();
        drop(durable);

        let (recovered, report, decisions) =
            DurableCatalog::recover(dir.path(), RebuildPolicy::threshold(3), options()).unwrap();
        assert!(report.corruption.is_none());
        assert!(decisions.is_empty());
        assert_eq!(recovered.epoch(), 1);
        recovered
            .update(|catalog| {
                catalog.insert(strategy(11));
            })
            .unwrap();
        drop(recovered);

        let (again, report, _) =
            DurableCatalog::recover(dir.path(), RebuildPolicy::threshold(3), options()).unwrap();
        assert!(report.corruption.is_none());
        assert_eq!(report.records_applied, 2, "both epochs replay");
        assert_eq!(again.epoch(), 2);
    }
}
