//! Churn-vs-serve stress harness: one writer, many lock-free readers.
//!
//! This module drives a churn scenario's epoch stream ([`crate::churn`])
//! through the concurrent half of the catalog ([`ConcurrentCatalog`]): a
//! **writer thread** folds each [`ChurnEpoch`](crate::ChurnEpoch) into the
//! next published [`EpochSnapshot`] while **reader threads** keep serving
//! the scenario's standing batch exactly as the streaming server serves an
//! admission window: pin the latest published snapshot
//! ([`ConcurrentCatalog::pin`]) and answer cold from it with
//! [`StratRec::process_batch_with_catalog_at`]. Every serve is recorded as a
//! [`ReadRecord`] — which epoch the reader was pinned at and the exact
//! report it produced — and the writer records every snapshot it
//! publishes, so the resulting [`StressHistory`] can be checked for
//! **snapshot isolation** after the fact: each concurrent read must be
//! byte-identical to the sequential pipeline replayed over the snapshot of
//! its pinned epoch, and each reader's pinned epochs must be monotone
//! (`tests/snapshot_isolation.rs` runs exactly that check, racing ≥ 4
//! readers against the churn writer).
//!
//! The harness is deliberately schedule-independent: it asserts nothing
//! about *which* epoch a reader observes (that depends on the
//! interleaving), only records what was observed, because the isolation
//! property itself — "whatever you pinned, you saw exactly that committed
//! state" — holds for every schedule or for none.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::catalog::{CatalogStats, ConcurrentCatalog, EpochSnapshot, RebuildPolicy};
use stratrec_core::error::StratRecError;
use stratrec_core::stratrec::{ServiceQuality, StratRec, StratRecReport};

use crate::churn::ChurnInstance;

/// One concurrent serve, as recorded by a reader thread: the epoch of the
/// snapshot the report was planned against, and the report itself.
#[derive(Debug, Clone)]
pub struct ReadRecord {
    /// Epoch of the pinned [`EpochSnapshot`] this serve ran against.
    pub epoch: u64,
    /// The report the reader produced — the isolation checker replays the
    /// sequential pipeline at [`Self::epoch`] and demands equality.
    pub report: StratRecReport,
}

/// Everything a churn-vs-serve run observed: the snapshots the writer
/// published (in publication order, the pre-churn snapshot first) and each
/// reader's serve records (in that reader's program order).
#[derive(Debug)]
pub struct StressHistory {
    /// Every snapshot the writer published, starting with the initial one.
    pub published: Vec<Arc<EpochSnapshot>>,
    /// Per-reader serve histories, indexed by reader.
    pub reads: Vec<Vec<ReadRecord>>,
    /// The epoch of the last published snapshot.
    pub final_epoch: u64,
    /// The catalog's lifecycle counters after the run — all readers
    /// dropped, all epochs published.
    pub stats: CatalogStats,
}

impl StressHistory {
    /// The published snapshot of `epoch`, if the writer published one at
    /// exactly that epoch. Readers can only ever pin published snapshots,
    /// so the isolation checker treats a miss as a torn read.
    #[must_use]
    pub fn snapshot_at(&self, epoch: u64) -> Option<&Arc<EpochSnapshot>> {
        self.published
            .iter()
            .find(|snapshot| snapshot.epoch() == epoch)
    }

    /// Total serves across all readers.
    #[must_use]
    pub fn total_reads(&self) -> usize {
        self.reads.iter().map(Vec::len).sum()
    }
}

/// Races `readers` serving threads against one churn writer over
/// `instance`'s epoch stream and returns the full observable history.
///
/// The writer applies one [`ChurnEpoch`](crate::ChurnEpoch) (plus the
/// scenario's boundary compaction) per
/// [`ConcurrentCatalog::update`] — one published snapshot per churn epoch —
/// and yields between epochs so readers interleave. Each reader pins the
/// latest snapshot per serve and keeps serving the standing batch until it
/// has observed the final epoch; every reader is guaranteed at least one serve
/// of the initial snapshot *before* the writer starts, and one of the
/// final snapshot after it finishes, so the history always exercises the
/// full epoch range.
///
/// # Errors
///
/// Propagates the first [`StratRecError`] any reader hits (the scenario's
/// model library covers every strategy, so an error here is a bug in the
/// snapshot machinery, not an expected outcome).
pub fn run_churn_stress(
    instance: &ChurnInstance,
    layer: &StratRec,
    policy: RebuildPolicy,
    readers: usize,
) -> Result<StressHistory, StratRecError> {
    assert!(readers > 0, "a stress run needs at least one reader");
    let concurrent = ConcurrentCatalog::new(instance.catalog(policy));
    let pdf = AvailabilityPdf::certain(instance.availability.value());
    let done = AtomicBool::new(false);
    let final_epoch = AtomicU64::new(u64::MAX);
    let primed = Barrier::new(readers + 1);
    let mut published = vec![concurrent.pin()];

    let mut histories: Vec<Result<Vec<ReadRecord>, StratRecError>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(readers);
        for _ in 0..readers {
            let (concurrent, done, final_epoch, primed, pdf) =
                (&concurrent, &done, &final_epoch, &primed, &pdf);
            handles.push(scope.spawn(move || {
                let mut records = Vec::new();
                let mut first = true;
                loop {
                    let snapshot = concurrent.pin();
                    let result = layer.process_batch_with_catalog_at(
                        &instance.standing,
                        snapshot.catalog(),
                        &instance.models,
                        pdf,
                        ServiceQuality::Full,
                    );
                    if first {
                        // The writer waits on the same barrier before its
                        // first publish: every reader's opening serve runs
                        // against the pre-churn snapshot.
                        primed.wait();
                        first = false;
                    }
                    records.push(ReadRecord {
                        epoch: snapshot.epoch(),
                        report: result?,
                    });
                    if done.load(Ordering::Acquire)
                        && snapshot.epoch() >= final_epoch.load(Ordering::Acquire)
                    {
                        return Ok(records);
                    }
                    std::thread::yield_now();
                }
            }));
        }
        // The writer runs on this thread, starting only after every reader
        // finished its opening serve of the initial snapshot. Cold readers
        // hold no delta subscription and nothing has been published yet —
        // the stats accessor must agree.
        primed.wait();
        let opening = concurrent.stats();
        assert_eq!(
            opening.subscribers, 0,
            "cold readers hold no delta subscription while serving"
        );
        assert_eq!(
            opening.published_epochs, 0,
            "nothing published before churn"
        );
        for i in 0..instance.epochs.len() {
            let (_, snapshot) = concurrent.update(|catalog| instance.apply_epoch(i, catalog));
            published.push(snapshot);
            std::thread::yield_now();
        }
        final_epoch.store(concurrent.epoch(), Ordering::Release);
        done.store(true, Ordering::Release);
        histories = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });

    // Readers are joined: still no subscription, and the publish counter
    // must show exactly one snapshot per churn epoch.
    let stats = concurrent.stats();
    assert_eq!(stats.subscribers, 0, "cold readers never subscribe");
    assert_eq!(
        stats.published_epochs,
        instance.epochs.len() as u64,
        "one published snapshot per churn epoch"
    );
    assert_eq!(stats.epoch, concurrent.epoch());

    let reads = histories.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(StressHistory {
        final_epoch: published.last().expect("initial snapshot").epoch(),
        published,
        reads,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnScenario;
    use stratrec_core::batch::BatchObjective;
    use stratrec_core::stratrec::StratRecConfig;
    use stratrec_core::workforce::AggregationMode;

    fn small_instance() -> ChurnInstance {
        ChurnScenario {
            initial_strategies: 80,
            epochs: 6,
            inserts_per_epoch: 8,
            retires_per_epoch: 6,
            batch_size: 5,
            k: 3,
            compact: crate::churn::CompactPolicy::EveryNEpochs(3),
            ..ChurnScenario::default()
        }
        .materialize()
    }

    #[test]
    fn stress_histories_cover_the_full_epoch_range() {
        let instance = small_instance();
        let layer = StratRec::new(StratRecConfig {
            k: instance.k,
            objective: BatchObjective::Throughput,
            aggregation: AggregationMode::Sum,
        });
        let history = run_churn_stress(&instance, &layer, RebuildPolicy::threshold(6), 2).unwrap();
        assert_eq!(history.published.len(), instance.epochs.len() + 1);
        assert_eq!(history.reads.len(), 2);
        assert_eq!(history.stats.epoch, history.final_epoch);
        assert_eq!(history.stats.published_epochs, instance.epochs.len() as u64);
        assert_eq!(history.stats.subscribers, 0);
        for records in &history.reads {
            assert!(!records.is_empty());
            // First serve is the pre-churn snapshot, last is the final one.
            assert_eq!(records.first().unwrap().epoch, 0);
            assert_eq!(records.last().unwrap().epoch, history.final_epoch);
            // Epochs are monotone and every pinned epoch was published.
            for pair in records.windows(2) {
                assert!(pair[0].epoch <= pair[1].epoch);
            }
            for record in records {
                assert!(history.snapshot_at(record.epoch).is_some());
            }
        }
    }
}
