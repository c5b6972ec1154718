//! Snapshot-isolation history checking for the concurrent serving path.
//!
//! `run_churn_stress` races reader threads (each pinning the latest
//! published snapshot and serving the standing batch cold from it, as the
//! streaming server serves an admission window) against one churn writer
//! publishing epochs through a `ConcurrentCatalog`, and records every serve
//! as a `(pinned epoch, report)` pair. This checker then verifies the recorded
//! history **after the fact**, in the style of offline isolation checkers:
//! instead of trusting any in-flight assertion, it reenacts the entire
//! epoch stream *sequentially* on a single thread — the ground truth no
//! concurrency can touch — and demands that
//!
//! 1. every epoch the writer published is exactly the sequential replay's
//!    epoch at that boundary (committed states only — a torn or
//!    half-applied epoch could not match),
//! 2. every concurrent read is **byte-identical** (`PartialEq` over the
//!    full `StratRecReport`, `f64`s included) to the sequential pipeline's
//!    report at the epoch the reader was pinned to,
//! 3. each reader's pinned epochs are monotone, and every one of them was
//!    actually published (no read from thin air),
//! 4. the sequential `pinned_at_epoch` path agrees: an `AdparProblem` built
//!    from the replayed state at epoch *e* and pinned at *e* validates and
//!    solves, while pinning it at any other epoch fails with the typed
//!    `StaleCatalog` — the same epoch discipline the snapshots enforce
//!    structurally.
//!
//! The fixed-scenario test races 4 readers; the proptest variant fuzzes
//! scenario shapes (size, churn rate, compaction cadence, seed) under the
//! same checker. The vendored proptest harness seeds deterministically
//! from the test name, so CI replays identical histories' *scenarios* (the
//! thread interleavings still vary — the checker is schedule-independent
//! by construction).

use std::collections::BTreeMap;

use proptest::prelude::*;
use stratrec::core::adpar::{AdparExact, AdparProblem, AdparSolver};
use stratrec::core::availability::AvailabilityPdf;
use stratrec::core::batch::BatchObjective;
use stratrec::core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec::core::engine::BatchEngine;
use stratrec::core::error::StratRecError;
use stratrec::core::stratrec::{StratRec, StratRecConfig, StratRecReport};
use stratrec::core::workforce::AggregationMode;
use stratrec::workload::churn::{ChurnInstance, ChurnScenario, CompactPolicy};
use stratrec::workload::stress::{run_churn_stress, StressHistory};

/// Sequentially replays `instance`'s epoch stream and returns the catalog
/// state at every boundary (pre-churn state first) keyed by its epoch —
/// the single-threaded ground truth the concurrent history must match.
fn sequential_states(
    instance: &ChurnInstance,
    policy: RebuildPolicy,
) -> BTreeMap<u64, StrategyCatalog> {
    let mut catalog = instance.catalog(policy);
    let mut states = BTreeMap::new();
    states.insert(catalog.epoch(), catalog.detached_clone());
    for i in 0..instance.epochs.len() {
        instance.apply_epoch(i, &mut catalog);
        states.insert(catalog.epoch(), catalog.detached_clone());
    }
    states
}

/// The full checker: reenact sequentially, then hold every recorded read
/// to the replayed report of its pinned epoch.
fn check_history(
    instance: &ChurnInstance,
    layer: &StratRec,
    policy: RebuildPolicy,
    history: &StressHistory,
) {
    let states = sequential_states(instance, policy);
    let pdf = AvailabilityPdf::certain(instance.availability.value());

    // 1. Published epochs are exactly the sequential boundaries, in order.
    let published_epochs: Vec<u64> = history.published.iter().map(|s| s.epoch()).collect();
    let sequential_epochs: Vec<u64> = states.keys().copied().collect();
    assert_eq!(
        published_epochs, sequential_epochs,
        "the writer published a state the sequential replay never reaches"
    );

    // The sequential report at every boundary — computed once, compared
    // against both the published snapshot and every read pinned there.
    let mut expected: BTreeMap<u64, StratRecReport> = BTreeMap::new();
    for (&epoch, state) in &states {
        let report = layer
            .process_batch_with_catalog(&instance.standing, state, &instance.models, &pdf)
            .expect("the scenario models every strategy");
        let snapshot = history
            .snapshot_at(epoch)
            .expect("every sequential boundary was published");
        let from_snapshot = layer
            .process_batch_with_catalog(
                &instance.standing,
                snapshot.catalog(),
                &instance.models,
                &pdf,
            )
            .expect("the scenario models every strategy");
        assert_eq!(
            report, from_snapshot,
            "published snapshot at epoch {epoch} diverges from the sequential state"
        );
        expected.insert(epoch, report);
    }

    // 2 + 3. Every read is byte-identical to the sequential report at its
    // pinned epoch, and each reader's epochs are monotone.
    for (reader, records) in history.reads.iter().enumerate() {
        assert!(!records.is_empty(), "reader {reader} never served");
        let mut last_epoch = 0;
        for (i, record) in records.iter().enumerate() {
            assert!(
                record.epoch >= last_epoch,
                "reader {reader} moved backwards: {} after {last_epoch}",
                record.epoch
            );
            last_epoch = record.epoch;
            let want = expected.get(&record.epoch).unwrap_or_else(|| {
                panic!(
                    "reader {reader} read {i} pinned unpublished epoch {}",
                    record.epoch
                )
            });
            assert_eq!(
                &record.report, want,
                "reader {reader} read {i} at epoch {} is not byte-identical \
                 to the sequential pipeline",
                record.epoch
            );
        }
        assert_eq!(
            records.first().unwrap().epoch,
            *sequential_epochs.first().unwrap(),
            "reader {reader} missed the pre-churn snapshot"
        );
        assert_eq!(
            records.last().unwrap().epoch,
            history.final_epoch,
            "reader {reader} never reached the final epoch"
        );
    }

    // 4. The sequential `pinned_at_epoch` discipline ties in: a problem
    // over the replayed state at epoch e, pinned at e, validates and
    // solves; pinned anywhere else it fails typed.
    let request = &instance.standing[0];
    let k = instance.k.clamp(1, 2);
    for (&epoch, state) in &states {
        let pinned = AdparProblem::with_catalog(request, state, k).pinned_at_epoch(epoch);
        let solved = AdparExact.solve(&pinned);
        assert!(
            solved.is_ok() || !matches!(solved, Err(StratRecError::StaleCatalog { .. })),
            "a problem pinned at its own epoch may fail feasibility, never staleness"
        );
        let stale = AdparProblem::with_catalog(request, state, k).pinned_at_epoch(epoch + 1);
        assert!(
            matches!(
                AdparExact.solve(&stale),
                Err(StratRecError::StaleCatalog { expected, found })
                    if expected == epoch + 1 && found == epoch
            ),
            "pinning at a foreign epoch must fail with StaleCatalog"
        );
    }
}

fn layer_for(instance: &ChurnInstance, aggregation: AggregationMode, threads: usize) -> StratRec {
    StratRec::new(StratRecConfig {
        k: instance.k,
        objective: BatchObjective::Throughput,
        aggregation,
    })
    .with_engine(BatchEngine::with_threads(threads))
}

/// The acceptance-criterion run: ≥ 4 reader threads racing 1 churn writer,
/// every read checked byte-identical against the sequential replay at its
/// pinned epoch, with a mid-stream compaction cadence in the mix.
#[test]
fn four_readers_racing_one_writer_serve_snapshot_isolated_reads() {
    let instance = ChurnScenario {
        initial_strategies: 120,
        epochs: 8,
        inserts_per_epoch: 10,
        retires_per_epoch: 8,
        batch_size: 6,
        k: 3,
        compact: CompactPolicy::EveryNEpochs(3),
        ..ChurnScenario::default()
    }
    .materialize();
    let layer = layer_for(&instance, AggregationMode::Sum, 2);
    let policy = RebuildPolicy::threshold(6);
    let history = run_churn_stress(&instance, &layer, policy, 4).unwrap();
    assert_eq!(history.reads.len(), 4);
    assert!(
        history.total_reads() >= 4 * 2,
        "each reader serves at least twice"
    );
    check_history(&instance, &layer, policy, &history);
}

/// Same checker under `Max` aggregation, a sequential engine, a
/// tombstone-ratio compaction trigger and an always-rebuild index policy.
#[test]
fn max_aggregation_histories_are_isolated_too() {
    let instance = ChurnScenario {
        initial_strategies: 90,
        epochs: 5,
        inserts_per_epoch: 7,
        retires_per_epoch: 7,
        batch_size: 5,
        k: 2,
        compact: CompactPolicy::TombstoneRatio(0.15),
        ..ChurnScenario::default()
    }
    .materialize();
    let layer = layer_for(&instance, AggregationMode::Max, 1);
    let policy = RebuildPolicy::always();
    let history = run_churn_stress(&instance, &layer, policy, 4).unwrap();
    check_history(&instance, &layer, policy, &history);
}

proptest! {
    /// Fuzzed scenario shapes under the same checker: whatever the catalog
    /// size, churn rate, compaction cadence or seed, every concurrent read
    /// must replay byte-identically at its pinned epoch. `PROPTEST_CASES`
    /// scales the sweep in CI (the stress job runs 256 cases across
    /// varying `RUST_TEST_THREADS`).
    #[test]
    fn fuzzed_churn_histories_replay_byte_identically(
        initial in 20_usize..70,
        epochs in 2_usize..6,
        inserts in 1_usize..9,
        retires in 1_usize..7,
        batch in 2_usize..6,
        k in 1_usize..4,
        seed in 0_u64..1_000,
        compact_every in 0_usize..4,
        threshold in 0_usize..9,
    ) {
        let instance = ChurnScenario {
            initial_strategies: initial,
            epochs,
            inserts_per_epoch: inserts,
            retires_per_epoch: retires,
            batch_size: batch,
            k,
            seed,
            compact: if compact_every == 0 {
                CompactPolicy::Never
            } else {
                CompactPolicy::EveryNEpochs(compact_every)
            },
            ..ChurnScenario::default()
        }
        .materialize();
        let layer = layer_for(&instance, AggregationMode::Sum, 1);
        let policy = if threshold == 0 {
            RebuildPolicy::never()
        } else {
            RebuildPolicy::threshold(threshold)
        };
        let history = run_churn_stress(&instance, &layer, policy, 4).unwrap();
        check_history(&instance, &layer, policy, &history);
    }
}
