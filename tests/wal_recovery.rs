//! Crash recovery by prefix-cut fault injection, end to end.
//!
//! The durable tier's crash model is a torn log: the process dies and an
//! arbitrary **prefix** of `wal.log` survives. The property test here
//! drives a [`DurableCatalog`] through a random churn sequence while a
//! shadow catalog applies the same mutations in lockstep, snapshotting the
//! full observable projection after every logged record — strategies,
//! liveness, eligibility answers, all three axis orders, the workforce
//! matrix of a standing batch, and (at record boundaries) a complete
//! pipeline report. Then the log is cut at **every record boundary and
//! mid-record** (inside frame headers and inside payloads), each cut is
//! recovered in a fresh directory, and the recovered catalog must project
//! exactly the shadow state of the last record that fully survived the cut. Mid-record
//! cuts must additionally surface typed tail corruption; boundary cuts
//! must scan clean.
//!
//! Checkpoints are disabled (`CheckpointPolicy::Never`) and sync is off,
//! so the recovered state is a pure function of the log prefix — which is
//! precisely what the property pins down. The checkpointed fast path is
//! covered by the durable crate's unit tests.
//!
//! The non-property tests exercise the corruption taxonomy through the
//! full [`DurableCatalog::recover`] path (truncation, bit flips,
//! duplicated tail frames) and the provenance acceptance scenario: every
//! decision logged across a five-epoch workload churn reenacts
//! byte-identically from the recovered log.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use proptest::prelude::*;
use stratrec::core::availability::AvailabilityPdf;
use stratrec::core::batch::BatchObjective;
use stratrec::core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec::core::engine::BatchEngine;
use stratrec::core::error::StratRecError;
use stratrec::core::model::{DeploymentParameters, DeploymentRequest, Strategy, TaskType};
use stratrec::core::modeling::{ModelLibrary, StrategyModel};
use stratrec::core::stratrec::{ServiceQuality, StratRec, StratRecConfig, StratRecReport};
use stratrec::core::workforce::{AggregationMode, EligibilityRule, WorkforceMatrix};
use stratrec::durable::recovery::recover_catalog;
use stratrec::durable::testutil::TempDir;
use stratrec::durable::wal::{scan_bytes, WAL_FILE_NAME, WAL_HEADER_LEN};
use stratrec::durable::{
    CheckpointPolicy, DecisionRecord, DurableCatalog, DurableOptions, Provenance,
};
use stratrec::geometry::Axis;
use stratrec::workload::churn::CompactPolicy;
use stratrec::workload::ChurnScenario;

const POLICY: RebuildPolicy = RebuildPolicy::threshold(4);

/// Deterministic per-strategy model, id-distinct so matrix cells differ.
fn model_for(id: u64) -> StrategyModel {
    let alpha = 0.4 + ((id * 31) % 47) as f64 / 100.0;
    StrategyModel::uniform(alpha, 1.0 - alpha)
}

/// The standing batch every projection is computed against (one loose, one
/// mid, one strict request).
fn standing_requests() -> Vec<DeploymentRequest> {
    [(0.05, 0.95, 0.95), (0.55, 0.6, 0.65), (0.85, 0.35, 0.3)]
        .iter()
        .enumerate()
        .map(|(i, &(q, c, l))| {
            DeploymentRequest::new(
                i as u64,
                TaskType::SentenceTranslation,
                DeploymentParameters::clamped(q, c, l),
            )
        })
        .collect()
}

fn eligibility_probes() -> [DeploymentParameters; 3] {
    [
        DeploymentParameters::default(),
        DeploymentParameters::clamped(0.5, 0.5, 0.5),
        DeploymentParameters::clamped(0.9, 0.2, 0.15),
    ]
}

/// Everything recovery promises to reproduce: the slot table, liveness,
/// indexed eligibility answers, the catalog-resident axis orders, and the
/// workforce matrix of a standing batch. Bit-identity of the matrix checks
/// that the recovered R-tree answers eligibility for every request and
/// that every live slot inverts the same model to the same cell.
#[derive(Debug, PartialEq)]
struct Observed {
    epoch: u64,
    len: usize,
    slot_count: usize,
    strategies: Vec<Strategy>,
    live: Vec<bool>,
    eligible: Vec<Vec<usize>>,
    axis_orders: Vec<Vec<usize>>,
    matrix: WorkforceMatrix,
}

fn observe(catalog: &StrategyCatalog, models: &ModelLibrary) -> Observed {
    let requests = standing_requests();
    Observed {
        epoch: catalog.epoch(),
        len: catalog.len(),
        slot_count: catalog.slot_count(),
        strategies: catalog.strategies().to_vec(),
        live: (0..catalog.slot_count())
            .map(|slot| catalog.is_live(slot))
            .collect(),
        eligible: eligibility_probes()
            .iter()
            .map(|probe| catalog.eligible_for(probe))
            .collect(),
        axis_orders: Axis::ALL
            .iter()
            .map(|&axis| catalog.axis_order(axis))
            .collect(),
        matrix: BatchEngine::sequential()
            .workforce_matrix(
                &requests,
                catalog,
                models,
                EligibilityRule::StrategyParameters,
            )
            .expect("every replayed strategy has a model"),
    }
}

/// The full pipeline run at a recovered state — `None` when the batch is
/// infeasible at that state (both sides must then agree it is).
fn pipeline_report(catalog: &StrategyCatalog, models: &ModelLibrary) -> Option<StratRecReport> {
    let layer = StratRec::new(StratRecConfig {
        k: 2,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Sum,
    });
    layer
        .process_batch_with_catalog_at(
            &standing_requests(),
            catalog,
            models,
            &AvailabilityPdf::certain(0.8),
            ServiceQuality::Full,
        )
        .ok()
}

/// Copies the durable directory's checkpoints and the first `cut` bytes of
/// its WAL into a fresh directory — the crash image recovery is run on.
fn crash_image(source: &Path, wal_bytes: &[u8], cut: usize, target: &Path) {
    fs::write(target.join(WAL_FILE_NAME), &wal_bytes[..cut]).unwrap();
    for entry in fs::read_dir(source).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "ckpt") {
            fs::copy(&path, target.join(path.file_name().unwrap())).unwrap();
        }
    }
}

/// When `STRATREC_RECOVERY_DUMP_DIR` is set (the CI fault-injection job
/// points it at an artifact directory), preserves the failing cut's crash
/// image — the truncated WAL plus checkpoints — before the temp dir's RAII
/// cleanup destroys it, so the exact recovery input ships with the failure.
fn persist_crash_image(image: &Path, cut: usize) {
    let Some(dump_root) = std::env::var_os("STRATREC_RECOVERY_DUMP_DIR") else {
        return;
    };
    let target = Path::new(&dump_root).join(format!("cut-{cut}"));
    if fs::create_dir_all(&target).is_err() {
        return;
    }
    for entry in fs::read_dir(image).into_iter().flatten().flatten() {
        let _ = fs::copy(entry.path(), target.join(entry.file_name()));
    }
}

proptest! {
    /// The headline durability property: for a random churn log, **every**
    /// prefix cut recovers to exactly the shadow state after the last
    /// record that fully survived — and cuts inside a frame surface typed
    /// corruption while boundary cuts scan clean.
    #[test]
    fn every_prefix_cut_recovers_to_the_shadow_state(
        initial in proptest::collection::vec(
            (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 0..8),
        ops in proptest::collection::vec(
            (0.0_f64..1.0, (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0)), 1..18),
    ) {
        let seed: Vec<Strategy> = initial
            .iter()
            .enumerate()
            .map(|(i, &(q, c, l))| {
                Strategy::from_params(i as u64, DeploymentParameters::clamped(q, c, l))
            })
            .collect();
        let mut models =
            ModelLibrary::from_pairs(seed.iter().map(|s| (s.id, model_for(s.id.0))));
        let mut next_id = seed.len() as u64;

        let dir = TempDir::new("wal-prefix-cut");
        let durable = DurableCatalog::create(
            dir.path(),
            StrategyCatalog::with_policy(seed.clone(), POLICY),
            DurableOptions {
                sync: false,
                checkpoint: CheckpointPolicy::Never,
            },
        )
        .unwrap();
        let mut shadow = StrategyCatalog::with_policy(seed, POLICY);

        // Shadow projections indexed by "records fully on disk": entry 0 is
        // the pre-churn state, entry i the state after the i-th record.
        let mut observed = vec![observe(&shadow, &models)];
        for &(selector, (a, b, c)) in &ops {
            if selector < 0.45 {
                let strategy =
                    Strategy::from_params(next_id, DeploymentParameters::clamped(a, b, c));
                models.insert(strategy.id, model_for(next_id));
                next_id += 1;
                let (slot, _) = durable.update(|c| c.insert(strategy.clone())).unwrap();
                prop_assert_eq!(slot, shadow.insert(strategy));
            } else if selector < 0.8 {
                let live = shadow.live_indices();
                if live.is_empty() {
                    continue;
                }
                let victim = live[((a * live.len() as f64) as usize).min(live.len() - 1)];
                let (retired, _) = durable.update(|c| c.retire(victim)).unwrap();
                prop_assert!(retired);
                prop_assert!(shadow.retire(victim));
            } else {
                if shadow.slot_count() == shadow.len() {
                    continue; // nothing to compact away
                }
                let (remap, _) = durable.update(|c| c.compact()).unwrap();
                prop_assert_eq!(remap, shadow.compact());
            }
            observed.push(observe(&shadow, &models));
        }
        drop(durable);

        let bytes = fs::read(dir.path().join(WAL_FILE_NAME)).unwrap();
        let full = scan_bytes(&bytes);
        prop_assert!(full.corruption.is_none(), "the uncut log must scan clean");
        prop_assert_eq!(full.records.len(), observed.len() - 1);
        prop_assert_eq!(full.valid_len as usize, bytes.len());

        // Each record's frame spans [starts[i], ends[i]); a cut is a clean
        // boundary exactly when it lands on the header end or a frame end.
        let starts: Vec<usize> = full.records.iter().map(|(off, _)| *off as usize).collect();
        let ends: Vec<usize> = (0..starts.len())
            .map(|i| starts.get(i + 1).copied().unwrap_or(bytes.len()))
            .collect();
        let mut boundaries = BTreeSet::from([WAL_HEADER_LEN as usize]);
        boundaries.extend(ends.iter().copied());

        // Cut points: every boundary, plus — per record — a cut inside the
        // frame header and one in the middle of the payload; plus cuts
        // inside the file header itself.
        let mut cuts = boundaries.clone();
        cuts.insert(0);
        cuts.insert(3);
        for (&start, &end) in starts.iter().zip(&ends) {
            cuts.insert(start + 1);
            cuts.insert((start + end) / 2);
        }

        for &cut in &cuts {
            let image = TempDir::new("wal-cut-image");
            crash_image(dir.path(), &bytes, cut, image.path());

            let checked = (|| -> Result<(), proptest::test_runner::TestCaseError> {
                let recovered = match recover_catalog(image.path(), POLICY) {
                    Ok(recovered) => recovered,
                    Err(error) => {
                        return Err(proptest::test_runner::TestCaseError::Fail(format!(
                            "recovery must tolerate any prefix cut, but failed at byte {cut}: {error}"
                        )))
                    }
                };

                // The state must be the shadow state of the last fully
                // durable record before the cut.
                let survivors = ends.iter().filter(|&&end| end <= cut).count();
                let expected = &observed[survivors];
                prop_assert_eq!(
                    &observe(&recovered.catalog, &models),
                    expected,
                    "cut at byte {} of {}",
                    cut,
                    bytes.len()
                );
                prop_assert_eq!(recovered.report.epoch, expected.epoch);
                prop_assert_eq!(recovered.report.records_applied, survivors);

                // Tail diagnosis: a boundary cut is a clean (just shorter)
                // log; anything else must surface typed corruption, never a
                // panic.
                if boundaries.contains(&cut) {
                    prop_assert!(recovered.report.corruption.is_none());
                } else {
                    prop_assert!(
                        matches!(
                            recovered.report.corruption,
                            Some(StratRecError::WalCorrupt { .. })
                        ),
                        "cut at byte {cut} must be typed corruption"
                    );
                }

                // At boundary cuts, the full recommendation pipeline must
                // reproduce the shadow's report bit for bit (this sweeps
                // the recovered R-tree, axis orders and eligibility
                // through the real solve).
                if boundaries.contains(&cut) {
                    let shadow_state = StrategyCatalog::from_checkpoint_parts(
                        expected
                            .strategies
                            .iter()
                            .cloned()
                            .zip(expected.live.iter().copied())
                            .collect(),
                        expected.epoch,
                        POLICY,
                    );
                    prop_assert_eq!(
                        pipeline_report(&recovered.catalog, &models),
                        pipeline_report(&shadow_state, &models),
                        "pipeline diverged at cut {}",
                        cut
                    );
                }
                Ok(())
            })();
            if let Err(failure) = checked {
                persist_crash_image(image.path(), cut);
                return Err(failure);
            }
        }
    }
}

/// Builds a small durable log with a few epochs of churn and returns the
/// directory plus the raw WAL bytes.
fn churned_log(label: &str) -> (TempDir, Vec<u8>) {
    let seed: Vec<Strategy> = (0..6)
        .map(|i| {
            Strategy::from_params(
                i,
                DeploymentParameters::clamped(0.3 + i as f64 * 0.1, 0.5, 0.45),
            )
        })
        .collect();
    let dir = TempDir::new(label);
    let durable = DurableCatalog::create(
        dir.path(),
        StrategyCatalog::with_policy(seed, POLICY),
        DurableOptions {
            sync: false,
            checkpoint: CheckpointPolicy::Never,
        },
    )
    .unwrap();
    durable
        .update(|c| {
            c.insert(Strategy::from_params(
                6,
                DeploymentParameters::clamped(0.7, 0.6, 0.55),
            ))
        })
        .unwrap();
    durable.update(|c| c.retire(1)).unwrap();
    durable.update(|c| c.compact()).unwrap();
    drop(durable);
    let bytes = fs::read(dir.path().join(WAL_FILE_NAME)).unwrap();
    (dir, bytes)
}

/// Recovery (through the full [`DurableCatalog::recover`] path) of a log
/// whose last frame was torn mid-payload: typed corruption naming the
/// frame's byte offset, state rolled back to the last full record, and the
/// reopened log stays appendable.
#[test]
fn truncation_mid_record_recovers_the_valid_prefix() {
    let (dir, bytes) = churned_log("corrupt-truncate");
    let scan = scan_bytes(&bytes);
    let (last_offset, _) = *scan.records.last().unwrap();
    let cut = last_offset as usize + 3; // inside the last frame's header
    fs::write(dir.path().join(WAL_FILE_NAME), &bytes[..cut]).unwrap();

    let (recovered, report, _) = DurableCatalog::recover(
        dir.path(),
        POLICY,
        DurableOptions {
            sync: false,
            checkpoint: CheckpointPolicy::Never,
        },
    )
    .unwrap();
    assert_eq!(report.valid_len, last_offset);
    match report.corruption {
        Some(StratRecError::WalCorrupt { offset, .. }) => assert_eq!(offset, last_offset),
        ref other => panic!("expected torn-record corruption, got {other:?}"),
    }
    // The compact record was torn off: the retired slot is still a hole.
    assert_eq!(recovered.epoch(), 2);
    // The reopened log truncated the torn tail and accepts new mutations.
    recovered.update(|c| c.retire(2)).unwrap();
    assert_eq!(recovered.epoch(), 3);
}

/// A flipped payload byte is a checksum mismatch at that frame's offset;
/// everything before it survives.
#[test]
fn bit_flip_is_a_checksum_mismatch_at_the_frame_offset() {
    let (dir, mut bytes) = churned_log("corrupt-bitflip");
    let scan = scan_bytes(&bytes);
    let (target_offset, _) = scan.records[1]; // the retire record
    bytes[target_offset as usize + 8] ^= 0x40; // first payload byte
    fs::write(dir.path().join(WAL_FILE_NAME), &bytes).unwrap();

    let recovered = recover_catalog(dir.path(), POLICY).unwrap();
    assert_eq!(recovered.report.epoch, 1, "only the insert survives");
    assert_eq!(recovered.report.valid_len, target_offset);
    match recovered.report.corruption {
        Some(StratRecError::WalCorrupt { offset, ref kind }) => {
            assert_eq!(offset, target_offset);
            assert!(kind.contains("checksum"), "kind was {kind:?}");
        }
        ref other => panic!("expected checksum corruption, got {other:?}"),
    }
}

/// A duplicated tail frame (e.g. a replayed append after a partial copy)
/// re-announces an epoch that already happened: the scan itself is clean,
/// so replay catches it as an out-of-sequence record and cuts the valid
/// prefix at the duplicate's offset.
#[test]
fn duplicated_tail_record_is_out_of_sequence_corruption() {
    let (dir, mut bytes) = churned_log("corrupt-dup-tail");
    let scan = scan_bytes(&bytes);
    let (last_offset, _) = *scan.records.last().unwrap();
    let duplicate_offset = bytes.len() as u64;
    let tail = bytes[last_offset as usize..].to_vec();
    bytes.extend_from_slice(&tail);
    fs::write(dir.path().join(WAL_FILE_NAME), &bytes).unwrap();

    let recovered = recover_catalog(dir.path(), POLICY).unwrap();
    assert_eq!(recovered.report.epoch, 3, "the original log fully applies");
    assert_eq!(recovered.report.valid_len, duplicate_offset);
    match recovered.report.corruption {
        Some(StratRecError::WalCorrupt { offset, ref kind }) => {
            assert_eq!(offset, duplicate_offset);
            assert!(kind.contains("out of sequence"), "kind was {kind:?}");
        }
        ref other => panic!("expected out-of-sequence corruption, got {other:?}"),
    }
}

/// The provenance acceptance scenario: a five-epoch workload churn with a
/// decision logged per epoch; after recovery, every decision reenacts
/// **byte-identically** against the catalog pinned at its epoch.
#[test]
fn five_epoch_churn_decisions_reenact_byte_identically() {
    let instance = ChurnScenario {
        initial_strategies: 40,
        epochs: 5,
        inserts_per_epoch: 5,
        retires_per_epoch: 4,
        batch_size: 4,
        k: 3,
        compact: CompactPolicy::EveryNEpochs(2),
        ..ChurnScenario::default()
    }
    .materialize();
    let config = StratRecConfig {
        k: instance.k,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Sum,
    };
    let layer = StratRec::new(config);
    let pdf = AvailabilityPdf::certain(instance.availability.value());

    let dir = TempDir::new("provenance-five-epochs");
    let durable = DurableCatalog::create(
        dir.path(),
        instance.catalog(POLICY),
        DurableOptions {
            sync: false,
            checkpoint: CheckpointPolicy::EveryMutations(8),
        },
    )
    .unwrap();
    for i in 0..instance.epochs.len() {
        durable
            .update(|catalog| instance.apply_epoch(i, catalog))
            .unwrap();
        let snapshot = durable.pin();
        let report = layer
            .process_batch_with_catalog_at(
                &instance.standing,
                snapshot.catalog(),
                &instance.models,
                &pdf,
                ServiceQuality::Full,
            )
            .unwrap();
        durable
            .log_decision(&DecisionRecord {
                epoch: snapshot.epoch(),
                config,
                availability: pdf.expectation().value(),
                requests: instance.standing.clone(),
                report,
            })
            .unwrap();
    }
    drop(durable);

    let provenance = Provenance::load(dir.path(), POLICY).unwrap();
    assert_eq!(provenance.decisions().len(), instance.epochs.len());
    for (_, decision) in provenance.decisions() {
        provenance
            .verify_decision(decision, &instance.models)
            .unwrap();
    }
}
