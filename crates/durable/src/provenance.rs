//! Provenance reenactment: prove a logged decision from the recovered log.
//!
//! Every served batch can be logged as a [`DecisionRecord`] — epoch,
//! configuration, planned availability, the request batch and the returned
//! report. Because the solver pipeline is deterministic and consumes only
//! the availability *expectation*, those inputs pin the solve completely:
//! [`Provenance::reenact`] rebuilds the catalog at the decision's epoch
//! (checkpoint + bounded log replay) and re-runs
//! [`StratRec::process_batch_with_catalog_at`] against it;
//! [`Provenance::verify_decision`] then demands the reenacted report equal
//! the logged one **byte-for-byte** (compared through the record codec, so
//! even NaN payloads and signed zeros must match). A passing verification
//! is an end-to-end proof that the durable tier preserved everything the
//! recommendation depended on — slot numbering, liveness, eligibility and
//! axis orders — not just the strategy list.
//!
//! The model library is supplied by the caller: fitted models are immutable
//! configuration in this system (the catalog churns, models do not), so
//! they are not journaled.

use std::path::{Path, PathBuf};

use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec_core::error::StratRecError;
use stratrec_core::modeling::ModelLibrary;
use stratrec_core::stratrec::{ServiceQuality, StratRec, StratRecReport};

use crate::checkpoint::{list_checkpoints, read_checkpoint};
use crate::record::{DecisionRecord, WalRecord};
use crate::recovery::{recover_catalog, replay};
use crate::wal::{self, WAL_FILE_NAME};
use crate::{DurableError, Result};

/// A loaded provenance view of a durable catalog directory: the validated
/// log prefix plus every decision in it.
#[derive(Debug)]
pub struct Provenance {
    dir: PathBuf,
    policy: RebuildPolicy,
    /// The valid mutation/decision prefix of the log.
    records: Vec<(u64, WalRecord)>,
    decisions: Vec<(u64, DecisionRecord)>,
}

impl Provenance {
    /// Loads (and validates, via a full recovery pass) the log at `dir`.
    /// Tail corruption is tolerated exactly as recovery tolerates it: the
    /// provenance view covers the valid prefix.
    pub fn load(dir: &Path, policy: RebuildPolicy) -> Result<Self> {
        let recovered = recover_catalog(dir, policy)?;
        let scan = wal::scan(&dir.join(WAL_FILE_NAME))?;
        let records = scan
            .records
            .into_iter()
            .filter(|(offset, _)| *offset < recovered.report.valid_len)
            .collect();
        Ok(Self {
            dir: dir.to_path_buf(),
            policy,
            records,
            decisions: recovered.decisions,
        })
    }

    /// Every logged decision in the valid prefix, offset-tagged, in log
    /// order.
    #[must_use]
    pub fn decisions(&self) -> &[(u64, DecisionRecord)] {
        &self.decisions
    }

    /// Rebuilds the catalog exactly as it was at `epoch`: the newest
    /// readable checkpoint at-or-before `epoch`, plus replay of the log
    /// records up to it.
    ///
    /// # Errors
    ///
    /// [`StratRecError::RecoveryMismatch`] (wrapped) when `epoch` is not
    /// reachable from the log — before the oldest checkpoint, past the
    /// valid prefix, or inside a corrupt region.
    pub fn state_at_epoch(&self, epoch: u64) -> Result<StrategyCatalog> {
        let checkpoint = self.newest_checkpoint_at_or_before(epoch)?;
        let mut catalog =
            StrategyCatalog::from_checkpoint_parts(checkpoint.slots, checkpoint.epoch, self.policy);
        let suffix: Vec<&(u64, WalRecord)> = self
            .records
            .iter()
            .filter(|(offset, _)| *offset >= checkpoint.wal_offset)
            .collect();
        replay(&mut catalog, &suffix, Some(epoch))?;
        if catalog.epoch() != epoch {
            return Err(DurableError::Corrupt(StratRecError::RecoveryMismatch {
                epoch,
                detail: format!(
                    "epoch {epoch} is not reachable from the log (replay reached {})",
                    catalog.epoch()
                ),
            }));
        }
        Ok(catalog)
    }

    /// Re-runs the solve a logged decision recorded, against the recovered
    /// catalog pinned at the decision's epoch. `models` is the fitted model
    /// library the system serves with (immutable configuration, not
    /// journaled).
    pub fn reenact(
        &self,
        decision: &DecisionRecord,
        models: &ModelLibrary,
    ) -> Result<StratRecReport> {
        let catalog = self.state_at_epoch(decision.epoch)?;
        let availability = AvailabilityPdf::certain(decision.availability);
        let layer = StratRec::new(decision.config);
        layer
            .process_batch_with_catalog_at(
                &decision.requests,
                &catalog,
                models,
                &availability,
                ServiceQuality::Full,
            )
            .map_err(DurableError::Corrupt)
    }

    /// Reenacts `decision` and demands the reproduced report be
    /// **byte-identical** to the logged one under the record codec.
    ///
    /// # Errors
    ///
    /// [`StratRecError::RecoveryMismatch`] (wrapped) when the reenacted
    /// report differs in any way from what was served.
    pub fn verify_decision(&self, decision: &DecisionRecord, models: &ModelLibrary) -> Result<()> {
        let reenacted_report = self.reenact(decision, models)?;
        let reenacted = DecisionRecord {
            report: reenacted_report,
            ..decision.clone()
        };
        let logged_bytes = WalRecord::Decision(decision.clone()).encode();
        let reenacted_bytes = WalRecord::Decision(reenacted).encode();
        if logged_bytes != reenacted_bytes {
            return Err(DurableError::Corrupt(StratRecError::RecoveryMismatch {
                epoch: decision.epoch,
                detail: "reenacted decision is not byte-identical to the logged one".into(),
            }));
        }
        Ok(())
    }

    fn newest_checkpoint_at_or_before(&self, epoch: u64) -> Result<crate::checkpoint::Checkpoint> {
        for path in list_checkpoints(&self.dir)? {
            match read_checkpoint(&path) {
                Ok(checkpoint) if checkpoint.epoch <= epoch => return Ok(checkpoint),
                Ok(_) | Err(DurableError::Corrupt(_)) => continue,
                Err(error) => return Err(error),
            }
        }
        Err(DurableError::Corrupt(StratRecError::RecoveryMismatch {
            epoch,
            detail: format!("no checkpoint at or before epoch {epoch}"),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointPolicy;
    use crate::store::{DurableCatalog, DurableOptions};
    use crate::testutil::TempDir;
    use stratrec_core::model::{DeploymentParameters, Strategy};
    use stratrec_core::modeling::StrategyModel;
    use stratrec_core::stratrec::StratRecConfig;

    fn strategy(id: u64) -> Strategy {
        Strategy::from_params(
            id,
            DeploymentParameters::clamped(0.6 + (id as f64) * 0.01, 0.4, 0.35),
        )
    }

    fn serve_and_log(durable: &DurableCatalog, models: &ModelLibrary) -> DecisionRecord {
        let snapshot = durable.pin();
        let requests = stratrec_core::examples_data::running_example_requests();
        let availability = AvailabilityPdf::certain(0.8);
        let config = StratRecConfig::default();
        let report = StratRec::new(config)
            .process_batch_with_catalog_at(
                &requests,
                snapshot.catalog(),
                models,
                &availability,
                ServiceQuality::Full,
            )
            .unwrap();
        let decision = DecisionRecord {
            epoch: snapshot.epoch(),
            config,
            availability: availability.expectation().value(),
            requests,
            report,
        };
        durable.log_decision(&decision).unwrap();
        decision
    }

    #[test]
    fn decisions_reenact_byte_identically_across_churn_and_compaction() {
        let dir = TempDir::new("provenance-reenact");
        let catalog = StrategyCatalog::with_policy(
            stratrec_core::examples_data::running_example_strategies(),
            RebuildPolicy::threshold(3),
        );
        let durable = DurableCatalog::create(
            dir.path(),
            catalog,
            DurableOptions {
                sync: false,
                checkpoint: CheckpointPolicy::EveryMutations(4),
            },
        )
        .unwrap();
        // Models for every strategy id that will ever exist in this test.
        let all: Vec<Strategy> = (0..40).map(strategy).collect();
        let mut models = ModelLibrary::uniform_for(&all, StrategyModel::uniform(0.1, 0.85));
        for s in stratrec_core::examples_data::running_example_strategies() {
            models.insert(s.id, StrategyModel::uniform(0.1, 0.85));
        }

        let mut logged = Vec::new();
        for round in 0..5_u64 {
            durable
                .update(|catalog| {
                    catalog.insert(strategy(10 + round * 2));
                    catalog.insert(strategy(11 + round * 2));
                    if round % 2 == 1 {
                        catalog.retire(round as usize);
                        catalog.compact();
                    }
                })
                .unwrap();
            logged.push(serve_and_log(&durable, &models));
        }
        drop(durable);

        let provenance = Provenance::load(dir.path(), RebuildPolicy::threshold(3)).unwrap();
        assert_eq!(provenance.decisions().len(), logged.len());
        for ((_, from_log), original) in provenance.decisions().iter().zip(&logged) {
            assert_eq!(from_log, original, "the log preserved the decision");
            provenance.verify_decision(from_log, &models).unwrap();
        }
    }

    #[test]
    fn a_tampered_decision_fails_verification() {
        let dir = TempDir::new("provenance-tamper");
        let catalog = StrategyCatalog::with_policy(
            stratrec_core::examples_data::running_example_strategies(),
            RebuildPolicy::threshold(3),
        );
        let durable = DurableCatalog::create(
            dir.path(),
            catalog,
            DurableOptions {
                sync: false,
                checkpoint: CheckpointPolicy::Never,
            },
        )
        .unwrap();
        let models = ModelLibrary::uniform_for(
            &stratrec_core::examples_data::running_example_strategies(),
            StrategyModel::uniform(0.1, 0.85),
        );
        let decision = serve_and_log(&durable, &models);
        drop(durable);

        let provenance = Provenance::load(dir.path(), RebuildPolicy::threshold(3)).unwrap();
        let mut tampered = decision;
        tampered.report.batch.objective_value += 1.0;
        let error = provenance.verify_decision(&tampered, &models).unwrap_err();
        assert!(matches!(
            error,
            DurableError::Corrupt(StratRecError::RecoveryMismatch { .. })
        ));
    }

    #[test]
    fn unreachable_epochs_are_typed_errors() {
        let dir = TempDir::new("provenance-unreachable");
        let catalog = StrategyCatalog::with_policy(
            stratrec_core::examples_data::running_example_strategies(),
            RebuildPolicy::threshold(3),
        );
        let durable = DurableCatalog::create(
            dir.path(),
            catalog,
            DurableOptions {
                sync: false,
                checkpoint: CheckpointPolicy::Never,
            },
        )
        .unwrap();
        durable
            .update(|catalog| {
                catalog.insert(strategy(10));
            })
            .unwrap();
        drop(durable);

        let provenance = Provenance::load(dir.path(), RebuildPolicy::threshold(3)).unwrap();
        assert!(provenance.state_at_epoch(1).is_ok());
        assert!(matches!(
            provenance.state_at_epoch(99).unwrap_err(),
            DurableError::Corrupt(StratRecError::RecoveryMismatch { epoch: 99, .. })
        ));
    }
}
