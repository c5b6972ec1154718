//! The write-ahead-log record types and their on-disk payload codec.
//!
//! A WAL payload is `tag: u8` followed by the variant body. Mutation
//! records (tags 1–3) mirror
//! [`CatalogMutation`] — what the
//! journal of a logged [`ConcurrentCatalog::update_logged`](stratrec_core::catalog::ConcurrentCatalog::update_logged)
//! epoch drains — each carrying the catalog epoch after the mutation so
//! replay can detect out-of-sequence frames (a duplicated or dropped
//! record). The compaction record stores the raw remap parts
//! (`forward` / `live_len` / epochs) rather than a
//! [`SlotRemap`](stratrec_core::catalog::SlotRemap): recovery re-runs the
//! compaction through the public API and *verifies* the produced remap
//! against these fields, so a remap can never enter the system without the
//! catalog itself deriving it.
//!
//! The decision record (tag 4) is the provenance row: the epoch the batch
//! was served from, the solver configuration, the planned availability, the
//! full request batch, and the report that was returned — everything
//! [`crate::provenance`] needs to reenact the solve and compare
//! byte-for-byte. `f64`s are stored as IEEE-754 bit patterns, so
//! "byte-identical" is exact, not approximate.

use stratrec_core::adpar::AdparSolution;
use stratrec_core::availability::WorkerAvailability;
use stratrec_core::batch::{BatchObjective, BatchOutcome, Recommendation};
use stratrec_core::catalog::CatalogMutation;
use stratrec_core::error::StratRecError;
use stratrec_core::model::{
    DeploymentParameters, DeploymentRequest, Organization, RequestId, Strategy, Structure, Style,
    TaskType,
};
use stratrec_core::stratrec::{AlternativeRecommendation, StratRecConfig, StratRecReport};
use stratrec_core::workforce::AggregationMode;
use stratrec_geometry::Point3;

use crate::codec::{ByteReader, ByteWriter, DecodeError};

/// One record of the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A strategy was inserted at `slot`; the catalog epoch became
    /// `epoch_after`.
    Insert {
        /// Slot the insert landed on (replay must land on the same one).
        slot: usize,
        /// The inserted strategy, verbatim.
        strategy: Strategy,
        /// Catalog epoch after the insert.
        epoch_after: u64,
    },
    /// The live strategy at `slot` was retired; the epoch became
    /// `epoch_after`.
    Retire {
        /// Slot that was retired.
        slot: usize,
        /// Catalog epoch after the retire.
        epoch_after: u64,
    },
    /// The catalog was compacted. Stores the raw parts of the produced
    /// [`SlotRemap`](stratrec_core::catalog::SlotRemap); replay re-runs the
    /// compaction and verifies its remap against them.
    Compact {
        /// Epoch the compaction was applied at.
        source_epoch: u64,
        /// Epoch after the compaction.
        target_epoch: u64,
        /// Live slots after compaction (the new dense range).
        live_len: usize,
        /// `forward[old] = Some(new)` for survivors, `None` for reclaimed.
        forward: Vec<Option<usize>>,
    },
    /// A deployment decision served to requesters — the provenance row.
    Decision(DecisionRecord),
}

/// A logged deployment decision: which strategies were recommended to which
/// requests, from which catalog epoch, under which configuration — the
/// shape of a `deployments` audit table, plus the inputs needed to reenact
/// the solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The epoch of the snapshot the batch was served from.
    pub epoch: u64,
    /// Solver configuration the batch ran with.
    pub config: StratRecConfig,
    /// Expected worker availability the batch was planned with (the
    /// expectation of the availability distribution; the pipeline consumes
    /// only the expectation, so this reproduces the solve exactly).
    pub availability: f64,
    /// The request batch, verbatim.
    pub requests: Vec<DeploymentRequest>,
    /// The report that was returned to the requesters.
    pub report: StratRecReport,
}

const TAG_INSERT: u8 = 1;
const TAG_RETIRE: u8 = 2;
const TAG_COMPACT: u8 = 3;
const TAG_DECISION: u8 = 4;

impl WalRecord {
    /// The WAL record for a journaled catalog mutation.
    #[must_use]
    pub fn from_mutation(mutation: &CatalogMutation) -> Self {
        match mutation {
            CatalogMutation::Insert {
                slot,
                strategy,
                epoch_after,
            } => Self::Insert {
                slot: *slot,
                strategy: strategy.clone(),
                epoch_after: *epoch_after,
            },
            CatalogMutation::Retire { slot, epoch_after } => Self::Retire {
                slot: *slot,
                epoch_after: *epoch_after,
            },
            CatalogMutation::Compact { remap } => Self::Compact {
                source_epoch: remap.source_epoch(),
                target_epoch: remap.target_epoch(),
                live_len: remap.live_len,
                forward: remap.forward.clone(),
            },
        }
    }

    /// The catalog epoch after this record applies (`None` for decisions,
    /// which do not mutate the catalog).
    #[must_use]
    pub fn epoch_after(&self) -> Option<u64> {
        match self {
            Self::Insert { epoch_after, .. } | Self::Retire { epoch_after, .. } => {
                Some(*epoch_after)
            }
            Self::Compact { target_epoch, .. } => Some(*target_epoch),
            Self::Decision(_) => None,
        }
    }

    /// Encodes the record payload (tag + body; framing is the WAL's job).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut writer = ByteWriter::new();
        match self {
            Self::Insert {
                slot,
                strategy,
                epoch_after,
            } => {
                writer.u8(TAG_INSERT);
                writer.usize(*slot);
                encode_strategy(&mut writer, strategy);
                writer.u64(*epoch_after);
            }
            Self::Retire { slot, epoch_after } => {
                writer.u8(TAG_RETIRE);
                writer.usize(*slot);
                writer.u64(*epoch_after);
            }
            Self::Compact {
                source_epoch,
                target_epoch,
                live_len,
                forward,
            } => {
                writer.u8(TAG_COMPACT);
                writer.u64(*source_epoch);
                writer.u64(*target_epoch);
                writer.usize(*live_len);
                writer.usize(forward.len());
                for entry in forward {
                    match entry {
                        Some(new) => {
                            writer.bool(true);
                            writer.usize(*new);
                        }
                        None => writer.bool(false),
                    }
                }
            }
            Self::Decision(decision) => {
                writer.u8(TAG_DECISION);
                encode_decision(&mut writer, decision);
            }
        }
        writer.into_bytes()
    }

    /// Decodes a record payload, rejecting unknown tags, truncation and
    /// trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = ByteReader::new(payload);
        let record = match reader.u8()? {
            TAG_INSERT => {
                let slot = reader.usize()?;
                let strategy = decode_strategy(&mut reader)?;
                let epoch_after = reader.u64()?;
                Self::Insert {
                    slot,
                    strategy,
                    epoch_after,
                }
            }
            TAG_RETIRE => Self::Retire {
                slot: reader.usize()?,
                epoch_after: reader.u64()?,
            },
            TAG_COMPACT => {
                let source_epoch = reader.u64()?;
                let target_epoch = reader.u64()?;
                let live_len = reader.usize()?;
                let len = reader.usize()?;
                let mut forward = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    forward.push(if reader.bool()? {
                        Some(reader.usize()?)
                    } else {
                        None
                    });
                }
                Self::Compact {
                    source_epoch,
                    target_epoch,
                    live_len,
                    forward,
                }
            }
            TAG_DECISION => Self::Decision(decode_decision(&mut reader)?),
            _ => {
                return Err(DecodeError {
                    at: 0,
                    what: "unknown record tag",
                })
            }
        };
        reader.finish()?;
        Ok(record)
    }
}

fn encode_params(writer: &mut ByteWriter, params: &DeploymentParameters) {
    writer.f64(params.quality);
    writer.f64(params.cost);
    writer.f64(params.latency);
}

fn decode_params(reader: &mut ByteReader<'_>) -> Result<DeploymentParameters, DecodeError> {
    Ok(DeploymentParameters {
        quality: reader.f64()?,
        cost: reader.f64()?,
        latency: reader.f64()?,
    })
}

fn encode_strategy(writer: &mut ByteWriter, strategy: &Strategy) {
    writer.u64(strategy.id.0);
    writer.u8(match strategy.structure {
        Structure::Sequential => 0,
        Structure::Simultaneous => 1,
    });
    writer.u8(match strategy.organization {
        Organization::Independent => 0,
        Organization::Collaborative => 1,
    });
    writer.u8(match strategy.style {
        Style::CrowdOnly => 0,
        Style::Hybrid => 1,
    });
    encode_params(writer, &strategy.params);
}

fn decode_strategy(reader: &mut ByteReader<'_>) -> Result<Strategy, DecodeError> {
    let id = reader.u64()?;
    let structure = match reader.u8()? {
        0 => Structure::Sequential,
        1 => Structure::Simultaneous,
        _ => return Err(invalid_tag(reader)),
    };
    let organization = match reader.u8()? {
        0 => Organization::Independent,
        1 => Organization::Collaborative,
        _ => return Err(invalid_tag(reader)),
    };
    let style = match reader.u8()? {
        0 => Style::CrowdOnly,
        1 => Style::Hybrid,
        _ => return Err(invalid_tag(reader)),
    };
    let params = decode_params(reader)?;
    Ok(Strategy {
        id: stratrec_core::model::StrategyId(id),
        structure,
        organization,
        style,
        params,
    })
}

fn encode_request(writer: &mut ByteWriter, request: &DeploymentRequest) {
    writer.u64(request.id.0);
    writer.u8(match request.task_type {
        TaskType::SentenceTranslation => 0,
        TaskType::TextCreation => 1,
        TaskType::TextSummarization => 2,
        TaskType::PuzzleSolving => 3,
    });
    encode_params(writer, &request.params);
}

fn decode_request(reader: &mut ByteReader<'_>) -> Result<DeploymentRequest, DecodeError> {
    let id = reader.u64()?;
    let task_type = match reader.u8()? {
        0 => TaskType::SentenceTranslation,
        1 => TaskType::TextCreation,
        2 => TaskType::TextSummarization,
        3 => TaskType::PuzzleSolving,
        _ => return Err(invalid_tag(reader)),
    };
    let params = decode_params(reader)?;
    Ok(DeploymentRequest {
        id: RequestId(id),
        task_type,
        params,
    })
}

fn encode_config(writer: &mut ByteWriter, config: &StratRecConfig) {
    writer.usize(config.k);
    writer.u8(match config.objective {
        BatchObjective::Throughput => 0,
        BatchObjective::Payoff => 1,
    });
    writer.u8(match config.aggregation {
        AggregationMode::Sum => 0,
        AggregationMode::Max => 1,
    });
}

fn decode_config(reader: &mut ByteReader<'_>) -> Result<StratRecConfig, DecodeError> {
    let k = reader.usize()?;
    let objective = match reader.u8()? {
        0 => BatchObjective::Throughput,
        1 => BatchObjective::Payoff,
        _ => return Err(invalid_tag(reader)),
    };
    let aggregation = match reader.u8()? {
        0 => AggregationMode::Sum,
        1 => AggregationMode::Max,
        _ => return Err(invalid_tag(reader)),
    };
    Ok(StratRecConfig {
        k,
        objective,
        aggregation,
    })
}

fn encode_usizes(writer: &mut ByteWriter, values: &[usize]) {
    writer.usize(values.len());
    for &value in values {
        writer.usize(value);
    }
}

fn decode_usizes(reader: &mut ByteReader<'_>) -> Result<Vec<usize>, DecodeError> {
    let len = reader.usize()?;
    let mut values = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        values.push(reader.usize()?);
    }
    Ok(values)
}

fn encode_recommendation(writer: &mut ByteWriter, rec: &Recommendation) {
    writer.usize(rec.request_index);
    writer.u64(rec.request_id.0);
    encode_usizes(writer, &rec.strategy_indices);
    writer.f64(rec.workforce);
    writer.f64(rec.objective_contribution);
}

fn decode_recommendation(reader: &mut ByteReader<'_>) -> Result<Recommendation, DecodeError> {
    Ok(Recommendation {
        request_index: reader.usize()?,
        request_id: RequestId(reader.u64()?),
        strategy_indices: decode_usizes(reader)?,
        workforce: reader.f64()?,
        objective_contribution: reader.f64()?,
    })
}

fn encode_solution(writer: &mut ByteWriter, solution: &AdparSolution) {
    encode_params(writer, &solution.alternative);
    writer.f64(solution.relaxation.x);
    writer.f64(solution.relaxation.y);
    writer.f64(solution.relaxation.z);
    encode_usizes(writer, &solution.strategy_indices);
    writer.f64(solution.distance);
}

fn decode_solution(reader: &mut ByteReader<'_>) -> Result<AdparSolution, DecodeError> {
    Ok(AdparSolution {
        alternative: decode_params(reader)?,
        relaxation: Point3 {
            x: reader.f64()?,
            y: reader.f64()?,
            z: reader.f64()?,
        },
        strategy_indices: decode_usizes(reader)?,
        distance: reader.f64()?,
    })
}

fn encode_error(writer: &mut ByteWriter, error: &StratRecError) {
    match error {
        StratRecError::ParameterOutOfRange { parameter, value } => {
            writer.u8(0);
            writer.str(parameter);
            writer.f64(*value);
        }
        StratRecError::InvalidDistribution(message) => {
            writer.u8(1);
            writer.str(message);
        }
        StratRecError::ZeroCardinality => writer.u8(2),
        // Tag 3 stays unassigned so every later tag keeps its value in
        // existing logs.
        StratRecError::NotEnoughStrategies {
            available,
            requested,
        } => {
            writer.u8(4);
            writer.usize(*available);
            writer.usize(*requested);
        }
        StratRecError::MissingModel { strategy } => {
            writer.u8(5);
            writer.u64(*strategy);
        }
        StratRecError::StaleSubscription { id } => {
            writer.u8(6);
            writer.usize(*id);
        }
        StratRecError::StaleCatalog { expected, found } => {
            writer.u8(7);
            writer.u64(*expected);
            writer.u64(*found);
        }
        StratRecError::WalCorrupt { offset, kind } => {
            writer.u8(8);
            writer.u64(*offset);
            writer.str(kind);
        }
        StratRecError::RecoveryMismatch { epoch, detail } => {
            writer.u8(9);
            writer.u64(*epoch);
            writer.str(detail);
        }
        StratRecError::InvalidFairnessPolicy(message) => {
            writer.u8(10);
            writer.str(message);
        }
        StratRecError::AdmissionRejected {
            queue_depth,
            capacity,
        } => {
            writer.u8(11);
            writer.usize(*queue_depth);
            writer.usize(*capacity);
        }
        StratRecError::DeadlineExceeded {
            remaining_ms,
            estimated_ms,
        } => {
            writer.u8(12);
            writer.u64(*remaining_ms);
            writer.u64(*estimated_ms);
        }
    }
}

fn decode_error(reader: &mut ByteReader<'_>) -> Result<StratRecError, DecodeError> {
    Ok(match reader.u8()? {
        0 => StratRecError::ParameterOutOfRange {
            parameter: reader.str()?,
            value: reader.f64()?,
        },
        1 => StratRecError::InvalidDistribution(reader.str()?),
        2 => StratRecError::ZeroCardinality,
        4 => StratRecError::NotEnoughStrategies {
            available: reader.usize()?,
            requested: reader.usize()?,
        },
        5 => StratRecError::MissingModel {
            strategy: reader.u64()?,
        },
        6 => StratRecError::StaleSubscription {
            id: reader.usize()?,
        },
        7 => StratRecError::StaleCatalog {
            expected: reader.u64()?,
            found: reader.u64()?,
        },
        8 => StratRecError::WalCorrupt {
            offset: reader.u64()?,
            kind: reader.str()?,
        },
        9 => StratRecError::RecoveryMismatch {
            epoch: reader.u64()?,
            detail: reader.str()?,
        },
        10 => StratRecError::InvalidFairnessPolicy(reader.str()?),
        11 => StratRecError::AdmissionRejected {
            queue_depth: reader.usize()?,
            capacity: reader.usize()?,
        },
        12 => StratRecError::DeadlineExceeded {
            remaining_ms: reader.u64()?,
            estimated_ms: reader.u64()?,
        },
        _ => return Err(invalid_tag(reader)),
    })
}

fn encode_report(writer: &mut ByteWriter, report: &StratRecReport) {
    writer.f64(report.availability.value());
    writer.usize(report.batch.satisfied.len());
    for rec in &report.batch.satisfied {
        encode_recommendation(writer, rec);
    }
    encode_usizes(writer, &report.batch.unsatisfied);
    writer.f64(report.batch.objective_value);
    writer.f64(report.batch.workforce_used);
    writer.usize(report.alternatives.len());
    for alternative in &report.alternatives {
        writer.usize(alternative.request_index);
        match &alternative.solution {
            Ok(solution) => {
                writer.bool(true);
                encode_solution(writer, solution);
            }
            Err(error) => {
                writer.bool(false);
                encode_error(writer, error);
            }
        }
    }
}

fn decode_report(reader: &mut ByteReader<'_>) -> Result<StratRecReport, DecodeError> {
    let availability = WorkerAvailability::new(reader.f64()?).map_err(|_| DecodeError {
        at: reader.position(),
        what: "invalid availability value",
    })?;
    let satisfied_len = reader.usize()?;
    let mut satisfied = Vec::with_capacity(satisfied_len.min(1 << 16));
    for _ in 0..satisfied_len {
        satisfied.push(decode_recommendation(reader)?);
    }
    let unsatisfied = decode_usizes(reader)?;
    let objective_value = reader.f64()?;
    let workforce_used = reader.f64()?;
    let alternatives_len = reader.usize()?;
    let mut alternatives = Vec::with_capacity(alternatives_len.min(1 << 16));
    for _ in 0..alternatives_len {
        let request_index = reader.usize()?;
        let solution = if reader.bool()? {
            Ok(decode_solution(reader)?)
        } else {
            Err(decode_error(reader)?)
        };
        alternatives.push(AlternativeRecommendation {
            request_index,
            solution,
        });
    }
    Ok(StratRecReport {
        availability,
        batch: BatchOutcome {
            satisfied,
            unsatisfied,
            objective_value,
            workforce_used,
        },
        alternatives,
    })
}

fn encode_decision(writer: &mut ByteWriter, decision: &DecisionRecord) {
    writer.u64(decision.epoch);
    encode_config(writer, &decision.config);
    writer.f64(decision.availability);
    writer.usize(decision.requests.len());
    for request in &decision.requests {
        encode_request(writer, request);
    }
    encode_report(writer, &decision.report);
}

fn decode_decision(reader: &mut ByteReader<'_>) -> Result<DecisionRecord, DecodeError> {
    let epoch = reader.u64()?;
    let config = decode_config(reader)?;
    let availability = reader.f64()?;
    let requests_len = reader.usize()?;
    let mut requests = Vec::with_capacity(requests_len.min(1 << 16));
    for _ in 0..requests_len {
        requests.push(decode_request(reader)?);
    }
    let report = decode_report(reader)?;
    Ok(DecisionRecord {
        epoch,
        config,
        availability,
        requests,
        report,
    })
}

/// The strategy payload codec, shared with the checkpoint file format so
/// both spell a `Strategy` identically on disk.
pub(crate) mod strategy_codec {
    use super::*;

    pub(crate) fn encode(writer: &mut ByteWriter, strategy: &Strategy) {
        encode_strategy(writer, strategy);
    }

    pub(crate) fn decode(reader: &mut ByteReader<'_>) -> Result<Strategy, DecodeError> {
        decode_strategy(reader)
    }
}

fn invalid_tag(reader: &ByteReader<'_>) -> DecodeError {
    DecodeError {
        at: reader.position().saturating_sub(1),
        what: "invalid enum tag",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratrec_core::availability::AvailabilityPdf;
    use stratrec_core::catalog::{RebuildPolicy, StrategyCatalog};
    use stratrec_core::modeling::ModelLibrary;
    use stratrec_core::stratrec::{ServiceQuality, StratRec};

    fn sample_strategy(id: u64) -> Strategy {
        Strategy::new(
            id,
            Structure::Simultaneous,
            Organization::Collaborative,
            Style::Hybrid,
            DeploymentParameters::clamped(0.82, 0.31, 0.4),
        )
    }

    #[test]
    fn mutation_records_round_trip() {
        let records = vec![
            WalRecord::Insert {
                slot: 4,
                strategy: sample_strategy(77),
                epoch_after: 12,
            },
            WalRecord::Retire {
                slot: 2,
                epoch_after: 13,
            },
            WalRecord::Compact {
                source_epoch: 13,
                target_epoch: 14,
                live_len: 3,
                forward: vec![Some(0), None, Some(1), None, Some(2)],
            },
        ];
        for record in records {
            let payload = record.encode();
            assert_eq!(WalRecord::decode(&payload).unwrap(), record);
        }
    }

    #[test]
    fn journaled_mutations_convert_and_replay_shapes_agree() {
        let mut catalog = StrategyCatalog::with_policy(
            stratrec_core::examples_data::running_example_strategies(),
            RebuildPolicy::threshold(2),
        );
        catalog.enable_journal();
        catalog.insert(sample_strategy(50));
        catalog.retire(0);
        catalog.compact();
        let records: Vec<WalRecord> = catalog
            .take_journal()
            .iter()
            .map(WalRecord::from_mutation)
            .collect();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].epoch_after(), Some(1));
        assert_eq!(records[1].epoch_after(), Some(2));
        assert_eq!(records[2].epoch_after(), Some(3));
        for record in &records {
            let payload = record.encode();
            assert_eq!(&WalRecord::decode(&payload).unwrap(), record);
        }
    }

    /// A real end-to-end report (satisfied + ADPaR alternatives) round-trips
    /// byte-identically: decode(encode(x)) == x AND encode(decode(bytes)) ==
    /// bytes — the exactness provenance reenactment leans on.
    #[test]
    fn decision_records_round_trip_byte_identically() {
        let strategies = stratrec_core::examples_data::running_example_strategies();
        let requests = stratrec_core::examples_data::running_example_requests();
        let catalog = StrategyCatalog::with_policy(strategies, RebuildPolicy::threshold(4));
        let models = ModelLibrary::uniform_for(
            catalog.strategies(),
            stratrec_core::modeling::StrategyModel::uniform(0.1, 0.85),
        );
        let availability = AvailabilityPdf::certain(0.8);
        let layer = StratRec::new(StratRecConfig::default());
        let report = layer
            .process_batch_with_catalog_at(
                &requests,
                &catalog,
                &models,
                &availability,
                ServiceQuality::Full,
            )
            .unwrap();
        assert!(
            !report.alternatives.is_empty(),
            "the running example exercises the ADPaR branch"
        );

        let decision = DecisionRecord {
            epoch: 0,
            config: StratRecConfig::default(),
            availability: availability.expectation().value(),
            requests,
            report,
        };
        let record = WalRecord::Decision(decision);
        let payload = record.encode();
        let decoded = WalRecord::decode(&payload).unwrap();
        assert_eq!(decoded, record);
        assert_eq!(decoded.encode(), payload, "re-encoding is byte-identical");
    }

    /// The streaming tier's shed errors must survive the WAL error codec:
    /// a provenance log written during an overload window still reenacts.
    #[test]
    fn serving_shed_errors_round_trip_through_the_error_codec() {
        let errors = [
            StratRecError::AdmissionRejected {
                queue_depth: 96,
                capacity: 64,
            },
            StratRecError::DeadlineExceeded {
                remaining_ms: 4,
                estimated_ms: 12,
            },
        ];
        for error in errors {
            let mut writer = ByteWriter::new();
            encode_error(&mut writer, &error);
            let bytes = writer.into_bytes();
            let mut reader = ByteReader::new(&bytes);
            assert_eq!(decode_error(&mut reader).unwrap(), error);
        }
    }

    #[test]
    fn the_unassigned_error_tag_is_refused() {
        let mut reader = ByteReader::new(&[3]);
        let error = decode_error(&mut reader).unwrap_err();
        assert_eq!(error.what, "invalid enum tag");
        assert_eq!(error.at, 0);
    }

    #[test]
    fn corrupt_payloads_decode_to_typed_failures() {
        let payload = WalRecord::Retire {
            slot: 1,
            epoch_after: 9,
        }
        .encode();
        assert_eq!(
            WalRecord::decode(&payload[..payload.len() - 1])
                .unwrap_err()
                .what,
            "payload truncated"
        );
        let mut unknown = payload.clone();
        unknown[0] = 250;
        assert_eq!(
            WalRecord::decode(&unknown).unwrap_err().what,
            "unknown record tag"
        );
        let mut trailing = payload;
        trailing.push(0);
        assert_eq!(
            WalRecord::decode(&trailing).unwrap_err().what,
            "trailing bytes after payload"
        );
    }
}
