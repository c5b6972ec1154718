//! Error types of the StratRec core library.

use serde::{Deserialize, Serialize};

/// Errors produced while building StratRec inputs or running its algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StratRecError {
    /// A deployment parameter was outside the normalized `[0, 1]` range or
    /// not finite.
    ParameterOutOfRange {
        /// Name of the offending parameter (`"quality"`, `"cost"`,
        /// `"latency"` or `"availability"`).
        parameter: String,
        /// The offending value.
        value: f64,
    },
    /// A probability distribution over worker availability was invalid.
    InvalidDistribution(String),
    /// A [`crate::fairness::FairnessPolicy`] was malformed: a floor or
    /// weight was negative or non-finite, the floors summed past the whole
    /// budget, or the policy named no tenants.
    InvalidFairnessPolicy(String),
    /// The cardinality constraint `k` was zero.
    ZeroCardinality,
    /// Fewer strategies exist than the requested cardinality `k`, so no
    /// relaxation of the deployment parameters can ever admit `k` strategies.
    NotEnoughStrategies {
        /// Number of strategies available.
        available: usize,
        /// Cardinality requested.
        requested: usize,
    },
    /// The requested operation needs a fitted model that is missing from the
    /// model library.
    MissingModel {
        /// Identifier of the strategy whose model is missing.
        strategy: u64,
    },
    /// A [`crate::catalog::DeltaSubscription`] handle no longer names a live
    /// tracker on this catalog: it was released by
    /// [`crate::catalog::StrategyCatalog::unsubscribe_delta`], evicted after
    /// lapsing past the catalog's
    /// [`delta_lapse_limit`](crate::catalog::StrategyCatalog::delta_lapse_limit),
    /// or issued by a different catalog. Handles are generation-tagged, so a
    /// stale copy can never silently drain a newer subscriber that recycled
    /// the same id — the drain fails with this error instead. Recover by
    /// re-subscribing and recomputing the derived state from scratch.
    StaleSubscription {
        /// The id carried by the rejected handle.
        id: usize,
    },
    /// Derived data was pinned at a catalog epoch the catalog has moved past
    /// (an insert, retire or compaction happened since): its slot references
    /// may be renumbered or reclaimed, so the operation refuses to run
    /// instead of silently using stale slots. Re-derive against the current
    /// catalog, or — after a compaction — renumber through the returned
    /// [`crate::catalog::SlotRemap`].
    StaleCatalog {
        /// The catalog epoch the derived data was captured at.
        expected: u64,
        /// The catalog's current epoch.
        found: u64,
    },
    /// A write-ahead-log record failed validation during recovery: the frame
    /// was torn (truncated mid-record), its checksum did not match the
    /// payload, the payload did not decode, or the record was out of
    /// sequence with the state being rebuilt (e.g. a duplicated tail
    /// record). Recovery stops at the last valid prefix — everything before
    /// `offset` is intact and has been applied — and surfaces this error so
    /// the operator knows exactly where the log went bad.
    WalCorrupt {
        /// Byte offset (from the start of the log file) of the first
        /// invalid record frame.
        offset: u64,
        /// What failed at that offset (`"torn record"`,
        /// `"checksum mismatch"`, `"bad magic"`, `"epoch out of sequence"`,
        /// ...).
        kind: String,
    },
    /// Replaying the write-ahead log produced a catalog state that
    /// contradicts what the log itself recorded (a replayed insert landed on
    /// a different slot, a compaction produced a different remap, a reenacted
    /// decision differs from the logged one). The log is internally
    /// inconsistent or was produced by an incompatible build — recovery
    /// refuses to continue past the contradiction.
    RecoveryMismatch {
        /// Catalog epoch at which the replay diverged from the log.
        epoch: u64,
        /// What diverged.
        detail: String,
    },
    /// The streaming front-end refused to admit a request: the service queue
    /// already holds `queue_depth` pending requests against a capacity of
    /// `capacity`, so enqueueing more would grow a backlog the deadline shed
    /// can only drop later anyway. The request was never queued;
    /// resubmit after backing off. Always delivered as a typed response —
    /// the front-end never drops a request silently.
    AdmissionRejected {
        /// Pending requests in the service queue at rejection time.
        queue_depth: usize,
        /// The configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// A request's latency budget cannot be met: the time remaining before
    /// its deadline is smaller than the service time the front-end currently
    /// estimates (or the deadline has already passed while the request
    /// queued), so it was shed instead of being served late. Always
    /// delivered as a typed response — never a silent drop.
    DeadlineExceeded {
        /// Remaining latency budget when the shed decision was made, in
        /// milliseconds (`0` when the deadline had already passed).
        remaining_ms: u64,
        /// The service time the front-end estimated it would need, in
        /// milliseconds.
        estimated_ms: u64,
    },
}

impl std::fmt::Display for StratRecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParameterOutOfRange { parameter, value } => {
                write!(
                    f,
                    "{parameter} = {value} is outside the normalized [0, 1] range"
                )
            }
            Self::InvalidDistribution(msg) => write!(f, "invalid availability distribution: {msg}"),
            Self::InvalidFairnessPolicy(msg) => write!(f, "invalid fairness policy: {msg}"),
            Self::ZeroCardinality => write!(f, "cardinality constraint k must be at least 1"),
            Self::NotEnoughStrategies {
                available,
                requested,
            } => write!(
                f,
                "only {available} strategies exist but {requested} were requested"
            ),
            Self::MissingModel { strategy } => {
                write!(f, "no fitted model for strategy {strategy}")
            }
            Self::StaleSubscription { id } => write!(
                f,
                "delta subscription {id} is not registered with this catalog \
                 (released, evicted after lapsing, or issued elsewhere); \
                 re-subscribe and recompute the derived state"
            ),
            Self::StaleCatalog { expected, found } => write!(
                f,
                "catalog moved to epoch {found} but the problem was built at epoch {expected}; \
                 rebuild it (or remap through the compaction's SlotRemap)"
            ),
            Self::WalCorrupt { offset, kind } => write!(
                f,
                "write-ahead log corrupt at byte offset {offset}: {kind}; \
                 recovery stops at the last valid prefix"
            ),
            Self::RecoveryMismatch { epoch, detail } => write!(
                f,
                "log replay diverged from the recorded state at epoch {epoch}: {detail}"
            ),
            Self::AdmissionRejected {
                queue_depth,
                capacity,
            } => write!(
                f,
                "admission rejected: the service queue holds {queue_depth} requests \
                 against a capacity of {capacity}; back off and resubmit"
            ),
            Self::DeadlineExceeded {
                remaining_ms,
                estimated_ms,
            } => write!(
                f,
                "deadline exceeded: {remaining_ms} ms of budget remain but the \
                 estimated service time is {estimated_ms} ms; the request was shed \
                 rather than served late"
            ),
        }
    }
}

impl std::error::Error for StratRecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(StratRecError, &str)> = vec![
            (
                StratRecError::ParameterOutOfRange {
                    parameter: "quality".into(),
                    value: 1.5,
                },
                "quality",
            ),
            (
                StratRecError::InvalidDistribution("does not sum to 1".into()),
                "distribution",
            ),
            (
                StratRecError::InvalidFairnessPolicy("floors sum to 1.2".into()),
                "fairness",
            ),
            (StratRecError::ZeroCardinality, "cardinality"),
            (
                StratRecError::NotEnoughStrategies {
                    available: 2,
                    requested: 5,
                },
                "2 strategies",
            ),
            (StratRecError::MissingModel { strategy: 7 }, "strategy 7"),
            (StratRecError::StaleSubscription { id: 4 }, "subscription 4"),
            (
                StratRecError::StaleCatalog {
                    expected: 3,
                    found: 5,
                },
                "epoch 5",
            ),
            (
                StratRecError::WalCorrupt {
                    offset: 1337,
                    kind: "checksum mismatch".into(),
                },
                "offset 1337",
            ),
            (
                StratRecError::WalCorrupt {
                    offset: 8,
                    kind: "torn record".into(),
                },
                "torn record",
            ),
            (
                StratRecError::RecoveryMismatch {
                    epoch: 12,
                    detail: "insert landed on slot 4, log says 3".into(),
                },
                "epoch 12",
            ),
            (
                StratRecError::AdmissionRejected {
                    queue_depth: 128,
                    capacity: 64,
                },
                "capacity of 64",
            ),
            (
                StratRecError::AdmissionRejected {
                    queue_depth: 128,
                    capacity: 64,
                },
                "128 requests",
            ),
            (
                StratRecError::DeadlineExceeded {
                    remaining_ms: 3,
                    estimated_ms: 40,
                },
                "40 ms",
            ),
            (
                StratRecError::DeadlineExceeded {
                    remaining_ms: 3,
                    estimated_ms: 40,
                },
                "shed",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                format!("{err}").contains(needle),
                "message for {err:?} should mention {needle}"
            );
        }
    }

    /// Compile-time-exhaustive variant census: adding a variant breaks this
    /// match, which forces the display audit above to grow with it.
    fn variant_tag(err: &StratRecError) -> &'static str {
        match err {
            StratRecError::ParameterOutOfRange { .. } => "ParameterOutOfRange",
            StratRecError::InvalidDistribution(_) => "InvalidDistribution",
            StratRecError::InvalidFairnessPolicy(_) => "InvalidFairnessPolicy",
            StratRecError::ZeroCardinality => "ZeroCardinality",
            StratRecError::NotEnoughStrategies { .. } => "NotEnoughStrategies",
            StratRecError::MissingModel { .. } => "MissingModel",
            StratRecError::StaleSubscription { .. } => "StaleSubscription",
            StratRecError::StaleCatalog { .. } => "StaleCatalog",
            StratRecError::WalCorrupt { .. } => "WalCorrupt",
            StratRecError::RecoveryMismatch { .. } => "RecoveryMismatch",
            StratRecError::AdmissionRejected { .. } => "AdmissionRejected",
            StratRecError::DeadlineExceeded { .. } => "DeadlineExceeded",
        }
    }

    #[test]
    fn the_display_audit_covers_every_variant() {
        let audited: std::collections::BTreeSet<&str> = [
            StratRecError::ParameterOutOfRange {
                parameter: "quality".into(),
                value: 1.5,
            },
            StratRecError::InvalidDistribution(String::new()),
            StratRecError::InvalidFairnessPolicy(String::new()),
            StratRecError::ZeroCardinality,
            StratRecError::NotEnoughStrategies {
                available: 2,
                requested: 5,
            },
            StratRecError::MissingModel { strategy: 7 },
            StratRecError::StaleSubscription { id: 4 },
            StratRecError::StaleCatalog {
                expected: 3,
                found: 5,
            },
            StratRecError::WalCorrupt {
                offset: 0,
                kind: String::new(),
            },
            StratRecError::RecoveryMismatch {
                epoch: 0,
                detail: String::new(),
            },
            StratRecError::AdmissionRejected {
                queue_depth: 0,
                capacity: 0,
            },
            StratRecError::DeadlineExceeded {
                remaining_ms: 0,
                estimated_ms: 0,
            },
        ]
        .iter()
        .map(variant_tag)
        .collect();
        assert_eq!(audited.len(), 12, "one sample per variant, no duplicates");
    }

    #[test]
    fn errors_are_std_error_trait_objects() {
        // Leaf errors: no deeper cause, and the Display text survives the
        // `dyn Error` indirection (the durable tier chains onto this via
        // `DurableError::source`).
        let err: Box<dyn std::error::Error> = Box::new(StratRecError::WalCorrupt {
            offset: 9,
            kind: "torn record".into(),
        });
        assert!(err.source().is_none());
        assert!(err.to_string().contains("offset 9"));
        // The streaming shed responses are leaves too: callers chaining them
        // into service-level errors own the chain, the variants themselves
        // terminate it, and their Display text survives the indirection.
        let shed: Box<dyn std::error::Error> = Box::new(StratRecError::AdmissionRejected {
            queue_depth: 12,
            capacity: 8,
        });
        assert!(shed.source().is_none());
        assert!(shed.to_string().contains("capacity of 8"));
        let late: Box<dyn std::error::Error> = Box::new(StratRecError::DeadlineExceeded {
            remaining_ms: 1,
            estimated_ms: 17,
        });
        assert!(late.source().is_none());
        assert!(late.to_string().contains("17 ms"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let a = StratRecError::ZeroCardinality;
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, StratRecError::StaleSubscription { id: 0 });
    }
}
