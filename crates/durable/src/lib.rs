//! # Durable catalog tier: write-ahead log, crash recovery, provenance
//!
//! Everything upstream of this crate keeps the strategy catalog in memory:
//! a crash loses the churn history and — worse for a marketplace — the
//! record of *which strategies were recommended to whom*. This crate adds
//! the persistence layer a production StratRec deployment needs, as a shell
//! around the in-memory
//! [`ConcurrentCatalog`](stratrec_core::catalog::ConcurrentCatalog) rather
//! than a rewrite of it:
//!
//! * [`wal`] — an append-only, length-prefixed, checksummed **write-ahead
//!   log** of catalog mutations (insert / retire / compact, mirroring
//!   [`CatalogMutation`](stratrec_core::catalog::CatalogMutation)) and of
//!   **deployment decisions** (epoch, requests, chosen strategy slots — the
//!   shape a `deployments` audit table has in MLOps systems).
//! * [`store`] — [`DurableCatalog`], the logged publication cell: every
//!   [`DurableCatalog::update`] appends the epoch's mutations to the WAL
//!   **before** the new snapshot becomes visible to any reader
//!   (log-before-publish, via
//!   [`ConcurrentCatalog::update_logged`](stratrec_core::catalog::ConcurrentCatalog::update_logged)),
//!   and fail-stops on a logging error instead of serving state that could
//!   not be made durable.
//! * [`checkpoint`] — periodic compacted snapshots of the catalog, written
//!   tmp-then-rename, bounding recovery cost by churn-since-checkpoint
//!   instead of total history. The WAL itself is never truncated: the full
//!   log *is* the provenance record.
//! * [`recovery`] — crash recovery: pick the newest readable checkpoint,
//!   replay the log suffix through the same public mutation API the live
//!   system uses, stop at the first invalid frame (torn write, checksum
//!   mismatch, out-of-sequence record) with a typed
//!   [`StratRecError::WalCorrupt`] naming the byte offset, and recover the
//!   last valid prefix.
//! * [`provenance`] — reenactment: rebuild the catalog pinned at the epoch
//!   a logged decision was served from and re-run the very same solve;
//!   [`Provenance::verify_decision`] proves the recovered state reproduces
//!   the logged recommendation **byte-identically**.
//!
//! The build environment is offline, so the on-disk format is hand-rolled:
//! a little-endian binary codec ([`codec`]) and a table-driven CRC-32
//! ([`crc`]) — no serde data formats, no external checksum crates.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod provenance;
pub mod record;
pub mod recovery;
pub mod store;
pub mod testutil;
pub mod wal;

use stratrec_core::error::StratRecError;

pub use checkpoint::{Checkpoint, CheckpointPolicy};
pub use provenance::Provenance;
pub use record::{DecisionRecord, WalRecord};
pub use recovery::{RecoveredState, RecoveryReport};
pub use store::{DurableCatalog, DurableOptions, Recovered};
pub use wal::{WalScan, WalWriter};

/// Errors of the durable tier. Wraps the I/O layer and the core catalog
/// errors behind one type whose [`std::error::Error::source`] chain keeps
/// the underlying cause reachable.
#[derive(Debug)]
pub enum DurableError {
    /// An operating-system I/O operation failed. `context` says which one
    /// (file and operation); the source chain carries the [`std::io::Error`].
    Io {
        /// What was being done when the error hit (e.g.
        /// `"append to wal.log"`).
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The log or a checkpoint failed validation
    /// ([`StratRecError::WalCorrupt`]) or replay contradicted the log
    /// ([`StratRecError::RecoveryMismatch`]); the core error is the source.
    Corrupt(StratRecError),
    /// A WAL record encoded to more bytes than one frame may hold. The
    /// append wrote nothing, so the log is unchanged.
    RecordTooLarge {
        /// The encoded payload length in bytes.
        len: usize,
        /// The largest payload a frame may hold.
        max: usize,
    },
    /// A previous WAL append failed, so the in-memory catalog may be ahead
    /// of the durable state. The [`DurableCatalog`] fail-stops: every
    /// subsequent mutation is refused until the operator recovers from the
    /// log ([`DurableCatalog::recover`]).
    Poisoned,
}

impl DurableError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io {
            context: context.into(),
            source,
        }
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { context, .. } => write!(f, "durable catalog I/O failure: {context}"),
            Self::Corrupt(_) => write!(f, "durable catalog log failed validation"),
            Self::RecordTooLarge { len, max } => write!(
                f,
                "write-ahead-log record of {len} bytes exceeds the {max}-byte frame limit"
            ),
            Self::Poisoned => write!(
                f,
                "durable catalog is poisoned by an earlier write-ahead-log failure; \
                 recover from the log before mutating again"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Corrupt(source) => Some(source),
            Self::RecordTooLarge { .. } | Self::Poisoned => None,
        }
    }
}

impl From<StratRecError> for DurableError {
    fn from(error: StratRecError) -> Self {
        Self::Corrupt(error)
    }
}

/// Convenience alias for results of the durable tier.
pub type Result<T, E = DurableError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn error_sources_chain_to_the_underlying_cause() {
        let io = DurableError::io("append to wal.log", std::io::Error::other("disk full"));
        assert!(format!("{io}").contains("wal.log"));
        let source = io.source().expect("io errors carry their cause");
        assert!(format!("{source}").contains("disk full"));

        let corrupt = DurableError::from(StratRecError::WalCorrupt {
            offset: 42,
            kind: "checksum mismatch".into(),
        });
        let source = corrupt.source().expect("corruption carries the core error");
        assert!(
            format!("{source}").contains("offset 42"),
            "the source names the byte offset"
        );
        assert!(
            source.downcast_ref::<StratRecError>().is_some(),
            "the chained source is the typed core error"
        );

        assert!(DurableError::Poisoned.source().is_none());
        assert!(format!("{}", DurableError::Poisoned).contains("poisoned"));
    }
}
