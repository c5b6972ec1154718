//! # StratRec core library
//!
//! Reproduction of *"Recommending Deployment Strategies for Collaborative
//! Tasks"* (Wei, Basu Roy, Amer-Yahia — SIGMOD 2020). StratRec is an
//! optimization-driven middle layer between task requesters, crowd workers
//! and a crowdsourcing platform:
//!
//! * A requester submits a **deployment request** with a quality lower bound
//!   and cost / latency upper bounds ([`model::DeploymentRequest`]).
//! * The platform exposes a set of **deployment strategies** — combinations
//!   of *Structure* (sequential / simultaneous), *Organization* (independent
//!   / collaborative) and *Style* (crowd-only / hybrid) — each with estimated
//!   quality, cost and latency ([`model::Strategy`]).
//! * The **Aggregator** ([`batch::BatchStrat`]) triages a batch of requests
//!   against the expected **worker availability**
//!   ([`availability::WorkerAvailability`]), recommending `k` strategies per
//!   satisfied request while maximizing platform throughput (exactly) or
//!   pay-off (½-approximation).
//! * Requests that cannot be satisfied are forwarded to **ADPaR**
//!   ([`adpar`]), which computes the closest alternative deployment
//!   parameters for which `k` strategies exist (exactly, by a sweep-line
//!   algorithm), together with the baselines the paper compares against.
//! * [`stratrec::StratRec`] wires the two modules into the middle layer of
//!   the paper's Figure 1.
//!
//! The crate is deterministic and dependency-light; simulation of the
//! crowdsourcing platform itself (workers, HITs, collaboration) lives in
//! `stratrec-platform`, and synthetic workload generation in
//! `stratrec-workload`.
//!
//! ## Quick start
//!
//! ```
//! use stratrec_core::prelude::*;
//!
//! // The paper's running example (Table 1): 3 requests, 4 strategies, k = 3.
//! let strategies = stratrec_core::examples_data::running_example_strategies();
//! let requests = stratrec_core::examples_data::running_example_requests();
//! let availability = WorkerAvailability::new(0.8).unwrap();
//!
//! let engine = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max);
//! let outcome = engine.recommend(&requests, &strategies, 3, availability);
//!
//! // Only d3 can be fully served; d1 and d2 go to ADPaR.
//! assert_eq!(outcome.satisfied.len(), 1);
//! let adpar = AdparExact::default();
//! for &idx in &outcome.unsatisfied {
//!     let solution = adpar
//!         .solve(&AdparProblem::new(&requests[idx], &strategies, 3))
//!         .expect("k strategies exist after relaxation");
//!     assert!(solution.strategy_indices.len() >= 3);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod adpar;
pub mod availability;
pub mod batch;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod examples_data;
pub mod fairness;
pub mod model;
pub mod modeling;
pub mod stratrec;
pub mod workforce;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::adpar::{
        AdparBaseline2, AdparBaseline3, AdparBruteForce, AdparExact, AdparProblem, AdparSolution,
        AdparSolver, SolveScratch,
    };
    pub use crate::availability::{AvailabilityPdf, WorkerAvailability};
    pub use crate::batch::{
        BatchAlgorithm, BatchObjective, BatchOutcome, BatchStrat, Recommendation,
    };
    pub use crate::catalog::{
        CatalogDelta, CatalogMutation, CatalogStats, ConcurrentCatalog, DeltaSubscription,
        EpochSnapshot, RebuildPolicy, SlotRemap, SnapshotReader, StrategyCatalog,
    };
    pub use crate::engine::BatchEngine;
    pub use crate::error::StratRecError;
    pub use crate::fairness::{FairnessPolicy, TenantShare};
    pub use crate::model::{
        DeploymentParameters, DeploymentRequest, Organization, RequestId, Strategy, StrategyId,
        Structure, Style, TaskType,
    };
    pub use crate::modeling::{LinearModel, ModelLibrary, ParameterKind, StrategyModel};
    pub use crate::stratrec::{
        AlternativeRecommendation, ServiceQuality, StratRec, StratRecConfig, StratRecReport,
        TenantOutcome,
    };
    pub use crate::workforce::{
        AggregationCache, AggregationMode, EligibilityRule, RequestRequirement, WorkforceMatrix,
    };
}
