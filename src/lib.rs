//! Umbrella crate for the StratRec system.
//!
//! StratRec is a reproduction of *"Recommending Deployment Strategies for
//! Collaborative Tasks"* (SIGMOD 2020). It recommends crowdsourcing
//! deployment strategies — combinations of *Structure* (sequential vs
//! simultaneous), *Organization* (independent vs collaborative) and *Style*
//! (crowd-only vs hybrid) — that satisfy a requester's quality, cost and
//! latency thresholds given the platform's worker availability.
//!
//! This crate simply re-exports the workspace members under stable paths so
//! downstream users can depend on a single crate:
//!
//! * [`core`] — data model, `BatchStrat`, `ADPaR-Exact` and all baselines.
//! * [`geometry`] — 3-D points, boxes, sweep-line events, an R-tree.
//! * [`optim`] — knapsack solvers, top-k selection, regression, statistics.
//! * [`platform`] — a crowdsourcing-platform simulator standing in for AMT.
//! * [`workload`] — synthetic workload generators used by the experiments.
//! * [`durable`] — write-ahead-logged catalog tier: crash recovery and
//!   deployment-decision provenance.
//! * [`serve`] — streaming front-end: admission windows, the admission cap
//!   and deadline shedding under overload.
//!
//! # Quick example
//!
//! ```
//! use stratrec::core::prelude::*;
//!
//! // The paper's running example (Table 1): three requests, four strategies.
//! let strategies = stratrec::core::examples_data::running_example_strategies();
//! let requests = stratrec::core::examples_data::running_example_requests();
//!
//! let engine = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max);
//! let outcome = engine.recommend(&requests, &strategies, 3, WorkerAvailability::new(0.8).unwrap());
//! assert_eq!(outcome.satisfied.len() + outcome.unsatisfied.len(), requests.len());
//! ```

pub use stratrec_core as core;
pub use stratrec_durable as durable;
pub use stratrec_geometry as geometry;
pub use stratrec_optim as optim;
pub use stratrec_platform as platform;
pub use stratrec_serve as serve;
pub use stratrec_workload as workload;
