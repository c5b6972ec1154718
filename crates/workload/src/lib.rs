//! # Synthetic workload generators
//!
//! Reproduces the synthetic-data setup of the paper's §5.2:
//!
//! * **Strategy generation** — strategy parameter triples drawn either
//!   uniformly from `[0.5, 1]` or from a normal distribution with mean 0.75
//!   and standard deviation 0.1 ([`strategy_gen`]).
//! * **Worker-availability models** — one `(α, β)` pair per strategy with
//!   `α ∈ [0.5, 1]` uniform and `β = 1 − α`, so the estimated availability
//!   requirement stays within `[0, 1]` ([`model_gen`]).
//! * **Deployment requests** — parameter triples drawn from `[0.625, 1]`
//!   ([`request_gen`]).
//! * **Experiment scenarios** — the default parameter grids of Figures 14–18
//!   (`|S| = 10 000`, `m = 10`, `k = 10`, `W = 0.5`, and the reduced
//!   brute-force grids) ([`scenario`]).
//! * **Churn scenarios** — epoch streams interleaving deployment batches
//!   with strategy insert/retire, driving the mutable catalog's
//!   log-structured overlay against the rebuild-per-epoch baseline
//!   ([`churn`]).
//! * **Churn-vs-serve stress histories** — the same epoch streams driven
//!   through the concurrent snapshot catalog: one writer thread publishing
//!   epochs while reader threads serve lock-free, with every read recorded
//!   for after-the-fact snapshot-isolation checking ([`stress`]).
//! * **Open-loop streams** — seeded Poisson arrival schedules with burst
//!   phases and every arrival tagged with a tenant drawn from a Zipf mix
//!   with an optional flooding heavy tenant, for driving the streaming
//!   front-end past saturation ([`openloop`]).

#![forbid(unsafe_code)]

pub mod churn;
pub mod model_gen;
pub mod openloop;
pub mod request_gen;
pub mod scenario;
pub mod strategy_gen;
pub mod stress;

pub use churn::{ChurnEpoch, ChurnInstance, ChurnScenario};
pub use model_gen::generate_models;
pub use openloop::{schedule_fingerprint, Arrival, BurstPhase, OpenLoopScenario};
pub use request_gen::generate_requests;
pub use scenario::{AdparScenario, BatchScenario, ParameterDistribution};
pub use strategy_gen::generate_strategies;
pub use stress::{run_churn_stress, ReadRecord, StressHistory};
