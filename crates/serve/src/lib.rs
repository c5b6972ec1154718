//! # StratRec streaming front-end
//!
//! The batch pipeline of `stratrec-core` answers pre-assembled batches; this
//! crate turns it into a long-running **service**. Requests arrive on an
//! MPSC queue tagged with tenant and deadline, a work-conserving
//! **admission queue** hands the service thread up to `max_batch` of the
//! pending requests as one window the moment the thread is free, and the
//! thread serves each window cold — the sequential
//! pipeline, `StratRec::process_batch_with_catalog_at` — on the latest
//! snapshot pinned from the live
//! [`ConcurrentCatalog`](stratrec_core::catalog::ConcurrentCatalog) while a
//! churn writer keeps publishing epochs. Every served answer is thereby
//! exactly the sequential answer on the epoch it is tagged with.
//!
//! Robustness is the headline, built on two rules:
//!
//! 1. **Never a silent drop.** Every submitted request receives exactly one
//!    typed [`StreamResponse`]: served, shed
//!    ([`AdmissionRejected`](stratrec_core::error::StratRecError::AdmissionRejected)
//!    when the queue is at capacity,
//!    [`DeadlineExceeded`](stratrec_core::error::StratRecError::DeadlineExceeded)
//!    when the latency budget cannot be met), or — should the pipeline
//!    itself fail — a typed failure.
//! 2. **One serving quality; overload cuts work, not answers.** Every
//!    window is served by exact ADPaR. Two controls bound the work under
//!    overload: the **admission cap** refuses arrivals beyond the queue
//!    capacity, and the **deadline shed** drops queued requests whose
//!    remaining budget is below the running service-time estimate. Both
//!    answer with typed sheds, so the backlog and the served tail stay
//!    bounded.
//!
//! The thin daemon binary `stratrec-served` wraps the server in a
//! self-checking overload soak (open-loop arrivals at a multiple of the
//! measured sustainable throughput) for CI.

#![forbid(unsafe_code)]

pub mod admission;
pub mod request;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionWindow, QueuedRequest};
pub use request::{ServedAnswer, StreamOutcome, StreamRequest, StreamResponse};
pub use server::{ServeConfig, ServerHandle, ServerStats, StreamServer, WindowRecord};
