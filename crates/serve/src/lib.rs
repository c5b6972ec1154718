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
//! Robustness is the headline, built on three rules:
//!
//! 1. **Never a silent drop.** Every submitted request receives exactly one
//!    typed [`StreamResponse`]: served (full or degraded), shed
//!    ([`AdmissionRejected`](stratrec_core::error::StratRecError::AdmissionRejected)
//!    when the queue is at capacity,
//!    [`DeadlineExceeded`](stratrec_core::error::StratRecError::DeadlineExceeded)
//!    when the latency budget cannot be met), or — should the pipeline
//!    itself fail — a typed failure.
//! 2. **Degrade before collapsing.** When the queue crosses the degrade
//!    watermark, the [`BackpressureController`] switches the ADPaR stage to
//!    the cheap `Baseline2` solver. Responses carry
//!    [`ServiceQuality::Degraded`](stratrec_core::prelude::ServiceQuality)
//!    and the answers are bit-identical to `Baseline2` on the same pinned
//!    snapshot — reenactable after the fact from the window trace.
//! 3. **Recover with hysteresis.** Full quality returns only after the
//!    queue has stayed at or below the recover watermark for a configured
//!    number of consecutive windows, so the controller cannot flap at the
//!    boundary.
//!
//! The thin daemon binary `stratrec-served` wraps the server in a
//! self-checking overload soak (open-loop arrivals at a multiple of the
//! measured sustainable throughput) for CI.

#![forbid(unsafe_code)]

pub mod admission;
pub mod controller;
pub mod request;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionWindow, QueuedRequest};
pub use controller::{BackpressureController, ControllerConfig};
pub use request::{ServedAnswer, StreamOutcome, StreamRequest, StreamResponse};
pub use server::{ServeConfig, ServerHandle, ServerStats, StreamServer, WindowRecord};
