//! Request and response envelopes of the streaming front-end.
//!
//! A [`StreamRequest`] is a deployment request plus the two pieces of
//! context the service tier needs: the **tenant** issuing it (an echoed
//! tag for per-tenant accounting) and a **deadline** — the latency budget
//! measured from submission. The matching [`StreamResponse`] carries exactly
//! one typed [`StreamOutcome`]; the server's core invariant is that every
//! submitted request produces exactly one response, whatever happens.

use std::time::Duration;

use stratrec_core::prelude::{
    AlternativeRecommendation, Recommendation, ServiceQuality, StratRecError,
};

use stratrec_core::model::DeploymentRequest;

/// One request submitted to the streaming front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRequest {
    /// Caller-chosen identifier; echoed verbatim in the response. The
    /// server never interprets it beyond the echo, so callers own
    /// uniqueness (the open-loop generator uses the arrival sequence
    /// number).
    pub id: u64,
    /// The tenant issuing the request.
    pub tenant: usize,
    /// Latency budget measured from submission: if the request cannot be
    /// served within this budget it is shed with a typed
    /// [`StratRecError::DeadlineExceeded`] instead of being served late.
    pub deadline: Duration,
    /// The deployment request to plan.
    pub request: DeploymentRequest,
}

/// What the pipeline answered for one served request: either `k` direct
/// strategy recommendations from the Aggregator, or the exact ADPaR
/// alternative for an unsatisfied request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedAnswer {
    /// The request was satisfied: `k` recommended strategies under the
    /// availability budget.
    Recommended(Recommendation),
    /// The request was unsatisfied and went to exact ADPaR.
    Alternative(AlternativeRecommendation),
}

/// The single typed outcome of one submitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// The request was served from the pinned snapshot of `epoch`.
    Served {
        /// Always [`ServiceQuality::Full`]: the server has one quality.
        /// Kept only because the end-to-end benchmark reads it.
        quality: ServiceQuality,
        /// Epoch of the catalog snapshot the answer was planned against.
        epoch: u64,
        /// The per-request answer.
        answer: ServedAnswer,
    },
    /// The request was shed before serving:
    /// [`StratRecError::AdmissionRejected`] (queue at capacity) or
    /// [`StratRecError::DeadlineExceeded`] (budget unmeetable).
    Shed(StratRecError),
    /// The serving pipeline itself failed for the request's window (e.g. a
    /// churned-in strategy without a fitted model). Still a typed response
    /// — the request is not lost — but the answer is an error rather than
    /// a recommendation.
    Failed(StratRecError),
}

impl StreamOutcome {
    /// Whether the outcome is a served answer.
    #[must_use]
    pub fn is_served(&self) -> bool {
        matches!(self, Self::Served { .. })
    }

    /// Whether the outcome is a typed shed.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(self, Self::Shed(_))
    }
}

/// The response delivered for one [`StreamRequest`] — exactly one per
/// submitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResponse {
    /// The request's caller-chosen id, echoed.
    pub id: u64,
    /// The request's tenant, echoed.
    pub tenant: usize,
    /// Sequence number of the admission window that resolved the request
    /// (shed responses carry the window open at shed time).
    pub window: u64,
    /// Submission-to-response latency as observed by the server.
    pub latency: Duration,
    /// The one typed outcome.
    pub outcome: StreamOutcome,
}
