//! The admission queue: batching, capacity control and deadline shedding.
//!
//! The queue is **work-conserving**: the service loop takes a window the
//! moment it is free and anything is pending, and never waits for more
//! arrivals. A window is the oldest pending requests, up to
//! [`AdmissionConfig::max_batch`] of them. Under light load a window holds
//! the one request that just arrived. Under load the backlog that builds
//! while a window is served becomes the next window, so batching still
//! amortizes the per-window pipeline cost (snapshot pin, engine fan-out,
//! selection) exactly when there is a backlog to amortize it over.
//!
//! Two typed shed decisions guard the queue, and both produce responses —
//! never silent drops:
//!
//! * **Capacity**: beyond [`AdmissionConfig::queue_capacity`] pending
//!   requests, [`offer`](AdmissionWindow::offer) refuses with
//!   [`StratRecError::AdmissionRejected`] and hands the request back.
//!   Shedding at the door keeps the backlog — and therefore the worst-case
//!   response latency of everything behind it — bounded.
//! * **Deadline**: when a window is taken,
//!   [`take_batch`](AdmissionWindow::take_batch) sheds every request whose
//!   remaining budget is smaller than the current service-time estimate
//!   with [`StratRecError::DeadlineExceeded`] — a request that cannot make
//!   its deadline only wastes the budget of those that still can.
//!
//! The queue is pure data plus an explicit `now: Instant` parameter, so the
//! shed logic is unit-testable on a virtual clock.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use stratrec_core::prelude::StratRecError;

use crate::request::StreamRequest;

/// Sizing of the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// A window holds at most this many requests; a larger backlog is
    /// served across consecutive windows, oldest first.
    pub max_batch: usize,
    /// Pending requests beyond this depth are refused with
    /// [`StratRecError::AdmissionRejected`].
    pub queue_capacity: usize,
    /// Seed for the service-time estimate before the first window has been
    /// measured (milliseconds).
    pub initial_estimate_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            queue_capacity: 1_024,
            initial_estimate_ms: 1,
        }
    }
}

impl AdmissionConfig {
    /// [`Self::initial_estimate_ms`] as a [`Duration`].
    #[must_use]
    pub fn initial_estimate(&self) -> Duration {
        Duration::from_millis(self.initial_estimate_ms)
    }
}

/// One queued request plus its submission instant (stamped by the
/// submitting thread, so queueing delay counts against the deadline).
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    /// The submitted request.
    pub request: StreamRequest,
    /// When the request entered the queue.
    pub enqueued: Instant,
}

impl QueuedRequest {
    /// The budget left before this request's deadline at `now`.
    #[must_use]
    pub fn remaining(&self, now: Instant) -> Duration {
        self.request
            .deadline
            .saturating_sub(now.saturating_duration_since(self.enqueued))
    }
}

/// The admission queue and its window logic.
#[derive(Debug)]
pub struct AdmissionWindow {
    config: AdmissionConfig,
    pending: VecDeque<QueuedRequest>,
}

impl AdmissionWindow {
    /// An empty queue under `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_batch` is 0: such a window would take
    /// nothing from the backlog, so a serving loop could never drain it.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        assert!(
            config.max_batch > 0,
            "AdmissionConfig::max_batch must be at least 1"
        );
        Self {
            config,
            pending: VecDeque::new(),
        }
    }

    /// Number of pending requests.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Whether no requests are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Offers one request to the queue. Refuses with
    /// [`StratRecError::AdmissionRejected`] when the queue is at capacity,
    /// handing the request back so the caller can turn the refusal into a
    /// typed response.
    ///
    /// # Errors
    ///
    /// Returns the refused request and [`StratRecError::AdmissionRejected`]
    /// at capacity.
    // The refused request moves back by value: boxing it would allocate on
    // exactly the overload path where refusals happen.
    #[allow(clippy::result_large_err)]
    pub fn offer(&mut self, item: QueuedRequest) -> Result<(), (QueuedRequest, StratRecError)> {
        if self.pending.len() >= self.config.queue_capacity {
            let error = StratRecError::AdmissionRejected {
                queue_depth: self.pending.len(),
                capacity: self.config.queue_capacity,
            };
            return Err((item, error));
        }
        self.pending.push_back(item);
        Ok(())
    }

    /// Takes the next window: pops up to `max_batch` requests in arrival
    /// order, shedding every one whose remaining budget at `now` is below
    /// `estimate` (the current per-window service-time estimate) with a
    /// typed [`StratRecError::DeadlineExceeded`]. Shed requests take no
    /// batch slot. Returns the admitted batch and the shed requests with
    /// their errors.
    #[must_use]
    pub fn take_batch(
        &mut self,
        now: Instant,
        estimate: Duration,
    ) -> (Vec<QueuedRequest>, Vec<(QueuedRequest, StratRecError)>) {
        let mut admitted = Vec::new();
        let mut shed = Vec::new();
        while admitted.len() < self.config.max_batch {
            let Some(item) = self.pending.pop_front() else {
                break;
            };
            let remaining = item.remaining(now);
            if remaining < estimate {
                let error = StratRecError::DeadlineExceeded {
                    remaining_ms: u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX),
                    estimated_ms: u64::try_from(estimate.as_millis()).unwrap_or(u64::MAX),
                };
                shed.push((item, error));
            } else {
                admitted.push(item);
            }
        }
        (admitted, shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use stratrec_core::model::{DeploymentParameters, DeploymentRequest, TaskType};

    fn queued(id: u64, enqueued: Instant, deadline: Duration) -> QueuedRequest {
        QueuedRequest {
            request: StreamRequest {
                id,
                tenant: 0,
                deadline,
                request: DeploymentRequest::new(
                    id,
                    TaskType::SentenceTranslation,
                    DeploymentParameters::clamped(0.7, 0.8, 0.8),
                ),
            },
            enqueued,
        }
    }

    fn config() -> AdmissionConfig {
        AdmissionConfig {
            max_batch: 3,
            queue_capacity: 5,
            initial_estimate_ms: 1,
        }
    }

    fn ids(batch: &[QueuedRequest]) -> Vec<u64> {
        batch.iter().map(|q| q.request.id).collect()
    }

    #[test]
    fn capacity_overflow_is_a_typed_admission_rejection() {
        let start = Instant::now();
        let mut window = AdmissionWindow::new(config());
        for id in 0..5 {
            window
                .offer(queued(id, start, Duration::from_millis(100)))
                .unwrap();
        }
        let Err((refused, error)) = window.offer(queued(5, start, Duration::from_millis(100)))
        else {
            panic!("a full queue must refuse");
        };
        assert_eq!(refused.request.id, 5, "the refused request is handed back");
        assert!(matches!(
            error,
            StratRecError::AdmissionRejected {
                queue_depth: 5,
                capacity: 5,
            }
        ));
        assert_eq!(window.depth(), 5, "the refused request was never queued");
    }

    #[test]
    fn take_batch_on_an_empty_queue_takes_nothing() {
        let mut window = AdmissionWindow::new(config());
        let (admitted, shed) = window.take_batch(Instant::now(), Duration::from_millis(1));
        assert!(admitted.is_empty() && shed.is_empty());
    }

    #[test]
    fn take_batch_takes_a_lone_request_at_once() {
        // A single pending request is a whole window.
        let start = Instant::now();
        let mut window = AdmissionWindow::new(config());
        window
            .offer(queued(0, start, Duration::from_millis(100)))
            .unwrap();
        let (admitted, shed) = window.take_batch(start, Duration::from_millis(1));
        assert_eq!(ids(&admitted), vec![0]);
        assert!(shed.is_empty());
        assert!(window.is_empty());
    }

    #[test]
    fn take_batch_sheds_unmeetable_deadlines_typed() {
        let start = Instant::now();
        let mut window = AdmissionWindow::new(config());
        // Request 0 has plenty of budget; request 1 is already past its
        // deadline; request 2 has less budget than the service estimate.
        window
            .offer(queued(0, start, Duration::from_millis(100)))
            .unwrap();
        window
            .offer(queued(1, start, Duration::from_millis(1)))
            .unwrap();
        window
            .offer(queued(2, start, Duration::from_millis(25)))
            .unwrap();
        let now = start + Duration::from_millis(20);
        let (admitted, shed) = window.take_batch(now, Duration::from_millis(10));
        assert_eq!(ids(&admitted), vec![0]);
        assert_eq!(shed.len(), 2);
        assert!(matches!(
            shed[0].1,
            StratRecError::DeadlineExceeded {
                remaining_ms: 0,
                estimated_ms: 10,
            }
        ));
        assert!(matches!(
            shed[1].1,
            StratRecError::DeadlineExceeded {
                remaining_ms: 5,
                estimated_ms: 10,
            }
        ));
        assert!(window.is_empty());
    }

    #[test]
    fn take_batch_caps_at_max_batch_and_serves_the_backlog_oldest_first() {
        let start = Instant::now();
        let mut window = AdmissionWindow::new(config());
        for id in 0..5 {
            window
                .offer(queued(id, start, Duration::from_secs(1)))
                .unwrap();
        }
        let (first, shed) = window.take_batch(start, Duration::from_millis(1));
        assert!(shed.is_empty());
        assert_eq!(ids(&first), vec![0, 1, 2], "max_batch oldest-first");
        assert_eq!(window.depth(), 2, "the rest stays queued");
        // The next window takes the remainder, still in arrival order.
        let (second, shed) = window.take_batch(start, Duration::from_millis(1));
        assert!(shed.is_empty());
        assert_eq!(ids(&second), vec![3, 4]);
        assert!(window.is_empty());
    }

    #[test]
    fn shed_requests_take_no_batch_slot() {
        let start = Instant::now();
        let mut window = AdmissionWindow::new(config());
        // Two expired requests ahead of three live ones: the window sheds
        // both and still admits a full batch of three.
        for id in 0..2 {
            window.offer(queued(id, start, Duration::ZERO)).unwrap();
        }
        for id in 2..5 {
            window
                .offer(queued(id, start, Duration::from_secs(1)))
                .unwrap();
        }
        let (admitted, shed) = window.take_batch(start, Duration::from_millis(1));
        assert_eq!(ids(&admitted), vec![2, 3, 4]);
        let shed_ids: Vec<u64> = shed.iter().map(|(q, _)| q.request.id).collect();
        assert_eq!(shed_ids, vec![0, 1]);
        assert!(window.is_empty());
    }
}
