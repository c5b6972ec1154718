//! The admission window: batching, capacity control and deadline shedding.
//!
//! Requests are grouped into **windows** that close on whichever comes
//! first: the window reaches [`AdmissionConfig::max_batch`] requests, or the
//! oldest queued request has waited [`AdmissionConfig::max_wait`]. Batching
//! amortizes the per-window pipeline cost (matrix sync, delta drain,
//! selection) across requests; the wait bound keeps a lone request from
//! idling in an empty window.
//!
//! Two typed shed decisions guard the window, and both produce responses —
//! never silent drops:
//!
//! * **Capacity**: beyond [`AdmissionConfig::queue_capacity`] pending
//!   requests, [`offer`](AdmissionWindow::offer) refuses with
//!   [`StratRecError::AdmissionRejected`]. Shedding at the door keeps the
//!   backlog — and therefore the worst-case response latency of everything
//!   behind it — bounded.
//! * **Deadline**: when a window closes,
//!   [`take_batch`](AdmissionWindow::take_batch) sheds every request whose
//!   remaining budget is smaller than the current service-time estimate
//!   with [`StratRecError::DeadlineExceeded`] — a request that cannot make
//!   its deadline only wastes the budget of those that still can.
//!
//! The window is pure data plus explicit `now: Instant` parameters, so the
//! close/shed logic is unit-testable on a virtual clock.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use stratrec_core::prelude::StratRecError;

use crate::request::StreamRequest;

/// Sizing and timing of the admission window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// A window closes as soon as it holds this many requests.
    pub max_batch: usize,
    /// A window closes once its oldest request has waited this long
    /// (milliseconds), full or not.
    pub max_wait_ms: u64,
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
            max_wait_ms: 5,
            queue_capacity: 1_024,
            initial_estimate_ms: 1,
        }
    }
}

impl AdmissionConfig {
    /// [`Self::max_wait_ms`] as a [`Duration`].
    #[must_use]
    pub fn max_wait(&self) -> Duration {
        Duration::from_millis(self.max_wait_ms)
    }

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

/// The admission queue and its window-close logic.
#[derive(Debug)]
pub struct AdmissionWindow {
    config: AdmissionConfig,
    pending: VecDeque<QueuedRequest>,
}

impl AdmissionWindow {
    /// An empty window under `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_batch` is 0: such a window would count as
    /// closed while empty, so a serving loop could never admit a request.
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

    /// Number of pending requests — the controller's queue-depth signal.
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
    /// [`StratRecError::AdmissionRejected`] when the queue is at capacity —
    /// the caller must turn that into a typed response.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::AdmissionRejected`] at capacity.
    pub fn offer(&mut self, item: QueuedRequest) -> Result<(), StratRecError> {
        if self.pending.len() >= self.config.queue_capacity {
            return Err(StratRecError::AdmissionRejected {
                queue_depth: self.pending.len(),
                capacity: self.config.queue_capacity,
            });
        }
        self.pending.push_back(item);
        Ok(())
    }

    /// Whether the current window is closed at `now`: full, or the oldest
    /// request has waited past the wait bound.
    #[must_use]
    pub fn is_closed(&self, now: Instant) -> bool {
        if self.pending.len() >= self.config.max_batch {
            return true;
        }
        self.pending.front().is_some_and(|oldest| {
            now.saturating_duration_since(oldest.enqueued) >= self.config.max_wait()
        })
    }

    /// How long the service loop may block for more arrivals before the
    /// window must close: `None` when it is already closed (or nothing is
    /// pending — then there is no window to close).
    #[must_use]
    pub fn wait_budget(&self, now: Instant) -> Option<Duration> {
        if self.is_closed(now) {
            return None;
        }
        self.pending.front().map(|oldest| {
            self.config
                .max_wait()
                .saturating_sub(now.saturating_duration_since(oldest.enqueued))
        })
    }

    /// Closes the window: pops up to `max_batch` requests in arrival order,
    /// shedding every one whose remaining budget at `now` is below
    /// `estimate` (the current per-window service-time estimate) with a
    /// typed [`StratRecError::DeadlineExceeded`]. Returns the admitted
    /// batch and the shed requests with their errors.
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
            max_wait_ms: 10,
            queue_capacity: 5,
            initial_estimate_ms: 1,
        }
    }

    #[test]
    fn windows_close_on_size_or_wait_whichever_first() {
        let start = Instant::now();
        let mut window = AdmissionWindow::new(config());
        assert!(!window.is_closed(start), "empty windows never close");
        assert_eq!(window.wait_budget(start), None, "nothing to wait for");
        window
            .offer(queued(0, start, Duration::from_millis(100)))
            .unwrap();
        assert!(!window.is_closed(start));
        // The wait budget counts down from the oldest request's arrival.
        let later = start + Duration::from_millis(4);
        assert_eq!(window.wait_budget(later), Some(Duration::from_millis(6)));
        assert!(
            window.is_closed(start + Duration::from_millis(10)),
            "wait bound"
        );
        // Or: the window fills to max_batch and closes immediately.
        window
            .offer(queued(1, start, Duration::from_millis(100)))
            .unwrap();
        window
            .offer(queued(2, start, Duration::from_millis(100)))
            .unwrap();
        assert!(window.is_closed(start), "size bound");
        assert_eq!(window.wait_budget(start), None);
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
        let refused = window.offer(queued(5, start, Duration::from_millis(100)));
        assert!(matches!(
            refused,
            Err(StratRecError::AdmissionRejected {
                queue_depth: 5,
                capacity: 5,
            })
        ));
        assert_eq!(window.depth(), 5, "the refused request was never queued");
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
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].request.id, 0);
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
    fn take_batch_respects_the_batch_bound_and_arrival_order() {
        let start = Instant::now();
        let mut window = AdmissionWindow::new(config());
        for id in 0..5 {
            window
                .offer(queued(id, start, Duration::from_secs(1)))
                .unwrap();
        }
        let (admitted, shed) = window.take_batch(start, Duration::from_millis(1));
        assert!(shed.is_empty());
        let ids: Vec<u64> = admitted.iter().map(|q| q.request.id).collect();
        assert_eq!(ids, vec![0, 1, 2], "max_batch oldest-first");
        assert_eq!(window.depth(), 2, "the rest stays queued");
    }
}
