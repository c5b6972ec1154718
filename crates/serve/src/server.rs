//! The streaming service loop: MPSC ingest, windowed serving, typed sheds.
//!
//! [`StreamServer::start`] spawns one **service thread** that serves from
//! the shared [`ConcurrentCatalog`]. The loop is work-conserving and
//! alternates two phases:
//!
//! 1. **Ingest** — block on the submission channel only while nothing is
//!    pending, then drain whatever the channel already holds into the
//!    admission queue (see [`crate::admission`]), shedding arrivals beyond
//!    the queue capacity with a typed
//!    [`AdmissionRejected`](stratrec_core::error::StratRecError::AdmissionRejected)
//!    response. The loop never waits for a window to fill.
//! 2. **Serve** — observe the queue depth through the
//!    [`BackpressureController`], take the oldest `max_batch` pending
//!    requests as the window (deadline-shedding requests whose budget is
//!    below the running service-time estimate), pin the latest published
//!    snapshot and serve the admitted batch cold through
//!    `StratRec::process_batch_with_catalog_at` on it at the controller's
//!    quality.
//!
//! A lone request is therefore served as soon as the thread is free, and
//! under load each window is the backlog that built up while the previous
//! one was served.
//!
//! Every served answer is exactly the sequential pipeline's answer on the
//! snapshot its `(window, epoch)` tag names. Windows carry different
//! requests, so no per-request state survives a window: the server holds
//! no delta subscription and never takes the catalog's writer lock.
//!
//! The service-time estimate is an exponentially weighted moving average of
//! measured window service times (`estimate ← (3·estimate + measured) / 4`),
//! seeded from [`AdmissionConfig::initial_estimate_ms`], so deadline
//! shedding adapts to the actual catalog size and churn pressure.
//!
//! Shutdown is cooperative: dropping the submission sender (what
//! [`ServerHandle::shutdown`] does) lets the loop finish serving every
//! request already queued — the exactly-one-response invariant holds
//! through shutdown.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::catalog::{ConcurrentCatalog, EpochSnapshot};
use stratrec_core::model::DeploymentRequest;
use stratrec_core::modeling::ModelLibrary;
use stratrec_core::prelude::{ServiceQuality, StratRec, StratRecConfig, StratRecReport};

use crate::admission::{AdmissionConfig, AdmissionWindow, QueuedRequest};
use crate::controller::{BackpressureController, ControllerConfig};
use crate::request::{ServedAnswer, StreamOutcome, StreamRequest, StreamResponse};

/// Everything the service loop is configured with.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Admission window sizing, capacity and deadline estimate seed.
    pub admission: AdmissionConfig,
    /// Backpressure watermarks and recovery hysteresis.
    pub controller: ControllerConfig,
    /// The pipeline configuration (`k`, objective, aggregation).
    pub stratrec: StratRecConfig,
    /// When true, the server records a [`WindowRecord`] per served window —
    /// including the pinned snapshot — so every answer can be reenacted
    /// after the fact. Keeps every window's snapshot and requests alive
    /// until shutdown; intended for tests, not production soak.
    pub record_windows: bool,
}

/// One served window, as recorded for after-the-fact reenactment: the exact
/// requests, the pinned snapshot they were planned against, and the report.
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// 1-based sequence number of the window.
    pub window: u64,
    /// Quality the window was served at.
    pub quality: ServiceQuality,
    /// Epoch of the pinned snapshot.
    pub epoch: u64,
    /// The snapshot itself — reenactment replays the sequential pipeline
    /// over `snapshot.catalog()` and demands equality.
    pub snapshot: Arc<EpochSnapshot>,
    /// The admitted requests, in serve order.
    pub requests: Vec<DeploymentRequest>,
    /// Stream ids of the admitted requests, parallel to
    /// [`Self::requests`].
    pub ids: Vec<u64>,
    /// The report the window produced.
    pub report: StratRecReport,
}

/// Counters the service thread returns on shutdown.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Windows taken (served or fully shed).
    pub windows: u64,
    /// Requests served at [`ServiceQuality::Full`].
    pub served_full: u64,
    /// Requests served at [`ServiceQuality::Degraded`].
    pub served_degraded: u64,
    /// Requests shed with `DeadlineExceeded`.
    pub shed_deadline: u64,
    /// Requests shed with `AdmissionRejected`.
    pub shed_admission: u64,
    /// Requests answered with a typed pipeline failure.
    pub failed: u64,
    /// Windows the controller held at [`ServiceQuality::Degraded`].
    pub degraded_windows: u64,
    /// Largest queue depth observed when a window was taken.
    pub peak_queue_depth: usize,
    /// The controller's quality when the loop exited.
    pub final_quality: ServiceQuality,
    /// Per-window trace, populated only when
    /// [`ServeConfig::record_windows`] is set.
    pub trace: Vec<WindowRecord>,
}

impl ServerStats {
    /// Total typed responses delivered.
    #[must_use]
    pub fn responses(&self) -> u64 {
        self.served_full
            + self.served_degraded
            + self.shed_deadline
            + self.shed_admission
            + self.failed
    }
}

/// Builder for the service thread.
#[derive(Debug, Clone, Default)]
pub struct StreamServer {
    config: ServeConfig,
}

/// Handle to a running service thread: submit requests, receive responses,
/// shut down.
#[derive(Debug)]
pub struct ServerHandle {
    submit: Sender<(StreamRequest, Instant)>,
    responses: Receiver<StreamResponse>,
    thread: JoinHandle<ServerStats>,
}

impl StreamServer {
    /// A server builder with `config`.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        Self { config }
    }

    /// Spawns the service thread against the shared catalog and returns its
    /// handle. Each window pins the latest published snapshot, so a churn
    /// writer publishing epochs concurrently is observed one whole epoch at
    /// a time, never as a torn read.
    ///
    /// # Panics
    ///
    /// Panics on the calling thread, before anything is spawned, when the
    /// admission config ([`AdmissionWindow::new`]) or the controller config
    /// ([`BackpressureController::new`]) is invalid.
    #[must_use]
    pub fn start(
        self,
        catalog: Arc<ConcurrentCatalog>,
        models: ModelLibrary,
        availability: AvailabilityPdf,
    ) -> ServerHandle {
        let (submit, ingest) = mpsc::channel::<(StreamRequest, Instant)>();
        let (respond, responses) = mpsc::channel::<StreamResponse>();
        let config = self.config;
        let window = AdmissionWindow::new(config.admission);
        let controller = BackpressureController::new(config.controller);
        let thread = std::thread::spawn(move || {
            serve_loop(
                &config,
                window,
                controller,
                &catalog,
                &models,
                &availability,
                &ingest,
                &respond,
            )
        });
        ServerHandle {
            submit,
            responses,
            thread,
        }
    }
}

impl ServerHandle {
    /// Submits one request, stamping its enqueue instant now (queueing delay
    /// counts against the deadline). Returns `false` if the service thread
    /// has exited.
    pub fn submit(&self, request: StreamRequest) -> bool {
        self.submit.send((request, Instant::now())).is_ok()
    }

    /// Blocks up to `timeout` for the next response.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<StreamResponse> {
        self.responses.recv_timeout(timeout).ok()
    }

    /// Drains every response currently buffered, without blocking.
    #[must_use]
    pub fn drain_responses(&self) -> Vec<StreamResponse> {
        self.responses.try_iter().collect()
    }

    /// Closes the submission side, waits for the loop to serve everything
    /// still queued, and returns the final stats plus any responses not yet
    /// drained.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the service thread — the soak harness treats
    /// that as a failed run.
    #[must_use]
    pub fn shutdown(self) -> (ServerStats, Vec<StreamResponse>) {
        drop(self.submit);
        let stats = self.thread.join().expect("service thread must not panic");
        let remaining = self.responses.try_iter().collect();
        (stats, remaining)
    }
}

// The window and the controller are validated and built by `start` on the
// calling thread, so they arrive here ready-made beside the config.
#[allow(clippy::too_many_arguments)]
fn serve_loop(
    config: &ServeConfig,
    mut window: AdmissionWindow,
    mut controller: BackpressureController,
    catalog: &ConcurrentCatalog,
    models: &ModelLibrary,
    availability: &AvailabilityPdf,
    ingest: &Receiver<(StreamRequest, Instant)>,
    respond: &Sender<StreamResponse>,
) -> ServerStats {
    let layer = StratRec::new(config.stratrec);
    let mut estimate = config.admission.initial_estimate();
    let mut stats = ServerStats::default();

    loop {
        // Phase 1: block only while nothing is pending, then take whatever
        // the channel already holds so queue depth reflects the backlog.
        if window.is_empty() {
            let Ok(arrival) = ingest.recv() else {
                // The sender dropped and every queued request is answered.
                break;
            };
            offer(&mut window, arrival, &mut stats, respond);
        }
        while let Ok(arrival) = ingest.try_recv() {
            offer(&mut window, arrival, &mut stats, respond);
        }
        if window.is_empty() {
            continue;
        }

        // Phase 2: observe, take the window, shed, serve.
        let depth = window.depth();
        stats.peak_queue_depth = stats.peak_queue_depth.max(depth);
        let quality = controller.observe(depth);
        stats.windows += 1;
        if quality == ServiceQuality::Degraded {
            stats.degraded_windows += 1;
        }
        let seq = stats.windows;
        let (admitted, shed) = window.take_batch(Instant::now(), estimate);
        for (item, error) in shed {
            stats.shed_deadline += 1;
            deliver(respond, &item, seq, StreamOutcome::Shed(error));
        }
        if admitted.is_empty() {
            continue;
        }

        let requests: Vec<DeploymentRequest> =
            admitted.iter().map(|q| q.request.request.clone()).collect();
        let served_at = Instant::now();
        let snapshot = catalog.pin();
        let result = layer.process_batch_with_catalog_at(
            &requests,
            snapshot.catalog(),
            models,
            availability,
            quality,
        );
        estimate = (estimate * 3 + served_at.elapsed()) / 4;

        match result {
            Ok(report) => {
                // The answers move out of the report; it is cloned only
                // when the trace keeps it.
                let kept = config.record_windows.then(|| report.clone());
                let mut answers: Vec<Option<ServedAnswer>> = vec![None; requests.len()];
                for rec in report.batch.satisfied {
                    let index = rec.request_index;
                    answers[index] = Some(ServedAnswer::Recommended(rec));
                }
                for alt in report.alternatives {
                    let index = alt.request_index;
                    answers[index] = Some(ServedAnswer::Alternative(alt));
                }
                for (item, answer) in admitted.iter().zip(answers) {
                    let answer = answer
                        .expect("pipeline contract: every request is satisfied or alternative");
                    match quality {
                        ServiceQuality::Full => stats.served_full += 1,
                        ServiceQuality::Degraded => stats.served_degraded += 1,
                    }
                    let outcome = StreamOutcome::Served {
                        quality,
                        epoch: snapshot.epoch(),
                        answer,
                    };
                    deliver(respond, item, seq, outcome);
                }
                if let Some(report) = kept {
                    stats.trace.push(WindowRecord {
                        window: seq,
                        quality,
                        epoch: snapshot.epoch(),
                        snapshot,
                        requests,
                        ids: admitted.iter().map(|q| q.request.id).collect(),
                        report,
                    });
                }
            }
            Err(error) => {
                // A window-level pipeline failure still resolves every
                // member with a typed response.
                for item in &admitted {
                    stats.failed += 1;
                    deliver(respond, item, seq, StreamOutcome::Failed(error.clone()));
                }
            }
        }
    }

    stats.final_quality = controller.quality();
    stats
}

/// Queues one arrival, answering a capacity refusal with a typed shed.
fn offer(
    window: &mut AdmissionWindow,
    (request, enqueued): (StreamRequest, Instant),
    stats: &mut ServerStats,
    respond: &Sender<StreamResponse>,
) {
    if let Err((item, error)) = window.offer(QueuedRequest { request, enqueued }) {
        stats.shed_admission += 1;
        // The refused request belongs to the next window to be taken —
        // the one that will be numbered `windows + 1`.
        deliver(
            respond,
            &item,
            stats.windows + 1,
            StreamOutcome::Shed(error),
        );
    }
}

/// Sends the one typed response for `item`. A dropped receiver is not an
/// error — the client has walked away; the server keeps its invariants.
fn deliver(
    respond: &Sender<StreamResponse>,
    item: &QueuedRequest,
    window: u64,
    outcome: StreamOutcome,
) {
    let response = StreamResponse {
        id: item.request.id,
        tenant: item.request.tenant,
        window,
        latency: Instant::now().saturating_duration_since(item.enqueued),
        outcome,
    };
    let _ = respond.send(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratrec_workload::BatchScenario;

    fn fixture() -> (Arc<ConcurrentCatalog>, ModelLibrary, AvailabilityPdf) {
        let instance = BatchScenario {
            batch_size: 1,
            strategy_count: 60,
            k: 3,
            seed: 7,
            ..BatchScenario::default()
        }
        .materialize();
        let catalog = instance.catalog();
        (
            Arc::new(ConcurrentCatalog::new(catalog)),
            instance.models,
            AvailabilityPdf::certain(0.6),
        )
    }

    fn stream_request(id: u64, deadline: Duration) -> StreamRequest {
        use stratrec_core::model::{DeploymentParameters, TaskType};
        StreamRequest {
            id,
            tenant: (id % 3) as usize,
            deadline,
            request: DeploymentRequest::new(
                id,
                TaskType::SentenceTranslation,
                DeploymentParameters::clamped(0.6 + 0.05 * (id % 5) as f64, 0.8, 0.9),
            ),
        }
    }

    #[test]
    fn every_submitted_request_gets_exactly_one_typed_response() {
        let (catalog, models, pdf) = fixture();
        let handle = StreamServer::new(ServeConfig::default()).start(catalog, models, pdf);
        let total = 40;
        for id in 0..total {
            assert!(handle.submit(stream_request(id, Duration::from_secs(5))));
        }
        let (stats, responses) = handle.shutdown();
        assert_eq!(responses.len(), total as usize);
        assert_eq!(stats.responses(), total);
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..total).collect::<Vec<_>>());
        for response in &responses {
            assert!(response.outcome.is_served(), "no overload, no shedding");
        }
        assert_eq!(
            stats.served_full, total,
            "calm traffic stays at full quality"
        );
        assert_eq!(stats.final_quality, ServiceQuality::Full);
    }

    #[test]
    fn zero_deadline_requests_are_shed_typed_not_dropped() {
        let (catalog, models, pdf) = fixture();
        let handle = StreamServer::new(ServeConfig::default()).start(catalog, models, pdf);
        for id in 0..8 {
            assert!(handle.submit(stream_request(id, Duration::ZERO)));
        }
        let (stats, responses) = handle.shutdown();
        assert_eq!(responses.len(), 8);
        assert_eq!(stats.shed_deadline, 8);
        for response in responses {
            assert!(
                matches!(
                    response.outcome,
                    StreamOutcome::Shed(stratrec_core::error::StratRecError::DeadlineExceeded {
                        remaining_ms: 0,
                        ..
                    })
                ),
                "a zero budget can never beat the service estimate"
            );
        }
    }

    #[test]
    fn a_lone_request_is_served_without_waiting_for_company() {
        // No timer linger: each request is served the moment it arrives,
        // as a window of its own. A 5 ms wait bound alone would make these
        // 50 round trips take at least 250 ms.
        let (catalog, models, pdf) = fixture();
        let handle = StreamServer::new(ServeConfig::default()).start(catalog, models, pdf);
        let start = Instant::now();
        for id in 0..50 {
            assert!(handle.submit(stream_request(id, Duration::from_secs(5))));
            let response = handle
                .recv_timeout(Duration::from_secs(5))
                .expect("a lone request is answered");
            assert_eq!(response.id, id);
            assert_eq!(response.window, id + 1, "one window per lone request");
            assert!(response.outcome.is_served());
        }
        let elapsed = start.elapsed();
        let (stats, _) = handle.shutdown();
        assert_eq!(stats.windows, 50);
        assert!(
            elapsed < Duration::from_millis(250),
            "50 lone round trips took {elapsed:?}"
        );
    }

    #[test]
    fn a_backlog_beyond_max_batch_is_served_across_windows_oldest_first() {
        let (catalog, models, pdf) = fixture();
        let config = ServeConfig {
            admission: AdmissionConfig {
                max_batch: 4,
                ..AdmissionConfig::default()
            },
            record_windows: true,
            ..ServeConfig::default()
        };
        // Queue the whole backlog and close the channel before the loop
        // runs, so its first ingest drains all ten requests at once.
        let (submit, ingest) = mpsc::channel();
        let now = Instant::now();
        for id in 0..10 {
            submit
                .send((stream_request(id, Duration::from_secs(5)), now))
                .unwrap();
        }
        drop(submit);
        let (respond, responses) = mpsc::channel();
        let stats = serve_loop(
            &config,
            AdmissionWindow::new(config.admission),
            BackpressureController::new(config.controller),
            &catalog,
            &models,
            &pdf,
            &ingest,
            &respond,
        );
        let windows: Vec<Vec<u64>> = stats.trace.iter().map(|w| w.ids.clone()).collect();
        assert_eq!(
            windows,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]],
            "max_batch per window, oldest first"
        );
        assert_eq!(stats.peak_queue_depth, 10);
        let responses: Vec<StreamResponse> = responses.try_iter().collect();
        assert!(responses.iter().all(|r| r.outcome.is_served()));
        let served: Vec<(u64, u64)> = responses.iter().map(|r| (r.id, r.window)).collect();
        let expected: Vec<(u64, u64)> = (0..10).map(|id| (id, id / 4 + 1)).collect();
        assert_eq!(served, expected, "every request answered once, in order");
    }

    #[test]
    fn capacity_overflow_is_shed_typed_at_the_door() {
        let (catalog, models, pdf) = fixture();
        let config = ServeConfig {
            admission: AdmissionConfig {
                max_batch: 2,
                queue_capacity: 4,
                initial_estimate_ms: 1,
            },
            ..ServeConfig::default()
        };
        // Stall the server by never letting it start: submit the whole
        // burst before the thread can drain, so some arrivals see a full
        // queue. Submission order races the service loop, so only the
        // accounting identity is asserted, not which ids were refused.
        let handle = StreamServer::new(config).start(catalog, models, pdf);
        let total = 200;
        for id in 0..total {
            assert!(handle.submit(stream_request(id, Duration::from_secs(5))));
        }
        let (stats, responses) = handle.shutdown();
        assert_eq!(responses.len(), total as usize, "no silent drops");
        assert_eq!(stats.responses(), total);
        assert_eq!(
            stats.served_full + stats.served_degraded + stats.shed_admission + stats.shed_deadline,
            total,
            "every outcome is served or typed-shed"
        );
    }

    #[test]
    fn shutdown_serves_the_remaining_queue_before_exiting() {
        let (catalog, models, pdf) = fixture();
        let handle = StreamServer::new(ServeConfig::default()).start(catalog, models, pdf);
        for id in 0..5 {
            assert!(handle.submit(stream_request(id, Duration::from_secs(5))));
        }
        // Shut down immediately: the queued requests must still resolve.
        let (stats, responses) = handle.shutdown();
        assert_eq!(responses.len(), 5);
        assert_eq!(stats.responses(), 5);
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn a_zero_max_batch_is_rejected_at_start() {
        // A zero batch bound takes nothing from the backlog: the loop would
        // spin on a queue it can never drain, and `shutdown` would never
        // return.
        let (catalog, models, pdf) = fixture();
        let config = ServeConfig {
            admission: AdmissionConfig {
                max_batch: 0,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        };
        let handle = StreamServer::new(config).start(catalog, models, pdf);
        assert!(handle.submit(stream_request(0, Duration::from_secs(5))));
        let _ = handle.shutdown();
    }

    #[test]
    #[should_panic(expected = "must sit strictly below")]
    fn an_inverted_hysteresis_band_is_rejected_at_start() {
        // Built on the service thread, the controller's panic would only
        // surface at `shutdown`; built in `start`, it fails the caller.
        let (catalog, models, pdf) = fixture();
        let config = ServeConfig {
            controller: ControllerConfig {
                degrade_watermark: 4,
                recover_watermark: 8,
                recover_windows: 1,
            },
            ..ServeConfig::default()
        };
        let _ = StreamServer::new(config).start(catalog, models, pdf);
    }
}
