//! `serve-steady` and `serve-churn`: open-loop traffic against
//! `StreamServer`, every answer checked against the sequential pipeline.
//!
//! Both workloads send the same seeded Poisson stream at a fixed 1000 req/s
//! to a server reading |S| = 10k strategies from a `DurableCatalog` cell,
//! with k = 5 and W = 0.5. `serve-churn` adds a writer thread committing
//! 1 %-churn epochs (100 inserts, 100 retires) at 20 epochs/s through the
//! durable cell the server reads, with fsync on.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::catalog::{ConcurrentCatalog, RebuildPolicy, StrategyCatalog};
use stratrec_core::model::{DeploymentParameters, DeploymentRequest, Strategy};
use stratrec_core::modeling::ModelLibrary;
use stratrec_core::prelude::{ServiceQuality, StratRec, StratRecConfig};
use stratrec_durable::{DurableCatalog, DurableOptions};
use stratrec_serve::{
    ServeConfig, ServedAnswer, ServerHandle, ServerStats, StreamOutcome, StreamRequest,
    StreamResponse, StreamServer,
};
use stratrec_workload::churn::CompactPolicy;
use stratrec_workload::{Arrival, ChurnEpoch, ChurnInstance, ChurnScenario, OpenLoopScenario};

use crate::replay::{LiveFigures, Replay, Window};
use crate::stats::{fastest, median, ms, per_stretch, percentile, sorted, Metric, Outcome};
use crate::{recover_and_compare, traced_replay, Args, RunDir, SETUP_REPEATS};

const STRATEGIES: usize = 10_000;
const K: usize = 5;
const AVAILABILITY: f64 = 0.5;
const RATE_HZ: f64 = 1_000.0;
/// The deadline stamped on every request, and the latency limit a
/// response must meet to count.
const LIMIT: Duration = Duration::from_millis(50);
const EPOCH_PERIOD: Duration = Duration::from_millis(50);
const CHURN_PER_EPOCH: usize = 100;
/// `serve-churn` compacts once a second: without it the slot count, and
/// with it every window's fill, grows for as long as the run lasts.
const COMPACT: CompactPolicy = CompactPolicy::EveryNEpochs(20);
/// A run whose generator was later than this share of the limit at p99 is
/// invalid: its latencies measure the generator, not the server.
const LATE_SHARE_OF_LIMIT: f64 = 0.5;
/// The half-easy, half-paper request mix satisfies about 41 % of requests
/// on the sequential pipeline; outside this band the mix has drifted.
const SATISFIED_BAND: (f64, f64) = (0.30, 0.52);
/// Absolute offered rates of the capacity ladder, and how long each rung
/// runs.
const LADDER_HZ: [f64; 5] = [250.0, 500.0, 1_000.0, 2_000.0, 4_000.0];
const RUNG: Duration = Duration::from_secs(2);
/// A rung passes when this share of requests got a correct answer within
/// the limit.
const RUNG_OK_SHARE: f64 = 0.99;
const MIX_SALT: u64 = 0x6d69_7865_645f_7331;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Steady,
    Churn,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        stratrec: StratRecConfig {
            k: K,
            ..StratRecConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// The seeded stream: `OpenLoopScenario` arrival times and tenants, with
/// half of the requests redrawn from an easy box (quality in [0.3, 0.6],
/// cost and latency in [0.7, 1.0]) and half left in the paper's
/// [0.625, 1]³ range.
fn arrivals(rate_hz: f64, horizon: Duration, seed: u64) -> Vec<Arrival> {
    let mut arrivals = OpenLoopScenario {
        base_rate_hz: rate_hz,
        duration_ms: u64::try_from(horizon.as_millis()).expect("horizon fits in u64"),
        deadline_ms: u64::try_from(LIMIT.as_millis()).expect("limit fits in u64"),
        seed,
        ..OpenLoopScenario::default()
    }
    .materialize();
    let mut rng = StdRng::seed_from_u64(seed ^ MIX_SALT);
    for arrival in &mut arrivals {
        if rng.gen_bool(0.5) {
            let params = DeploymentParameters::clamped(
                rng.gen_range(0.3..=0.6),
                rng.gen_range(0.7..=1.0),
                rng.gen_range(0.7..=1.0),
            );
            arrival.request = DeploymentRequest::new(arrival.id, arrival.request.task_type, params);
        }
    }
    arrivals
}

struct Fixture {
    instance: ChurnInstance,
    arrivals: Vec<Arrival>,
    durable: DurableCatalog,
    handle: ServerHandle,
}

/// Generates and indexes the catalog and the inputs, creates the durable
/// directory and starts the server: everything before the first arrival.
fn setup(mode: Mode, args: &Args, dir: &Path) -> Result<Fixture, Box<dyn Error>> {
    let horizon = Duration::from_secs(args.seconds);
    let epochs = match mode {
        Mode::Steady => 0,
        Mode::Churn => (horizon.as_millis() / EPOCH_PERIOD.as_millis()) as usize,
    };
    let instance = ChurnScenario {
        initial_strategies: STRATEGIES,
        epochs,
        inserts_per_epoch: CHURN_PER_EPOCH,
        retires_per_epoch: CHURN_PER_EPOCH,
        batch_size: 0,
        k: K,
        availability: AVAILABILITY,
        compact: COMPACT,
        seed: args.seed,
        ..ChurnScenario::default()
    }
    .materialize();
    let arrivals = arrivals(RATE_HZ, horizon, args.seed);
    std::fs::create_dir_all(dir)?;
    let durable = DurableCatalog::create(
        dir,
        instance.catalog(RebuildPolicy::default()),
        DurableOptions::default(),
    )?;
    let handle = start_server(Arc::new(durable.catalog().clone()), &instance.models);
    Ok(Fixture {
        instance,
        arrivals,
        durable,
        handle,
    })
}

fn start_server(cell: Arc<ConcurrentCatalog>, models: &ModelLibrary) -> ServerHandle {
    StreamServer::new(serve_config()).start(
        cell,
        models.clone(),
        AvailabilityPdf::certain(AVAILABILITY),
    )
}

/// What the timed phase produced.
struct Drive {
    /// Per arrival: how late the generator submitted it.
    late: Vec<Duration>,
    responses: Vec<StreamResponse>,
    stats: ServerStats,
    commits: Vec<Duration>,
}

/// Sends `arrivals` on their schedule from this thread while, for
/// `serve-churn`, a second thread commits `epochs` every 50 ms; then shuts
/// the server down, which answers everything still queued.
fn drive(
    handle: ServerHandle,
    arrivals: &[Arrival],
    writer: Option<(&DurableCatalog, &[ChurnEpoch])>,
    horizon: Duration,
) -> Result<Drive, Box<dyn Error>> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let writer = writer.map(|(durable, epochs)| {
            scope.spawn(move || commit_epochs(durable, epochs, start, horizon))
        });
        let mut late = Vec::with_capacity(arrivals.len());
        let mut responses = Vec::with_capacity(arrivals.len());
        let mut accepted = true;
        for arrival in arrivals {
            let due = start + arrival.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late.push(Instant::now().saturating_duration_since(due));
            accepted &= handle.submit(StreamRequest {
                id: arrival.id,
                tenant: arrival.tenant,
                deadline: arrival.deadline,
                request: arrival.request.clone(),
            });
            responses.extend(handle.drain_responses());
        }
        let (stats, rest) = handle.shutdown();
        responses.extend(rest);
        let commits = match writer {
            Some(writer) => writer.join().expect("the writer thread must not panic")?,
            None => Vec::new(),
        };
        if !accepted {
            return Err("the server stopped accepting requests".into());
        }
        Ok(Drive {
            late,
            responses,
            stats,
            commits,
        })
    })
}

/// Commits epoch `j` at `start + (j + 1) · 50 ms` until the horizon,
/// returning each commit's duration.
fn commit_epochs(
    durable: &DurableCatalog,
    epochs: &[ChurnEpoch],
    start: Instant,
    horizon: Duration,
) -> Result<Vec<Duration>, String> {
    let mut commits = Vec::with_capacity(epochs.len());
    for (j, epoch) in epochs.iter().enumerate() {
        let offset = EPOCH_PERIOD * u32::try_from(j + 1).expect("epoch count fits in u32");
        if offset >= horizon {
            break;
        }
        let now = Instant::now();
        if start + offset > now {
            std::thread::sleep(start + offset - now);
        }
        let begun = Instant::now();
        durable
            .update(|catalog| epoch.apply_with_compaction(catalog, COMPACT, j + 1))
            .map_err(|error| format!("durable epoch {j} failed: {error}"))?;
        commits.push(begun.elapsed());
    }
    Ok(commits)
}

/// Every answer of one timed phase, checked.
struct Scored {
    windows: Vec<Window>,
    /// Per arrival: latency from its scheduled arrival, and whether it got
    /// a correct answer within the limit.
    latency: Vec<Duration>,
    ok: Vec<bool>,
    wrong: u64,
    /// Requests that got no response.
    unanswered: u64,
    satisfied: u64,
    served: u64,
    /// Broken invariants of the run itself (lost or duplicated responses,
    /// unreachable epochs).
    violations: Vec<String>,
}

impl Scored {
    fn ok_count(&self) -> u64 {
        self.ok.iter().filter(|&&ok| ok).count() as u64
    }

    /// Every request's `(scheduled offset, latency in ms)`, with a miss read
    /// as the limit plus its own latency, so misses rank above every hit
    /// and a percentile above the limit reads as missed.
    fn latency_samples(&self, arrivals: &[Arrival]) -> Vec<(Duration, f64)> {
        arrivals
            .iter()
            .zip(self.latency.iter().zip(&self.ok))
            .map(|(arrival, (&latency, &ok))| {
                let read = if ok { latency } else { LIMIT + latency };
                (arrival.at, ms(read))
            })
            .collect()
    }

    /// Every request's `(scheduled offset, 100 if it got a correct answer
    /// within the limit, else 0)`.
    fn ok_samples(&self, arrivals: &[Arrival]) -> Vec<(Duration, f64)> {
        arrivals
            .iter()
            .zip(&self.ok)
            .map(|(arrival, &ok)| (arrival.at, if ok { 100.0 } else { 0.0 }))
            .collect()
    }
}

/// Rebuilds every served window from the responses' window and epoch tags
/// (admission is FIFO, so submission order within a window is serve order)
/// and recomputes it with `process_batch_with_catalog_at` on that epoch's
/// catalog, replayed sequentially from the initial strategies and the
/// committed epochs.
fn score(
    arrivals: &[Arrival],
    drive: &Drive,
    initial: &[Strategy],
    epochs: &[ChurnEpoch],
    models: &ModelLibrary,
) -> Result<Scored, Box<dyn Error>> {
    let mut violations = Vec::new();
    let mut by_id: Vec<Option<&StreamResponse>> = vec![None; arrivals.len()];
    for response in &drive.responses {
        match by_id.get_mut(usize::try_from(response.id)?) {
            Some(slot @ None) => *slot = Some(response),
            Some(Some(_)) => violations.push(format!("request {} answered twice", response.id)),
            None => violations.push(format!("response for unknown request {}", response.id)),
        }
    }
    // Served windows by sequence number: epoch, quality and stream ids.
    let mut windows: BTreeMap<u64, (u64, ServiceQuality, Vec<u64>)> = BTreeMap::new();
    let mut unanswered = 0;
    for (id, response) in by_id.iter().enumerate() {
        let Some(response) = response else {
            violations.push(format!("request {id} got no response"));
            unanswered += 1;
            continue;
        };
        if let StreamOutcome::Served { quality, epoch, .. } = response.outcome {
            let window = windows
                .entry(response.window)
                .or_insert_with(|| (epoch, quality, Vec::new()));
            if (window.0, window.1) != (epoch, quality) {
                violations.push(format!(
                    "window {} mixes epochs or qualities",
                    response.window
                ));
            }
            window.2.push(id as u64);
        }
    }

    let layer = StratRec::new(serve_config().stratrec);
    let pdf = AvailabilityPdf::certain(AVAILABILITY);
    let mut catalog = StrategyCatalog::with_policy(initial.to_vec(), RebuildPolicy::default());
    let mut next_epoch = 0;
    let mut correct = vec![false; arrivals.len()];
    let (mut satisfied, mut served) = (0, 0);
    let mut checked = Vec::with_capacity(windows.len());
    for (seq, (epoch, quality, ids)) in windows {
        while catalog.epoch() < epoch && next_epoch < epochs.len() {
            // Compaction policies count applied epochs from 1.
            epochs[next_epoch].apply_with_compaction(&mut catalog, COMPACT, next_epoch + 1);
            next_epoch += 1;
        }
        if catalog.epoch() != epoch {
            violations.push(format!(
                "window {seq} names epoch {epoch}, which the committed epochs do not reach"
            ));
            continue;
        }
        let requests: Vec<DeploymentRequest> = ids
            .iter()
            .map(|&id| arrivals[id as usize].request.clone())
            .collect();
        let report =
            layer.process_batch_with_catalog_at(&requests, &catalog, models, &pdf, quality)?;
        let mut expected: Vec<Option<ServedAnswer>> = vec![None; requests.len()];
        for recommendation in &report.batch.satisfied {
            expected[recommendation.request_index] =
                Some(ServedAnswer::Recommended(recommendation.clone()));
        }
        for alternative in &report.alternatives {
            expected[alternative.request_index] =
                Some(ServedAnswer::Alternative(alternative.clone()));
        }
        for (&id, expected) in ids.iter().zip(&expected) {
            let id = id as usize;
            if let Some(StreamOutcome::Served { answer, .. }) = by_id[id].map(|r| &r.outcome) {
                correct[id] = expected.as_ref() == Some(answer);
            }
        }
        satisfied += report.batch.satisfied.len() as u64;
        served += requests.len() as u64;
        checked.push(Window {
            seq,
            epoch,
            quality,
            ids,
            requests,
            expected: report,
        });
    }

    let mut latency = Vec::with_capacity(arrivals.len());
    let mut ok = Vec::with_capacity(arrivals.len());
    let mut wrong = 0;
    for (id, response) in by_id.iter().enumerate() {
        let total = drive.late[id] + response.map_or(LIMIT, |r| r.latency);
        let served = response.is_some_and(|r| r.outcome.is_served());
        if served && !correct[id] {
            wrong += 1;
        }
        latency.push(total);
        ok.push(correct[id] && total <= LIMIT);
    }
    Ok(Scored {
        windows: checked,
        latency,
        ok,
        wrong,
        unanswered,
        satisfied,
        served,
        violations,
    })
}

/// The highest rung of the fixed ladder at which at least 99 % of requests
/// got a correct answer within the limit and the queue did not grow (the
/// controller never degraded). Stops at the first rung that fails.
fn capacity_hz(args: &Args, instance: &ChurnInstance) -> Result<f64, Box<dyn Error>> {
    let cell = Arc::new(ConcurrentCatalog::new(
        instance.catalog(RebuildPolicy::default()),
    ));
    let mut capacity = 0.0;
    for (rung, &rate_hz) in LADDER_HZ.iter().enumerate() {
        let arrivals = arrivals(rate_hz, RUNG, args.seed.wrapping_add(rung as u64 + 1));
        let handle = start_server(Arc::clone(&cell), &instance.models);
        let drive = drive(handle, &arrivals, None, RUNG)?;
        let scored = score(&arrivals, &drive, &instance.initial, &[], &instance.models)?;
        let ok_share = scored.ok_count() as f64 / arrivals.len().max(1) as f64;
        let calm = drive.stats.degraded_windows == 0 && scored.violations.is_empty();
        eprintln!(
            "stratbench: capacity rung {rate_hz} req/s: {:.2} % ok, {} wrong, {} degraded windows",
            100.0 * ok_share,
            scored.wrong,
            drive.stats.degraded_windows
        );
        if ok_share < RUNG_OK_SHARE || !calm {
            break;
        }
        capacity = rate_hz;
    }
    Ok(capacity)
}

pub fn run(mode: Mode, args: &Args, dirs: &RunDir) -> Result<Outcome, Box<dyn Error>> {
    let horizon = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for repeat in 0..SETUP_REPEATS {
        let dir = dirs.path(&format!("durable-{repeat}"));
        let begun = Instant::now();
        let built = setup(mode, args, &dir)?;
        setup_s.push(begun.elapsed().as_secs_f64());
        if repeat + 1 < SETUP_REPEATS {
            let _ = built.handle.shutdown();
            drop(built.durable);
            std::fs::remove_dir_all(&dir)?;
        } else {
            fixture = Some((built, dir));
        }
    }
    let (
        Fixture {
            instance,
            arrivals,
            durable,
            handle,
        },
        dir,
    ) = fixture.expect("at least one setup runs");

    let writer = (mode == Mode::Churn).then_some((&durable, instance.epochs.as_slice()));
    let drive = drive(handle, &arrivals, writer, horizon)?;
    let committed = &instance.epochs[..drive.commits.len()];
    let published = durable.pin();
    drop(durable);
    let recovery = recover_and_compare(&dir, published.catalog())?;

    let scored = score(
        &arrivals,
        &drive,
        &instance.initial,
        committed,
        &instance.models,
    )?;
    let late_p99_ms = percentile(&sorted(drive.late.iter().map(|&l| ms(l)).collect()), 0.99);
    let satisfied_ratio = scored.satisfied as f64 / scored.served.max(1) as f64;
    let mut violations = scored.violations.clone();
    violations.extend(recovery.violations.iter().cloned());
    if late_p99_ms > LATE_SHARE_OF_LIMIT * ms(LIMIT) {
        violations.push(format!(
            "the generator ran {late_p99_ms:.2} ms late at p99, over {:.0} % of the limit",
            100.0 * LATE_SHARE_OF_LIMIT
        ));
    }
    if !(SATISFIED_BAND.0..=SATISFIED_BAND.1).contains(&satisfied_ratio) {
        violations.push(format!(
            "the request mix satisfied {satisfied_ratio:.3} of served requests, outside {SATISFIED_BAND:?}"
        ));
    }

    let latency = scored.latency_samples(&arrivals);
    let whole_run = sorted(latency.iter().map(|&(_, ms)| ms).collect());
    let fastest_stretch = |q: f64| {
        fastest(&per_stretch(&latency, |values| {
            percentile(&sorted(values), q)
        }))
    };
    let ok_requests = scored.ok_count();
    let attempted = arrivals.len() as u64 + committed.len() as u64;
    // A failed operation is one the program did not answer: no response,
    // or a typed pipeline failure. Sheds, wrong answers and late answers
    // depend on the host's timing, so they are measured by `ok_pct` and
    // the per-layer counts instead of counted here.
    let failed = scored.unanswered + drive.stats.failed;
    eprintln!(
        "stratbench: {} requests, {} ok, {} wrong, {} shed, {} failed in the pipeline, {} degraded windows; \
         {} windows, satisfied ratio {satisfied_ratio:.3}; {} epochs committed; generator late p99 {late_p99_ms:.3} ms; \
         whole-run latency p50 {:.3} ms, p99 {:.3} ms",
        arrivals.len(),
        ok_requests,
        scored.wrong,
        drive.stats.shed_admission + drive.stats.shed_deadline,
        drive.stats.failed,
        drive.stats.degraded_windows,
        scored.windows.len(),
        committed.len(),
        percentile(&whole_run, 0.5),
        percentile(&whole_run, 0.99),
    );

    let metrics = if args.trace {
        let capacity_hz = match mode {
            Mode::Steady => capacity_hz(args, &instance)?,
            Mode::Churn => 0.0,
        };
        let live = LiveFigures {
            served_latency: scored
                .windows
                .iter()
                .flat_map(|w| w.ids.iter().map(|&id| (w.seq, scored.latency[id as usize])))
                .collect(),
            shed: drive.stats.shed_admission + drive.stats.shed_deadline,
            degraded_windows: drive.stats.degraded_windows,
            wrong_answers: scored.wrong,
            capacity_hz,
            late_p99_ms,
            commits: drive.commits.clone(),
            recover: recovery.median,
        };
        let replay = Replay {
            config: serve_config().stratrec,
            models: &instance.models,
            availability: AvailabilityPdf::certain(AVAILABILITY).expectation(),
            initial: &instance.initial,
            epochs: committed,
            compact: COMPACT,
            windows: &scored.windows,
        };
        let (metrics, replay_violations) = traced_replay(&replay, &live, dirs)?;
        violations.extend(replay_violations);
        metrics
    } else {
        vec![
            Metric::new("setup_s", "s", median(&setup_s)),
            Metric::new("latency_p50_ms", "ms", fastest_stretch(0.5)),
            Metric::new("latency_p99_ms", "ms", fastest_stretch(0.99)),
            Metric::new(
                "ok_pct",
                "%",
                median(&per_stretch(&scored.ok_samples(&arrivals), |ok| {
                    ok.iter().sum::<f64>() / ok.len() as f64
                })),
            ),
        ]
    };
    for violation in &violations {
        eprintln!("stratbench: check failed: {violation}");
    }
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
