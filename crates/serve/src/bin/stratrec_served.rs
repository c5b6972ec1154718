//! `stratrec-served` — the streaming daemon and its self-checking soak.
//!
//! The binary wires the full streaming stack together: a churned
//! [`ConcurrentCatalog`], the [`StreamServer`] service thread, and the
//! open-loop arrival generator. It runs in two stages:
//!
//! 1. **Calibrate** — closed-loop flights of `max_batch` requests measure
//!    the sustainable serving throughput on this machine (skipped when
//!    `--rate-hz` pins the offered rate explicitly). The server takes a
//!    window whenever it is free, so a flight may be served as several
//!    windows: whatever had arrived when it started, then the rest.
//! 2. **Soak** — an open-loop Poisson stream at `--overload-factor` times
//!    the sustainable rate is replayed against the server for
//!    `--duration-ms`, while a churn writer publishes catalog epochs
//!    concurrently.
//!
//! The soak is self-checking: every arrival must come back as exactly one
//! typed response (served, shed or failed — never silently dropped) and the
//! service thread must not panic. Any violation exits non-zero, which is
//! what the CI overload leg keys on. A JSON summary with tail latencies
//! goes to stdout.
//!
//! ```text
//! stratrec-served [--strategies N] [--churn-epochs N] [--duration-ms MS]
//!                 [--overload-factor F] [--deadline-ms MS] [--seed S]
//!                 [--calibrate-requests N] [--rate-hz HZ]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::catalog::{ConcurrentCatalog, RebuildPolicy};
use stratrec_core::model::DeploymentRequest;
use stratrec_serve::{ServeConfig, StreamRequest, StreamResponse, StreamServer};
use stratrec_workload::{ChurnInstance, ChurnScenario, OpenLoopScenario};

struct Args {
    strategies: usize,
    churn_epochs: usize,
    duration_ms: u64,
    overload_factor: f64,
    deadline_ms: u64,
    seed: u64,
    calibrate_requests: u64,
    rate_hz: Option<f64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            strategies: 400,
            churn_epochs: 8,
            duration_ms: 5_000,
            overload_factor: 2.0,
            deadline_ms: 250,
            seed: 42,
            calibrate_requests: 512,
            rate_hz: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--strategies" => args.strategies = parse(&value(&flag)?)?,
            "--churn-epochs" => args.churn_epochs = parse(&value(&flag)?)?,
            "--duration-ms" => args.duration_ms = parse(&value(&flag)?)?,
            "--overload-factor" => args.overload_factor = parse(&value(&flag)?)?,
            "--deadline-ms" => args.deadline_ms = parse(&value(&flag)?)?,
            "--seed" => args.seed = parse(&value(&flag)?)?,
            "--calibrate-requests" => args.calibrate_requests = parse(&value(&flag)?)?,
            "--rate-hz" => args.rate_hz = Some(parse(&value(&flag)?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("could not parse value {raw}"))
}

fn instance(args: &Args) -> ChurnInstance {
    ChurnScenario {
        initial_strategies: args.strategies,
        epochs: args.churn_epochs,
        inserts_per_epoch: args.strategies / 20 + 1,
        retires_per_epoch: args.strategies / 25 + 1,
        batch_size: 8,
        seed: args.seed,
        ..ChurnScenario::default()
    }
    .materialize()
}

fn stream_request(
    id: u64,
    deadline: Duration,
    tenant: usize,
    request: DeploymentRequest,
) -> StreamRequest {
    StreamRequest {
        id,
        tenant,
        deadline,
        request,
    }
}

/// Closed-loop throughput measurement: flights of `max_batch` requests with
/// generous deadlines, each flight submitted only after the previous one
/// fully resolved, so the server is busy but never backlogged beyond one
/// flight.
fn calibrate(args: &Args, instance: &ChurnInstance, config: ServeConfig) -> f64 {
    let catalog = Arc::new(ConcurrentCatalog::new(
        instance.catalog(RebuildPolicy::default()),
    ));
    let pdf = AvailabilityPdf::certain(instance.availability.value());
    let handle = StreamServer::new(config).start(catalog, instance.models.clone(), pdf);
    let flight = config.admission.max_batch as u64;
    let deadline = Duration::from_secs(60);
    let started = Instant::now();
    let mut submitted = 0_u64;
    let mut resolved = 0_u64;
    while submitted < args.calibrate_requests {
        for _ in 0..flight.min(args.calibrate_requests - submitted) {
            let template = &instance.standing[(submitted as usize) % instance.standing.len()];
            let request = DeploymentRequest::new(submitted, template.task_type, template.params);
            assert!(
                handle.submit(stream_request(submitted, deadline, 0, request)),
                "calibration server exited early"
            );
            submitted += 1;
        }
        while resolved < submitted {
            if handle.recv_timeout(Duration::from_secs(10)).is_some() {
                resolved += 1;
            } else {
                panic!("calibration response timed out");
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-6);
    let (stats, rest) = handle.shutdown();
    assert_eq!(resolved + rest.len() as u64, stats.responses());
    #[allow(clippy::cast_precision_loss)]
    let hz = resolved as f64 / elapsed;
    hz
}

fn percentile_ms(sorted_nanos: &[u128], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let index = (((sorted_nanos.len() - 1) as f64) * q).round() as usize;
    #[allow(clippy::cast_precision_loss)]
    let ms = sorted_nanos[index] as f64 / 1e6;
    ms
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("stratrec-served: {message}");
            return std::process::ExitCode::from(2);
        }
    };
    let instance = instance(&args);
    let config = ServeConfig::default();

    let sustainable_hz = match args.rate_hz {
        Some(hz) => hz,
        None => calibrate(&args, &instance, config),
    };
    let offered_hz = (sustainable_hz * args.overload_factor).max(1.0);

    let scenario = OpenLoopScenario {
        base_rate_hz: offered_hz,
        duration_ms: args.duration_ms,
        deadline_ms: args.deadline_ms,
        seed: args.seed,
        ..OpenLoopScenario::default()
    };
    let arrivals = scenario.materialize();

    let catalog = Arc::new(ConcurrentCatalog::new(
        instance.catalog(RebuildPolicy::default()),
    ));
    let pdf = AvailabilityPdf::certain(instance.availability.value());
    let handle =
        StreamServer::new(config).start(Arc::clone(&catalog), instance.models.clone(), pdf);

    let mut responses: Vec<StreamResponse> = Vec::with_capacity(arrivals.len());
    let mut submit_failures = 0_u64;
    std::thread::scope(|scope| {
        // Churn writer: one published epoch every duration/(epochs+1),
        // racing the service thread's per-window snapshot pins.
        let writer_catalog = &catalog;
        let writer_instance = &instance;
        let epoch_gap =
            Duration::from_millis(args.duration_ms / (args.churn_epochs as u64 + 1).max(1));
        scope.spawn(move || {
            for i in 0..writer_instance.epochs.len() {
                std::thread::sleep(epoch_gap);
                let _ = writer_catalog.update(|catalog| writer_instance.apply_epoch(i, catalog));
            }
        });

        // Open-loop replay: arrivals follow the schedule's clock, never the
        // server's. Oversleeps self-correct because every due arrival is
        // submitted immediately on wake.
        let start = Instant::now();
        for arrival in &arrivals {
            let now = start.elapsed();
            if arrival.at > now {
                std::thread::sleep(arrival.at - now);
            }
            let request = stream_request(
                arrival.id,
                arrival.deadline,
                arrival.tenant,
                arrival.request.clone(),
            );
            if !handle.submit(request) {
                submit_failures += 1;
            }
            responses.extend(handle.drain_responses());
        }
    });

    let (stats, rest) = handle.shutdown();
    responses.extend(rest);

    // Invariant: every arrival resolved to exactly one typed response.
    let mut seen = vec![false; arrivals.len()];
    let mut duplicates = 0_u64;
    for response in &responses {
        let id = response.id as usize;
        if id >= seen.len() || seen[id] {
            duplicates += 1;
        } else {
            seen[id] = true;
        }
    }
    let missing = seen.iter().filter(|&&seen| !seen).count();

    let mut served_nanos: Vec<u128> = responses
        .iter()
        .filter(|r| r.outcome.is_served())
        .map(|r| r.latency.as_nanos())
        .collect();
    served_nanos.sort_unstable();

    println!(
        "{{\n  \"sustainable_hz\": {sustainable_hz:.1},\n  \"offered_hz\": {offered_hz:.1},\n  \
         \"arrivals\": {},\n  \"responses\": {},\n  \"served_full\": {},\n  \
         \"served_degraded\": {},\n  \"shed_deadline\": {},\n  \"shed_admission\": {},\n  \
         \"failed\": {},\n  \"windows\": {},\n  \"degraded_windows\": {},\n  \
         \"peak_queue_depth\": {},\n  \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \
         \"p999_ms\": {:.3}\n}}",
        arrivals.len(),
        responses.len(),
        stats.served_full,
        stats.served_degraded,
        stats.shed_deadline,
        stats.shed_admission,
        stats.failed,
        stats.windows,
        stats.degraded_windows,
        stats.peak_queue_depth,
        percentile_ms(&served_nanos, 0.50),
        percentile_ms(&served_nanos, 0.99),
        percentile_ms(&served_nanos, 0.999),
    );

    if submit_failures > 0 || missing > 0 || duplicates > 0 {
        eprintln!(
            "stratrec-served: invariant violated — {submit_failures} failed submissions, \
             {missing} missing responses, {duplicates} duplicate responses"
        );
        return std::process::ExitCode::from(1);
    }
    eprintln!(
        "stratrec-served: OK — {} arrivals, {} responses, zero lost",
        arrivals.len(),
        responses.len()
    );
    std::process::ExitCode::SUCCESS
}
