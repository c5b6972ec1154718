//! Streaming front-end: sustainable throughput and admitted-request tails.
//!
//! Three measurements against the `stratrec-serve` service thread:
//!
//! 1. **Max sustainable throughput** — closed-loop flights of `max_batch`
//!    requests (each flight submitted only after the previous one fully
//!    resolved), so the server runs flat out without ever building a
//!    backlog beyond one flight. The admission queue is work-conserving,
//!    so a flight is not one window: the server takes whatever has arrived
//!    as soon as it is free, and the rest of the flight forms the next
//!    window. This is the capacity number the overload soak multiplies.
//! 2. **Admitted-request latency** — an open-loop Poisson stream at ~30 %
//!    of the measured capacity (the generator shares the CPU with the
//!    server, so this stays calm even on one hardware thread); p50/p99/p999
//!    of the served responses' submit-to-response latency.
//! 3. **Overload behavior** — the same stream at 2× capacity: the share of
//!    requests served full vs degraded vs typed-shed, and whether the
//!    controller recovered by shutdown.
//!
//! Emits `BENCH_streaming.json` at the workspace root through the
//! smoke-overwrite guard, plus a criterion smoke wrapper so the CI bench
//! leg compiles and exercises the submit→serve→respond path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::catalog::ConcurrentCatalog;
use stratrec_core::model::DeploymentRequest;
use stratrec_core::prelude::{ServiceQuality, StratRecConfig};
use stratrec_serve::{ServeConfig, ServerHandle, ServerStats, StreamRequest, StreamServer};
use stratrec_workload::{BatchScenario, OpenLoopScenario};

const STRATEGIES: usize = 1_000;
const K: usize = 5;

fn serve_config() -> ServeConfig {
    ServeConfig {
        stratrec: StratRecConfig {
            k: K,
            ..StratRecConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn start_server(config: ServeConfig) -> ServerHandle {
    let instance = BatchScenario {
        batch_size: 1,
        strategy_count: STRATEGIES,
        k: K,
        seed: 2_020,
        ..BatchScenario::default()
    }
    .materialize();
    let catalog = Arc::new(ConcurrentCatalog::new(instance.catalog()));
    StreamServer::new(config).start(catalog, instance.models, AvailabilityPdf::certain(0.5))
}

fn request(id: u64, deadline: Duration) -> StreamRequest {
    use stratrec_core::model::{DeploymentParameters, TaskType};
    #[allow(clippy::cast_precision_loss)]
    let quality = 0.625 + 0.3 * ((id % 11) as f64 / 11.0);
    StreamRequest {
        id,
        tenant: (id % 4) as usize,
        deadline,
        request: DeploymentRequest::new(
            id,
            TaskType::SentenceTranslation,
            DeploymentParameters::clamped(quality, 0.85, 0.9),
        ),
    }
}

/// Closed-loop capacity: flights of `max_batch`, next flight only after the
/// previous fully resolved. Returns served requests per second.
fn measure_sustainable_hz(handle: &ServerHandle, total: u64, flight: u64) -> f64 {
    let deadline = Duration::from_secs(60);
    let start = Instant::now();
    let mut submitted = 0_u64;
    let mut resolved = 0_u64;
    while submitted < total {
        for _ in 0..flight.min(total - submitted) {
            assert!(handle.submit(request(submitted, deadline)));
            submitted += 1;
        }
        while resolved < submitted {
            assert!(
                handle.recv_timeout(Duration::from_secs(10)).is_some(),
                "closed-loop response timed out"
            );
            resolved += 1;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let hz = resolved as f64 / start.elapsed().as_secs_f64().max(1e-9);
    hz
}

struct OpenLoopOutcome {
    stats: ServerStats,
    arrivals: usize,
    responses: usize,
    /// Sorted submit-to-response latencies of served requests, in nanos.
    served_nanos: Vec<u128>,
}

/// Open-loop replay at `rate_hz` for `duration_ms` against a fresh server.
fn run_open_loop(rate_hz: f64, duration_ms: u64, deadline_ms: u64) -> OpenLoopOutcome {
    let arrivals = OpenLoopScenario {
        base_rate_hz: rate_hz,
        duration_ms,
        deadline_ms,
        seed: 77,
        ..OpenLoopScenario::default()
    }
    .materialize();
    let handle = start_server(serve_config());
    let mut responses = Vec::with_capacity(arrivals.len());
    let start = Instant::now();
    for arrival in &arrivals {
        let now = start.elapsed();
        if arrival.at > now {
            std::thread::sleep(arrival.at - now);
        }
        assert!(handle.submit(StreamRequest {
            id: arrival.id,
            tenant: arrival.tenant,
            deadline: arrival.deadline,
            request: arrival.request.clone(),
        }));
        responses.extend(handle.drain_responses());
    }
    let (stats, rest) = handle.shutdown();
    responses.extend(rest);
    let mut served_nanos: Vec<u128> = responses
        .iter()
        .filter(|r| r.outcome.is_served())
        .map(|r| r.latency.as_nanos())
        .collect();
    served_nanos.sort_unstable();
    OpenLoopOutcome {
        stats,
        arrivals: arrivals.len(),
        responses: responses.len(),
        served_nanos,
    }
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

fn bench_streaming(c: &mut Criterion) {
    let smoke = stratrec_bench::artifact::smoke_mode();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // 1. Capacity.
    let config = serve_config();
    let handle = start_server(config);
    let calibrate_total: u64 = if smoke { 128 } else { 4_096 };
    let flight = config.admission.max_batch as u64;
    let sustainable_hz = measure_sustainable_hz(&handle, calibrate_total, flight);
    let (calib_stats, _) = handle.shutdown();
    assert_eq!(calib_stats.responses(), calibrate_total);
    eprintln!(
        "streaming: sustainable {sustainable_hz:.0} req/s (closed loop, flights of {flight})"
    );

    // 2. Tail latency at 30 % of closed-loop capacity. (Closed-loop flights
    // overlap submitter and server turn-taking, so on a single hardware
    // thread the concurrent open-loop capacity is roughly half the
    // closed-loop number; 30 % keeps the queue calm on any machine.)
    let latency_ms: u64 = if smoke { 250 } else { 2_000 };
    let latency_run = run_open_loop(sustainable_hz * 0.3, latency_ms, 1_000);
    assert_eq!(
        latency_run.arrivals, latency_run.responses,
        "no silent drops"
    );
    let (p50, p99, p999) = (
        percentile_ms(&latency_run.served_nanos, 0.50),
        percentile_ms(&latency_run.served_nanos, 0.99),
        percentile_ms(&latency_run.served_nanos, 0.999),
    );
    eprintln!(
        "streaming: 0.3x load — {} served, p50 {p50:.3} ms, p99 {p99:.3} ms, p999 {p999:.3} ms",
        latency_run.served_nanos.len()
    );

    // 3. Overload at 2×.
    let overload_ms: u64 = if smoke { 250 } else { 1_500 };
    let overload_run = run_open_loop(sustainable_hz * 2.0, overload_ms, 100);
    assert_eq!(
        overload_run.arrivals, overload_run.responses,
        "overload must not lose responses"
    );
    let o = &overload_run.stats;
    eprintln!(
        "streaming: 2.0x load — {} arrivals: {} full, {} degraded, {} shed-admission, \
         {} shed-deadline, {} failed, recovered={}",
        overload_run.arrivals,
        o.served_full,
        o.served_degraded,
        o.shed_admission,
        o.shed_deadline,
        o.failed,
        o.final_quality == ServiceQuality::Full,
    );

    // Criterion-visible wrapper: one closed-loop flight per iteration
    // against a standing server, so the regular bench leg tracks the
    // submit→window→serve→respond path.
    let handle = start_server(config);
    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);
    let mut next_id = 0_u64;
    group.bench_function("closed_loop_flight", |b| {
        b.iter(|| {
            for _ in 0..flight {
                assert!(handle.submit(request(next_id, Duration::from_secs(60))));
                next_id += 1;
            }
            for _ in 0..flight {
                black_box(handle.recv_timeout(Duration::from_secs(10)).unwrap());
            }
        });
    });
    group.finish();
    let _ = handle.shutdown();

    let json = format!(
        "{{\n  \"bench\": \"streaming\",\n  \"scenario\": {{\"strategies\": {STRATEGIES}, \
         \"k\": {K}, \"max_batch\": {flight}, \"queue_capacity\": {}}},\n  \
         \"smoke\": {smoke},\n  \"available_parallelism\": {cores},\n  \
         \"max_sustainable_hz\": {sustainable_hz:.1},\n  \"latency_at_0_3x\": {{\"served\": {}, \
         \"p50_ms\": {p50:.3}, \"p99_ms\": {p99:.3}, \"p999_ms\": {p999:.3}}},\n  \
         \"overload_at_2x\": {{\"arrivals\": {}, \"served_full\": {}, \"served_degraded\": {}, \
         \"shed_admission\": {}, \"shed_deadline\": {}, \"failed\": {}, \"degraded_windows\": {}, \
         \"peak_queue_depth\": {}, \"recovered\": {}}}\n}}\n",
        config.admission.queue_capacity,
        latency_run.served_nanos.len(),
        overload_run.arrivals,
        o.served_full,
        o.served_degraded,
        o.shed_admission,
        o.shed_deadline,
        o.failed,
        o.degraded_windows,
        o.peak_queue_depth,
        o.final_quality == ServiceQuality::Full,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    stratrec_bench::artifact::write_json_artifact(path, &json, smoke);
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
