//! Streaming overload suite: the invariants of the admission-controlled
//! front-end under 2× sustainable load.
//!
//! The pins, in order:
//!
//! 1. **Exactly one typed outcome per request.** An open-loop flood at
//!    roughly twice what the server can sustain — with a churn writer
//!    publishing catalog epochs underneath — must resolve every arrival to
//!    exactly one served / shed / failed response. Never a silent drop,
//!    never a duplicate.
//! 2. **Every answer is the sequential pipeline's.** Every recorded
//!    window must be bit-identical to the sequential pipeline (exact ADPaR)
//!    replayed over the snapshot it pinned. Half the stream is satisfiable
//!    and half infeasible, so equal-sized consecutive windows carry
//!    different answers, and the server holds no delta subscription while
//!    it runs.
//! 3. **The calm tail is served.** Once the flood stops and the queue
//!    drains, every later arrival is served, not shed.
//! 4. **Deadlines are honored.** Under calm load, every response is served
//!    and p99 latency sits within the deadline budget.
//! 5. **Open-loop determinism.** The arrival schedule is a pure function of
//!    its scenario — byte-identical across runs and across threads, which
//!    is what the CI `RUST_TEST_THREADS` matrix leans on — and pinned to
//!    recorded fingerprints, including the stream the serving benchmark
//!    replays.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stratrec::core::availability::AvailabilityPdf;
use stratrec::core::catalog::{ConcurrentCatalog, RebuildPolicy};
use stratrec::core::model::{DeploymentParameters, DeploymentRequest};
use stratrec::core::prelude::{ServiceQuality, StratRec, StratRecConfig};
use stratrec::serve::{
    AdmissionConfig, ServeConfig, ServerHandle, StreamOutcome, StreamRequest, StreamServer,
};
use stratrec::workload::{
    schedule_fingerprint, Arrival, BurstPhase, ChurnInstance, ChurnScenario, OpenLoopScenario,
};

fn churned_instance() -> ChurnInstance {
    ChurnScenario {
        initial_strategies: 120,
        epochs: 6,
        inserts_per_epoch: 10,
        retires_per_epoch: 8,
        batch_size: 6,
        k: 3,
        seed: 13,
        ..ChurnScenario::default()
    }
    .materialize()
}

fn overload_config() -> ServeConfig {
    ServeConfig {
        admission: AdmissionConfig {
            max_batch: 8,
            queue_capacity: 24,
            initial_estimate_ms: 1,
        },
        stratrec: StratRecConfig {
            k: 3,
            ..StratRecConfig::default()
        },
        record_windows: true,
    }
}

/// A burst-then-calm schedule: the 80× burst (24 000 req/s) is far beyond
/// what windows of at most 8 drain in a debug build, where CI runs this
/// suite, so the 24-deep queue must overflow; the calm tail after the burst
/// ends (450 ms) shows that shedding alone drains the backlog.
///
/// The generator's requests (the paper's `[0.625, 1]³` range) are all
/// unsatisfiable on this catalog, so about half are redrawn from an easy
/// box (quality in [0.3, 0.6], cost and latency in [0.7, 1.0]): windows of
/// the same size then differ in which requests the Aggregator satisfies.
fn overload_schedule() -> Vec<Arrival> {
    let mut arrivals = OpenLoopScenario {
        base_rate_hz: 300.0,
        duration_ms: 900,
        bursts: vec![BurstPhase {
            start_ms: 100,
            end_ms: 450,
            factor: 80.0,
        }],
        tenants: 4,
        zipf_s: 1.0,
        heavy_tenant: Some(0),
        heavy_factor: 5.0,
        deadline_ms: 40,
        seed: 99,
    }
    .materialize();
    let mut rng = StdRng::seed_from_u64(99);
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

/// Arrival time from which the overload schedule's calm tail must be
/// served in full.
const CALM_TAIL: Duration = Duration::from_millis(600);

/// Replays `arrivals` against a fresh server over a churned catalog and
/// returns everything observable. The churn writer publishes one epoch per
/// ~120 ms, racing the service thread's per-window snapshot pins.
fn run_soak(
    instance: &ChurnInstance,
    config: ServeConfig,
    arrivals: &[Arrival],
) -> (
    stratrec::serve::ServerStats,
    Vec<stratrec::serve::StreamResponse>,
) {
    let catalog = Arc::new(ConcurrentCatalog::new(
        instance.catalog(RebuildPolicy::default()),
    ));
    let pdf = AvailabilityPdf::certain(instance.availability.value());
    let handle =
        StreamServer::new(config).start(Arc::clone(&catalog), instance.models.clone(), pdf);

    let mut responses = Vec::with_capacity(arrivals.len());
    std::thread::scope(|scope| {
        let writer_catalog = &catalog;
        scope.spawn(move || {
            for i in 0..instance.epochs.len() {
                std::thread::sleep(Duration::from_millis(120));
                let _ = writer_catalog.update(|catalog| instance.apply_epoch(i, catalog));
            }
        });
        replay(&handle, arrivals, &mut responses);
        assert_eq!(
            catalog.stats().subscribers,
            0,
            "a running server holds no delta subscription"
        );
    });
    let (stats, rest) = handle.shutdown();
    responses.extend(rest);
    (stats, responses)
}

/// Open-loop replay: submissions follow the schedule's clock, not the
/// server's. Responses are drained opportunistically along the way.
fn replay(
    handle: &ServerHandle,
    arrivals: &[Arrival],
    responses: &mut Vec<stratrec::serve::StreamResponse>,
) {
    let start = Instant::now();
    for arrival in arrivals {
        let now = start.elapsed();
        if arrival.at > now {
            std::thread::sleep(arrival.at - now);
        }
        let submitted = handle.submit(StreamRequest {
            id: arrival.id,
            tenant: arrival.tenant,
            deadline: arrival.deadline,
            request: arrival.request.clone(),
        });
        assert!(submitted, "the service thread must outlive the stream");
        responses.extend(handle.drain_responses());
    }
}

#[test]
fn overload_resolves_every_request_to_exactly_one_typed_outcome() {
    let instance = churned_instance();
    let arrivals = overload_schedule();
    assert!(arrivals.len() > 1_000, "the flood must be a flood");
    let (stats, responses) = run_soak(&instance, overload_config(), &arrivals);

    // Exactly one response per arrival — no silent drops, no duplicates.
    assert_eq!(responses.len(), arrivals.len());
    let mut seen = vec![false; arrivals.len()];
    for response in &responses {
        let id = usize::try_from(response.id).unwrap();
        assert!(!seen[id], "request {id} resolved twice");
        seen[id] = true;
    }
    assert!(seen.iter().all(|&seen| seen));
    assert_eq!(stats.responses(), arrivals.len() as u64);

    // Every outcome is one of the typed kinds, and sheds carry the typed
    // admission/deadline errors (never some catch-all).
    for response in &responses {
        match &response.outcome {
            StreamOutcome::Served { .. } | StreamOutcome::Failed(_) => {}
            StreamOutcome::Shed(error) => assert!(
                matches!(
                    error,
                    stratrec::core::error::StratRecError::AdmissionRejected { .. }
                        | stratrec::core::error::StratRecError::DeadlineExceeded { .. }
                ),
                "shed responses carry a typed shed error, got {error:?}"
            ),
        }
    }

    // The burst actually overloaded the server: shedding engaged. (The burst
    // rate is sized far above what windows of at most 8 drain in a debug
    // build; see `overload_schedule`.)
    let summary = format!(
        "windows={} served={} shed_deadline={} shed_admission={} failed={} peak={}",
        stats.windows,
        stats.served,
        stats.shed_deadline,
        stats.shed_admission,
        stats.failed,
        stats.peak_queue_depth,
    );
    assert!(
        stats.shed_deadline + stats.shed_admission > 0,
        "an 80× burst against a 24-deep queue must shed: {summary}"
    );
    assert!(
        stats.served > 0,
        "the calm phases must still be served: {summary}"
    );

    // The calm tail is served: shedding alone drains the burst's backlog,
    // so every arrival from `CALM_TAIL` on (150 ms after the burst ends,
    // almost four 40 ms deadlines) is served, not shed.
    assert!(arrivals.iter().any(|arrival| arrival.at >= CALM_TAIL));
    for response in &responses {
        let arrival = &arrivals[usize::try_from(response.id).unwrap()];
        assert!(
            arrival.at < CALM_TAIL || response.outcome.is_served(),
            "request {} arrived at {:?}, after the burst drained, and was not served: \
             {:?} ({summary})",
            response.id,
            arrival.at,
            response.outcome
        );
    }
    assert!(stats.failed == 0, "churned strategies all carry models");
}

#[test]
fn every_window_reenacts_bit_identically() {
    let instance = churned_instance();
    let arrivals = overload_schedule();
    let (stats, _) = run_soak(&instance, overload_config(), &arrivals);
    let pdf = AvailabilityPdf::certain(instance.availability.value());

    // Every window must be bit-identical to the sequential pipeline replayed
    // over the very snapshot it pinned — no window serves another window's
    // requirements. Checked after the fact with no help from the server.
    let layer = StratRec::new(overload_config().stratrec);
    for record in &stats.trace {
        let replayed = layer
            .process_batch_with_catalog_at(
                &record.requests,
                record.snapshot.catalog(),
                &instance.models,
                &pdf,
                ServiceQuality::Full,
            )
            .expect("the recorded window served cleanly the first time");
        assert_eq!(
            replayed, record.report,
            "window {} (epoch {}) diverged from its reenactment",
            record.window, record.epoch
        );
    }
    let satisfied: usize = stats
        .trace
        .iter()
        .map(|record| record.report.batch.satisfied.len())
        .sum();
    let served: usize = stats.trace.iter().map(|record| record.requests.len()).sum();
    assert_eq!(
        served as u64, stats.served,
        "every served request was recorded"
    );
    assert!(
        satisfied > 0 && satisfied < served,
        "the mix must satisfy some requests and not others: {satisfied} of {served}"
    );
}

#[test]
fn calm_load_is_served_at_full_quality_within_the_deadline_at_p99() {
    let instance = churned_instance();
    // ~60 req/s with a generous 250 ms budget: no overload anywhere.
    let arrivals = OpenLoopScenario {
        base_rate_hz: 60.0,
        duration_ms: 700,
        bursts: Vec::new(),
        deadline_ms: 250,
        seed: 5,
        ..OpenLoopScenario::default()
    }
    .materialize();
    let config = ServeConfig {
        record_windows: false,
        ..overload_config()
    };
    let (stats, responses) = run_soak(&instance, config, &arrivals);

    assert_eq!(responses.len(), arrivals.len());
    assert_eq!(stats.served, arrivals.len() as u64, "{stats:?}");
    assert_eq!(stats.shed_deadline + stats.shed_admission, 0);

    let mut latencies: Vec<Duration> = responses.iter().map(|r| r.latency).collect();
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() - 1) * 99 / 100];
    assert!(
        p99 <= Duration::from_millis(250),
        "calm-load p99 {p99:?} blew the 250 ms budget"
    );
}

#[test]
fn open_loop_schedules_are_byte_identical_across_threads() {
    // Satellite pin: schedule generation is a pure single-threaded pass, so
    // the same scenario must produce the same bytes no matter how many
    // threads the test harness runs with (`RUST_TEST_THREADS=1` vs the
    // default) or which thread materializes it.
    let scenario = OpenLoopScenario {
        base_rate_hz: 1_200.0,
        duration_ms: 600,
        bursts: vec![
            BurstPhase {
                start_ms: 50,
                end_ms: 200,
                factor: 6.0,
            },
            BurstPhase {
                start_ms: 300,
                end_ms: 350,
                factor: 0.0,
            },
        ],
        tenants: 6,
        zipf_s: 1.0,
        heavy_tenant: Some(1),
        heavy_factor: 8.0,
        deadline_ms: 30,
        seed: 2_020,
    };
    let reference = scenario.materialize();
    let reference_print = schedule_fingerprint(&reference);

    let mut prints = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let scenario = scenario.clone();
                scope.spawn(move || {
                    let schedule = scenario.materialize();
                    (schedule_fingerprint(&schedule), schedule)
                })
            })
            .collect();
        for handle in handles {
            prints.push(handle.join().unwrap());
        }
    });
    for (print, schedule) in &prints {
        assert_eq!(schedule, &reference, "schedules must be byte-identical");
        assert_eq!(*print, reference_print);
    }

    // And the fingerprint is actually sensitive: a different seed moves it.
    let moved = OpenLoopScenario {
        seed: 2_021,
        ..scenario
    }
    .materialize();
    assert_ne!(schedule_fingerprint(&moved), reference_print);
}

#[test]
fn open_loop_schedules_match_their_pinned_fingerprints() {
    // The stream stratbench's `arrivals()` builds for both serving
    // workloads (1000 req/s for 25 s, 50 ms deadlines, seed 1), and a
    // skewed one whose heavy tenant and burst exercise every branch of the
    // tenant weights. The benchmark's satisfied-ratio band and per-answer
    // check are calibrated on these exact requests, so a change that moves
    // a single arrival, tenant draw or parameter bit fails here.
    let benchmark = OpenLoopScenario {
        base_rate_hz: 1_000.0,
        duration_ms: 25_000,
        deadline_ms: 50,
        seed: 1,
        ..OpenLoopScenario::default()
    };
    let skewed = OpenLoopScenario {
        base_rate_hz: 800.0,
        duration_ms: 2_000,
        bursts: vec![BurstPhase {
            start_ms: 500,
            end_ms: 900,
            factor: 3.0,
        }],
        tenants: 5,
        zipf_s: 1.3,
        heavy_tenant: Some(3),
        heavy_factor: 7.5,
        deadline_ms: 40,
        seed: 11,
    };
    for (name, scenario, pinned) in [
        ("benchmark", benchmark, 2_849_511_739_216_484_240),
        ("skewed", skewed, 8_002_399_916_558_791_483),
    ] {
        let schedule = scenario.materialize();
        assert_eq!(
            schedule_fingerprint(&schedule),
            pinned,
            "the {name} schedule ({} arrivals) moved",
            schedule.len()
        );
    }
}
