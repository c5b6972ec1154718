//! Serving throughput under churn: N lock-free snapshot readers racing one
//! writer.
//!
//! Reuses the workload crate's churn-vs-serve stress harness
//! ([`stratrec_workload::stress::run_churn_stress`]): one writer folds the
//! scenario's epoch stream into published snapshots while `N` reader
//! threads keep serving the standing batch cold from the latest snapshot
//! they pinned, as the streaming server does. The measurement is
//! **serves per second across all readers** as the reader count grows —
//! the scaling claim of the epoch-snapshot design is that readers never
//! block on the writer or on each other, so aggregate throughput should
//! grow with cores rather than flatten at one reader's rate.
//!
//! Emits `BENCH_serving.json` at the workspace root (reader-count sweep,
//! serves/sec, reads split per reader, writer epochs) and registers a
//! criterion smoke wrapper so the CI bench leg compiles and exercises the
//! same path. The sweep itself needs ≥ 2 hardware threads to say anything
//! about scaling; the JSON records `available_parallelism` so a cramped
//! runner's numbers are not mistaken for contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use stratrec_core::batch::BatchObjective;
use stratrec_core::catalog::RebuildPolicy;
use stratrec_core::stratrec::{StratRec, StratRecConfig};
use stratrec_core::workforce::AggregationMode;
use stratrec_workload::churn::{ChurnInstance, ChurnScenario, CompactPolicy};
use stratrec_workload::stress::run_churn_stress;

/// The serving scenario: enough catalog to make a serve non-trivial, enough
/// epochs that readers genuinely pin several snapshots mid-run.
fn serving_scenario() -> ChurnInstance {
    ChurnScenario {
        initial_strategies: 2_000,
        epochs: 6,
        inserts_per_epoch: 24,
        retires_per_epoch: 20,
        batch_size: 6,
        k: 5,
        compact: CompactPolicy::EveryNEpochs(3),
        ..ChurnScenario::default()
    }
    .materialize()
}

fn serving_layer(instance: &ChurnInstance) -> StratRec {
    StratRec::new(StratRecConfig {
        k: instance.k,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Sum,
    })
}

struct SweepPoint {
    readers: usize,
    serves_per_sec: f64,
    total_reads: usize,
    elapsed_ms: f64,
    final_epoch: u64,
    published_epochs: u64,
}

/// One stress run per rep; keeps the best (highest-throughput) rep, the
/// usual benchmarking discipline for throughput under scheduler noise.
fn measure_readers(
    instance: &ChurnInstance,
    layer: &StratRec,
    readers: usize,
    reps: usize,
) -> SweepPoint {
    let mut best: Option<SweepPoint> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let history =
            run_churn_stress(instance, layer, RebuildPolicy::threshold(6), readers).unwrap();
        let elapsed = start.elapsed();
        let total_reads = history.total_reads();
        let point = SweepPoint {
            readers,
            serves_per_sec: total_reads as f64 / elapsed.as_secs_f64(),
            total_reads,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            final_epoch: history.final_epoch,
            published_epochs: history.stats.published_epochs,
        };
        if best
            .as_ref()
            .is_none_or(|b| point.serves_per_sec > b.serves_per_sec)
        {
            best = Some(point);
        }
    }
    best.expect("at least one rep")
}

fn bench_serving_scaling(c: &mut Criterion) {
    let smoke = stratrec_bench::artifact::smoke_mode();
    let reps = if smoke { 1 } else { 3 };
    let instance = serving_scenario();
    let layer = serving_layer(&instance);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut json_rows = Vec::new();
    for readers in [1_usize, 2, 4] {
        let point = measure_readers(&instance, &layer, readers, reps);
        eprintln!(
            "serving_scaling/{} readers: {:.0} serves/s ({} serves in {:.1} ms, \
             final epoch {}, {} published)",
            point.readers,
            point.serves_per_sec,
            point.total_reads,
            point.elapsed_ms,
            point.final_epoch,
            point.published_epochs,
        );
        json_rows.push(format!(
            "    {{\"readers\": {}, \"serves_per_sec\": {:.0}, \"total_reads\": {}, \
             \"elapsed_ms\": {:.2}, \"final_epoch\": {}, \"published_epochs\": {}}}",
            point.readers,
            point.serves_per_sec,
            point.total_reads,
            point.elapsed_ms,
            point.final_epoch,
            point.published_epochs,
        ));
    }

    // Criterion-visible wrapper: times one full stress run at each reader
    // count so the regular bench leg tracks regressions in the serve path.
    let mut group = c.benchmark_group("serving_scaling");
    group.sample_size(10);
    for readers in [1_usize, 2] {
        group.bench_with_input(
            BenchmarkId::new("churn_stress", readers),
            &readers,
            |b, &readers| {
                b.iter(|| {
                    let history =
                        run_churn_stress(&instance, &layer, RebuildPolicy::threshold(6), readers)
                            .unwrap();
                    black_box(history.total_reads())
                });
            },
        );
    }
    group.finish();

    let json = format!(
        "{{\n  \"bench\": \"serving_scaling\",\n  \"scenario\": {{\"initial_strategies\": 2000, \
         \"epochs\": 6, \"standing_rows\": 6, \"k\": 5}},\n  \"smoke\": {smoke},\n  \
         \"available_parallelism\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    // Guarded: a smoke run never overwrites a committed real-run artifact,
    // and a failed write panics rather than letting CI archive stale data.
    stratrec_bench::artifact::write_json_artifact(path, &json, smoke);
}

criterion_group!(benches, bench_serving_scaling);
criterion_main!(benches);
