//! Catalog maintenance under churn at the paper's scale (`|S| = 10 000`):
//! per-epoch full rebuild vs the mutable catalog's log-structured overlay.
//!
//! Each measured iteration replays the same epoch stream — insert/retire
//! churn followed by the epoch's eligibility queries — through both
//! maintenance disciplines:
//!
//! * **rebuild** — maintain a plain live `Vec<Strategy>` and bulk-load a
//!   fresh `StrategyCatalog` every epoch (what a long-running service had to
//!   do before the catalog became mutable);
//! * **overlay** — mutate one long-lived catalog in place; the overlay
//!   absorbs the churn and is merged into the R-tree at the policy
//!   threshold.
//!
//! Both disciplines retire exactly the same strategies (`ChurnEpoch` stores
//! rank-based picks) and answer exactly the same queries, so the timing gap
//! is pure maintenance cost.
//!
//! A third group ([`bench_compaction_loop`]) runs the full churn → compact
//! → query lifecycle over 10 epochs under the `CompactPolicy` variants,
//! reporting slot growth and peak workforce-matrix bytes with and without
//! epoch-boundary compaction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use stratrec_core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec_core::engine::BatchEngine;
use stratrec_core::workforce::{
    AggregationCache, AggregationMode, EligibilityRule, WorkforceMatrix,
};
use stratrec_workload::churn::{ChurnInstance, ChurnScenario, CompactPolicy};

fn paper_scale_scenario(churn_rate: f64) -> ChurnScenario {
    ChurnScenario {
        initial_strategies: 10_000,
        epochs: 3,
        batch_size: 10,
        k: 10,
        ..ChurnScenario::default()
    }
    .with_churn_rate(churn_rate)
}

fn bench_rebuild_vs_overlay(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_10k");
    group.sample_size(10);
    for &churn_pct in &[1_usize, 5, 10] {
        let instance = paper_scale_scenario(churn_pct as f64 / 100.0).materialize();

        group.bench_with_input(
            BenchmarkId::new("rebuild_per_epoch", format!("{churn_pct}pct")),
            &instance,
            |b, instance| {
                b.iter(|| {
                    let mut live = instance.initial.clone();
                    let mut served = 0usize;
                    for epoch in &instance.epochs {
                        epoch.apply_to_vec(&mut live);
                        let catalog = StrategyCatalog::from_slice(&live);
                        for request in &epoch.requests {
                            served += catalog.eligible_for_request(request).len();
                        }
                    }
                    black_box(served)
                });
            },
        );

        // The long-lived catalog was built once, long before the measured
        // epochs; clone the prebuilt state per iteration instead of paying
        // the initial bulk load inside the measurement.
        let base = instance.catalog(RebuildPolicy::default());
        group.bench_with_input(
            BenchmarkId::new("overlay", format!("{churn_pct}pct")),
            &instance,
            |b, instance| {
                b.iter(|| {
                    let mut catalog = base.clone();
                    let mut served = 0usize;
                    for epoch in &instance.epochs {
                        epoch.apply(&mut catalog);
                        for request in &epoch.requests {
                            served += catalog.eligible_for_request(request).len();
                        }
                    }
                    black_box(served)
                });
            },
        );
    }
    group.finish();
}

/// The maintenance primitive in isolation (no query load): one epoch of 1 %
/// churn absorbed by the overlay vs paid as a full bulk reload, plus the
/// overlay across merge policies.
fn bench_maintenance_primitive(c: &mut Criterion) {
    let instance = paper_scale_scenario(0.01).materialize();
    let epoch = &instance.epochs[0];
    let mut group = c.benchmark_group("churn_maintenance_10k_1pct");
    group.sample_size(10);

    group.bench_function("full_rebuild", |b| {
        b.iter(|| {
            let mut live = instance.initial.clone();
            epoch.apply_to_vec(&mut live);
            black_box(StrategyCatalog::from_slice(&live).len())
        });
    });
    for (label, policy) in [
        ("overlay_merge_always", RebuildPolicy::always()),
        ("overlay_threshold_128", RebuildPolicy::default()),
        ("overlay_never_merge", RebuildPolicy::never()),
    ] {
        // Prebuilt long-lived catalog: each sample pays a clone plus the
        // epoch's incremental maintenance, never the initial bulk load.
        let base = instance.catalog(policy);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut catalog = base.clone();
                epoch.apply(&mut catalog);
                black_box(catalog.len())
            });
        });
    }
    group.finish();
}

/// The full churn → compact → query loop over ≥ 10 epochs: slot-shaped
/// memory stays bounded with an epoch-boundary [`CompactPolicy`] where the
/// never-compact discipline grows monotonically.
///
/// Besides the timing, each configuration reports (to stderr, outside the
/// timed region) the final/peak `slot_count` and the peak workforce-matrix
/// footprint (`batch_size × slot_count × 8` bytes) with and without
/// compaction — the memory claim the ROADMAP item asks the bench to pin.
fn bench_compaction_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_compaction_10k_10epochs");
    group.sample_size(10);
    for &churn_pct in &[1_usize, 5, 10] {
        for (label, policy) in [
            ("never_compact", CompactPolicy::Never),
            ("compact_every_2_epochs", CompactPolicy::EveryNEpochs(2)),
            (
                "compact_at_30pct_tombstones",
                CompactPolicy::TombstoneRatio(0.3),
            ),
        ] {
            // The compaction policy is a scenario knob: `apply_epoch` reads
            // it from the instance. Same seed per churn rate, so every
            // policy replays an identical epoch stream.
            let instance = ChurnScenario {
                epochs: 10,
                compact: policy,
                ..paper_scale_scenario(churn_pct as f64 / 100.0)
            }
            .materialize();
            let base = instance.catalog(RebuildPolicy::default());

            // Memory accounting pass (unmeasured): replay the loop once and
            // report the slot growth this policy allows.
            let mut catalog = base.clone();
            let mut peak_slots = 0_usize;
            let mut peak_matrix_bytes = 0_usize;
            let mut compactions = 0_usize;
            for (i, epoch) in instance.epochs.iter().enumerate() {
                let (_, remap) = instance.apply_epoch(i, &mut catalog);
                compactions += usize::from(remap.is_some());
                peak_slots = peak_slots.max(catalog.slot_count());
                peak_matrix_bytes = peak_matrix_bytes
                    .max(epoch.requests.len() * catalog.slot_count() * std::mem::size_of::<f64>());
            }
            eprintln!(
                "churn_compaction_10k_10epochs/{label}/{churn_pct}pct: \
                 final slot_count {} (live {}), peak slot_count {peak_slots}, \
                 peak matrix bytes {peak_matrix_bytes}, compactions {compactions}",
                catalog.slot_count(),
                catalog.len(),
            );

            group.bench_with_input(
                BenchmarkId::new(label, format!("{churn_pct}pct")),
                &instance,
                |b, instance| {
                    b.iter(|| {
                        let mut catalog = base.clone();
                        let mut served = 0_usize;
                        for (i, epoch) in instance.epochs.iter().enumerate() {
                            instance.apply_epoch(i, &mut catalog);
                            for request in &epoch.requests {
                                served += catalog.eligible_for_request(request).len();
                            }
                        }
                        black_box((served, catalog.slot_count()))
                    });
                },
            );
        }
    }
    group.finish();
}

/// One measured configuration of the incremental-vs-recompute comparison.
struct IncrementalConfig {
    label: &'static str,
    churn_pct: usize,
    compact: CompactPolicy,
    rule: EligibilityRule,
}

/// Maintenance-step timings (matrix + aggregation only; the catalog churn
/// itself is applied outside the timed region — it is identical in both
/// disciplines and already measured by the other groups).
struct IncrementalMeasurement {
    incremental_ns_per_epoch: f64,
    recompute_ns_per_epoch: f64,
    repaired_rows_per_epoch: f64,
    epochs: usize,
    rows: usize,
}

fn measure_incremental(
    instance: &ChurnInstance,
    base: &StrategyCatalog,
    rule: EligibilityRule,
    reps: usize,
) -> IncrementalMeasurement {
    let engine = BatchEngine::new();
    let k = instance.k;
    let mode = AggregationMode::Sum;
    let epochs = instance.epochs.len();
    let mut incremental = Duration::ZERO;
    let mut recompute = Duration::ZERO;
    let mut repaired_total = 0usize;
    for rep in 0..reps {
        // Incremental arm: one long-lived matrix + cache + subscription.
        let mut catalog = base.clone();
        let mut matrix = WorkforceMatrix::compute_with_catalog(
            &instance.standing,
            &catalog,
            &instance.models,
            rule,
        )
        .expect("churn instances model every strategy");
        let mut cache = AggregationCache::new(k, mode);
        cache.prime(&matrix);
        let sub = catalog.subscribe_delta();
        let mut model_buf = Vec::new();
        for i in 0..epochs {
            instance.apply_epoch(i, &mut catalog);
            let started = Instant::now();
            let delta = catalog.take_delta(&sub).unwrap();
            engine
                .apply_matrix_delta(
                    &mut matrix,
                    &delta,
                    &instance.standing,
                    &catalog,
                    &instance.models,
                    rule,
                    &mut model_buf,
                )
                .expect("deltas are drained and applied in lockstep");
            repaired_total += cache.repair(&matrix, &delta);
            incremental += started.elapsed();
        }
        // Parity guard (outside the timed region): the incrementally
        // maintained state must equal a fresh recompute, or the comparison
        // is meaningless.
        if rep == 0 {
            let fresh = WorkforceMatrix::compute_with_catalog(
                &instance.standing,
                &catalog,
                &instance.models,
                rule,
            )
            .unwrap();
            assert_eq!(matrix, fresh, "incremental matrix diverged");
            assert_eq!(
                cache.requirements(),
                &fresh.aggregate(k, mode)[..],
                "incremental aggregation diverged"
            );
        }

        // Recompute arm: rebuild matrix + aggregation from scratch per epoch.
        let mut catalog = base.clone();
        for i in 0..epochs {
            instance.apply_epoch(i, &mut catalog);
            let started = Instant::now();
            let matrix = WorkforceMatrix::compute_with_catalog(
                &instance.standing,
                &catalog,
                &instance.models,
                rule,
            )
            .unwrap();
            let requirements = matrix.aggregate(k, mode);
            recompute += started.elapsed();
            black_box(requirements);
        }
    }
    let samples = (reps * epochs) as f64;
    IncrementalMeasurement {
        incremental_ns_per_epoch: incremental.as_nanos() as f64 / samples,
        recompute_ns_per_epoch: recompute.as_nanos() as f64 / samples,
        repaired_rows_per_epoch: repaired_total as f64 / samples,
        epochs,
        rows: instance.standing.len(),
    }
}

/// Delta-maintained matrix + lazily repaired aggregation vs the per-epoch
/// full recompute, at the paper's scale. Reports the maintenance-step cost
/// per epoch (stderr) and emits the machine-readable
/// `BENCH_incremental.json` at the workspace root so future PRs can track
/// the regression trajectory.
fn bench_incremental_vs_recompute(c: &mut Criterion) {
    let configs = [
        IncrementalConfig {
            label: "1pct_params",
            churn_pct: 1,
            compact: CompactPolicy::Never,
            rule: EligibilityRule::StrategyParameters,
        },
        IncrementalConfig {
            label: "1pct_model_only",
            churn_pct: 1,
            compact: CompactPolicy::Never,
            rule: EligibilityRule::ModelOnly,
        },
        IncrementalConfig {
            label: "1pct_compact_every_2",
            churn_pct: 1,
            compact: CompactPolicy::EveryNEpochs(2),
            rule: EligibilityRule::StrategyParameters,
        },
        IncrementalConfig {
            label: "5pct_params",
            churn_pct: 5,
            compact: CompactPolicy::Never,
            rule: EligibilityRule::StrategyParameters,
        },
        IncrementalConfig {
            label: "10pct_params",
            churn_pct: 10,
            compact: CompactPolicy::Never,
            rule: EligibilityRule::StrategyParameters,
        },
    ];
    let smoke = std::env::var_os("STRATREC_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0");
    let reps = if smoke { 1 } else { 5 };

    let mut group = c.benchmark_group("incremental_vs_recompute");
    group.sample_size(10);
    let mut json_rows = Vec::new();
    for config in &configs {
        let instance = ChurnScenario {
            epochs: 5,
            compact: config.compact,
            ..paper_scale_scenario(config.churn_pct as f64 / 100.0)
        }
        .materialize();
        let base = instance.catalog(RebuildPolicy::default());

        let measured = measure_incremental(&instance, &base, config.rule, reps);
        let speedup = measured.recompute_ns_per_epoch / measured.incremental_ns_per_epoch;
        eprintln!(
            "incremental_vs_recompute/{}: recompute {:.3} ms/epoch, incremental {:.3} ms/epoch \
             ({speedup:.1}x), {:.1}/{} aggregation rows repaired per epoch",
            config.label,
            measured.recompute_ns_per_epoch / 1e6,
            measured.incremental_ns_per_epoch / 1e6,
            measured.repaired_rows_per_epoch,
            measured.rows,
        );
        json_rows.push(format!(
            "    {{\"config\": \"{}\", \"churn_pct\": {}, \"compact\": \"{}\", \"rule\": \"{}\", \
             \"epochs\": {}, \"rows\": {}, \"recompute_ns_per_epoch\": {:.0}, \
             \"incremental_ns_per_epoch\": {:.0}, \"speedup\": {:.2}, \
             \"repaired_rows_per_epoch\": {:.2}}}",
            config.label,
            config.churn_pct,
            match config.compact {
                CompactPolicy::Never => "never".to_string(),
                CompactPolicy::EveryNEpochs(n) => format!("every_{n}_epochs"),
                CompactPolicy::TombstoneRatio(r) => format!("tombstone_ratio_{r}"),
            },
            match config.rule {
                EligibilityRule::StrategyParameters => "strategy_parameters",
                EligibilityRule::ModelOnly => "model_only",
            },
            measured.epochs,
            measured.rows,
            measured.recompute_ns_per_epoch,
            measured.incremental_ns_per_epoch,
            speedup,
            measured.repaired_rows_per_epoch,
        ));

        // Criterion-visible wrappers (smoke coverage + regression timing of
        // the whole maintenance loop, churn included, both disciplines).
        group.bench_with_input(
            BenchmarkId::new("incremental", config.label),
            &instance,
            |b, instance| {
                let matrix = WorkforceMatrix::compute_with_catalog(
                    &instance.standing,
                    &base,
                    &instance.models,
                    config.rule,
                )
                .unwrap();
                let mut cache = AggregationCache::new(instance.k, AggregationMode::Sum);
                cache.prime(&matrix);
                let mut seeded = base.clone();
                let sub = seeded.subscribe_delta();
                let engine = BatchEngine::new();
                let mut model_buf = Vec::new();
                b.iter(|| {
                    let mut catalog = seeded.clone();
                    let mut matrix = matrix.clone();
                    let mut cache = cache.clone();
                    let mut repaired = 0usize;
                    for i in 0..instance.epochs.len() {
                        instance.apply_epoch(i, &mut catalog);
                        let delta = catalog.take_delta(&sub).unwrap();
                        engine
                            .apply_matrix_delta(
                                &mut matrix,
                                &delta,
                                &instance.standing,
                                &catalog,
                                &instance.models,
                                config.rule,
                                &mut model_buf,
                            )
                            .unwrap();
                        repaired += cache.repair(&matrix, &delta);
                    }
                    black_box((repaired, matrix.cols()))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recompute", config.label),
            &instance,
            |b, instance| {
                b.iter(|| {
                    let mut catalog = base.clone();
                    let mut served = 0usize;
                    for i in 0..instance.epochs.len() {
                        instance.apply_epoch(i, &mut catalog);
                        let matrix = WorkforceMatrix::compute_with_catalog(
                            &instance.standing,
                            &catalog,
                            &instance.models,
                            config.rule,
                        )
                        .unwrap();
                        served += matrix
                            .aggregate(instance.k, AggregationMode::Sum)
                            .iter()
                            .flatten()
                            .count();
                    }
                    black_box(served)
                });
            },
        );
    }
    group.finish();

    // Machine-readable trajectory for future PRs: one JSON file at the
    // workspace root, regenerated by every bench run (including the CI
    // smoke job, whose numbers are 1-rep and only indicative).
    let json = format!(
        "{{\n  \"bench\": \"incremental_vs_recompute\",\n  \"scenario\": {{\"initial_strategies\": 10000, \
         \"epochs\": 5, \"standing_rows\": 10, \"k\": 10}},\n  \"smoke\": {smoke},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    // Fail loudly: a silent write failure would let CI archive the stale
    // committed copy as if it were this run's trajectory.
    std::fs::write(path, json).unwrap_or_else(|error| panic!("could not write {path}: {error}"));
}

criterion_group!(
    benches,
    bench_rebuild_vs_overlay,
    bench_maintenance_primitive,
    bench_compaction_loop,
    bench_incremental_vs_recompute
);
criterion_main!(benches);
