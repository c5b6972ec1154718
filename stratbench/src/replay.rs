//! Replays a run's served windows and writer epochs through each layer's
//! public functions, one span per call.
//!
//! The live server is a black box that returns answers; this replay is
//! where the per-layer numbers come from. Windows are recomputed fresh
//! (`BatchEngine::workforce_matrix`, `WorkforceMatrix::aggregate`,
//! `BatchStrat::select`, the ADPaR fan-out), migrating a `SnapshotReader`
//! across the writer epochs exactly as the server does, and every replayed
//! report must equal the ground truth the answer check computed. Writer
//! epochs go through `ConcurrentCatalog::update`, `WalWriter::append` and
//! `sync`, and `write_checkpoint` on a directory of their own, which
//! `recover_catalog` then reads back.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stratrec_core::availability::WorkerAvailability;
use stratrec_core::batch::BatchStrat;
use stratrec_core::catalog::{ConcurrentCatalog, RebuildPolicy, SnapshotReader, StrategyCatalog};
use stratrec_core::engine::BatchEngine;
use stratrec_core::error::StratRecError;
use stratrec_core::model::{DeploymentRequest, Strategy};
use stratrec_core::modeling::{ModelLibrary, StrategyModel};
use stratrec_core::prelude::{
    AlternativeRecommendation, ServiceQuality, StratRecConfig, StratRecReport,
};
use stratrec_core::workforce::{AggregationCache, WorkforceMatrix};
use stratrec_durable::checkpoint::{write_checkpoint, Checkpoint};
use stratrec_durable::recovery::recover_catalog;
use stratrec_durable::wal::WAL_FILE_NAME;
use stratrec_durable::{DurableOptions, WalRecord, WalWriter};
use stratrec_workload::churn::CompactPolicy;
use stratrec_workload::ChurnEpoch;

use crate::stats::{ms, percentile, sorted, us, Metric};
use crate::trace::{LayerTime, Tracer};

/// One served window, rebuilt from the responses' window and epoch tags.
#[derive(Debug, Clone)]
pub struct Window {
    pub seq: u64,
    pub epoch: u64,
    pub quality: ServiceQuality,
    /// Stream ids in serve order.
    pub ids: Vec<u64>,
    pub requests: Vec<DeploymentRequest>,
    /// The sequential pipeline's report on the catalog at `epoch`.
    pub expected: StratRecReport,
}

/// The recorded inputs of one run.
pub struct Replay<'a> {
    pub config: StratRecConfig,
    pub models: &'a ModelLibrary,
    pub availability: WorkerAvailability,
    pub initial: &'a [Strategy],
    /// The writer epochs the run committed, in order, and the compaction
    /// policy they were committed under.
    pub epochs: &'a [ChurnEpoch],
    pub compact: CompactPolicy,
    pub windows: &'a [Window],
}

/// Counts and timings of one replay pass.
#[derive(Debug, Default)]
pub struct Replayed {
    pub elapsed: Duration,
    /// Replayed service time of each window, parallel to the windows.
    pub window_service: Vec<Duration>,
    pub cells: u64,
    pub problems: u64,
    pub satisfied: u64,
    pub requests: u64,
    pub repaired_rows: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub records_replayed: u64,
    /// Replayed reports or states that differ from the run's.
    pub mismatches: Vec<String>,
}

impl Replay<'_> {
    /// Replays every window and epoch in the order the run saw them, inside
    /// `dir` (which must exist and be empty).
    pub fn run(&self, tracer: &mut Tracer, dir: &Path) -> Result<Replayed, Box<dyn Error>> {
        let start = Instant::now();
        let mut out = Replayed::default();
        let policy = RebuildPolicy::default();

        // The durable directory as `DurableCatalog::create` lays it out.
        let catalog = StrategyCatalog::with_policy(self.initial.to_vec(), policy);
        let wal = WalWriter::create(&dir.join(WAL_FILE_NAME))?;
        let mut log = EpochLog {
            wal,
            dir,
            compact: self.compact,
            since_checkpoint: 0,
            checkpoints: 0,
        };
        log.wal.sync()?;
        write_checkpoint(dir, &Checkpoint::capture(&catalog, log.wal.len()))?;
        let genesis_len = log.wal.len();
        let cell = ConcurrentCatalog::new(catalog);
        let mut pipeline = Pipeline::new(self, cell.reader())?;

        let mut next_epoch = 0;
        for window in self.windows {
            while cell.epoch() < window.epoch && next_epoch < self.epochs.len() {
                log.publish(tracer, &cell, &self.epochs[next_epoch], next_epoch)?;
                next_epoch += 1;
            }
            if cell.epoch() == window.epoch {
                pipeline.serve(tracer, self, window, &mut out)?;
            } else {
                out.mismatches.push(format!(
                    "window {} names epoch {}, which the writer epochs do not reach (at {})",
                    window.seq,
                    window.epoch,
                    cell.epoch()
                ));
            }
        }
        for (index, epoch) in self.epochs.iter().enumerate().skip(next_epoch) {
            log.publish(tracer, &cell, epoch, index)?;
        }
        out.wal_bytes = log.wal.len() - genesis_len;
        out.checkpoints = log.checkpoints;
        drop(log);

        let recovery = tracer.enter("recovery", 0);
        let recovered = recover_catalog(dir, policy)?;
        tracer.exit(recovery);
        out.records_replayed = recovered.report.records_applied as u64;
        if recovered.catalog.epoch() != cell.epoch() {
            out.mismatches.push(format!(
                "replay recovered epoch {}, published {}",
                recovered.catalog.epoch(),
                cell.epoch()
            ));
        }
        out.elapsed = start.elapsed();
        Ok(out)
    }
}

/// The serving side of the replay: a migrating reader, and the standing
/// matrix a serving session carries across epochs (the first window's rows,
/// kept current by every delta).
struct Pipeline {
    engine: BatchEngine,
    aggregator: BatchStrat,
    reader: SnapshotReader,
    standing_requests: Vec<DeploymentRequest>,
    standing: WorkforceMatrix,
    cache: AggregationCache,
    model_buf: Vec<Option<StrategyModel>>,
}

impl Pipeline {
    fn new(replay: &Replay<'_>, reader: SnapshotReader) -> Result<Self, StratRecError> {
        let engine = BatchEngine::new();
        let aggregator = BatchStrat::new(replay.config.objective, replay.config.aggregation);
        let standing_requests = replay
            .windows
            .first()
            .map(|w| w.requests.clone())
            .unwrap_or_default();
        let standing = engine.workforce_matrix(
            &standing_requests,
            reader.pinned().catalog(),
            replay.models,
            aggregator.eligibility,
        )?;
        let mut cache = AggregationCache::new(replay.config.k, replay.config.aggregation);
        cache.prime(&standing);
        Ok(Self {
            engine,
            aggregator,
            reader,
            standing_requests,
            standing,
            cache,
            model_buf: Vec::new(),
        })
    }

    /// Serves one window fresh on the reader's latest snapshot, one span
    /// per stage, and checks the report against the ground truth.
    fn serve(
        &mut self,
        tracer: &mut Tracer,
        replay: &Replay<'_>,
        window: &Window,
        out: &mut Replayed,
    ) -> Result<(), Box<dyn Error>> {
        let (id, requests, k) = (window.seq, &window.requests, replay.config.k);
        let engine = self.engine;
        let service = Instant::now();
        let span = tracer.enter("serve.window", id);

        let delta = tracer.span("catalog.migrate", id, || self.reader.migrate())?;
        let snapshot = Arc::clone(self.reader.pinned());
        let catalog = snapshot.catalog();
        let (models, rule) = (replay.models, self.aggregator.eligibility);
        if !delta.is_empty() {
            tracer.span("workforce.delta_apply", id, || {
                engine.apply_matrix_delta(
                    &mut self.standing,
                    &delta,
                    &self.standing_requests,
                    catalog,
                    models,
                    rule,
                    &mut self.model_buf,
                )
            })?;
            let repaired = tracer.span("workforce.repair", id, || {
                self.cache.repair(&self.standing, &delta)
            });
            out.repaired_rows += repaired as u64;
        }

        let matrix = tracer.span("workforce.fill", id, || {
            engine.workforce_matrix(requests, catalog, models, rule)
        })?;
        let requirements = tracer.span("workforce.aggregate", id, || {
            matrix.aggregate(k, replay.config.aggregation)
        });
        let batch = tracer.span("batch.select", id, || {
            self.aggregator
                .select(requests, &requirements, replay.availability)
        });
        let unsatisfied = &batch.unsatisfied;
        let solutions = match window.quality {
            ServiceQuality::Full => tracer.span("adpar.exact", id, || {
                engine.solve_adpar_batch(requests, catalog, unsatisfied, k)
            }),
            ServiceQuality::Degraded => tracer.span("adpar.degraded", id, || {
                engine.solve_adpar_batch_degraded(requests, catalog, unsatisfied, k)
            }),
        };
        tracer.exit(span);
        out.window_service.push(service.elapsed());

        if window.quality == ServiceQuality::Full {
            // What degrading would have cost on the same problems.
            let baseline = tracer.span("adpar.baseline2", id, || {
                engine.solve_adpar_batch_degraded(requests, catalog, unsatisfied, k)
            });
            std::hint::black_box(baseline);
        }

        out.cells += (matrix.rows() * matrix.cols()) as u64;
        out.problems += batch.unsatisfied.len() as u64;
        out.satisfied += batch.satisfied.len() as u64;
        out.requests += requests.len() as u64;
        let alternatives = batch
            .unsatisfied
            .iter()
            .zip(solutions)
            .map(|(&request_index, solution)| AlternativeRecommendation {
                request_index,
                solution,
            })
            .collect();
        let report = StratRecReport {
            availability: replay.availability,
            batch,
            alternatives,
        };
        if report != window.expected {
            out.mismatches.push(format!(
                "replayed window {} differs from the ground truth",
                window.seq
            ));
        }
        Ok(())
    }
}

/// The writer side of the replay: the log and checkpoints of one durable
/// directory, fed the way `DurableCatalog::update` feeds them.
struct EpochLog<'a> {
    wal: WalWriter,
    dir: &'a Path,
    compact: CompactPolicy,
    since_checkpoint: u64,
    checkpoints: u64,
}

impl EpochLog<'_> {
    /// Publishes one writer epoch into `cell`, logs its mutations, syncs,
    /// checkpoints when due, and times the snapshot copy on its own.
    fn publish(
        &mut self,
        tracer: &mut Tracer,
        cell: &ConcurrentCatalog,
        epoch: &ChurnEpoch,
        index: usize,
    ) -> Result<(), Box<dyn Error>> {
        let id = index as u64;
        let span = tracer.enter("writer.epoch", id);
        let (mutations, snapshot) = tracer.span("catalog.publish", id, || {
            cell.update(|catalog| {
                catalog.enable_journal();
                epoch.apply_with_compaction(catalog, self.compact, index + 1);
                catalog.take_journal()
            })
        });
        let wal = &mut self.wal;
        tracer.span("wal.append", id, || {
            mutations
                .iter()
                .try_for_each(|m| wal.append(&WalRecord::from_mutation(m)).map(drop))
        })?;
        tracer.span("wal.sync", id, || wal.sync())?;
        self.since_checkpoint += mutations.len() as u64;
        if DurableOptions::default()
            .checkpoint
            .due(self.since_checkpoint)
        {
            let (dir, wal_offset) = (self.dir, self.wal.len());
            tracer.span("checkpoint", id, || {
                write_checkpoint(dir, &Checkpoint::capture(snapshot.catalog(), wal_offset))
            })?;
            self.since_checkpoint = 0;
            self.checkpoints += 1;
        }
        tracer.exit(span);
        let copy = tracer.span("catalog.capture", id, || {
            snapshot.catalog().detached_clone()
        });
        std::hint::black_box(copy);
        Ok(())
    }
}

/// What the live run measured that the per-layer report carries; zero for
/// a layer the workload leaves idle.
#[derive(Debug)]
pub struct LiveFigures {
    /// Per served request: its window's sequence number and its latency
    /// from scheduled arrival.
    pub served_latency: Vec<(u64, Duration)>,
    pub shed: u64,
    pub degraded_windows: u64,
    pub wrong_answers: u64,
    pub capacity_hz: f64,
    pub late_p99_ms: f64,
    pub commits: Vec<Duration>,
    /// Median `DurableCatalog::recover` time on the finished directory.
    pub recover: Duration,
}

/// Every per-layer metric, in one fixed order for every workload.
pub fn per_layer(
    live: &LiveFigures,
    windows: &[Window],
    untraced: &Replayed,
    traced: &Replayed,
    tracer: &Tracer,
) -> Vec<Metric> {
    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let self_us = |name: &str| mean_us(layer(name), |t| t.self_ns);
    let window_count = windows.len().max(1) as f64;
    let epoch_count = layer("writer.epoch").calls.max(1) as f64;

    // Queue wait: latency from scheduled arrival minus the replayed service
    // time of the request's window.
    let service: BTreeMap<u64, Duration> = windows
        .iter()
        .zip(&untraced.window_service)
        .map(|(window, &service)| (window.seq, service))
        .collect();
    let waits = sorted(
        live.served_latency
            .iter()
            .filter_map(|(seq, latency)| service.get(seq).map(|s| ms(latency.saturating_sub(*s))))
            .collect(),
    );
    let commits = sorted(live.commits.iter().map(|&c| ms(c)).collect());
    let window = layer("serve.window");
    let overhead = traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0;

    vec![
        Metric::new(
            "serve.window_size_p50",
            "count",
            percentile(
                &sorted(windows.iter().map(|w| w.ids.len() as f64).collect()),
                0.5,
            ),
        ),
        Metric::new("serve.queue_wait_p50_ms", "ms", percentile(&waits, 0.5)),
        Metric::new("serve.shed", "count", live.shed as f64),
        Metric::new(
            "serve.degraded_windows",
            "count",
            live.degraded_windows as f64,
        ),
        Metric::new("serve.wrong_answers", "count", live.wrong_answers as f64),
        Metric::new("serve.capacity_hz", "1/s", live.capacity_hz),
        Metric::new("serve.window_us", "us", mean_us(window, |t| t.total_ns)),
        Metric::new("workforce.fill_us", "us", self_us("workforce.fill")),
        Metric::new(
            "workforce.cells",
            "count",
            traced.cells as f64 / window_count,
        ),
        Metric::new(
            "workforce.aggregate_us",
            "us",
            self_us("workforce.aggregate"),
        ),
        Metric::new("batch.select_us", "us", self_us("batch.select")),
        Metric::new(
            "batch.satisfied_ratio",
            "ratio",
            traced.satisfied as f64 / traced.requests.max(1) as f64,
        ),
        Metric::new("adpar.problems", "count", traced.problems as f64),
        Metric::new("adpar.exact_us", "us", self_us("adpar.exact")),
        Metric::new("adpar.baseline2_us", "us", self_us("adpar.baseline2")),
        Metric::new("catalog.migrate_us", "us", self_us("catalog.migrate")),
        Metric::new(
            "workforce.delta_apply_us",
            "us",
            self_us("workforce.delta_apply"),
        ),
        Metric::new(
            "workforce.repaired_rows",
            "count",
            traced.repaired_rows as f64,
        ),
        Metric::new("catalog.publish_ms", "ms", self_us("catalog.publish") / 1e3),
        Metric::new("catalog.capture_ms", "ms", self_us("catalog.capture") / 1e3),
        Metric::new("wal.append_us", "us", self_us("wal.append")),
        Metric::new("wal.sync_us", "us", self_us("wal.sync")),
        Metric::new(
            "wal.bytes_per_epoch",
            "bytes",
            traced.wal_bytes as f64 / epoch_count,
        ),
        Metric::new("checkpoint.ms", "ms", self_us("checkpoint") / 1e3),
        Metric::new("checkpoint.count", "count", traced.checkpoints as f64),
        Metric::new(
            "recovery.records_replayed",
            "count",
            traced.records_replayed as f64,
        ),
        Metric::new("recovery.recover_ms", "ms", ms(live.recover)),
        Metric::new("loadgen.late_p99_ms", "ms", live.late_p99_ms),
        Metric::new("writer.commit_p50_ms", "ms", percentile(&commits, 0.5)),
        Metric::new("writer.commit_p99_ms", "ms", percentile(&commits, 0.99)),
        Metric::new("trace.overhead_pct", "%", 100.0 * overhead),
        Metric::new(
            "trace.window_self_pct",
            "%",
            crate::stats::pct(window.self_ns as f64, window.total_ns as f64),
        ),
    ]
}

/// Mean of `field` per call, in microseconds; `0` for a layer never called.
fn mean_us(layer: LayerTime, field: impl Fn(&LayerTime) -> u64) -> f64 {
    if layer.calls == 0 {
        0.0
    } else {
        us(Duration::from_nanos(field(&layer))) / layer.calls as f64
    }
}
