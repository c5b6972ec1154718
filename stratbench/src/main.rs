//! `stratbench`: the StratRec benchmark.
//!
//! ```text
//! stratbench --workload <serve-steady|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, measures for `--seconds`, checks every
//! answer and the recovered catalog, and prints one JSON line last on
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a replay through each layer's public functions with
//! `--trace 1`. See `README.md` beside this crate for the metrics.
//!
//! Scratch files live under `.bench_work/` in the working directory; the
//! run's durable directories are removed at exit and the traced run's spans
//! are kept there as `spans-<workload>-s<seed>.tsv`.

#![forbid(unsafe_code)]

mod replay;
mod serve;
mod stats;
mod trace;

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stratrec_core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec_durable::{DurableCatalog, DurableOptions};

use crate::replay::{per_layer, LiveFigures, Replay};
use crate::stats::Metric;
use crate::trace::Tracer;

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;
/// Recoveries of the finished directory per run; the reported time is
/// their median.
const RECOVER_REPEATS: usize = 9;
const WORKLOADS: [&str; 2] = ["serve-steady", "serve-churn"];
const WORK_DIR: &str = ".bench_work";

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=3_600).contains(&seconds) {
            return Err(format!("--seconds must be within 1..=3600, not {seconds}"));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// This run's working directory, removed on drop.
pub struct RunDir {
    root: PathBuf,
    spans: PathBuf,
}

impl RunDir {
    fn create(args: &Args) -> std::io::Result<Self> {
        let base = Path::new(WORK_DIR);
        let root = base.join(format!(
            "{}-s{}-p{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            spans: base.join(format!("spans-{}-s{}.tsv", args.workload, args.seed)),
            root,
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub struct Recovery {
    pub median: Duration,
    pub records_replayed: usize,
    pub violations: Vec<String>,
}

/// Times `DurableCatalog::recover` on the finished directory and checks
/// that the recovered epoch and live strategy set equal what the writer
/// last published.
pub fn recover_and_compare(
    dir: &Path,
    published: &StrategyCatalog,
) -> Result<Recovery, Box<dyn Error>> {
    let mut times = Vec::with_capacity(RECOVER_REPEATS);
    let mut violations = Vec::new();
    let mut records_replayed = 0;
    for _ in 0..RECOVER_REPEATS {
        let begun = Instant::now();
        let (handle, report, _) =
            DurableCatalog::recover(dir, RebuildPolicy::default(), DurableOptions::default())?;
        times.push(begun.elapsed());
        records_replayed = report.records_applied;
        if let Some(corruption) = report.corruption {
            violations.push(format!("recovery found a corrupt log: {corruption}"));
        }
        let recovered = handle.pin();
        if !same_live_state(recovered.catalog(), published) {
            violations.push(format!(
                "recovered epoch {} does not equal the published epoch {}",
                recovered.epoch(),
                published.epoch()
            ));
        }
    }
    Ok(Recovery {
        median: {
            times.sort_unstable();
            times[times.len() / 2]
        },
        records_replayed,
        violations,
    })
}

fn same_live_state(a: &StrategyCatalog, b: &StrategyCatalog) -> bool {
    let live = a.live_indices();
    a.epoch() == b.epoch()
        && live == b.live_indices()
        && live
            .iter()
            .all(|&slot| a.strategy(slot) == b.strategy(slot))
}

/// Replays the run twice, untraced then traced, writes the spans, and
/// derives every per-layer metric. Returns the metrics and any replayed
/// report or state that differs from the run's.
pub fn traced_replay(
    replay: &Replay<'_>,
    live: &LiveFigures,
    dirs: &RunDir,
) -> Result<(Vec<Metric>, Vec<String>), Box<dyn Error>> {
    let pass_dir = |name: &str| -> std::io::Result<PathBuf> {
        let dir = dirs.path(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    };
    let untraced = replay.run(&mut Tracer::new(false), &pass_dir("replay-untraced")?)?;
    let mut tracer = Tracer::new(true);
    let traced = replay.run(&mut tracer, &pass_dir("replay-traced")?)?;
    tracer.write_tsv(&dirs.spans)?;
    let violations = untraced
        .mismatches
        .iter()
        .chain(&traced.mismatches)
        .cloned()
        .collect();
    Ok((
        per_layer(live, replay.windows, &untraced, &traced, &tracer),
        violations,
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!(
                "stratbench: {error}\nusage: stratbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "stratbench: workload {} seed {} for {} s, trace {}; available_parallelism {cores}; fsync on",
        args.workload, args.seed, args.seconds, args.trace
    );
    let result = RunDir::create(&args)
        .map_err(Into::into)
        .and_then(|dirs| match args.workload.as_str() {
            "serve-steady" => serve::run(serve::Mode::Steady, &args, &dirs),
            _ => serve::run(serve::Mode::Churn, &args, &dirs),
        })
        .and_then(|outcome| outcome.json_line().map_err(Into::into));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("stratbench: {error}");
            ExitCode::FAILURE
        }
    }
}
