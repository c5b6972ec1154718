//! Percentiles, named metrics and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::Duration;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// What one run reports on the last line of standard output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check of the run held (see the README for the list).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// Refuses a metric that is not a finite number: JSON has no NaN.
    pub fn json_line(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for metric in &self.metrics {
            if !metric.value.is_finite() {
                return Err(format!(
                    "metric {} is not finite: {}",
                    metric.name, metric.value
                ));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); `0` for
/// an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Request figures are taken per stretch of this length. At 1000 req/s a
/// stretch holds about 1000 requests, ten of them beyond its p99.
pub const STRETCH: Duration = Duration::from_secs(1);

/// Each of the run's consecutive [`STRETCH`]es summarised by `summary`, in
/// run order. Samples are `(offset into the run, value)`; a run shorter
/// than one stretch is one stretch.
pub fn per_stretch(samples: &[(Duration, f64)], summary: impl Fn(Vec<f64>) -> f64) -> Vec<f64> {
    let mut stretches: BTreeMap<u128, Vec<f64>> = BTreeMap::new();
    for &(at, value) in samples {
        stretches
            .entry(at.as_nanos() / STRETCH.as_nanos())
            .or_default()
            .push(value);
    }
    stretches.into_values().map(summary).collect()
}

/// The lowest of per-stretch latency figures. A shared host that steals CPU
/// in bursts makes some stretches of a run slower and none faster, and on a
/// noisy host such bursts covered most of some runs; the fastest stretch
/// still reads the program, while a change that slows every window slows
/// every stretch and so this figure too.
pub fn fastest(per_stretch: &[f64]) -> f64 {
    per_stretch.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Sorts `values` ascending and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a set of measurements (the mean of the middle two for an even
/// count); `0` for none.
pub fn median(values: &[f64]) -> f64 {
    let values = sorted(values.to_vec());
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// `part / whole` as a percentage, `0` when `whole` is zero.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}
