//! Open-loop streaming arrival schedules for the serving front-end.
//!
//! A closed-loop driver waits for each response before submitting the next
//! request, so it can never overload the service it measures. The streaming
//! tier's overload behavior — the admission cap and deadline shedding —
//! only shows under **open-loop** traffic: arrivals follow an
//! external clock regardless of how the server keeps up. This module
//! generates such schedules deterministically:
//!
//! * **Poisson arrivals** — exponential inter-arrival gaps at a base rate,
//!   sampled by inverse CDF from the seeded [`StdRng`] (no external
//!   distribution crates).
//! * **Burst phases** — time windows multiplying the instantaneous rate,
//!   modeling the load spikes the front-end must shed through and then
//!   drain.
//! * **Zipf tenant mix** — every arrival is tagged with a tenant drawn from
//!   the same `1 / (i + 1)^s` weights (plus optional flooding heavy tenant)
//!   as [`TenantMixScenario`], so
//!   open-loop streams and batch mixes stress the same skew.
//!
//! Schedules are materialized **up front** in one single-threaded pass:
//! the stream of a given scenario is byte-identical across runs, thread
//! counts and platforms, which is what lets overload tests replay exactly.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use stratrec_core::model::DeploymentRequest;

use crate::request_gen::generate_requests_in_range;
use crate::tenants::TenantMixScenario;

/// A time window during which the arrival rate is multiplied by `factor` —
/// the load spike of an overload scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstPhase {
    /// Start of the burst, in milliseconds from stream start (inclusive).
    pub start_ms: u64,
    /// End of the burst, in milliseconds from stream start (exclusive).
    pub end_ms: u64,
    /// Rate multiplier while the burst is active (`2.0` = twice the base
    /// rate). Values below zero are treated as zero (a silence window).
    pub factor: f64,
}

/// A reproducible open-loop arrival schedule: seeded Poisson arrivals at a
/// base rate, burst phases, and the Zipf tenant mix of [`crate::tenants`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopScenario {
    /// Baseline arrival rate outside bursts, in requests per second.
    pub base_rate_hz: f64,
    /// Horizon of the schedule, in milliseconds: arrivals are generated
    /// until this offset.
    pub duration_ms: u64,
    /// Burst windows multiplying the instantaneous rate. Overlapping bursts
    /// multiply together.
    pub bursts: Vec<BurstPhase>,
    /// Number of tenants sharing the stream.
    pub tenants: usize,
    /// Zipf skew of the tenant mix (`0` = uniform, `1` = classic Zipf).
    pub zipf_s: f64,
    /// Optional flooding tenant whose draw weight is multiplied by
    /// [`Self::heavy_factor`].
    pub heavy_tenant: Option<usize>,
    /// Weight multiplier for the heavy tenant.
    pub heavy_factor: f64,
    /// Latency budget stamped on every arrival, in milliseconds from its
    /// arrival instant.
    pub deadline_ms: u64,
    /// RNG seed; equal seeds produce byte-identical schedules.
    pub seed: u64,
}

impl Default for OpenLoopScenario {
    fn default() -> Self {
        Self {
            base_rate_hz: 500.0,
            duration_ms: 1_000,
            bursts: Vec::new(),
            tenants: 4,
            zipf_s: 1.0,
            heavy_tenant: None,
            heavy_factor: 10.0,
            deadline_ms: 250,
            seed: 42,
        }
    }
}

/// One scheduled request of an open-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Sequence number of the arrival (also the request's id).
    pub id: u64,
    /// Offset of the arrival from stream start.
    pub at: Duration,
    /// The tenant issuing the request.
    pub tenant: usize,
    /// Latency budget measured from [`Self::at`].
    pub deadline: Duration,
    /// The deployment request itself (paper's synthetic `[0.625, 1]`
    /// parameter range).
    pub request: DeploymentRequest,
}

impl OpenLoopScenario {
    /// The instantaneous arrival rate at `at_ms` milliseconds into the
    /// stream: the base rate times the factor of every active burst.
    #[must_use]
    pub fn rate_at(&self, at_ms: f64) -> f64 {
        let mut rate = self.base_rate_hz.max(0.0);
        for burst in &self.bursts {
            #[allow(clippy::cast_precision_loss)]
            if at_ms >= burst.start_ms as f64 && at_ms < burst.end_ms as f64 {
                rate *= burst.factor.max(0.0);
            }
        }
        rate
    }

    /// The normalized tenant draw weights (shared with the batch mix
    /// generator, so streams and batches stress the same skew).
    #[must_use]
    pub fn tenant_weights(&self) -> Vec<f64> {
        TenantMixScenario {
            tenants: self.tenants,
            zipf_s: self.zipf_s,
            heavy_tenant: self.heavy_tenant,
            heavy_factor: self.heavy_factor,
            ..TenantMixScenario::default()
        }
        .weights()
    }

    /// Materializes the full arrival schedule in one deterministic pass:
    /// inter-arrival gaps are exponential at the instantaneous rate
    /// (inverse-CDF sampling, `-ln(1 - u) / λ`), tenants are drawn by
    /// inverse CDF over [`Self::tenant_weights`], and request parameters
    /// follow the paper's synthetic range. Equal scenarios produce
    /// byte-identical schedules regardless of thread count or platform.
    ///
    /// # Panics
    ///
    /// Panics when the scenario names zero tenants, a non-positive base
    /// rate, or an out-of-range heavy tenant.
    #[must_use]
    pub fn materialize(&self) -> Vec<Arrival> {
        assert!(self.tenants > 0, "a stream needs at least one tenant");
        assert!(
            self.base_rate_hz > 0.0 && self.base_rate_hz.is_finite(),
            "the base arrival rate must be positive and finite"
        );
        assert!(
            self.heavy_tenant.is_none_or(|heavy| heavy < self.tenants),
            "the heavy tenant must be one of the scenario's tenants"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let weights = self.tenant_weights();
        let deadline = Duration::from_millis(self.deadline_ms);
        #[allow(clippy::cast_precision_loss)]
        let horizon_ms = self.duration_ms as f64;
        let mut schedule = Vec::new();
        let mut at_ms = 0.0_f64;
        let mut id = 0_u64;
        loop {
            let rate = self.rate_at(at_ms);
            if rate <= 0.0 {
                // A zero-rate silence window (burst factor 0): skip to the
                // next burst boundary past the current instant.
                let next = self
                    .bursts
                    .iter()
                    .flat_map(|burst| [burst.start_ms, burst.end_ms])
                    .map(|ms| {
                        #[allow(clippy::cast_precision_loss)]
                        let ms = ms as f64;
                        ms
                    })
                    .filter(|&ms| ms > at_ms)
                    .fold(horizon_ms, f64::min);
                if next >= horizon_ms {
                    break;
                }
                at_ms = next;
                continue;
            }
            // Exponential inter-arrival gap in milliseconds at the current
            // instantaneous rate (thinning-free piecewise approximation:
            // bursts are long relative to a gap, so re-evaluating λ at each
            // arrival tracks the phase boundaries closely enough for a
            // load generator).
            let u: f64 = rng.gen_range(0.0..1.0);
            let gap_ms = -(1.0 - u).ln() / rate * 1_000.0;
            at_ms += gap_ms;
            if at_ms >= horizon_ms {
                break;
            }
            if self.rate_at(at_ms) <= 0.0 {
                // The gap crossed into a silence window: no arrival there;
                // the zero-rate branch above skips to the window's end.
                continue;
            }
            let tenant = draw_tenant(&weights, rng.gen_range(0.0..1.0));
            let template = generate_requests_in_range(1, 0.625, 1.0, &mut rng)
                .pop()
                .expect("one request was asked for");
            let request = DeploymentRequest::new(id, template.task_type, template.params);
            schedule.push(Arrival {
                id,
                at: Duration::from_nanos((at_ms * 1_000_000.0) as u64),
                tenant,
                deadline,
                request,
            });
            id += 1;
        }
        schedule
    }
}

/// Inverse-CDF draw over normalized weights.
fn draw_tenant(weights: &[f64], draw: f64) -> usize {
    let mut cumulative = 0.0;
    for (tenant, weight) in weights.iter().enumerate() {
        cumulative += weight;
        if draw < cumulative {
            return tenant;
        }
    }
    weights.len() - 1
}

/// An order-sensitive FNV-1a digest of a schedule: every arrival's id,
/// nanosecond offset, tenant and request parameter bits are folded in, so
/// two schedules fingerprint equal **iff** they are byte-identical. Used by
/// the determinism suite to pin schedules across thread counts and runs.
#[must_use]
pub fn schedule_fingerprint(schedule: &[Arrival]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut fold = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for arrival in schedule {
        fold(arrival.id);
        fold(u64::try_from(arrival.at.as_nanos()).expect("offsets fit in u64 nanoseconds"));
        fold(arrival.tenant as u64);
        fold(u64::try_from(arrival.deadline.as_nanos()).expect("deadlines fit in u64 nanoseconds"));
        fold(arrival.request.params.quality.to_bits());
        fold(arrival.request.params.cost.to_bits());
        fold(arrival.request.params.latency.to_bits());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst_scenario() -> OpenLoopScenario {
        OpenLoopScenario {
            base_rate_hz: 800.0,
            duration_ms: 500,
            bursts: vec![BurstPhase {
                start_ms: 100,
                end_ms: 300,
                factor: 4.0,
            }],
            tenants: 4,
            zipf_s: 1.0,
            heavy_tenant: Some(0),
            heavy_factor: 5.0,
            deadline_ms: 50,
            seed: 7,
        }
    }

    #[test]
    fn schedules_are_sorted_increasing_and_bounded_by_the_horizon() {
        let scenario = burst_scenario();
        let schedule = scenario.materialize();
        assert!(!schedule.is_empty());
        for (i, arrival) in schedule.iter().enumerate() {
            assert_eq!(arrival.id, i as u64);
            assert_eq!(arrival.request.id.0, i as u64);
            assert!(arrival.tenant < scenario.tenants);
            assert_eq!(arrival.deadline, Duration::from_millis(50));
            assert!(arrival.at < Duration::from_millis(scenario.duration_ms));
        }
        for pair in schedule.windows(2) {
            assert!(pair[0].at <= pair[1].at, "arrivals are time-ordered");
        }
    }

    #[test]
    fn bursts_multiply_the_instantaneous_rate_and_the_arrival_mass() {
        let scenario = burst_scenario();
        assert!((scenario.rate_at(50.0) - 800.0).abs() < 1e-9);
        assert!((scenario.rate_at(150.0) - 3_200.0).abs() < 1e-9);
        assert!((scenario.rate_at(350.0) - 800.0).abs() < 1e-9);
        let schedule = scenario.materialize();
        let in_burst = schedule
            .iter()
            .filter(|a| a.at >= Duration::from_millis(100) && a.at < Duration::from_millis(300))
            .count();
        let outside = schedule.len() - in_burst;
        // The 200 ms burst at 4× carries far more arrivals than the 300 ms
        // of base-rate traffic around it (deterministic for the seed).
        assert!(
            in_burst > 2 * outside,
            "burst mass {in_burst} vs outside {outside}"
        );
    }

    #[test]
    fn a_zero_factor_burst_is_a_silence_window() {
        let scenario = OpenLoopScenario {
            bursts: vec![BurstPhase {
                start_ms: 200,
                end_ms: 800,
                factor: 0.0,
            }],
            duration_ms: 1_000,
            ..OpenLoopScenario::default()
        };
        let schedule = scenario.materialize();
        assert!(!schedule.is_empty());
        assert!(schedule
            .iter()
            .all(|a| a.at < Duration::from_millis(200) || a.at >= Duration::from_millis(800)));
    }

    #[test]
    fn the_heavy_tenant_dominates_the_stream() {
        let scenario = OpenLoopScenario {
            heavy_tenant: Some(2),
            heavy_factor: 10.0,
            zipf_s: 0.0,
            duration_ms: 2_000,
            ..OpenLoopScenario::default()
        };
        let schedule = scenario.materialize();
        let mut counts = vec![0_usize; scenario.tenants];
        for arrival in &schedule {
            counts[arrival.tenant] += 1;
        }
        for (tenant, &count) in counts.iter().enumerate() {
            if tenant != 2 {
                assert!(
                    counts[2] > 3 * count,
                    "heavy {} vs tenant {tenant} at {count}",
                    counts[2]
                );
            }
        }
    }

    #[test]
    fn equal_seeds_reproduce_the_schedule_and_new_seeds_move_it() {
        let scenario = burst_scenario();
        let a = scenario.materialize();
        let b = scenario.materialize();
        assert_eq!(a, b);
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        let moved = OpenLoopScenario {
            seed: 8,
            ..burst_scenario()
        }
        .materialize();
        assert_ne!(a, moved, "a new seed moves the whole schedule");
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&moved));
    }
}
