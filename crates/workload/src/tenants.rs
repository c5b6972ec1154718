//! Zipf-skewed multi-tenant request mixes for the fair-share serving path.
//!
//! Real multi-tenant queues are heavy-tailed: a few tenants issue most of
//! the traffic. This module generates that shape deterministically — tenant
//! `i` receives requests in proportion to the Zipf weight `1 / (i + 1)^s`,
//! optionally with one designated **heavy tenant** whose weight is
//! multiplied by a flooding factor (the "10× volume" adversary of the
//! fairness regression suite). Alongside the per-tenant batches the
//! scenario builds the matching [`FairnessPolicy`]: an equal per-tenant
//! floor plus uniform residual weights, so the generated workload and the
//! budget-division rule it is served under stay one artifact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use stratrec_core::fairness::{FairnessPolicy, TenantShare};
use stratrec_core::model::DeploymentRequest;

use crate::request_gen::generate_requests_in_range;

/// A reproducible multi-tenant workload mix: Zipf-skewed tenant volumes
/// over the paper's synthetic request distribution, plus the fairness
/// floors the mix is served under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantMixScenario {
    /// Number of tenants sharing the platform.
    pub tenants: usize,
    /// Zipf skew exponent `s` (`0` = uniform traffic, `1` = classic Zipf).
    pub zipf_s: f64,
    /// Total number of requests across all tenants.
    pub total_requests: usize,
    /// A tenant whose traffic is multiplied by [`Self::heavy_factor`] —
    /// the flooding adversary of the fairness regression tests.
    pub heavy_tenant: Option<usize>,
    /// Volume multiplier for the heavy tenant.
    pub heavy_factor: f64,
    /// Guaranteed budget floor per tenant, as a fraction of the global
    /// budget. Clamped to `1 / tenants` at materialization so the floors
    /// always remain jointly satisfiable.
    pub floor: f64,
    /// RNG seed; equal seeds produce identical mixes.
    pub seed: u64,
}

impl Default for TenantMixScenario {
    fn default() -> Self {
        Self {
            tenants: 4,
            zipf_s: 1.0,
            total_requests: 64,
            heavy_tenant: None,
            heavy_factor: 10.0,
            floor: 0.1,
            seed: 42,
        }
    }
}

/// A materialized [`TenantMixScenario`]: one request batch per tenant and
/// the fairness policy dividing the shared budget among them.
#[derive(Debug, Clone)]
pub struct TenantMix {
    /// Per-tenant request batches, in tenant order.
    pub batches: Vec<Vec<DeploymentRequest>>,
    /// The floors-plus-uniform-weights policy matching the scenario.
    pub policy: FairnessPolicy,
}

impl TenantMixScenario {
    /// The normalized tenant sampling weights: Zipf `1 / (i + 1)^s`, the
    /// heavy tenant (if any) multiplied by [`Self::heavy_factor`].
    #[must_use]
    pub fn weights(&self) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        let mut weights: Vec<f64> = (0..self.tenants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.zipf_s.max(0.0)))
            .collect();
        if let Some(heavy) = self.heavy_tenant {
            if let Some(weight) = weights.get_mut(heavy) {
                *weight *= self.heavy_factor.max(1.0);
            }
        }
        let total: f64 = weights.iter().sum();
        for weight in &mut weights {
            *weight /= total;
        }
        weights
    }

    /// Generates the per-tenant batches and the matching fairness policy.
    /// Deterministic in the scenario (same fields → bit-identical mix).
    ///
    /// # Panics
    ///
    /// Panics when the scenario names zero tenants or the heavy tenant
    /// index is out of range.
    #[must_use]
    pub fn materialize(&self) -> TenantMix {
        assert!(self.tenants > 0, "a mix needs at least one tenant");
        assert!(
            self.heavy_tenant.is_none_or(|heavy| heavy < self.tenants),
            "the heavy tenant must be one of the scenario's tenants"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let requests = generate_requests_in_range(self.total_requests, 0.625, 1.0, &mut rng);
        // Inverse-CDF tenant draw per request, in request order, so the
        // assignment stream is one deterministic pass.
        let weights = self.weights();
        let mut batches: Vec<Vec<DeploymentRequest>> = vec![Vec::new(); self.tenants];
        for request in requests {
            let draw: f64 = rng.gen_range(0.0..1.0);
            let mut cumulative = 0.0;
            let mut tenant = self.tenants - 1;
            for (i, weight) in weights.iter().enumerate() {
                cumulative += weight;
                if draw < cumulative {
                    tenant = i;
                    break;
                }
            }
            batches[tenant].push(request);
        }
        #[allow(clippy::cast_precision_loss)]
        let floor = self.floor.clamp(0.0, 1.0 / self.tenants as f64);
        let policy = FairnessPolicy::new(vec![TenantShare::new(floor, 1.0); self.tenants])
            .expect("clamped floors are always jointly satisfiable");
        TenantMix { batches, policy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_normalize_and_follow_the_zipf_skew() {
        let scenario = TenantMixScenario {
            tenants: 5,
            zipf_s: 1.0,
            ..TenantMixScenario::default()
        };
        let weights = scenario.weights();
        assert_eq!(weights.len(), 5);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for pair in weights.windows(2) {
            assert!(pair[0] > pair[1], "Zipf weights decrease with rank");
        }
        // Classic Zipf: tenant 0 has twice the weight of tenant 1.
        assert!((weights[0] / weights[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_heavy_tenant_dominates_the_mix() {
        let scenario = TenantMixScenario {
            tenants: 4,
            zipf_s: 0.0,
            total_requests: 400,
            heavy_tenant: Some(2),
            heavy_factor: 10.0,
            ..TenantMixScenario::default()
        };
        let weights = scenario.weights();
        assert!((weights[2] / weights[0] - 10.0).abs() < 1e-9);
        let mix = scenario.materialize();
        assert_eq!(mix.batches.len(), 4);
        let sizes: Vec<usize> = mix.batches.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 400);
        // With 10× weight over 400 draws, the heavy tenant's batch dwarfs
        // every light one (deterministic for the fixed seed).
        for (i, &size) in sizes.iter().enumerate() {
            if i != 2 {
                assert!(
                    sizes[2] > 3 * size,
                    "heavy tenant {} vs light tenant {i} at {size}",
                    sizes[2]
                );
            }
        }
    }

    #[test]
    fn materialization_is_deterministic_in_the_seed() {
        let scenario = TenantMixScenario {
            tenants: 3,
            total_requests: 50,
            ..TenantMixScenario::default()
        };
        let a = scenario.materialize();
        let b = scenario.materialize();
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.policy, b.policy);
        let other = TenantMixScenario {
            seed: 43,
            ..scenario
        }
        .materialize();
        assert_ne!(a.batches, other.batches, "a new seed reshuffles the mix");
    }

    #[test]
    fn floors_are_clamped_to_stay_jointly_satisfiable() {
        let scenario = TenantMixScenario {
            tenants: 4,
            floor: 0.9, // 4 × 0.9 would oversubscribe the budget
            total_requests: 8,
            ..TenantMixScenario::default()
        };
        let mix = scenario.materialize();
        for share in mix.policy.shares() {
            assert!((share.floor - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_are_rejected() {
        let _ = TenantMixScenario {
            tenants: 0,
            ..TenantMixScenario::default()
        }
        .materialize();
    }
}
