//! Fair division of a shared availability budget across tenants.
//!
//! Multi-tenant serving aggregates each tenant's batch independently,
//! but the worker pool they draw on is one shared resource. Without an
//! allocation rule, a tenant issuing 10× the request volume simply claims
//! 10× the budget and starves everyone else — the exact failure mode the
//! multi-tenant direction in the paper's discussion warns about.
//!
//! A [`FairnessPolicy`] makes the division explicit and deterministic:
//!
//! 1. **Floors first.** Every tenant is guaranteed `floor · budget` (capped
//!    by what it actually asked for). Floors are fractions of the global
//!    budget and must sum to at most 1, so this phase can never overdraw.
//! 2. **Weighted residual.** Whatever the floors phase leaves over is
//!    water-filled across still-unsatisfied tenants in proportion to their
//!    `weight`, re-distributing any share a tenant cannot absorb (its
//!    demand caps its grant) in bounded rounds.
//!
//! The guarantee the regression suite pins: a tenant demanding at least its
//! floor **always receives at least `floor · budget`**, no matter how much
//! the other tenants ask for. Grants never exceed demands, never exceed the
//! budget in total, and depend only on `(policy, budget, demands)` — the
//! split is a pure function, so multi-tenant serving stays replayable.

use serde::{Deserialize, Serialize};

use crate::error::StratRecError;

/// One tenant's entitlement under a [`FairnessPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantShare {
    /// Guaranteed fraction of the global budget, in `[0, 1]`. The tenant
    /// receives `min(demand, floor · budget)` before any residual is
    /// divided.
    pub floor: f64,
    /// Non-negative weight for the residual water-fill. A zero-weight
    /// tenant receives nothing beyond its floor.
    pub weight: f64,
}

impl TenantShare {
    /// A share with the given guaranteed floor fraction and residual
    /// weight (validated by [`FairnessPolicy::new`]).
    #[must_use]
    pub fn new(floor: f64, weight: f64) -> Self {
        Self { floor, weight }
    }
}

/// A validated per-tenant division rule for one shared availability budget:
/// per-tenant floors plus weighted residual water-fill. See the module docs
/// for the allocation semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessPolicy {
    shares: Vec<TenantShare>,
}

impl FairnessPolicy {
    /// A policy over the given shares.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::InvalidFairnessPolicy`] when `shares` is
    /// empty, any floor is outside `[0, 1]` or non-finite, any weight is
    /// negative or non-finite, or the floors sum past 1 (the guarantees
    /// would be impossible to honor simultaneously).
    pub fn new(shares: Vec<TenantShare>) -> Result<Self, StratRecError> {
        if shares.is_empty() {
            return Err(StratRecError::InvalidFairnessPolicy(
                "a policy must name at least one tenant".into(),
            ));
        }
        for (tenant, share) in shares.iter().enumerate() {
            if !share.floor.is_finite() || !(0.0..=1.0).contains(&share.floor) {
                return Err(StratRecError::InvalidFairnessPolicy(format!(
                    "tenant {tenant} floor {} is outside [0, 1]",
                    share.floor
                )));
            }
            if !share.weight.is_finite() || share.weight < 0.0 {
                return Err(StratRecError::InvalidFairnessPolicy(format!(
                    "tenant {tenant} weight {} is negative or non-finite",
                    share.weight
                )));
            }
        }
        let floor_sum: f64 = shares.iter().map(|s| s.floor).sum();
        if floor_sum > 1.0 {
            return Err(StratRecError::InvalidFairnessPolicy(format!(
                "floors sum to {floor_sum}, past the whole budget"
            )));
        }
        Ok(Self { shares })
    }

    /// An egalitarian policy: every tenant floored at `1 / tenants` of the
    /// budget with equal residual weight.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::InvalidFairnessPolicy`] when `tenants` is
    /// zero.
    pub fn uniform(tenants: usize) -> Result<Self, StratRecError> {
        #[allow(clippy::cast_precision_loss)]
        let floor = 1.0 / tenants.max(1) as f64;
        Self::new(vec![TenantShare::new(floor, 1.0); tenants])
    }

    /// Number of tenants the policy divides among.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.shares.len()
    }

    /// The validated per-tenant shares, in tenant order.
    #[must_use]
    pub fn shares(&self) -> &[TenantShare] {
        &self.shares
    }

    /// Divides `budget` across the tenants given their `demands` (each
    /// tenant's aggregate workforce requirement; non-finite demands are
    /// treated as unbounded appetite). Returns one grant per tenant, in
    /// tenant order. Grants never exceed (finite) demands, sum to at most
    /// `budget`, and every tenant demanding at least its floor receives at
    /// least `floor · budget`.
    ///
    /// # Panics
    ///
    /// Panics when `demands` does not have one entry per tenant or `budget`
    /// is negative or non-finite.
    #[must_use]
    pub fn split(&self, budget: f64, demands: &[f64]) -> Vec<f64> {
        assert_eq!(
            demands.len(),
            self.shares.len(),
            "one demand per tenant is required"
        );
        assert!(
            budget.is_finite() && budget >= 0.0,
            "the budget must be finite and non-negative"
        );
        let appetite = |demand: f64| -> f64 {
            if demand.is_finite() {
                demand.max(0.0)
            } else {
                budget
            }
        };

        // Phase 1: guaranteed floors, capped by actual demand. Floors sum
        // to ≤ 1, so granting them all never overdraws the budget.
        let mut grants: Vec<f64> = self
            .shares
            .iter()
            .zip(demands)
            .map(|(share, &demand)| (share.floor * budget).min(appetite(demand)))
            .collect();
        let mut residual = budget - grants.iter().sum::<f64>();

        // Phase 2: weighted water-fill of the residual. Each round divides
        // the remaining budget among still-hungry tenants by weight; a
        // tenant whose demand caps out returns its unused share to the next
        // round. Every round satisfies at least one tenant or consumes the
        // residual, so `tenant_count + 1` rounds always suffice.
        for _ in 0..=self.shares.len() {
            if residual <= f64::EPSILON * budget.max(1.0) {
                break;
            }
            let mut hungry_weight = 0.0;
            for (share, (&demand, grant)) in self.shares.iter().zip(demands.iter().zip(&grants)) {
                if appetite(demand) > *grant {
                    hungry_weight += share.weight;
                }
            }
            if hungry_weight <= 0.0 {
                break;
            }
            let mut consumed = 0.0;
            for (share, (&demand, grant)) in self
                .shares
                .iter()
                .zip(demands.iter().zip(grants.iter_mut()))
            {
                let headroom = appetite(demand) - *grant;
                if headroom <= 0.0 || share.weight <= 0.0 {
                    continue;
                }
                let offer = residual * share.weight / hungry_weight;
                let taken = offer.min(headroom);
                *grant += taken;
                consumed += taken;
            }
            residual -= consumed;
            if consumed <= 0.0 {
                break;
            }
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(shares: &[(f64, f64)]) -> FairnessPolicy {
        FairnessPolicy::new(
            shares
                .iter()
                .map(|&(floor, weight)| TenantShare::new(floor, weight))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_malformed_policies() {
        assert!(matches!(
            FairnessPolicy::new(vec![]),
            Err(StratRecError::InvalidFairnessPolicy(_))
        ));
        assert!(matches!(
            FairnessPolicy::new(vec![TenantShare::new(-0.1, 1.0)]),
            Err(StratRecError::InvalidFairnessPolicy(_))
        ));
        assert!(matches!(
            FairnessPolicy::new(vec![TenantShare::new(0.5, -1.0)]),
            Err(StratRecError::InvalidFairnessPolicy(_))
        ));
        assert!(matches!(
            FairnessPolicy::new(vec![TenantShare::new(0.6, 1.0), TenantShare::new(0.6, 1.0)]),
            Err(StratRecError::InvalidFairnessPolicy(_))
        ));
        assert!(matches!(
            FairnessPolicy::new(vec![TenantShare::new(f64::NAN, 1.0)]),
            Err(StratRecError::InvalidFairnessPolicy(_))
        ));
        assert!(FairnessPolicy::uniform(0).is_err());
        assert_eq!(FairnessPolicy::uniform(4).unwrap().tenant_count(), 4);
    }

    #[test]
    fn floors_are_honored_before_any_residual() {
        let policy = policy(&[(0.25, 1.0), (0.25, 1.0)]);
        // Both tenants demand far more than the budget: each still gets at
        // least its floor, and the whole budget is handed out.
        let grants = policy.split(1.0, &[100.0, 100.0]);
        assert!(grants[0] >= 0.25);
        assert!(grants[1] >= 0.25);
        let total: f64 = grants.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_heavy_tenant_cannot_push_a_light_one_below_its_floor() {
        let policy = policy(&[(0.2, 1.0), (0.2, 1.0), (0.2, 1.0)]);
        for heavy in [10.0, 100.0, 1e6] {
            let grants = policy.split(1.0, &[heavy, 0.5, 0.5]);
            assert!(grants[1] >= 0.2, "heavy={heavy}: {grants:?}");
            assert!(grants[2] >= 0.2, "heavy={heavy}: {grants:?}");
            assert!(grants.iter().sum::<f64>() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn grants_never_exceed_demands() {
        let policy = policy(&[(0.3, 2.0), (0.3, 1.0), (0.0, 1.0)]);
        let demands = [0.05, 0.1, 0.2];
        let grants = policy.split(1.0, &demands);
        for (grant, demand) in grants.iter().zip(&demands) {
            assert!(grant <= demand);
        }
        // The budget exceeds total demand: everyone is fully satisfied.
        assert!(grants
            .iter()
            .zip(&demands)
            .all(|(g, d)| (g - d).abs() < 1e-12));
    }

    #[test]
    fn residual_follows_the_weights() {
        // No floors: the split is a pure weighted division.
        let policy = policy(&[(0.0, 3.0), (0.0, 1.0)]);
        let grants = policy.split(1.0, &[10.0, 10.0]);
        assert!((grants[0] - 0.75).abs() < 1e-12);
        assert!((grants[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn capped_tenants_return_their_share_to_the_pool() {
        // Tenant 0 can only absorb 0.1; its unused weighted share must flow
        // to tenant 1 rather than evaporate.
        let policy = policy(&[(0.0, 1.0), (0.0, 1.0)]);
        let grants = policy.split(1.0, &[0.1, 10.0]);
        assert!((grants[0] - 0.1).abs() < 1e-12);
        assert!((grants[1] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_tenants_stop_at_their_floor() {
        let policy = policy(&[(0.1, 0.0), (0.0, 1.0)]);
        let grants = policy.split(1.0, &[10.0, 10.0]);
        assert!((grants[0] - 0.1).abs() < 1e-12);
        assert!((grants[1] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn infinite_demand_is_unbounded_appetite_not_poison() {
        let policy = policy(&[(0.2, 1.0), (0.2, 1.0)]);
        let grants = policy.split(1.0, &[f64::INFINITY, 0.5]);
        assert!(grants.iter().all(|g| g.is_finite()));
        assert!(grants[1] >= 0.2);
        assert!(grants.iter().sum::<f64>() <= 1.0 + 1e-12);
    }

    #[test]
    fn a_zero_budget_grants_nothing() {
        let policy = policy(&[(0.5, 1.0), (0.5, 1.0)]);
        assert_eq!(policy.split(0.0, &[1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one demand per tenant")]
    fn split_validates_the_demand_arity() {
        let _ = policy(&[(0.5, 1.0)]).split(1.0, &[1.0, 2.0]);
    }

    #[test]
    fn the_split_is_deterministic() {
        let policy = policy(&[(0.1, 2.0), (0.3, 1.0), (0.0, 5.0)]);
        let demands = [0.7, 0.9, 0.4];
        let a = policy.split(0.8, &demands);
        let b = policy.split(0.8, &demands);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
