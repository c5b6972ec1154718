//! Fairness regression suite: a tenant flooding the queue with 10× every
//! other tenant's volume must never push a light tenant's granted budget
//! below its fairness floor — not at steady state, and not across catalog
//! churn (inserts, retires, a mid-stream compaction), and not at bench
//! scale (`|S| = 10 000`, `k = 10`).

use stratrec::core::availability::AvailabilityPdf;
use stratrec::core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec::core::fairness::{FairnessPolicy, TenantShare};
use stratrec::core::model::{DeploymentParameters, Strategy};
use stratrec::core::modeling::{ModelLibrary, StrategyModel};
use stratrec::core::stratrec::{StratRec, StratRecConfig, TenantOutcome};
use stratrec::workload::tenants::TenantMixScenario;
use stratrec::workload::{BatchScenario, ParameterDistribution};

const TENANTS: usize = 4;
const HEAVY: usize = 0;
const FLOOR: f64 = 0.2;

/// Deterministic per-strategy model (same scheme as the churn replay) so
/// the tenant matrices carry a real mix of finite and infinite cells.
fn model_for(id: u64) -> StrategyModel {
    let alpha = 0.4 + ((id * 31) % 47) as f64 / 100.0;
    StrategyModel::uniform(alpha, 1.0 - alpha)
}

/// A varied strategy spread over the parameter cube, biased loose enough
/// that most requests of the `[0.625, 1]` workload find eligible columns.
fn strategy_for(id: u64) -> Strategy {
    let q = 0.30 + ((id * 13) % 60) as f64 / 100.0;
    let c = 0.45 + ((id * 29) % 55) as f64 / 100.0;
    let l = 0.40 + ((id * 7) % 60) as f64 / 100.0;
    Strategy::from_params(id, DeploymentParameters::clamped(q, c, l))
}

/// The Zipf-flat mix of `total_requests` with one 10× flooding tenant and
/// 0.2 floors.
fn flooded_mix(total_requests: usize) -> stratrec::workload::TenantMix {
    TenantMixScenario {
        tenants: TENANTS,
        zipf_s: 0.0,
        total_requests,
        heavy_tenant: Some(HEAVY),
        heavy_factor: 10.0,
        floor: FLOOR,
        seed: 7,
    }
    .materialize()
}

/// Every light tenant's grant must reach `min(demand, floor · budget)` —
/// the guarantee [`FairnessPolicy::split`] makes — and the grants must
/// never oversubscribe the budget.
fn assert_floors_hold(outcomes: &[TenantOutcome], budget: f64, context: &str) {
    assert_eq!(outcomes.len(), TENANTS, "{context}: one outcome per tenant");
    let total: f64 = outcomes.iter().map(|o| o.granted.value()).sum();
    assert!(
        total <= budget + 1e-9,
        "{context}: grants {total} oversubscribe budget {budget}"
    );
    for outcome in outcomes {
        let floor_grant = (FLOOR * budget).min(outcome.demand);
        assert!(
            outcome.granted.value() >= floor_grant - 1e-12,
            "{context}: tenant {} granted {} below its floor entitlement {floor_grant} \
             (demand {})",
            outcome.tenant,
            outcome.granted.value(),
            outcome.demand,
        );
    }
}

#[test]
fn flooding_tenant_never_starves_a_floor_across_churn_and_compaction() {
    let mix = flooded_mix(160);
    let batches: Vec<&[_]> = mix.batches.iter().map(Vec::as_slice).collect();
    // The flood must actually be a flood for the regression to bite.
    for (tenant, batch) in mix.batches.iter().enumerate() {
        if tenant != HEAVY {
            assert!(
                mix.batches[HEAVY].len() > 3 * batch.len(),
                "heavy tenant volume {} vs tenant {tenant} volume {}",
                mix.batches[HEAVY].len(),
                batch.len()
            );
        }
    }

    let availability = AvailabilityPdf::certain(0.85);
    let budget = availability.expectation().value();
    let layer = StratRec::new(StratRecConfig::default());

    let mut catalog = StrategyCatalog::with_policy(
        (0..24).map(strategy_for).collect::<Vec<_>>(),
        RebuildPolicy::threshold(4),
    );
    let mut models =
        ModelLibrary::from_pairs((0..24).map(|id| (strategy_for(id).id, model_for(id))));
    let mut next_id = 24_u64;

    for epoch in 0..6 {
        // Churn between epochs: two inserts, one retire, and a compaction
        // mid-stream so the fairness guarantee is also exercised across a
        // full slot renumbering.
        for _ in 0..2 {
            let strategy = strategy_for(next_id);
            models.insert(strategy.id, model_for(next_id));
            next_id += 1;
            catalog.insert(strategy);
        }
        let live = catalog.live_indices();
        let victim = live[(epoch * 5) % live.len()];
        assert!(catalog.retire(victim));
        if epoch == 3 {
            catalog.compact();
        }

        let outcomes = layer
            .process_tenant_batches(&batches, &catalog, &models, &availability, &mix.policy)
            .expect("policy arity matches the mix");

        let context = format!("epoch {epoch}");
        assert_floors_hold(&outcomes, budget, &context);

        // The flood is real: the heavy tenant demands (far) more than any
        // light tenant, yet the split confines the damage to the residual.
        let heavy = &outcomes[HEAVY];
        for outcome in &outcomes {
            if outcome.tenant != HEAVY {
                assert!(
                    heavy.demand > outcome.demand,
                    "{context}: heavy demand {} should dwarf tenant {}'s {}",
                    heavy.demand,
                    outcome.tenant,
                    outcome.demand
                );
            }
        }
    }
}

#[test]
fn removing_the_flood_never_lowers_a_light_tenants_grant() {
    // The same mix with and without the 10× multiplier on tenant 0: with
    // floors in place, adding the flood can shrink a light tenant's
    // residual share but never its floor entitlement.
    let flooded = flooded_mix(160);
    let calm = TenantMixScenario {
        tenants: TENANTS,
        zipf_s: 0.0,
        total_requests: 160,
        heavy_tenant: None,
        heavy_factor: 1.0,
        floor: FLOOR,
        seed: 7,
    }
    .materialize();

    let availability = AvailabilityPdf::certain(0.85);
    let budget = availability.expectation().value();
    let layer = StratRec::new(StratRecConfig::default());
    let catalog = StrategyCatalog::new((0..24).map(strategy_for).collect::<Vec<_>>());
    let models = ModelLibrary::from_pairs((0..24).map(|id| (strategy_for(id).id, model_for(id))));

    for mix in [&flooded, &calm] {
        let batches: Vec<&[_]> = mix.batches.iter().map(Vec::as_slice).collect();
        let outcomes = layer
            .process_tenant_batches(&batches, &catalog, &models, &availability, &mix.policy)
            .expect("policy arity matches the mix");
        assert_floors_hold(&outcomes, budget, "steady state");
    }

    // The same floors at bench scale: a 128-request flooded mix against
    // |S| = 10 000 synthetic strategies with k = 10.
    let bench = BatchScenario {
        batch_size: 64,
        strategy_count: 10_000,
        k: 10,
        availability: 0.5,
        distribution: ParameterDistribution::Uniform,
        seed: 2020,
    }
    .materialize();
    let bench_layer = StratRec::new(StratRecConfig {
        k: 10,
        ..StratRecConfig::default()
    });
    let bench_mix = flooded_mix(128);
    let batches: Vec<&[_]> = bench_mix.batches.iter().map(Vec::as_slice).collect();
    let outcomes = bench_layer
        .process_tenant_batches(
            &batches,
            &bench.catalog(),
            &bench.models,
            &availability,
            &bench_mix.policy,
        )
        .expect("policy arity matches the mix");
    assert_floors_hold(&outcomes, budget, "bench scale");
    let total_demand: f64 = outcomes.iter().map(|o| o.demand).sum();
    assert!(
        total_demand > budget,
        "bench scale: demand {total_demand} must exceed budget {budget} for the split to bind"
    );

    // Mismatched arity is a policy error, not a panic.
    let batches: Vec<&[_]> = flooded.batches[..TENANTS - 1]
        .iter()
        .map(Vec::as_slice)
        .collect();
    let err = layer
        .process_tenant_batches(&batches, &catalog, &models, &availability, &flooded.policy)
        .unwrap_err();
    assert!(matches!(
        err,
        stratrec::core::error::StratRecError::InvalidFairnessPolicy(_)
    ));
}

// --- Degenerate splits under overload -------------------------------------
//
// The streaming tier calls `FairnessPolicy::split` while a burst is in
// flight, which is exactly when the inputs go degenerate: the budget
// collapses to zero, a tenant goes silent mid-burst, or every floor
// saturates at once. The invariants must not bend: grants sum to at most
// the budget, no grant exceeds its demand, and light-tenant floors hold
// while the heavy tenant is the one being shed.

fn overload_policy() -> FairnessPolicy {
    // Heavy tenant 0 with a big residual weight; three light tenants with
    // guaranteed 0.2 floors.
    FairnessPolicy::new(vec![
        TenantShare::new(0.1, 10.0),
        TenantShare::new(0.2, 1.0),
        TenantShare::new(0.2, 1.0),
        TenantShare::new(0.2, 1.0),
    ])
    .unwrap()
}

fn assert_split_invariants(grants: &[f64], budget: f64, demands: &[f64]) {
    let total: f64 = grants.iter().sum();
    assert!(
        total <= budget + 1e-9,
        "grants {total} oversubscribe budget {budget}"
    );
    for (tenant, (&grant, &demand)) in grants.iter().zip(demands).enumerate() {
        assert!(grant >= 0.0, "tenant {tenant} granted negative {grant}");
        assert!(
            grant <= demand + 1e-12,
            "tenant {tenant} granted {grant} beyond its demand {demand}"
        );
    }
}

#[test]
fn a_zero_budget_split_grants_nothing_and_does_not_panic() {
    let policy = overload_policy();
    // A fully shed platform: zero budget against a flooding demand vector.
    let demands = [1_000.0, 3.0, 0.5, 2.0];
    let grants = policy.split(0.0, &demands);
    assert_split_invariants(&grants, 0.0, &demands);
    assert!(
        grants.iter().all(|&g| g == 0.0),
        "a zero budget grants exactly zero everywhere: {grants:?}"
    );
}

#[test]
fn a_tenant_going_silent_mid_burst_frees_its_share_for_the_others() {
    let policy = overload_policy();
    let budget = 1.0;
    // Tenant 2 issues nothing during the burst while tenant 0 floods.
    let demands = [50.0, 0.4, 0.0, 0.4];
    let grants = policy.split(budget, &demands);
    assert_split_invariants(&grants, budget, &demands);
    assert_eq!(grants[2], 0.0, "no demand, no grant");
    // The light tenants with demand keep their full floor entitlement …
    for tenant in [1, 3] {
        assert!(
            grants[tenant] >= 0.2 * budget - 1e-12,
            "tenant {tenant} floor broken: {grants:?}"
        );
    }
    // … and the burst's slack (the silent tenant's unused floor) is
    // water-filled, so the whole budget is still put to work.
    let total: f64 = grants.iter().sum();
    assert!(
        (total - budget).abs() < 1e-9,
        "demand far beyond budget must consume it fully: {grants:?}"
    );
    // The flood is confined to the residual: the heavy tenant can never
    // take a light tenant's floor, no matter its weight or volume.
    assert!(
        grants[0] <= budget - 2.0 * (0.2 * budget) + 1e-9,
        "heavy tenant {} ate into the standing floors: {grants:?}",
        grants[0]
    );
}

#[test]
fn all_floors_saturated_leaves_exactly_the_floor_split() {
    // Floors sum to 1: the floors phase consumes the entire budget and the
    // water-fill has nothing to distribute — the heavy tenant's 100×
    // demand and 10× weight must win it nothing extra.
    let policy = FairnessPolicy::new(vec![
        TenantShare::new(0.4, 10.0),
        TenantShare::new(0.3, 1.0),
        TenantShare::new(0.3, 1.0),
    ])
    .unwrap();
    let budget = 0.8;
    let demands = [100.0, 1.0, 1.0];
    let grants = policy.split(budget, &demands);
    assert_split_invariants(&grants, budget, &demands);
    let expected = [0.4 * budget, 0.3 * budget, 0.3 * budget];
    for (tenant, (&grant, &floor_grant)) in grants.iter().zip(&expected).enumerate() {
        assert!(
            (grant - floor_grant).abs() < 1e-9,
            "tenant {tenant}: granted {grant}, saturated floor is {floor_grant}"
        );
    }
}
