//! Property-based churn parity: random interleavings of insert / retire /
//! compact / eligibility-query against a shadow linear scan.
//!
//! Reenactment-style replay: every generated op sequence is applied in
//! lockstep to a shadow `Vec<(slot, Strategy)>` (ground truth, scanned
//! linearly) and to catalogs running three rebuild policies — merge always
//! (threshold 0), a small finite threshold, and never merge (∞). A
//! `compact()` op renumbers the shadow through the returned `SlotRemap`
//! (all three policies must return the same remap — the live set is
//! identical). After **every** step the catalogs' indexed answers must be
//! identical to the shadow's, so a divergence pins the exact churn prefix
//! that caused it. The vendored proptest harness seeds its RNG
//! deterministically from the test name, so CI replays the same sequences
//! on every run (`PROPTEST_CASES=256` in the workflow).
//!
//! The replay also carries the **delta-maintained derived state** through
//! the same op stream: per policy, a standing-batch workforce matrix and
//! two aggregation caches (sum- and max-mode) subscribe to the catalog's
//! delta feed and absorb every step through `take_delta` →
//! `BatchEngine::apply_matrix_delta` (one worker per core) →
//! `AggregationCache::repair`, interleaved with `compact()`. After every
//! step the incrementally maintained matrix must be **bit-identical** to a
//! fresh one-thread fill (`BatchEngine::sequential().workforce_matrix`) and
//! each cache to a fresh `aggregate` over the updated matrix.

use proptest::prelude::*;
use stratrec::core::adpar::{AdparBruteForce, AdparExact, AdparProblem, AdparSolver, SolveScratch};
use stratrec::core::catalog::{RebuildPolicy, StrategyCatalog};
use stratrec::core::engine::BatchEngine;
use stratrec::core::model::{DeploymentParameters, DeploymentRequest, Strategy, TaskType};
use stratrec::core::modeling::{ModelLibrary, StrategyModel};
use stratrec::core::workforce::{
    AggregationCache, AggregationMode, EligibilityRule, WorkforceMatrix,
};
use stratrec::geometry::Axis;

const POLICIES: [RebuildPolicy; 3] = [
    RebuildPolicy::always(),
    RebuildPolicy::threshold(4),
    RebuildPolicy::never(),
];

/// The shadow's eligible slots for `probe`, ascending (the shadow list is
/// kept in slot order).
fn shadow_eligible(shadow: &[(usize, Strategy)], probe: &DeploymentParameters) -> Vec<usize> {
    shadow
        .iter()
        .filter(|(_, s)| s.params.satisfies(probe))
        .map(|(slot, _)| *slot)
        .collect()
}

/// The shadow's slots sorted ascending by `(normalized coordinate, slot)` —
/// the ground truth for the catalog's pre-sorted axis orders.
fn shadow_axis_order(shadow: &[(usize, Strategy)], axis: Axis) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = shadow
        .iter()
        .map(|(slot, s)| (s.to_normalized_point().coord(axis), *slot))
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, slot)| slot).collect()
}

/// Deterministic per-strategy model so the replayed matrices carry a real
/// mix of finite and infinite cells with id-distinct values.
fn model_for(id: u64) -> StrategyModel {
    let alpha = 0.4 + ((id * 31) % 47) as f64 / 100.0;
    StrategyModel::uniform(alpha, 1.0 - alpha)
}

/// The standing deployment-request batch whose matrix rows the replay
/// maintains incrementally (one loose, one mid, one strict request).
fn standing_requests() -> Vec<DeploymentRequest> {
    [(0.05, 0.95, 0.95), (0.55, 0.6, 0.65), (0.85, 0.35, 0.3)]
        .iter()
        .enumerate()
        .map(|(i, &(q, c, l))| {
            DeploymentRequest::new(
                i as u64,
                TaskType::SentenceTranslation,
                DeploymentParameters::clamped(q, c, l),
            )
        })
        .collect()
}

/// Per-policy delta-maintained derived state: the standing-batch matrix and
/// its sum-/max-mode aggregation caches, fed by one delta subscription.
struct MaintainedState {
    subscription: stratrec::core::catalog::DeltaSubscription,
    matrix: WorkforceMatrix,
    cache_sum: AggregationCache,
    cache_max: AggregationCache,
}

const MAINTAINED_K: usize = 2;

impl MaintainedState {
    fn new(
        catalog: &mut StrategyCatalog,
        requests: &[DeploymentRequest],
        models: &ModelLibrary,
    ) -> Self {
        let matrix = BatchEngine::sequential()
            .workforce_matrix(
                requests,
                catalog,
                models,
                EligibilityRule::StrategyParameters,
            )
            .expect("every replayed strategy has a model");
        let mut cache_sum = AggregationCache::new(MAINTAINED_K, AggregationMode::Sum);
        let mut cache_max = AggregationCache::new(MAINTAINED_K, AggregationMode::Max);
        cache_sum.prime(&matrix);
        cache_max.prime(&matrix);
        let subscription = catalog.subscribe_delta();
        Self {
            subscription,
            matrix,
            cache_sum,
            cache_max,
        }
    }
}

proptest! {
    #[test]
    fn churn_parity_across_rebuild_thresholds(
        initial in proptest::collection::vec(
            (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 0..30),
        ops in proptest::collection::vec(
            (0.0_f64..1.0, (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0)), 1..70),
    ) {
        let seed: Vec<Strategy> = initial
            .iter()
            .enumerate()
            .map(|(i, &(q, c, l))| {
                Strategy::from_params(i as u64, DeploymentParameters::clamped(q, c, l))
            })
            .collect();
        let mut shadow: Vec<(usize, Strategy)> =
            seed.iter().cloned().enumerate().collect();
        let mut catalogs: Vec<StrategyCatalog> = POLICIES
            .iter()
            .map(|&policy| StrategyCatalog::with_policy(seed.clone(), policy))
            .collect();
        let mut next_id = seed.len() as u64;

        // Delta-maintained derived state, carried through the same op
        // stream: a model per strategy (extended on every insert), the
        // standing batch, and per-policy matrix + caches + subscription.
        let mut models =
            ModelLibrary::from_pairs(seed.iter().map(|s| (s.id, model_for(s.id.0))));
        let requests = standing_requests();
        let mut maintained: Vec<MaintainedState> = catalogs
            .iter_mut()
            .map(|catalog| MaintainedState::new(catalog, &requests, &models))
            .collect();
        let mut model_buf = Vec::new();

        for &(selector, (a, b, c)) in &ops {
            // Decide the op: ~42 % insert, ~23 % retire, ~8 % compact,
            // ~27 % pure query.
            if selector < 0.42 {
                let strategy =
                    Strategy::from_params(next_id, DeploymentParameters::clamped(a, b, c));
                models.insert(strategy.id, model_for(next_id));
                next_id += 1;
                let mut slots = Vec::new();
                for catalog in &mut catalogs {
                    slots.push(catalog.insert(strategy.clone()));
                }
                // Every policy allocates the same stable slot number.
                prop_assert!(slots.windows(2).all(|w| w[0] == w[1]));
                shadow.push((slots[0], strategy));
            } else if selector < 0.65 && !shadow.is_empty() {
                let victim = ((a * shadow.len() as f64) as usize).min(shadow.len() - 1);
                let (slot, _) = shadow.remove(victim);
                for catalog in &mut catalogs {
                    prop_assert!(catalog.retire(slot), "slot {slot} should be live");
                    prop_assert!(!catalog.retire(slot), "double retire must be a no-op");
                }
            } else if selector < 0.73 {
                // Compact every catalog; the live sets are identical, so the
                // remaps must be too, and the shadow renumbers through it.
                let remaps: Vec<_> = catalogs
                    .iter_mut()
                    .map(stratrec::core::catalog::StrategyCatalog::compact)
                    .collect();
                prop_assert!(remaps.windows(2).all(|w| w[0] == w[1]));
                let remap = &remaps[0];
                prop_assert_eq!(remap.live_len, shadow.len());
                for (slot, _) in &mut shadow {
                    let new = remap.remap(*slot);
                    prop_assert!(new.is_some(), "live slot {} must survive compaction", *slot);
                    *slot = new.unwrap();
                }
                for catalog in &catalogs {
                    prop_assert_eq!(catalog.slot_count(), catalog.len());
                    prop_assert!(catalog.overlay_is_empty());
                    prop_assert!(catalog.index_is_packed_live());
                }
            }

            // Delta maintenance after EVERY step: drain each catalog's
            // window (identical across policies — same churn), apply it to
            // the long-lived matrix, lazily repair the caches, and pin
            // bit-identity against a fresh recompute / re-aggregation.
            let mut deltas = Vec::new();
            for (catalog, state) in catalogs.iter_mut().zip(&mut maintained) {
                let delta = catalog.take_delta(&state.subscription).unwrap();
                BatchEngine::new()
                    .apply_matrix_delta(
                        &mut state.matrix,
                        &delta,
                        &requests,
                        catalog,
                        &models,
                        EligibilityRule::StrategyParameters,
                        &mut model_buf,
                    )
                    .expect("replayed deltas are current and fully modeled");
                state.cache_sum.repair(&state.matrix, &delta);
                state.cache_max.repair(&state.matrix, &delta);
                deltas.push(delta);
            }
            prop_assert!(
                deltas.windows(2).all(|w| w[0] == w[1]),
                "identical churn must drain identical deltas across policies"
            );
            for (catalog, state) in catalogs.iter().zip(&maintained) {
                let fresh = BatchEngine::sequential().workforce_matrix(
                    &requests,
                    catalog,
                    &models,
                    EligibilityRule::StrategyParameters,
                )
                .expect("every replayed strategy has a model");
                prop_assert_eq!(
                    &state.matrix,
                    &fresh,
                    "delta-maintained matrix diverged, policy {:?}",
                    catalog.rebuild_policy()
                );
                prop_assert_eq!(
                    state.cache_sum.requirements(),
                    &fresh.aggregate(MAINTAINED_K, AggregationMode::Sum)[..],
                    "sum cache diverged, policy {:?}",
                    catalog.rebuild_policy()
                );
                prop_assert_eq!(
                    state.cache_max.requirements(),
                    &fresh.aggregate(MAINTAINED_K, AggregationMode::Max)[..],
                    "max cache diverged, policy {:?}",
                    catalog.rebuild_policy()
                );
            }

            // Parity check after EVERY step: the op's parameter triple
            // doubles as the query probe, and a fixed loose probe catches
            // regressions in the full live set.
            let probes = [
                DeploymentParameters::clamped(a, b, c),
                DeploymentParameters::default(),
            ];
            for catalog in &catalogs {
                prop_assert_eq!(catalog.len(), shadow.len());
                for probe in &probes {
                    let expected = shadow_eligible(&shadow, probe);
                    prop_assert_eq!(
                        catalog.eligible_for(probe),
                        expected,
                        "policy {:?}",
                        catalog.rebuild_policy()
                    );
                }
                // The catalog-resident axis orders follow the same
                // log-structured discipline and must be exact at every
                // churn point too.
                for axis in Axis::ALL {
                    prop_assert_eq!(
                        catalog.axis_order(axis),
                        shadow_axis_order(&shadow, axis),
                        "policy {:?}, axis {:?}",
                        catalog.rebuild_policy(),
                        axis
                    );
                }
            }
            // The always-policy may never accumulate an overlay.
            prop_assert!(catalogs[0].overlay_is_empty());
        }

        // Epilogue: merging / rebuilding the lagging catalogs changes nothing.
        let final_probe = DeploymentParameters::default();
        let expected = shadow_eligible(&shadow, &final_probe);
        for (catalog, state) in catalogs.iter_mut().zip(&maintained) {
            catalog.merge_overlay();
            prop_assert!(catalog.overlay_is_empty());
            prop_assert_eq!(catalog.eligible_for(&final_probe), expected.clone());
            catalog.force_rebuild();
            prop_assert_eq!(catalog.eligible_for(&final_probe), expected.clone());
            prop_assert_eq!(catalog.index().len(), shadow.len());
            for axis in Axis::ALL {
                prop_assert_eq!(
                    catalog.axis_order(axis),
                    shadow_axis_order(&shadow, axis),
                    "axis {:?} after rebuild",
                    axis
                );
            }
            // Merges and rebuilds are not mutations of the live set: the
            // delta feed stays silent and the maintained matrix stays
            // current.
            let delta = catalog.take_delta(&state.subscription).unwrap();
            prop_assert!(delta.is_empty(), "merge/rebuild must not emit churn");
        }
    }

    /// Aggregation-cache churn parity for **both** `EligibilityRule`s: a
    /// delta-maintained matrix per rule and an `AggregationCache` per mode
    /// (repaired after **every** step, empty windows included) must stay
    /// bit-identical to a fresh one-thread fill and to the flat
    /// `aggregate` over it, across random insert / retire / compact
    /// interleavings.
    #[test]
    fn aggregation_cache_parity_under_churn_for_both_rules(
        initial in proptest::collection::vec(
            (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 0..20),
        ops in proptest::collection::vec(
            (0.0_f64..1.0, (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0)), 1..40),
    ) {
        const RULES: [EligibilityRule; 2] = [
            EligibilityRule::StrategyParameters,
            EligibilityRule::ModelOnly,
        ];
        const MODES: [AggregationMode; 2] = [AggregationMode::Sum, AggregationMode::Max];
        let seed: Vec<Strategy> = initial
            .iter()
            .enumerate()
            .map(|(i, &(q, c, l))| {
                Strategy::from_params(i as u64, DeploymentParameters::clamped(q, c, l))
            })
            .collect();
        let mut models =
            ModelLibrary::from_pairs(seed.iter().map(|s| (s.id, model_for(s.id.0))));
        let requests = standing_requests();
        let mut catalog =
            StrategyCatalog::with_policy(seed.clone(), RebuildPolicy::threshold(4));
        let mut next_id = seed.len() as u64;

        struct RuleState {
            rule: EligibilityRule,
            subscription: stratrec::core::catalog::DeltaSubscription,
            matrix: WorkforceMatrix,
            /// One cache per aggregation mode, in `MODES` order.
            caches: Vec<AggregationCache>,
        }
        let mut states: Vec<RuleState> = Vec::new();
        for rule in RULES {
            let matrix =
                BatchEngine::sequential().workforce_matrix(&requests, &catalog, &models, rule)
                    .expect("every replayed strategy has a model");
            let caches = MODES
                .iter()
                .map(|&mode| {
                    let mut cache = AggregationCache::new(MAINTAINED_K, mode);
                    cache.prime(&matrix);
                    cache
                })
                .collect();
            states.push(RuleState {
                rule,
                subscription: catalog.subscribe_delta(),
                matrix,
                caches,
            });
        }
        let mut model_buf = Vec::new();

        for &(selector, (a, b, c)) in &ops {
            // ~45 % insert, ~30 % retire, ~10 % compact, ~15 % no-op step
            // (an empty delta window must also repair cleanly).
            if selector < 0.45 {
                let strategy =
                    Strategy::from_params(next_id, DeploymentParameters::clamped(a, b, c));
                models.insert(strategy.id, model_for(next_id));
                next_id += 1;
                catalog.insert(strategy);
            } else if selector < 0.75 && !catalog.is_empty() {
                let live = catalog.live_indices();
                let victim = live[((a * live.len() as f64) as usize).min(live.len() - 1)];
                prop_assert!(catalog.retire(victim));
            } else if selector < 0.85 {
                catalog.compact();
            }

            for state in &mut states {
                let delta = catalog.take_delta(&state.subscription).unwrap();
                BatchEngine::new()
                    .apply_matrix_delta(
                        &mut state.matrix,
                        &delta,
                        &requests,
                        &catalog,
                        &models,
                        state.rule,
                        &mut model_buf,
                    )
                    .expect("replayed deltas are current and fully modeled");
                let fresh =
                    BatchEngine::sequential().workforce_matrix(&requests, &catalog, &models, state.rule)
                        .expect("every replayed strategy has a model");
                prop_assert_eq!(
                    &state.matrix,
                    &fresh,
                    "delta-maintained matrix diverged: rule {:?}",
                    state.rule
                );
                for cache in &mut state.caches {
                    let repaired = cache.repair(&state.matrix, &delta);
                    prop_assert!(repaired <= state.matrix.rows());
                    prop_assert_eq!(
                        cache.requirements(),
                        &fresh.aggregate(MAINTAINED_K, cache.mode())[..],
                        "cache diverged: rule {:?}, {:?}",
                        state.rule,
                        cache.mode()
                    );
                }
            }
        }
    }

    /// Catalog-aware `ADPaR-Exact` (sweeping the catalog's pre-sorted axis
    /// orders through a reused [`SolveScratch`]) against the exhaustive
    /// `ADPaRB` reference on churned catalogs, for every rebuild policy:
    /// the sweep optimum must match brute force, and the churned problem
    /// must reproduce the problem over a pristine catalog of the compacted
    /// live set bit for bit (indices mapped through the live slot order).
    #[test]
    fn catalog_exact_matches_brute_force_after_churn(
        initial in proptest::collection::vec(
            (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0), 3..9),
        churn in proptest::collection::vec(
            (0.0_f64..1.0, (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0)), 0..14),
        req in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
        k in 1_usize..4,
    ) {
        prop_assume!(k <= initial.len());
        let request = DeploymentRequest::new(
            0,
            TaskType::TextCreation,
            DeploymentParameters::clamped(req.0, req.1, req.2),
        );
        let seed: Vec<Strategy> = initial
            .iter()
            .enumerate()
            .map(|(i, &(q, c, l))| {
                Strategy::from_params(i as u64, DeploymentParameters::clamped(q, c, l))
            })
            .collect();
        let mut scratch = SolveScratch::new();
        for policy in POLICIES {
            let mut catalog = StrategyCatalog::with_policy(seed.clone(), policy);
            let mut next_id = seed.len() as u64;
            for &(selector, (a, b, c)) in &churn {
                if selector < 0.5 {
                    let strategy =
                        Strategy::from_params(next_id, DeploymentParameters::clamped(a, b, c));
                    next_id += 1;
                    catalog.insert(strategy);
                } else if catalog.len() > k {
                    // Retire a random live slot, keeping at least k alive so
                    // every problem below stays feasible.
                    let live = catalog.live_indices();
                    let victim = live[((a * live.len() as f64) as usize).min(live.len() - 1)];
                    prop_assert!(catalog.retire(victim));
                }
            }

            let live_slots = catalog.live_indices();
            let compact: Vec<Strategy> = live_slots
                .iter()
                .map(|&slot| catalog.strategy(slot).clone())
                .collect();

            let indexed = AdparProblem::with_catalog(&request, &catalog, k);
            let exact = AdparExact.solve_with_scratch(&indexed, &mut scratch).unwrap();
            let brute = AdparBruteForce.solve(&indexed).unwrap();
            prop_assert!(
                (exact.distance - brute.distance).abs() < 1e-9,
                "policy {:?}: exact {} vs brute {}",
                policy, exact.distance, brute.distance
            );
            prop_assert!(exact.strategy_indices.len() >= k);
            prop_assert!(exact
                .strategy_indices
                .iter()
                .all(|&slot| catalog.is_live(slot)));

            // The churned catalog's problem must agree bit for bit with a
            // problem over a pristine catalog of the compacted live set.
            let pristine = StrategyCatalog::new(compact);
            let plain = AdparProblem::with_catalog(&request, &pristine, k);
            let plain_exact = AdparExact.solve(&plain).unwrap();
            prop_assert_eq!(plain_exact.relaxation, exact.relaxation, "policy {:?}", policy);
            prop_assert_eq!(
                plain_exact.alternative,
                exact.alternative.clone(),
                "policy {:?}",
                policy
            );
            let mapped: Vec<usize> = plain_exact
                .strategy_indices
                .iter()
                .map(|&compact_idx| live_slots[compact_idx])
                .collect();
            prop_assert_eq!(mapped, exact.strategy_indices, "policy {:?}", policy);
        }
    }
}
