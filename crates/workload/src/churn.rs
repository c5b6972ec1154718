//! Churn scenarios: deployment batches interleaved with strategy add/retire.
//!
//! The paper's synthetic experiments (§5.2) assume a frozen strategy set,
//! but a live crowdsourcing platform deploys new strategies and retires
//! stale ones continuously. A [`ChurnScenario`] materializes an epoch stream
//! for that setting: each [`ChurnEpoch`] carries a batch of deployment
//! requests plus the strategies inserted and the retirement picks applied
//! before the batch is triaged. The same stream drives both catalog
//! maintenance disciplines compared in `bench_churn`:
//!
//! * **rebuild** — keep a plain `Vec<Strategy>` of live strategies
//!   ([`ChurnEpoch::apply_to_vec`]) and bulk-load a fresh
//!   [`StrategyCatalog`] every epoch;
//! * **overlay** — mutate one long-lived catalog in place
//!   ([`ChurnEpoch::apply`]), letting its log-structured overlay absorb the
//!   churn.
//!
//! Retirement picks are stored as *ranks* resolved against the live set at
//! application time, so the two disciplines retire exactly the same
//! strategies: the catalog's ascending live-slot order matches the plain
//! vector's insertion order position for position. Rank-based picks are
//! also compaction-proof: they survive the slot renumbering a
//! [`CompactPolicy`]-driven `compact()` applies at an epoch boundary
//! ([`ChurnEpoch::apply_with_compaction`]), so the same scenario drives the
//! full churn → compact → solve loop the compaction benches measure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use stratrec_core::availability::WorkerAvailability;
use stratrec_core::catalog::{RebuildPolicy, SlotRemap, StrategyCatalog};
use stratrec_core::model::{DeploymentRequest, Strategy};
use stratrec_core::modeling::ModelLibrary;

use crate::model_gen::generate_models;
use crate::request_gen::generate_requests;
use crate::scenario::ParameterDistribution;
use crate::strategy_gen::generate_strategies;

/// When a long-lived catalog compacts at epoch boundaries, reclaiming
/// tombstoned slots (see `StrategyCatalog::compact`).
///
/// Compaction renumbers slots — every retained slot reference must go
/// through the returned [`SlotRemap`] — so a service picks its boundary
/// deliberately: periodically ([`Self::EveryNEpochs`]) for predictable
/// memory ceilings, or adaptively once dead slots dominate
/// ([`Self::TombstoneRatio`], the LSM-style space-amplification trigger).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum CompactPolicy {
    /// Never compact: stable slots forever, `slot_count` grows monotonically
    /// with churn (the PR-2 behaviour).
    #[default]
    Never,
    /// Compact after every `n`-th epoch (`n ≥ 1`; `0` behaves like
    /// [`Self::Never`]).
    EveryNEpochs(usize),
    /// Compact at an epoch boundary once retired slots make up at least this
    /// fraction of all slots (`0.3` = compact when ≥ 30 % of the numbering
    /// is dead weight). Never fires while no slot is retired.
    TombstoneRatio(f64),
}

impl CompactPolicy {
    /// Whether `catalog` should compact at the boundary after
    /// `epochs_applied` epochs (1-based count of epochs applied so far).
    #[must_use]
    pub fn should_compact(self, epochs_applied: usize, catalog: &StrategyCatalog) -> bool {
        match self {
            Self::Never => false,
            Self::EveryNEpochs(n) => n > 0 && epochs_applied.is_multiple_of(n),
            Self::TombstoneRatio(ratio) => {
                let retired = catalog.retired_count();
                retired > 0 && retired as f64 >= ratio * catalog.slot_count() as f64
            }
        }
    }
}

/// Scenario knobs for a churn experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnScenario {
    /// Strategies in the catalog before the first epoch (`|S|`).
    pub initial_strategies: usize,
    /// Number of churn epochs.
    pub epochs: usize,
    /// Strategies inserted per epoch.
    pub inserts_per_epoch: usize,
    /// Strategies retired per epoch.
    pub retires_per_epoch: usize,
    /// Deployment requests per epoch batch.
    pub batch_size: usize,
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Expected worker availability `W`.
    pub availability: f64,
    /// Distribution of the strategy parameters.
    pub distribution: ParameterDistribution,
    /// Epoch-boundary compaction policy for the long-lived catalog.
    pub compact: CompactPolicy,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnScenario {
    /// Paper-scale defaults with 1 % churn: `|S| = 10 000`, 100 inserts and
    /// 100 retires per epoch, `m = 10`, `k = 10`, `W = 0.5`.
    fn default() -> Self {
        Self {
            initial_strategies: 10_000,
            epochs: 5,
            inserts_per_epoch: 100,
            retires_per_epoch: 100,
            batch_size: 10,
            k: 10,
            availability: 0.5,
            distribution: ParameterDistribution::Uniform,
            compact: CompactPolicy::Never,
            seed: 2020,
        }
    }
}

impl ChurnScenario {
    /// Sets inserts and retires per epoch to `rate` (e.g. `0.05` = 5 %) of
    /// the initial strategy count, at least 1 each.
    #[must_use]
    pub fn with_churn_rate(mut self, rate: f64) -> Self {
        let per_epoch = ((self.initial_strategies as f64 * rate).round() as usize).max(1);
        self.inserts_per_epoch = per_epoch;
        self.retires_per_epoch = per_epoch;
        self
    }

    /// Materializes the scenario: the initial strategy set, one
    /// [`ChurnEpoch`] per epoch, and a model library covering every strategy
    /// that will ever exist (initial + all inserts).
    #[must_use]
    pub fn materialize(&self) -> ChurnInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let initial = generate_strategies(self.initial_strategies, self.distribution, &mut rng);
        let mut next_id = initial.len() as u64;
        let mut all_strategies = initial.clone();
        let mut epochs = Vec::with_capacity(self.epochs);
        for _ in 0..self.epochs {
            let mut inserts =
                generate_strategies(self.inserts_per_epoch, self.distribution, &mut rng);
            for strategy in &mut inserts {
                strategy.id = stratrec_core::model::StrategyId(next_id);
                next_id += 1;
            }
            all_strategies.extend(inserts.iter().cloned());
            let retire_ranks = (0..self.retires_per_epoch)
                .map(|_| rng.gen::<u64>())
                .collect();
            let requests = generate_requests(self.batch_size, &mut rng);
            epochs.push(ChurnEpoch {
                inserts,
                retire_ranks,
                requests,
            });
        }
        let models = generate_models(&all_strategies, &mut rng);
        // The standing batch of the incremental serving loop: the same `m`
        // requests served across every epoch while the strategy pool churns
        // underneath them (the delta-maintenance setting). Generated last so
        // the epoch streams of pre-existing scenarios are unchanged.
        let standing = generate_requests(self.batch_size, &mut rng);
        ChurnInstance {
            initial,
            epochs,
            standing,
            models,
            availability: WorkerAvailability::clamped(self.availability),
            k: self.k,
            compact: self.compact,
        }
    }
}

/// One epoch of churn: inserts and retirement picks applied before a batch
/// of deployment requests is triaged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnEpoch {
    /// Strategies deployed this epoch (globally unique ids).
    pub inserts: Vec<Strategy>,
    /// Retirement picks as ranks into the live set at application time
    /// (`rank % live_count` selects the victim), so any maintenance
    /// discipline retires the same strategies.
    pub retire_ranks: Vec<u64>,
    /// The deployment-request batch of this epoch.
    pub requests: Vec<DeploymentRequest>,
}

impl ChurnEpoch {
    /// Applies this epoch's churn to a mutable catalog (inserts first, then
    /// retirements), returning the retired slot indices.
    ///
    /// The ascending live-slot list is maintained incrementally across the
    /// retirement picks (one catalog scan per epoch, not per retire), so the
    /// selection overhead stays negligible next to the maintenance cost the
    /// churn benches measure.
    pub fn apply(&self, catalog: &mut StrategyCatalog) -> Vec<usize> {
        let mut live_slots = catalog.live_indices();
        for strategy in &self.inserts {
            // New slots are always larger than existing ones: the list stays
            // ascending, matching `apply_to_vec`'s position order.
            live_slots.push(catalog.insert(strategy.clone()));
        }
        let mut retired = Vec::with_capacity(self.retire_ranks.len());
        for &rank in &self.retire_ranks {
            if live_slots.is_empty() {
                break;
            }
            let position = (rank as usize) % live_slots.len();
            let slot = live_slots.remove(position);
            let ok = catalog.retire(slot);
            debug_assert!(ok, "the live-slot list tracked a dead slot");
            retired.push(slot);
        }
        retired
    }

    /// [`Self::apply`] followed by an epoch-boundary compaction when
    /// `policy` calls for one; `epochs_applied` is the 1-based count of
    /// epochs applied to `catalog` so far, this one included. Returns the
    /// retired slot indices (pre-compaction numbering) and, when the
    /// catalog compacted, the [`SlotRemap`] every retained slot reference
    /// must be renumbered through.
    pub fn apply_with_compaction(
        &self,
        catalog: &mut StrategyCatalog,
        policy: CompactPolicy,
        epochs_applied: usize,
    ) -> (Vec<usize>, Option<SlotRemap>) {
        let retired = self.apply(catalog);
        let remap = policy
            .should_compact(epochs_applied, catalog)
            .then(|| catalog.compact());
        (retired, remap)
    }

    /// Applies the same churn to a plain live-strategy vector — the
    /// rebuild-per-epoch discipline. Position-for-position this retires the
    /// same strategies as [`Self::apply`] does by slot.
    pub fn apply_to_vec(&self, live: &mut Vec<Strategy>) {
        live.extend(self.inserts.iter().cloned());
        for &rank in &self.retire_ranks {
            if live.is_empty() {
                break;
            }
            let position = (rank as usize) % live.len();
            live.remove(position);
        }
    }
}

/// A materialized churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnInstance {
    /// The strategy set before the first epoch.
    pub initial: Vec<Strategy>,
    /// The epoch stream.
    pub epochs: Vec<ChurnEpoch>,
    /// The standing deployment-request batch served across **every** epoch
    /// by long-running serving loops (e.g. [`crate::stress::run_churn_stress`]),
    /// as opposed to the per-epoch [`ChurnEpoch::requests`].
    pub standing: Vec<DeploymentRequest>,
    /// Models for every strategy that ever exists (initial + inserts).
    pub models: ModelLibrary,
    /// Expected worker availability.
    pub availability: WorkerAvailability,
    /// Cardinality constraint `k`.
    pub k: usize,
    /// Epoch-boundary compaction policy for the long-lived catalog.
    pub compact: CompactPolicy,
}

impl ChurnInstance {
    /// Builds the long-lived mutable catalog over the initial strategies.
    #[must_use]
    pub fn catalog(&self, policy: RebuildPolicy) -> StrategyCatalog {
        StrategyCatalog::with_policy(self.initial.clone(), policy)
    }

    /// Applies epoch `epoch_index` of [`Self::epochs`] to a long-lived
    /// catalog, compacting at the boundary when the scenario's
    /// [`CompactPolicy`] ([`Self::compact`]) calls for it — the canonical
    /// per-epoch step of the churn → compact → solve loop. Returns the
    /// retired slots (pre-compaction numbering) and the [`SlotRemap`] when
    /// the boundary compacted.
    ///
    /// # Panics
    ///
    /// Panics when `epoch_index >= self.epochs.len()`.
    pub fn apply_epoch(
        &self,
        epoch_index: usize,
        catalog: &mut StrategyCatalog,
    ) -> (Vec<usize>, Option<SlotRemap>) {
        self.epochs[epoch_index].apply_with_compaction(catalog, self.compact, epoch_index + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratrec_core::batch::{BatchObjective, BatchStrat};
    use stratrec_core::workforce::{AggregationMode, EligibilityRule, WorkforceMatrix};

    fn small_scenario() -> ChurnScenario {
        ChurnScenario {
            initial_strategies: 120,
            epochs: 4,
            inserts_per_epoch: 15,
            retires_per_epoch: 10,
            batch_size: 6,
            k: 3,
            ..ChurnScenario::default()
        }
    }

    #[test]
    fn materialization_is_reproducible_and_ids_are_unique() {
        let scenario = small_scenario();
        let a = scenario.materialize();
        let b = scenario.materialize();
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.epochs, b.epochs);
        let mut ids = std::collections::HashSet::new();
        for s in a
            .initial
            .iter()
            .chain(a.epochs.iter().flat_map(|e| e.inserts.iter()))
        {
            assert!(ids.insert(s.id), "duplicate strategy id {:?}", s.id);
            assert!(a.models.get(s.id).is_some(), "missing model for {:?}", s.id);
        }
    }

    #[test]
    fn churn_rate_scales_with_initial_size() {
        let scenario = ChurnScenario::default().with_churn_rate(0.05);
        assert_eq!(scenario.inserts_per_epoch, 500);
        assert_eq!(scenario.retires_per_epoch, 500);
        let tiny = ChurnScenario {
            initial_strategies: 3,
            ..ChurnScenario::default()
        }
        .with_churn_rate(0.01);
        assert_eq!(tiny.inserts_per_epoch, 1);
    }

    #[test]
    fn both_maintenance_disciplines_retire_the_same_strategies() {
        let instance = small_scenario().materialize();
        let mut catalog = instance.catalog(RebuildPolicy::threshold(8));
        let mut live = instance.initial.clone();
        for epoch in &instance.epochs {
            epoch.apply(&mut catalog);
            epoch.apply_to_vec(&mut live);
            let catalog_live: Vec<_> = catalog
                .live_indices()
                .into_iter()
                .map(|slot| catalog.strategy(slot).clone())
                .collect();
            assert_eq!(catalog_live, live);
        }
    }

    #[test]
    fn churned_catalog_triage_matches_rebuilt_catalog() {
        let instance = small_scenario().materialize();
        let engine = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum);
        for policy in [
            RebuildPolicy::always(),
            RebuildPolicy::threshold(7),
            RebuildPolicy::never(),
        ] {
            let mut catalog = instance.catalog(policy);
            let mut live = instance.initial.clone();
            for epoch in &instance.epochs {
                epoch.apply(&mut catalog);
                epoch.apply_to_vec(&mut live);
                // Eligibility parity per request against the linear scan
                // over the live set (mapped through the live slot order).
                let live_slots = catalog.live_indices();
                for request in &epoch.requests {
                    let by_catalog = catalog.eligible_for_request(request);
                    let by_scan: Vec<usize> = request
                        .eligible_strategies(&live)
                        .into_iter()
                        .map(|pos| live_slots[pos])
                        .collect();
                    assert_eq!(by_catalog, by_scan, "{policy:?}");
                }
                // Outcome parity: triaging through the churned catalog and
                // through a freshly rebuilt one must agree on which
                // requests are satisfied and on the objective.
                let churned = engine
                    .recommend_with_catalog(
                        &epoch.requests,
                        &catalog,
                        &instance.models,
                        instance.k,
                        instance.availability,
                    )
                    .unwrap();
                let rebuilt = engine
                    .recommend_with_models(
                        &epoch.requests,
                        &live,
                        &instance.models,
                        instance.k,
                        instance.availability,
                    )
                    .unwrap();
                let satisfied = |o: &stratrec_core::batch::BatchOutcome| {
                    o.satisfied
                        .iter()
                        .map(|r| r.request_index)
                        .collect::<Vec<_>>()
                };
                assert_eq!(satisfied(&churned), satisfied(&rebuilt), "{policy:?}");
                assert_eq!(churned.unsatisfied, rebuilt.unsatisfied, "{policy:?}");
                assert!(
                    (churned.objective_value - rebuilt.objective_value).abs() < 1e-9,
                    "{policy:?}"
                );
                assert!(
                    (churned.workforce_used - rebuilt.workforce_used).abs() < 1e-9,
                    "{policy:?}"
                );
            }
        }
    }

    #[test]
    fn compact_policies_fire_at_the_right_boundaries() {
        let instance = small_scenario().materialize();
        let mut catalog = instance.catalog(RebuildPolicy::threshold(8));
        assert!(!CompactPolicy::Never.should_compact(1, &catalog));
        assert!(!CompactPolicy::EveryNEpochs(0).should_compact(4, &catalog));
        assert!(CompactPolicy::EveryNEpochs(2).should_compact(2, &catalog));
        assert!(!CompactPolicy::EveryNEpochs(2).should_compact(3, &catalog));
        // No slot retired yet: the ratio trigger never fires.
        assert!(!CompactPolicy::TombstoneRatio(0.0).should_compact(1, &catalog));
        instance.epochs[0].apply(&mut catalog);
        assert!(catalog.retired_count() > 0);
        assert!(CompactPolicy::TombstoneRatio(0.0).should_compact(1, &catalog));
        let ratio = catalog.retired_count() as f64 / catalog.slot_count() as f64;
        assert!(CompactPolicy::TombstoneRatio(ratio - 1e-9).should_compact(1, &catalog));
        assert!(!CompactPolicy::TombstoneRatio(ratio + 1e-9).should_compact(1, &catalog));
    }

    #[test]
    fn compacting_churn_loop_matches_the_rebuild_discipline() {
        // The full churn → compact → triage loop must keep agreeing with
        // the rebuild-per-epoch discipline: compaction renumbers slots but
        // never changes the live set, and rank-based retirement picks are
        // applied to the live order, which compaction preserves.
        let instance = small_scenario().materialize();
        let engine = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Sum);
        for policy in [
            CompactPolicy::EveryNEpochs(1),
            CompactPolicy::EveryNEpochs(2),
            CompactPolicy::TombstoneRatio(0.05),
        ] {
            let mut catalog = instance.catalog(RebuildPolicy::threshold(7));
            let mut live = instance.initial.clone();
            for (i, epoch) in instance.epochs.iter().enumerate() {
                let (_, remap) = epoch.apply_with_compaction(&mut catalog, policy, i + 1);
                epoch.apply_to_vec(&mut live);
                if let Some(remap) = &remap {
                    assert_eq!(remap.live_len, live.len(), "{policy:?}, epoch {i}");
                    assert_eq!(catalog.slot_count(), catalog.len(), "{policy:?}, epoch {i}");
                }
                // Live sets agree position for position.
                let catalog_live: Vec<_> = catalog
                    .live_indices()
                    .into_iter()
                    .map(|slot| catalog.strategy(slot).clone())
                    .collect();
                assert_eq!(catalog_live, live, "{policy:?}, epoch {i}");
                // And the triage outcome matches the rebuilt catalog's.
                let churned = engine
                    .recommend_with_catalog(
                        &epoch.requests,
                        &catalog,
                        &instance.models,
                        instance.k,
                        instance.availability,
                    )
                    .unwrap();
                let rebuilt = engine
                    .recommend_with_models(
                        &epoch.requests,
                        &live,
                        &instance.models,
                        instance.k,
                        instance.availability,
                    )
                    .unwrap();
                assert_eq!(churned.unsatisfied, rebuilt.unsatisfied, "{policy:?}");
                assert!(
                    (churned.objective_value - rebuilt.objective_value).abs() < 1e-9,
                    "{policy:?}"
                );
            }
            // Under per-epoch compaction the numbering never carries dead
            // slots past a boundary.
            if policy == CompactPolicy::EveryNEpochs(1) {
                assert_eq!(catalog.slot_count(), catalog.len());
            }
        }
    }

    #[test]
    fn compaction_bounds_slot_growth_where_never_grows_monotonically() {
        // The scenario-level policy drives the loop through
        // `ChurnInstance::apply_epoch`; the two instances share the same
        // epoch stream and differ only in their `compact` knob.
        let never_scenario = ChurnScenario {
            epochs: 8,
            ..small_scenario()
        };
        let compacting_scenario = ChurnScenario {
            compact: CompactPolicy::EveryNEpochs(1),
            ..never_scenario
        };
        let never_instance = never_scenario.materialize();
        let compacting_instance = compacting_scenario.materialize();
        assert_eq!(never_instance.epochs, compacting_instance.epochs);

        let mut never = never_instance.catalog(RebuildPolicy::default());
        let mut compacting = never.clone();
        let mut never_peak = 0usize;
        let mut compacting_peak = 0usize;
        for i in 0..never_instance.epochs.len() {
            let (_, no_remap) = never_instance.apply_epoch(i, &mut never);
            assert!(no_remap.is_none(), "CompactPolicy::Never never compacts");
            never_peak = never_peak.max(never.slot_count());
            let (_, remap) = compacting_instance.apply_epoch(i, &mut compacting);
            assert!(remap.is_some());
            compacting_peak = compacting_peak.max(compacting.slot_count());
        }
        assert_eq!(never.len(), compacting.len());
        assert!(
            never.slot_count() > never.len(),
            "without compaction the numbering keeps every tombstone"
        );
        assert_eq!(
            compacting.slot_count(),
            compacting.len(),
            "per-epoch compaction sheds all tombstones at each boundary"
        );
        assert!(compacting_peak < never_peak);
    }

    #[test]
    fn retired_columns_are_infeasible_in_the_workforce_matrix() {
        let instance = small_scenario().materialize();
        let mut catalog = instance.catalog(RebuildPolicy::threshold(4));
        instance.epochs[0].apply(&mut catalog);
        let matrix = WorkforceMatrix::compute_with_catalog(
            &instance.epochs[0].requests,
            &catalog,
            &instance.models,
            EligibilityRule::ModelOnly,
        )
        .unwrap();
        assert_eq!(matrix.cols(), catalog.slot_count());
        for slot in 0..catalog.slot_count() {
            for row in 0..matrix.rows() {
                if catalog.is_live(slot) {
                    assert!(matrix.get(row, slot).is_finite());
                } else {
                    assert!(matrix.get(row, slot).is_infinite());
                }
            }
        }
    }
}
