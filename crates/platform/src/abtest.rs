//! The with/without-StratRec effectiveness experiment (paper §5.1.2).
//!
//! The paper deploys 10 sentence-translation and 10 text-creation tasks
//! twice each — once following StratRec's recommendation, once leaving the
//! workers free to organize themselves — and reports, with statistical
//! significance, higher quality and lower latency for the guided deployments
//! under the same cost threshold (Figure 13), along with roughly half as many
//! document edits. This module runs the same mirrored design on the
//! simulator.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::batch::{BatchObjective, BatchStrat};
use stratrec_core::catalog::StrategyCatalog;
use stratrec_core::model::{
    all_dimension_combinations, DeploymentParameters, DeploymentRequest, Strategy, TaskType,
};
use stratrec_core::modeling::ModelLibrary;
use stratrec_core::workforce::AggregationMode;
use stratrec_optim::stats::{paired_t_test, Summary, TTest};

use crate::execution::{ExecutionOutcome, StrategyExecutor};
use crate::experiment::CalibrationExperiment;
use crate::hit::HitDesign;

/// Configuration of the mirrored-deployment experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbTestConfig {
    /// Number of deployments per task type (10 in the paper).
    pub deployments_per_task: usize,
    /// Quality lower bound of every deployment (0.70 in the paper).
    pub quality_threshold: f64,
    /// Cost upper bound, normalized by the HIT's maximum cost ($14/$14 = 1.0
    /// in the paper).
    pub cost_threshold: f64,
    /// Latency upper bound, normalized by the deployment horizon (72h/72h).
    pub latency_threshold: f64,
    /// Number of strategies requested from StratRec per deployment.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AbTestConfig {
    fn default() -> Self {
        Self {
            deployments_per_task: 10,
            quality_threshold: 0.70,
            cost_threshold: 1.0,
            latency_threshold: 1.0,
            k: 3,
            seed: 2020,
        }
    }
}

/// Aggregate outcome of one experiment arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmSummary {
    /// Per-deployment quality summary.
    pub quality: Summary,
    /// Per-deployment cost summary.
    pub cost: Summary,
    /// Per-deployment latency summary.
    pub latency: Summary,
    /// Mean number of edits per deployment.
    pub mean_edits: f64,
}

impl ArmSummary {
    fn of(outcomes: &[ExecutionOutcome]) -> Self {
        let quality: Vec<f64> = outcomes.iter().map(|o| o.quality).collect();
        let cost: Vec<f64> = outcomes.iter().map(|o| o.cost).collect();
        let latency: Vec<f64> = outcomes.iter().map(|o| o.latency).collect();
        let edits: f64 = outcomes.iter().map(|o| f64::from(o.edits)).sum();
        Self {
            quality: Summary::of(&quality),
            cost: Summary::of(&cost),
            latency: Summary::of(&latency),
            mean_edits: if outcomes.is_empty() {
                0.0
            } else {
                edits / outcomes.len() as f64
            },
        }
    }
}

/// Result of the mirrored experiment for one task type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbTestResult {
    /// Task type deployed.
    pub task_type: TaskType,
    /// Summary of the StratRec-guided arm.
    pub with_stratrec: ArmSummary,
    /// Summary of the unguided arm.
    pub without_stratrec: ArmSummary,
    /// Paired t-test on per-deployment quality (guided minus unguided).
    pub quality_test: Option<TTest>,
    /// Paired t-test on per-deployment latency (guided minus unguided).
    pub latency_test: Option<TTest>,
}

impl AbTestResult {
    /// Whether the guided arm is significantly better on quality *and* not
    /// significantly worse on latency at the given level — the paper's
    /// headline claim.
    #[must_use]
    pub fn stratrec_wins(&self, alpha: f64) -> bool {
        let quality_better = self
            .quality_test
            .map(|t| t.mean_difference > 0.0 && t.significant_at(alpha))
            .unwrap_or(false);
        let latency_not_worse = self
            .latency_test
            .map(|t| t.mean_difference <= 0.0 || !t.significant_at(alpha))
            .unwrap_or(true);
        quality_better && latency_not_worse
    }
}

/// Runs the mirrored with/without-StratRec experiment for one task type.
#[must_use]
pub fn run_ab_test(task: TaskType, config: &AbTestConfig) -> AbTestResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let executor = StrategyExecutor::default();
    let design = HitDesign::effectiveness(task);
    let calibration = CalibrationExperiment::with_seed(config.seed);

    // Candidate strategy set: all eight Structure × Organization × Style
    // combinations, with parameters estimated from the calibration models at
    // the expected availability.
    let availability_rows = calibration.availability_study(task);
    let availability_obs: Vec<f64> = availability_rows
        .iter()
        .flat_map(|(_, _, est)| est.observations.clone())
        .collect();
    let availability_pdf =
        AvailabilityPdf::from_observations(&availability_obs).expect("non-empty observations");
    let expected = availability_pdf.expectation();

    let mut strategies = Vec::new();
    let mut models = ModelLibrary::new();
    for (idx, (structure, organization, style)) in all_dimension_combinations().iter().enumerate() {
        let truth = StrategyExecutor::ground_truth_model(task, *structure, *organization, *style);
        let params = truth.estimate_parameters(expected);
        let strategy = Strategy::new(idx as u64, *structure, *organization, *style, params);
        models.insert(strategy.id, truth);
        strategies.push(strategy);
    }
    // One shared indexed catalog serves every deployment of the experiment.
    let catalog = StrategyCatalog::new(strategies.as_slice());

    let engine = BatchStrat::new(BatchObjective::Throughput, AggregationMode::Max);
    let mut guided = Vec::new();
    let mut unguided = Vec::new();
    for d in 0..config.deployments_per_task {
        let request = DeploymentRequest::new(
            d as u64,
            task,
            DeploymentParameters::clamped(
                config.quality_threshold,
                config.cost_threshold,
                config.latency_threshold,
            ),
        );
        // Guided arm: deploy with the best strategy StratRec recommends.
        let outcome = engine
            .recommend_with_catalog(
                std::slice::from_ref(&request),
                &catalog,
                &models,
                config.k,
                expected,
            )
            .expect("models cover every strategy");
        let availability = availability_pdf
            .sample_with_uniform(rand::Rng::gen::<f64>(&mut rng))
            .value();
        let guided_outcome = if let Some(rec) = outcome.satisfied.first() {
            // Among the k recommended strategies, deploy with the one whose
            // estimated quality is highest (the requester's natural choice).
            // Recommendation indices are catalog slots — resolve them
            // through the catalog so this keeps working once strategies are
            // inserted or retired mid-experiment.
            let best = rec
                .strategy_indices
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    catalog
                        .strategy(a)
                        .params
                        .quality
                        .total_cmp(&catalog.strategy(b).params.quality)
                })
                .expect("k >= 1");
            executor.execute(&design, catalog.strategy(best), availability, &mut rng)
        } else {
            // No recommendation possible: the requester falls back to an
            // unguided deployment — StratRec offers no benefit here.
            executor.execute_unguided(&design, availability, &mut rng)
        };
        guided.push(guided_outcome);
        // Unguided arm: same availability draw, workers self-organize.
        unguided.push(executor.execute_unguided(&design, availability, &mut rng));
    }

    let quality_guided: Vec<f64> = guided.iter().map(|o| o.quality).collect();
    let quality_unguided: Vec<f64> = unguided.iter().map(|o| o.quality).collect();
    let latency_guided: Vec<f64> = guided.iter().map(|o| o.latency).collect();
    let latency_unguided: Vec<f64> = unguided.iter().map(|o| o.latency).collect();

    AbTestResult {
        task_type: task,
        with_stratrec: ArmSummary::of(&guided),
        without_stratrec: ArmSummary::of(&unguided),
        quality_test: paired_t_test(&quality_guided, &quality_unguided),
        latency_test: paired_t_test(&latency_guided, &latency_unguided),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratrec_guided_deployments_win_on_quality_and_edits() {
        for task in [TaskType::SentenceTranslation, TaskType::TextCreation] {
            let result = run_ab_test(task, &AbTestConfig::default());
            assert!(
                result.with_stratrec.quality.mean > result.without_stratrec.quality.mean,
                "{task:?}: guided quality should be higher"
            );
            assert!(
                result.with_stratrec.mean_edits < result.without_stratrec.mean_edits,
                "{task:?}: guided deployments should see fewer edits"
            );
            assert!(
                result.with_stratrec.latency.mean <= result.without_stratrec.latency.mean + 0.05,
                "{task:?}: guided latency should not be noticeably worse"
            );
            assert!(
                result.stratrec_wins(0.05),
                "{task:?}: paired test should be significant"
            );
        }
    }

    #[test]
    fn results_are_reproducible_per_seed() {
        let a = run_ab_test(TaskType::SentenceTranslation, &AbTestConfig::default());
        let b = run_ab_test(TaskType::SentenceTranslation, &AbTestConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_experiments_still_produce_summaries() {
        let config = AbTestConfig {
            deployments_per_task: 2,
            seed: 5,
            ..AbTestConfig::default()
        };
        let result = run_ab_test(TaskType::TextCreation, &config);
        assert_eq!(result.with_stratrec.quality.n, 2);
        assert!(result.quality_test.is_some());
    }

    #[test]
    fn cost_stays_within_the_shared_threshold() {
        let result = run_ab_test(TaskType::SentenceTranslation, &AbTestConfig::default());
        assert!(result.with_stratrec.cost.max <= 1.0 + 1e-9);
        assert!(result.without_stratrec.cost.max <= 1.0 + 1e-9);
    }
}
