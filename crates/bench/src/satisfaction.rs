//! Figure 14: percentage of satisfied requests before invoking ADPaR.
//!
//! Sweeps `k`, `m`, `|S|` and `W` around the defaults (`|S| = 10 000`,
//! `m = 10`, `k = 10`, `W = 0.5`) for both strategy-parameter distributions,
//! averaging over several seeded runs as the paper does ("an average of 10
//! runs is presented").
//!
//! Interpretation note (documented in `EXPERIMENTS.md`): a request counts as
//! *satisfied* when `k` eligible strategies exist whose aggregated workforce
//! requirement fits within the expected availability `W`. This per-request
//! feasibility check is what "before invoking ADPaR" measures; the
//! shared-budget triage across competing requests is exercised separately by
//! Figures 15 and 16.

use serde::{Deserialize, Serialize};
use stratrec_core::engine::BatchEngine;
use stratrec_core::workforce::{AggregationMode, EligibilityRule};
use stratrec_workload::scenario::{BatchScenario, ParameterDistribution};

/// Which scenario knob a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepVariable {
    /// Cardinality constraint `k` (Figure 14a).
    K,
    /// Batch size `m` (Figure 14b).
    BatchSize,
    /// Strategy-set size `|S|` (Figure 14c).
    StrategyCount,
    /// Worker availability `W` (Figure 14d).
    Availability,
}

impl SweepVariable {
    /// Axis label used in the rendered table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::K => "k",
            Self::BatchSize => "m",
            Self::StrategyCount => "|S|",
            Self::Availability => "W",
        }
    }

    /// The sweep values the paper uses for this variable.
    #[must_use]
    pub fn paper_values(self) -> Vec<f64> {
        match self {
            Self::K | Self::BatchSize | Self::StrategyCount => {
                vec![10.0, 100.0, 1_000.0, 10_000.0]
            }
            Self::Availability => vec![0.5, 0.6, 0.7, 0.8, 0.9],
        }
    }

    /// Applies a sweep value to a scenario.
    #[must_use]
    pub fn apply(self, mut scenario: BatchScenario, value: f64) -> BatchScenario {
        match self {
            Self::K => scenario.k = value as usize,
            Self::BatchSize => scenario.batch_size = value as usize,
            Self::StrategyCount => scenario.strategy_count = value as usize,
            Self::Availability => scenario.availability = value,
        }
        scenario
    }
}

/// One data point of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SatisfactionPoint {
    /// The value of the swept variable.
    pub value: f64,
    /// Distribution of the strategy parameters.
    pub distribution: ParameterDistribution,
    /// Average fraction of requests satisfied by `BatchStrat` before ADPaR.
    pub satisfied_fraction: f64,
}

/// Runs the sweep for one variable and one distribution, averaging over
/// `runs` seeds.
#[must_use]
pub fn sweep(
    variable: SweepVariable,
    distribution: ParameterDistribution,
    base: BatchScenario,
    runs: u64,
) -> Vec<SatisfactionPoint> {
    variable
        .paper_values()
        .into_iter()
        .map(|value| {
            let rate = average_satisfaction(variable.apply(base, value), distribution, runs);
            SatisfactionPoint {
                value,
                distribution,
                satisfied_fraction: rate,
            }
        })
        .collect()
}

/// Average satisfaction rate over `runs` seeded instances of a scenario: the
/// fraction of requests for which `k` eligible strategies exist whose
/// aggregated (max-case) workforce requirement fits within `W`.
#[must_use]
pub fn average_satisfaction(
    scenario: BatchScenario,
    distribution: ParameterDistribution,
    runs: u64,
) -> f64 {
    if runs == 0 {
        return 0.0;
    }
    let total: f64 = (0..runs)
        .map(|run| {
            let instance = BatchScenario {
                distribution,
                seed: scenario.seed.wrapping_add(run),
                ..scenario
            }
            .materialize();
            // Index the strategy set once per instance; eligibility for all
            // m requests is then answered by R-tree box queries.
            let catalog = instance.catalog();
            let matrix = BatchEngine::sequential()
                .workforce_matrix(
                    &instance.requests,
                    &catalog,
                    &instance.models,
                    EligibilityRule::default(),
                )
                .expect("generated models cover every strategy");
            let requirements = matrix.aggregate(scenario.k, AggregationMode::Max);
            let satisfied = requirements
                .iter()
                .filter(|r| {
                    r.as_ref()
                        .is_some_and(|req| req.workforce <= instance.availability.value() + 1e-12)
                })
                .count();
            if instance.requests.is_empty() {
                0.0
            } else {
                satisfied as f64 / instance.requests.len() as f64
            }
        })
        .sum();
    total / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_base() -> BatchScenario {
        BatchScenario {
            strategy_count: 200,
            batch_size: 10,
            k: 10,
            availability: 0.5,
            ..BatchScenario::default()
        }
    }

    #[test]
    fn satisfaction_is_a_fraction() {
        let rate = average_satisfaction(small_base(), ParameterDistribution::Uniform, 3);
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn more_strategies_do_not_hurt_satisfaction() {
        // Figure 14c: satisfaction grows (weakly) with |S|.
        let few = average_satisfaction(
            BatchScenario {
                strategy_count: 20,
                ..small_base()
            },
            ParameterDistribution::Uniform,
            5,
        );
        let many = average_satisfaction(
            BatchScenario {
                strategy_count: 2_000,
                ..small_base()
            },
            ParameterDistribution::Uniform,
            5,
        );
        assert!(many + 1e-9 >= few, "many={many}, few={few}");
    }

    #[test]
    fn higher_availability_helps() {
        // Figure 14d shape.
        let low = average_satisfaction(
            BatchScenario {
                availability: 0.5,
                ..small_base()
            },
            ParameterDistribution::Normal,
            5,
        );
        let high = average_satisfaction(
            BatchScenario {
                availability: 0.9,
                ..small_base()
            },
            ParameterDistribution::Normal,
            5,
        );
        assert!(high + 1e-9 >= low, "high={high}, low={low}");
    }

    #[test]
    fn larger_k_reduces_satisfaction() {
        // Figure 14a shape: requiring more strategies per request can only
        // make requests harder to satisfy.
        let small_k = average_satisfaction(
            BatchScenario {
                k: 2,
                ..small_base()
            },
            ParameterDistribution::Uniform,
            5,
        );
        let large_k = average_satisfaction(
            BatchScenario {
                k: 100,
                ..small_base()
            },
            ParameterDistribution::Uniform,
            5,
        );
        assert!(
            small_k + 1e-9 >= large_k,
            "small_k={small_k}, large_k={large_k}"
        );
    }

    #[test]
    fn sweep_produces_one_point_per_value() {
        let points = sweep(
            SweepVariable::Availability,
            ParameterDistribution::Uniform,
            small_base(),
            2,
        );
        assert_eq!(points.len(), 5);
        assert_eq!(SweepVariable::Availability.label(), "W");
        assert_eq!(SweepVariable::K.paper_values().len(), 4);
    }

    #[test]
    fn zero_runs_yield_zero() {
        assert_eq!(
            average_satisfaction(small_base(), ParameterDistribution::Uniform, 0),
            0.0
        );
    }
}
