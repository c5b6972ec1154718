//! Figure 17: quality of the ADPaR solvers.
//!
//! Plots the Euclidean distance between the original and the alternative
//! deployment parameters (smaller is better) for `ADPaR-Exact`, `Baseline2`
//! and `Baseline3`, adding `ADPaRB` on the reduced grids where exhaustive
//! search is feasible. Panels vary `|S|` (200…1000, or 10…30 with brute
//! force) and `k` (10…50, or 5…15 with brute force).

use serde::{Deserialize, Serialize};
use stratrec_core::adpar::{
    AdparBaseline2, AdparBaseline3, AdparBruteForce, AdparExact, AdparProblem, AdparSolver,
};
use stratrec_workload::scenario::AdparScenario;

/// Distances achieved by each solver on one instance (averaged over seeds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdparQualityPoint {
    /// The swept value (either `|S|` or `k` depending on the panel).
    pub value: usize,
    /// `ADPaR-Exact` distance.
    pub exact: f64,
    /// `Baseline2` distance.
    pub baseline2: f64,
    /// `Baseline3` distance.
    pub baseline3: f64,
    /// `ADPaRB` distance when it was run (reduced grids only).
    pub brute_force: Option<f64>,
}

/// Which knob the panel varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdparPanel {
    /// Vary the strategy-set size `|S|` (Figures 17a / 17b).
    StrategyCount,
    /// Vary the cardinality constraint `k` (Figures 17c / 17d).
    K,
}

impl AdparPanel {
    /// Axis label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::StrategyCount => "|S|",
            Self::K => "k",
        }
    }

    /// Sweep values used by the paper, with and without brute force.
    #[must_use]
    pub fn paper_values(self, with_brute_force: bool) -> Vec<usize> {
        match (self, with_brute_force) {
            (Self::StrategyCount, false) => vec![200, 400, 600, 800, 1000],
            (Self::StrategyCount, true) => vec![10, 20, 30],
            (Self::K, false) => vec![10, 20, 30, 40, 50],
            (Self::K, true) => vec![5, 10, 15],
        }
    }

    fn apply(self, mut scenario: AdparScenario, value: usize) -> AdparScenario {
        match self {
            Self::StrategyCount => scenario.strategy_count = value,
            Self::K => scenario.k = value,
        }
        scenario
    }
}

/// Runs one panel, averaging each solver's distance over `runs` seeds.
#[must_use]
pub fn run_panel(
    panel: AdparPanel,
    base: AdparScenario,
    with_brute_force: bool,
    runs: u64,
) -> Vec<AdparQualityPoint> {
    panel
        .paper_values(with_brute_force)
        .into_iter()
        .map(|value| {
            let scenario = panel.apply(base, value);
            let mut exact = 0.0;
            let mut baseline2 = 0.0;
            let mut baseline3 = 0.0;
            let mut brute = 0.0;
            let n = runs.max(1);
            for run in 0..n {
                let instance = AdparScenario {
                    seed: scenario.seed.wrapping_add(run),
                    ..scenario
                }
                .materialize();
                // All four solvers share the instance's indexed catalog;
                // Baseline3 reuses its R-tree instead of bulk-loading one
                // per solve.
                let catalog = instance.catalog();
                let problem = AdparProblem::with_catalog(&instance.request, &catalog, instance.k);
                exact += AdparExact.solve(&problem).expect("|S| >= k").distance;
                baseline2 += AdparBaseline2.solve(&problem).expect("|S| >= k").distance;
                baseline3 += AdparBaseline3.solve(&problem).expect("|S| >= k").distance;
                if with_brute_force {
                    brute += AdparBruteForce.solve(&problem).expect("|S| >= k").distance;
                }
            }
            let n = n as f64;
            AdparQualityPoint {
                value,
                exact: exact / n,
                baseline2: baseline2 / n,
                baseline3: baseline3 / n,
                brute_force: with_brute_force.then_some(brute / n),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_base() -> AdparScenario {
        // Keep |S| above the largest k swept by the K panel (50).
        AdparScenario {
            strategy_count: 60,
            k: 5,
            ..AdparScenario::default()
        }
    }

    #[test]
    fn exact_matches_brute_force_and_beats_baselines() {
        let base = AdparScenario::brute_force_defaults();
        for point in run_panel(AdparPanel::K, base, true, 2) {
            let brute = point.brute_force.expect("brute force requested");
            // Observation 3: ADPaR-Exact returns exact solutions…
            assert!((point.exact - brute).abs() < 1e-9, "value {}", point.value);
            // …and significantly outperforms the two baselines.
            assert!(point.baseline2 + 1e-9 >= point.exact);
            assert!(point.baseline3 + 1e-9 >= point.exact);
        }
    }

    #[test]
    fn distance_decreases_with_more_strategies() {
        // Figure 17a: more strategies ⇒ smaller change needed.
        let points = run_panel(AdparPanel::StrategyCount, small_base(), false, 3);
        let first = points.first().unwrap().exact;
        let last = points.last().unwrap().exact;
        assert!(last <= first + 1e-9, "first={first}, last={last}");
    }

    #[test]
    fn distance_increases_with_k() {
        // Figure 17c: a larger k forces larger relaxations.
        let points = run_panel(AdparPanel::K, small_base(), false, 3);
        let first = points.first().unwrap().exact;
        let last = points.last().unwrap().exact;
        assert!(last + 1e-9 >= first, "first={first}, last={last}");
    }

    #[test]
    fn panel_metadata_is_consistent() {
        assert_eq!(AdparPanel::K.label(), "k");
        assert_eq!(AdparPanel::StrategyCount.paper_values(false).len(), 5);
        assert_eq!(
            AdparPanel::StrategyCount.paper_values(true),
            vec![10, 20, 30]
        );
        let points = run_panel(AdparPanel::StrategyCount, small_base(), false, 1);
        assert_eq!(points.len(), 5);
        assert!(points.iter().all(|p| p.brute_force.is_none()));
    }
}
