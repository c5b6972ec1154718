//! `ADPaRB`: the exhaustive reference solver (paper §5.2.1).
//!
//! Examines every subset of `k` strategies, computes the tightest alternative
//! parameters covering that subset (the component-wise maximum of the
//! subset's relaxation vectors) and returns the subset with the smallest
//! distance to the original request. Exponential in `k`; the paper only runs
//! it up to `|S| = 30`, and so should you — it exists to validate
//! `ADPaR-Exact` and to reproduce Figures 17(b) and 17(d).

use stratrec_geometry::Point3;

use crate::adpar::{AdparProblem, AdparSolution, AdparSolver};
use crate::error::StratRecError;

/// The exhaustive subset-enumeration solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdparBruteForce;

impl AdparSolver for AdparBruteForce {
    fn solve(&self, problem: &AdparProblem<'_>) -> Result<AdparSolution, StratRecError> {
        problem.validate()?;
        // Retired catalog slots carry an infinite sentinel relaxation; drop
        // them up front so the enumeration only visits live strategies
        // (validate() guarantees at least k of those).
        let relaxations: Vec<Point3> = problem
            .relaxations()
            .iter()
            .copied()
            .filter(|r| r.x.is_finite())
            .collect();
        let k = problem.k;

        let mut best: Option<(f64, Point3)> = None;
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        enumerate_subsets(
            &relaxations,
            k,
            0,
            Point3::origin(),
            &mut chosen,
            &mut |cover: Point3| {
                let dist_sq = cover.squared_distance(&Point3::origin());
                let better = match best {
                    None => true,
                    Some((best_sq, _)) => dist_sq < best_sq - 1e-15,
                };
                if better {
                    best = Some((dist_sq, cover));
                }
            },
        );

        let (_, relaxation) =
            best.expect("validate() guarantees at least one subset of size k exists");
        Ok(AdparSolution::from_relaxation(problem, relaxation))
    }

    fn name(&self) -> &'static str {
        "ADPaRB"
    }
}

/// Recursively enumerates all `k`-subsets, carrying the component-wise
/// maximum of the chosen relaxations, and calls `report` on each complete
/// subset's covering relaxation.
fn enumerate_subsets(
    relaxations: &[Point3],
    k: usize,
    start: usize,
    cover: Point3,
    chosen: &mut Vec<usize>,
    report: &mut impl FnMut(Point3),
) {
    if chosen.len() == k {
        report(cover);
        return;
    }
    let remaining_needed = k - chosen.len();
    // Not enough strategies left to complete the subset.
    if relaxations.len().saturating_sub(start) < remaining_needed {
        return;
    }
    for idx in start..relaxations.len() {
        chosen.push(idx);
        enumerate_subsets(
            relaxations,
            k,
            idx + 1,
            cover.component_max(&relaxations[idx]),
            chosen,
            report,
        );
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpar::tests::{catalog_from, running_example_catalog};
    use crate::adpar::AdparExact;
    use crate::model::{DeploymentParameters, DeploymentRequest, TaskType};
    use proptest::prelude::*;

    fn request(q: f64, c: f64, l: f64) -> DeploymentRequest {
        DeploymentRequest::new(
            0,
            TaskType::TextCreation,
            DeploymentParameters::clamped(q, c, l),
        )
    }

    #[test]
    fn matches_paper_running_example() {
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        for (request, expected_distance) in [
            (&requests[0], 0.33),
            (&requests[1], (0.05_f64.powi(2) + 0.38_f64.powi(2)).sqrt()),
            (&requests[2], 0.0),
        ] {
            let problem = AdparProblem::with_catalog(request, &catalog, 3);
            let solution = AdparBruteForce.solve(&problem).unwrap();
            assert!(
                (solution.distance - expected_distance).abs() < 1e-9,
                "request {:?}",
                request.id
            );
            assert!(solution.is_feasible_for(&problem));
        }
    }

    #[test]
    fn errors_are_propagated() {
        let catalog = catalog_from(&[(0.5, 0.5, 0.5)]);
        let r = request(0.9, 0.1, 0.1);
        assert!(AdparBruteForce
            .solve(&AdparProblem::with_catalog(&r, &catalog, 0))
            .is_err());
        assert!(AdparBruteForce
            .solve(&AdparProblem::with_catalog(&r, &catalog, 5))
            .is_err());
        assert_eq!(AdparBruteForce.name(), "ADPaRB");
    }

    proptest! {
        // The central correctness property of the reproduction: the sweep-line
        // solver returns exactly the brute-force optimum on random instances.
        #[test]
        fn exact_solver_matches_brute_force(
            raw in proptest::collection::vec(
                (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
                1..9
            ),
            req in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
            k in 1_usize..5,
        ) {
            prop_assume!(k <= raw.len());
            let catalog = catalog_from(&raw);
            let request = request(req.0, req.1, req.2);
            let problem = AdparProblem::with_catalog(&request, &catalog, k);
            let exact = AdparExact.solve(&problem).unwrap();
            let brute = AdparBruteForce.solve(&problem).unwrap();
            prop_assert!(
                (exact.distance - brute.distance).abs() < 1e-9,
                "exact {} vs brute {}", exact.distance, brute.distance
            );
            prop_assert!(exact.strategy_indices.len() >= k);
            prop_assert!(brute.strategy_indices.len() >= k);
        }

        #[test]
        fn brute_force_solution_always_covers_k(
            raw in proptest::collection::vec(
                (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
                1..8
            ),
            req in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
            k in 1_usize..4,
        ) {
            prop_assume!(k <= raw.len());
            let catalog = catalog_from(&raw);
            let request = request(req.0, req.1, req.2);
            let problem = AdparProblem::with_catalog(&request, &catalog, k);
            let solution = AdparBruteForce.solve(&problem).unwrap();
            prop_assert!(solution.strategy_indices.len() >= k);
            // The alternative parameters really do admit the reported strategies.
            for &idx in &solution.strategy_indices {
                prop_assert!(catalog.strategy(idx).params.satisfies(&solution.alternative));
            }
        }
    }
}
