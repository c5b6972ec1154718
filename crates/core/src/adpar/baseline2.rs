//! `Baseline2`: single-dimension query-refinement baseline (paper §5.2.1).
//!
//! Inspired by interactive query refinement (Mishra et al.), this baseline
//! "modifies the original deployment request by just one parameter at a time
//! and is not optimization driven". It first tries to reach `k` admissible
//! strategies by relaxing a *single* axis; if no single axis suffices it
//! relaxes the axes one after another in a fixed order (quality, then cost,
//! then latency), each time just enough to keep at least `k` candidate
//! strategies in play. The result is always feasible but generally far from
//! the optimum — which is exactly the point of the comparison in Figure 17.

use stratrec_geometry::Point3;
use stratrec_optim::topk;

use crate::adpar::{AdparProblem, AdparSolution, AdparSolver};
use crate::error::StratRecError;

/// The one-dimension-at-a-time baseline solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdparBaseline2;

impl AdparSolver for AdparBaseline2 {
    fn solve(&self, problem: &AdparProblem<'_>) -> Result<AdparSolution, StratRecError> {
        problem.validate()?;
        let relaxations = problem.relaxations();
        let k = problem.k;

        // Phase 1: try each axis alone. Only strategies needing zero
        // relaxation on the two other axes can be reached this way.
        let mut best_single: Option<Point3> = None;
        for axis in 0..3 {
            let candidates: Vec<f64> = relaxations
                .iter()
                .filter(|r| other_axes(r, axis).iter().all(|&v| v <= 1e-12))
                .map(|r| axis_value(r, axis))
                .collect();
            if candidates.len() < k {
                continue;
            }
            let needed = topk::kth_smallest(&candidates, k)
                .expect("length checked above, all values finite");
            let candidate = with_axis(Point3::origin(), axis, needed);
            let better = match best_single {
                None => true,
                Some(current) => {
                    candidate.squared_distance(&Point3::origin())
                        < current.squared_distance(&Point3::origin())
                }
            };
            if better {
                best_single = Some(candidate);
            }
        }
        if let Some(relaxation) = best_single {
            return Ok(AdparSolution::from_relaxation(problem, relaxation));
        }

        // Phase 2: sequential relaxation, one axis at a time in a fixed
        // order. At each step keep the k candidates that are cheapest on the
        // current axis among the strategies still reachable.
        let mut surviving: Vec<usize> = (0..relaxations.len()).collect();
        let mut relaxation = Point3::origin();
        for axis in 0..3 {
            let values: Vec<f64> = surviving
                .iter()
                .map(|&i| axis_value(&relaxations[i], axis))
                .collect();
            let needed = topk::kth_smallest(&values, k)
                .expect("validate() guarantees at least k strategies overall");
            relaxation = with_axis(relaxation, axis, needed);
            surviving.retain(|&i| axis_value(&relaxations[i], axis) <= needed + 1e-12);
        }
        Ok(AdparSolution::from_relaxation(problem, relaxation))
    }

    fn name(&self) -> &'static str {
        "Baseline2"
    }
}

fn axis_value(p: &Point3, axis: usize) -> f64 {
    match axis {
        0 => p.x,
        1 => p.y,
        _ => p.z,
    }
}

fn other_axes(p: &Point3, axis: usize) -> [f64; 2] {
    match axis {
        0 => [p.y, p.z],
        1 => [p.x, p.z],
        _ => [p.x, p.y],
    }
}

fn with_axis(mut p: Point3, axis: usize, value: f64) -> Point3 {
    match axis {
        0 => p.x = value,
        1 => p.y = value,
        _ => p.z = value,
    }
    p
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
            TaskType::TextSummarization,
            DeploymentParameters::clamped(q, c, l),
        )
    }

    #[test]
    fn single_axis_relaxation_when_it_suffices() {
        // Running example d1 only needs a cost relaxation: Baseline2 matches
        // the exact solver here.
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        let problem = AdparProblem::with_catalog(&requests[0], &catalog, 3);
        let solution = AdparBaseline2.solve(&problem).unwrap();
        assert!((solution.alternative.cost - 0.5).abs() < 1e-9);
        assert!((solution.alternative.quality - 0.4).abs() < 1e-9);
        assert_eq!(solution.strategy_indices, vec![0, 1, 2]);
    }

    #[test]
    fn falls_back_to_sequential_relaxation_when_one_axis_is_not_enough() {
        // Running example d2 needs both quality and cost relaxed.
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        let problem = AdparProblem::with_catalog(&requests[1], &catalog, 3);
        let solution = AdparBaseline2.solve(&problem).unwrap();
        assert!(solution.is_feasible_for(&problem));
        // It is never better than the exact optimum.
        let exact = AdparExact.solve(&problem).unwrap();
        assert!(solution.distance + 1e-12 >= exact.distance);
    }

    #[test]
    fn picks_the_cheapest_single_axis() {
        // Either relax quality by 0.4 (covering s0, s1) or latency by 0.1
        // (covering s2, s3): latency is cheaper.
        let catalog = catalog_from(&[
            (0.4, 0.1, 0.1),
            (0.4, 0.1, 0.1),
            (0.9, 0.1, 0.3),
            (0.9, 0.1, 0.3),
        ]);
        let r = request(0.8, 0.2, 0.2);
        let problem = AdparProblem::with_catalog(&r, &catalog, 2);
        let solution = AdparBaseline2.solve(&problem).unwrap();
        assert!((solution.relaxation.z - 0.1).abs() < 1e-9);
        assert!(solution.relaxation.x.abs() < 1e-12);
        assert_eq!(solution.strategy_indices, vec![2, 3]);
    }

    #[test]
    fn errors_are_propagated() {
        let catalog = catalog_from(&[(0.5, 0.5, 0.5)]);
        let r = request(0.9, 0.1, 0.1);
        assert!(AdparBaseline2
            .solve(&AdparProblem::with_catalog(&r, &catalog, 2))
            .is_err());
        assert_eq!(AdparBaseline2.name(), "Baseline2");
    }

    proptest! {
        #[test]
        fn always_feasible_and_never_beats_exact(
            raw in proptest::collection::vec(
                (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
                1..12
            ),
            req in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
            k in 1_usize..5,
        ) {
            prop_assume!(k <= raw.len());
            let catalog = catalog_from(&raw);
            let request = request(req.0, req.1, req.2);
            let problem = AdparProblem::with_catalog(&request, &catalog, k);
            let baseline = AdparBaseline2.solve(&problem).unwrap();
            let exact = AdparExact.solve(&problem).unwrap();
            prop_assert!(baseline.strategy_indices.len() >= k);
            prop_assert!(baseline.distance + 1e-9 >= exact.distance);
        }
    }
}
