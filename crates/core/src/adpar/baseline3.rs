//! `Baseline3`: the R-tree MBB baseline (paper §5.2.1).
//!
//! "We treat each strategy['s] parameters as a point in a 3-D space and index
//! them using an R-Tree. Then, it scans the tree to find if there is a
//! minimum bounding box (MBB) that exactly contains k strategies. If so, it
//! returns the top-right corner of that MBB as the alternative deployment
//! parameters and corresponding k strategies. If such an MBB does not exist,
//! it will return the top right corner of another MBB that has at least k
//! strategies and will randomly return k strategies from there."
//!
//! The baseline is *not* optimization driven: the returned corner can be far
//! from the request — and can even tighten some axes — which is why it loses
//! badly in Figure 17. For reproducibility the "random" choice of the ≥ `k`
//! fallback node and of the `k` strategies is made deterministic: the node
//! with the fewest points (ties: smallest MBB volume) wins, and the first `k`
//! covered strategies in index order are reported.
//!
//! The points come from the problem's [`StrategyCatalog`], already
//! normalized into the minimization space. The R-tree is the catalog's own
//! index whenever that is a packed bulk load of exactly the live slots; on a
//! churned catalog the baseline bulk-loads the live slots at the catalog's
//! node capacity, so catalogs with the same live slots yield the same tree.
//!
//! [`StrategyCatalog`]: crate::catalog::StrategyCatalog

use stratrec_geometry::{Aabb3, Point3, RTree};

use crate::adpar::{AdparProblem, AdparSolution, AdparSolver};
use crate::error::StratRecError;
use crate::model::DeploymentParameters;

/// The R-tree MBB baseline solver. The paper does not specify the R-tree's
/// node capacity; the baseline uses the catalog's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdparBaseline3;

impl AdparSolver for AdparBaseline3 {
    fn solve(&self, problem: &AdparProblem<'_>) -> Result<AdparSolution, StratRecError> {
        problem.validate()?;
        let k = problem.k;

        // Reuse the catalog's R-tree whenever it is still a deterministic
        // STR bulk load over exactly the live slots (pristine, or re-packed
        // by `force_rebuild`). A churned catalog's tree may contain
        // tombstoned slots, miss the tail, or have an incrementally merged
        // structure that is not the packing this baseline is pinned to —
        // then bulk-load the live slots at the same node capacity instead;
        // entries keep their stable slot indices via `bulk_load_entries`.
        let catalog = problem.catalog();
        let owned;
        let tree: &RTree = if catalog.index_is_packed_live() {
            catalog.index()
        } else {
            owned =
                RTree::bulk_load_entries(catalog.live_entries(), catalog.index().node_capacity());
            &owned
        };

        // Scan all node MBBs: prefer one containing exactly k points,
        // otherwise the smallest one containing at least k.
        let summaries = tree.node_summaries();
        let exact_match = summaries
            .iter()
            .filter(|(_, count)| *count == k)
            .min_by(|a, b| a.0.volume().total_cmp(&b.0.volume()));
        let fallback = summaries
            .iter()
            .filter(|(_, count)| *count >= k)
            .min_by(|a, b| a.1.cmp(&b.1).then(a.0.volume().total_cmp(&b.0.volume())));
        let (mbb, _) = exact_match
            .or(fallback)
            .expect("the root MBB contains |S| >= k points");

        let corner = mbb.top_right();
        let alternative = DeploymentParameters::from_normalized_point(corner);

        // Strategies admitted by the corner (every point of the chosen node is,
        // by construction of the MBB). Report the first k in index order, as
        // the deterministic stand-in for the paper's random pick.
        let admitted = tree.query_box(&Aabb3::anchored_at_origin(corner));
        let strategy_indices: Vec<usize> = admitted.into_iter().take(k).collect();

        let request_point = problem.request.to_normalized_point();
        let relaxation = Point3::new(
            corner.x - request_point.x,
            corner.y - request_point.y,
            corner.z - request_point.z,
        );
        Ok(AdparSolution {
            alternative,
            relaxation,
            strategy_indices,
            distance: corner.distance(&request_point),
        })
    }

    fn name(&self) -> &'static str {
        "Baseline3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpar::tests::{catalog_from, running_example_catalog};
    use crate::adpar::AdparExact;
    use crate::model::{DeploymentRequest, TaskType};
    use proptest::prelude::*;

    fn request(q: f64, c: f64, l: f64) -> DeploymentRequest {
        DeploymentRequest::new(
            0,
            TaskType::PuzzleSolving,
            DeploymentParameters::clamped(q, c, l),
        )
    }

    #[test]
    fn produces_an_alternative_admitting_k_strategies() {
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        let problem = AdparProblem::with_catalog(&requests[1], &catalog, 3);
        let solution = AdparBaseline3.solve(&problem).unwrap();
        assert_eq!(solution.strategy_indices.len(), 3);
        for &idx in &solution.strategy_indices {
            assert!(catalog
                .strategy(idx)
                .params
                .satisfies(&solution.alternative));
        }
    }

    #[test]
    fn is_generally_worse_than_exact() {
        let catalog = catalog_from(&[
            (0.9, 0.1, 0.1),
            (0.85, 0.15, 0.2),
            (0.6, 0.5, 0.6),
            (0.5, 0.7, 0.9),
            (0.3, 0.9, 0.9),
            (0.95, 0.05, 0.05),
        ]);
        let r = request(0.99, 0.01, 0.01);
        let problem = AdparProblem::with_catalog(&r, &catalog, 2);
        let exact = AdparExact.solve(&problem).unwrap();
        let baseline = AdparBaseline3.solve(&problem).unwrap();
        assert!(baseline.distance + 1e-12 >= exact.distance);
    }

    #[test]
    fn errors_are_propagated() {
        let catalog = catalog_from(&[(0.5, 0.5, 0.5)]);
        let r = request(0.9, 0.1, 0.1);
        assert!(AdparBaseline3
            .solve(&AdparProblem::with_catalog(&r, &catalog, 0))
            .is_err());
        assert!(AdparBaseline3
            .solve(&AdparProblem::with_catalog(&r, &catalog, 3))
            .is_err());
        assert_eq!(AdparBaseline3.name(), "Baseline3");
    }

    proptest! {
        #[test]
        fn reported_strategies_are_admitted_by_the_alternative(
            raw in proptest::collection::vec(
                (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
                1..40
            ),
            req in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
            k in 1_usize..6,
        ) {
            prop_assume!(k <= raw.len());
            let catalog = catalog_from(&raw);
            let request = request(req.0, req.1, req.2);
            let problem = AdparProblem::with_catalog(&request, &catalog, k);
            let solution = AdparBaseline3.solve(&problem).unwrap();
            prop_assert_eq!(solution.strategy_indices.len(), k);
            for &idx in &solution.strategy_indices {
                prop_assert!(catalog.strategy(idx).params.satisfies(&solution.alternative));
            }
            // Never better than the true optimum.
            let exact = AdparExact.solve(&problem).unwrap();
            prop_assert!(solution.distance + 1e-9 >= exact.distance);
        }
    }
}
