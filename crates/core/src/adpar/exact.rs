//! `ADPaR-Exact`: the sweep-line exact solver (paper §4.1, Algorithm 2).
//!
//! The continuous search space is discretized by observing that an optimal
//! alternative parameter equals, on every axis, either the original threshold
//! (zero relaxation) or the relaxation value of some strategy — otherwise the
//! axis could be tightened without losing coverage, contradicting optimality
//! (paper, Lemma 2 / Theorem 4). The solver therefore sweeps the sorted
//! candidate relaxation values of the quality axis; for each quality
//! position it sweeps the candidate cost values while maintaining, in a
//! bounded max-heap, the `k` smallest latency relaxations of the strategies
//! already admitted by the (quality, cost) prefix. The `k`-th smallest
//! latency is exactly the cheapest latency relaxation completing a feasible
//! triple, so every candidate triple the optimum could use is examined, with
//! monotone pruning on the accumulated squared distance.
//!
//! # Catalog-resident orders and zero-allocation batch solving
//!
//! The sweep needs the strategies in ascending quality- and cost-relaxation
//! order. Those orders are obtained through
//! [`AdparProblem::axis_order_into`], which **walks the catalog's pre-sorted
//! axis permutations** (relaxation is monotone in the normalized coordinate)
//! instead of sorting per problem, and the cost order
//! is computed **once** per solve — strategies admitted by the current
//! quality prefix are selected with an admission bitmask while walking it,
//! replacing the seed's per-quality-candidate `clone() + sort`
//! (`O(Q·|S| log |S|)` per problem) with `O(Q·|S| log k)` heap maintenance.
//! All of the solver's working memory lives in a reusable [`SolveScratch`]
//! — and the problem's relaxation buffer is reusable too
//! ([`AdparProblem::with_catalog_reusing`]) — so a batch fan-out driving
//! [`AdparExact::solve_with_scratch`] allocates nothing per problem in
//! steady state beyond the returned solution.

use std::collections::BinaryHeap;

use stratrec_geometry::{Axis, Point3};

use crate::adpar::{AdparProblem, AdparSolution, AdparSolver};
use crate::error::StratRecError;

/// The exact sweep-line solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdparExact;

/// Reusable working memory for [`AdparExact`]: axis orders, candidate
/// values, the admission bitmask and the bounded latency heap.
///
/// A fresh scratch is equivalent to a reused one — every buffer is cleared
/// and refilled per solve — so batch drivers keep one scratch per worker
/// thread and solve thousands of problems without allocating.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// Strategies in ascending quality-relaxation order.
    by_quality: Vec<usize>,
    /// Strategies in ascending cost-relaxation order (computed once per
    /// solve; the seed re-sorted the admitted set per quality candidate).
    by_cost: Vec<usize>,
    /// Candidate quality relaxation values, ascending and deduplicated.
    quality_candidates: Vec<f64>,
    /// Candidate cost relaxation values, ascending and deduplicated.
    cost_candidates: Vec<f64>,
    /// Whether each strategy is admitted by the current quality prefix.
    admitted: Vec<bool>,
    /// Bounded max-heap holding the `k` smallest latency relaxations of the
    /// admitted strategies in the current (quality, cost) prefix.
    heap: BinaryHeap<OrdF64>,
}

impl SolveScratch {
    /// Creates an empty scratch; buffers grow to the problem size on first
    /// use and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AdparExact {
    /// [`AdparSolver::solve`] with caller-provided scratch buffers, for
    /// batch drivers that solve many problems back to back. The solution is
    /// identical to [`AdparSolver::solve`] regardless of the scratch's
    /// history.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::ZeroCardinality`] when `k = 0` and
    /// [`StratRecError::NotEnoughStrategies`] when fewer than `k` live
    /// strategies exist.
    pub fn solve_with_scratch(
        &self,
        problem: &AdparProblem<'_>,
        scratch: &mut SolveScratch,
    ) -> Result<AdparSolution, StratRecError> {
        problem.validate()?;
        let relaxations = problem.relaxations();
        let k = problem.k;

        // Sweep orders: catalog-resident, no sort.
        problem.axis_order_into(Axis::X, &mut scratch.by_quality);
        problem.axis_order_into(Axis::Y, &mut scratch.by_cost);

        // Candidate relaxation values per axis: zero plus every strategy's
        // requirement. The axis orders already yield them ascending, so
        // deduplication is a single linear pass.
        fill_candidate_values(
            &mut scratch.quality_candidates,
            scratch.by_quality.iter().map(|&i| relaxations[i].x),
        );
        fill_candidate_values(
            &mut scratch.cost_candidates,
            scratch.by_cost.iter().map(|&i| relaxations[i].y),
        );

        scratch.admitted.clear();
        scratch.admitted.resize(relaxations.len(), false);

        let mut best: Option<(f64, Point3)> = None;
        let mut admitted_count = 0_usize;
        let mut quality_cursor = 0_usize;

        for &rq in &scratch.quality_candidates {
            let rq_sq = rq * rq;
            if let Some((best_sq, _)) = best {
                if rq_sq >= best_sq {
                    break; // further quality relaxation can only cost more
                }
            }
            // Admit every strategy whose quality relaxation is ≤ rq.
            while quality_cursor < scratch.by_quality.len()
                && relaxations[scratch.by_quality[quality_cursor]].x <= rq + 1e-12
            {
                scratch.admitted[scratch.by_quality[quality_cursor]] = true;
                admitted_count += 1;
                quality_cursor += 1;
            }
            if admitted_count < k {
                continue;
            }

            // Inner sweep over cost: walk the precomputed cost order,
            // keeping the k smallest latency relaxations of the admitted
            // strategies in a bounded max-heap (its top is the k-th
            // smallest).
            scratch.heap.clear();
            let mut cost_cursor = 0_usize;

            for &rc in &scratch.cost_candidates {
                let prefix_sq = rq_sq + rc * rc;
                if let Some((best_sq, _)) = best {
                    if prefix_sq >= best_sq {
                        break;
                    }
                }
                while cost_cursor < scratch.by_cost.len()
                    && relaxations[scratch.by_cost[cost_cursor]].y <= rc + 1e-12
                {
                    let idx = scratch.by_cost[cost_cursor];
                    if scratch.admitted[idx] {
                        let rl = relaxations[idx].z;
                        if scratch.heap.len() < k {
                            scratch.heap.push(OrdF64(rl));
                        } else if let Some(&OrdF64(worst)) = scratch.heap.peek() {
                            if rl < worst {
                                scratch.heap.pop();
                                scratch.heap.push(OrdF64(rl));
                            }
                        }
                    }
                    cost_cursor += 1;
                }
                if scratch.heap.len() < k {
                    continue;
                }
                let rl = scratch
                    .heap
                    .peek()
                    .expect("heap holds exactly k elements here")
                    .0;
                let total_sq = prefix_sq + rl * rl;
                let candidate = Point3::new(rq, rc, rl);
                let better = match best {
                    None => true,
                    Some((best_sq, _)) => total_sq < best_sq - 1e-15,
                };
                if better {
                    best = Some((total_sq, candidate));
                }
            }
        }

        let (_, relaxation) = best.expect(
            "validate() guarantees |S| >= k, so the fully relaxed corner is always feasible",
        );
        Ok(AdparSolution::from_relaxation(problem, relaxation))
    }
}

impl AdparSolver for AdparExact {
    fn solve(&self, problem: &AdparProblem<'_>) -> Result<AdparSolution, StratRecError> {
        self.solve_with_scratch(problem, &mut SolveScratch::new())
    }

    fn name(&self) -> &'static str {
        "ADPaR-Exact"
    }
}

/// Fills `out` with the candidate relaxation values for one axis: zero (no
/// relaxation) followed by every strategy's requirement, deduplicated with a
/// `1e-12` tolerance in one pass.
///
/// `values` must arrive ascending (the axis orders guarantee it), which
/// makes the dedup a simple "keep when strictly above the last kept value"
/// scan — a value of exactly `0.0` (a strategy already satisfying the axis)
/// collapses into the leading zero by the same rule, rather than relying on
/// the ordering quirks of an epsilon `dedup_by`. Non-finite values — the
/// retired-slot sentinel — are discarded: a
/// retired strategy can never sit on an optimal boundary.
fn fill_candidate_values(out: &mut Vec<f64>, values: impl Iterator<Item = f64>) {
    out.clear();
    out.push(0.0);
    let mut last = 0.0_f64;
    for v in values {
        debug_assert!(v.is_nan() || v >= 0.0, "relaxations are non-negative");
        if v.is_finite() && v > last + 1e-12 {
            out.push(v);
            last = v;
        }
    }
}

/// Total-ordered f64 wrapper for the latency heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpar::tests::{catalog_from, running_example_catalog};
    use crate::model::{DeploymentParameters, DeploymentRequest, TaskType};

    fn request(q: f64, c: f64, l: f64) -> DeploymentRequest {
        DeploymentRequest::new(
            0,
            TaskType::SentenceTranslation,
            DeploymentParameters::clamped(q, c, l),
        )
    }

    #[test]
    fn running_example_d1_matches_paper() {
        // Paper §2.3: for d1 = (0.4, 0.17, 0.28) the alternative should be
        // (0.4, 0.5, 0.28) with strategies s1, s2, s3.
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        let problem = AdparProblem::with_catalog(&requests[0], &catalog, 3);
        let solution = AdparExact.solve(&problem).unwrap();
        assert!((solution.alternative.quality - 0.4).abs() < 1e-9);
        assert!((solution.alternative.cost - 0.5).abs() < 1e-9);
        assert!((solution.alternative.latency - 0.28).abs() < 1e-9);
        assert_eq!(solution.strategy_indices, vec![0, 1, 2]);
        assert!((solution.distance - 0.33).abs() < 1e-9);
    }

    #[test]
    fn running_example_d2_is_solved_optimally() {
        // For d2 = (0.8, 0.2, 0.28) the optimum covers {s2, s3, s4} with
        // relaxation (0.05, 0.38, 0) and distance ≈ 0.3833. (The paper's
        // narration quotes (0.75, 0.5, 0.28) / {s1, s2, s3}, but that triple
        // covers only two of its own strategies per its Table 3 relaxation
        // values; the relaxation below is the true optimum of Equation 3 and
        // is verified against exhaustive search in the property tests.)
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        let problem = AdparProblem::with_catalog(&requests[1], &catalog, 3);
        let solution = AdparExact.solve(&problem).unwrap();
        assert!((solution.alternative.quality - 0.75).abs() < 1e-9);
        assert!((solution.alternative.cost - 0.58).abs() < 1e-9);
        assert!((solution.alternative.latency - 0.28).abs() < 1e-9);
        assert_eq!(solution.strategy_indices, vec![1, 2, 3]);
        let expected = (0.05_f64.powi(2) + 0.38_f64.powi(2)).sqrt();
        assert!((solution.distance - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_relaxation_when_request_is_already_satisfiable() {
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        // d3 is already satisfiable by 3 strategies: the alternative is d3 itself.
        let problem = AdparProblem::with_catalog(&requests[2], &catalog, 3);
        let solution = AdparExact.solve(&problem).unwrap();
        assert!(solution.distance < 1e-12);
        assert_eq!(solution.relaxation, Point3::origin());
        assert!(solution.strategy_indices.len() >= 3);
    }

    #[test]
    fn k_equal_to_strategy_count_requires_covering_everything() {
        let catalog = catalog_from(&[(0.9, 0.3, 0.2), (0.5, 0.6, 0.9), (0.7, 0.1, 0.5)]);
        let request = request(0.8, 0.2, 0.3);
        let problem = AdparProblem::with_catalog(&request, &catalog, 3);
        let solution = AdparExact.solve(&problem).unwrap();
        assert_eq!(solution.strategy_indices, vec![0, 1, 2]);
        // Required relaxation is the component-wise max over all strategies.
        assert!((solution.relaxation.x - 0.3).abs() < 1e-9);
        assert!((solution.relaxation.y - 0.4).abs() < 1e-9);
        assert!((solution.relaxation.z - 0.6).abs() < 1e-9);
    }

    #[test]
    fn latency_only_relaxation_is_found() {
        let catalog = catalog_from(&[(0.9, 0.1, 0.6), (0.9, 0.1, 0.7), (0.9, 0.1, 0.4)]);
        let request = request(0.8, 0.5, 0.3);
        let problem = AdparProblem::with_catalog(&request, &catalog, 2);
        let solution = AdparExact.solve(&problem).unwrap();
        assert!((solution.relaxation.x).abs() < 1e-12);
        assert!((solution.relaxation.y).abs() < 1e-12);
        assert!((solution.relaxation.z - 0.3).abs() < 1e-9);
        assert_eq!(solution.strategy_indices, vec![0, 2]);
    }

    #[test]
    fn trade_off_between_axes_picks_the_cheaper_combination() {
        // Covering two strategies either needs a large cost relaxation (0.5)
        // with zero quality, or a small quality (0.1) + small cost (0.1).
        let catalog = catalog_from(&[
            (0.8, 0.7, 0.1), // needs cost +0.5
            (0.7, 0.3, 0.1), // needs quality 0.1 and cost 0.1
            (0.8, 0.2, 0.1), // free
        ]);
        let request = request(0.8, 0.2, 0.3);
        let problem = AdparProblem::with_catalog(&request, &catalog, 2);
        let solution = AdparExact.solve(&problem).unwrap();
        assert!((solution.relaxation.x - 0.1).abs() < 1e-9);
        assert!((solution.relaxation.y - 0.1).abs() < 1e-9);
        assert_eq!(solution.strategy_indices, vec![1, 2]);
    }

    #[test]
    fn errors_are_propagated() {
        let catalog = catalog_from(&[(0.5, 0.5, 0.5)]);
        let r = request(0.9, 0.1, 0.1);
        assert!(matches!(
            AdparExact.solve(&AdparProblem::with_catalog(&r, &catalog, 0)),
            Err(StratRecError::ZeroCardinality)
        ));
        assert!(matches!(
            AdparExact.solve(&AdparProblem::with_catalog(&r, &catalog, 2)),
            Err(StratRecError::NotEnoughStrategies { .. })
        ));
    }

    #[test]
    fn solver_reports_its_name() {
        assert_eq!(AdparExact.name(), "ADPaR-Exact");
    }

    #[test]
    fn candidate_values_dedup_zero_and_near_zero_in_one_pass() {
        let mut out = Vec::new();
        // An exact-zero relaxation (strategy already satisfying the axis)
        // must collapse into the leading zero, and near-zero values within
        // the 1e-12 tolerance must vanish with it — no dependence on which
        // element an epsilon dedup_by happens to keep.
        fill_candidate_values(
            &mut out,
            [0.0, 0.0, 5e-13, 0.3, 0.3 + 5e-13, 0.7].into_iter(),
        );
        assert_eq!(out, vec![0.0, 0.3, 0.7]);

        // Values just outside the tolerance survive.
        fill_candidate_values(&mut out, [2e-12, 0.5].into_iter());
        assert_eq!(out, vec![0.0, 2e-12, 0.5]);

        // Chained near-duplicates dedup against the last *kept* value.
        fill_candidate_values(&mut out, [0.1, 0.1 + 8e-13, 0.1 + 2e-12].into_iter());
        assert_eq!(out, vec![0.0, 0.1, 0.1 + 2e-12]);

        // The retired-slot sentinel is discarded wherever it appears.
        fill_candidate_values(&mut out, [0.2, f64::INFINITY].into_iter());
        assert_eq!(out, vec![0.0, 0.2]);

        // No strategies: the zero candidate alone remains.
        fill_candidate_values(&mut out, std::iter::empty());
        assert_eq!(out, vec![0.0]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // Solving different problems through one scratch must give the same
        // solutions as fresh scratches (and as the plain trait entry point).
        let mut scratch = SolveScratch::new();
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        for request in &requests {
            let problem = AdparProblem::with_catalog(request, &catalog, 3);
            let reused = AdparExact
                .solve_with_scratch(&problem, &mut scratch)
                .unwrap();
            let fresh = AdparExact.solve(&problem).unwrap();
            assert_eq!(reused, fresh, "request {:?}", request.id);
        }
    }
}
