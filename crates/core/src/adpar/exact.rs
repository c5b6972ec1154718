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
//!
//! # The zero-relaxation answer
//!
//! On the serving path almost every request handed to ADPaR already admits
//! `k` strategies at its own thresholds: the Aggregator dropped it because
//! the workforce ran out, not because the strategies are missing. For such
//! a request the sweep's very first candidate, `(rq, rc) = (0, 0)`, yields
//! the triple `(0, 0, ±0)`, and the pruning stops both loops at once. That
//! happens exactly when at least `k` live slots have a quality and a cost
//! relaxation `≤ 1e-12` (the sweep's admission tolerance) and a latency
//! relaxation `== 0.0` (the `k`-th smallest must be zero). Before any
//! sweep, every solve counts those slots with **one walk of the catalog's
//! R-tree**; if there are at least `k`, it returns what
//! `AdparSolution::from_relaxation(problem, (0, 0, ±0))` would, without
//! posing the `|S|` relaxations. The cost is `O(box + |S|/64)` instead of
//! `O(|S|² log k)`: *box* is the number of slots the walk reaches, and a
//! one-bit-per-slot bitmap reads the covered set out in slot order, where
//! `from_relaxation` would scan all `|S|` relaxations and sort.
//!
//! *Why the walk sees every slot that matters.* The walk visits the live
//! slots whose normalized point lies in the origin-anchored box up to the
//! request's normalized point `c` inflated by `QUERY_MARGIN` = `2e-9` on
//! every axis (the eligibility box), plus the unindexed overlay tail. The
//! answer's covered set is the slots whose relaxation is within `1e-9` of
//! zero on every axis, the exact test `covered_by` applies. A covered slot
//! has `d.quality − s.quality ≤ 1e-9`, `s.cost − d.cost ≤ 1e-9` and
//! `s.latency − d.latency ≤ 1e-9`. Each normalized coordinate is the raw
//! parameter or `1 − quality`, so it exceeds `c` on its axis by at most
//! `1e-9` plus a few units of `2⁻⁵³` of rounding; parameters lie in
//! `[0, 1]`, so no coordinate falls below the box's zero corner. The box
//! reaches `2e-9` past `c`, so every covered slot is inside it, and every
//! counted slot is covered (`1e-12 ≤ 1e-9`). The walk tests each visited
//! slot with the same `relaxation_of` and `is_covered_by(.., 1e-9)`
//! arithmetic as `covered_by`, so the collected set, in slot order, is
//! `covered_by`'s.
//!
//! *Why the answer is the sweep's, bit for bit.* The sweep's quality
//! cursor admits a prefix of the catalog's quality order and stops at the
//! first slot above the cut. The relaxation is monotone in the
//! coordinate, so a slot at or under the cut can only sit behind one above
//! it when both share a coordinate `1 − q`. Two qualities that round to
//! the same `1 − q` differ by at most `2⁻⁵³`, so such a hidden slot's
//! quality relaxation lies within `2⁻⁵³` of the cut; when a counted slot
//! is that close (`QUALITY_TIE_BAND`), the short-circuit declines and the
//! sweep runs. The cost relaxation is `s.cost − d.cost`, a monotone
//! function of the cost coordinate itself, so the cost cursor admits
//! exactly the slots at or under the cut. The latency heap keeps the first
//! `k` zero latency relaxations it meets in cost order, so the answer's
//! latency relaxation is `-0.0` only when those `k` are all `-0.0`; the
//! short-circuit reproduces that sign. Quality and cost relaxations of the
//! answer are the sweep's literal `0.0`. `tests::zero_relaxation_*` and the
//! boundary-grid proptest pin both paths against each other.

use std::collections::BinaryHeap;

use stratrec_geometry::{Axis, Point3};

use crate::adpar::{relaxation_of, AdparProblem, AdparSolution, AdparSolver};
use crate::catalog::StrategyCatalog;
use crate::error::StratRecError;
use crate::model::{DeploymentParameters, DeploymentRequest};

/// The sweep's admission tolerance: a slot enters the `(quality, cost)`
/// prefix of candidate `(rq, rc)` when its relaxation is at most this far
/// above the candidate on each axis.
const ADMIT_EPS: f64 = 1e-12;

/// Quality relaxations this close below [`ADMIT_EPS`] make the
/// zero-relaxation answer decline: a slot there can share its quality
/// coordinate with a slot above the cut, which hides it from the sweep's
/// quality cursor (module docs). Ties span at most `2⁻⁵³ ≈ 1.1e-16`.
const QUALITY_TIE_BAND: f64 = 1e-15;

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
    /// Bitmap over slots of the zero-relaxation walk's covered set, read
    /// out in slot order.
    covered_words: Vec<u64>,
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
        Ok(
            zero_relaxation(problem.request, problem.catalog(), problem.k, scratch)
                .unwrap_or_else(|| sweep(problem, scratch)),
        )
    }

    /// [`Self::solve_with_scratch`] for `request` over `catalog`, posing the
    /// problem in `relaxations` ([`AdparProblem::with_catalog_reusing`])
    /// only when the zero-relaxation answer does not apply. The result is
    /// identical: that answer needs `k ≥ 1` and `k` live qualifying slots,
    /// so whenever it applies, validation passes.
    pub(crate) fn solve_posing(
        &self,
        request: &DeploymentRequest,
        catalog: &StrategyCatalog,
        k: usize,
        scratch: &mut SolveScratch,
        relaxations: &mut Vec<Point3>,
    ) -> Result<AdparSolution, StratRecError> {
        if let Some(solution) = zero_relaxation(request, catalog, k, scratch) {
            return Ok(solution);
        }
        AdparProblem::pose_reusing(request, catalog, k, relaxations, |problem| {
            problem.validate()?;
            Ok(sweep(problem, scratch))
        })
    }
}

/// The zero-relaxation answer (module docs): when at least `k` live slots
/// have quality and cost relaxations `≤ ADMIT_EPS` and a zero latency
/// relaxation, the solution the sweep would return, found with one walk of
/// the catalog's request box; `None` otherwise, and for `k = 0`.
fn zero_relaxation(
    request: &DeploymentRequest,
    catalog: &StrategyCatalog,
    k: usize,
    scratch: &mut SolveScratch,
) -> Option<AdparSolution> {
    if k == 0 {
        return None;
    }
    let d = &request.params;
    let words = &mut scratch.covered_words;
    words.clear();
    words.resize(catalog.slot_count().div_ceil(64), 0);
    let (mut covered_count, mut zeros, mut negative_zeros, mut near_cut) = (0, 0, 0, false);
    catalog.for_each_in_request_box(d, |slot| {
        let r = relaxation_of(&catalog.strategy(slot).params, d);
        if !r.is_covered_by(&Point3::origin(), 1e-9) {
            return;
        }
        words[slot / 64] |= 1 << (slot % 64);
        covered_count += 1;
        if r.x <= ADMIT_EPS && r.y <= ADMIT_EPS && r.z == 0.0 {
            zeros += 1;
            negative_zeros += usize::from(r.z.is_sign_negative());
            near_cut |= r.x > ADMIT_EPS - QUALITY_TIE_BAND;
        }
    });
    if zeros < k || near_cut {
        return None;
    }
    let mut covered = Vec::with_capacity(covered_count);
    for (index, &word) in words.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            covered.push(index * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
    let latency = if negative_zeros >= k && first_k_zeros_are_negative(catalog, d, &covered, k) {
        -0.0
    } else {
        0.0
    };
    Some(AdparSolution::with_covered(
        d,
        Point3::new(0.0, 0.0, latency),
        covered,
    ))
}

/// Whether the first `k` counted slots in the catalog's cost order — the
/// order the sweep feeds its latency heap — all have a `-0.0` latency
/// relaxation. `covered` holds every counted slot.
fn first_k_zeros_are_negative(
    catalog: &StrategyCatalog,
    d: &DeploymentParameters,
    covered: &[usize],
    k: usize,
) -> bool {
    let mut zeros: Vec<(usize, f64)> = covered
        .iter()
        .map(|&slot| (slot, relaxation_of(&catalog.strategy(slot).params, d)))
        .filter(|(_, r)| r.x <= ADMIT_EPS && r.y <= ADMIT_EPS && r.z == 0.0)
        .map(|(slot, r)| (slot, r.z))
        .collect();
    let points = catalog.points();
    zeros.sort_unstable_by(|&(a, _), &(b, _)| points[a].y.total_cmp(&points[b].y).then(a.cmp(&b)));
    zeros[..k].iter().all(|&(_, z)| z.is_sign_negative())
}

/// The exact sweep of Algorithm 2 over the posed `problem`, which must
/// already be valid.
fn sweep(problem: &AdparProblem<'_>, scratch: &mut SolveScratch) -> AdparSolution {
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
            && relaxations[scratch.by_quality[quality_cursor]].x <= rq + ADMIT_EPS
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
                && relaxations[scratch.by_cost[cost_cursor]].y <= rc + ADMIT_EPS
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

    let (_, relaxation) = best
        .expect("validate() guarantees |S| >= k, so the fully relaxed corner is always feasible");
    AdparSolution::from_relaxation(problem, relaxation)
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
    use crate::adpar::AdparBruteForce;
    use crate::catalog::RebuildPolicy;
    use crate::engine::BatchEngine;
    use crate::model::{Strategy, TaskType};
    use proptest::prelude::*;

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

    /// Every bit of a solution: alternative, relaxation, covered slots and
    /// distance. `PartialEq` on `f64` would call `-0.0` and `0.0` equal.
    type SolutionBits = ([u64; 3], [u64; 3], Vec<usize>, u64);

    fn solution_bits(solution: &AdparSolution) -> SolutionBits {
        let a = &solution.alternative;
        let r = &solution.relaxation;
        (
            [a.quality.to_bits(), a.cost.to_bits(), a.latency.to_bits()],
            [r.x.to_bits(), r.y.to_bits(), r.z.to_bits()],
            solution.strategy_indices.clone(),
            solution.distance.to_bits(),
        )
    }

    fn result_bits(
        result: &Result<AdparSolution, StratRecError>,
    ) -> Result<SolutionBits, StratRecError> {
        result.as_ref().map(solution_bits).map_err(Clone::clone)
    }

    /// The sweep alone, behind the same validation as the full solve.
    fn sweep_only(problem: &AdparProblem<'_>) -> Result<AdparSolution, StratRecError> {
        problem.validate()?;
        Ok(sweep(problem, &mut SolveScratch::new()))
    }

    /// Checks the full solve, the batch engine (which tries the
    /// zero-relaxation answer before posing) and the sweep alone agree bit
    /// for bit; returns whether the zero-relaxation answer applied.
    fn assert_paths_agree(
        request: &DeploymentRequest,
        catalog: &StrategyCatalog,
        k: usize,
    ) -> bool {
        let problem = AdparProblem::with_catalog(request, catalog, k);
        let swept = result_bits(&sweep_only(&problem));
        assert_eq!(result_bits(&AdparExact.solve(&problem)), swept);
        let batch = BatchEngine::sequential().solve_adpar_batch(
            std::slice::from_ref(request),
            catalog,
            &[0],
            k,
        );
        assert_eq!(result_bits(&batch[0]), swept);
        zero_relaxation(request, catalog, k, &mut SolveScratch::new()).is_some()
    }

    #[test]
    fn zero_relaxation_answers_an_admissible_request() {
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        // d3 admits three strategies at its own thresholds.
        assert!(assert_paths_agree(&requests[2], &catalog, 3));
        // d1 and d2 need a relaxation.
        assert!(!assert_paths_agree(&requests[0], &catalog, 3));
        assert!(!assert_paths_agree(&requests[1], &catalog, 3));
    }

    #[test]
    fn zero_relaxation_declines_with_only_k_minus_one_qualifying_slots() {
        // Two slots meet the request, the third needs a cost relaxation.
        let catalog = catalog_from(&[(0.9, 0.1, 0.1), (0.8, 0.2, 0.2), (0.9, 0.6, 0.1)]);
        let request = request(0.8, 0.3, 0.3);
        assert!(zero_relaxation(&request, &catalog, 3, &mut SolveScratch::new()).is_none());
        assert!(!assert_paths_agree(&request, &catalog, 3));
        let solution = AdparExact
            .solve(&AdparProblem::with_catalog(&request, &catalog, 3))
            .unwrap();
        assert!((solution.relaxation.y - 0.3).abs() < 1e-9);
        // With k = 2 the same two slots suffice.
        assert!(assert_paths_agree(&request, &catalog, 2));
    }

    #[test]
    fn zero_relaxation_declines_when_the_kth_latency_relaxation_is_1e_13() {
        // The third slot's latency is 1e-13 past the deadline: within the
        // 1e-9 coverage tolerance, but not a zero relaxation, so the sweep
        // must find (0, 0, 1e-13).
        let catalog = catalog_from(&[(0.9, 0.1, 0.1), (0.9, 0.1, 0.2), (0.9, 0.1, 0.3 + 1e-13)]);
        let request = request(0.8, 0.3, 0.3);
        assert!(zero_relaxation(&request, &catalog, 3, &mut SolveScratch::new()).is_none());
        assert!(!assert_paths_agree(&request, &catalog, 3));
        let solution = AdparExact
            .solve(&AdparProblem::with_catalog(&request, &catalog, 3))
            .unwrap();
        assert_eq!(solution.relaxation.z, (0.3 + 1e-13) - 0.3);
        assert!(solution.relaxation.z > 0.0);
    }

    #[test]
    fn zero_relaxation_declines_beside_a_quality_coordinate_tie() {
        // Both qualities round to the same 1 − q, so the catalog orders the
        // two slots by slot number. Slot 0 sits just above the sweep's
        // 1e-12 admission cut and stops its quality cursor before slot 1,
        // which sits just under it: the sweep relaxes quality by slot 0's
        // 1.00003e-12 instead of answering (0, 0, 0).
        let q_above = 0.300_000_000_000_000_7_f64;
        let q_under = 0.300_000_000_000_000_77_f64;
        let threshold = 0.300_000_000_001_000_74_f64;
        assert!(q_above < q_under);
        assert_eq!(1.0 - q_above, 1.0 - q_under);
        assert!(threshold - q_above > ADMIT_EPS && threshold - q_under <= ADMIT_EPS);
        let catalog = catalog_from(&[(q_above, 0.1, 0.1), (q_under, 0.1, 0.1)]);
        let request = request(threshold, 0.5, 0.5);
        assert!(!assert_paths_agree(&request, &catalog, 1));
        let solution = AdparExact
            .solve(&AdparProblem::with_catalog(&request, &catalog, 1))
            .unwrap();
        assert_eq!(solution.relaxation.x, threshold - q_above);
    }

    #[test]
    fn zero_relaxation_keeps_the_sweeps_latency_sign() {
        // A `-0.0` deadline met by `-0.0` latencies can give a `-0.0`
        // latency relaxation (`f64::max` may return either zero). The sweep
        // reports the k-th zero its heap kept, taken in cost order.
        let strategies = |latencies: [f64; 3]| {
            StrategyCatalog::new(
                [
                    (0.01, latencies[0]),
                    (0.05, latencies[1]),
                    (0.07, latencies[2]),
                ]
                .iter()
                .enumerate()
                .map(|(i, &(cost, latency))| {
                    let mut params = DeploymentParameters::clamped(0.9, cost, 0.5);
                    params.latency = latency;
                    Strategy::from_params(i as u64, params)
                })
                .collect::<Vec<_>>(),
            )
        };
        let request = request(0.5, 0.5, 0.0);
        for latencies in [
            [-0.0, -0.0, -0.0],
            [0.0, -0.0, -0.0],
            [-0.0, 0.0, -0.0],
            [-0.0, -0.0, 0.0],
        ] {
            let catalog = strategies(latencies);
            for k in 1..=3 {
                assert!(
                    assert_paths_agree(&request, &catalog, k),
                    "{latencies:?} k={k}"
                );
            }
        }
    }

    /// Offsets from a request threshold that straddle every tolerance the
    /// solver uses: the sweep's 1e-12, the coverage test's 1e-9 and the
    /// query box's 2e-9.
    const GRID_OFFSETS: [f64; 11] = [
        0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 1e-9, -1e-9, 2e-9, -2e-9,
    ];
    /// Request thresholds: interior, both signed zeros and the upper bound.
    const GRID_THRESHOLDS: [f64; 4] = [0.4, 0.0, -0.0, 1.0];

    /// One grid coordinate: `GRID_OFFSETS[pick]` from `threshold`, or a far
    /// value for the picks past the grid; an exact zero takes the sign
    /// `negative` asks for.
    fn grid_value(threshold: f64, pick: usize, far: f64, negative: bool) -> f64 {
        let value = GRID_OFFSETS
            .get(pick)
            .map_or(far, |&offset| (threshold + offset).clamp(0.0, 1.0));
        if value == 0.0 && negative {
            -0.0
        } else {
            value
        }
    }

    /// A strategy whose quality, cost and latency sit on the grid around
    /// the request's (quality, cost, latency) thresholds.
    fn grid_strategy(
        id: u64,
        thresholds: [f64; 3],
        picks: (usize, usize, usize),
        draw: f64,
        negative: bool,
    ) -> Strategy {
        let [q, c, l] = thresholds;
        let mut params = DeploymentParameters::clamped(0.0, 0.0, 0.0);
        params.quality = grid_value(q, picks.0, (q - draw).clamp(0.0, 1.0), negative);
        params.cost = grid_value(c, picks.1, (c + draw).clamp(0.0, 1.0), negative);
        params.latency = grid_value(l, picks.2, (l + draw).clamp(0.0, 1.0), negative);
        Strategy::from_params(id, params)
    }

    proptest! {
        // The zero-relaxation answer is the sweep's answer, bit for bit, on
        // strategies packed around every tolerance edge, with signed zeros,
        // retired slots in the index and in an unmerged tail, and k at 1,
        // 3, the live count and one past it.
        #[test]
        fn zero_relaxation_matches_the_sweep_on_the_boundary_grid(
            thresholds in (0_usize..4, 0_usize..4, 0_usize..4),
            base in proptest::collection::vec(
                ((0_usize..14, 0_usize..14, 0_usize..14), 0.0_f64..0.3, (0_u8..4, 0_u8..5)),
                1..7,
            ),
            tail in proptest::collection::vec(
                ((0_usize..14, 0_usize..14, 0_usize..14), 0.0_f64..0.3, (0_u8..4, 0_u8..5)),
                0..4,
            ),
            k_pick in 0_usize..4,
        ) {
            let thresholds = [
                GRID_THRESHOLDS[thresholds.0],
                GRID_THRESHOLDS[thresholds.1],
                GRID_THRESHOLDS[thresholds.2],
            ];
            let mut request = request(0.5, 0.5, 0.5);
            request.params.quality = thresholds[0];
            request.params.cost = thresholds[1];
            request.params.latency = thresholds[2];
            // (sign, retire) codes: sign 0 makes exact zeros negative,
            // retire 0 retires the slot.
            let strategy = |i: usize, &(picks, draw, (sign, _)): &((usize, usize, usize), f64, (u8, u8))| {
                grid_strategy(i as u64, thresholds, picks, draw, sign == 0)
            };
            let mut catalog = StrategyCatalog::with_policy(
                base.iter().enumerate().map(|(i, s)| strategy(i, s)).collect::<Vec<_>>(),
                RebuildPolicy::never(),
            );
            for (i, s) in tail.iter().enumerate() {
                catalog.insert(strategy(base.len() + i, s));
            }
            for (slot, &(_, _, (_, retire))) in base.iter().chain(&tail).enumerate() {
                if retire == 0 {
                    catalog.retire(slot);
                }
            }
            let live = catalog.len();
            let k = [1, 3, live, live + 1][k_pick];
            assert_paths_agree(&request, &catalog, k);

            // ADPaRB agrees on errors and, within tolerance, on the
            // optimum's distance. Both solvers keep an earlier cover unless
            // a later one beats it by 1e-15 in squared distance, so on this
            // grid either may return a cover up to √1e-15 ≈ 3.2e-8 farther
            // than the optimum, and bits cannot be compared.
            let problem = AdparProblem::with_catalog(&request, &catalog, k);
            match (AdparExact.solve(&problem), AdparBruteForce.solve(&problem)) {
                (Ok(exact), Ok(brute)) => {
                    prop_assert!((exact.distance - brute.distance).abs() < 1e-7);
                    prop_assert!(exact.strategy_indices.len() >= k);
                }
                (exact, brute) => prop_assert_eq!(exact.err(), brute.err()),
            }
        }

        // Off the grid, where optima are unique, the full solve (the
        // zero-relaxation answer included) equals ADPaRB bit for bit.
        #[test]
        fn exact_matches_brute_force_bit_for_bit_on_random_instances(
            raw in proptest::collection::vec(
                (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
                1..8
            ),
            req in (0.0_f64..1.0, 0.0_f64..1.0, 0.0_f64..1.0),
            k in 1_usize..5,
        ) {
            prop_assume!(k <= raw.len());
            let catalog = catalog_from(&raw);
            let request = request(req.0, req.1, req.2);
            let problem = AdparProblem::with_catalog(&request, &catalog, k);
            prop_assert_eq!(
                result_bits(&AdparExact.solve(&problem)),
                result_bits(&AdparBruteForce.solve(&problem))
            );
            assert_paths_agree(&request, &catalog, k);
        }
    }
}
