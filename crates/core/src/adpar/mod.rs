//! Alternative deployment-parameter recommendation (ADPaR, paper §4).
//!
//! When the Aggregator cannot find `k` strategies satisfying a deployment
//! request `d`, ADPaR recommends the *closest* alternative parameters `d′`
//! (in Euclidean distance, Equation 3) for which `k` strategies do exist.
//! After normalization (quality inverted so smaller is better everywhere)
//! each strategy is a point in 3-D space and `d′` must *cover* at least `k`
//! of those points.
//!
//! The module provides the paper's four solvers behind one trait:
//!
//! | Solver | Paper name | Guarantee | Complexity |
//! |---|---|---|---|
//! | [`AdparExact`] | `ADPaR-Exact` | exact | `O(box + \|S\|/64)` when the request already admits `k` strategies (one R-tree walk over the request box), else `O(\|S\|² log k)` (paper reports `O(\|S\|³)`) |
//! | [`AdparBruteForce`] | `ADPaRB` | exact | exponential in `k` |
//! | [`AdparBaseline2`] | `Baseline2` | none (one dimension at a time) | `O(\|S\| log \|S\|)` |
//! | [`AdparBaseline3`] | `Baseline3` | none (R-tree MBB corners) | `O(\|S\| log \|S\|)` |

mod baseline2;
mod baseline3;
mod brute;
mod exact;
pub mod trace;

pub use baseline2::AdparBaseline2;
pub use baseline3::AdparBaseline3;
pub use brute::AdparBruteForce;
pub use exact::{AdparExact, SolveScratch};

use serde::{Deserialize, Serialize};
use stratrec_geometry::{Axis, Point3};

use crate::catalog::StrategyCatalog;
use crate::error::StratRecError;
use crate::model::{DeploymentParameters, DeploymentRequest};

/// An ADPaR problem instance: one unsatisfied request, the strategy
/// catalog and the cardinality constraint `k`.
///
/// The catalog is the paper's point set (§4): every strategy normalized into
/// the minimization space, indexed by an R-tree and pre-sorted per axis. The
/// per-strategy relaxation vectors are computed **once** at construction;
/// the sweeps walk the catalog's axis orders instead of sorting, and
/// [`AdparBaseline3`] reuses its R-tree instead of bulk-loading one per
/// solve.
///
/// Over a churned catalog, retired slots carry an infinite relaxation on
/// every axis, so no solver can ever cover or report them;
/// [`Self::validate`] counts live strategies only. The problem borrows the
/// catalog, so the catalog cannot change while the problem is alive.
#[derive(Debug, Clone)]
pub struct AdparProblem<'a> {
    /// The request whose parameters need relaxing.
    pub request: &'a DeploymentRequest,
    /// Number of strategies the alternative parameters must admit.
    pub k: usize,
    /// Cached per-slot relaxation vectors (paper §4.1, step 1).
    relaxations: Vec<Point3>,
    /// The strategy catalog the problem is posed over.
    catalog: &'a StrategyCatalog,
}

/// Relaxation sentinel for retired catalog slots: infinite on every axis, so
/// it is never covered by any finite relaxation and never admitted by any
/// sweep.
fn retired_relaxation() -> Point3 {
    Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY)
}

impl<'a> AdparProblem<'a> {
    /// Creates a problem instance over a [`StrategyCatalog`], reusing its
    /// pre-normalized points, axis orders and R-tree index. Retired slots
    /// get the infinite sentinel and are transparent to every solver.
    #[must_use]
    pub fn with_catalog(
        request: &'a DeploymentRequest,
        catalog: &'a StrategyCatalog,
        k: usize,
    ) -> Self {
        Self::with_catalog_reusing(request, catalog, k, Vec::new())
    }

    /// [`Self::with_catalog`] filling a caller-provided relaxation buffer
    /// (cleared first) instead of allocating one, so batch drivers that
    /// solve problems back to back — recover the buffer with
    /// [`Self::into_relaxations`] — allocate the `O(slot_count)` vector
    /// once per worker rather than once per problem.
    #[must_use]
    pub fn with_catalog_reusing(
        request: &'a DeploymentRequest,
        catalog: &'a StrategyCatalog,
        k: usize,
        mut relaxations: Vec<Point3>,
    ) -> Self {
        let d = &request.params;
        relaxations.clear();
        relaxations.extend(catalog.strategies().iter().enumerate().map(|(slot, s)| {
            if catalog.is_live(slot) {
                relaxation_of(&s.params, d)
            } else {
                retired_relaxation()
            }
        }));
        Self {
            request,
            k,
            relaxations,
            catalog,
        }
    }

    /// Consumes the problem, returning its relaxation buffer for reuse in
    /// [`Self::with_catalog_reusing`].
    #[must_use]
    pub fn into_relaxations(self) -> Vec<Point3> {
        self.relaxations
    }

    /// Poses the problem over the caller's relaxation `buffer`
    /// ([`Self::with_catalog_reusing`]), runs `solve` on it and puts the
    /// buffer back, for batch drivers that solve problems back to back.
    pub(crate) fn pose_reusing<R>(
        request: &'a DeploymentRequest,
        catalog: &'a StrategyCatalog,
        k: usize,
        buffer: &mut Vec<Point3>,
        solve: impl FnOnce(&Self) -> R,
    ) -> R {
        let problem = Self::with_catalog_reusing(request, catalog, k, std::mem::take(buffer));
        let result = solve(&problem);
        *buffer = problem.into_relaxations();
        result
    }

    /// The catalog this problem is posed over.
    #[must_use]
    pub fn catalog(&self) -> &'a StrategyCatalog {
        self.catalog
    }

    /// Validates the instance: `k ≥ 1` and at least `k` **live** strategies
    /// exist.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::ZeroCardinality`] or
    /// [`StratRecError::NotEnoughStrategies`].
    pub fn validate(&self) -> Result<(), StratRecError> {
        if self.k == 0 {
            return Err(StratRecError::ZeroCardinality);
        }
        let available = self.catalog.len();
        if available < self.k {
            return Err(StratRecError::NotEnoughStrategies {
                available,
                requested: self.k,
            });
        }
        Ok(())
    }

    /// The per-strategy relaxation vectors (paper §4.1, step 1): how much
    /// each parameter of the request must move for the strategy to become
    /// admissible, expressed in the normalized minimization space. A zero
    /// component means no relaxation is needed on that axis.
    ///
    /// Axis mapping: `x` = quality relaxation (decrease of the quality lower
    /// bound), `y` = cost relaxation (increase of the budget), `z` = latency
    /// relaxation (increase of the deadline).
    ///
    /// Computed once at construction; this accessor is free.
    #[must_use]
    pub fn relaxations(&self) -> &[Point3] {
        &self.relaxations
    }

    /// Converts a chosen relaxation vector back into concrete alternative
    /// deployment parameters.
    #[must_use]
    pub fn apply_relaxation(&self, relaxation: Point3) -> DeploymentParameters {
        apply_relaxation(&self.request.params, relaxation)
    }

    /// Writes into `out` the live slots in ascending order of their
    /// relaxation on `axis` (ties broken deterministically).
    ///
    /// This **walks the catalog's pre-sorted axis order** instead of
    /// sorting: the relaxation `max(0, coord − threshold)` is monotone in
    /// the normalized coordinate, so the catalog's coordinate-ascending live
    /// order is a relaxation-ascending order of exactly the admissible
    /// slots — the zero-clamped prefix only collapses distinct coordinates
    /// into ties, which sweeps are insensitive to.
    pub fn axis_order_into(&self, axis: Axis, out: &mut Vec<usize>) {
        self.catalog.axis_order_into(axis, out);
    }

    /// Indices of the strategies covered by a relaxation vector (those whose
    /// own relaxation is component-wise ≤ the given one). Retired catalog
    /// slots are never covered — their sentinel relaxation is infinite.
    #[must_use]
    pub fn covered_by(&self, relaxation: Point3) -> Vec<usize> {
        self.relaxations
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_covered_by(&relaxation, 1e-9))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The relaxation vector needed for a strategy with parameters `s` to become
/// admissible under a request with parameters `d`.
#[must_use]
pub fn relaxation_of(s: &DeploymentParameters, d: &DeploymentParameters) -> Point3 {
    Point3::new(
        (d.quality - s.quality).max(0.0),
        (s.cost - d.cost).max(0.0),
        (s.latency - d.latency).max(0.0),
    )
}

/// The request parameters `d` moved by `relaxation`: quality lowered, cost
/// and latency raised, clamped into `[0, 1]`.
fn apply_relaxation(d: &DeploymentParameters, relaxation: Point3) -> DeploymentParameters {
    DeploymentParameters::clamped(
        d.quality - relaxation.x,
        d.cost + relaxation.y,
        d.latency + relaxation.z,
    )
}

/// An ADPaR solution: the alternative parameters, the strategies they admit
/// and the distance to the original request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdparSolution {
    /// The recommended alternative deployment parameters.
    pub alternative: DeploymentParameters,
    /// The relaxation applied on each axis (quality, cost, latency).
    pub relaxation: Point3,
    /// Indices of the strategies admitted by the alternative parameters
    /// (at least `k`, sorted ascending).
    pub strategy_indices: Vec<usize>,
    /// Euclidean distance between the original and alternative parameters
    /// (the objective of Equation 3).
    pub distance: f64,
}

impl AdparSolution {
    /// Builds a solution from a chosen relaxation, recomputing coverage and
    /// distance from the problem instance so the fields stay consistent.
    #[must_use]
    pub fn from_relaxation(problem: &AdparProblem<'_>, relaxation: Point3) -> Self {
        let mut strategy_indices = problem.covered_by(relaxation);
        strategy_indices.sort_unstable();
        Self::with_covered(&problem.request.params, relaxation, strategy_indices)
    }

    /// The solution relaxing request parameters `d` by `relaxation`, given
    /// the covered slots already sorted ascending.
    fn with_covered(
        d: &DeploymentParameters,
        relaxation: Point3,
        strategy_indices: Vec<usize>,
    ) -> Self {
        Self {
            alternative: apply_relaxation(d, relaxation),
            relaxation,
            strategy_indices,
            distance: relaxation.distance(&Point3::origin()),
        }
    }

    /// Whether the solution satisfies the cardinality constraint of
    /// `problem`.
    #[must_use]
    pub fn is_feasible_for(&self, problem: &AdparProblem<'_>) -> bool {
        self.strategy_indices.len() >= problem.k
    }
}

/// A solver for the ADPaR problem.
pub trait AdparSolver {
    /// Computes alternative deployment parameters admitting at least `k`
    /// strategies.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::ZeroCardinality`] when `k = 0` and
    /// [`StratRecError::NotEnoughStrategies`] when fewer than `k` strategies
    /// exist (no relaxation can ever help).
    fn solve(&self, problem: &AdparProblem<'_>) -> Result<AdparSolution, StratRecError>;

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Strategy, TaskType};

    /// A catalog over strategies with the given `(quality, cost, latency)`
    /// parameters, in slot order.
    pub(crate) fn catalog_from(params: &[(f64, f64, f64)]) -> StrategyCatalog {
        StrategyCatalog::new(
            params
                .iter()
                .enumerate()
                .map(|(i, &(q, c, l))| {
                    Strategy::from_params(i as u64, DeploymentParameters::clamped(q, c, l))
                })
                .collect::<Vec<_>>(),
        )
    }

    /// The catalog of the paper's running example (Table 1: s1–s4).
    pub(crate) fn running_example_catalog() -> StrategyCatalog {
        StrategyCatalog::new(crate::examples_data::running_example_strategies())
    }

    fn problem_fixture() -> (DeploymentRequest, StrategyCatalog) {
        let request = crate::examples_data::running_example_requests()[1].clone(); // d2
        (request, running_example_catalog())
    }

    #[test]
    fn validation_catches_bad_instances() {
        let (request, catalog) = problem_fixture();
        assert!(AdparProblem::with_catalog(&request, &catalog, 3)
            .validate()
            .is_ok());
        assert!(matches!(
            AdparProblem::with_catalog(&request, &catalog, 0).validate(),
            Err(StratRecError::ZeroCardinality)
        ));
        assert!(matches!(
            AdparProblem::with_catalog(&request, &catalog, 9).validate(),
            Err(StratRecError::NotEnoughStrategies {
                available: 4,
                requested: 9
            })
        ));
    }

    #[test]
    fn validation_counts_live_strategies_only() {
        let (request, mut catalog) = problem_fixture();
        assert!(catalog.retire(0));
        assert!(AdparProblem::with_catalog(&request, &catalog, 3)
            .validate()
            .is_ok());
        assert!(matches!(
            AdparProblem::with_catalog(&request, &catalog, 4).validate(),
            Err(StratRecError::NotEnoughStrategies {
                available: 3,
                requested: 4
            })
        ));
        // The retired slot keeps its index but can never be covered.
        let problem = AdparProblem::with_catalog(&request, &catalog, 3);
        assert_eq!(problem.relaxations()[0], retired_relaxation());
        assert_eq!(
            problem.covered_by(Point3::new(1.0, 1.0, 1.0)),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn relaxations_match_paper_step_1() {
        // For d2 = (0.8, 0.2, 0.28) the paper's step-1 relaxation values are
        // {0.3, 0.05, 0, 0} on one axis and {0.05, 0.13, 0.3, 0.38} on the
        // other (Table 3), with zero latency relaxations.
        let (request, catalog) = problem_fixture();
        let problem = AdparProblem::with_catalog(&request, &catalog, 3);
        let rel = problem.relaxations();
        let quality: Vec<f64> = rel.iter().map(|r| (r.x * 100.0).round() / 100.0).collect();
        let cost: Vec<f64> = rel.iter().map(|r| (r.y * 100.0).round() / 100.0).collect();
        let latency: Vec<f64> = rel.iter().map(|r| r.z).collect();
        assert_eq!(quality, vec![0.3, 0.05, 0.0, 0.0]);
        assert_eq!(cost, vec![0.05, 0.13, 0.3, 0.38]);
        assert_eq!(latency, vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn apply_relaxation_moves_each_bound_in_the_right_direction() {
        let (request, catalog) = problem_fixture();
        let problem = AdparProblem::with_catalog(&request, &catalog, 3);
        let alt = problem.apply_relaxation(Point3::new(0.05, 0.38, 0.0));
        assert!((alt.quality - 0.75).abs() < 1e-9);
        assert!((alt.cost - 0.58).abs() < 1e-9);
        assert!((alt.latency - 0.28).abs() < 1e-9);
    }

    #[test]
    fn coverage_grows_with_relaxation() {
        let (request, catalog) = problem_fixture();
        let problem = AdparProblem::with_catalog(&request, &catalog, 3);
        assert!(problem.covered_by(Point3::origin()).is_empty());
        assert_eq!(problem.covered_by(Point3::new(0.0, 0.3, 0.0)), vec![2]);
        assert_eq!(
            problem.covered_by(Point3::new(0.05, 0.38, 0.0)),
            vec![1, 2, 3]
        );
        assert_eq!(
            problem.covered_by(Point3::new(1.0, 1.0, 1.0)).len(),
            catalog.len()
        );
    }

    #[test]
    fn solution_from_relaxation_is_consistent() {
        let (request, catalog) = problem_fixture();
        let problem = AdparProblem::with_catalog(&request, &catalog, 3);
        let solution = AdparSolution::from_relaxation(&problem, Point3::new(0.05, 0.38, 0.0));
        assert!(solution.is_feasible_for(&problem));
        assert_eq!(solution.strategy_indices, vec![1, 2, 3]);
        let expected = (0.05_f64 * 0.05 + 0.38 * 0.38).sqrt();
        assert!((solution.distance - expected).abs() < 1e-12);
        assert!((solution.alternative.distance(&request.params) - expected).abs() < 1e-9);
    }

    #[test]
    fn relaxation_of_an_already_satisfying_strategy_is_zero() {
        let d = DeploymentParameters::clamped(0.4, 0.5, 0.5);
        let s = DeploymentParameters::clamped(0.8, 0.2, 0.3);
        assert_eq!(relaxation_of(&s, &d), Point3::origin());
    }

    #[test]
    fn problems_can_be_built_over_arbitrary_requests() {
        let catalog = running_example_catalog();
        let request = DeploymentRequest::new(
            99,
            TaskType::PuzzleSolving,
            DeploymentParameters::clamped(1.0, 0.0, 0.0),
        );
        let problem = AdparProblem::with_catalog(&request, &catalog, 2);
        // Every strategy needs relaxation on every axis for this extreme request.
        assert!(problem
            .relaxations()
            .iter()
            .all(|r| r.x > 0.0 && r.y > 0.0 && r.z > 0.0));
    }
}
