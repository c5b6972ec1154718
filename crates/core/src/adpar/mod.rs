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
//! | [`AdparExact`] | `ADPaR-Exact` | exact | `O(\|S\|² log k)` (paper reports `O(\|S\|³)`) |
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
use crate::model::{DeploymentParameters, DeploymentRequest, Strategy};

/// An ADPaR problem instance: one unsatisfied request, the strategy set and
/// the cardinality constraint `k`.
///
/// The per-strategy relaxation vectors are computed **once** at construction
/// and cached (the seed recomputed them on every [`Self::relaxations`] /
/// [`Self::covered_by`] call). Problems built with [`Self::with_catalog`]
/// additionally share the catalog's pre-normalized points and R-tree, which
/// lets [`AdparBaseline3`] skip its per-solve bulk load.
///
/// Over a churned catalog, retired slots carry the [`retired_relaxation`]
/// sentinel (infinite on every axis), so no solver can ever cover or report
/// them; [`Self::validate`] counts live strategies only. The cached
/// relaxations are valid for exactly one catalog [`epoch`]: the problem
/// borrows the catalog, so Rust's borrow rules already prevent mutation
/// while the problem is alive, and [`Self::catalog_epoch`] lets any derived
/// cache that outlives the borrow invalidate on the next epoch bump. A
/// problem re-pinned at an older epoch ([`Self::pinned_at_epoch`], the
/// cache-replay path) fails [`Self::validate`] with the typed
/// [`StratRecError::StaleCatalog`] instead of silently reusing stale slot
/// references; solutions that outlive a
/// [`compact()`](StrategyCatalog::compact) are renumbered with
/// [`AdparSolution::remap`].
///
/// [`epoch`]: StrategyCatalog::epoch
#[derive(Debug, Clone)]
pub struct AdparProblem<'a> {
    /// The request whose parameters need relaxing.
    pub request: &'a DeploymentRequest,
    /// All strategy slots of the platform (retired slots included when built
    /// over a churned catalog — their relaxations are the infinite
    /// sentinel).
    pub strategies: &'a [Strategy],
    /// Number of strategies the alternative parameters must admit.
    pub k: usize,
    /// Cached per-strategy relaxation vectors (paper §4.1, step 1).
    relaxations: Vec<Point3>,
    /// Shared catalog, when the problem was built from one.
    catalog: Option<&'a StrategyCatalog>,
    /// Catalog epoch the relaxations were computed at (0 without a catalog).
    catalog_epoch: u64,
}

/// Relaxation sentinel for retired catalog slots: infinite on every axis, so
/// it is never covered by any finite relaxation and never admitted by any
/// sweep.
#[must_use]
pub fn retired_relaxation() -> Point3 {
    Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY)
}

impl<'a> AdparProblem<'a> {
    /// Creates a problem instance over a plain strategy slice.
    #[must_use]
    pub fn new(request: &'a DeploymentRequest, strategies: &'a [Strategy], k: usize) -> Self {
        let relaxations = compute_relaxations(request, strategies);
        Self {
            request,
            strategies,
            k,
            relaxations,
            catalog: None,
            catalog_epoch: 0,
        }
    }

    /// Creates a problem instance over a shared [`StrategyCatalog`],
    /// reusing its pre-normalized points and R-tree index. The solution of
    /// every solver is identical to the plain [`Self::new`] construction
    /// over the catalog's **live** strategies (retired slots get the
    /// infinite sentinel and are transparent to every solver).
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
        let strategies = catalog.strategies();
        let d = &request.params;
        relaxations.clear();
        relaxations.extend(strategies.iter().enumerate().map(|(slot, s)| {
            if catalog.is_live(slot) {
                relaxation_of(&s.params, d)
            } else {
                retired_relaxation()
            }
        }));
        Self {
            request,
            strategies,
            k,
            relaxations,
            catalog: Some(catalog),
            catalog_epoch: catalog.epoch(),
        }
    }

    /// Consumes the problem, returning its relaxation buffer for reuse in
    /// [`Self::with_catalog_reusing`].
    #[must_use]
    pub fn into_relaxations(self) -> Vec<Point3> {
        self.relaxations
    }

    /// The shared catalog this problem was built from, if any.
    #[must_use]
    pub fn catalog(&self) -> Option<&'a StrategyCatalog> {
        self.catalog
    }

    /// The catalog epoch the cached relaxations were computed at (0 for
    /// plain-slice problems). Caches keyed by this value must be discarded
    /// once [`StrategyCatalog::epoch`] moves past it.
    #[must_use]
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// Re-pins the problem's cached state at `epoch` — for caches that
    /// replay relaxations or slot sets captured at an earlier catalog epoch.
    /// If the catalog has moved past that epoch (any insert, retire or
    /// compaction since), [`Self::validate`] — and therefore every solver —
    /// fails with the typed [`StratRecError::StaleCatalog`] instead of
    /// silently reporting slot numbers the catalog may have renumbered.
    #[must_use]
    pub fn pinned_at_epoch(mut self, epoch: u64) -> Self {
        if self.catalog.is_some() {
            self.catalog_epoch = epoch;
        }
        self
    }

    /// Number of strategies a relaxation could ever cover: the catalog's
    /// live count, or the full slice length for plain problems.
    #[must_use]
    pub fn available_strategies(&self) -> usize {
        self.catalog
            .map_or(self.strategies.len(), StrategyCatalog::len)
    }

    /// Validates the instance: the cached state matches the catalog's
    /// current epoch, `k ≥ 1` and at least `k` **live** strategies exist.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::StaleCatalog`] when the problem is pinned at
    /// an epoch the catalog has moved past (only reachable through the
    /// [`Self::pinned_at_epoch`] cache-replay path — a freshly built problem
    /// freezes the catalog through its borrow),
    /// [`StratRecError::ZeroCardinality`] or
    /// [`StratRecError::NotEnoughStrategies`].
    pub fn validate(&self) -> Result<(), StratRecError> {
        if let Some(catalog) = self.catalog {
            let found = catalog.epoch();
            if found != self.catalog_epoch {
                return Err(StratRecError::StaleCatalog {
                    expected: self.catalog_epoch,
                    found,
                });
            }
        }
        if self.k == 0 {
            return Err(StratRecError::ZeroCardinality);
        }
        let available = self.available_strategies();
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
        let d = &self.request.params;
        DeploymentParameters::clamped(
            d.quality - relaxation.x,
            d.cost + relaxation.y,
            d.latency + relaxation.z,
        )
    }

    /// Writes into `out` the strategy indices a sweep may ever admit, in
    /// ascending order of their relaxation on `axis` (ties broken
    /// deterministically).
    ///
    /// Catalog-backed problems **walk the catalog's pre-sorted axis order**
    /// instead of sorting: the relaxation `max(0, coord − threshold)` is
    /// monotone in the normalized coordinate, so the catalog's
    /// coordinate-ascending live order is a relaxation-ascending order of
    /// exactly the admissible (live) slots — the zero-clamped prefix only
    /// collapses distinct coordinates into ties, which sweeps are
    /// insensitive to. Plain-slice problems fall back to an `O(|S| log
    /// |S|)` sort; retired-slot sentinels (infinite relaxations) sort last
    /// there and are never admitted by a finite sweep position.
    pub fn axis_order_into(&self, axis: Axis, out: &mut Vec<usize>) {
        if let Some(catalog) = self.catalog {
            catalog.axis_order_into(axis, out);
            return;
        }
        out.clear();
        out.extend(0..self.relaxations.len());
        out.sort_unstable_by(|&a, &b| {
            self.relaxations[a]
                .coord(axis)
                .total_cmp(&self.relaxations[b].coord(axis))
                .then(a.cmp(&b))
        });
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

/// Computes the per-strategy relaxation vectors of a request.
fn compute_relaxations(request: &DeploymentRequest, strategies: &[Strategy]) -> Vec<Point3> {
    let d = &request.params;
    strategies
        .iter()
        .map(|s| relaxation_of(&s.params, d))
        .collect()
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
        let alternative = problem.apply_relaxation(relaxation);
        let mut strategy_indices = problem.covered_by(relaxation);
        strategy_indices.sort_unstable();
        Self {
            alternative,
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

    /// Renumbers `strategy_indices` through a catalog compaction's
    /// [`SlotRemap`](crate::catalog::SlotRemap): a solution computed before
    /// the compaction stays valid under the new dense numbering (the
    /// parameters, relaxation and distance are untouched — compaction never
    /// changes the live set). Returns `None` when any admitted slot was
    /// reclaimed, i.e. the solution predates a retirement and must be
    /// re-solved; the indices stay ascending because the renumbering is
    /// order-preserving.
    #[must_use]
    pub fn remap(&self, remap: &crate::catalog::SlotRemap) -> Option<Self> {
        let strategy_indices = remap.remap_slots(&self.strategy_indices)?;
        Some(Self {
            alternative: self.alternative,
            relaxation: self.relaxation,
            strategy_indices,
            distance: self.distance,
        })
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
    use crate::model::TaskType;

    fn problem_fixture() -> (DeploymentRequest, Vec<Strategy>) {
        let strategies = crate::examples_data::running_example_strategies();
        let request = crate::examples_data::running_example_requests()[1].clone(); // d2
        (request, strategies)
    }

    #[test]
    fn validation_catches_bad_instances() {
        let (request, strategies) = problem_fixture();
        assert!(AdparProblem::new(&request, &strategies, 3)
            .validate()
            .is_ok());
        assert!(matches!(
            AdparProblem::new(&request, &strategies, 0).validate(),
            Err(StratRecError::ZeroCardinality)
        ));
        assert!(matches!(
            AdparProblem::new(&request, &strategies, 9).validate(),
            Err(StratRecError::NotEnoughStrategies {
                available: 4,
                requested: 9
            })
        ));
    }

    #[test]
    fn relaxations_match_paper_step_1() {
        // For d2 = (0.8, 0.2, 0.28) the paper's step-1 relaxation values are
        // {0.3, 0.05, 0, 0} on one axis and {0.05, 0.13, 0.3, 0.38} on the
        // other (Table 3), with zero latency relaxations.
        let (request, strategies) = problem_fixture();
        let problem = AdparProblem::new(&request, &strategies, 3);
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
        let (request, strategies) = problem_fixture();
        let problem = AdparProblem::new(&request, &strategies, 3);
        let alt = problem.apply_relaxation(Point3::new(0.05, 0.38, 0.0));
        assert!((alt.quality - 0.75).abs() < 1e-9);
        assert!((alt.cost - 0.58).abs() < 1e-9);
        assert!((alt.latency - 0.28).abs() < 1e-9);
    }

    #[test]
    fn coverage_grows_with_relaxation() {
        let (request, strategies) = problem_fixture();
        let problem = AdparProblem::new(&request, &strategies, 3);
        assert!(problem.covered_by(Point3::origin()).is_empty());
        assert_eq!(problem.covered_by(Point3::new(0.0, 0.3, 0.0)), vec![2]);
        assert_eq!(
            problem.covered_by(Point3::new(0.05, 0.38, 0.0)),
            vec![1, 2, 3]
        );
        assert_eq!(
            problem.covered_by(Point3::new(1.0, 1.0, 1.0)).len(),
            strategies.len()
        );
    }

    #[test]
    fn solution_from_relaxation_is_consistent() {
        let (request, strategies) = problem_fixture();
        let problem = AdparProblem::new(&request, &strategies, 3);
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
    fn stale_epoch_pins_fail_validation_with_a_typed_error() {
        let strategies = crate::examples_data::running_example_strategies();
        let request = crate::examples_data::running_example_requests()[1].clone();
        let mut catalog = crate::catalog::StrategyCatalog::new(strategies.as_slice());
        catalog.insert(Strategy::from_params(
            9,
            DeploymentParameters::clamped(0.8, 0.3, 0.3),
        ));
        assert_eq!(catalog.epoch(), 1);

        // Fresh problems validate; re-pinning at the current epoch is a
        // no-op; re-pinning at an older epoch (a cache replaying state from
        // before the insert) surfaces the typed error through validate and
        // through every solver.
        let fresh = AdparProblem::with_catalog(&request, &catalog, 3);
        assert!(fresh.validate().is_ok());
        let repinned = AdparProblem::with_catalog(&request, &catalog, 3).pinned_at_epoch(1);
        assert!(repinned.validate().is_ok());
        let stale = AdparProblem::with_catalog(&request, &catalog, 3).pinned_at_epoch(0);
        assert_eq!(
            stale.validate(),
            Err(StratRecError::StaleCatalog {
                expected: 0,
                found: 1
            })
        );
        assert!(matches!(
            AdparExact.solve(&stale),
            Err(StratRecError::StaleCatalog { .. })
        ));
        // Plain-slice problems have no catalog to go stale against.
        let plain = AdparProblem::new(&request, &strategies, 3).pinned_at_epoch(42);
        assert!(plain.validate().is_ok());
    }

    #[test]
    fn solutions_remap_through_a_compaction() {
        let strategies = crate::examples_data::running_example_strategies();
        let request = crate::examples_data::running_example_requests()[1].clone();
        let mut catalog = crate::catalog::StrategyCatalog::new(strategies.as_slice());
        assert!(catalog.retire(0));
        let before = AdparExact
            .solve(&AdparProblem::with_catalog(&request, &catalog, 3))
            .unwrap();

        let remap = catalog.compact();
        let remapped = before.remap(&remap).unwrap();
        assert_eq!(remapped.alternative, before.alternative);
        assert_eq!(remapped.relaxation, before.relaxation);
        assert_eq!(remapped.distance, before.distance);
        assert_eq!(
            remapped.strategy_indices,
            remap.remap_slots(&before.strategy_indices).unwrap()
        );
        // The remapped solution is exactly the post-compaction solve.
        let after = AdparExact
            .solve(&AdparProblem::with_catalog(&request, &catalog, 3))
            .unwrap();
        assert_eq!(remapped, after);

        // A solution referencing a reclaimed slot cannot be remapped.
        let stale = AdparSolution {
            strategy_indices: vec![0, 1],
            ..before
        };
        assert!(stale.remap(&remap).is_none());
    }

    #[test]
    fn problems_can_be_built_over_arbitrary_requests() {
        let strategies = crate::examples_data::running_example_strategies();
        let request = DeploymentRequest::new(
            99,
            TaskType::PuzzleSolving,
            DeploymentParameters::clamped(1.0, 0.0, 0.0),
        );
        let problem = AdparProblem::new(&request, &strategies, 2);
        // Every strategy needs relaxation on every axis for this extreme request.
        assert!(problem
            .relaxations()
            .iter()
            .all(|r| r.x > 0.0 && r.y > 0.0 && r.z > 0.0));
    }
}
