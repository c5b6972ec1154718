//! Deployment-strategy modeling (paper §3.1).
//!
//! For every (strategy, parameter) pair the paper models the achieved
//! parameter as a **linear function of worker availability**,
//! `param = α·w + β` (Equation 4), with `(α, β)` fitted from historical
//! deployments. Its real-data experiments validate this linearity with 90 %
//! significance for two text-editing task types (Table 6): quality and cost
//! increase with availability, latency decreases.
//!
//! This module provides:
//!
//! * [`LinearModel`] — one `α·w + β` line, with forward estimation and the
//!   inversion that turns a deployment threshold into a minimum workforce
//!   requirement (the key primitive of §3.2).
//! * [`StrategyModel`] — the three lines (quality, cost, latency) of one
//!   strategy, plus fitting from observation data.
//! * [`ModelLibrary`] — the per-strategy model collection the Aggregator
//!   consults when a batch of requests arrives.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use stratrec_optim::regression::{fit_linear, LinearFit};

use crate::availability::WorkerAvailability;
use crate::error::StratRecError;
use crate::model::{DeploymentParameters, Strategy, StrategyId};

/// Which of the three deployment parameters a model refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParameterKind {
    /// Crowd-contribution quality (a lower bound in requests).
    Quality,
    /// Monetary cost (an upper bound in requests).
    Cost,
    /// Completion latency (an upper bound in requests).
    Latency,
}

impl ParameterKind {
    /// All three parameter kinds, in the paper's (quality, cost, latency)
    /// order.
    pub const ALL: [ParameterKind; 3] = [
        ParameterKind::Quality,
        ParameterKind::Cost,
        ParameterKind::Latency,
    ];

    /// Whether a request treats this parameter as a lower bound (quality) or
    /// an upper bound (cost, latency).
    #[must_use]
    pub fn is_lower_bound(self) -> bool {
        matches!(self, ParameterKind::Quality)
    }

    /// Extracts this parameter from a [`DeploymentParameters`] triple.
    #[must_use]
    pub fn of(self, params: &DeploymentParameters) -> f64 {
        match self {
            ParameterKind::Quality => params.quality,
            ParameterKind::Cost => params.cost,
            ParameterKind::Latency => params.latency,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ParameterKind::Quality => "quality",
            ParameterKind::Cost => "cost",
            ParameterKind::Latency => "latency",
        }
    }
}

/// The linear model `param = α · w + β` of Equation 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Slope `α` with respect to worker availability.
    pub alpha: f64,
    /// Intercept `β` (the parameter value with no available workers).
    pub beta: f64,
}

impl LinearModel {
    /// Creates a model from its coefficients.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        Self { alpha, beta }
    }

    /// Estimates the parameter value at availability `w`, clamped to `[0, 1]`
    /// because all parameters are normalized.
    #[must_use]
    pub fn estimate(&self, w: WorkerAvailability) -> f64 {
        (self.alpha * w.value() + self.beta).clamp(0.0, 1.0)
    }

    /// Estimates the parameter value at a raw availability fraction without
    /// clamping; used for curve plotting and fitting diagnostics.
    #[must_use]
    pub fn estimate_unclamped(&self, w: f64) -> f64 {
        self.alpha * w + self.beta
    }

    /// The minimum workforce `w ∈ [0, 1]` needed for the modeled parameter to
    /// meet `threshold`, taking the bound direction into account:
    ///
    /// * lower-bound parameters (quality) must reach **at least** the
    ///   threshold;
    /// * upper-bound parameters (cost, latency) must stay **at most** at the
    ///   threshold.
    ///
    /// Returns `f64::INFINITY` when no workforce in `[0, 1]` can meet the
    /// threshold (the strategy is infeasible for that request), and `0.0`
    /// when the threshold is already met with no workers. This is the
    /// "solving Equation 4 for w" step of §3.2.
    #[must_use]
    pub fn required_workforce(&self, threshold: f64, kind: ParameterKind) -> f64 {
        let satisfied_at = |w: f64| -> bool {
            let value = self.estimate_unclamped(w);
            if kind.is_lower_bound() {
                value + 1e-12 >= threshold
            } else {
                value <= threshold + 1e-12
            }
        };
        if satisfied_at(0.0) {
            return 0.0;
        }
        // Not satisfied at w = 0; a finite requirement exists only if the
        // line moves towards the threshold as w grows.
        if self.alpha.abs() <= 1e-12 {
            return f64::INFINITY;
        }
        let w = (threshold - self.beta) / self.alpha;
        if !w.is_finite() || !(0.0..=1.0 + 1e-9).contains(&w) || !satisfied_at(w.min(1.0)) {
            f64::INFINITY
        } else {
            w.clamp(0.0, 1.0)
        }
    }
}

/// The three fitted lines of one deployment strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyModel {
    /// Quality as a function of availability.
    pub quality: LinearModel,
    /// Cost as a function of availability.
    pub cost: LinearModel,
    /// Latency as a function of availability.
    pub latency: LinearModel,
}

impl StrategyModel {
    /// Creates a model from three lines.
    #[must_use]
    pub fn new(quality: LinearModel, cost: LinearModel, latency: LinearModel) -> Self {
        Self {
            quality,
            cost,
            latency,
        }
    }

    /// A model where all three parameters share the same line. The synthetic
    /// experiments of §5.2 generate one `(α, β = 1 − α)` pair per strategy,
    /// which corresponds to this constructor.
    #[must_use]
    pub fn uniform(alpha: f64, beta: f64) -> Self {
        let line = LinearModel::new(alpha, beta);
        // Latency decreases with availability in the paper's fits; the
        // uniform synthetic model keeps all three identical, matching §5.2.2.
        Self::new(line, line, line)
    }

    /// The line for a given parameter kind.
    #[must_use]
    pub fn line(&self, kind: ParameterKind) -> LinearModel {
        match kind {
            ParameterKind::Quality => self.quality,
            ParameterKind::Cost => self.cost,
            ParameterKind::Latency => self.latency,
        }
    }

    /// Estimated parameters of the strategy at availability `w`.
    #[must_use]
    pub fn estimate_parameters(&self, w: WorkerAvailability) -> DeploymentParameters {
        DeploymentParameters::clamped(
            self.quality.estimate(w),
            self.cost.estimate(w),
            self.latency.estimate(w),
        )
    }

    /// The minimum workforce needed for the strategy to satisfy *all three*
    /// thresholds of `request` — the maximum of the three per-parameter
    /// requirements (paper §3.2, the `max` in the definition of `w_ij`).
    #[must_use]
    pub fn required_workforce(&self, request: &DeploymentParameters) -> f64 {
        ParameterKind::ALL
            .iter()
            .map(|&kind| self.line(kind).required_workforce(kind.of(request), kind))
            .fold(0.0_f64, f64::max)
    }

    /// Fits a strategy model from `(availability, observed parameters)`
    /// pairs, e.g. the outcome of repeated deployments of the same strategy
    /// at different availability levels (how Table 6 is produced).
    ///
    /// Returns `None` when any of the three regressions is degenerate (fewer
    /// than two points or constant availability).
    #[must_use]
    pub fn fit(observations: &[(f64, DeploymentParameters)]) -> Option<Self> {
        let fits = Self::fit_with_diagnostics(observations)?;
        Some(Self::new(
            LinearModel::new(fits[0].slope, fits[0].intercept),
            LinearModel::new(fits[1].slope, fits[1].intercept),
            LinearModel::new(fits[2].slope, fits[2].intercept),
        ))
    }

    /// Like [`Self::fit`] but returns the full regression diagnostics
    /// (standard errors, R², confidence intervals) for the quality, cost and
    /// latency fits, in that order.
    #[must_use]
    pub fn fit_with_diagnostics(
        observations: &[(f64, DeploymentParameters)],
    ) -> Option<[LinearFit; 3]> {
        let xs: Vec<f64> = observations.iter().map(|(w, _)| *w).collect();
        let quality: Vec<f64> = observations.iter().map(|(_, p)| p.quality).collect();
        let cost: Vec<f64> = observations.iter().map(|(_, p)| p.cost).collect();
        let latency: Vec<f64> = observations.iter().map(|(_, p)| p.latency).collect();
        Some([
            fit_linear(&xs, &quality)?,
            fit_linear(&xs, &cost)?,
            fit_linear(&xs, &latency)?,
        ])
    }
}

/// Hashes the `u64` strategy ids keying a [`ModelLibrary`] with one
/// multiply (Fibonacci hashing), folding the high half into the low bits the
/// table indexes with. Ids are assigned by the platform, not by requesters,
/// so a keyed SipHash buys no protection here, and the Aggregator looks up
/// one model per live strategy on every batch.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let product = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }
}

/// A collection of fitted strategy models, keyed by strategy id.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelLibrary {
    models: HashMap<u64, StrategyModel, BuildHasherDefault<IdHasher>>,
}

impl ModelLibrary {
    /// An empty library.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the model of a strategy.
    pub fn insert(&mut self, id: StrategyId, model: StrategyModel) {
        self.models.insert(id.0, model);
    }

    /// Looks up the model of a strategy.
    #[must_use]
    pub fn get(&self, id: StrategyId) -> Option<&StrategyModel> {
        self.models.get(&id.0)
    }

    /// Looks up a model or returns [`StratRecError::MissingModel`].
    ///
    /// # Errors
    ///
    /// Returns an error when no model was fitted for `id`.
    pub fn require(&self, id: StrategyId) -> Result<&StrategyModel, StratRecError> {
        self.get(id)
            .ok_or(StratRecError::MissingModel { strategy: id.0 })
    }

    /// Number of models in the library.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Builds a library that assigns the *same* model to every strategy in
    /// `strategies`.
    #[must_use]
    pub fn uniform_for(strategies: &[Strategy], model: StrategyModel) -> Self {
        let mut lib = Self::new();
        for s in strategies {
            lib.insert(s.id, model);
        }
        lib
    }

    /// Builds a library from parallel slices of strategies and models.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (StrategyId, StrategyModel)>) -> Self {
        let mut lib = Self::new();
        for (id, model) in pairs {
            lib.insert(id, model);
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail(w: f64) -> WorkerAvailability {
        WorkerAvailability::new(w).unwrap()
    }

    #[test]
    fn estimation_follows_the_line_and_clamps() {
        // Translation SEQ-IND-CRO quality from Table 6: α = 0.09, β = 0.85.
        let m = LinearModel::new(0.09, 0.85);
        assert!((m.estimate(avail(0.0)) - 0.85).abs() < 1e-12);
        assert!((m.estimate(avail(1.0)) - 0.94).abs() < 1e-12);
        // Latency model with a large intercept clamps at 1.
        let l = LinearModel::new(-0.98, 1.40);
        assert_eq!(l.estimate(avail(0.0)), 1.0);
        assert!((l.estimate(avail(1.0)) - 0.42).abs() < 1e-12);
        assert!((l.estimate_unclamped(0.0) - 1.40).abs() < 1e-12);
    }

    #[test]
    fn required_workforce_for_lower_bound_quality() {
        let m = LinearModel::new(0.5, 0.5); // quality from 0.5 to 1.0
        assert_eq!(m.required_workforce(0.4, ParameterKind::Quality), 0.0);
        assert!((m.required_workforce(0.75, ParameterKind::Quality) - 0.5).abs() < 1e-12);
        assert!((m.required_workforce(1.0, ParameterKind::Quality) - 1.0).abs() < 1e-12);
        // Unreachable threshold above the line's maximum.
        let m = LinearModel::new(0.2, 0.5);
        assert!(m
            .required_workforce(0.9, ParameterKind::Quality)
            .is_infinite());
    }

    #[test]
    fn required_workforce_for_upper_bound_latency() {
        // Latency decreases with availability: α < 0.
        let m = LinearModel::new(-0.98, 1.40);
        // Threshold 0.5 requires (0.5 - 1.40) / -0.98 ≈ 0.918.
        let w = m.required_workforce(0.5, ParameterKind::Latency);
        assert!((w - 0.9183673469).abs() < 1e-6);
        // Threshold 1.5 is already met at w = 0.
        assert_eq!(m.required_workforce(1.5, ParameterKind::Latency), 0.0);
        // Threshold 0.1 is unreachable even at w = 1 (latency 0.42).
        assert!(m
            .required_workforce(0.1, ParameterKind::Latency)
            .is_infinite());
    }

    #[test]
    fn required_workforce_for_increasing_cost_is_zero_or_infinite() {
        // Cost grows with availability (α = 1, β = 0): any cost budget is met
        // at w = 0 (zero cost), so the requirement is 0.
        let m = LinearModel::new(1.0, 0.0);
        assert_eq!(m.required_workforce(0.3, ParameterKind::Cost), 0.0);
        // A cost line that starts above the budget and only grows can never
        // meet it.
        let m = LinearModel::new(0.5, 0.6);
        assert!(m.required_workforce(0.3, ParameterKind::Cost).is_infinite());
    }

    #[test]
    fn flat_line_requirements() {
        let flat = LinearModel::new(0.0, 0.7);
        assert_eq!(flat.required_workforce(0.6, ParameterKind::Quality), 0.0);
        assert!(flat
            .required_workforce(0.8, ParameterKind::Quality)
            .is_infinite());
        assert_eq!(flat.required_workforce(0.8, ParameterKind::Cost), 0.0);
        assert!(flat
            .required_workforce(0.6, ParameterKind::Cost)
            .is_infinite());
    }

    #[test]
    fn strategy_model_takes_max_over_parameters() {
        let model = StrategyModel::new(
            LinearModel::new(0.5, 0.5),   // quality: needs w = 0.6 for 0.8
            LinearModel::new(1.0, 0.0),   // cost: always satisfiable at w = 0
            LinearModel::new(-0.5, 0.75), // latency: needs w = 0.5 for 0.5
        );
        let request = DeploymentParameters::new(0.8, 0.9, 0.5).unwrap();
        let w = model.required_workforce(&request);
        assert!((w - 0.6).abs() < 1e-12);
    }

    #[test]
    fn synthetic_uniform_model_matches_section_5_2() {
        // α ∈ [0.5, 1], β = 1 − α: requirement for a threshold d is
        // (d − β) / α, within [0, 1] for d ∈ [0.625, 1].
        let model = StrategyModel::uniform(0.8, 0.2);
        let request = DeploymentParameters::new(0.8, 1.0, 1.0).unwrap();
        let w = model.required_workforce(&request);
        assert!((w - 0.75).abs() < 1e-12);
    }

    #[test]
    fn estimate_parameters_combines_the_three_lines() {
        let model = StrategyModel::new(
            LinearModel::new(0.09, 0.85),
            LinearModel::new(1.0, 0.0),
            LinearModel::new(-0.98, 1.40),
        );
        let p = model.estimate_parameters(avail(0.8));
        assert!((p.quality - 0.922).abs() < 1e-9);
        assert!((p.cost - 0.8).abs() < 1e-9);
        assert!((p.latency - 0.616).abs() < 1e-9);
    }

    #[test]
    fn fitting_recovers_generating_model() {
        // Coefficients chosen so every observation stays inside [0, 1] over
        // the sampled availability range; otherwise the clamping in
        // `DeploymentParameters` would bias the regression.
        let truth = StrategyModel::new(
            LinearModel::new(0.10, 0.80),
            LinearModel::new(0.80, 0.10),
            LinearModel::new(-0.60, 0.90),
        );
        let observations: Vec<(f64, DeploymentParameters)> = (0..12)
            .map(|i| {
                let w = 0.4 + 0.05 * i as f64;
                (
                    w,
                    DeploymentParameters::clamped(
                        truth.quality.estimate_unclamped(w),
                        truth.cost.estimate_unclamped(w),
                        truth.latency.estimate_unclamped(w),
                    ),
                )
            })
            .collect();
        let fitted = StrategyModel::fit(&observations).unwrap();
        assert!((fitted.quality.alpha - 0.10).abs() < 1e-6);
        assert!((fitted.cost.alpha - 0.80).abs() < 1e-6);
        assert!((fitted.latency.alpha + 0.60).abs() < 1e-6);
        let diags = StrategyModel::fit_with_diagnostics(&observations).unwrap();
        assert!(diags[0].r_squared > 0.99);
    }

    #[test]
    fn fit_rejects_degenerate_observations() {
        assert!(StrategyModel::fit(&[]).is_none());
        let constant = vec![
            (0.5, DeploymentParameters::clamped(0.7, 0.3, 0.4)),
            (0.5, DeploymentParameters::clamped(0.8, 0.2, 0.5)),
        ];
        assert!(StrategyModel::fit(&constant).is_none());
    }

    #[test]
    fn model_library_lookup_and_errors() {
        let strategies = crate::examples_data::running_example_strategies();
        let lib = ModelLibrary::uniform_for(&strategies, StrategyModel::uniform(0.8, 0.2));
        assert_eq!(lib.len(), strategies.len());
        assert!(!lib.is_empty());
        assert!(lib.get(strategies[0].id).is_some());
        assert!(lib.require(strategies[0].id).is_ok());
        assert!(matches!(
            lib.require(StrategyId(999)),
            Err(StratRecError::MissingModel { strategy: 999 })
        ));
        let lib2 =
            ModelLibrary::from_pairs(vec![(StrategyId(1), StrategyModel::uniform(0.6, 0.4))]);
        assert_eq!(lib2.len(), 1);
        assert!(ModelLibrary::new().is_empty());
    }

    #[test]
    fn model_library_finds_strided_and_sparse_ids() {
        // Ids that share their low bits must still land in distinct
        // buckets and be found.
        let ids: Vec<u64> = (0..2_000_u64)
            .map(|i| i << 20)
            .chain((0..2_000).map(|i| i * 7 + 3))
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        let model_for = |id: u64| StrategyModel::uniform((id % 97) as f64 / 100.0, 0.1);
        let lib = ModelLibrary::from_pairs(ids.iter().map(|&id| (StrategyId(id), model_for(id))));
        assert_eq!(lib.len(), ids.len());
        for &id in &ids {
            assert_eq!(lib.get(StrategyId(id)), Some(&model_for(id)), "id {id}");
        }
        assert!(lib.get(StrategyId(1 << 19)).is_none());
    }

    #[test]
    fn parameter_kind_helpers() {
        let p = DeploymentParameters::new(0.7, 0.2, 0.3).unwrap();
        assert_eq!(ParameterKind::Quality.of(&p), 0.7);
        assert_eq!(ParameterKind::Cost.of(&p), 0.2);
        assert_eq!(ParameterKind::Latency.of(&p), 0.3);
        assert!(ParameterKind::Quality.is_lower_bound());
        assert!(!ParameterKind::Cost.is_lower_bound());
        assert_eq!(ParameterKind::Latency.label(), "latency");
    }
}
