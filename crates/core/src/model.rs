//! Data model: deployment strategies, deployment requests and their
//! normalized quality / cost / latency parameters (paper §2.1).

use serde::{Deserialize, Serialize};
use stratrec_geometry::Point3;

use crate::error::StratRecError;

/// *Structure* dimension of a deployment strategy: how the workforce is
/// solicited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Structure {
    /// Workers complete the task one after another (`SEQ`).
    Sequential,
    /// Workers are solicited in parallel (`SIM`).
    Simultaneous,
}

/// *Organization* dimension: how workers are organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Organization {
    /// Each worker contributes independently (`IND`).
    Independent,
    /// Workers collaborate on a shared artefact (`COL`).
    Collaborative,
}

/// *Style* dimension: whether machines assist the crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Style {
    /// Crowd only (`CRO`).
    CrowdOnly,
    /// Crowd combined with machine algorithms, e.g. machine translation
    /// (`HYB`).
    Hybrid,
}

impl Structure {
    /// Short code used in strategy names (`SEQ` / `SIM`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Self::Sequential => "SEQ",
            Self::Simultaneous => "SIM",
        }
    }
}

impl Organization {
    /// Short code used in strategy names (`IND` / `COL`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Self::Independent => "IND",
            Self::Collaborative => "COL",
        }
    }
}

impl Style {
    /// Short code used in strategy names (`CRO` / `HYB`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Self::CrowdOnly => "CRO",
            Self::Hybrid => "HYB",
        }
    }
}

/// Collaborative task types considered by the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskType {
    /// Translating sentences between languages (English → Hindi in §5.1).
    SentenceTranslation,
    /// Writing a few sentences about a given topic.
    TextCreation,
    /// Summarizing a longer text.
    TextSummarization,
    /// Collaborative puzzle solving (mentioned in §2.1).
    PuzzleSolving,
}

impl TaskType {
    /// All task types, in a stable order.
    pub const ALL: [TaskType; 4] = [
        TaskType::SentenceTranslation,
        TaskType::TextCreation,
        TaskType::TextSummarization,
        TaskType::PuzzleSolving,
    ];

    /// A human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::SentenceTranslation => "sentence translation",
            Self::TextCreation => "text creation",
            Self::TextSummarization => "text summarization",
            Self::PuzzleSolving => "puzzle solving",
        }
    }
}

/// Identifier of a deployment strategy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct StrategyId(pub u64);

/// Identifier of a deployment request.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

/// Normalized deployment parameters.
///
/// All three values live in `[0, 1]` after the normalization described in
/// §2.1 / §4.1 of the paper:
///
/// * `quality` — for a *request* this is a **lower bound** on the crowd
///   contribution quality (fraction of domain-expert quality); for a
///   *strategy* it is the estimated achieved quality.
/// * `cost` — for a request an **upper bound** on spending (fraction of the
///   maximum budget); for a strategy the estimated spending.
/// * `latency` — for a request an **upper bound** on completion time
///   (fraction of the maximum horizon); for a strategy the estimated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeploymentParameters {
    /// Quality in `[0, 1]` (higher is better).
    pub quality: f64,
    /// Cost in `[0, 1]` (lower is better).
    pub cost: f64,
    /// Latency in `[0, 1]` (lower is better).
    pub latency: f64,
}

impl DeploymentParameters {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`StratRecError::ParameterOutOfRange`] if any value is not
    /// finite or falls outside `[0, 1]`.
    pub fn new(quality: f64, cost: f64, latency: f64) -> Result<Self, StratRecError> {
        for (name, value) in [("quality", quality), ("cost", cost), ("latency", latency)] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(StratRecError::ParameterOutOfRange {
                    parameter: name.to_owned(),
                    value,
                });
            }
        }
        Ok(Self {
            quality,
            cost,
            latency,
        })
    }

    /// Creates parameters clamping each value into `[0, 1]` (useful when the
    /// values come from noisy simulation output).
    #[must_use]
    pub fn clamped(quality: f64, cost: f64, latency: f64) -> Self {
        Self {
            quality: quality.clamp(0.0, 1.0),
            cost: cost.clamp(0.0, 1.0),
            latency: latency.clamp(0.0, 1.0),
        }
    }

    /// The point in the *normalized minimization space* used by ADPaR:
    /// quality is inverted (`1 − quality`) so that **smaller is better on
    /// every axis** and a request's parameters become component-wise upper
    /// bounds (paper §4.1).
    #[must_use]
    pub fn to_normalized_point(&self) -> Point3 {
        Point3::new(1.0 - self.quality, self.cost, self.latency)
    }

    /// Inverse of [`Self::to_normalized_point`].
    #[must_use]
    pub fn from_normalized_point(p: Point3) -> Self {
        Self::clamped(1.0 - p.x, p.y, p.z)
    }

    /// Euclidean (ℓ2) distance to another parameter triple — the ADPaR
    /// objective (Equation 3). The distance is identical whether computed in
    /// the original or the normalized space because the quality inversion is
    /// an isometry.
    #[must_use]
    pub fn distance(&self, other: &Self) -> f64 {
        self.to_normalized_point()
            .distance(&other.to_normalized_point())
    }

    /// Whether a strategy with these (estimated) parameters satisfies a
    /// request with parameters `request`:
    /// `quality ≥ request.quality ∧ cost ≤ request.cost ∧ latency ≤ request.latency`.
    #[must_use]
    pub fn satisfies(&self, request: &Self) -> bool {
        self.quality + SATISFIES_EPS >= request.quality
            && self.cost <= request.cost + SATISFIES_EPS
            && self.latency <= request.latency + SATISFIES_EPS
    }
}

/// Tolerance of [`DeploymentParameters::satisfies`] on every axis.
const SATISFIES_EPS: f64 = 1e-9;

impl Default for DeploymentParameters {
    fn default() -> Self {
        Self {
            quality: 0.0,
            cost: 1.0,
            latency: 1.0,
        }
    }
}

/// A deployment strategy: a choice of Structure, Organization and Style
/// together with its estimated parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Strategy {
    /// Unique identifier.
    pub id: StrategyId,
    /// Structure dimension.
    pub structure: Structure,
    /// Organization dimension.
    pub organization: Organization,
    /// Style dimension.
    pub style: Style,
    /// Estimated quality / cost / latency of deployments using this strategy.
    pub params: DeploymentParameters,
}

impl Strategy {
    /// Creates a strategy with explicit dimensions.
    #[must_use]
    pub fn new(
        id: u64,
        structure: Structure,
        organization: Organization,
        style: Style,
        params: DeploymentParameters,
    ) -> Self {
        Self {
            id: StrategyId(id),
            structure,
            organization,
            style,
            params,
        }
    }

    /// Creates a strategy identified only by its parameters, using the
    /// default `SIM-IND-CRO` dimensions. Synthetic experiments (paper §5.2)
    /// generate strategies this way, as anonymous points in parameter space.
    #[must_use]
    pub fn from_params(id: u64, params: DeploymentParameters) -> Self {
        Self::new(
            id,
            Structure::Simultaneous,
            Organization::Independent,
            Style::CrowdOnly,
            params,
        )
    }

    /// The canonical `STRUCTURE-ORG-STYLE` name, e.g. `SEQ-IND-CRO`.
    #[must_use]
    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}",
            self.structure.code(),
            self.organization.code(),
            self.style.code()
        )
    }

    /// Whether this strategy satisfies the thresholds of `request`.
    #[must_use]
    pub fn satisfies(&self, request: &DeploymentRequest) -> bool {
        self.params.satisfies(&request.params)
    }

    /// The strategy as a point in the normalized minimization space.
    #[must_use]
    pub fn to_normalized_point(&self) -> Point3 {
        self.params.to_normalized_point()
    }
}

/// All eight Structure × Organization × Style combinations, in a stable
/// order. The paper notes the full strategy space is much larger (workflows
/// compose these combinations); these eight are the atomic building blocks.
#[must_use]
pub fn all_dimension_combinations() -> Vec<(Structure, Organization, Style)> {
    let mut combos = Vec::with_capacity(8);
    for structure in [Structure::Sequential, Structure::Simultaneous] {
        for organization in [Organization::Independent, Organization::Collaborative] {
            for style in [Style::CrowdOnly, Style::Hybrid] {
                combos.push((structure, organization, style));
            }
        }
    }
    combos
}

/// A deployment request submitted by a requester: the task type, the desired
/// parameters and the pay-off the platform earns by satisfying it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentRequest {
    /// Unique identifier.
    pub id: RequestId,
    /// Type of collaborative task being deployed.
    pub task_type: TaskType,
    /// Desired quality lower bound and cost / latency upper bounds.
    pub params: DeploymentParameters,
}

impl DeploymentRequest {
    /// Creates a request.
    #[must_use]
    pub fn new(id: u64, task_type: TaskType, params: DeploymentParameters) -> Self {
        Self {
            id: RequestId(id),
            task_type,
            params,
        }
    }

    /// The pay-off the platform collects when this request is satisfied. The
    /// paper uses the requester's cost budget (`d.cost`) as the pay-off
    /// (§2.3, pay-off maximization).
    #[must_use]
    pub fn payoff(&self) -> f64 {
        self.params.cost
    }

    /// The request as a point in the normalized minimization space (its
    /// parameters act as component-wise upper bounds there).
    #[must_use]
    pub fn to_normalized_point(&self) -> Point3 {
        self.params.to_normalized_point()
    }

    /// Indices of the strategies in `strategies` that satisfy this request,
    /// in input order.
    #[must_use]
    pub fn eligible_strategies(&self, strategies: &[Strategy]) -> Vec<usize> {
        strategies
            .iter()
            .enumerate()
            .filter(|(_, s)| s.satisfies(self))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(q: f64, c: f64, l: f64) -> DeploymentParameters {
        DeploymentParameters::new(q, c, l).unwrap()
    }

    #[test]
    fn parameters_validate_range() {
        assert!(DeploymentParameters::new(0.5, 0.5, 0.5).is_ok());
        for (input, expected) in [
            (DeploymentParameters::new(1.5, 0.5, 0.5), "quality"),
            (DeploymentParameters::new(0.5, -0.1, 0.5), "cost"),
            (DeploymentParameters::new(0.5, 0.5, f64::NAN), "latency"),
        ] {
            match input {
                Err(StratRecError::ParameterOutOfRange { parameter, .. }) => {
                    assert_eq!(parameter, expected);
                }
                other => panic!("expected out-of-range error, got {other:?}"),
            }
        }
    }

    #[test]
    fn clamped_constructor_clamps() {
        let p = DeploymentParameters::clamped(1.4, -0.3, 0.5);
        assert_eq!(p.quality, 1.0);
        assert_eq!(p.cost, 0.0);
        assert_eq!(p.latency, 0.5);
    }

    #[test]
    fn normalization_inverts_quality_and_round_trips() {
        let p = params(0.8, 0.2, 0.28);
        let point = p.to_normalized_point();
        assert!((point.x - 0.2).abs() < 1e-12);
        assert!((point.y - 0.2).abs() < 1e-12);
        assert!((point.z - 0.28).abs() < 1e-12);
        let back = DeploymentParameters::from_normalized_point(point);
        assert!((back.quality - p.quality).abs() < 1e-12);
        assert!((back.cost - p.cost).abs() < 1e-12);
        assert!((back.latency - p.latency).abs() < 1e-12);
    }

    #[test]
    fn satisfies_matches_paper_running_example() {
        // d3 = (0.7, 0.83, 0.28) is satisfied by s2, s3, s4 but not s1.
        let d3 = params(0.7, 0.83, 0.28);
        let s1 = params(0.5, 0.25, 0.28);
        let s2 = params(0.75, 0.33, 0.28);
        let s3 = params(0.8, 0.5, 0.14);
        let s4 = params(0.88, 0.58, 0.14);
        assert!(!s1.satisfies(&d3));
        assert!(s2.satisfies(&d3));
        assert!(s3.satisfies(&d3));
        assert!(s4.satisfies(&d3));
    }

    #[test]
    fn distance_is_invariant_under_quality_inversion() {
        let a = params(0.4, 0.17, 0.28);
        let b = params(0.4, 0.5, 0.28);
        assert!((a.distance(&b) - 0.33).abs() < 1e-9);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn strategy_names_follow_paper_notation() {
        let s = Strategy::new(
            1,
            Structure::Sequential,
            Organization::Independent,
            Style::CrowdOnly,
            params(0.5, 0.25, 0.28),
        );
        assert_eq!(s.name(), "SEQ-IND-CRO");
        let s = Strategy::new(
            2,
            Structure::Simultaneous,
            Organization::Collaborative,
            Style::Hybrid,
            params(0.5, 0.25, 0.28),
        );
        assert_eq!(s.name(), "SIM-COL-HYB");
    }

    #[test]
    fn eight_dimension_combinations_exist_and_are_distinct() {
        let combos = all_dimension_combinations();
        assert_eq!(combos.len(), 8);
        let names: std::collections::HashSet<String> = combos
            .iter()
            .map(|&(st, o, sy)| format!("{}-{}-{}", st.code(), o.code(), sy.code()))
            .collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn request_eligibility_and_payoff() {
        let strategies = crate::examples_data::running_example_strategies();
        let requests = crate::examples_data::running_example_requests();
        // d1 and d2 have no eligible strategies; d3 has three.
        assert!(requests[0].eligible_strategies(&strategies).is_empty());
        assert!(requests[1].eligible_strategies(&strategies).is_empty());
        assert_eq!(requests[2].eligible_strategies(&strategies), vec![1, 2, 3]);
        assert!((requests[2].payoff() - 0.83).abs() < 1e-12);
    }

    #[test]
    fn task_type_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            TaskType::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), TaskType::ALL.len());
    }

    #[test]
    fn default_parameters_are_the_loosest_request() {
        let loosest = DeploymentParameters::default();
        let any = params(0.9, 0.1, 0.1);
        assert!(any.satisfies(&loosest));
    }
}
