//! Step-by-step trace of `ADPaR-Exact` on a problem instance.
//!
//! The paper illustrates the algorithm on the running example with four
//! tables: the per-strategy relaxation values (Table 3), the sorted
//! relaxation list `R` with its index array `I` and parameter array `D`
//! (Table 4), the three per-axis sweep-lines (Table 5) and the coverage
//! matrix `M` (Table 2). [`AdparTrace`] reproduces those artefacts so the
//! `running_example` binary can print them and tests can pin them down.

use serde::{Deserialize, Serialize};
use stratrec_geometry::{Axis, Point3, SweepEvent, SweepList};

use crate::adpar::{AdparExact, AdparProblem, AdparSolution, AdparSolver};
use crate::error::StratRecError;

/// Which deployment parameter an event refers to, in the paper's notation
/// (`Q`, `C`, `L`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceParameter {
    /// Quality.
    Q,
    /// Cost.
    C,
    /// Latency.
    L,
}

impl TraceParameter {
    fn from_axis(axis: Axis) -> Self {
        match axis {
            Axis::X => Self::Q,
            Axis::Y => Self::C,
            Axis::Z => Self::L,
        }
    }

    /// The single-letter label used in the paper's Table 4.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Q => "Q",
            Self::C => "C",
            Self::L => "L",
        }
    }
}

/// One entry of the sorted relaxation list (`R[j]`, `I[j]`, `D[j]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Relaxation value `R[j]`.
    pub relaxation: f64,
    /// Strategy index `I[j]` (0-based).
    pub strategy: usize,
    /// Parameter `D[j]`.
    pub parameter: TraceParameter,
}

/// The coverage matrix `M`: for each strategy, whether each of its three
/// parameters is already covered by the alternative parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageMatrix {
    /// `covered[s] = [quality, cost, latency]` flags for strategy `s`.
    pub covered: Vec<[bool; 3]>,
}

impl CoverageMatrix {
    /// Number of strategies whose three parameters are all covered.
    #[must_use]
    pub fn fully_covered(&self) -> usize {
        self.covered.iter().filter(|c| c.iter().all(|&b| b)).count()
    }
}

/// The full trace of one ADPaR-Exact run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdparTrace {
    /// Step 1: per-strategy relaxation vectors (quality, cost, latency).
    pub relaxations: Vec<Point3>,
    /// Step 2: the sorted `R` / `I` / `D` arrays.
    pub sorted_events: Vec<TraceEvent>,
    /// Step 3: per-axis sweep orders — for each axis, the live strategy
    /// indices in the order the solver walks them
    /// ([`AdparProblem::axis_order_into`]): ascending relaxation, ties in the
    /// catalog's coordinate order.
    pub sweep_orders: [Vec<usize>; 3],
    /// The coverage matrix `M` evaluated at the final alternative parameters.
    pub final_coverage: CoverageMatrix,
    /// The solution returned by `ADPaR-Exact`.
    pub solution: AdparSolution,
}

impl AdparTrace {
    /// Runs `ADPaR-Exact` on `problem` while recording the paper's
    /// intermediate artefacts.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`AdparExact::solve`].
    pub fn compute(problem: &AdparProblem<'_>) -> Result<Self, StratRecError> {
        let solution = AdparExact.solve(problem)?;
        let relaxations = problem.relaxations().to_vec();

        let sweep = SweepList::all_axes(&relaxations);
        let sorted_events = sweep
            .events()
            .iter()
            .map(|&SweepEvent { value, item, axis }| TraceEvent {
                relaxation: value,
                strategy: item,
                parameter: TraceParameter::from_axis(axis),
            })
            .collect();

        let sweep_orders = Axis::ALL.map(|axis| {
            let mut order = Vec::new();
            problem.axis_order_into(axis, &mut order);
            order
        });

        let final_coverage = CoverageMatrix {
            covered: relaxations
                .iter()
                .map(|r| {
                    [
                        r.x <= solution.relaxation.x + 1e-9,
                        r.y <= solution.relaxation.y + 1e-9,
                        r.z <= solution.relaxation.z + 1e-9,
                    ]
                })
                .collect(),
        };

        Ok(Self {
            relaxations,
            sorted_events,
            sweep_orders,
            final_coverage,
            solution,
        })
    }

    /// Renders the trace as the four plain-text tables of the paper.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "Step 1 — relaxation values (quality, cost, latency):");
        for (i, r) in self.relaxations.iter().enumerate() {
            let _ = writeln!(out, "  s{}: ({:.3}, {:.3}, {:.3})", i + 1, r.x, r.y, r.z);
        }
        let _ = writeln!(out, "Step 2 — sorted relaxation list R / I / D:");
        for e in &self.sorted_events {
            let _ = writeln!(
                out,
                "  R={:.3}  I=s{}  D={}",
                e.relaxation,
                e.strategy + 1,
                e.parameter.label()
            );
        }
        let _ = writeln!(out, "Step 3 — sweep-line orders (ascending relaxation):");
        for (axis, order) in ["Q", "C", "L"].iter().zip(&self.sweep_orders) {
            let order: Vec<String> = order.iter().map(|i| format!("s{}", i + 1)).collect();
            let _ = writeln!(out, "  sweep-line({axis}): {}", order.join(" "));
        }
        let _ = writeln!(
            out,
            "Final coverage matrix M ({} strategies fully covered):",
            self.final_coverage.fully_covered()
        );
        for (i, row) in self.final_coverage.covered.iter().enumerate() {
            let _ = writeln!(
                out,
                "  s{}: Q={} C={} L={}",
                i + 1,
                u8::from(row[0]),
                u8::from(row[1]),
                u8::from(row[2])
            );
        }
        let alt = &self.solution.alternative;
        let _ = writeln!(
            out,
            "Alternative d' = (quality {:.3}, cost {:.3}, latency {:.3}), distance {:.4}",
            alt.quality, alt.cost, alt.latency, self.solution.distance
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adpar::tests::running_example_catalog;

    fn d2_trace() -> AdparTrace {
        let catalog = running_example_catalog();
        let requests = crate::examples_data::running_example_requests();
        let problem = AdparProblem::with_catalog(&requests[1], &catalog, 3);
        AdparTrace::compute(&problem).unwrap()
    }

    #[test]
    fn step_1_matches_table_3() {
        let trace = d2_trace();
        let quality: Vec<f64> = trace
            .relaxations
            .iter()
            .map(|r| (r.x * 100.0).round() / 100.0)
            .collect();
        let cost: Vec<f64> = trace
            .relaxations
            .iter()
            .map(|r| (r.y * 100.0).round() / 100.0)
            .collect();
        assert_eq!(quality, vec![0.3, 0.05, 0.0, 0.0]);
        assert_eq!(cost, vec![0.05, 0.13, 0.3, 0.38]);
        assert!(trace.relaxations.iter().all(|r| r.z == 0.0));
    }

    #[test]
    fn step_2_is_sorted_with_12_events() {
        let trace = d2_trace();
        assert_eq!(trace.sorted_events.len(), 12);
        for pair in trace.sorted_events.windows(2) {
            assert!(pair[0].relaxation <= pair[1].relaxation + 1e-12);
        }
        // The six zero-relaxation events come first (Table 4, top row).
        assert!(trace.sorted_events[..6]
            .iter()
            .all(|e| e.relaxation.abs() < 1e-12));
    }

    #[test]
    fn sweep_orders_sort_each_axis() {
        let trace = d2_trace();
        // Quality axis ascending: s4, s3 (0; s4's quality 0.88 beats s3's
        // 0.8 in the catalog's coordinate order), then s2 (0.05), then s1
        // (0.3).
        assert_eq!(trace.sweep_orders[0], vec![3, 2, 1, 0]);
        // Cost axis ascending: s1, s2, s3, s4.
        assert_eq!(trace.sweep_orders[1], vec![0, 1, 2, 3]);
        // Latency: every relaxation is 0, so the catalog's latency order
        // decides: s3, s4 (0.14) before s1, s2 (0.28).
        assert_eq!(trace.sweep_orders[2], vec![2, 3, 0, 1]);
    }

    #[test]
    fn final_coverage_has_at_least_k_strategies() {
        let trace = d2_trace();
        assert!(trace.final_coverage.fully_covered() >= 3);
        assert_eq!(trace.final_coverage.covered.len(), 4);
    }

    #[test]
    fn render_mentions_every_step() {
        let text = d2_trace().render();
        assert!(text.contains("Step 1"));
        assert!(text.contains("Step 2"));
        assert!(text.contains("Step 3"));
        assert!(text.contains("Alternative d'"));
        assert!(text.contains("sweep-line(Q)"));
    }
}
