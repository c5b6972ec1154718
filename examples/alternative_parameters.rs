//! ADPaR in isolation: when a requester's thresholds are too tight, compare
//! the alternative deployment parameters suggested by the exact sweep-line
//! solver and by the paper's two baselines.
//!
//! ```bash
//! cargo run --example alternative_parameters
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use stratrec::core::adpar::{AdparBaseline2, AdparBaseline3, AdparBruteForce};
use stratrec::core::model::{DeploymentParameters, DeploymentRequest, TaskType};
use stratrec::core::prelude::*;
use stratrec::workload::generate_strategies;
use stratrec::workload::scenario::ParameterDistribution;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let strategies = generate_strategies(30, ParameterDistribution::Uniform, &mut rng);
    // The four solvers share one indexed catalog (Baseline3 reuses its
    // R-tree instead of building one per solve).
    let catalog = StrategyCatalog::new(strategies.as_slice());

    // An over-ambitious request: near-expert quality at almost no cost.
    let request = DeploymentRequest::new(
        1,
        TaskType::TextSummarization,
        DeploymentParameters::clamped(0.95, 0.1, 0.2),
    );
    let k = 4;
    let problem = AdparProblem::with_catalog(&request, &catalog, k);

    println!(
        "Original request: quality >= {:.2}, cost <= {:.2}, latency <= {:.2} (satisfied by {} of {} strategies; k = {k})",
        request.params.quality,
        request.params.cost,
        request.params.latency,
        request.eligible_strategies(&strategies).len(),
        strategies.len(),
    );

    let solvers: Vec<(&str, Result<AdparSolution, StratRecError>)> = vec![
        ("ADPaR-Exact", AdparExact.solve(&problem)),
        ("ADPaRB (brute force)", AdparBruteForce.solve(&problem)),
        ("Baseline2", AdparBaseline2.solve(&problem)),
        ("Baseline3", AdparBaseline3.solve(&problem)),
    ];
    for (name, result) in solvers {
        match result {
            Ok(solution) => println!(
                "{name:<22} quality >= {:.3}, cost <= {:.3}, latency <= {:.3}  distance {:.4}  ({} strategies admitted)",
                solution.alternative.quality,
                solution.alternative.cost,
                solution.alternative.latency,
                solution.distance,
                solution.strategy_indices.len()
            ),
            Err(err) => println!("{name:<22} failed: {err}"),
        }
    }
}
