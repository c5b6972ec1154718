//! Platform-side view: a crowdsourcing platform receives a batch of
//! deployment requests and must decide which ones to serve with its limited
//! worker pool, maximizing pay-off (the paper's Problem 1).
//!
//! ```bash
//! cargo run --example batch_triage
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use stratrec::core::batch::{BatchAlgorithm, BatchObjective, BatchStrat};
use stratrec::core::prelude::*;
use stratrec::workload::scenario::ParameterDistribution;
use stratrec::workload::{generate_models, generate_requests, generate_strategies};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    // The platform advertises 500 strategies (think: workflow templates) and
    // receives 25 deployment requests while only 60 % of the suitable
    // workforce is expected to be online.
    let strategies = generate_strategies(500, ParameterDistribution::Normal, &mut rng);
    let models = generate_models(&strategies, &mut rng);
    let requests = generate_requests(25, &mut rng);
    let availability = WorkerAvailability::new(0.6).expect("in range");
    let k = 5;

    // Normalize and index the strategy set once; every triage below shares
    // the same catalog.
    let catalog = StrategyCatalog::new(strategies.as_slice());

    for (label, algorithm) in [
        ("BatchStrat (1/2-approx)", BatchAlgorithm::BatchStrat),
        ("BaselineG (plain greedy)", BatchAlgorithm::BaselineG),
    ] {
        let engine =
            BatchStrat::new(BatchObjective::Payoff, AggregationMode::Sum).with_algorithm(algorithm);
        let outcome = engine
            .recommend_with_catalog(&requests, &catalog, &models, k, availability)
            .expect("models cover every strategy");
        println!(
            "{label}: satisfied {}/{} requests, pay-off {:.2}, workforce used {:.2}/{:.2}",
            outcome.satisfied.len(),
            requests.len(),
            outcome.objective_value,
            outcome.workforce_used,
            availability.value()
        );
    }

    // Show what the unsatisfied requesters are told.
    let engine = BatchStrat::new(BatchObjective::Payoff, AggregationMode::Sum);
    let outcome = engine
        .recommend_with_catalog(&requests, &catalog, &models, k, availability)
        .expect("models cover every strategy");
    let adpar = AdparExact;
    println!("\nAlternative parameters for the first three unsatisfied requests:");
    for &idx in outcome.unsatisfied.iter().take(3) {
        let problem = AdparProblem::with_catalog(&requests[idx], &catalog, k);
        match adpar.solve(&problem) {
            Ok(solution) => println!(
                "  d{}: relax to quality >= {:.2}, cost <= {:.2}, latency <= {:.2} (distance {:.3})",
                requests[idx].id.0,
                solution.alternative.quality,
                solution.alternative.cost,
                solution.alternative.latency,
                solution.distance
            ),
            Err(err) => println!("  d{}: {err}", requests[idx].id.0),
        }
    }
}
