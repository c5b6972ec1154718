//! A realistic end-to-end scenario: a requester wants English→Hindi nursery
//! rhymes translated by the crowd.
//!
//! The example (1) estimates worker availability from simulated historical
//! deployments across the three weekly windows, (2) fits the per-strategy
//! linear models from calibration deployments (the paper's Table 6 step), and
//! (3) asks StratRec for deployment strategies meeting the requester's
//! quality / cost / latency thresholds.
//!
//! ```bash
//! cargo run --example translation_campaign
//! ```

use stratrec::core::batch::BatchObjective;
use stratrec::core::model::{
    all_dimension_combinations, DeploymentParameters, DeploymentRequest, Strategy, TaskType,
};
use stratrec::core::modeling::ModelLibrary;
use stratrec::core::prelude::*;
use stratrec::core::stratrec::{ServiceQuality, StratRecConfig};
use stratrec::platform::execution::StrategyExecutor;
use stratrec::platform::experiment::CalibrationExperiment;

fn main() {
    let task = TaskType::SentenceTranslation;
    let calibration = CalibrationExperiment::with_seed(7);

    // Step 1 — estimate worker availability from the three deployment windows.
    let study = calibration.availability_study(task);
    let observations: Vec<f64> = study
        .iter()
        .flat_map(|(_, _, est)| est.observations.clone())
        .collect();
    let availability = AvailabilityPdf::from_observations(&observations).expect("observations");
    println!(
        "Estimated worker availability for {}: {:.2} (from {} simulated HITs)",
        task.label(),
        availability.expectation().value(),
        observations.len()
    );

    // Step 2 — build the candidate strategy set (all eight Structure ×
    // Organization × Style combinations) with models fitted from calibration
    // deployments.
    let expected = availability.expectation();
    let mut strategies = Vec::new();
    let mut models = ModelLibrary::new();
    for (idx, (structure, organization, style)) in all_dimension_combinations().iter().enumerate() {
        let probe = Strategy::new(
            idx as u64,
            *structure,
            *organization,
            *style,
            DeploymentParameters::clamped(0.5, 0.5, 0.5),
        );
        let fitted = calibration
            .fit_strategy(task, &probe)
            .map(|report| report.to_strategy_model())
            .unwrap_or_else(|| {
                StrategyExecutor::ground_truth_model(task, *structure, *organization, *style)
            });
        let params = fitted.estimate_parameters(expected);
        strategies.push(Strategy::new(
            idx as u64,
            *structure,
            *organization,
            *style,
            params,
        ));
        models.insert(strategies[idx].id, fitted);
    }

    // Step 3 — the requester's thresholds: at least 75 % of expert quality,
    // at most 80 % of the budget, finished within 70 % of the horizon.
    let request = DeploymentRequest::new(1, task, DeploymentParameters::clamped(0.75, 0.8, 0.7));
    let layer = StratRec::new(StratRecConfig {
        k: 3,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Max,
    });
    // Index the candidate strategies once; subsequent campaigns over the
    // same platform would reuse this catalog.
    let catalog = StrategyCatalog::new(strategies.as_slice());
    let report = layer
        .process_batch_with_catalog_at(
            std::slice::from_ref(&request),
            &catalog,
            &models,
            &availability,
            ServiceQuality::Full,
        )
        .expect("models cover every strategy");

    if let Some(rec) = report.batch.satisfied.first() {
        println!("StratRec recommends deploying the translation campaign with:");
        for &idx in &rec.strategy_indices {
            // Recommendation indices are catalog slots; resolve them through
            // the catalog rather than a parallel vector.
            let s = catalog.strategy(idx);
            println!(
                "  {}  (estimated quality {:.2}, cost {:.2}, latency {:.2})",
                s.name(),
                s.params.quality,
                s.params.cost,
                s.params.latency
            );
        }
        println!("  required workforce fraction: {:.2}", rec.workforce);
    } else if let Some(alt) = report.alternatives.first() {
        match &alt.solution {
            Ok(solution) => println!(
                "No strategy meets the thresholds; closest feasible parameters: \
                 quality >= {:.2}, cost <= {:.2}, latency <= {:.2}",
                solution.alternative.quality,
                solution.alternative.cost,
                solution.alternative.latency
            ),
            Err(err) => println!("No recommendation possible: {err}"),
        }
    }
}
