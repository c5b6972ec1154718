//! Reproduces the paper's running example (Table 1) end to end, including the
//! ADPaR-Exact trace tables (Tables 2–5). Pass `--trace` for the full trace.

use stratrec_bench::report::{fmt3, render_table};
use stratrec_core::adpar::trace::AdparTrace;
use stratrec_core::adpar::AdparProblem;
use stratrec_core::availability::AvailabilityPdf;
use stratrec_core::batch::BatchObjective;
use stratrec_core::catalog::StrategyCatalog;
use stratrec_core::stratrec::{StratRec, StratRecConfig};
use stratrec_core::workforce::AggregationMode;

fn main() {
    let trace_requested = std::env::args().any(|a| a == "--trace");
    let strategies = stratrec_core::examples_data::running_example_strategies();
    let requests = stratrec_core::examples_data::running_example_requests();
    let models = stratrec_core::examples_data::running_example_models();

    let mut rows = Vec::new();
    for (label, params) in requests
        .iter()
        .map(|r| (format!("d{}", r.id.0), r.params))
        .chain(
            strategies
                .iter()
                .map(|s| (format!("s{} = {}", s.id.0, s.name()), s.params)),
        )
    {
        rows.push(vec![
            label,
            fmt3(params.quality),
            fmt3(params.cost),
            fmt3(params.latency),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Table 1 — deployment requests and strategies",
            &["", "Quality", "Cost", "Latency"],
            &rows
        )
    );

    let layer = StratRec::new(StratRecConfig {
        k: 3,
        objective: BatchObjective::Throughput,
        aggregation: AggregationMode::Max,
    });
    let pdf = AvailabilityPdf::new(&[(0.7, 0.5), (0.9, 0.5)]).expect("valid pdf");
    let report = layer
        .process_batch(&requests, &strategies, &models, &pdf)
        .expect("models cover every strategy");
    println!(
        "Expected worker availability W = {:.2}",
        report.availability.value()
    );
    for rec in &report.batch.satisfied {
        let names: Vec<String> = rec
            .strategy_indices
            .iter()
            .map(|&i| format!("s{}", strategies[i].id.0))
            .collect();
        println!(
            "d{} satisfied with {{{}}} (workforce {:.3})",
            requests[rec.request_index].id.0,
            names.join(", "),
            rec.workforce
        );
    }
    for alt in &report.alternatives {
        let request = &requests[alt.request_index];
        match &alt.solution {
            Ok(solution) => {
                let names: Vec<String> = solution
                    .strategy_indices
                    .iter()
                    .map(|&i| format!("s{}", strategies[i].id.0))
                    .collect();
                println!(
                    "d{} unsatisfied -> ADPaR suggests (quality {:.2}, cost {:.2}, latency {:.2}) with {{{}}}, distance {:.4}",
                    request.id.0,
                    solution.alternative.quality,
                    solution.alternative.cost,
                    solution.alternative.latency,
                    names.join(", "),
                    solution.distance
                );
            }
            Err(err) => println!("d{}: no alternative exists ({err})", request.id.0),
        }
    }

    if trace_requested {
        println!("\nADPaR-Exact trace for d2 (Tables 2-5):");
        let catalog = StrategyCatalog::new(strategies.as_slice());
        let problem = AdparProblem::with_catalog(&requests[1], &catalog, 3);
        let trace = AdparTrace::compute(&problem).expect("valid instance");
        println!("{}", trace.render());
    }
}
