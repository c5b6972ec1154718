//! Row-sharding parity for the workforce fill on exactly representable inputs.
//!
//! Inputs are drawn from a 1/64 grid (exact in f64): every satisfaction
//! comparison is then either an exact tie or separated by at least 1/64, so
//! the instances exercise the fill's boundary cases and index tie-breaking
//! rather than only generic positions. `BatchEngine` fills rows
//! independently, so its output must equal the sequential fill bit for bit
//! under every thread count.

use stratrec::core::catalog::StrategyCatalog;
use stratrec::core::engine::BatchEngine;
use stratrec::core::model::{DeploymentParameters, DeploymentRequest, Strategy, TaskType};
use stratrec::core::modeling::{LinearModel, ModelLibrary, StrategyModel};
use stratrec::core::workforce::{EligibilityRule, WorkforceMatrix};

#[allow(unused_imports)]
use proptest::prelude::*;

/// One grid step: `n / 64`, exact in f64 for the ranges drawn here.
fn grid(n: u32) -> f64 {
    f64::from(n) / 64.0
}

/// A line with slope `±n/64` (`|α| ≥ 1/4`) and intercept on the wider
/// `[-1/2, 3/2]` grid, so lines rise, fall, overshoot and undershoot.
type LineSpec = (u32, bool, u32);

fn line(spec: LineSpec) -> LinearModel {
    let (alpha_num, negative, beta_num) = spec;
    let alpha = if negative {
        -grid(alpha_num)
    } else {
        grid(alpha_num)
    };
    let beta = (f64::from(beta_num) - 32.0) / 64.0;
    LinearModel::new(alpha, beta)
}

type StrategySpec = ((u32, u32, u32), (LineSpec, LineSpec, LineSpec));

fn build_instance(
    specs: &[StrategySpec],
    request_specs: &[(u32, u32, u32)],
) -> (StrategyCatalog, ModelLibrary, Vec<DeploymentRequest>) {
    let strategies: Vec<Strategy> = specs
        .iter()
        .enumerate()
        .map(|(i, &((q, c, l), _))| {
            Strategy::from_params(
                i as u64,
                DeploymentParameters::clamped(grid(q), grid(c), grid(l)),
            )
        })
        .collect();
    let models =
        ModelLibrary::from_pairs(specs.iter().enumerate().map(|(i, &(_, (lq, lc, ll)))| {
            (
                strategies[i].id,
                StrategyModel::new(line(lq), line(lc), line(ll)),
            )
        }));
    let catalog = StrategyCatalog::from_slice(&strategies);
    let requests = request_specs
        .iter()
        .enumerate()
        .map(|(i, &(q, c, l))| {
            DeploymentRequest::new(
                i as u64,
                TaskType::SentenceTranslation,
                DeploymentParameters::clamped(grid(q), grid(c), grid(l)),
            )
        })
        .collect();
    (catalog, models, requests)
}

const RULES: [EligibilityRule; 2] = [
    EligibilityRule::StrategyParameters,
    EligibilityRule::ModelOnly,
];

proptest! {
    #[test]
    fn engine_sharding_preserves_kernel_bits_on_the_grid(
        specs in proptest::collection::vec(
            (
                (0_u32..=64, 0_u32..=64, 0_u32..=64),
                (
                    (16_u32..=63, proptest::bool::ANY, 0_u32..=128),
                    (16_u32..=63, proptest::bool::ANY, 0_u32..=128),
                    (16_u32..=63, proptest::bool::ANY, 0_u32..=128),
                ),
            ),
            1..24,
        ),
        request_specs in proptest::collection::vec(
            (0_u32..=64, 0_u32..=64, 0_u32..=64),
            1..6,
        ),
        threads in 0_usize..5,
    ) {
        // Row sharding must never change a single bit: rows are filled
        // independently, so the engine output equals the sequential fill
        // cell for cell.
        let (catalog, models, requests) = build_instance(&specs, &request_specs);
        for rule in RULES {
            let sequential =
                WorkforceMatrix::compute_with_catalog(&requests, &catalog, &models, rule)
                    .unwrap();
            let sharded = BatchEngine::with_threads(threads)
                .workforce_matrix(&requests, &catalog, &models, rule)
                .unwrap();
            prop_assert_eq!(&sequential, &sharded, "{:?}, {} threads", rule, threads);
        }
    }
}
