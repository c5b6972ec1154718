//! The columnar `f32` workforce kernel: cache-layout + SIMD-shaped cold fill.
//!
//! The scalar cold path ([`WorkforceMatrix::compute_with_catalog`]) walks an
//! R-tree per request and inverts three branchy `f64` lines per eligible
//! cell. At `|S| = 10 000` that is the per-epoch floor the ROADMAP names:
//! pointer-chasing through tree nodes, then `Strategy`-sized row-of-structs
//! loads, then data-dependent branches per cell. This module restructures
//! the fill for the memory system instead:
//!
//! * **Eligibility as bitmask predicates over SoA columns.** The catalog
//!   keeps a columnar mirror of its slot-parallel state
//!   ([`crate::catalog::soa`]): three contiguous per-axis `f64` parameter
//!   columns plus a packed liveness bitmap. Per [`LANES`]-slot chunk the
//!   kernel evaluates the exact [`satisfies`] predicate (same
//!   [`SATISFIES_EPS`] tolerance — the columns stay `f64` precisely so the
//!   `1e-9` comparison is reproduced bit for bit) as a branchless per-lane
//!   compare. The only data-dependent branch left is the catalog-shaped
//!   one — a chunk whose liveness word is all-dead splats `∞` and moves
//!   on; everything request-dependent is a select, because on real
//!   catalogs per-chunk eligibility is scattered and an "any survivor?"
//!   branch mispredicts its way to ~2× slower fills.
//! * **Model inversion as fixed-width chunk loops.** Chunks are inverted
//!   over nine contiguous `f32` coefficient columns ([`KernelCoeffs`]:
//!   α, 1/α, β per axis — the reciprocal is precomputed once per fill so
//!   the lane loop multiplies instead of divides); every lane computes the
//!   full branch-free inversion ([`invert_line_f32`] — comparisons and
//!   selects, no data-dependent control flow) over fixed-size
//!   `[f32; LANES]` array windows (no bounds checks), and a final select
//!   stores either the widened value or `∞` into the cell. Dead slots and
//!   flat lines are *NaN-poisoned* at collection time (NaN coefficients /
//!   NaN reciprocals) so they fail every feasibility compare arithmetically
//!   — the eligibility mask needs no integer liveness test and the
//!   `ModelOnly` rule needs no mask at all. Every cell is written exactly
//!   once (a finite value or `∞`), so the fill needs no `∞` prefill and a
//!   cold fill can start from a zeroed allocation. Rows are processed in
//!   [`ROW_TILE`]-row tiles (row-outer, chunk-inner within the tile) so
//!   each pass over the coefficient columns is amortized across the tile
//!   while per-row threshold broadcasts stay hoisted.
//!
//! # Precision contract
//!
//! [`Precision`] selects between this kernel and the scalar `f64` reference
//! path, and the matrix records which one filled it. The contract, pinned by
//! `tests/kernel_parity.rs`:
//!
//! * **Bit-exact:** eligibility masks (the predicate runs in `f64` off the
//!   SoA columns), the `∞` marking of ineligible/infeasible cells away from
//!   satisfaction boundaries, and top-k tie-breaking by ascending index
//!   (finite `f32` cells widen exactly into the `f64` row, and widening is
//!   monotone, so a top-k over the widened cells is the top-k over the
//!   `f32` cells).
//! * **ULP-bounded:** finite cell values. Inputs are cast once
//!   (`f64 as f32`, correctly rounded), the root is one rounded subtraction
//!   and one rounded multiply by the precomputed reciprocal
//!   `(t − β) · (1/α)`, and the clamp is exact — for the unit-interval
//!   parameter domain with `|α| ≥ 0.25` the finite cells stay within a few
//!   `f32` ULPs (≲ `1e-6` absolute) of the `f64` reference; `2e-6` is the
//!   documented bound.
//! * **Boundary tolerance:** the `f64` path accepts a root whose probe
//!   evaluation sits within `1e-12` of the threshold. `1e-12` is far below
//!   `f32` rounding error, so the kernel widens that probe tolerance to
//!   [`PROBE_EPS`] (`1e-5`, ≈ 84 ULPs at magnitude 1 — comfortably above
//!   rounding noise, far below the data's scale). Within `1e-5` of a
//!   satisfaction boundary the two paths may classify a cell differently;
//!   the parity suite's generators stay on a `1/64` grid where this band is
//!   empty and classification is provably identical.
//!
//! [`WorkforceMatrix::compute_with_catalog`]: super::WorkforceMatrix::compute_with_catalog
//! [`satisfies`]: crate::model::DeploymentParameters::satisfies
//! [`SATISFIES_EPS`]: crate::model::SATISFIES_EPS

use serde::{Deserialize, Serialize};

use crate::catalog::soa::WORD_BITS;
use crate::catalog::StrategyCatalog;
use crate::model::{DeploymentParameters, DeploymentRequest, SATISFIES_EPS};
use crate::modeling::StrategyModel;
use crate::workforce::EligibilityRule;

/// Which implementation fills (and filled) a workforce matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// The scalar `f64` reference path — bit-exact with the pre-kernel
    /// [`WorkforceMatrix::compute_with_catalog`] results.
    ///
    /// [`WorkforceMatrix::compute_with_catalog`]: super::WorkforceMatrix::compute_with_catalog
    #[default]
    F64,
    /// The columnar `f32` kernel of this module (cells are stored exactly
    /// widened to `f64`, so all downstream aggregation is shared).
    F32,
}

impl Precision {
    /// Both precisions, reference first — handy for parity loops.
    pub const ALL: [Precision; 2] = [Precision::F64, Precision::F32];

    /// Label used in benchmark output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::F64 => "f64",
            Self::F32 => "f32",
        }
    }
}

/// Chunk width of the vectorizable inversion loop: 16 lanes of `f32` span
/// two 256-bit vector registers (or one 512-bit register), one liveness
/// word covers 4 chunks, and the chunk's live bits extract as a `u16`.
/// Measured faster than 8 on AVX2/AVX-512 targets — fewer loop-carried
/// counters per slot processed.
pub(crate) const LANES: usize = 16;

/// `f32` counterpart of the model inversion's `1e-12` probe tolerance
/// (see the module docs' precision contract).
const PROBE_EPS: f32 = 1e-5;

/// The `f64` path's shared `1e-12` tolerance, kept verbatim where the
/// compared quantities carry no `f32` rounding error: the flat-line slope
/// check and the value-at-zero check (which compares β itself).
const EXACT_EPS: f32 = 1e-12;

/// The `f64` path accepts roots up to `1.0 + 1e-9`; at `f32` resolution the
/// slack is sub-ULP (`1.0 + 1e-9` rounds to `1.0`), kept for structural
/// symmetry with the reference.
const RANGE_SLACK: f32 = 1e-9;

/// A request's thresholds cast once to `f32` for the kernel lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Thresholds {
    quality: f32,
    cost: f32,
    latency: f32,
}

impl Thresholds {
    pub(crate) fn of(params: &DeploymentParameters) -> Self {
        Self {
            quality: params.quality as f32,
            cost: params.cost as f32,
            latency: params.latency as f32,
        }
    }
}

/// One axis's slot-parallel coefficient columns: slope, **precomputed
/// reciprocal slope** (the lane loop multiplies by `1/α` instead of paying a
/// hardware division per lane — the reciprocal is rounded once here, so the
/// cold fill and the delta path compute bit-identical roots), and intercept.
#[derive(Debug, Clone, Default)]
struct AxisColumns {
    alpha: Vec<f32>,
    inv_alpha: Vec<f32>,
    beta: Vec<f32>,
}

impl AxisColumns {
    fn clear_and_reserve(&mut self, len: usize) {
        self.alpha.clear();
        self.inv_alpha.clear();
        self.beta.clear();
        self.alpha.reserve(len);
        self.inv_alpha.reserve(len);
        self.beta.reserve(len);
    }

    fn push(&mut self, line: crate::modeling::LinearModel) {
        let alpha = line.alpha as f32;
        self.alpha.push(alpha);
        // A flat line can never be inverted (the f64 path rejects
        // `|α| ≤ 1e-12` outright), and flatness is a per-slot constant — so
        // the check runs once here, as NaN poison on the reciprocal, instead
        // of per lane in the fill: a NaN root fails every feasibility
        // compare. Satisfied-at-zero still short-circuits first, off the
        // intact β column, exactly like the reference.
        self.inv_alpha.push(if alpha.abs() > EXACT_EPS {
            1.0 / alpha
        } else {
            f32::NAN
        });
        self.beta.push(line.beta as f32);
    }
}

/// A fixed-size [`LANES`]-wide borrow of a column starting at `slot` — the
/// array type lets the lane loops compile without per-lane bounds checks.
#[inline(always)]
fn window<T>(column: &[T], slot: usize) -> &[T; LANES] {
    column[slot..slot + LANES]
        .try_into()
        .expect("window is LANES wide")
}

/// A `LANES`-wide window over one axis's coefficient columns.
#[derive(Clone, Copy)]
struct AxisChunk<'a> {
    alpha: &'a [f32; LANES],
    inv_alpha: &'a [f32; LANES],
    beta: &'a [f32; LANES],
}

/// The nine slot-parallel `f32` coefficient columns (α, 1/α, β per axis) the
/// inversion lanes stream. Models live in the [`crate::modeling::ModelLibrary`]
/// and move independently of the catalog, so the columns are (re)collected
/// from the per-batch model buffer — one `O(|S|)` pass per cold fill,
/// amortized over all `m` rows. Slots without a model (retired) carry **NaN
/// poison coefficients**: every feasibility compare in
/// [`invert_line_f32`] is false on NaN, so a dead lane yields `∞` through
/// the same arithmetic as everything else and the lane loops never need to
/// consult the liveness bitmap (which would mix integer bit tests into the
/// float dataflow and wreck its vectorization).
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelCoeffs {
    quality: AxisColumns,
    cost: AxisColumns,
    latency: AxisColumns,
}

impl KernelCoeffs {
    /// Collects the coefficient columns from a slot-parallel model buffer
    /// ([`super::collect_live_models_into`]).
    pub(crate) fn collect(models: &[Option<StrategyModel>]) -> Self {
        let mut coeffs = Self::default();
        coeffs.recollect(models);
        coeffs
    }

    /// [`Self::collect`] into `self`, reusing the nine allocations.
    pub(crate) fn recollect(&mut self, models: &[Option<StrategyModel>]) {
        self.quality.clear_and_reserve(models.len());
        self.cost.clear_and_reserve(models.len());
        self.latency.clear_and_reserve(models.len());
        for model in models {
            // NaN poison for retired slots — see the struct docs.
            let model = model.unwrap_or(StrategyModel::uniform(f64::NAN, f64::NAN));
            self.quality.push(model.quality);
            self.cost.push(model.cost);
            self.latency.push(model.latency);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.quality.alpha.len()
    }
}

/// Branch-free `f32` mirror of [`LinearModel::required_workforce`]: same
/// decisions (already-satisfied short-circuit, flat-line and range checks,
/// probe confirmation — the reference's clamps are subsumed by the range
/// pair), with every condition evaluated as a select so a lane loop over it
/// vectorizes. `LOWER` is a const generic so each axis monomorphizes to
/// straight-line code.
///
/// [`LinearModel::required_workforce`]: crate::modeling::LinearModel::required_workforce
#[inline(always)]
fn invert_line_f32<const LOWER: bool>(
    alpha: f32,
    inv_alpha: f32,
    beta: f32,
    threshold: f32,
) -> f32 {
    // Satisfied with zero workforce? The value at w = 0 is β exactly, so the
    // f64 path's 1e-12 tolerance (sub-ULP here) keeps its meaning: a true
    // tie counts as satisfied.
    let satisfied_at_zero = if LOWER {
        beta + EXACT_EPS >= threshold
    } else {
        beta <= threshold + EXACT_EPS
    };
    // Multiply by the precomputed reciprocal instead of dividing. Flat
    // lines carry a NaN reciprocal ([`AxisColumns::push`]), so their root
    // is NaN and fails every feasibility compare — the f64 path's explicit
    // `|α| ≤ 1e-12` rejection, paid per slot at collection time instead of
    // per lane here.
    let w = (threshold - beta) * inv_alpha;
    // Probe the root directly, without the reference's `min(w, 1.0)` clamp:
    // a lane with `w > 1` fails the range check below no matter what its
    // probe says, so clamping before the probe cannot change any surviving
    // lane — and NaN/overflowing probes belong to lanes the range pair
    // rejects anyway.
    let probe = alpha * w + beta;
    let probe_satisfied = if LOWER {
        probe + PROBE_EPS >= threshold
    } else {
        probe <= threshold + PROBE_EPS
    };
    // Non-short-circuit `&` keeps this a pure dataflow of compares and
    // selects — no data-dependent branches for the lane loop to trip over.
    // The range pair also rejects NaN and ±∞ roots (every compare on them
    // is false), subsuming the f64 path's `is_finite` check, and makes both
    // of the reference's clamps redundant: a surviving `w` already lies in
    // `[0, 1]` (`RANGE_SLACK` is sub-ULP at 1.0 in f32).
    #[allow(clippy::manual_range_contains)]
    // `contains` short-circuits; this must stay a dataflow of `&`s
    let feasible = (w >= 0.0) & (w <= 1.0 + RANGE_SLACK) & probe_satisfied;
    let inverted = if feasible { w } else { f32::INFINITY };
    if satisfied_at_zero {
        0.0
    } else {
        inverted
    }
}

/// Max fold for the axis requirements: inversion outputs are never NaN
/// (infeasible lanes come out `∞`), so the NaN-aware semantics of
/// `f32::max` are dead weight — this select form lowers to a single packed
/// max instruction (x86 `maxps` implements exactly `a > b ? a : b`), where
/// `f32::max` costs an extra compare and blend per fold. Used by every
/// path that folds axis inversions so they stay bit-identical.
#[inline(always)]
fn fold_max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `f32` mirror of [`StrategyModel::required_workforce`] over the coefficient
/// columns: the max of the three per-axis inversions, floored at zero like
/// the reference's `fold(0.0, f64::max)`.
#[inline(always)]
fn cell_requirement_f32(coeffs: &KernelCoeffs, slot: usize, t: Thresholds) -> f32 {
    let axis = |col: &AxisColumns| (col.alpha[slot], col.inv_alpha[slot], col.beta[slot]);
    let (qa, qi, qb) = axis(&coeffs.quality);
    let (ca, ci, cb) = axis(&coeffs.cost);
    let (la, li, lb) = axis(&coeffs.latency);
    let q = invert_line_f32::<true>(qa, qi, qb, t.quality);
    let c = invert_line_f32::<false>(ca, ci, cb, t.cost);
    let l = invert_line_f32::<false>(la, li, lb, t.latency);
    fold_max(fold_max(fold_max(q, c), l), 0.0)
}

/// [`cell_requirement_f32`] from a single model (no columns): the delta
/// path's per-inserted-slot fill. The casts are the same `f64 as f32`
/// [`KernelCoeffs::recollect`] performs, so a delta-filled cell is
/// bit-identical to the cold kernel's cell for the same slot.
#[inline]
pub(crate) fn model_requirement_f32(model: &StrategyModel, t: Thresholds) -> f32 {
    // The casts, the `1.0 / α` reciprocal and the flat-line NaN poison are
    // exactly what [`AxisColumns::push`] computes, so the root comes out
    // bit-identical.
    let axis = |line: crate::modeling::LinearModel| {
        let alpha = line.alpha as f32;
        let inv_alpha = if alpha.abs() > EXACT_EPS {
            1.0 / alpha
        } else {
            f32::NAN
        };
        (alpha, inv_alpha, line.beta as f32)
    };
    let (qa, qi, qb) = axis(model.quality);
    let (ca, ci, cb) = axis(model.cost);
    let (la, li, lb) = axis(model.latency);
    let q = invert_line_f32::<true>(qa, qi, qb, t.quality);
    let c = invert_line_f32::<false>(ca, ci, cb, t.cost);
    let l = invert_line_f32::<false>(la, li, lb, t.latency);
    fold_max(fold_max(fold_max(q, c), l), 0.0)
}

/// Inverts one [`LANES`]-wide chunk: every lane computes the full
/// branch-free three-axis inversion over the fixed-size coefficient windows
/// (no lane-dependent control flow, no bounds checks — auto-vectorizable),
/// then a select store writes each lane's exactly-widened value or `∞`.
// The explicit `0..LANES` index loops mirror the lane structure the
// vectorizer must prove; iterator chains over three zipped arrays obscure
// it without removing a single bounds check (the arrays are `[_; LANES]`).
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn invert_chunk(
    keep: &[bool; LANES],
    quality: AxisChunk<'_>,
    cost: AxisChunk<'_>,
    latency: AxisChunk<'_>,
    t: Thresholds,
    out: &mut [f64; LANES],
) {
    let mut values = [0.0_f32; LANES];
    for lane in 0..LANES {
        let q = invert_line_f32::<true>(
            quality.alpha[lane],
            quality.inv_alpha[lane],
            quality.beta[lane],
            t.quality,
        );
        let c = invert_line_f32::<false>(
            cost.alpha[lane],
            cost.inv_alpha[lane],
            cost.beta[lane],
            t.cost,
        );
        let l = invert_line_f32::<false>(
            latency.alpha[lane],
            latency.inv_alpha[lane],
            latency.beta[lane],
            t.latency,
        );
        values[lane] = fold_max(fold_max(fold_max(q, c), l), 0.0);
    }
    for lane in 0..LANES {
        out[lane] = if keep[lane] {
            f64::from(values[lane])
        } else {
            f64::INFINITY
        };
    }
}

/// Rows per tile of the chunked fill: per [`LANES`]-slot chunk the kernel
/// serves [`ROW_TILE`] requests before moving on, so a chunk's column loads
/// (three `f64` parameter windows, nine `f32` coefficient windows) are
/// L1-resident for all but the first row of the tile. Without tiling every
/// row re-streams the full ~600 KB column set at `|S| = 10 000`; with it
/// the column traffic divides by the tile height while the per-cell
/// arithmetic — and therefore every cell bit — stays identical.
const ROW_TILE: usize = 8;

/// Fills a block of workforce rows (requests × catalog slots, row-major)
/// through the kernel: per [`LANES`]-slot chunk and row, evaluate the exact
/// `f64` eligibility predicate into a per-lane keep mask (dead slots are
/// NaN-poisoned and fail it arithmetically) and invert the chunk through
/// [`invert_chunk`]; only a chunk whose liveness word is entirely dead
/// short-circuits to a plain `∞` splat. **Every cell is written exactly
/// once** — unlike the scalar [`super::fill_catalog_row`], the rows need no
/// `∞` pre-fill, which lets the cold path allocate its cells zeroed
/// (`alloc_zeroed` maps pages without a write pass) and touch the matrix
/// memory only here. Cell values are independent of the tiling, so any
/// row-sharded split of the batch ([`crate::engine::BatchEngine`]) produces
/// bit-identical cells.
pub(crate) fn fill_catalog_rows_f32(
    requests: &[DeploymentRequest],
    catalog: &StrategyCatalog,
    coeffs: &KernelCoeffs,
    rule: EligibilityRule,
    rows: &mut [f64],
) {
    let soa = catalog.soa();
    let n = soa.len();
    debug_assert_eq!(rows.len(), requests.len() * n);
    debug_assert_eq!(n, coeffs.len());
    if n == 0 {
        return;
    }
    for (tile_requests, tile_rows) in requests.chunks(ROW_TILE).zip(rows.chunks_mut(ROW_TILE * n)) {
        fill_tile(tile_requests, catalog, coeffs, rule, tile_rows, n);
    }
}

/// One [`ROW_TILE`]-high tile of [`fill_catalog_rows_f32`].
fn fill_tile(
    requests: &[DeploymentRequest],
    catalog: &StrategyCatalog,
    coeffs: &KernelCoeffs,
    rule: EligibilityRule,
    rows: &mut [f64],
    n: usize,
) {
    let soa = catalog.soa();
    let quality = soa.quality();
    let cost = soa.cost();
    let latency = soa.latency();
    let words = soa.live_words();
    let check_params = matches!(rule, EligibilityRule::StrategyParameters);
    let mut thresholds = [Thresholds {
        quality: 0.0,
        cost: 0.0,
        latency: 0.0,
    }; ROW_TILE];
    for (t, request) in thresholds.iter_mut().zip(requests) {
        *t = Thresholds::of(&request.params);
    }
    let slot_live = |slot: usize| (words[slot / WORD_BITS] >> (slot % WORD_BITS)) & 1 == 1;
    // The exact f64 predicate, identical to `DeploymentParameters::satisfies`
    // per slot (scalar tail).
    let eligible = |slot: usize, params: &crate::model::DeploymentParameters| {
        !check_params
            || ((quality[slot] + SATISFIES_EPS >= params.quality)
                && (cost[slot] <= params.cost + SATISFIES_EPS)
                && (latency[slot] <= params.latency + SATISFIES_EPS))
    };

    // Re-slice every column (and below, every row) to exactly `n` elements:
    // with all lengths provably equal, the `slot + LANES <= n` loop bound
    // covers every window and LLVM drops the per-column bounds checks from
    // the chunk loop (~13 compare+branch pairs per iteration otherwise).
    let (quality_n, cost_n, latency_n) = (&quality[..n], &cost[..n], &latency[..n]);
    let [qa, qi, qb, ca, ci, cb, la, li, lb] = [
        &coeffs.quality.alpha,
        &coeffs.quality.inv_alpha,
        &coeffs.quality.beta,
        &coeffs.cost.alpha,
        &coeffs.cost.inv_alpha,
        &coeffs.cost.beta,
        &coeffs.latency.alpha,
        &coeffs.latency.inv_alpha,
        &coeffs.latency.beta,
    ]
    .map(|column| &column[..n]);

    for ((row, request), &t) in rows.chunks_mut(n).zip(requests).zip(&thresholds) {
        let row = &mut row[..n];
        let params = &request.params;
        let mut slot = 0;
        while slot + LANES <= n {
            // LANES divides WORD_BITS, so a chunk never straddles liveness
            // words; the u16 cast keeps exactly this chunk's 16 bits.
            let live = (words[slot / WORD_BITS] >> (slot % WORD_BITS)) as u16;
            let out: &mut [f64; LANES] = (&mut row[slot..slot + LANES])
                .try_into()
                .expect("window is LANES wide");
            if live == 0 {
                // Dead chunk: a plain splat store keeps the full-coverage
                // invariant without inversion work. Liveness is a property
                // of the catalog (not the request), so this branch repeats
                // identically for every row of the batch — dead regions
                // cluster after compaction and the predictor learns them.
                *out = [f64::INFINITY; LANES];
                slot += LANES;
                continue;
            }
            // No liveness test in the mask: dead lanes carry NaN poison
            // coefficients and come out `∞` through the inversion itself,
            // so the keep mask is a pure float dataflow — three packed f64
            // compares, nothing else. And no "does any lane survive?"
            // fast-path either: that branch is request-dependent and
            // mispredicts on scattered catalogs; inverting unconditionally
            // and letting the mask select `∞` per lane is cheaper than the
            // mispredicts it replaces.
            let mut keep = [true; LANES];
            if check_params {
                let (sq, sc, sl) = (
                    window(quality_n, slot),
                    window(cost_n, slot),
                    window(latency_n, slot),
                );
                for lane in 0..LANES {
                    // Same predicate as `eligible`, as non-short-circuit
                    // `&` so the lane loop stays branchless.
                    keep[lane] = (sq[lane] + SATISFIES_EPS >= params.quality)
                        & (sc[lane] <= params.cost + SATISFIES_EPS)
                        & (sl[lane] <= params.latency + SATISFIES_EPS);
                }
            }
            invert_chunk(
                &keep,
                AxisChunk {
                    alpha: window(qa, slot),
                    inv_alpha: window(qi, slot),
                    beta: window(qb, slot),
                },
                AxisChunk {
                    alpha: window(ca, slot),
                    inv_alpha: window(ci, slot),
                    beta: window(cb, slot),
                },
                AxisChunk {
                    alpha: window(la, slot),
                    inv_alpha: window(li, slot),
                    beta: window(lb, slot),
                },
                t,
                out,
            );
            slot += LANES;
        }
        // Partial trailing chunk: same per-cell function, walked per slot —
        // bit-identical to the chunked lanes.
        #[allow(clippy::needless_range_loop)]
        // `slot` indexes the shared columns too, not just `row`
        for slot in slot..n {
            row[slot] = if slot_live(slot) && eligible(slot, params) {
                f64::from(cell_requirement_f32(coeffs, slot, t))
            } else {
                f64::INFINITY
            };
        }
    }
}

/// `f32` twin of [`super::fill_inserted_cells`]: computes the freshly
/// appended columns of one row through [`model_requirement_f32`], so a
/// delta-maintained `F32` matrix stays bit-identical to a cold kernel fill
/// over the updated catalog.
pub(crate) fn fill_inserted_cells_f32(
    request: &DeploymentRequest,
    catalog: &StrategyCatalog,
    inserted: &[usize],
    inserted_models: &[Option<StrategyModel>],
    rule: EligibilityRule,
    row: &mut [f64],
) {
    let t = Thresholds::of(&request.params);
    for (&slot, model) in inserted.iter().zip(inserted_models) {
        let Some(model) = model else {
            continue; // retired within the window: the column stays infinite
        };
        let eligible = match rule {
            EligibilityRule::StrategyParameters => {
                catalog.strategy(slot).params.satisfies(&request.params)
            }
            EligibilityRule::ModelOnly => true,
        };
        if eligible {
            row[slot] = f64::from(model_requirement_f32(model, t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeling::{LinearModel, ParameterKind};

    fn line(alpha: f64, beta: f64) -> LinearModel {
        LinearModel::new(alpha, beta)
    }

    /// On inputs away from satisfaction boundaries the f32 inversion and the
    /// f64 reference agree on classification and land within a few ULPs.
    #[test]
    fn inversion_mirrors_the_f64_reference() {
        let cases = [
            (0.5, 0.5, 0.75),   // root at 0.5
            (0.5, 0.5, 0.25),   // satisfied at zero
            (0.5, 0.5, 1.0),    // root exactly at 1.0
            (0.25, 0.5, 0.875), // root at 1.5 -> infeasible
            (-0.5, 1.0, 0.75),  // falling line, upper bounds reachable
            (0.0, 0.5, 0.75),   // flat line, unsatisfied -> infeasible
        ];
        for (alpha, beta, threshold) in cases {
            let (a, inv_a) = (alpha as f32, 1.0 / (alpha as f32));
            let reference = line(alpha, beta).required_workforce(threshold, ParameterKind::Quality);
            let kernel = invert_line_f32::<true>(a, inv_a, beta as f32, threshold as f32);
            assert_eq!(
                reference.is_finite(),
                kernel.is_finite(),
                "classification for ({alpha}, {beta}, {threshold})"
            );
            if reference.is_finite() {
                assert!(
                    (f64::from(kernel) - reference).abs() <= 2e-6,
                    "({alpha}, {beta}, {threshold}): {kernel} vs {reference}"
                );
            }
            let upper_ref = line(alpha, beta).required_workforce(threshold, ParameterKind::Cost);
            let upper = invert_line_f32::<false>(a, inv_a, beta as f32, threshold as f32);
            assert_eq!(upper_ref.is_finite(), upper.is_finite());
            if upper_ref.is_finite() {
                assert!((f64::from(upper) - upper_ref).abs() <= 2e-6);
            }
        }
    }

    /// The delta-path per-model fill and the columnar per-slot fill are the
    /// same computation bit for bit.
    #[test]
    fn model_and_columnar_cells_are_bit_identical() {
        let models: Vec<Option<StrategyModel>> = (0..9)
            .map(|i| {
                Some(StrategyModel::new(
                    line(0.3 + 0.05 * f64::from(i), 0.4),
                    line(-0.4, 0.9 - 0.03 * f64::from(i)),
                    line(-0.25, 0.8),
                ))
            })
            .collect();
        let coeffs = KernelCoeffs::collect(&models);
        let t = Thresholds::of(&DeploymentParameters::clamped(0.7, 0.55, 0.6));
        for (slot, model) in models.iter().enumerate() {
            let columnar = cell_requirement_f32(&coeffs, slot, t);
            let scalar = model_requirement_f32(&model.unwrap(), t);
            assert_eq!(columnar.to_bits(), scalar.to_bits(), "slot {slot}");
        }
    }

    #[test]
    fn precision_labels_are_stable() {
        assert_eq!(Precision::F64.label(), "f64");
        assert_eq!(Precision::F32.label(), "f32");
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(Precision::ALL, [Precision::F64, Precision::F32]);
    }
}
