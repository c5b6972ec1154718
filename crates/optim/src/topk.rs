//! Top-k selection primitives.
//!
//! The workforce-requirement computation of the paper (§3.2) needs, for every
//! deployment request, the `k` smallest workforce values in a row of the
//! matrix `W` — either their sum (*sum-case*) or the `k`-th smallest value
//! (*max-case*). The paper suggests min-heaps for an `O(|S| log k)` bound;
//! this module provides exactly that plus a sort-based reference used in
//! tests and ablation benchmarks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A float wrapper ordering NaN last so it can live inside a [`BinaryHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Reusable working memory for a bounded top-k selection: the selection
/// heap and its drain buffer.
///
/// A selection is a [`begin`](Self::begin) / [`offer`](Self::offer) /
/// [`finish`](Self::finish) stream. [`k_smallest_indices_into`] and
/// [`k_smallest_aggregates_into`] offer a slice's values in index order;
/// callers that never materialise a row (the catalog path walks only a
/// request's eligible slots) offer `(value, index)` pairs in any order.
/// Candidates are ranked by `(value, index)` under `f64::total_cmp`, a total
/// order with unique keys, so the selection, its sum and its `k`-th value
/// do not depend on the order of the offers.
///
/// Row-at-a-time callers keep one scratch and pay for the heap allocation
/// once instead of per row. A fresh scratch and a reused one produce
/// identical selections.
#[derive(Debug, Clone, Default)]
pub struct TopKScratch {
    /// Selection size of the stream in progress.
    k: usize,
    /// Max-heap of `(value, index)` keeping the `k` smallest seen so far.
    heap: BinaryHeap<(OrdF64, usize)>,
    /// Heap drain-and-sort buffer.
    sorted: Vec<(f64, usize)>,
}

impl TopKScratch {
    /// Creates an empty scratch; buffers grow to `k` on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new selection of the `k` smallest finite offered values,
    /// discarding any unfinished one.
    pub fn begin(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Offers the candidate `value` at `index`. Non-finite values (`NaN`,
    /// `±∞`) are skipped: in StratRec an infinite workforce requirement means
    /// the strategy can never reach the requested threshold. Each index must
    /// be offered at most once per selection.
    #[inline]
    pub fn offer(&mut self, value: f64, index: usize) {
        if !value.is_finite() || self.k == 0 {
            return;
        }
        let candidate = (OrdF64(value), index);
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// Ends the selection: writes the selected indices into `out` (cleared
    /// first) by ascending `(value, index)` and returns both row aggregates,
    /// accumulated in that order. Returns `None` when `k == 0` or fewer than
    /// `k` finite values were offered (`out` then holds the shortfall
    /// selection).
    pub fn finish(&mut self, out: &mut Vec<usize>) -> Option<TopKAggregates> {
        out.clear();
        self.sorted.clear();
        self.sorted
            .extend(self.heap.drain().map(|(value, index)| (value.0, index)));
        self.sorted
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.extend(self.sorted.iter().map(|&(_, index)| index));
        if self.k == 0 || out.len() < self.k {
            return None;
        }
        let mut sum = 0.0;
        for &(value, _) in &self.sorted {
            sum += value;
        }
        let kth = self
            .sorted
            .last()
            .expect("k >= 1 so the selection is non-empty")
            .0;
        Some(TopKAggregates { sum, kth })
    }
}

/// Returns the indices of the `k` smallest values, ordered by ascending
/// value (ties broken by ascending index), using a bounded max-heap so the
/// cost is `O(n log k)` rather than `O(n log n)`.
///
/// Values are ranked by `f64::total_cmp`, so `-0.0` sorts before `0.0`.
/// Non-finite values (`NaN`, `±∞`) are skipped. If fewer than `k` finite
/// values exist, all of them are returned (callers detect the shortfall by
/// length).
#[must_use]
pub fn k_smallest_indices(values: &[f64], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    k_smallest_indices_into(values, k, &mut TopKScratch::new(), &mut out);
    out
}

/// [`k_smallest_indices`] writing the selection into a caller-provided
/// buffer (cleared first) and reusing `scratch` for the heap, so repeated
/// row selections allocate nothing in steady state.
pub fn k_smallest_indices_into(
    values: &[f64],
    k: usize,
    scratch: &mut TopKScratch,
    out: &mut Vec<usize>,
) {
    k_smallest_aggregates_into(values, k, scratch, out);
}

/// The row aggregates one fused [`k_smallest_aggregates_into`] pass yields
/// alongside the selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKAggregates {
    /// Sum of the `k` selected values, accumulated in ascending
    /// `(value, index)` order (the *sum-case* aggregation).
    pub sum: f64,
    /// The `k`-th smallest (= largest selected) value (the *max-case*
    /// aggregation).
    pub kth: f64,
}

/// Fused top-k selection + aggregation over a slice: offers every value to
/// the scratch's selection in index order ([`TopKScratch::offer`]) and
/// returns [`TopKScratch::finish`]: `out` holds the selection, and the sum
/// and `k`-th value come from the same sorted buffer. Returns `None` when
/// `k == 0` or fewer than `k` finite values exist.
///
/// The matrix aggregation (`WorkforceMatrix::aggregate`) and the streamed
/// catalog path both end in the same `begin` / `offer` / `finish` stream,
/// so they select, sum and rank with one comparator and are bit-identical
/// by construction.
pub fn k_smallest_aggregates_into(
    values: &[f64],
    k: usize,
    scratch: &mut TopKScratch,
    out: &mut Vec<usize>,
) -> Option<TopKAggregates> {
    scratch.begin(k);
    for (index, &value) in values.iter().enumerate() {
        scratch.offer(value, index);
    }
    scratch.finish(out)
}

/// Sort-based reference implementation of [`k_smallest_indices`], `O(n log n)`.
///
/// Exists for differential testing and for the ablation benchmark comparing
/// heap-based selection against a full sort.
#[must_use]
pub fn k_smallest_indices_by_sort(values: &[f64], k: usize) -> Vec<usize> {
    let mut indexed: Vec<(f64, usize)> = values
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .map(|(i, v)| (v, i))
        .collect();
    indexed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    indexed.truncate(k);
    indexed.into_iter().map(|(_, i)| i).collect()
}

/// Sum of the `k` smallest finite values (the paper's *sum-case* aggregation).
/// Returns `None` when fewer than `k` finite values exist; summing zero
/// values is well-defined, so `k == 0` yields `Some(0.0)`.
#[must_use]
pub fn sum_of_k_smallest(values: &[f64], k: usize) -> Option<f64> {
    if k == 0 {
        return Some(0.0);
    }
    k_smallest_aggregates_into(values, k, &mut TopKScratch::new(), &mut Vec::new())
        .map(|aggregates| aggregates.sum)
}

/// The `k`-th smallest finite value (the paper's *max-case* aggregation).
/// Returns `None` when fewer than `k` finite values exist (there is no
/// 0-th smallest value).
#[must_use]
pub fn kth_smallest(values: &[f64], k: usize) -> Option<f64> {
    k_smallest_aggregates_into(values, k, &mut TopKScratch::new(), &mut Vec::new())
        .map(|aggregates| aggregates.kth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn k_zero_returns_empty() {
        assert!(k_smallest_indices(&[1.0, 2.0], 0).is_empty());
        assert_eq!(sum_of_k_smallest(&[1.0], 0), Some(0.0));
        assert_eq!(kth_smallest(&[1.0], 0), None);
    }

    #[test]
    fn selects_smallest_in_order() {
        let values = [0.5, 0.1, 0.9, 0.3, 0.2];
        assert_eq!(k_smallest_indices(&values, 3), vec![1, 4, 3]);
    }

    #[test]
    fn skips_non_finite_values() {
        let values = [f64::NAN, 0.4, f64::INFINITY, 0.2];
        assert_eq!(k_smallest_indices(&values, 2), vec![3, 1]);
        assert_eq!(k_smallest_indices(&values, 4), vec![3, 1]);
    }

    #[test]
    fn sum_and_kth_match_manual_computation() {
        let values = [0.5, 0.1, 0.9, 0.3, 0.2];
        assert!((sum_of_k_smallest(&values, 3).unwrap() - 0.6).abs() < 1e-12);
        assert!((kth_smallest(&values, 3).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn shortfall_is_signalled() {
        let values = [0.5, f64::INFINITY];
        assert_eq!(sum_of_k_smallest(&values, 2), None);
        assert_eq!(kth_smallest(&values, 2), None);
        assert_eq!(k_smallest_indices(&values, 2), vec![0]);
    }

    #[test]
    fn ties_are_broken_by_index() {
        let values = [0.3, 0.3, 0.3];
        assert_eq!(k_smallest_indices(&values, 2), vec![0, 1]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_selection() {
        let mut scratch = TopKScratch::new();
        let mut out = Vec::new();
        let rows: [&[f64]; 4] = [
            &[0.5, 0.1, 0.9, 0.3, 0.2],
            &[f64::INFINITY, 0.4, f64::NAN, 0.2],
            &[],
            &[0.3, 0.3, 0.3],
        ];
        for row in rows {
            for k in 0..5 {
                k_smallest_indices_into(row, k, &mut scratch, &mut out);
                assert_eq!(out, k_smallest_indices(row, k), "k = {k}, row {row:?}");
            }
        }
    }

    #[test]
    fn fused_aggregates_match_the_split_primitives() {
        let mut scratch = TopKScratch::new();
        let mut out = Vec::new();
        let rows: [&[f64]; 5] = [
            &[0.5, 0.1, 0.9, 0.3, 0.2],
            &[f64::INFINITY, 0.4, f64::NAN, 0.2],
            &[],
            &[0.3, 0.3, 0.3],
            &[0.5, f64::INFINITY],
        ];
        for row in rows {
            for k in 0..5 {
                let fused = k_smallest_aggregates_into(row, k, &mut scratch, &mut out);
                assert_eq!(out, k_smallest_indices(row, k), "k = {k}, row {row:?}");
                match fused {
                    None => {
                        assert!(k == 0 || out.len() < k, "k = {k}, row {row:?}");
                        if k > 0 {
                            assert_eq!(sum_of_k_smallest(row, k), None);
                        }
                        assert_eq!(kth_smallest(row, k), None);
                    }
                    Some(aggregates) => {
                        let sum: f64 = out.iter().map(|&i| row[i]).sum();
                        assert_eq!(aggregates.sum.to_bits(), sum.to_bits());
                        assert_eq!(
                            aggregates.kth.to_bits(),
                            row[*out.last().unwrap()].to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signed_zeros_rank_negative_first() {
        // Regression: replacement used to be decided with IEEE `<`/`==`,
        // under which `-0.0 == 0.0`, while the heap ranked by `total_cmp`.
        assert_eq!(k_smallest_indices(&[0.0, -0.0], 1), vec![1]);
        assert_eq!(k_smallest_indices_by_sort(&[0.0, -0.0], 1), vec![1]);
        assert_eq!(k_smallest_indices(&[-0.0, 0.0], 1), vec![0]);
        assert_eq!(k_smallest_indices(&[0.0, -0.0, 0.0], 2), vec![1, 0]);
        assert_eq!(
            kth_smallest(&[0.0, -0.0], 1).map(f64::to_bits),
            Some((-0.0_f64).to_bits())
        );
    }

    #[test]
    fn offers_stream_in_any_order() {
        let mut scratch = TopKScratch::new();
        let mut out = Vec::new();
        scratch.begin(2);
        for (value, index) in [(0.3, 4), (f64::NAN, 0), (0.1, 7), (0.3, 2), (0.2, 9)] {
            scratch.offer(value, index);
        }
        let aggregates = scratch.finish(&mut out).unwrap();
        assert_eq!(out, vec![7, 9]);
        assert_eq!(aggregates.kth.to_bits(), 0.2_f64.to_bits());
        // A new `begin` forgets an unfinished selection.
        scratch.begin(3);
        scratch.offer(0.5, 1);
        scratch.begin(1);
        scratch.offer(0.9, 3);
        assert_eq!(scratch.finish(&mut out).map(|a| a.sum), Some(0.9));
        assert_eq!(out, vec![3]);
        scratch.begin(0);
        scratch.offer(0.1, 0);
        assert_eq!(scratch.finish(&mut out), None);
        assert!(out.is_empty());
    }

    /// Maps a drawn `(code, x)` pair onto the values a workforce row can
    /// hold and the ones that trip float comparisons: signed zeros, values
    /// repeated across the row, `±∞` and `NaN`.
    fn edgy(code: u8, x: f64) -> f64 {
        match code {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 | 6 => (x.abs() % 4.0).floor() * 0.25,
            _ => x,
        }
    }

    proptest! {
        #[test]
        fn heap_matches_sort_reference(
            drawn in proptest::collection::vec((0_u8..10, -1e3_f64..1e3), 0..64),
            k in 0_usize..20,
        ) {
            let values: Vec<f64> = drawn.iter().map(|&(code, x)| edgy(code, x)).collect();
            prop_assert_eq!(
                k_smallest_indices(&values, k),
                k_smallest_indices_by_sort(&values, k)
            );
        }

        #[test]
        fn selection_is_invariant_under_offer_order(
            drawn in proptest::collection::vec((0_u8..10, -1e3_f64..1e3, 0.0_f64..1.0), 0..64),
            k in 0_usize..20,
        ) {
            let values: Vec<f64> = drawn.iter().map(|&(code, x, _)| edgy(code, x)).collect();
            let mut in_order = Vec::new();
            let expected = k_smallest_aggregates_into(&values, k, &mut TopKScratch::new(), &mut in_order);
            // Offer the same (value, index) pairs in a shuffled order.
            let mut order: Vec<usize> = (0..values.len()).collect();
            order.sort_by(|&a, &b| drawn[a].2.total_cmp(&drawn[b].2));
            let mut scratch = TopKScratch::new();
            scratch.begin(k);
            for &index in &order {
                scratch.offer(values[index], index);
            }
            let mut shuffled = Vec::new();
            let got = scratch.finish(&mut shuffled);
            prop_assert_eq!(&shuffled, &in_order);
            prop_assert_eq!(
                got.map(|a| (a.sum.to_bits(), a.kth.to_bits())),
                expected.map(|a| (a.sum.to_bits(), a.kth.to_bits()))
            );
        }

        #[test]
        fn returned_values_are_ascending(
            values in proptest::collection::vec(0.0_f64..1.0, 0..64),
            k in 1_usize..10,
        ) {
            let idx = k_smallest_indices(&values, k);
            for pair in idx.windows(2) {
                prop_assert!(values[pair[0]] <= values[pair[1]]);
            }
        }

        #[test]
        fn kth_smallest_is_max_of_selection(
            values in proptest::collection::vec(0.0_f64..1.0, 1..64),
            k in 1_usize..10,
        ) {
            if let Some(kth) = kth_smallest(&values, k) {
                let idx = k_smallest_indices(&values, k);
                let max = idx.iter().map(|&i| values[i]).fold(f64::MIN, f64::max);
                prop_assert!((kth - max).abs() < 1e-12);
            }
        }
    }
}
