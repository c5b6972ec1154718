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

/// Reusable working memory for [`k_smallest_indices_into`]: the bounded
/// selection heap and its drain buffer.
///
/// Row-at-a-time callers (the workforce-matrix aggregation walks `m` rows
/// with the same `k`) keep one scratch and pay for the heap allocation once
/// instead of per row. A fresh scratch and a reused one produce identical
/// selections.
#[derive(Debug, Clone, Default)]
pub struct TopKScratch {
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
}

/// Returns the indices of the `k` smallest values, ordered by ascending
/// value (ties broken by ascending index), using a bounded max-heap so the
/// cost is `O(n log k)` rather than `O(n log n)`.
///
/// Non-finite values (`NaN`, `±∞`) are skipped: in StratRec an infinite
/// workforce requirement means the strategy can never reach the requested
/// threshold, so it must not be recommended. If fewer than `k` finite values
/// exist, all of them are returned (callers detect the shortfall by length).
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
    out.clear();
    if k == 0 {
        return;
    }
    let heap = &mut scratch.heap;
    heap.clear();
    for (idx, &value) in values.iter().enumerate() {
        if !value.is_finite() {
            continue;
        }
        if heap.len() < k {
            heap.push((OrdF64(value), idx));
        } else if let Some(&(OrdF64(worst), worst_idx)) = heap.peek() {
            if value < worst || (value == worst && idx < worst_idx) {
                heap.pop();
                heap.push((OrdF64(value), idx));
            }
        }
    }
    scratch.sorted.clear();
    scratch.sorted.extend(heap.drain().map(|(v, i)| (v.0, i)));
    scratch
        .sorted
        .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    out.extend(scratch.sorted.iter().map(|&(_, i)| i));
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

/// Fused top-k selection + aggregation: fills `out` exactly like
/// [`k_smallest_indices_into`] and computes both row aggregates from the
/// same drained, sorted buffer — one pass over the row for selection, sum
/// and k-th value together. Returns `None` when `k == 0` or fewer than `k`
/// finite values exist (`out` then holds the shortfall selection).
///
/// This is **the** aggregation primitive: cold aggregation
/// (`WorkforceMatrix::aggregate`), cache priming and cache repair all
/// route through it, so every path sums the same values in the same order
/// and is bit-identical by construction.
pub fn k_smallest_aggregates_into(
    values: &[f64],
    k: usize,
    scratch: &mut TopKScratch,
    out: &mut Vec<usize>,
) -> Option<TopKAggregates> {
    k_smallest_indices_into(values, k, scratch, out);
    if k == 0 || out.len() < k {
        return None;
    }
    let mut sum = 0.0;
    for &(value, _) in &scratch.sorted {
        sum += value;
    }
    let kth = scratch
        .sorted
        .last()
        .expect("k >= 1 so the selection is non-empty")
        .0;
    Some(TopKAggregates { sum, kth })
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

    proptest! {
        #[test]
        fn heap_matches_sort_reference(
            values in proptest::collection::vec(-1e3_f64..1e3, 0..64),
            k in 0_usize..20,
        ) {
            prop_assert_eq!(
                k_smallest_indices(&values, k),
                k_smallest_indices_by_sort(&values, k)
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
