//! Single-threaded reference execution: the paper's trivial solution
//! (`b = 1`, `D₁ = S`, `P₁` the full strict upper triangle).
//!
//! Runs through the same tiled evaluation core as the parallel backends
//! (the stream here is the full triangle rather than one task's share),
//! so the ground truth exercises the identical kernel code path.

use crate::runner::filter::{PairFilter, PruneStats};
use crate::runner::kernel::{evaluate_tiled, BatchComp, Pairs};
use crate::runner::{finalize_dense, Accumulator, Aggregator, PairwiseOutput, Symmetry};

/// Evaluates `kernel` on all pairs of `payloads` sequentially. Element `i`
/// of the slice has id `i`. Ground truth for every other backend; a
/// [`CompFn`](crate::runner::CompFn) is a kernel, so `&comp` works too.
pub fn run_sequential<T, R: Clone>(
    payloads: &[T],
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
) -> PairwiseOutput<R> {
    run_sequential_impl(payloads, kernel, symmetry, aggregator, None).0
}

/// The shared core: streams the full strict upper triangle, optionally
/// through a [`PairFilter`] (pruned pairs never reach a tile). The filter
/// probes every pair here, never generates: this is the oracle the
/// generating backends are checked against. Returns the
/// output, the evaluations performed, and — only when a filter was
/// active — the enumerated/pruned tallies.
///
/// An element's partials reach the aggregator in ascending neighbour id:
/// `a` meets `0..a` first, then every `b > a` in turn.
pub(crate) fn run_sequential_impl<T, R: Clone>(
    payloads: &[T],
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    aggregator: &dyn Aggregator<R>,
    filter: Option<&dyn PairFilter>,
) -> (PairwiseOutput<R>, u64, Option<PruneStats>) {
    let v = payloads.len() as u64;
    // Stream straight into per-element accumulators: with the default fold
    // this is the old bucket layout, and a decomposable aggregator gets to
    // filter/compact while the pair results are still tile-hot.
    let mut accs: Vec<Accumulator<R>> = (0..v).map(|id| aggregator.init(id)).collect();
    let (evals, prune) = evaluate_tiled(
        kernel,
        symmetry,
        filter,
        |id| &payloads[id as usize],
        Pairs::Stream(&|f| {
            for a in 1..v {
                for b in 0..a {
                    f(a, b);
                }
            }
        }),
        |a, b, rf, rr| {
            let rb = rr.unwrap_or_else(|| rf.clone());
            aggregator.fold(&mut accs[a as usize], b, rf);
            aggregator.fold(&mut accs[b as usize], a, rb);
        },
    );
    (finalize_dense(accs, aggregator), evals, filter.map(|_| prune))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{comp_fn, ConcatSort};

    #[test]
    fn all_pairs_of_integers() {
        let payloads: Vec<i64> = vec![10, 20, 30];
        let comp = comp_fn(|a: &i64, b: &i64| (a - b).abs());
        let out = run_sequential(&payloads, &comp, Symmetry::Symmetric, &ConcatSort);
        assert_eq!(out.per_element.len(), 3);
        assert_eq!(out.results_of(0).unwrap(), &[(1, 10), (2, 20)]);
        assert_eq!(out.results_of(1).unwrap(), &[(0, 10), (2, 10)]);
        assert_eq!(out.results_of(2).unwrap(), &[(0, 20), (1, 10)]);
        // v−1 results per element (Figure 2).
        assert_eq!(out.total_results(), 3 * 2);
    }

    #[test]
    fn non_symmetric_directional() {
        let payloads: Vec<i64> = vec![1, 5];
        let comp = comp_fn(|a: &i64, b: &i64| a - b);
        let out = run_sequential(&payloads, &comp, Symmetry::NonSymmetric, &ConcatSort);
        assert_eq!(out.results_of(0).unwrap(), &[(1, -4)]); // comp(p0, p1)
        assert_eq!(out.results_of(1).unwrap(), &[(0, 4)]); // comp(p1, p0)
    }

    #[test]
    fn empty_and_singleton() {
        let comp = comp_fn(|a: &i64, b: &i64| a + b);
        let out = run_sequential(&[], &comp, Symmetry::Symmetric, &ConcatSort);
        assert!(out.per_element.is_empty());
        let out = run_sequential(&[7], &comp, Symmetry::Symmetric, &ConcatSort);
        assert_eq!(out.per_element.len(), 1);
        assert!(out.results_of(0).unwrap().is_empty());
    }
}
