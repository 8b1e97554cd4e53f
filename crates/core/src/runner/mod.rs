//! Executing pairwise computations under a distribution scheme.
//!
//! Three backends over the same inputs:
//!
//! * [`sequential`] — single-threaded reference (the paper's trivial
//!   solution `b = 1`); ground truth for tests.
//! * [`local`] — multi-threaded shared-memory execution of a scheme's
//!   tasks; what a downstream user wants on one machine.
//! * [`mr`] — the paper's actual construction: two chained MapReduce jobs
//!   (Algorithms 1 and 2) on the simulated cluster, or the single-job
//!   distributed-cache variant for the broadcast scheme (§5.1).
//!
//! All backends produce a [`PairwiseOutput`]: per element, the aggregated
//! list of `(other element, result)` — the storage organization of the
//! paper's Figure 2.
//!
//! The [`job`] module's [`PairwiseJob`] builder is the unified entry point
//! over all three. The dataset is ingested once into an id-indexed
//! [`store::ElementStore`] shared by every backend: working sets carry
//! element ids, tasks resolve ids through a node-local store handle, and
//! replicated payload bytes are *charged* to the paper's cost model
//! without being *moved*.

mod check;
pub mod filter;
pub mod job;
pub mod kernel;
pub mod local;
pub mod mr;
mod place;
pub mod sequential;
pub mod store;

pub use filter::{
    PairFilter, PruneStats, CANDIDATE_PAIRS_COUNTER, EVALUATED_PAIRS_COUNTER, PRUNED_PAIRS_COUNTER,
};
pub use job::{Backend, PairwiseJob, PairwiseRun};
pub use kernel::BatchComp;
pub use store::ElementStore;

use std::sync::Arc;

/// The pairwise function `comp` evaluated on payload pairs.
pub type CompFn<T, R> = Arc<dyn Fn(&T, &T) -> R + Send + Sync + 'static>;

/// Wraps a closure into a [`CompFn`].
pub fn comp_fn<T, R>(f: impl Fn(&T, &T) -> R + Send + Sync + 'static) -> CompFn<T, R> {
    Arc::new(f)
}

/// Whether `comp` is symmetric (paper's default assumption) or must be
/// evaluated in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Symmetry {
    /// `comp(a, b) = comp(b, a)`: evaluated once per unordered pair, the
    /// result stored with both elements.
    #[default]
    Symmetric,
    /// Evaluated separately in each direction: `comp(a, b)` stored with
    /// `a`, `comp(b, a)` stored with `b` (the paper's "only marginal
    /// modifications" remark).
    NonSymmetric,
}

/// Streaming aggregation state for one element: the partial `(other,
/// result)` list an [`Aggregator`] folds pair results into. A concrete
/// struct rather than an associated type so `dyn Aggregator<R>` stays
/// object-safe everywhere the runners pass trait objects.
#[derive(Debug, Clone)]
pub struct Accumulator<R> {
    element: u64,
    partials: Vec<(u64, R)>,
    /// How many leading partials the last [`TopKAggregator`] compaction
    /// left sorted. Its folds and merges only append behind them;
    /// `from_parts` and `partials_mut` set the count back to 0.
    ranked: usize,
}

impl<R> Accumulator<R> {
    /// An empty accumulator for `element`.
    pub fn new(element: u64) -> Self {
        Accumulator { element, partials: Vec::new(), ranked: 0 }
    }

    /// Rebuilds an accumulator from partials a previous fold produced
    /// (e.g. read back off the wire between fused MR stages).
    pub fn from_parts(element: u64, partials: Vec<(u64, R)>) -> Self {
        Accumulator { element, partials, ranked: 0 }
    }

    /// The element this accumulator belongs to.
    pub fn element(&self) -> u64 {
        self.element
    }

    /// The partials folded so far.
    pub fn partials(&self) -> &[(u64, R)] {
        &self.partials
    }

    /// Mutable partial list, for aggregators that compact in place.
    pub fn partials_mut(&mut self) -> &mut Vec<(u64, R)> {
        self.ranked = 0;
        &mut self.partials
    }

    /// Number of partials currently held.
    pub fn len(&self) -> usize {
        self.partials.len()
    }

    /// True when nothing has been folded in (or survived folding).
    pub fn is_empty(&self) -> bool {
        self.partials.is_empty()
    }

    /// Consumes the accumulator, returning its partial list.
    pub fn into_partials(self) -> Vec<(u64, R)> {
        self.partials
    }
}

/// Two accumulators are equal when they hold the same partials for the
/// same element, however they were compacted.
impl<R: PartialEq> PartialEq for Accumulator<R> {
    fn eq(&self, other: &Self) -> bool {
        self.element == other.element && self.partials == other.partials
    }
}

/// Application-defined merge of the partial result lists collected from an
/// element's copies (the paper's `aggregateResults`), expressed as a
/// streaming fold: [`init`](Aggregator::init) an [`Accumulator`],
/// [`fold`](Aggregator::fold) each `(other, result)` in as pairs are
/// evaluated, [`finish`](Aggregator::finish) to produce the element's
/// final list.
///
/// Implementations override `fold` as needed and `finish` always (and
/// implement [`DecomposableAggregator`] when the fold is order-insensitive,
/// which lets every backend fuse aggregation into pair evaluation). For
/// one-shot closures, see [`FnAggregator`].
///
/// **Partial order.** Every backend applies one rule: a decomposable
/// aggregator on a fused run folds its partials as pairs are evaluated;
/// any other aggregator receives each element's partials once, all of
/// them, in ascending neighbour id — on every backend and plan, fused or
/// not.
pub trait Aggregator<R>: Send + Sync {
    /// Creates the accumulator for `element`.
    fn init(&self, element: u64) -> Accumulator<R> {
        Accumulator::new(element)
    }

    /// Folds one `(other, result)` partial into the accumulator.
    fn fold(&self, acc: &mut Accumulator<R>, other: u64, result: R) {
        acc.partials.push((other, result));
    }

    /// Produces the element's final `(other, result)` list.
    fn finish(&self, acc: Accumulator<R>) -> Vec<(u64, R)>;

    /// Advertises the decomposable capability. Returning `Some` promises
    /// the decomposability law (see [`DecomposableAggregator`]) and lets
    /// a fused run fold each result as its pair is evaluated, instead of
    /// gathering an element's partials and aggregating them once.
    fn decomposable(&self) -> Option<&dyn DecomposableAggregator<R>> {
        None
    }
}

/// Capability for aggregators whose fold is commutative/associative enough
/// to split: folding any partition of an element's partials into separate
/// accumulators and [`merge`](DecomposableAggregator::merge)-ing them in
/// any order, then finishing, must equal one sequential fold — the
/// *decomposability law*, property-tested in
/// `crates/core/tests/aggregator_laws.rs` for every built-in.
pub trait DecomposableAggregator<R>: Aggregator<R> {
    /// Merges `other` into `acc`; both belong to the same element.
    fn merge(&self, acc: &mut Accumulator<R>, other: Accumulator<R>);

    /// Whether the finished list of an element is exactly all of its
    /// partials in ascending neighbour id, with nothing dropped or
    /// combined. Returning `true` lets a run that covers every pair once
    /// write each result straight into its place in an exact-size row
    /// instead of folding, merging and finishing (see `runner::place`),
    /// and an unfused run keep the row [`ConcatSort`] finished as it is.
    fn places_rows(&self) -> bool {
        false
    }
}

/// The one aggregation rule every runner applies: `(dec, then)` for an
/// aggregator on a fused or unfused run. A decomposable aggregator on a
/// fused run collects under itself and `then` is `None`. Anything else
/// collects under [`ConcatSort`], and `then` is the aggregator, run once
/// on each finished row — every partial, in ascending neighbour id —
/// unless it places rows: its finish would return that row as it is, so
/// the row is sorted once.
pub(crate) fn aggregation_rule<R>(
    aggregator: &dyn Aggregator<R>,
    fuse: bool,
) -> (&dyn DecomposableAggregator<R>, Option<&dyn Aggregator<R>>) {
    match aggregator.decomposable() {
        Some(dec) if fuse => (dec, None),
        Some(dec) if dec.places_rows() => (&ConcatSort, None),
        _ => (&ConcatSort, Some(aggregator)),
    }
}

/// One-shot aggregation of all partials gathered for `element`, routed
/// through the streaming API.
pub fn aggregate_all<R>(
    aggregator: &dyn Aggregator<R>,
    element: u64,
    partials: Vec<(u64, R)>,
) -> Vec<(u64, R)> {
    let mut acc = aggregator.init(element);
    for (other, result) in partials {
        aggregator.fold(&mut acc, other, result);
    }
    aggregator.finish(acc)
}

/// Adapts a one-shot closure `(element, partials) -> merged` into an
/// [`Aggregator`] — the blanket path for user logic with no streaming
/// form. Deliberately not decomposable: the closure sees every partial of
/// an element at once, in ascending neighbour id, on every backend (see
/// [`Aggregator`]).
pub struct FnAggregator<R, F: Fn(u64, Vec<(u64, R)>) -> Vec<(u64, R)> + Send + Sync> {
    f: F,
    _pd: std::marker::PhantomData<fn() -> R>,
}

impl<R, F: Fn(u64, Vec<(u64, R)>) -> Vec<(u64, R)> + Send + Sync> FnAggregator<R, F> {
    /// Wraps a one-shot aggregation closure.
    pub fn new(f: F) -> Self {
        FnAggregator { f, _pd: std::marker::PhantomData }
    }
}

impl<R: Send, F: Fn(u64, Vec<(u64, R)>) -> Vec<(u64, R)> + Send + Sync> Aggregator<R>
    for FnAggregator<R, F>
{
    fn finish(&self, acc: Accumulator<R>) -> Vec<(u64, R)> {
        (self.f)(acc.element, acc.partials)
    }
}

/// Default aggregator: concatenates all partials and sorts them by the
/// other element's id — the full neighbor list of Figure 2. Decomposable:
/// concatenation order is erased by the final sort (neighbor ids are
/// unique under an exactly-once scheme).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcatSort;

impl<R> Aggregator<R> for ConcatSort {
    fn finish(&self, acc: Accumulator<R>) -> Vec<(u64, R)> {
        let mut partials = acc.partials;
        sort_by_neighbor(&mut partials);
        partials
    }

    fn decomposable(&self) -> Option<&dyn DecomposableAggregator<R>> {
        Some(self)
    }
}

impl<R> DecomposableAggregator<R> for ConcatSort {
    fn merge(&self, acc: &mut Accumulator<R>, other: Accumulator<R>) {
        acc.partials.extend(other.partials);
    }

    fn places_rows(&self) -> bool {
        true
    }
}

/// Sorts partials by neighbor id — a stable counting sort when the key
/// range is dense (the common case: ids are 0..v), falling back to the
/// comparison sort otherwise. Both orders are identical (the counting sort
/// is stable, and exactly-once schemes make the keys unique anyway), so
/// which branch runs never changes the output.
fn sort_by_neighbor<R>(partials: &mut [(u64, R)]) {
    let n = partials.len();
    if n >= 64 {
        let (mut min, mut max) = (u64::MAX, 0u64);
        for &(o, _) in partials.iter() {
            min = min.min(o);
            max = max.max(o);
        }
        let range = (max - min) as usize + 1;
        if range <= 4 * n {
            // Stable counting sort: compute each entry's target position,
            // then apply the permutation in place by cycle-chasing (no
            // clone of R needed).
            let mut starts = vec![0u32; range];
            for &(o, _) in partials.iter() {
                starts[(o - min) as usize] += 1;
            }
            let mut sum = 0u32;
            for s in starts.iter_mut() {
                let c = *s;
                *s = sum;
                sum += c;
            }
            let mut target: Vec<u32> = partials
                .iter()
                .map(|&(o, _)| {
                    let slot = &mut starts[(o - min) as usize];
                    let t = *slot;
                    *slot += 1;
                    t
                })
                .collect();
            for i in 0..n {
                while target[i] as usize != i {
                    let j = target[i] as usize;
                    partials.swap(i, j);
                    target.swap(i, j);
                }
            }
            return;
        }
    }
    partials.sort_unstable_by_key(|(other, _)| *other);
}

/// Keeps only results passing a predicate (the paper's DBSCAN remark:
/// "function evaluations are only interesting if they fulfill certain
/// requirements, e.g., a distance to be less than a threshold").
pub struct FilterAggregator<R, F: Fn(&R) -> bool + Send + Sync> {
    predicate: F,
    _pd: std::marker::PhantomData<fn() -> R>,
}

impl<R, F: Fn(&R) -> bool + Send + Sync> FilterAggregator<R, F> {
    /// Creates a filtering aggregator.
    pub fn new(predicate: F) -> Self {
        FilterAggregator { predicate, _pd: std::marker::PhantomData }
    }
}

impl<R: Send, F: Fn(&R) -> bool + Send + Sync> Aggregator<R> for FilterAggregator<R, F> {
    /// Drops failing results at the fold, so pruned partials never occupy
    /// accumulator (or, fused, network) space.
    fn fold(&self, acc: &mut Accumulator<R>, other: u64, result: R) {
        if (self.predicate)(&result) {
            acc.partials.push((other, result));
        }
    }

    fn finish(&self, acc: Accumulator<R>) -> Vec<(u64, R)> {
        // Thresholded runs are often sparse: skip the sort (and the
        // counting-sort allocation) when nothing survived the predicate.
        if acc.partials.is_empty() {
            return Vec::new();
        }
        let mut partials = acc.partials;
        sort_by_neighbor(&mut partials);
        partials
    }

    fn decomposable(&self) -> Option<&dyn DecomposableAggregator<R>> {
        Some(self)
    }
}

impl<R: Send, F: Fn(&R) -> bool + Send + Sync> DecomposableAggregator<R>
    for FilterAggregator<R, F>
{
    fn merge(&self, acc: &mut Accumulator<R>, other: Accumulator<R>) {
        // Both sides already passed the predicate at their folds.
        acc.partials.extend(other.partials);
    }
}

/// Keeps only the `k` nearest results by a caller-supplied score (smaller =
/// kept first).
pub struct TopKAggregator<R, F: Fn(&R) -> f64 + Send + Sync> {
    k: usize,
    score: F,
    _pd: std::marker::PhantomData<fn() -> R>,
}

impl<R, F: Fn(&R) -> f64 + Send + Sync> TopKAggregator<R, F> {
    /// Creates a top-k aggregator keeping the `k` smallest-scored results.
    pub fn new(k: usize, score: F) -> Self {
        TopKAggregator { k, score, _pd: std::marker::PhantomData }
    }

    /// The `(score, id)` order — strict and total since neighbor ids are
    /// unique per element; smaller is better.
    fn order(&self, (oa, ra): &(u64, R), (ob, rb): &(u64, R)) -> std::cmp::Ordering {
        (self.score)(ra).total_cmp(&(self.score)(rb)).then(oa.cmp(ob))
    }

    /// Sorts by [`order`](Self::order) and keeps the `k` best. The `k`
    /// best of any subset contain that subset's contribution to the global
    /// `k` best, so compacting intermediate accumulators never changes the
    /// finished list.
    fn compact(&self, acc: &mut Accumulator<R>) {
        acc.partials.sort_unstable_by(|a, b| self.order(a, b));
        acc.partials.truncate(self.k);
        acc.ranked = acc.partials.len();
    }

    fn compaction_threshold(&self) -> usize {
        (2 * self.k).max(16)
    }
}

impl<R: Send, F: Fn(&R) -> f64 + Send + Sync> Aggregator<R> for TopKAggregator<R, F> {
    /// Keeps the accumulator bounded at O(k): the buffer is compacted back
    /// to `k` entries whenever it doubles past it. Once a compaction has
    /// left the `k` best in front, a partial ordered after the `k`-th of
    /// them cannot reach the finished list and is dropped before the push.
    fn fold(&self, acc: &mut Accumulator<R>, other: u64, result: R) {
        let partial = (other, result);
        if self.k > 0
            && acc.ranked == self.k
            && self.order(&partial, &acc.partials[self.k - 1]).is_gt()
        {
            return;
        }
        acc.partials.push(partial);
        if acc.partials.len() >= self.compaction_threshold() {
            self.compact(acc);
        }
    }

    fn finish(&self, mut acc: Accumulator<R>) -> Vec<(u64, R)> {
        if acc.partials.is_empty() {
            return Vec::new();
        }
        self.compact(&mut acc);
        acc.partials
    }

    fn decomposable(&self) -> Option<&dyn DecomposableAggregator<R>> {
        Some(self)
    }
}

impl<R: Send, F: Fn(&R) -> f64 + Send + Sync> DecomposableAggregator<R> for TopKAggregator<R, F> {
    /// Folds `other`'s partials in one at a time: the merged accumulator
    /// keeps its bar and stays within the fold's bound, where appending
    /// both lists whole could double its buffer.
    fn merge(&self, acc: &mut Accumulator<R>, other: Accumulator<R>) {
        for (other, result) in other.partials {
            self.fold(acc, other, result);
        }
    }
}

/// Per-element aggregated results — the paper's Figure 2 layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseOutput<R> {
    /// `(element id, aggregated (other, result) list)`, ascending by id.
    pub per_element: Vec<(u64, Vec<(u64, R)>)>,
}

impl<R> PairwiseOutput<R> {
    /// The result list of one element, if present.
    pub fn results_of(&self, element: u64) -> Option<&[(u64, R)]> {
        self.per_element
            .binary_search_by_key(&element, |(id, _)| *id)
            .ok()
            .map(|i| self.per_element[i].1.as_slice())
    }

    /// Total number of stored `(other, result)` entries.
    pub fn total_results(&self) -> usize {
        self.per_element.iter().map(|(_, rs)| rs.len()).sum()
    }
}

/// Finishes a dense id-indexed accumulator vector (`accs[id]` holds
/// element `id`'s state) into a sorted [`PairwiseOutput`] — the hot-path
/// layout of the local and sequential runners. Already sorted by
/// construction.
pub(crate) fn finalize_dense<R>(
    accs: Vec<Accumulator<R>>,
    aggregator: &dyn Aggregator<R>,
) -> PairwiseOutput<R> {
    let per_element = accs
        .into_iter()
        .map(|acc| {
            let id = acc.element();
            (id, aggregator.finish(acc))
        })
        .collect();
    PairwiseOutput { per_element }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_sort_orders_by_neighbor() {
        let agg = ConcatSort;
        let out = aggregate_all(&agg, 0, vec![(3u64, 30.0f64), (1, 10.0), (2, 20.0)]);
        assert_eq!(out, vec![(1, 10.0), (2, 20.0), (3, 30.0)]);
    }

    #[test]
    fn filter_aggregator_prunes() {
        let agg = FilterAggregator::new(|r: &f64| *r < 15.0);
        let out = aggregate_all(&agg, 0, vec![(3u64, 30.0f64), (1, 10.0), (2, 20.0)]);
        assert_eq!(out, vec![(1, 10.0)]);
    }

    #[test]
    fn filter_aggregator_empty_fold_skips_sort() {
        let agg = FilterAggregator::new(|r: &f64| *r < 0.0);
        let mut acc = agg.init(7);
        agg.fold(&mut acc, 1, 10.0);
        assert!(acc.is_empty(), "failing results must be dropped at the fold");
        assert_eq!(agg.finish(acc), Vec::<(u64, f64)>::new());
    }

    #[test]
    fn topk_keeps_smallest() {
        let agg = TopKAggregator::new(2, |r: &f64| *r);
        let out = aggregate_all(&agg, 0, vec![(3u64, 30.0f64), (1, 10.0), (2, 20.0)]);
        assert_eq!(out, vec![(1, 10.0), (2, 20.0)]);
    }

    #[test]
    fn topk_fold_stays_bounded() {
        let agg = TopKAggregator::new(3, |r: &f64| *r);
        let mut acc = agg.init(0);
        for i in 0..1000u64 {
            agg.fold(&mut acc, i + 1, 1000.0 - i as f64);
        }
        assert!(acc.len() < agg.compaction_threshold(), "fold must compact in place");
        let out = agg.finish(acc);
        assert_eq!(out, vec![(1000, 1.0), (999, 2.0), (998, 3.0)]);
    }

    #[test]
    fn fn_aggregator_adapts_closures() {
        let agg = FnAggregator::new(|_element, mut partials: Vec<(u64, u64)>| {
            partials.retain(|(_, r)| *r % 2 == 0);
            partials.sort_unstable();
            partials
        });
        assert!(Aggregator::<u64>::decomposable(&agg).is_none());
        let out = aggregate_all(&agg, 3, vec![(5u64, 7u64), (4, 8), (2, 2)]);
        assert_eq!(out, vec![(2, 2), (4, 8)]);
    }

    #[test]
    fn merge_equals_single_fold_for_builtins() {
        let partials = vec![(9u64, 5.0f64), (3, 1.0), (7, 5.0), (1, 2.0), (5, 0.5)];
        let agg = TopKAggregator::new(2, |r: &f64| *r);
        let mut left = agg.init(0);
        let mut right = agg.init(0);
        for (i, (o, r)) in partials.iter().enumerate() {
            let acc = if i % 2 == 0 { &mut left } else { &mut right };
            agg.fold(acc, *o, *r);
        }
        agg.merge(&mut left, right);
        assert_eq!(agg.finish(left), aggregate_all(&agg, 0, partials));
    }

    #[test]
    fn output_lookup() {
        let out =
            PairwiseOutput { per_element: vec![(0, vec![(1u64, 1.0f64)]), (1, vec![(0, 1.0)])] };
        assert_eq!(out.results_of(1), Some(&[(0u64, 1.0f64)][..]));
        assert_eq!(out.results_of(9), None);
        assert_eq!(out.total_results(), 2);
    }
}
