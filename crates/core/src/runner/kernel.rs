//! Batch evaluation kernels: the hot-path alternative to per-pair
//! [`CompFn`] dispatch.
//!
//! The runners stream a task's pairs (via
//! [`DistributionScheme::for_each_pair`])
//! into a bounded tile buffer and hand whole tiles to a [`BatchComp`]
//! implementation. A kernel sees parallel operand arrays — both sides of
//! every pair in the tile — and can amortize dispatch, keep accumulators in
//! registers, and rely on the scheme's cache-blocked enumeration order to
//! find its operands L1-hot.
//!
//! A [`CompFn`] is itself a (non-batched) kernel, so a closure with no
//! vectorized form runs through the same tiles. A kernel's `eval` and
//! `eval_batch` must agree **bit-for-bit**: `eval_batch`'s default
//! implementation is the scalar loop, and overrides may reorder work
//! across *pairs* but not change the arithmetic *within* one pair.
//!
//! `evaluate_tiled` is the one evaluation core every backend calls with
//! its own sink: a task's pairs (or, for the sequential oracle, a plain
//! stream), an optional [`PairFilter`] below them, the tiles, the kernel,
//! and the prune tallies.
//!
//! **Operand runs.** Step 2 of the paper evaluates every pair *inside a
//! working set*, so one element meets many partners back to back, and a
//! tile's operand arrays repeat the *same reference* over consecutive
//! pairs. Block, design and broadcast stream first-operand-major: `a`
//! stays while `b` walks a row (a block tile is 32 runs of 32, a design
//! task runs of 1, 2, … k−1, a broadcast task whole triangle rows). A
//! quorum task walks its pair table anchor-major: the anchor `x = α + t`
//! stays over every distance its `α` owns, on the second operand until
//! `x + d` wraps past `v` and on the first after, so an anchor is at most
//! two runs; the reverse `eval_batch(b, a)` of a non-symmetric flush has
//! every run on the second operand. A filter that generates its
//! candidates hands them over first-operand-major too (one element's
//! surviving partners back to back, runs as long as its survivors); a
//! probed stream keeps what runs its survivors leave. A kernel may use a
//! run (`std::ptr::eq` on neighbouring operands) to set up per-operand
//! state once — `pmr-apps`' sparse dot loads the shared vector's weights
//! into a table that four partners probe at once — or two runs over the
//! same partners at once: its dense kernels load each chunk of two shared
//! vectors and of four common partners once for the eight pairs (a block
//! tile's runs of 32 pair up into 16 such twins, a triangle's run `r` has
//! the partners of run `r + 1` up to its last) — but only for speed: which runs a tile has, and where a tile cuts one, is up to the
//! scheme, the filter and the runner, so every result must equal `eval`
//! with no run at all.

use crate::runner::filter::{for_each_candidate, probe, PairFilter, PruneStats};
use crate::runner::{CompFn, Symmetry};
use crate::scheme::DistributionScheme;

/// Pairs buffered per tile flush. With the schemes'
/// [`TILE_EDGE`](crate::enumeration::TILE_EDGE)² = 1024-pair index tiles,
/// one flush is exactly one geometric tile, so a kernel's operand arrays
/// reference at most `2 · TILE_EDGE` distinct payloads.
pub const TILE_PAIRS: usize = 1024;

/// A pairwise function evaluated a tile at a time.
///
/// Implementations must be pure: `eval(a, b)` called twice returns the
/// same value, and `eval_batch` produces exactly what per-index `eval`
/// calls would (the default implementation *is* that loop). Runners fall
/// back to `eval` implicitly through that default, so scalar and batched
/// executions of the same kernel are bit-identical. Consecutive pairs of
/// a tile often share an operand (the module docs' *operand runs*); an
/// override may exploit that, never depend on it.
pub trait BatchComp<T, R>: Send + Sync {
    /// Evaluates one pair — the scalar fallback and the semantic ground
    /// truth for `eval_batch`.
    fn eval(&self, a: &T, b: &T) -> R;

    /// Evaluates `a[i]` vs `b[i]` for every `i`, appending the results to
    /// `out` in index order. `a` and `b` have equal length; `out` arrives
    /// cleared with capacity for the tile.
    fn eval_batch(&self, a: &[&T], b: &[&T], out: &mut Vec<R>) {
        for (x, y) in a.iter().zip(b) {
            out.push(self.eval(x, y));
        }
    }

    /// Kernel name for reports and logs.
    fn name(&self) -> &'static str {
        "scalar"
    }
}

/// A comp is a kernel with no batching: tiles run the scalar loop.
impl<T, R> BatchComp<T, R> for CompFn<T, R> {
    fn eval(&self, a: &T, b: &T) -> R {
        self(a, b)
    }
}

/// The pairs `evaluate_tiled` evaluates.
pub(crate) enum Pairs<'s> {
    /// Task `task` of `scheme` over its ascending `working_set`: a filter
    /// may generate this task's candidates instead of probing each pair.
    Task { scheme: &'s dyn DistributionScheme, task: u64, working_set: &'s [u64] },
    /// Any other stream, probed pair by pair under a filter — the
    /// sequential oracle's full triangle.
    Stream(&'s PairStream<'s>),
}

/// A pair stream: calls its argument once per pair.
pub(crate) type PairStream<'s> = dyn Fn(&mut dyn FnMut(u64, u64)) + 's;

/// Streams `pairs` through `kernel` in [`TILE_PAIRS`]-sized tiles,
/// delivering each pair's results to `sink(a, b, forward, reverse)`
/// exactly once: `forward` is `comp(a, b)`; `reverse` is `None` for a
/// symmetric comp (the value holds in both directions) and
/// `Some(comp(b, a))` for a non-symmetric one. The sink stores `forward`
/// with `a` and the reverse (or the shared value) with `b` — storing in
/// that order reproduces the per-direction emission order the scalar
/// runners always used.
///
/// A `filter` gates the pairs below the enumeration — a task's through
/// [`for_each_candidate`], a stream's probed — so a pruned pair is never
/// resolved and never enters a tile. Returns the number of evaluations
/// performed and the prune tallies; with no filter the pairs are handed
/// over untouched — no per-pair branch — and the tallies stay zero.
///
/// `resolve` maps an element id to its payload.
pub(crate) fn evaluate_tiled<'a, T: 'a, R: Clone>(
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    filter: Option<&dyn PairFilter>,
    resolve: impl Fn(u64) -> &'a T,
    pairs: Pairs<'_>,
    mut sink: impl FnMut(u64, u64, R, Option<R>),
) -> (u64, PruneStats) {
    let mut tile = Tile::new();
    let mut evaluations = 0u64;
    // One tile push behind one `dyn` serves every path: the unfiltered
    // pairs call it directly, the filter per survivor. (Called
    // statically from the filter arm as well, it measured a few per cent
    // slower on the unfiltered path.)
    let push: &mut dyn FnMut(u64, u64) = &mut |a, b| {
        tile.ids.push((a, b));
        tile.ops_a.push(resolve(a));
        tile.ops_b.push(resolve(b));
        if tile.ids.len() == TILE_PAIRS {
            evaluations += tile.flush(kernel, symmetry, &mut sink);
        }
    };
    let prune = match (filter, pairs) {
        (None, Pairs::Task { scheme, task, .. }) => {
            scheme.for_each_pair(task, push);
            PruneStats::default()
        }
        (None, Pairs::Stream(stream)) => {
            stream(push);
            PruneStats::default()
        }
        (Some(pf), Pairs::Task { scheme, task, working_set }) => {
            for_each_candidate(scheme, task, working_set, pf, push)
        }
        (Some(pf), Pairs::Stream(stream)) => probe(pf, stream, push),
    };
    evaluations += tile.flush(kernel, symmetry, &mut sink);
    (evaluations, prune)
}

/// Working-set-local `id → slot` index: `slot(id)` is the position of `id`
/// in the task's sorted working set, so per-element task state lives in
/// plain `Vec`s instead of id-keyed hash maps. Sized once per task.
pub(crate) enum SlotIndex<'a> {
    /// `table[id - min]` is the slot, `u32::MAX` — past any per-slot `Vec`
    /// — in the gaps: block, broadcast and small design sets, whose span
    /// is a small multiple of their size.
    Dense { min: u64, table: Vec<u32> },
    /// Binary search on the sorted ids — a quorum set spread over `Z_v`
    /// must not pay an O(v) table per task.
    Sorted(&'a [u64]),
}

/// A working set gets the dense table while `max − min < DENSE_SPAN · len`.
pub(crate) const DENSE_SPAN: u64 = 16;

impl<'a> SlotIndex<'a> {
    pub(crate) fn new(sorted: &'a [u64]) -> Self {
        match (sorted.first(), sorted.last()) {
            (Some(&min), Some(&max)) if max - min < DENSE_SPAN * sorted.len() as u64 => {
                let mut table = vec![u32::MAX; (max - min) as usize + 1];
                for (slot, &id) in sorted.iter().enumerate() {
                    table[(id - min) as usize] = slot as u32;
                }
                SlotIndex::Dense { min, table }
            }
            _ => SlotIndex::Sorted(sorted),
        }
    }

    /// An id outside the working set is a scheme bug (pairs are only
    /// enumerated within the set the scheme named): it panics here or, from
    /// a dense-table gap, at the caller's first use of the slot.
    pub(crate) fn slot(&self, id: u64) -> usize {
        match self {
            SlotIndex::Dense { min, table } => table[id.wrapping_sub(*min) as usize] as usize,
            SlotIndex::Sorted(ids) => {
                ids.binary_search(&id).expect("scheme enumerated a pair outside its working set")
            }
        }
    }
}

/// Reusable tile buffers — allocated once per task, reused across flushes.
struct Tile<'a, T, R> {
    ids: Vec<(u64, u64)>,
    ops_a: Vec<&'a T>,
    ops_b: Vec<&'a T>,
    forward: Vec<R>,
    reverse: Vec<R>,
}

impl<'a, T, R: Clone> Tile<'a, T, R> {
    fn new() -> Tile<'a, T, R> {
        Tile {
            ids: Vec::with_capacity(TILE_PAIRS),
            ops_a: Vec::with_capacity(TILE_PAIRS),
            ops_b: Vec::with_capacity(TILE_PAIRS),
            forward: Vec::with_capacity(TILE_PAIRS),
            reverse: Vec::new(),
        }
    }

    fn flush(
        &mut self,
        kernel: &dyn BatchComp<T, R>,
        symmetry: Symmetry,
        sink: &mut impl FnMut(u64, u64, R, Option<R>),
    ) -> u64 {
        if self.ids.is_empty() {
            return 0;
        }
        self.forward.clear();
        kernel.eval_batch(&self.ops_a, &self.ops_b, &mut self.forward);
        debug_assert_eq!(self.forward.len(), self.ids.len(), "kernel result count mismatch");
        let evals = match symmetry {
            Symmetry::Symmetric => {
                for (&(a, b), r) in self.ids.iter().zip(self.forward.drain(..)) {
                    sink(a, b, r, None);
                }
                self.ids.len() as u64
            }
            Symmetry::NonSymmetric => {
                self.reverse.clear();
                self.reverse.reserve(self.ids.len());
                kernel.eval_batch(&self.ops_b, &self.ops_a, &mut self.reverse);
                debug_assert_eq!(self.reverse.len(), self.ids.len());
                for ((&(a, b), rf), rr) in
                    self.ids.iter().zip(self.forward.drain(..)).zip(self.reverse.drain(..))
                {
                    sink(a, b, rf, Some(rr));
                }
                2 * self.ids.len() as u64
            }
        };
        self.ids.clear();
        self.ops_a.clear();
        self.ops_b.clear();
        evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::comp_fn;
    use crate::scheme::{BlockScheme, BroadcastScheme, DistributionScheme};

    fn collect(
        symmetry: Symmetry,
        kernel: &dyn BatchComp<i64, i64>,
        data: &[i64],
        pairs: Pairs<'_>,
    ) -> (Vec<(u64, u64, i64)>, u64) {
        let mut got = Vec::new();
        let (evals, _) = evaluate_tiled(
            kernel,
            symmetry,
            None,
            |id| &data[id as usize],
            pairs,
            |a, b, rf, rr| {
                let rb = rr.unwrap_or(rf);
                got.push((a, b, rf));
                got.push((b, a, rb));
            },
        );
        got.sort_unstable();
        (got, evals)
    }

    #[test]
    fn tiled_matches_scalar_across_flush_boundaries() {
        // 1 + TILE_PAIRS·2 + 7 pairs forces interior flushes and a partial
        // final flush.
        let n = 2 * TILE_PAIRS + 8;
        let data: Vec<i64> = (0..200).map(|i| (i * i) % 131).collect();
        let pairs: Vec<(u64, u64)> =
            (0..n).map(|i| ((i % 199 + 1) as u64, (i % ((i % 199) + 1)) as u64)).collect();
        let kernel = comp_fn(|a: &i64, b: &i64| 3 * a - b);
        for symmetry in [Symmetry::Symmetric, Symmetry::NonSymmetric] {
            let (got, evals) = collect(
                symmetry,
                &kernel,
                &data,
                Pairs::Stream(&|f| {
                    for &(a, b) in &pairs {
                        f(a, b);
                    }
                }),
            );
            let mut expect = Vec::new();
            for &(a, b) in &pairs {
                let (pa, pb) = (&data[a as usize], &data[b as usize]);
                match symmetry {
                    Symmetry::Symmetric => {
                        let r = 3 * pa - pb;
                        expect.push((a, b, r));
                        expect.push((b, a, r));
                    }
                    Symmetry::NonSymmetric => {
                        expect.push((a, b, 3 * pa - pb));
                        expect.push((b, a, 3 * pb - pa));
                    }
                }
            }
            expect.sort_unstable();
            assert_eq!(got, expect);
            let per_pair = if symmetry == Symmetry::Symmetric { 1 } else { 2 };
            assert_eq!(evals, per_pair * pairs.len() as u64);
        }
    }

    #[test]
    fn batched_override_agrees_with_default() {
        // A kernel whose eval_batch reorders across pairs must still match
        // the scalar loop result-for-result.
        struct Doubling;
        impl BatchComp<i64, i64> for Doubling {
            fn eval(&self, a: &i64, b: &i64) -> i64 {
                a * 2 + b
            }
            fn eval_batch(&self, a: &[&i64], b: &[&i64], out: &mut Vec<i64>) {
                out.resize(a.len(), 0);
                // Back-to-front fill: order across pairs is free.
                for i in (0..a.len()).rev() {
                    out[i] = self.eval(a[i], b[i]);
                }
            }
        }
        let data: Vec<i64> = (0..64).collect();
        let scheme = BlockScheme::new(64, 4);
        for t in 0..scheme.num_tasks() {
            let ws = scheme.working_set(t);
            let task = || Pairs::Task { scheme: &scheme, task: t, working_set: &ws };
            let (got, _) = collect(Symmetry::Symmetric, &Doubling, &data, task());
            let double = comp_fn(|a: &i64, b: &i64| a * 2 + b);
            let (want, _) = collect(Symmetry::Symmetric, &double, &data, task());
            assert_eq!(got, want, "task {t}");
        }
    }

    /// Admits pairs of equal parity; when `generates`, it names them by
    /// grouping the working set on parity instead of being probed.
    struct EvenSum {
        generates: bool,
    }

    impl PairFilter for EvenSum {
        fn name(&self) -> &'static str {
            "even-sum"
        }
        fn is_candidate(&self, a: u64, b: u64) -> bool {
            (a + b).is_multiple_of(2)
        }
        fn generate_candidates(
            &self,
            working_set: &[u64],
            limit: u64,
            f: &mut dyn FnMut(u64, u64),
        ) -> bool {
            let even = working_set.iter().filter(|&&x| x % 2 == 0).count() as u64;
            let odd = working_set.len() as u64 - even;
            let pairs = |n: u64| n * n.saturating_sub(1) / 2;
            if !self.generates || pairs(even) + pairs(odd) > limit {
                return false;
            }
            for (i, &a) in working_set.iter().enumerate() {
                for &b in working_set[..i].iter().filter(|&&b| self.is_candidate(a, b)) {
                    f(a, b);
                }
            }
            true
        }
    }

    #[test]
    fn filter_gates_the_stream_and_tallies() {
        let data: Vec<i64> = (0..40).collect();
        let kernel = comp_fn(|a: &i64, b: &i64| a - b);
        // Block task 1 generates (182 same-parity pairs in its working set
        // against 196 it owns); the broadcast task falls back to the probe
        // (380 against 98).
        let (block, broadcast) = (BlockScheme::new(40, 3), BroadcastScheme::new(40, 8));
        let cases: [(&dyn DistributionScheme, u64, bool); 2] =
            [(&block, 1, true), (&broadcast, 3, false)];
        for (scheme, t, generated) in cases {
            let ws = scheme.working_set(t);
            let mut want = Vec::new();
            scheme.for_each_pair(t, &mut |a, b| want.push((a, b)));
            let relation = want.len() as u64;
            want.retain(|&(a, b)| (a + b).is_multiple_of(2));
            let mut generated_order = want.clone();
            generated_order.sort_unstable();
            let generates = EvenSum { generates: true };
            assert_eq!(generates.generate_candidates(&ws, relation, &mut |_, _| {}), generated);
            let stream = |f: &mut dyn FnMut(u64, u64)| scheme.for_each_pair(t, f);
            // A probed form keeps the enumeration order (the sequential
            // oracle relies on it); a generated one is the filter's
            // first-operand-major order, ascending here.
            let first_form = if generated { &generated_order } else { &want };
            let forms = [
                (
                    EvenSum { generates: true },
                    Pairs::Task { scheme, task: t, working_set: &ws },
                    first_form,
                ),
                (
                    EvenSum { generates: false },
                    Pairs::Task { scheme, task: t, working_set: &ws },
                    &want,
                ),
                (EvenSum { generates: true }, Pairs::Stream(&stream), &want),
            ];
            for (filter, pairs, want) in forms {
                let mut got = Vec::new();
                let (evals, prune) = evaluate_tiled(
                    &kernel,
                    Symmetry::Symmetric,
                    Some(&filter),
                    |id| &data[id as usize],
                    pairs,
                    |a, b, r, _| got.push((a, b, r)),
                );
                let want_results: Vec<_> =
                    want.iter().map(|&(a, b)| (a, b, a as i64 - b as i64)).collect();
                assert_eq!(got, want_results, "{} task {t}", scheme.name());
                assert_eq!(evals, want.len() as u64);
                assert_eq!(prune, PruneStats { candidates: relation, pruned: relation - evals });
            }
            // No filter: every pair, and no tallies.
            for pairs in [Pairs::Task { scheme, task: t, working_set: &ws }, Pairs::Stream(&stream)]
            {
                let (evals, prune) = evaluate_tiled(
                    &kernel,
                    Symmetry::Symmetric,
                    None,
                    |id| &data[id as usize],
                    pairs,
                    |_, _, _, _| {},
                );
                assert_eq!((evals, prune), (relation, PruneStats::default()));
            }
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let kernel = comp_fn(|a: &i64, b: &i64| a + b);
        let (got, evals) = collect(Symmetry::Symmetric, &kernel, &[1, 2], Pairs::Stream(&|_f| {}));
        assert!(got.is_empty());
        assert_eq!(evals, 0);
    }
}
