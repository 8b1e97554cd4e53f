//! Batch evaluation kernels: the hot-path alternative to per-pair
//! [`CompFn`] dispatch.
//!
//! The runners stream a task's pairs (via
//! [`DistributionScheme::for_each_pair`](crate::scheme::DistributionScheme::for_each_pair))
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
//! its own sink: a stream of pairs, an optional [`PairFilter`] below it,
//! the tiles, the kernel, and the prune tallies.
//!
//! **Operand runs.** Step 2 of the paper evaluates every pair *inside a
//! working set*, so one element meets many partners back to back, and a
//! tile's operand arrays repeat the *same reference* over consecutive
//! pairs. Block, design and broadcast stream first-operand-major: `a`
//! stays while `b` walks a row (a block tile is 32 runs of 32, a design
//! task runs of 1, 2, … k−1, a broadcast task whole triangle rows). The
//! quorum walk holds an anchor `x = α_d + t` over the distances that share
//! an `α`, and the anchor lands on whichever side `x > y` puts it; the
//! reverse `eval_batch(b, a)` of a non-symmetric flush has every run on
//! the second operand; a filtered stream keeps what runs its survivors
//! leave. A kernel may use a run (`std::ptr::eq` on neighbouring operands)
//! to set up per-operand state once — `pmr-apps`' sparse dot scatters the
//! shared vector into a term table — but only for speed: which runs a
//! tile has, and where a tile cuts one, is up to the scheme, the filter
//! and the runner, so every result must equal `eval` with no run at all.

use crate::runner::filter::{PairFilter, PruneStats};
use crate::runner::{CompFn, Symmetry};

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

/// Streams pairs from `stream` through `kernel` in [`TILE_PAIRS`]-sized
/// tiles, delivering each pair's results to `sink(a, b, forward, reverse)`
/// exactly once: `forward` is `comp(a, b)`; `reverse` is `None` for a
/// symmetric comp (the value holds in both directions) and
/// `Some(comp(b, a))` for a non-symmetric one. The sink stores `forward`
/// with `a` and the reverse (or the shared value) with `b` — storing in
/// that order reproduces the per-direction emission order the scalar
/// runners always used.
///
/// A `filter` gates the stream below the enumeration: a pruned pair is
/// never resolved and never enters a tile. Returns the number of
/// evaluations performed and the enumerated/pruned tallies; with no filter
/// the stream is handed over untouched — no per-pair branch — and the
/// tallies stay zero.
///
/// `resolve` maps an element id to its payload; `stream` is typically
/// `|f| scheme.for_each_pair(task, f)`.
pub(crate) fn evaluate_tiled<'a, T: 'a, R: Clone>(
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    filter: Option<&dyn PairFilter>,
    resolve: impl Fn(u64) -> &'a T,
    stream: impl FnOnce(&mut dyn FnMut(u64, u64)),
    mut sink: impl FnMut(u64, u64, R, Option<R>),
) -> (u64, PruneStats) {
    let mut tile = Tile::new();
    let mut evaluations = 0u64;
    let mut prune = PruneStats::default();
    // One tile push behind one `dyn` serves both paths: the unfiltered
    // stream calls it directly, the filter per survivor. (Called
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
    match filter {
        None => stream(push),
        Some(pf) => stream(&mut |a, b| {
            prune.candidates += 1;
            if pf.is_candidate(a, b) {
                push(a, b);
            } else {
                prune.pruned += 1;
            }
        }),
    }
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
    use crate::scheme::{BlockScheme, DistributionScheme};

    fn collect(
        symmetry: Symmetry,
        kernel: &dyn BatchComp<i64, i64>,
        data: &[i64],
        stream: impl FnOnce(&mut dyn FnMut(u64, u64)),
    ) -> (Vec<(u64, u64, i64)>, u64) {
        let mut got = Vec::new();
        let (evals, _) = evaluate_tiled(
            kernel,
            symmetry,
            None,
            |id| &data[id as usize],
            stream,
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
            let (got, evals) = collect(symmetry, &kernel, &data, |f| {
                for &(a, b) in &pairs {
                    f(a, b);
                }
            });
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
            let (got, _) =
                collect(Symmetry::Symmetric, &Doubling, &data, |f| scheme.for_each_pair(t, f));
            let (want, _) =
                collect(Symmetry::Symmetric, &comp_fn(|a: &i64, b: &i64| a * 2 + b), &data, |f| {
                    scheme.for_each_pair(t, f)
                });
            assert_eq!(got, want, "task {t}");
        }
    }

    #[test]
    fn filter_gates_the_stream_and_tallies() {
        struct EvenSum;
        impl PairFilter for EvenSum {
            fn name(&self) -> &'static str {
                "even-sum"
            }
            fn is_candidate(&self, a: u64, b: u64) -> bool {
                (a + b).is_multiple_of(2)
            }
        }
        let data: Vec<i64> = (0..40).collect();
        let kernel = comp_fn(|a: &i64, b: &i64| a - b);
        let all = |f: &mut dyn FnMut(u64, u64)| BlockScheme::new(40, 3).for_each_pair(0, f);
        let mut got = Vec::new();
        let (evals, prune) = evaluate_tiled(
            &kernel,
            Symmetry::Symmetric,
            Some(&EvenSum),
            |id| &data[id as usize],
            all,
            |a, b, r, _| got.push((a, b, r)),
        );
        let mut want = Vec::new();
        all(&mut |a, b| want.push((a, b)));
        let enumerated = want.len() as u64;
        want.retain(|&(a, b)| (a + b).is_multiple_of(2));
        assert_eq!(got, want.iter().map(|&(a, b)| (a, b, a as i64 - b as i64)).collect::<Vec<_>>());
        assert_eq!(evals, want.len() as u64);
        assert_eq!(prune, PruneStats { candidates: enumerated, pruned: enumerated - evals });
        // No filter: every pair, and no tallies.
        let (evals, prune) = evaluate_tiled(
            &kernel,
            Symmetry::Symmetric,
            None,
            |id| &data[id as usize],
            all,
            |_, _, _, _| {},
        );
        assert_eq!((evals, prune), (enumerated, PruneStats::default()));
    }

    #[test]
    fn empty_stream_is_fine() {
        let kernel = comp_fn(|a: &i64, b: &i64| a + b);
        let (got, evals) = collect(Symmetry::Symmetric, &kernel, &[1, 2], |_f| {});
        assert!(got.is_empty());
        assert_eq!(evals, 0);
    }
}
