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
//! The scalar [`CompFn`] path remains available through [`ScalarComp`],
//! which adapts any `CompFn` into a (non-batched) kernel. A kernel's
//! `eval` and `eval_batch` must agree **bit-for-bit**: `eval_batch`'s
//! default implementation is the scalar loop, and overrides may reorder
//! work across *pairs* but not change the arithmetic *within* one pair.
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

use crate::runner::{Accumulator, Aggregator, CompFn, Symmetry};

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

/// Adapts a [`CompFn`] into a [`BatchComp`] with no batching — the
/// compatibility path for closures that have no vectorized form.
pub struct ScalarComp<T, R>(pub CompFn<T, R>);

impl<T, R> ScalarComp<T, R> {
    /// Wraps the comp.
    pub fn new(comp: CompFn<T, R>) -> ScalarComp<T, R> {
        ScalarComp(comp)
    }
}

impl<T, R> BatchComp<T, R> for ScalarComp<T, R> {
    fn eval(&self, a: &T, b: &T) -> R {
        (self.0)(a, b)
    }
}

/// Streams pairs from `stream` through `kernel` in [`TILE_PAIRS`]-sized
/// tiles, delivering each pair's results to `sink(a, b, forward, reverse)`
/// exactly once: `forward` is `comp(a, b)`; `reverse` is `None` for a
/// symmetric comp (the value holds in both directions) and
/// `Some(comp(b, a))` for a non-symmetric one. The sink stores `forward`
/// with `a` and the reverse (or the shared value) with `b` — storing in
/// that order reproduces the per-direction emission order the scalar
/// runners always used. Returns the number of evaluations performed.
///
/// `resolve` maps an element id to its payload; `stream` is typically
/// `|f| scheme.for_each_pair(task, f)`.
pub(crate) fn evaluate_tiled<'a, T: 'a, R: Clone>(
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    resolve: impl Fn(u64) -> &'a T,
    stream: impl FnOnce(&mut dyn FnMut(u64, u64)),
    mut sink: impl FnMut(u64, u64, R, Option<R>),
) -> u64 {
    let mut tile = Tile::new();
    let mut evaluations = 0u64;
    stream(&mut |a, b| {
        tile.ids.push((a, b));
        tile.ops_a.push(resolve(a));
        tile.ops_b.push(resolve(b));
        if tile.ids.len() == TILE_PAIRS {
            evaluations += tile.flush(kernel, symmetry, &mut sink);
        }
    });
    evaluations += tile.flush(kernel, symmetry, &mut sink);
    evaluations
}

/// [`evaluate_tiled`] with aggregation fused into the tile flush: each
/// pair's results are folded straight into the id-indexed accumulators
/// (`accs[id]` holds element `id`'s state) as the tile drains, so per-pair
/// values never outlive the tile buffers. Returns the number of evaluations
/// performed.
pub(crate) fn evaluate_tiled_fused<'a, T: 'a, R: Clone>(
    kernel: &dyn BatchComp<T, R>,
    symmetry: Symmetry,
    resolve: impl Fn(u64) -> &'a T,
    stream: impl FnOnce(&mut dyn FnMut(u64, u64)),
    aggregator: &dyn Aggregator<R>,
    accs: &mut [Accumulator<R>],
) -> u64 {
    evaluate_tiled(kernel, symmetry, resolve, stream, |a, b, rf, rr| {
        let rb = rr.unwrap_or_else(|| rf.clone());
        aggregator.fold(&mut accs[a as usize], b, rf);
        aggregator.fold(&mut accs[b as usize], a, rb);
    })
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
        let evals = evaluate_tiled(
            kernel,
            symmetry,
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
        let kernel = ScalarComp::new(comp_fn(|a: &i64, b: &i64| 3 * a - b));
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
            let (want, _) = collect(
                Symmetry::Symmetric,
                &ScalarComp::new(comp_fn(|a: &i64, b: &i64| a * 2 + b)),
                &data,
                |f| scheme.for_each_pair(t, f),
            );
            assert_eq!(got, want, "task {t}");
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let kernel = ScalarComp::new(comp_fn(|a: &i64, b: &i64| a + b));
        let (got, evals) = collect(Symmetry::Symmetric, &kernel, &[1, 2], |_f| {});
        assert!(got.is_empty());
        assert_eq!(evals, 0);
    }
}
