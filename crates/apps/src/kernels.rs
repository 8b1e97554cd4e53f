//! Batch evaluation kernels for the hot path
//! ([`pmr_core::runner::BatchComp`]): four-lane dense kernels and a sparse
//! kernel, both of which use the operand runs of a tile.
//!
//! The dense kernels keep four independent accumulators and combine them
//! as `(s0 + s1) + (s2 + s3)` — a fixed summation order shared by `eval`
//! and `eval_batch`, so the scalar fallback and the batched path are
//! bit-identical (the [`BatchComp`] contract). Their `eval_batch` walks a
//! tile's operand runs: on an x86-64 host with AVX2 it advances two rows —
//! a run and its twin, the next run over the same partners — against four
//! partners at a time, each chunk of the two shared operands and of the
//! four partners loaded once for all eight pairs, and a run without a twin
//! one row against four partners. Each pair's four accumulators are the
//! four lanes of its own register, so every pair keeps its own summation
//! order. Dimension agreement is validated **once per dataset** at kernel
//! construction ([`validate_uniform_dim`]); the per-pair inner loops carry
//! only a `debug_assert!`.

use crate::vector::{DenseVector, SparseVector};
use pmr_core::runner::BatchComp;

/// Checks that every vector of the dataset has the same dimension and
/// returns it. Called once at store/kernel build time so the per-pair
/// kernels can drop the hot-loop dimension asserts. An empty dataset has
/// dimension 0.
pub fn validate_uniform_dim(data: &[DenseVector]) -> Result<usize, String> {
    let dim = data.first().map_or(0, DenseVector::dim);
    for (i, v) in data.iter().enumerate() {
        if v.dim() != dim {
            return Err(format!(
                "dimension mismatch: element {i} has dim {}, element 0 has dim {dim}",
                v.dim()
            ));
        }
    }
    Ok(dim)
}

/// What one coordinate pair adds to its accumulator lane — the one place
/// the three dense kernels differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneOp {
    /// `x · y`: the inner product.
    Product,
    /// `(x − y)²`: the squared Euclidean distance.
    SqDiff,
    /// `(x − x̄)(y − ȳ)`: the covariance, divided by `n − 1` at the end.
    Centred,
}

impl LaneOp {
    /// The lane term of one coordinate pair, given the operands' centres.
    #[inline(always)]
    fn term(self, x: f64, y: f64, mx: f64, my: f64) -> f64 {
        match self {
            LaneOp::Product => x * y,
            LaneOp::SqDiff => {
                let d = x - y;
                d * d
            }
            LaneOp::Centred => (x - mx) * (y - my),
        }
    }

    /// The operand's centre: for [`LaneOp::Centred`] the plain
    /// left-to-right mean of [`DenseVector::mean`], unused otherwise.
    #[inline(always)]
    fn centre(self, x: &[f64]) -> f64 {
        match self {
            LaneOp::Centred => x.iter().sum::<f64>() / x.len() as f64,
            LaneOp::Product | LaneOp::SqDiff => 0.0,
        }
    }

    /// Adds the coordinates past the last full chunk of four into lane 0
    /// and combines the lanes as `(s0 + s1) + (s2 + s3)`: the end of every
    /// pair, whichever loop ran its chunks. A covariance of fewer than two
    /// coordinates is 0.
    #[inline(always)]
    fn finish(self, mut s: [f64; 4], x: &[f64], y: &[f64], mx: f64, my: f64) -> f64 {
        let n = x.len();
        let tail = n - n % 4;
        for (&a, &b) in x[tail..].iter().zip(&y[tail..]) {
            s[0] += self.term(a, b, mx, my);
        }
        let sum = (s[0] + s[1]) + (s[2] + s[3]);
        match self {
            LaneOp::Centred if n < 2 => 0.0,
            LaneOp::Centred => sum / (n - 1) as f64,
            LaneOp::Product | LaneOp::SqDiff => sum,
        }
    }

    /// One pair with four independent accumulators over the first
    /// `min(len)` coordinates: the reference `eval` of every dense kernel.
    /// `chunks_exact` keeps the inner loop free of bounds checks.
    #[inline(always)]
    fn eval(self, x: &[f64], y: &[f64]) -> f64 {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let (mx, my) = (self.centre(x), self.centre(y));
        let mut s = [0.0f64; 4];
        for (a, b) in x.chunks_exact(4).zip(y.chunks_exact(4)) {
            for lane in 0..4 {
                s[lane] += self.term(a[lane], b[lane], mx, my);
            }
        }
        self.finish(s, x, y, mx, my)
    }

    /// `eval` of every pair of the tile, in order, written in place. With
    /// `wide` set on a host with AVX2, a run (see [`Run`]) and its twin go
    /// four partners at a time through the two-row pass of [`avx2::rows`]
    /// over their common prefix; the rest of each run goes four partners at
    /// a time through the one-row pass, up to its first partner shorter
    /// than the shared operand. What is left of a run, lone pairs and, with
    /// `wide` unset (the one path of a host without AVX2), every pair take
    /// the scalar [`LaneOp::eval`].
    #[inline(always)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut, unused_variables))]
    fn eval_runs(self, a: &[&DenseVector], b: &[&DenseVector], out: &mut Vec<f64>, wide: bool) {
        let start = out.len();
        out.resize(start + a.len(), 0.0);
        let out = &mut out[start..];
        #[cfg(target_arch = "x86_64")]
        let wide = wide && std::is_x86_feature_detected!("avx2");
        let mut i = 0;
        while i < a.len() {
            let run = Run::at(a, b, i);
            // The twin and the pairs of each run the two-row pass wrote.
            let mut twin = None;
            #[cfg(target_arch = "x86_64")]
            if wide && run.end < a.len() {
                let next = Run::at(a, b, run.end);
                let m = run.twin_prefix(&next);
                if m >= 4 {
                    let (head, tail) = out.split_at_mut(run.end);
                    let rows = [&mut head[i..], tail];
                    twin = Some((next, self.wide([run.x, next.x], &run.partners()[..m], rows)));
                }
            }
            let done = twin.map_or(0, |(_, done)| done);
            self.finish_run(run, done, a, b, out, wide);
            i = run.end;
            if let Some((next, done)) = twin {
                self.finish_run(next, done, a, b, out, wide);
                i = next.end;
            }
        }
    }

    /// The pairs of `run` past its first `done`: four partners at a time
    /// through the one-row pass when `wide`, the rest scalar.
    #[inline(always)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut, unused_variables))]
    fn finish_run(
        self,
        run: Run,
        done: usize,
        a: &[&DenseVector],
        b: &[&DenseVector],
        out: &mut [f64],
        wide: bool,
    ) {
        let mut k = run.start + done;
        #[cfg(target_arch = "x86_64")]
        if wide {
            k += self.wide([run.x], &run.partners[k..run.end], [&mut out[k..run.end]]);
        }
        for k in k..run.end {
            out[k] = self.eval(&a[k].0, &b[k].0);
        }
    }

    /// `R` rows of one length against `ys`, four partners at a time up to
    /// the first partner shorter than the rows, pair `(r, k)` written to
    /// `outs[r][k]`. Returns how many partners it took: a multiple of four.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn wide<const R: usize>(
        self,
        xs: [&[f64]; R],
        ys: &[&DenseVector],
        mut outs: [&mut [f64]; R],
    ) -> usize {
        let n = xs[0].len();
        let fit = ys.iter().take_while(|y| y.dim() >= n).count() / 4 * 4;
        let mxs = xs.map(|x| self.centre(x));
        for (g, group) in ys[..fit].chunks_exact(4).enumerate() {
            let ys = [0, 1, 2, 3].map(|k| &group[k].0[..n]);
            let mys = ys.map(|y| self.centre(y));
            // SAFETY: `rows` is safe code whose only requirement is the
            // AVX2 target feature, and `wide` is true here only when
            // `is_x86_feature_detected!("avx2")` found it on this host.
            #[allow(unsafe_code)]
            let sums = unsafe { avx2::rows(self, xs, mxs, ys, mys) };
            for (out, sums) in outs.iter_mut().zip(sums) {
                out[4 * g..4 * g + 4].copy_from_slice(&sums);
            }
        }
        fit
    }
}

/// Consecutive pairs `start..end` of a tile that share one operand, the
/// same reference, on one side.
///
/// The run right after it is its *twin* when that run's shared operand is
/// on the same side and has the same length, and the two runs' partners
/// are the same references, position by position, for a common prefix of
/// four or more pairs. A block tile's runs of 32 are 16 twins over all 32
/// partners; in a triangle (a diagonal block tile, a design or broadcast
/// task) a run's partners are a prefix of the next run's.
#[derive(Clone, Copy)]
struct Run<'t> {
    /// The shared operand's coordinates.
    x: &'t [f64],
    /// The tile's operands on the other side; the run's partners are
    /// `partners[start..end]`.
    partners: &'t [&'t DenseVector],
    /// Whether the shared operand is on the first side.
    first: bool,
    start: usize,
    end: usize,
}

impl<'t> Run<'t> {
    /// The run from pair `i`: the longer of the two sides' runs, the first
    /// side's on a tie. `eval_batch(b, a)` of a non-symmetric flush has it
    /// on the second side.
    fn at(a: &'t [&'t DenseVector], b: &'t [&'t DenseVector], i: usize) -> Run<'t> {
        let len = |ops: &[&DenseVector]| {
            ops[i..].iter().take_while(|x| std::ptr::eq(**x, ops[i])).count()
        };
        let (run_a, run_b) = (len(a), len(b));
        let (shared, partners, first, len) =
            if run_a >= run_b { (a[i], b, true, run_a) } else { (b[i], a, false, run_b) };
        Run { x: &shared.0, partners, first, start: i, end: i + len }
    }

    fn partners(&self) -> &'t [&'t DenseVector] {
        &self.partners[self.start..self.end]
    }

    /// The length of the common prefix of this run's and `next`'s
    /// partners, reference by reference, when their shared operands are on
    /// one side and of one length, else 0.
    #[cfg(target_arch = "x86_64")]
    fn twin_prefix(&self, next: &Run) -> usize {
        if next.first != self.first || next.x.len() != self.x.len() {
            return 0;
        }
        let pairs = self.partners().iter().zip(next.partners());
        pairs.take_while(|(p, q)| std::ptr::eq(**p, **q)).count()
    }
}

/// The AVX2 body of the dense kernels' run walk.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::LaneOp;
    use std::arch::x86_64::*;

    /// The `R × 4` pairs `(xs[r], ys[k])`, all of one length: each chunk of
    /// four coordinates of every row and every partner is loaded once, and
    /// the `R × 4` pairs advance on as many registers, pair `(r, k)`'s
    /// accumulators `s0..s3` being the four lanes of its own. Packed IEEE
    /// `sub`, `mul` and `add` are the scalar operations lane by lane, and
    /// nothing is fused, so every result is the bits of [`LaneOp::eval`].
    /// `R` is 1 or 2: three rows spill registers.
    #[target_feature(enable = "avx2")]
    pub(super) fn rows<const R: usize>(
        op: LaneOp,
        xs: [&[f64]; R],
        mxs: [f64; R],
        ys: [&[f64]; 4],
        mys: [f64; 4],
    ) -> [[f64; 4]; R] {
        let (vmx, vmy) = (mxs.map(|m| _mm256_set1_pd(m)), mys.map(|m| _mm256_set1_pd(m)));
        let acc = match op {
            LaneOp::Product => chunks(xs, ys, |vx, vy, _, _| _mm256_mul_pd(vx, vy)),
            LaneOp::SqDiff => chunks(xs, ys, |vx, vy, _, _| {
                let d = _mm256_sub_pd(vx, vy);
                _mm256_mul_pd(d, d)
            }),
            LaneOp::Centred => chunks(xs, ys, |vx, vy, r, k| {
                _mm256_mul_pd(_mm256_sub_pd(vx, vmx[r]), _mm256_sub_pd(vy, vmy[k]))
            }),
        };
        let high = |h| _mm_cvtsd_f64(_mm_unpackhi_pd(h, h));
        std::array::from_fn(|r| {
            std::array::from_fn(|k| {
                let (lo, hi) =
                    (_mm256_castpd256_pd128(acc[r][k]), _mm256_extractf128_pd::<1>(acc[r][k]));
                let s = [_mm_cvtsd_f64(lo), high(lo), _mm_cvtsd_f64(hi), high(hi)];
                op.finish(s, xs[r], ys[k], mxs[r], mys[k])
            })
        })
    }

    /// The chunk loop of [`rows`] for one lane term `term(x, y, row,
    /// partner)`, compiled once per lane operation and row count.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn chunks<const R: usize>(
        xs: [&[f64]; R],
        ys: [&[f64]; 4],
        term: impl Fn(__m256d, __m256d, usize, usize) -> __m256d,
    ) -> [[__m256d; 4]; R] {
        let load = |c: &[f64]| _mm256_set_pd(c[3], c[2], c[1], c[0]);
        let len = xs[0].len() / 4 * 4;
        let mut xs = xs;
        for x in &mut xs {
            *x = &x[..len];
        }
        let [y0, y1, y2, y3] = ys;
        let ys = [&y0[..len], &y1[..len], &y2[..len], &y3[..len]];
        let mut acc = [[_mm256_setzero_pd(); 4]; R];
        for c in (0..len).step_by(4) {
            let mut vx = [_mm256_setzero_pd(); R];
            for r in 0..R {
                vx[r] = load(&xs[r][c..c + 4]);
            }
            for k in 0..4 {
                let vy = load(&ys[k][c..c + 4]);
                for r in 0..R {
                    acc[r][k] = _mm256_add_pd(acc[r][k], term(vx[r], vy, r, k));
                }
            }
        }
        acc
    }
}

macro_rules! dense_kernel {
    ($(#[$doc:meta])* $name:ident, $op:expr, $label:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy)]
        pub struct $name {
            dim: usize,
        }

        impl $name {
            /// Builds the kernel for a dataset, validating once that every
            /// vector has the same dimension.
            pub fn for_dataset(data: &[DenseVector]) -> Result<$name, String> {
                validate_uniform_dim(data).map(|dim| $name { dim })
            }

            /// Builds the kernel for an already-validated dimension.
            pub fn new(dim: usize) -> $name {
                $name { dim }
            }
        }

        impl BatchComp<DenseVector, f64> for $name {
            fn eval(&self, a: &DenseVector, b: &DenseVector) -> f64 {
                debug_assert_eq!(a.dim(), self.dim, "dimension mismatch");
                debug_assert_eq!(b.dim(), self.dim, "dimension mismatch");
                $op.eval(&a.0, &b.0)
            }

            fn eval_batch(&self, a: &[&DenseVector], b: &[&DenseVector], out: &mut Vec<f64>) {
                debug_assert!(
                    a.iter().chain(b).all(|x| x.dim() == self.dim),
                    "dimension mismatch"
                );
                $op.eval_runs(a, b, out, true);
            }

            fn name(&self) -> &'static str {
                $label
            }
        }
    };
}

dense_kernel!(
    /// Batched inner product (covariance workload's `A × Aᵀ` building
    /// block when rows are pre-centered).
    DenseDotKernel,
    LaneOp::Product,
    "dense-dot"
);

dense_kernel!(
    /// Batched squared Euclidean distance — the acceptance benchmark's
    /// kernel. Matches the scalar `sq_dist` comp of the perf harness
    /// bit-for-bit.
    DenseSqDistKernel,
    LaneOp::SqDiff,
    "dense-sq-dist"
);

dense_kernel!(
    /// Batched covariance (PCA workload). Note: uses the four-accumulator
    /// summation order, so results differ in the last ulps from the plain
    /// left-to-right [`crate::covariance::covariance`] comp.
    DenseCovKernel,
    LaneOp::Centred,
    "dense-cov"
);

/// Batched sparse inner product. `eval` is the merge join of
/// [`SparseVector::dot`]; `eval_batch` uses the operand runs of a tile
/// (see [`pmr_core::runner::kernel`]): consecutive pairs that share one
/// operand — the same reference — load its weights once into a
/// direct-index table (`table[id] = w`, 0.0 for the ids it lacks), and the
/// partners, four at a time on four accumulators, add `table[id] · w` for
/// every entry of their own with no branch on whether the id matched.
///
/// That is the merge join bit for bit whenever the sum is finite: a sum
/// that starts at +0.0 never becomes −0.0 under round-to-nearest, so the
/// ±0.0 product of an unmatched entry leaves the accumulator's bits as
/// they are, and the matched products arrive in the merge join's order.
/// A sum that is not finite (an unmatched ∞ or NaN weight times 0.0, or an
/// overflow), a partner that is not strictly ascending and a shared
/// operand the table cannot hold take `eval`.
///
/// A lone pair — an element with one surviving partner in a filtered join
/// — takes the table too: on Zipf documents of 64 draws over 8192 terms,
/// loading, probing and clearing it costs 225–300 ns against 600–710 for
/// the merge join, whose three-way branch follows the data (2-core Xeon).
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseDotKernel;

/// Largest term id the table covers: 2^17 + 1 `f64` slots, 1 MiB. The
/// table grows to the largest id it is shown and never past this, whatever
/// ids a vector carries. The bound keeps the probes in a second-level
/// cache (2 MiB a core on the machine measured): on block tiles of 8-term
/// Zipf documents over a 10^6-term vocabulary the kernel reads 77–101
/// ns/pair at 2^17, 92–120 at 2^18 (2 MiB), 208 at 2^19 and 315–347 at
/// 2^20, against 107–124 for the merge join alone; 64-term documents over
/// that vocabulary read the merge join's 700–800 at both 2^17 and 2^18.
const MAX_TABLE_ID: u32 = 1 << 17;

/// Writes the weight of every entry of `x` into its id's slot of `table`,
/// growing the table to `x`'s largest id. Returns `false`, writing
/// nothing, when `x` is not strictly ascending or reaches past
/// [`MAX_TABLE_ID`].
fn load_weights(table: &mut Vec<f64>, x: &[(u32, f64)]) -> bool {
    let Some(&(last, _)) = x.last() else { return true };
    if last > MAX_TABLE_ID || x.windows(2).any(|p| p[0].0 >= p[1].0) {
        return false;
    }
    if table.len() <= last as usize {
        table.resize(last as usize + 1, 0.0);
    }
    for &(id, w) in x {
        table[id as usize] = w;
    }
    true
}

/// Inner products of the loaded table with four partners, each on its own
/// accumulator so that the four chains of additions overlap. Every entry
/// adds `table[id] · w`, 0.0 for an id past the table, in the partner's
/// own order. A partner that is not strictly ascending (checked as it is
/// walked) comes back NaN, so the one test "is it finite" sends it and
/// every non-finite sum to the merge join.
fn probe_four(table: &[f64], ys: [&[(u32, f64)]; 4]) -> [f64; 4] {
    let mut acc = [0.0; 4];
    // The least id the next entry of each partner may carry.
    let mut next = [0u64; 4];
    let mut ascending = [true; 4];
    let mut step = |lane: usize, (id, w): (u32, f64)| {
        ascending[lane] &= u64::from(id) >= next[lane];
        next[lane] = u64::from(id) + 1;
        acc[lane] += table.get(id as usize).copied().unwrap_or(0.0) * w;
    };
    let common = ys.iter().map(|y| y.len()).min().unwrap_or(0);
    for e in 0..common {
        for (lane, y) in ys.iter().enumerate() {
            step(lane, y[e]);
        }
    }
    for (lane, y) in ys.iter().enumerate() {
        for &entry in &y[common..] {
            step(lane, entry);
        }
    }
    std::array::from_fn(|lane| if ascending[lane] { acc[lane] } else { f64::NAN })
}

impl BatchComp<SparseVector, f64> for SparseDotKernel {
    fn eval(&self, a: &SparseVector, b: &SparseVector) -> f64 {
        a.dot(b)
    }

    fn eval_batch(&self, a: &[&SparseVector], b: &[&SparseVector], out: &mut Vec<f64>) {
        let run_at = |ops: &[&SparseVector], i: usize| {
            ops[i..].iter().take_while(|x| std::ptr::eq(**x, ops[i])).count()
        };
        let mut table = Vec::new();
        let mut i = 0;
        while i < a.len() {
            // The longer run from `i`; `eval_batch(b, a)` of a
            // non-symmetric flush has it on the second operand.
            let (run_a, run_b) = (run_at(a, i), run_at(b, i));
            let (shared, partners, len) =
                if run_a >= run_b { (a[i], b, run_a) } else { (b[i], a, run_b) };
            let end = i + len;
            if load_weights(&mut table, &shared.0) {
                for k in (i..end).step_by(4) {
                    // The last group of a run pads its missing partners
                    // with empty vectors and drops their sums.
                    let group = &partners[k..end.min(k + 4)];
                    let ys = std::array::from_fn(|lane| group.get(lane).map_or(&[][..], |y| &y.0));
                    let dots = probe_four(&table, ys);
                    for (k, dot) in (k..).zip(&dots[..group.len()]) {
                        out.push(if dot.is_finite() { *dot } else { a[k].dot(b[k]) });
                    }
                }
                for &(id, _) in &shared.0 {
                    table[id as usize] = 0.0;
                }
            } else {
                out.extend((i..end).map(|k| a[k].dot(b[k])));
            }
            i = end;
        }
    }

    fn name(&self) -> &'static str {
        "sparse-dot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::covariance;
    use crate::docsim::tfidf;
    use crate::generate::{gene_expression, zipf_documents};
    use pmr_core::runner::kernel::TILE_PAIRS;
    use pmr_core::scheme::{
        BlockScheme, BroadcastScheme, DesignScheme, DistributionScheme, QuorumScheme,
    };
    use proptest::prelude::*;

    fn batch_of(kernel: &dyn BatchComp<DenseVector, f64>, data: &[DenseVector]) -> Vec<f64> {
        let a: Vec<&DenseVector> = data.iter().take(data.len() - 1).collect();
        let b: Vec<&DenseVector> = data.iter().skip(1).collect();
        let mut out = Vec::with_capacity(a.len());
        kernel.eval_batch(&a, &b, &mut out);
        out
    }

    #[test]
    fn uniform_dim_validation() {
        let data = gene_expression(10, 16, 4, 0.2, 1);
        assert_eq!(validate_uniform_dim(&data), Ok(16));
        assert_eq!(validate_uniform_dim(&[]), Ok(0));
        let mut bad = data.clone();
        bad[7].0.pop();
        let err = validate_uniform_dim(&bad).unwrap_err();
        assert!(err.contains("element 7"), "{err}");
        assert!(DenseSqDistKernel::for_dataset(&bad).is_err());
    }

    #[test]
    fn eval_batch_is_bitwise_eval() {
        // The BatchComp contract: batched results are exactly the per-pair
        // scalar results, for every dense kernel.
        let data = gene_expression(30, 19, 4, 0.3, 9); // dim % 4 != 0: tail loop runs
        let kernels: Vec<Box<dyn BatchComp<DenseVector, f64>>> = vec![
            Box::new(DenseDotKernel::for_dataset(&data).unwrap()),
            Box::new(DenseSqDistKernel::for_dataset(&data).unwrap()),
            Box::new(DenseCovKernel::for_dataset(&data).unwrap()),
        ];
        for k in &kernels {
            let batched = batch_of(k.as_ref(), &data);
            for (i, r) in batched.iter().enumerate() {
                let scalar = k.eval(&data[i], &data[i + 1]);
                assert_eq!(r.to_bits(), scalar.to_bits(), "{} pair {i}", k.name());
            }
        }
    }

    #[test]
    fn kernels_match_reference_math() {
        let data = gene_expression(12, 21, 3, 0.4, 4);
        let dot = DenseDotKernel::for_dataset(&data).unwrap();
        let sq = DenseSqDistKernel::for_dataset(&data).unwrap();
        let cov = DenseCovKernel::for_dataset(&data).unwrap();
        for i in 0..data.len() {
            for j in 0..i {
                let (a, b) = (&data[i], &data[j]);
                assert!((dot.eval(a, b) - a.dot(b)).abs() < 1e-9);
                let d = crate::distance::euclidean(a, b);
                assert!((sq.eval(a, b) - d * d).abs() < 1e-9);
                assert!((cov.eval(a, b) - covariance(a, b)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn covariance_degenerate_dims() {
        let short = vec![DenseVector(vec![1.0]), DenseVector(vec![2.0])];
        let cov = DenseCovKernel::for_dataset(&short).unwrap();
        assert_eq!(cov.eval(&short[0], &short[1]), 0.0);
    }

    /// Equal by bits, except that any NaN equals any NaN: Rust leaves the
    /// sign and payload of an arithmetic NaN unspecified.
    fn same_bits(r: f64, want: f64) -> bool {
        r.to_bits() == want.to_bits() || (r.is_nan() && want.is_nan())
    }

    /// `eval_batch` over the two operand arrays against per-pair `eval`.
    fn assert_batch_is_eval(a: &[&SparseVector], b: &[&SparseVector]) {
        let mut out = Vec::new();
        SparseDotKernel.eval_batch(a, b, &mut out);
        assert_eq!(out.len(), a.len());
        for (k, r) in out.iter().enumerate() {
            let want = SparseDotKernel.eval(a[k], b[k]);
            assert!(same_bits(*r, want), "pair {k}: batched {r:?}, eval {want:?}");
        }
    }

    /// A dense tile through the run walk with the AVX2 body on and off
    /// (off is the one path of a host without AVX2) and through the
    /// kernel's `eval_batch`, each against the kernels' `eval`. A tile with
    /// vectors of another length than the kernel's skips `eval_batch`,
    /// whose `debug_assert!` rejects them; the walk, like `eval`, takes the
    /// first `min(len)` coordinates of a pair.
    fn assert_dense_batch_is_eval(op: LaneOp, a: &[&DenseVector], b: &[&DenseVector], dim: usize) {
        let walk = |wide| {
            let mut out = Vec::new();
            op.eval_runs(a, b, &mut out, wide);
            out
        };
        let mut paths = vec![("run walk", walk(true)), ("portable run walk", walk(false))];
        if a.iter().chain(b).all(|x| x.dim() == dim) {
            let mut out = Vec::new();
            dense_kernel_for(op, dim).eval_batch(a, b, &mut out);
            paths.push(("eval_batch", out));
        }
        for (path, out) in paths {
            assert_eq!(out.len(), a.len());
            for (k, r) in out.iter().enumerate() {
                let want = op.eval(&a[k].0, &b[k].0);
                assert!(
                    same_bits(*r, want),
                    "{op:?} dim {dim} {path} pair {k}: batched {r:?}, eval {want:?}"
                );
            }
        }
    }

    fn dense_kernel_for(op: LaneOp, dim: usize) -> Box<dyn BatchComp<DenseVector, f64>> {
        match op {
            LaneOp::Product => Box::new(DenseDotKernel::new(dim)),
            LaneOp::SqDiff => Box::new(DenseSqDistKernel::new(dim)),
            LaneOp::Centred => Box::new(DenseCovKernel::new(dim)),
        }
    }

    /// tf-idf weights are logarithms, so a changed summation order shows in
    /// the low bits (raw term counts sum exactly in any order).
    fn weighted_documents(n: usize, vocab: usize, len: usize, seed: u64) -> Vec<SparseVector> {
        tfidf(&zipf_documents(n, vocab, len, 1.1, seed))
    }

    #[test]
    fn sparse_kernel_is_merge_join_dot() {
        let docs = weighted_documents(20, 256, 24, 3);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..docs.len() {
            for j in 0..i {
                let r = SparseDotKernel.eval(&docs[i], &docs[j]);
                assert_eq!(r.to_bits(), docs[i].dot(&docs[j]).to_bits());
                a.push(&docs[i]);
                b.push(&docs[j]);
            }
        }
        // The triangle walk: runs of 1, 2, … 19 on the first operand;
        // swapped, the run is on the second operand, as in the reverse
        // `eval_batch(b, a)` of a non-symmetric flush.
        assert_batch_is_eval(&a, &b);
        assert_batch_is_eval(&b, &a);
        // Tiles that end mid-run.
        for (ca, cb) in a.chunks(7).zip(b.chunks(7)) {
            assert_batch_is_eval(ca, cb);
        }

        // Empty vectors as the shared operand and as a partner; -0.0, ∞ and
        // NaN weights on matched terms (∞ · 0 is a NaN too).
        let empty = SparseVector::default();
        let odd = SparseVector(vec![(1, -0.0), (4, f64::INFINITY), (7, f64::NAN), (9, 0.0)]);
        let zero = SparseVector(vec![(1, 0.0), (4, 0.0), (9, -0.0)]);
        let cast = [&empty, &odd, &zero, &docs[0], &docs[1], &empty];
        for shared in cast {
            assert_batch_is_eval(&[shared; 6], &cast);
            assert_batch_is_eval(&cast, &[shared; 6]);
        }
    }

    /// The table path trusts neither operand: the field is public, so a
    /// vector need not be strictly ascending, and an id may be anything.
    #[test]
    fn sparse_kernel_survives_vectors_that_break_the_invariant() {
        let docs = weighted_documents(6, 64, 12, 5);
        let unsorted = SparseVector(vec![(9, 1.5), (2, 2.5), (30, 0.5)]);
        let duplicate = SparseVector(vec![(2, 1.5), (2, 2.5), (30, 0.5)]);
        let huge = SparseVector(vec![(2, 1.5), (1 << 31, 2.5)]);
        let partners: Vec<&SparseVector> =
            docs.iter().chain([&unsorted, &duplicate, &huge]).collect();
        for shared in [&unsorted, &duplicate, &huge, &docs[0]] {
            let run = vec![shared; partners.len()];
            assert_batch_is_eval(&run, &partners);
            assert_batch_is_eval(&partners, &run);
        }

        // A rejected operand writes no slot and sizes nothing.
        let mut table = Vec::new();
        assert!(!load_weights(&mut table, &huge.0));
        assert!(!load_weights(&mut table, &[(MAX_TABLE_ID + 1, 1.0)]));
        assert_eq!(table.capacity(), 0, "an id past the bound must not allocate");
        assert!(load_weights(&mut table, &[(MAX_TABLE_ID, 1.0)]));
        assert_eq!(table.len(), MAX_TABLE_ID as usize + 1);
        table[MAX_TABLE_ID as usize] = 0.0;
        for bad in [&unsorted, &duplicate, &SparseVector(vec![(1, 1.0), (70, 1.0), (5, 1.0)])] {
            assert!(!load_weights(&mut table, &bad.0));
            assert!(table.iter().all(|&w| w.to_bits() == 0));
        }
        // A partner out of order comes back NaN, whatever its sum.
        let dots = probe_four(&table, [&unsorted.0, &duplicate.0, &[], &docs[0].0]);
        assert!(dots[0].is_nan() && dots[1].is_nan());
        assert_eq!(dots[2..], [0.0, 0.0]);
    }

    /// A run of `shared` against `partners` and the reverse flush, with the
    /// partners rotated up to four times so that each one moves through
    /// the lanes of a group of four.
    fn assert_run_is_eval(shared: &SparseVector, partners: &[&SparseVector]) {
        let mut partners = partners.to_vec();
        for _ in 0..partners.len().min(4) {
            let run = vec![shared; partners.len()];
            assert_batch_is_eval(&run, &partners);
            assert_batch_is_eval(&partners, &run);
            partners.rotate_left(1);
        }
    }

    /// The cases where the branch-free sum and the merge join part ways and
    /// the probe has to hand the pair back, and the shapes of a run that
    /// the groups of four cut.
    #[test]
    fn sparse_probe_edge_cases() {
        let docs = weighted_documents(12, 64, 16, 9);
        let shared = SparseVector(vec![(2, 1.5), (3, -2.0), (9, 0.25), (50, 4.0)]);

        // An ∞ or NaN weight on a term the shared vector lacks: the merge
        // join never multiplies it, the table multiplies it by 0.0.
        for odd in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let partner = SparseVector(vec![(2, 1.0), (4, odd), (9, 2.0)]);
            let table_dot = {
                let mut table = Vec::new();
                assert!(load_weights(&mut table, &shared.0));
                probe_four(&table, [&partner.0, &[], &[], &[]])[0]
            };
            assert!(table_dot.is_nan());
            assert_eq!(shared.dot(&partner), 2.0);
            assert_run_is_eval(&shared, &[&partner, &docs[0], &docs[1], &partner, &docs[2]]);
        }

        // Products that overflow to ∞, alone and cancelling to a NaN.
        let big = SparseVector(vec![(2, 1e300), (3, 1e300), (9, -1e300)]);
        let up = SparseVector(vec![(2, 1e300), (7, 1.0)]);
        let both = SparseVector(vec![(2, 1e300), (9, 1e300)]);
        assert_eq!(big.dot(&up), f64::INFINITY);
        assert!(big.dot(&both).is_nan());
        assert_run_is_eval(&big, &[&up, &both, &docs[3], &up, &shared]);

        // Four partners of unequal length: the interleaved walk stops at
        // the shortest, and the longer ones finish alone.
        let empty = SparseVector::default();
        let one = SparseVector(vec![(3, 0.5)]);
        let long = SparseVector((0..300).map(|id| (id, 0.125 * f64::from(id))).collect());
        assert_run_is_eval(&shared, &[&empty, &one, &docs[4], &long]);
        assert_run_is_eval(&long, &[&docs[5], &one, &long, &docs[6], &empty]);

        // A partner that stops ascending in the middle of a group of four,
        // after the shortest partner has ended and before.
        let turns = SparseVector(vec![(1, 1.0), (2, 2.0), (9, 3.0), (3, 4.0), (50, 5.0)]);
        let repeats = SparseVector(vec![(2, 1.0), (9, 2.0), (9, 3.0)]);
        assert_run_is_eval(&shared, &[&one, &turns, &docs[7], &repeats]);
        assert_run_is_eval(&shared, &[&docs[8], &docs[9], &turns, &long]);

        // Partner ids past the table and past `MAX_TABLE_ID`, up to the
        // largest id there is.
        let far = SparseVector(vec![(2, 1.0), (51, 2.0), (4096, 3.0)]);
        let farther = SparseVector(vec![(3, 1.0), (MAX_TABLE_ID, 2.0), (MAX_TABLE_ID + 1, 3.0)]);
        let last = SparseVector(vec![(9, 1.0), (u32::MAX - 1, 2.0), (u32::MAX, 4.0)]);
        assert_run_is_eval(&shared, &[&far, &farther, &last, &docs[10], &far]);
        assert_run_is_eval(&docs[11], &[&far, &farther, &last]);

        // Runs of every length from a lone pair past two groups of four,
        // so that every remainder after the groups is hit.
        let partners: Vec<&SparseVector> = docs.iter().chain([&far, &turns, &long]).collect();
        for len in 1..=9 {
            assert_run_is_eval(&shared, &partners[..len]);
            assert_run_is_eval(&docs[0], &partners[partners.len() - len..]);
        }
    }

    /// The partner ids of each run of a pair stream, first-operand-major.
    fn partner_runs(pairs: &[(u64, u64)]) -> Vec<Vec<u64>> {
        let runs = pairs.chunk_by(|x, y| x.0 == y.0);
        runs.map(|run| run.iter().map(|&(_, b)| b).collect()).collect()
    }

    /// What the run-aware kernels live off: a block task streams
    /// first-operand-major, one 1024-pair tile being 32 runs of 32, each
    /// run with the partners of the run before it (16 twins for the
    /// two-row pass). In a diagonal tile each run's partners are a prefix
    /// of the next run's.
    #[test]
    fn block_tile_is_32_runs_of_32() {
        let scheme = BlockScheme::new(2048, 16);
        let pairs_of = |task| {
            let mut pairs = Vec::new();
            scheme.for_each_pair(task, &mut |a, b| pairs.push((a, b)));
            pairs
        };
        let full = (0..scheme.num_tasks()).find(|&t| scheme.num_pairs(t) == 128 * 128).unwrap();
        for tile in pairs_of(full).chunks(TILE_PAIRS) {
            let runs = partner_runs(tile);
            assert_eq!(runs.len(), 32);
            assert!(runs.iter().all(|run| run.len() == 32));
            assert!(runs.windows(2).all(|w| w[0] == w[1]));
        }

        // A diagonal task walks its full tiles, then the triangle tile of
        // runs of 1 … 31 (the first element of the tile has no partner).
        let diagonal = (0..scheme.num_tasks()).find(|&t| scheme.num_pairs(t) < 128 * 128).unwrap();
        let pairs = pairs_of(diagonal);
        let triangle = &pairs[pairs.len() - 32 * 31 / 2..];
        let runs = partner_runs(triangle);
        assert_eq!(runs.iter().map(Vec::len).collect::<Vec<_>>(), (1..32).collect::<Vec<_>>());
        assert!(runs.windows(2).all(|w| w[1].starts_with(&w[0])));
    }

    /// The operand arrays of a tile of runs: run `r` pairs `rows[r].0`
    /// with each of `rows[r].1` in turn, the shared operand first.
    fn runs_tile<'d>(
        data: &'d [DenseVector],
        rows: &[(usize, Vec<usize>)],
    ) -> (Vec<&'d DenseVector>, Vec<&'d DenseVector>) {
        rows.iter().flat_map(|(x, ys)| ys.iter().map(|&y| (&data[*x], &data[y]))).unzip()
    }

    /// A tile of runs against `eval` for every lane operation, with the
    /// shared operand on either side, whole and cut into tiles of every
    /// length up to `cut`.
    fn assert_runs_are_eval(data: &[DenseVector], rows: &[(usize, Vec<usize>)], cut: usize) {
        let dim = data[0].dim();
        let (a, b) = runs_tile(data, rows);
        for len in (1..=cut).chain([a.len().max(1)]) {
            for (ca, cb) in a.chunks(len).zip(b.chunks(len)) {
                for op in [LaneOp::Product, LaneOp::SqDiff, LaneOp::Centred] {
                    assert_dense_batch_is_eval(op, ca, cb, dim);
                    assert_dense_batch_is_eval(op, cb, ca, dim);
                }
            }
        }
    }

    /// The two-row pass: a run and its twin, the run right after it with
    /// its shared operand on the same side and of the same length, over
    /// the partners the two have in common, position by position.
    #[test]
    fn dense_twin_runs_are_eval() {
        let span = |from: usize, len: usize| (from..from + len).collect::<Vec<_>>();
        for dim in [1, 5, 19, 64] {
            // Entries 3, 10, 17, 24, 31 and 38 carry a NaN, ±∞ or −0.0.
            let data = awkward_vectors(40, dim, 11, false);

            // Rectangles: one to three rows over the same partners, runs
            // of 1..=9 (a lone row, a twin, a twin and a row on its own).
            for len in 1..=9 {
                for rows in 1..=3 {
                    let tile: Vec<_> = (0..rows).map(|r| (3 + 7 * r, span(20, len))).collect();
                    assert_runs_are_eval(&data, &tile, 0);
                }
            }

            // Prefix twins: the first m partners in common, then none, in
            // runs of equal and of unequal length.
            for m in 0..=9 {
                for (extra0, extra1) in [(0, 0), (0, 1), (1, 0), (3, 5), (4, 4)] {
                    let mut first = span(20, m);
                    first.extend(span(30, extra0));
                    let mut second = span(20, m);
                    second.extend(span(35, extra1));
                    assert_runs_are_eval(&data, &[(0, first), (10, second)], 0);
                }
            }

            // A diagonal tile, each run's partners a prefix of the next
            // run's, cut inside runs and twins at every length up to 13.
            let triangle: Vec<_> = (1..=9).map(|r| (10 + r, span(0, r))).collect();
            assert_runs_are_eval(&data, &triangle, 13);
            let rectangle: Vec<_> = (0..4).map(|r| (30 + r, span(2, 9))).collect();
            assert_runs_are_eval(&data, &rectangle, 13);
        }

        // A twin whose shared operand has another length, and partners
        // shorter and longer than the shared operand. Vectors 1, 6, 11, …
        // have one coordinate fewer, vectors 2, 7, 12, … two more.
        for dim in [5, 19, 64] {
            let ragged = awkward_vectors(40, dim, 12, true);
            // Partners 21 and 26 are short, 22 and 27 long: from 20 on the
            // first group of four meets a short one, from 22 on the second.
            let long: Vec<usize> = (20..40).filter(|i| i % 5 != 1).collect();
            for (x0, x1) in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 6), (2, 7), (0, 5), (3, 2)] {
                for len in [4, 5, 8, 9] {
                    for partners in [span(20, len), span(22, len), long[..len].to_vec()] {
                        let tile = [(x0, partners.clone()), (x1, partners)];
                        assert_runs_are_eval(&ragged, &tile, 5);
                    }
                }
            }
        }
    }

    /// `gene_expression` vectors with NaN, ±∞ and -0.0 written over some
    /// entries; `ragged` also gives some vectors another length.
    fn awkward_vectors(v: usize, dim: usize, seed: u64, ragged: bool) -> Vec<DenseVector> {
        let mut data = gene_expression(v, dim, 3, 0.3, seed);
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        for (i, x) in data.iter_mut().enumerate() {
            if i % 7 == 3 {
                x.0[(i + seed as usize) % dim] = odd[i / 7 % odd.len()];
            }
            if ragged && i % 5 == 1 {
                x.0.truncate(dim - 1);
            }
            if ragged && i % 5 == 2 {
                x.0.extend([1.5, -2.5]);
            }
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The dense twin of the sparse stream test: every task of every
        /// scheme, tiles cut anywhere, both operand orders, for every lane
        /// operation at dimensions that leave every tail length.
        #[test]
        fn dense_batch_is_eval_on_every_scheme_stream(
            v in 2u64..48,
            h in 1u64..7,
            tile in 1usize..80,
            dim in prop::sample::select(vec![1usize, 3, 4, 5, 19, 64, 512]),
            ragged in any::<bool>(),
            seed in 0u64..1000,
        ) {
            let data = awkward_vectors(v as usize, dim, seed, ragged);
            let schemes: Vec<Box<dyn DistributionScheme>> = vec![
                Box::new(BroadcastScheme::new(v, h + 1)),
                Box::new(BlockScheme::new(v, h)),
                Box::new(DesignScheme::new(v)),
                Box::new(QuorumScheme::new(v)),
            ];
            for scheme in &schemes {
                for t in 0..scheme.num_tasks() {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    scheme.for_each_pair(t, &mut |i, j| {
                        a.push(&data[i as usize]);
                        b.push(&data[j as usize]);
                    });
                    for (ca, cb) in a.chunks(tile).zip(b.chunks(tile)) {
                        for op in [LaneOp::Product, LaneOp::SqDiff, LaneOp::Centred] {
                            assert_dense_batch_is_eval(op, ca, cb, dim);
                            assert_dense_batch_is_eval(op, cb, ca, dim);
                        }
                    }
                }
            }
        }

        /// Every task of every scheme, cut into tiles of any length and
        /// fed both ways round: block, design and broadcast stream runs on
        /// the first operand, the quorum walk on whichever side its anchor
        /// lands, and the lone pairs in between, each its own run of one.
        #[test]
        fn sparse_batch_is_eval_on_every_scheme_stream(
            v in 2u64..90,
            h in 1u64..9,
            tile in 1usize..80,
            seed in 0u64..1000,
        ) {
            let docs = weighted_documents(v as usize, 96, 12, seed);
            let schemes: Vec<Box<dyn DistributionScheme>> = vec![
                Box::new(BroadcastScheme::new(v, h + 1)),
                Box::new(BlockScheme::new(v, h)),
                Box::new(DesignScheme::new(v)),
                Box::new(QuorumScheme::new(v)),
            ];
            for scheme in &schemes {
                for t in 0..scheme.num_tasks() {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    scheme.for_each_pair(t, &mut |i, j| {
                        a.push(&docs[i as usize]);
                        b.push(&docs[j as usize]);
                    });
                    for (ca, cb) in a.chunks(tile).zip(b.chunks(tile)) {
                        assert_batch_is_eval(ca, cb);
                        assert_batch_is_eval(cb, ca);
                    }
                }
            }
        }
    }
}
