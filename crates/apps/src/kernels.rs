//! Batch evaluation kernels for the hot path
//! ([`pmr_core::runner::BatchComp`]): unrolled multi-accumulator dense
//! kernels and a run-aware sparse kernel.
//!
//! The dense kernels keep four independent accumulators and combine them
//! as `(s0 + s1) + (s2 + s3)` — a fixed summation order shared by `eval`
//! and `eval_batch`, so the scalar fallback and the batched path are
//! bit-identical (the [`BatchComp`] contract). Dimension agreement is
//! validated **once per dataset** at kernel construction
//! ([`validate_uniform_dim`]); the per-pair inner loops carry only a
//! `debug_assert!`.

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

/// Inner product with four independent accumulators. `chunks_exact` keeps
/// the inner loop free of bounds checks so LLVM can emit packed doubles;
/// lane-wise packed IEEE ops are the very same operations as the scalar
/// ones, so the result is still bit-identical to the plain 4-accumulator
/// loop.
#[inline(always)]
fn dot4(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut cx, mut cy) = (x.chunks_exact(4), y.chunks_exact(4));
    for (a, b) in (&mut cx).zip(&mut cy) {
        s0 += a[0] * b[0];
        s1 += a[1] * b[1];
        s2 += a[2] * b[2];
        s3 += a[3] * b[3];
    }
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        s0 += a * b;
    }
    (s0 + s1) + (s2 + s3)
}

/// Squared Euclidean distance with four independent accumulators — the
/// summation order `BENCH_pairwise.json` entries are recorded against.
#[inline(always)]
fn sq_dist4(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut cx, mut cy) = (x.chunks_exact(4), y.chunks_exact(4));
    for (a, b) in (&mut cx).zip(&mut cy) {
        let d0 = a[0] - b[0];
        let d1 = a[1] - b[1];
        let d2 = a[2] - b[2];
        let d3 = a[3] - b[3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        let d = a - b;
        s0 += d * d;
    }
    (s0 + s1) + (s2 + s3)
}

/// Covariance `Σ (xᵢ − x̄)(yᵢ − ȳ) / (n − 1)` with four independent
/// cross-product accumulators; the means use the plain left-to-right sum
/// of [`DenseVector::mean`].
#[inline(always)]
fn cov4(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    if n < 2 {
        return 0.0;
    }
    let (x, y) = (&x[..n], &y[..n]);
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
    let (mut cx, mut cy) = (x.chunks_exact(4), y.chunks_exact(4));
    for (a, b) in (&mut cx).zip(&mut cy) {
        s0 += (a[0] - mx) * (b[0] - my);
        s1 += (a[1] - mx) * (b[1] - my);
        s2 += (a[2] - mx) * (b[2] - my);
        s3 += (a[3] - mx) * (b[3] - my);
    }
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        s0 += (a - mx) * (b - my);
    }
    ((s0 + s1) + (s2 + s3)) / (n - 1) as f64
}

macro_rules! dense_kernel {
    ($(#[$doc:meta])* $name:ident, $inner:ident, $label:literal) => {
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
                $inner(&a.0, &b.0)
            }

            fn eval_batch(&self, a: &[&DenseVector], b: &[&DenseVector], out: &mut Vec<f64>) {
                for (x, y) in a.iter().zip(b) {
                    debug_assert_eq!(x.dim(), self.dim, "dimension mismatch");
                    debug_assert_eq!(y.dim(), self.dim, "dimension mismatch");
                    out.push($inner(&x.0, &y.0));
                }
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
    dot4,
    "dense-dot"
);

dense_kernel!(
    /// Batched squared Euclidean distance — the acceptance benchmark's
    /// kernel. Matches the scalar `sq_dist` comp of the perf harness
    /// bit-for-bit.
    DenseSqDistKernel,
    sq_dist4,
    "dense-sq-dist"
);

dense_kernel!(
    /// Batched covariance (PCA workload). Note: uses the four-accumulator
    /// summation order, so results differ in the last ulps from the plain
    /// left-to-right [`crate::covariance::covariance`] comp.
    DenseCovKernel,
    cov4,
    "dense-cov"
);

/// Batched sparse inner product. `eval` is the merge join of
/// [`SparseVector::dot`]; `eval_batch` uses the operand runs of a tile
/// (see [`pmr_core::runner::kernel`]): consecutive pairs that share one
/// operand — the same reference — scatter it once into a direct-index
/// term table (`table[id] = position + 1`) and every partner probes the
/// table with its own entries in ascending id. The matched products and
/// their summation order are the merge join's, so the two agree bit for
/// bit; runs shorter than `MIN_RUN` and operands the table cannot hold
/// take `eval`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseDotKernel;

/// Shortest operand run that takes the term table. A run of two already
/// reads 170 against 640 ns/pair for the merge join on 43-term documents
/// (a merge step costs about five probes). A lone pair — all a filtered
/// join leaves — has nothing to share the scatter with and keeps
/// [`SparseVector::dot`], which gallops when the two lengths are far apart.
const MIN_RUN: usize = 2;

/// Largest term id the table covers: 2^18 + 1 `u32` slots, 1 MiB. The
/// table grows to the largest id it is shown and never past this, whatever
/// ids a vector carries. The bound keeps the probes in a second-level
/// cache: at 2^20 (4 MiB) 8-term documents over a 10^6-term vocabulary
/// read 190 against 125 ns/pair for the merge join, at 2^18 and below the
/// table won on every shape tried (what the bound gives up: 64-term
/// documents over that vocabulary, 390 against 1050).
const MAX_TABLE_ID: u32 = 1 << 18;

/// Writes `position + 1` of every entry of `x` into `table`, growing it to
/// `x`'s largest id. Returns `false` with the table all zero again when
/// `x` is not strictly ascending or reaches past [`MAX_TABLE_ID`].
fn scatter(table: &mut Vec<u32>, x: &[(u32, f64)]) -> bool {
    let Some(&(last, _)) = x.last() else { return true };
    if last > MAX_TABLE_ID {
        return false;
    }
    if table.len() <= last as usize {
        table.resize(last as usize + 1, 0);
    }
    let mut prev = None;
    for (pos, &(id, _)) in x.iter().enumerate() {
        match table.get_mut(id as usize) {
            Some(slot) if prev < Some(id) => *slot = pos as u32 + 1,
            _ => {
                unscatter(table, &x[..pos]);
                return false;
            }
        }
        prev = Some(id);
    }
    true
}

/// Zeroes the slots [`scatter`] wrote for `x`.
fn unscatter(table: &mut [u32], x: &[(u32, f64)]) {
    for &(id, _) in x {
        table[id as usize] = 0;
    }
}

/// Inner product of the scattered `x` with `y`: the merge join's matched
/// products in the merge join's order. `None` when `y` is not strictly
/// ascending — the merge join's answer then depends on where it stops.
fn probe_dot(table: &[u32], x: &[(u32, f64)], y: &[(u32, f64)]) -> Option<f64> {
    let mut acc = 0.0;
    let mut prev = None;
    for &(id, w) in y {
        if prev >= Some(id) {
            return None;
        }
        prev = Some(id);
        if let Some(&slot) = table.get(id as usize) {
            if slot != 0 {
                acc += x[slot as usize - 1].1 * w;
            }
        }
    }
    Some(acc)
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
            if len >= MIN_RUN && scatter(&mut table, &shared.0) {
                for k in i..end {
                    let dot = probe_dot(&table, &shared.0, &partners[k].0);
                    out.push(dot.unwrap_or_else(|| a[k].dot(b[k])));
                }
                unscatter(&mut table, &shared.0);
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

    /// `eval_batch` over the two operand arrays against per-pair `eval`,
    /// by bits (any NaN equals any NaN: Rust leaves the sign and payload of
    /// an arithmetic NaN unspecified).
    fn assert_batch_is_eval(a: &[&SparseVector], b: &[&SparseVector]) {
        let mut out = Vec::new();
        SparseDotKernel.eval_batch(a, b, &mut out);
        assert_eq!(out.len(), a.len());
        for (k, r) in out.iter().enumerate() {
            let want = SparseDotKernel.eval(a[k], b[k]);
            assert!(
                r.to_bits() == want.to_bits() || (r.is_nan() && want.is_nan()),
                "pair {k}: batched {r:?}, eval {want:?}"
            );
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
        // The triangle walk: runs of 1 (below MIN_RUN), 2 (at it), … 19 on
        // the first operand; swapped, the run is on the second operand, as
        // in the reverse `eval_batch(b, a)` of a non-symmetric flush.
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

        // A rejected operand leaves no slot behind and sizes nothing.
        let mut table = Vec::new();
        assert!(!scatter(&mut table, &huge.0));
        assert!(!scatter(&mut table, &[(MAX_TABLE_ID + 1, 1.0)]));
        assert_eq!(table.capacity(), 0, "an id past the bound must not allocate");
        assert!(scatter(&mut table, &[(MAX_TABLE_ID, 1.0)]));
        assert_eq!(table.len(), MAX_TABLE_ID as usize + 1);
        unscatter(&mut table, &[(MAX_TABLE_ID, 1.0)]);
        for bad in [&unsorted, &duplicate, &SparseVector(vec![(1, 1.0), (70, 1.0), (5, 1.0)])] {
            assert!(!scatter(&mut table, &bad.0));
            assert!(table.iter().all(|&slot| slot == 0));
        }
        assert_eq!(probe_dot(&table, &[], &unsorted.0), None);
        assert_eq!(probe_dot(&table, &[], &duplicate.0), None);
    }

    /// What the run-aware kernel lives off: a block task streams
    /// first-operand-major, one 1024-pair tile being 32 runs of 32.
    #[test]
    fn block_tile_is_32_runs_of_32() {
        let scheme = BlockScheme::new(2048, 16);
        let task = (0..scheme.num_tasks()).find(|&t| scheme.num_pairs(t) == 128 * 128).unwrap();
        let mut firsts = Vec::new();
        scheme.for_each_pair(task, &mut |a, _| firsts.push(a));
        for tile in firsts.chunks(TILE_PAIRS) {
            let runs: Vec<&[u64]> = tile.chunk_by(|x, y| x == y).collect();
            assert_eq!(runs.len(), 32);
            assert!(runs.iter().all(|run| run.len() == 32));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every task of every scheme, cut into tiles of any length and
        /// fed both ways round: block, design and broadcast stream runs on
        /// the first operand, the quorum walk on whichever side its anchor
        /// lands, and the lone pairs in between take the merge join.
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
