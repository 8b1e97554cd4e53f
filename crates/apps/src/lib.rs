//! # pmr-apps — the paper's motivating applications
//!
//! Runnable versions of the four §1 workloads of *Pairwise Element
//! Computation with MapReduce*, each built on the `pmr-core` pairwise
//! runner with a synthetic workload generator:
//!
//! * [`distance`] — pairwise Euclidean/Manhattan/cosine distances and
//!   DBSCAN clustering on the aggregated neighbor lists;
//! * [`docsim`] — pairwise document cosine similarity, plus the Elsayed
//!   et al. inverted-index MapReduce baseline the paper's §2 contrasts
//!   against;
//! * [`mutualinfo`] — binned pairwise mutual information and gene-network
//!   edge reconstruction;
//! * [`covariance`] — covariance matrices via pairwise inner products and
//!   PCA by power iteration;
//! * [`prune`] — candidate pruning (exact prefix filtering, minhash LSH
//!   banding) for thresholded similarity joins;
//! * [`vector`] / [`generate`] — payload types and synthetic data.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod covariance;
pub mod distance;
pub mod docsim;
pub mod generate;
pub mod kernels;
pub mod mutualinfo;
pub mod prune;
pub mod vector;

pub use vector::{DenseVector, SparseVector};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared sequential-reference setup for the app test suites: every
    //! suite compares against the same symmetric ground-truth run, so the
    //! aggregator plumbing lives here and each call site stays one line.
    use pmr_core::runner::sequential::run_sequential;
    use pmr_core::runner::{Aggregator, CompFn, ConcatSort, PairwiseOutput, Symmetry};

    /// Symmetric sequential reference with the default concat-sort
    /// aggregator.
    pub fn reference<T, R: Clone>(data: &[T], comp: &CompFn<T, R>) -> PairwiseOutput<R> {
        reference_with(data, comp, &ConcatSort)
    }

    /// [`reference`] under a custom aggregator (pruned / top-k runs).
    pub fn reference_with<T, R: Clone>(
        data: &[T],
        comp: &CompFn<T, R>,
        aggregator: &dyn Aggregator<R>,
    ) -> PairwiseOutput<R> {
        run_sequential(data, comp, Symmetry::Symmetric, aggregator)
    }
}
