//! Pairwise document similarity two ways: the paper's generic pairwise
//! machinery versus the Elsayed et al. inverted-index baseline from the
//! related-work section (§2).
//!
//! The baseline exploits sparsity (only documents sharing a term are
//! compared); the generic schemes pay the full quadratic cost but work for
//! *any* comp function. This example measures both on the same corpus.
//!
//! ```sh
//! cargo run --release --example document_similarity
//! ```

use pairwise_mr::apps::docsim::{dot_comp, normalize_to_cosine, run_elsayed};
use pairwise_mr::apps::generate::zipf_documents;
use pairwise_mr::apps::kernels::SparseDotKernel;
use pairwise_mr::prelude::*;

fn main() {
    let n_docs = 120usize;
    let docs = zipf_documents(n_docs, 2_000, 60, 1.1, 7);

    // --- Generic pairwise (design scheme on MR), through the batch kernel:
    //     the same inner product as `dot_comp`, evaluated a tile at a time. ---
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    let run = PairwiseJob::new(&docs, dot_comp())
        .kernel(SparseDotKernel)
        .scheme(DesignScheme::new(n_docs as u64))
        .backend(Backend::Mr(&cluster))
        .run()
        .expect("pairwise run failed");
    let pairwise_out = &run.output;
    println!(
        "generic pairwise: {} evaluations, {} shuffle bytes",
        run.mr[0].evaluations, run.mr[0].shuffle_bytes
    );

    // --- Elsayed inverted-index baseline (two different MR jobs). ---
    let cluster2 = Cluster::new(ClusterConfig::with_nodes(4));
    let baseline = run_elsayed(&cluster2, &docs, "docsim").expect("baseline failed");
    println!(
        "elsayed baseline: {} pair contributions, {} nonzero document pairs",
        baseline.contributions,
        baseline.dot_products.len()
    );

    // --- Agreement check on every overlapping pair. ---
    let cosines = normalize_to_cosine(&baseline.dot_products, &docs);
    let mut checked = 0usize;
    for ((a, b), cos_baseline) in &cosines {
        let dot = pairwise_out
            .results_of(*a)
            .unwrap()
            .iter()
            .find(|(o, _)| o == b)
            .map(|(_, r)| *r)
            .unwrap();
        let denom = docs[*a as usize].norm() * docs[*b as usize].norm();
        let cos_pairwise = if denom == 0.0 { 0.0 } else { dot / denom };
        assert!((cos_baseline - cos_pairwise).abs() < 1e-9, "pair ({a},{b}) disagrees");
        checked += 1;
    }
    println!("both methods agree on all {checked} overlapping pairs ✓");

    let total_pairs = n_docs * (n_docs - 1) / 2;
    println!(
        "dense corpus: baseline did {} contributions vs {} full-pairwise evaluations \
         ({:.1}% of pairs share a term) — quadratic complexity is NOT reduced here,\n\
         which is exactly the regime the paper targets (§2)",
        baseline.contributions,
        total_pairs,
        100.0 * baseline.dot_products.len() as f64 / total_pairs as f64
    );

    // --- Same comparison on a sparse corpus (large vocabulary, short,
    //     weakly-skewed documents): the baseline's home turf. ---
    let sparse = zipf_documents(n_docs, 200_000, 8, 0.4, 13);
    let cluster3 = Cluster::new(ClusterConfig::with_nodes(4));
    let sparse_baseline = run_elsayed(&cluster3, &sparse, "docsim-sparse").unwrap();
    println!(
        "sparse corpus: baseline did {} contributions vs {} full-pairwise evaluations \
         ({:.1}% of pairs share a term) — here the inverted index wins",
        sparse_baseline.contributions,
        total_pairs,
        100.0 * sparse_baseline.dot_products.len() as f64 / total_pairs as f64
    );
    assert!(
        sparse_baseline.contributions < total_pairs as u64,
        "baseline should beat full pairwise on the sparse corpus"
    );
}
