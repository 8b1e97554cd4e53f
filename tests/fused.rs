//! Fused-aggregation acceptance matrix: with a decomposable aggregator the
//! MR backend must skip job 2 entirely while staying bit-identical to the
//! unfused two-job pipeline — same output, same charged bytes (the paper's
//! cost model), collapsed moved bytes — across every scheme and backend,
//! including seeded node-crash runs. `ConcatSort` runs write their rows in
//! place; they must match too, and a scheme that delivers a pair twice or
//! not at all must be an error there, not an output.

use std::sync::Arc;

use pairwise_mr::apps::docsim::{dot_comp, tfidf};
use pairwise_mr::apps::generate::zipf_documents;
use pairwise_mr::apps::kernels::SparseDotKernel;
use pairwise_mr::core::hierarchical::TwoLevelBlock;
use pairwise_mr::core::scheme::SchemeMetrics;
use pairwise_mr::mapreduce::{builtin, MrError};
use pairwise_mr::prelude::*;

fn payloads(v: u64) -> Vec<u64> {
    (0..v).map(|i| i * 37 % 101).collect()
}

fn comp() -> CompFn<u64, u64> {
    comp_fn(|a: &u64, b: &u64| a.wrapping_mul(31) ^ b)
}

fn schemes(v: u64) -> Vec<(&'static str, Arc<dyn DistributionScheme>)> {
    vec![
        ("broadcast", Arc::new(BroadcastScheme::new(v, 6))),
        ("block", Arc::new(BlockScheme::new(v, 5))),
        ("paired-block", Arc::new(PairedBlockScheme::new(v, 5))),
        ("design", Arc::new(DesignScheme::new(v))),
        ("quorum", Arc::new(QuorumScheme::new(v))),
    ]
}

/// One run of `scheme` on `backend`, everything else explicit.
fn run_on(
    scheme: &Arc<dyn DistributionScheme>,
    backend: Backend<'_>,
    symmetry: Symmetry,
    aggregator: &Arc<dyn Aggregator<u64>>,
    fuse: bool,
) -> Result<PairwiseRun<u64>, MrError> {
    PairwiseJob::new(&payloads(scheme.v()), comp())
        .scheme_arc(Arc::clone(scheme))
        .backend(backend)
        .symmetry(symmetry)
        .aggregator_arc(Arc::clone(aggregator))
        .fuse(fuse)
        .run()
}

fn mr_run(
    scheme: Arc<dyn DistributionScheme>,
    aggregator: Arc<dyn Aggregator<u64>>,
    fuse: bool,
) -> PairwiseRun<u64> {
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    run_on(&scheme, Backend::Mr(&cluster), Symmetry::Symmetric, &aggregator, fuse).unwrap()
}

#[test]
fn fused_mr_skips_job2_with_identical_output_and_charged_bytes() {
    let v = 40u64;
    for (name, scheme) in schemes(v) {
        let fused = mr_run(Arc::clone(&scheme), Arc::new(ConcatSort), true);
        let unfused = mr_run(Arc::clone(&scheme), Arc::new(ConcatSort), false);

        // The fused path is a single job; the unfused path is the paper's
        // literal two-job pipeline.
        let (f, u) = (&fused.mr[0], &unfused.mr[0]);
        assert!(f.fused && f.job2.is_none(), "{name}: fused run must skip job 2");
        assert!(!u.fused && u.job2.is_some(), "{name}: unfused run must keep job 2");

        // Output is bit-identical.
        assert_eq!(fused.output, unfused.output, "{name}");
        assert_eq!(fused.evaluations(), v * (v - 1) / 2, "{name}");
        assert_eq!(unfused.evaluations(), v * (v - 1) / 2, "{name}");

        // The paper's cost model is untouched: charged shuffle bytes and
        // replication counts are byte-identical — fusion only changes what
        // physically moves.
        assert_eq!(f.shuffle_bytes, u.shuffle_bytes, "{name}: charged bytes must not change");
        assert_eq!(f.replicated_records, u.replicated_records, "{name}");
        assert!(
            f.shuffle_moved_bytes < u.shuffle_moved_bytes,
            "{name}: moved bytes must collapse ({} vs {})",
            f.shuffle_moved_bytes,
            u.shuffle_moved_bytes
        );

        // The synthetic charge is bookkept exactly: job-1 physical shuffle
        // plus the fused-charge counter reconstructs the two-job total.
        let job1_shuffle = f.job1.counters[builtin::SHUFFLE_BYTES];
        let charge = f.job1.counters[FUSED_CHARGED_SHUFFLE_COUNTER];
        assert!(charge > 0, "{name}");
        assert_eq!(f.shuffle_bytes, job1_shuffle + charge, "{name}");
    }
}

/// Every scheme × symmetry × aggregator, fused and not, on 1–3 local
/// threads and on MR, equals the sequential reference — `ConcatSort`'s
/// placed rows as well as the filter and top-k accumulators. The fused
/// `ConcatSort` MR run also survives a seeded crash, and the smallest `v`
/// the schemes accept (2 and 3) runs through the same matrix.
#[test]
fn fused_output_identical_across_backends_and_aggregators() {
    let aggregators: Vec<(&'static str, Arc<dyn Aggregator<u64>>)> = vec![
        ("concat", Arc::new(ConcatSort)),
        ("filter", Arc::new(FilterAggregator::new(|r: &u64| !r.is_multiple_of(3)))),
        ("topk", Arc::new(TopKAggregator::new(5, |r: &u64| *r as f64))),
    ];
    for v in [2u64, 3, 36] {
        for (name, scheme) in schemes(v) {
            for symmetry in [Symmetry::Symmetric, Symmetry::NonSymmetric] {
                for (agg_name, agg) in &aggregators {
                    let case = format!("v={v} {name} {symmetry:?} {agg_name}");
                    let reference = PairwiseJob::new(&payloads(v), comp())
                        .symmetry(symmetry)
                        .aggregator_arc(Arc::clone(agg))
                        .run()
                        .unwrap()
                        .output;
                    for fuse in [true, false] {
                        for threads in [1usize, 2, 3] {
                            let local = Backend::Local { threads };
                            let run = run_on(&scheme, local, symmetry, agg, fuse).unwrap();
                            assert_eq!(
                                run.output, reference,
                                "{case}: local/{threads} fuse={fuse}"
                            );
                        }
                        let cluster = Cluster::new(ClusterConfig::with_nodes(4));
                        let run = run_on(&scheme, Backend::Mr(&cluster), symmetry, agg, fuse);
                        assert_eq!(run.unwrap().output, reference, "{case}: mr fuse={fuse}");
                    }
                    if *agg_name == "concat" && v > 3 {
                        let cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, 23));
                        let run = run_on(&scheme, Backend::Mr(&cluster), symmetry, agg, true);
                        assert_eq!(run.unwrap().output, reference, "{case}: mr fused, one crash");
                        assert_eq!(cluster.node_crashes(), 1, "{case}");
                    }
                }
            }
        }
    }
}

/// `BlockScheme` with one task's pair stream tampered with, while its
/// `num_pairs` still adds up to every pair — the case only the write-once
/// check can catch.
struct Tampered {
    inner: BlockScheme,
    /// `true`: the first pair of task 0 is delivered twice; `false`: never.
    duplicate: bool,
}

impl DistributionScheme for Tampered {
    fn v(&self) -> u64 {
        self.inner.v()
    }
    fn num_tasks(&self) -> u64 {
        self.inner.num_tasks()
    }
    fn subsets_of(&self, element: u64) -> Vec<u64> {
        self.inner.subsets_of(element)
    }
    fn working_set(&self, task: u64) -> Vec<u64> {
        self.inner.working_set(task)
    }
    fn pairs(&self, task: u64) -> Vec<(u64, u64)> {
        let mut pairs = self.inner.pairs(task);
        if task == 0 {
            match self.duplicate {
                true => pairs.push(pairs[0]),
                false => drop(pairs.remove(0)),
            }
        }
        pairs
    }
    fn num_pairs(&self, task: u64) -> u64 {
        self.inner.num_pairs(task)
    }
    fn name(&self) -> &'static str {
        "tampered-block"
    }
    fn metrics(&self, n_nodes: u64) -> SchemeMetrics {
        self.inner.metrics(n_nodes)
    }
}

#[test]
fn placed_rows_reject_a_duplicated_or_dropped_pair() {
    let concat: Arc<dyn Aggregator<u64>> = Arc::new(ConcatSort);
    for duplicate in [true, false] {
        let scheme: Arc<dyn DistributionScheme> =
            Arc::new(Tampered { inner: BlockScheme::new(30, 4), duplicate });
        let want = if duplicate { "written twice" } else { "neighbours written" };
        for threads in [1usize, 3] {
            let local = Backend::Local { threads };
            let err = run_on(&scheme, local, Symmetry::Symmetric, &concat, true).unwrap_err();
            assert!(
                matches!(&err, MrError::InvalidJob(msg) if msg.contains(want)),
                "duplicate={duplicate} local/{threads}: {err}"
            );
        }
        let cluster = Cluster::new(ClusterConfig::with_nodes(3));
        let err =
            run_on(&scheme, Backend::Mr(&cluster), Symmetry::Symmetric, &concat, true).unwrap_err();
        assert!(
            matches!(&err, MrError::User(msg) if msg.contains(want)),
            "duplicate={duplicate} mr: {err}"
        );
    }
}

/// Hierarchical rounds each cover part of the pairs, so they stay on the
/// accumulator path and still reproduce the flat run.
#[test]
fn two_level_rounds_match_the_flat_placed_run() {
    let v = 36u64;
    let concat: Arc<dyn Aggregator<u64>> = Arc::new(ConcatSort);
    let flat: Arc<dyn DistributionScheme> = Arc::new(BlockScheme::new(v, 6));
    let local = Backend::Local { threads: 2 };
    let flat = run_on(&flat, local, Symmetry::Symmetric, &concat, true).unwrap().output;
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    for backend in [local, Backend::Mr(&cluster)] {
        let rounds = TwoLevelBlock::new(v, 3, 2).rounds().into_iter().map(Arc::from).collect();
        let run = PairwiseJob::new(&payloads(v), comp()).rounds(rounds).backend(backend).run();
        assert_eq!(run.unwrap().output, flat);
    }
}

/// The same matrix with a kernel that batches: `SparseDotKernel` probes a
/// term table along the operand runs every scheme streams, and on every
/// backend, fused or not, its output is the scalar merge join's bit for
/// bit. tf-idf weights are logarithms, so a changed summation order would
/// show.
#[test]
fn sparse_kernel_output_identical_across_schemes_and_backends() {
    let v = 40u64;
    let docs = tfidf(&zipf_documents(v as usize, 300, 25, 1.1, 11));
    let reference = PairwiseJob::new(&docs, dot_comp()).run().unwrap().output;
    for (name, scheme) in schemes(v) {
        let (fused, unfused) = (
            Cluster::new(ClusterConfig::with_nodes(4)),
            Cluster::new(ClusterConfig::with_nodes(4)),
        );
        let backends = [
            ("sequential", Backend::Sequential, true),
            ("local", Backend::Local { threads: 3 }, true),
            ("mr fused", Backend::Mr(&fused), true),
            ("mr unfused", Backend::Mr(&unfused), false),
        ];
        for (label, backend, fuse) in backends {
            let run = PairwiseJob::new(&docs, dot_comp())
                .kernel(SparseDotKernel)
                .scheme_arc(Arc::clone(&scheme))
                .backend(backend)
                .fuse(fuse)
                .run()
                .unwrap();
            assert_eq!(run.output, reference, "{name}: {label}");
        }
    }
}

#[test]
fn fused_path_is_exactly_once_under_seeded_node_crashes() {
    let v = 40u64;
    let agg = || Arc::new(FilterAggregator::new(|r: &u64| !r.is_multiple_of(3)));
    for (name, scheme) in schemes(v) {
        let healthy = mr_run(Arc::clone(&scheme), agg(), true);
        assert!(healthy.mr[0].fused, "{name}");
        for chaos_seed in [5u64, 23, 1009] {
            let cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, chaos_seed));
            let chaotic = PairwiseJob::new(&payloads(v), comp())
                .scheme_arc(Arc::clone(&scheme))
                .backend(Backend::Mr(&cluster))
                .aggregator_arc(agg())
                .run()
                .unwrap();
            assert_eq!(cluster.node_crashes(), 1, "{name}/seed {chaos_seed}");
            let report = &chaotic.mr[0];
            assert!(report.fused && report.job2.is_none(), "{name}/seed {chaos_seed}");
            assert_eq!(
                chaotic.output, healthy.output,
                "{name}/seed {chaos_seed}: fused output must survive a crash bit-identically"
            );
            // Exactly-once: committed evaluation counts (and the fused
            // charge) ignore killed and duplicate attempts.
            assert_eq!(
                chaotic.evaluations(),
                v * (v - 1) / 2,
                "{name}/seed {chaos_seed}: evaluations must stay exactly-once"
            );
            assert_eq!(
                report.job1.counters[FUSED_CHARGED_SHUFFLE_COUNTER],
                healthy.mr[0].job1.counters[FUSED_CHARGED_SHUFFLE_COUNTER],
                "{name}/seed {chaos_seed}: fused charge must stay exactly-once"
            );
        }
    }
}

/// Every other case here has `u64` results, always 8 bytes on the wire. A
/// result of data-dependent length makes the fused reducers weigh each
/// pre-fold entry for real: the charge must still reproduce the unfused
/// pipeline's byte for byte, healthy and with a seeded crash.
#[test]
fn fused_charge_matches_unfused_for_variable_length_results() {
    let v = 40u64;
    let run = |scheme: &Arc<dyn DistributionScheme>, cluster: &Cluster, fuse: bool| {
        PairwiseJob::new(
            &payloads(v),
            comp_fn(|a: &u64, b: &u64| "ab".repeat(((a ^ b) % 7) as usize)),
        )
        .scheme_arc(Arc::clone(scheme))
        .backend(Backend::Mr(cluster))
        .aggregator(FilterAggregator::new(|r: &String| r.len() != 4))
        .fuse(fuse)
        .run()
        .unwrap()
    };
    let schemes: [(&str, Arc<dyn DistributionScheme>); 2] =
        [("block", Arc::new(BlockScheme::new(v, 5))), ("quorum", Arc::new(QuorumScheme::new(v)))];
    for (name, scheme) in schemes {
        let unfused = run(&scheme, &Cluster::new(ClusterConfig::with_nodes(4)), false);
        let u = &unfused.mr[0];
        let job2_charge =
            u.job2.as_ref().expect("unfused run keeps job 2").counters[builtin::SHUFFLE_BYTES];
        let lengths: std::collections::BTreeSet<usize> = unfused
            .output
            .per_element
            .iter()
            .flat_map(|(_, rs)| rs.iter().map(|(_, r)| r.len()))
            .collect();
        assert!(lengths.len() > 2, "{name}: result lengths must vary, got {lengths:?}");

        let healthy = Cluster::new(ClusterConfig::with_nodes(4));
        let crashed = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, 23));
        for (label, cluster) in [("healthy", &healthy), ("one crash", &crashed)] {
            let fused = run(&scheme, cluster, true);
            let f = &fused.mr[0];
            assert!(f.fused && f.job2.is_none(), "{name}/{label}");
            assert_eq!(fused.output, unfused.output, "{name}/{label}");
            assert_eq!(
                f.job1.counters[FUSED_CHARGED_SHUFFLE_COUNTER], job2_charge,
                "{name}/{label}"
            );
            assert_eq!(f.shuffle_bytes, u.shuffle_bytes, "{name}/{label}: charged bytes");
        }
        assert_eq!(crashed.node_crashes(), 1, "{name}");
    }
}

/// `String` results own heap memory, so `ConcatSort` runs over them stay
/// on the accumulator path instead of placing rows — and still match.
#[test]
fn heap_owning_results_match_the_sequential_reference() {
    let v = 40u64;
    let data = payloads(v);
    let job =
        || PairwiseJob::new(&data, comp_fn(|a: &u64, b: &u64| "ab".repeat(((a ^ b) % 7) as usize)));
    let reference = job().run().unwrap().output;
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    for backend in [Backend::Local { threads: 3 }, Backend::Mr(&cluster)] {
        let run = job().scheme(BlockScheme::new(v, 5)).backend(backend).run().unwrap();
        assert_eq!(run.output, reference);
    }
}
