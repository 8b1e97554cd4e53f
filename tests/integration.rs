//! Workspace-spanning integration tests: applications running end-to-end
//! on the MapReduce pipeline, cross-backend equivalence, and the §7
//! hierarchical rounds — all through the `PairwiseJob` builder.

use std::sync::Arc;

use pairwise_mr::apps::covariance::{assemble_covariance, covariance_comp, top_eigenpairs};
use pairwise_mr::apps::distance::{dbscan, euclidean_comp, num_clusters};
use pairwise_mr::apps::docsim::{dot_comp, run_elsayed};
use pairwise_mr::apps::generate::{gaussian_clusters, random_matrix_rows, zipf_documents};
use pairwise_mr::core::hierarchical::{BatchedDesign, TwoLevelBlock};
use pairwise_mr::prelude::*;

#[test]
fn dbscan_identical_across_all_backends_and_schemes() {
    let (points, _) = gaussian_clusters(60, 3, 2, 0.5, 42);
    let v = points.len() as u64;
    let eps = 3.0;

    let reference = PairwiseJob::new(&points, euclidean_comp()).run().unwrap().output;
    let ref_labels = dbscan(&reference, eps, 4);
    assert_eq!(num_clusters(&ref_labels), 3);

    // Local backend, each scheme.
    let schemes: Vec<Arc<dyn DistributionScheme>> = vec![
        Arc::new(BroadcastScheme::new(v, 5)),
        Arc::new(BlockScheme::new(v, 4)),
        Arc::new(DesignScheme::new(v)),
    ];
    for s in &schemes {
        let run = PairwiseJob::new(&points, euclidean_comp())
            .scheme_arc(Arc::clone(s))
            .backend(Backend::Local { threads: 3 })
            .run()
            .unwrap();
        assert_eq!(dbscan(&run.output, eps, 4), ref_labels, "local/{}", s.name());
    }

    // MR backend with ε-pruning aggregation still yields the same clusters.
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let run = PairwiseJob::new(&points, euclidean_comp())
        .scheme(BlockScheme::new(v, 4))
        .backend(Backend::Mr(&cluster))
        .aggregator(FilterAggregator::new(move |d: &f64| *d <= eps))
        .run()
        .unwrap();
    assert_eq!(dbscan(&run.output, eps, 4), ref_labels, "mr/pruned");
}

#[test]
fn covariance_pca_on_mr_matches_sequential() {
    let rows = random_matrix_rows(24, 60, 9);
    let reference = PairwiseJob::new(&rows, covariance_comp()).run().unwrap().output;
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    let out = PairwiseJob::new(&rows, covariance_comp())
        .scheme(DesignScheme::new(24))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap()
        .output;
    assert_eq!(out, reference);
    let m_seq = assemble_covariance(&rows, &reference);
    let m_mr = assemble_covariance(&rows, &out);
    assert_eq!(m_seq, m_mr);
    let eigs = top_eigenpairs(&m_mr, 2, 200);
    assert!(eigs[0].0 >= eigs[1].0);
}

#[test]
fn elsayed_and_generic_pairwise_agree_via_mr() {
    let docs = zipf_documents(30, 300, 25, 1.0, 3);
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let pairwise = PairwiseJob::new(&docs, dot_comp())
        .scheme(BlockScheme::new(30, 3))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap()
        .output;
    let cluster2 = Cluster::new(ClusterConfig::with_nodes(3));
    let baseline = run_elsayed(&cluster2, &docs, "it-elsayed").unwrap();
    for ((a, b), d) in &baseline.dot_products {
        let r =
            pairwise.results_of(*a).unwrap().iter().find(|(o, _)| o == b).map(|(_, r)| *r).unwrap();
        assert!((d - r).abs() < 1e-9 * (1.0 + r.abs()));
    }
}

#[test]
fn broadcast_cache_variant_equals_two_job_variant() {
    let payloads: Vec<u64> = (0..40u64).map(|i| i * 7 % 53).collect();
    let comp = comp_fn(|a: &u64, b: &u64| a.abs_diff(*b));
    let scheme = BroadcastScheme::new(40, 6);

    // `.scheme(...)` runs the broadcast scheme through the generic two-job
    // pipeline; `.broadcast(...)` takes the §5.1 distributed-cache path.
    let c1 = Cluster::new(ClusterConfig::with_nodes(3));
    let two_jobs = PairwiseJob::new(&payloads, Arc::clone(&comp))
        .scheme(scheme.clone())
        .backend(Backend::Mr(&c1))
        .run()
        .unwrap();

    let c2 = Cluster::new(ClusterConfig::with_nodes(3));
    let cache = PairwiseJob::new(&payloads, comp)
        .broadcast(scheme)
        .backend(Backend::Mr(&c2))
        .run()
        .unwrap();

    assert_eq!(two_jobs.output, cache.output);
    // The cache variant avoids shuffling v·p element copies through the
    // sort phase: its shuffle is strictly smaller.
    assert!(
        cache.mr[0].shuffle_bytes < two_jobs.mr[0].shuffle_bytes,
        "cache {} vs shuffle {}",
        cache.mr[0].shuffle_bytes,
        two_jobs.mr[0].shuffle_bytes
    );
}

#[test]
fn two_level_rounds_match_flat_and_bound_intermediate() {
    let payloads: Vec<u64> = (0..48u64).map(|i| i * 13 % 97).collect();
    let comp = comp_fn(|a: &u64, b: &u64| a.abs_diff(*b));
    let reference = PairwiseJob::new(&payloads, Arc::clone(&comp)).run().unwrap().output;

    let tlb = TwoLevelBlock::new(48, 3, 2);
    let rounds = tlb.rounds();
    let cluster = Cluster::new(ClusterConfig::with_nodes(3)).with_telemetry(Telemetry::enabled());
    let hierarchical = PairwiseJob::new(&payloads, Arc::clone(&comp))
        .rounds(rounds.clone())
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(hierarchical.output, reference);
    assert_eq!(hierarchical.mr.len() as u64, tlb.num_rounds());

    // The report names the plan, not the last round run under it, on
    // either backend.
    let local = PairwiseJob::new(&payloads, Arc::clone(&comp))
        .rounds(rounds)
        .backend(Backend::Local { threads: 2 })
        .telemetry(Telemetry::enabled())
        .run()
        .unwrap();
    assert_eq!(local.output, reference);
    for (backend, run) in [("mr", &hierarchical), ("local", &local)] {
        let meta = |key: &str| run.report.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(meta("scheme").map(String::as_str), Some("hierarchical-rounds"), "{backend}");
        assert_eq!(meta("backend").map(String::as_str), Some(backend));
        assert_eq!(meta("scheme.tasks"), None, "{backend}");
    }

    // Compare against the flat block scheme with matching task granularity.
    let cluster_flat = Cluster::new(ClusterConfig::with_nodes(3));
    let flat = PairwiseJob::new(&payloads, comp)
        .scheme(BlockScheme::new(48, 6))
        .backend(Backend::Mr(&cluster_flat))
        .run()
        .unwrap();
    assert_eq!(flat.output, reference);
    let max_round_peak = hierarchical.mr.iter().map(|r| r.peak_intermediate_bytes).max().unwrap();
    assert!(
        max_round_peak < flat.mr[0].peak_intermediate_bytes,
        "hierarchical rounds should bound intermediate storage: {} vs flat {}",
        max_round_peak,
        flat.mr[0].peak_intermediate_bytes
    );
}

#[test]
fn batched_design_rounds_match_flat_design() {
    let payloads: Vec<u64> = (0..31u64).map(|i| i * 11 % 89).collect();
    let comp = comp_fn(|a: &u64, b: &u64| a.abs_diff(*b));
    let reference = PairwiseJob::new(&payloads, Arc::clone(&comp)).run().unwrap().output;

    let rounds = BatchedDesign::new(31, 4).rounds();
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let run = PairwiseJob::new(&payloads, comp)
        .rounds(rounds)
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert_eq!(run.output, reference);
    assert_eq!(run.mr.len(), 4);
}

#[test]
fn nonsymmetric_comp_consistent_across_backends() {
    let payloads: Vec<u64> = (0..26u64).collect();
    let comp = comp_fn(|a: &u64, b: &u64| a * 100 + b);
    let reference = PairwiseJob::new(&payloads, Arc::clone(&comp))
        .symmetry(Symmetry::NonSymmetric)
        .run()
        .unwrap()
        .output;
    let local = PairwiseJob::new(&payloads, Arc::clone(&comp))
        .scheme(DesignScheme::new(26))
        .backend(Backend::Local { threads: 2 })
        .symmetry(Symmetry::NonSymmetric)
        .run()
        .unwrap()
        .output;
    assert_eq!(local, reference);
    let cluster = Cluster::new(ClusterConfig::with_nodes(2));
    let mr = PairwiseJob::new(&payloads, comp)
        .scheme(DesignScheme::new(26))
        .backend(Backend::Mr(&cluster))
        .symmetry(Symmetry::NonSymmetric)
        .run()
        .unwrap()
        .output;
    assert_eq!(mr, reference);
}

#[test]
fn run_report_covers_mr_pipeline() {
    // The full observability path: telemetry on the cluster, a run through
    // the builder, and a report whose phases/counters are consistent.
    let payloads: Vec<u64> = (0..32u64).map(|i| i * 3 % 41).collect();
    let cluster = Cluster::new(ClusterConfig::with_nodes(3)).with_telemetry(Telemetry::enabled());
    let run = PairwiseJob::new(&payloads, comp_fn(|a: &u64, b: &u64| a.abs_diff(*b)))
        .scheme(BlockScheme::new(32, 4))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    let report = &run.report;
    assert!(report.wall_time_us > 0);
    assert!(report.task_spans.iter().any(|s| s.kind == "map"));
    assert!(report.task_spans.iter().any(|s| s.kind == "reduce"));
    assert!(!report.node_timelines.is_empty());
    assert!(report.meta.iter().any(|(k, v)| k == "scheme" && v == "block"));
    // Histograms, spans and counters agree.
    run.check().unwrap();
    // JSON export round-trips through the writer without panicking and
    // carries the schema tag.
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"pmr.run_report/10\""));
}

#[test]
fn trace_diff_names_the_scheme_with_the_longer_critical_path() {
    // Two seeded runs of the same workload under different blocking
    // factors: the diff must label each run distinguishably and name the
    // one whose critical path is actually longer.
    use pairwise_mr::obs::{CriticalPath, TraceDiff};
    let payloads: Vec<u64> = (0..48u64).map(|i| i * 37 % 101).collect();
    let comp = comp_fn(|a: &u64, b: &u64| a.wrapping_mul(31) ^ b);
    let run_with_h = |h: u64| {
        let cluster =
            Cluster::new(ClusterConfig::with_nodes(3)).with_telemetry(Telemetry::enabled());
        PairwiseJob::new(&payloads, Arc::clone(&comp))
            .scheme(BlockScheme::new(48, h))
            .backend(Backend::Mr(&cluster))
            .run()
            .unwrap()
    };
    let coarse = run_with_h(3);
    let fine = run_with_h(12);
    let diff = TraceDiff::compute(&coarse.report, &fine.report);
    assert_ne!(diff.label_a, diff.label_b, "task counts must distinguish the labels");
    let cp_a = CriticalPath::from_report(&coarse.report).unwrap();
    let cp_b = CriticalPath::from_report(&fine.report).unwrap();
    assert_eq!(diff.critical_path_us, (cp_a.duration_us, cp_b.duration_us));
    let expected = if cp_a.duration_us >= cp_b.duration_us { &diff.label_a } else { &diff.label_b };
    assert_eq!(&diff.longer_critical_path, expected);
    // Attribution categories tile each chain exactly.
    let (c, s, r, w) = diff.attribution_a;
    assert_eq!(c + s + r + w, cp_a.duration_us);
    let (c, s, r, w) = diff.attribution_b;
    assert_eq!(c + s + r + w, cp_b.duration_us);
}
