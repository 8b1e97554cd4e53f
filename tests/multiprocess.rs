//! Multi-process transport parity: for every scheme × fusion combination
//! the in-process and multi-process transports must produce bit-identical
//! output and identical *charged* counters, and on healthy runs the bytes
//! physically measured on the worker sockets must equal the reported
//! `mr.{map.output,shuffle}.moved.bytes` exactly. A SIGKILL'd real worker
//! process is recovered from without changing the output.
//!
//! Run `cargo build -p pmr-cluster --bin pmr-worker` first when invoking
//! this file outside a full workspace build (the tests spawn that binary).

use std::sync::Arc;

use pairwise_mr::apps::distance::euclidean_comp;
use pairwise_mr::apps::generate::gaussian_clusters;
use pairwise_mr::cluster::{ClusterError, NodeId};
use pairwise_mr::prelude::*;

fn process_config(n: usize) -> ClusterConfig {
    ClusterConfig::with_nodes(n).transport(TransportKind::Process { socket: SocketMode::Uds })
}

fn run_on(
    cluster: &Cluster,
    scheme: Arc<dyn DistributionScheme>,
    points: &[pairwise_mr::apps::DenseVector],
    fuse: bool,
) -> PairwiseRun<f64> {
    let job = PairwiseJob::new(points, euclidean_comp()).backend(Backend::Mr(cluster)).fuse(fuse);
    // The broadcast scheme runs the paper's §5.1 single-job
    // distributed-cache variant; everything else the two-job pipeline.
    let v = points.len() as u64;
    let job = if scheme.name() == "broadcast" {
        job.broadcast(BroadcastScheme::new(v, scheme.num_tasks()))
    } else {
        job.scheme_arc(scheme)
    };
    job.run().expect("pairwise run")
}

/// The full parity matrix: scheme × fused/unfused, in-process vs real
/// worker processes over UDS.
#[test]
fn output_and_charged_counters_identical_across_transports() {
    let (points, _) = gaussian_clusters(36, 3, 2, 0.5, 7);
    let v = points.len() as u64;
    let schemes: Vec<Arc<dyn DistributionScheme>> = vec![
        Arc::new(BlockScheme::new(v, 4)),
        Arc::new(PairedBlockScheme::new(v, 4)),
        Arc::new(BroadcastScheme::new(v, 6)),
        Arc::new(DesignScheme::new(v)),
        Arc::new(QuorumScheme::new(v)),
    ];
    for fuse in [true, false] {
        for scheme in &schemes {
            let label = format!("{}/fuse={fuse}", scheme.name());
            let inproc = Cluster::new(ClusterConfig::with_nodes(3));
            let a = run_on(&inproc, Arc::clone(scheme), &points, fuse);
            let proc_cluster = Cluster::try_new(process_config(3)).expect("spawn workers");
            let b = run_on(&proc_cluster, Arc::clone(scheme), &points, fuse);

            assert_eq!(a.output, b.output, "{label}: output must be bit-identical");

            // Every deterministic charged / model-level number is
            // transport-invariant. (`network_bytes` and
            // `peak_intermediate_bytes` depend on which node the
            // work-stealing scheduler happened to place each task on and
            // vary between two identical in-process runs already, so they
            // are not compared.)
            let (ra, rb) = (&a.mr[0], &b.mr[0]);
            assert_eq!(ra.evaluations, rb.evaluations, "{label}");
            assert_eq!(ra.replicated_records, rb.replicated_records, "{label}");
            assert_eq!(ra.shuffle_bytes, rb.shuffle_bytes, "{label}");
            assert_eq!(ra.shuffle_moved_bytes, rb.shuffle_moved_bytes, "{label}");
            assert_eq!(ra.max_working_set_bytes, rb.max_working_set_bytes, "{label}");
            assert_eq!(ra.fused, rb.fused, "{label}");

            // The in-process transport never touches a socket; the
            // multi-process one physically moved exactly what the moved
            // counters reported (healthy run, no speculation: `check`).
            assert_eq!(ra.transport, "in-process");
            assert_eq!(ra.wire.total_bytes(), 0, "{label}");
            assert_eq!(rb.transport, "process");
            b.check().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(rb.wire.seed_bytes > 0, "{label}: store was shipped to the workers");
        }
    }
}

/// Chaos on the multi-process transport SIGKILLs a real worker process
/// mid-run; recovery re-runs the lost work and the output still matches a
/// healthy in-process run bit-for-bit. Losing attempts may put scratch on
/// the wire, so physically moved bytes can only exceed the charged-moved
/// counters — never undershoot them.
#[test]
fn sigkill_of_real_worker_is_recovered_with_identical_output() {
    let (points, _) = gaussian_clusters(30, 3, 2, 0.5, 11);
    let v = points.len() as u64;
    let healthy = Cluster::new(ClusterConfig::with_nodes(4));
    let reference = run_on(&healthy, Arc::new(BlockScheme::new(v, 4)), &points, true);

    let cluster = Cluster::try_new(process_config(4).chaos(1, 23)).expect("spawn workers");
    let chaotic = run_on(&cluster, Arc::new(BlockScheme::new(v, 4)), &points, true);

    assert_eq!(chaotic.output, reference.output, "output must survive a SIGKILL'd worker");
    let r = &chaotic.mr[0];
    assert_eq!(r.node_crashes, 1, "the chaos plan fired");
    let table = cluster.workers();
    let dead: Vec<_> = table.iter().filter(|w| !w.alive).collect();
    assert_eq!(dead.len(), 1, "exactly one worker process was killed: {table:?}");
    // Recovery may re-move data, but never less than the counters claim.
    chaotic.check().unwrap();
    assert!(r.wire.total_bytes() > 0);
}

/// TCP fallback: same output and charged counters as UDS on the same
/// seed, for environments without Unix-domain sockets.
#[test]
fn tcp_socket_mode_matches_uds() {
    let (points, _) = gaussian_clusters(24, 3, 2, 0.5, 5);
    let v = points.len() as u64;
    let uds = Cluster::try_new(process_config(2)).expect("spawn uds workers");
    let a = run_on(&uds, Arc::new(BlockScheme::new(v, 3)), &points, true);
    let tcp = Cluster::try_new(
        ClusterConfig::with_nodes(2).transport(TransportKind::Process { socket: SocketMode::Tcp }),
    )
    .expect("spawn tcp workers");
    let b = run_on(&tcp, Arc::new(BlockScheme::new(v, 3)), &points, true);
    assert_eq!(a.output, b.output);
    assert_eq!(a.mr[0].shuffle_bytes, b.mr[0].shuffle_bytes);
    assert_eq!(a.mr[0].wire.shuffle_bytes, b.mr[0].wire.shuffle_bytes);
}

/// A run removes the dataset copy it seeded into every worker, whether it
/// succeeds or fails: a long-lived cluster does not collect one per run.
#[test]
fn seeded_store_is_removed_after_success_and_failure() {
    let (points, _) = gaussian_clusters(24, 3, 2, 0.5, 5);
    let v = points.len() as u64;
    for (config, ok) in
        [(process_config(2), true), (process_config(2).task_memory_budget(64), false)]
    {
        let cluster = Cluster::try_new(config).expect("spawn workers");
        let run = PairwiseJob::new(&points, euclidean_comp())
            .scheme(BlockScheme::new(v, 3))
            .backend(Backend::Mr(&cluster))
            .mr_options(MrPairwiseOptions { dfs_dir: "seeded".into(), ..Default::default() })
            .run();
        assert_eq!(run.is_ok(), ok, "{:?}", run.err());
        for n in 0..2 {
            let seed = cluster.transport().store(NodeId(n)).get("seed/seeded/store");
            assert!(matches!(seed, Err(ClusterError::NoSuchFile(_))), "worker {n}: {seed:?}");
        }
    }
}

/// The driver takes each part of a fused run's job 1 in memory, so the
/// output never crosses a worker socket as DFS traffic: a run that keeps
/// every result and one that keeps a single neighbour per element put the
/// same DFS bytes on the wire, the input shards' alone.
#[test]
fn job_output_never_crosses_the_socket_as_dfs_traffic() {
    let (points, _) = gaussian_clusters(36, 3, 2, 0.5, 7);
    let v = points.len() as u64;
    let cluster = Cluster::try_new(process_config(2)).expect("spawn workers");
    // Two stripes of 18: each element meets enough neighbours in one task
    // that top-1 compacts its partials, so the two runs' parts differ.
    let aggregators: [Arc<dyn Aggregator<f64>>; 2] =
        [Arc::new(ConcatSort), Arc::new(TopKAggregator::new(1, |d: &f64| -d))];
    let wire: Vec<_> = aggregators
        .into_iter()
        .map(|aggregator| {
            let run = PairwiseJob::new(&points, euclidean_comp())
                .scheme(BlockScheme::new(v, 2))
                .backend(Backend::Mr(&cluster))
                .aggregator_arc(aggregator)
                .run()
                .expect("pairwise run");
            run.check().unwrap();
            assert!(run.mr[0].fused, "a fused run");
            run.mr[0].wire
        })
        .collect();
    assert!(wire[0].dfs_bytes > 0, "the input shards cross the socket");
    assert_eq!(wire[0].dfs_bytes, wire[1].dfs_bytes, "all rows vs one per element");
}
