//! Fault-tolerance matrix: every distribution scheme — and a §7 rounds
//! plan — must survive seeded node crashes (and optional speculation) with
//! byte-identical output and exactly-once evaluation counts, and healthy
//! runs must be bit-for-bit unaffected by the existence of the chaos
//! machinery.

use std::sync::Arc;

use pairwise_mr::core::hierarchical::{Rounds, TwoLevelBlock};
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
        ("design", Arc::new(DesignScheme::new(v))),
        ("quorum", Arc::new(QuorumScheme::new(v))),
    ]
}

/// How a run distributes its tasks: one flat scheme, or a flat scheme's
/// tasks in sequential rounds.
enum Plan {
    Flat(Arc<dyn DistributionScheme>),
    Rounds(Rounds),
}

fn run_on(cluster: &Cluster, scheme: Arc<dyn DistributionScheme>) -> PairwiseRun<u64> {
    run_plan(cluster, &Plan::Flat(scheme))
}

fn run_plan(cluster: &Cluster, plan: &Plan) -> PairwiseRun<u64> {
    let scheme = match plan {
        Plan::Flat(scheme) => scheme,
        Plan::Rounds(rounds) => rounds.scheme(),
    };
    let data = payloads(scheme.v());
    let job = PairwiseJob::new(&data, comp());
    let job = match plan {
        Plan::Flat(scheme) => job.scheme_arc(Arc::clone(scheme)),
        Plan::Rounds(rounds) => job.rounds(rounds.clone()),
    };
    job.backend(Backend::Mr(cluster)).telemetry(cluster.telemetry().clone()).run().unwrap()
}

/// Every scheme, and a two-level rounds plan: its rounds share one driver
/// state and delete each part once read, so a crash in one round must
/// not touch what the earlier rounds merged — and no file of the run
/// survives it.
#[test]
fn every_scheme_survives_node_crashes_with_identical_output() {
    let v = 40u64;
    let mut plans: Vec<(&str, Plan)> =
        schemes(v).into_iter().map(|(name, scheme)| (name, Plan::Flat(scheme))).collect();
    plans.push(("two-level rounds", Plan::Rounds(TwoLevelBlock::new(v, 3, 2).rounds())));
    for (name, plan) in &plans {
        let healthy = {
            let cluster = Cluster::new(ClusterConfig::with_nodes(4));
            run_plan(&cluster, plan)
        };
        assert_eq!(healthy.evaluations(), v * (v - 1) / 2, "{name}: healthy run");

        for chaos_seed in [5u64, 23, 1009] {
            let cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, chaos_seed))
                .with_telemetry(Telemetry::enabled());
            let chaotic = run_plan(&cluster, plan);
            chaotic.check().unwrap_or_else(|e| panic!("{name}/seed {chaos_seed}: {e}"));
            assert_eq!(cluster.node_crashes(), 1, "{name}/seed {chaos_seed}");
            let kept = cluster.dfs().list("");
            assert!(kept.is_empty(), "{name}/seed {chaos_seed}: files outlived the run: {kept:?}");
            assert_eq!(
                chaotic.output, healthy.output,
                "{name}/seed {chaos_seed}: output must be byte-identical under a crash"
            );
            assert_eq!(
                chaotic.evaluations(),
                v * (v - 1) / 2,
                "{name}/seed {chaos_seed}: evaluations must stay exactly-once"
            );
            // The run report records the crash, and the recovery stats
            // surface in the MR report.
            let crashes: u64 = chaotic.mr.iter().map(|r| r.node_crashes).sum();
            assert_eq!(crashes, 1, "{name}/seed {chaos_seed}");
            assert!(
                chaotic.report.events.iter().any(|e| e.kind == "node.crash"),
                "{name}/seed {chaos_seed}: node.crash event missing from the report"
            );
        }
    }
}

#[test]
fn quorum_matches_the_broadcast_reference_everywhere() {
    // Acceptance: the quorum scheme is bit-identical to a broadcast-scheme
    // reference across backend × fused × chaos-seed combinations — a
    // completely different task decomposition must not change one bit of
    // the aggregated result.
    let v = 40u64;
    let data = payloads(v);
    let reference = PairwiseJob::new(&data, comp())
        .scheme(BroadcastScheme::new(v, 6))
        .backend(Backend::Sequential)
        .run()
        .unwrap();

    let check = |label: &str, run: PairwiseRun<u64>| {
        assert_eq!(run.output, reference.output, "{label}: output differs from broadcast");
        assert_eq!(run.evaluations(), v * (v - 1) / 2, "{label}: not exactly-once");
    };

    let job = || PairwiseJob::new(&data, comp()).scheme(QuorumScheme::new(v));
    check("sequential", job().backend(Backend::Sequential).run().unwrap());
    check("local", job().backend(Backend::Local { threads: 4 }).run().unwrap());
    for fuse in [true, false] {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4));
        check(
            &format!("mr/fuse={fuse}"),
            job().backend(Backend::Mr(&cluster)).fuse(fuse).run().unwrap(),
        );
        for chaos_seed in [5u64, 23, 1009] {
            let cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, chaos_seed));
            let run = job().backend(Backend::Mr(&cluster)).fuse(fuse).run().unwrap();
            assert_eq!(cluster.node_crashes(), 1, "fuse={fuse}/seed {chaos_seed}");
            check(&format!("mr/fuse={fuse}/chaos={chaos_seed}"), run);
        }
    }
}

#[test]
fn crashes_with_speculation_still_byte_identical() {
    let v = 36u64;
    let healthy = {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4));
        run_on(&cluster, Arc::new(BlockScheme::new(v, 4)))
    };
    let cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, 77).speculation(2.0));
    let chaotic = run_on(&cluster, Arc::new(BlockScheme::new(v, 4)));
    chaotic.check().unwrap();
    assert_eq!(cluster.node_crashes(), 1);
    assert_eq!(chaotic.output, healthy.output);
    assert_eq!(chaotic.evaluations(), v * (v - 1) / 2);
    let launched: u64 = chaotic.mr.iter().map(|r| r.speculative_launched).sum();
    let won: u64 = chaotic.mr.iter().map(|r| r.speculative_won).sum();
    assert!(won <= launched, "backups can only win attempts that were launched");
}

#[test]
fn chaos_off_leaves_metrics_untouched() {
    // With chaos disabled, the fault-tolerance machinery must be fully
    // invisible: recovery stats are zero, no recovery counters exist, and
    // the charged-byte metrics are deterministic run to run.
    let v = 40u64;
    for (name, scheme) in schemes(v) {
        let a = {
            let cluster = Cluster::new(ClusterConfig::with_nodes(4));
            run_on(&cluster, Arc::clone(&scheme))
        };
        let b = {
            let cluster = Cluster::new(ClusterConfig::with_nodes(4));
            run_on(&cluster, Arc::clone(&scheme))
        };
        for report in a.mr.iter().chain(b.mr.iter()) {
            assert_eq!(report.node_crashes, 0, "{name}");
            assert_eq!(report.map_reruns, 0, "{name}");
            assert_eq!(report.speculative_launched, 0, "{name}");
            for counters in std::iter::once(&report.job1.counters)
                .chain(report.job2.iter().map(|j| &j.counters))
            {
                for key in counters.keys() {
                    assert!(
                        !key.starts_with("mr.node.") && !key.starts_with("mr.speculative."),
                        "{name}: healthy run grew counter {key}"
                    );
                    assert_ne!(key, "mr.map.reruns", "{name}");
                }
            }
        }
        // Charged-byte metrics (the paper-model numbers) are deterministic.
        // Raw network_bytes is not asserted: concurrent reduce commits bump
        // the DFS placement counter in completion order, so replica
        // locality of output blocks — and with it a few hundred moved
        // bytes — varies run to run even on a healthy cluster.
        let metrics = |r: &PairwiseRun<u64>| {
            let m = &r.mr[0];
            (
                m.shuffle_bytes,
                m.shuffle_moved_bytes,
                m.replicated_records,
                m.peak_intermediate_bytes,
            )
        };
        assert_eq!(metrics(&a), metrics(&b), "{name}: charged-byte metrics must be deterministic");
        assert_eq!(a.output, b.output, "{name}");
    }
}
