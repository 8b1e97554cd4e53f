//! End-to-end tests of the MapReduce engine on the simulated cluster.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use pmr_cluster::{Cluster, ClusterConfig, ClusterError};
use pmr_mapreduce::{
    builtin, decode_record_stream, read_output, write_sharded, Engine, IdentityMapper, JobSpec,
    MapContext, Mapper, ModuloPartitioner, MrError, ReduceContext, Reducer, Values,
};

/// Classic word count: text lines in, (word, count) out.
struct TokenizeMapper;

impl Mapper for TokenizeMapper {
    type KIn = u64;
    type VIn = String;
    type KOut = String;
    type VOut = u64;

    fn map(
        &self,
        _line_no: u64,
        line: String,
        ctx: &mut MapContext<'_, String, u64>,
    ) -> pmr_mapreduce::Result<()> {
        for word in line.split_whitespace() {
            ctx.emit(word.to_string(), 1);
        }
        Ok(())
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    type KIn = String;
    type VIn = u64;
    type KOut = String;
    type VOut = u64;

    fn reduce(
        &self,
        word: String,
        values: Values<'_, u64>,
        ctx: &mut ReduceContext<'_, String, u64>,
    ) -> pmr_mapreduce::Result<()> {
        let total: u64 = values.sum();
        ctx.emit(word, total);
        Ok(())
    }
}

fn word_corpus() -> Vec<(u64, String)> {
    let lines =
        ["the quick brown fox", "the lazy dog", "the quick dog jumps", "fox and dog and fox"];
    lines.iter().enumerate().map(|(i, l)| (i as u64, l.to_string())).collect()
}

fn expected_counts() -> Vec<(String, u64)> {
    let mut v = vec![
        ("and".to_string(), 2u64),
        ("brown".to_string(), 1),
        ("dog".to_string(), 3),
        ("fox".to_string(), 3),
        ("jumps".to_string(), 1),
        ("lazy".to_string(), 1),
        ("quick".to_string(), 2),
        ("the".to_string(), 3),
    ];
    v.sort();
    v
}

#[test]
fn wordcount_end_to_end() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(4));
    let inputs = write_sharded(&cluster, "in", 3, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let out = engine
        .run(JobSpec::new("wordcount", inputs, "out", TokenizeMapper, SumReducer, 3))
        .unwrap();

    let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    results.sort();
    assert_eq!(results, expected_counts());

    assert_eq!(out.counters[builtin::MAP_INPUT_RECORDS], 4);
    assert_eq!(out.counters[builtin::MAP_OUTPUT_RECORDS], 16); // total words
    assert_eq!(out.counters[builtin::REDUCE_INPUT_GROUPS], 8); // distinct words
    assert_eq!(out.counters[builtin::REDUCE_OUTPUT_RECORDS], 8);
    assert_eq!(out.stats.reduce_tasks, 3);
    assert!(out.stats.max_working_set_bytes > 0);
}

#[test]
fn chained_jobs_share_dfs() {
    // Job 1: word count. Job 2: identity aggregation over job 1's output
    // (the shape of the paper's two-job pipeline).
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let j1 = engine.run(JobSpec::new("wc", inputs, "mid", TokenizeMapper, SumReducer, 2)).unwrap();
    let j2 = engine
        .run(JobSpec::new(
            "identity",
            j1.output_paths.clone(),
            "final",
            IdentityMapper::<String, u64>::new(),
            SumReducer,
            2,
        ))
        .unwrap();
    assert_eq!(j2.counters[builtin::MAP_INPUT_RECORDS], 8);
    let mut results: Vec<(String, u64)> = read_output(&cluster, "final").unwrap();
    results.sort();
    assert_eq!(results, expected_counts());
}

#[test]
fn injected_failures_are_retried_transparently() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(4).failure_probability(0.3).seed(7));
    let inputs = write_sharded(&cluster, "in", 4, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let out =
        engine.run(JobSpec::new("wc-flaky", inputs, "out", TokenizeMapper, SumReducer, 4)).unwrap();
    // With p=0.3 over 8+ attempts some failure is overwhelmingly likely;
    // if this seed produced none the assertion below would flag it.
    assert!(
        out.counters.get(builtin::FAILED_ATTEMPTS).copied().unwrap_or(0) > 0,
        "seed produced no failures; pick another seed"
    );
    let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    results.sort();
    assert_eq!(results, expected_counts(), "results must be correct despite retries");
}

#[test]
fn permanent_failure_exhausts_retries() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(2).failure_probability(1.0));
    let inputs = write_sharded(&cluster, "in", 1, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let err = engine
        .run(JobSpec::new("doomed", inputs, "out", TokenizeMapper, SumReducer, 1))
        .unwrap_err();
    assert!(matches!(err, MrError::TaskFailed { .. }), "{err}");
}

#[test]
fn working_set_budget_fails_oversized_groups() {
    // All 14 words go to a single key → a single giant reduce group that
    // busts a tiny maxws.
    struct SingleKeyMapper;
    impl Mapper for SingleKeyMapper {
        type KIn = u64;
        type VIn = String;
        type KOut = u64;
        type VOut = String;
        fn map(
            &self,
            _k: u64,
            v: String,
            ctx: &mut MapContext<'_, u64, String>,
        ) -> pmr_mapreduce::Result<()> {
            ctx.emit(0, v);
            Ok(())
        }
    }
    struct CountReducer;
    impl Reducer for CountReducer {
        type KIn = u64;
        type VIn = String;
        type KOut = u64;
        type VOut = u64;
        fn reduce(
            &self,
            k: u64,
            values: Values<'_, String>,
            ctx: &mut ReduceContext<'_, u64, u64>,
        ) -> pmr_mapreduce::Result<()> {
            ctx.emit(k, values.count() as u64);
            Ok(())
        }
    }
    let cluster = Cluster::new(ClusterConfig::with_nodes(2).task_memory_budget(32));
    let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let err = engine
        .run(JobSpec::new("oversized", inputs, "out", SingleKeyMapper, CountReducer, 1))
        .unwrap_err();
    assert!(
        matches!(err, MrError::Cluster(ClusterError::MemoryExceeded { budget: 32, .. })),
        "{err}"
    );
}

#[test]
fn intermediate_storage_cap_fails_job() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(2).intermediate_storage(64));
    let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let err = engine
        .run(JobSpec::new("too-big", inputs, "out", TokenizeMapper, SumReducer, 2))
        .unwrap_err();
    assert!(
        matches!(err, MrError::Cluster(ClusterError::IntermediateStorageExceeded { .. })),
        "{err}"
    );
    // Failed jobs clean up their intermediate files.
    assert_eq!(cluster.intermediate_bytes(), 0);
}

#[test]
fn distributed_cache_reaches_every_task() {
    // Cache files are written to every live node before the map phase and
    // charged once per copy; a node that is already down gets (and costs)
    // nothing.
    let payload = Bytes::from_static(b"BROADCAST");
    let run = |crashed: Option<u32>| {
        let cluster = Cluster::new(ClusterConfig::with_nodes(3));
        let inputs = write_sharded(&cluster, "in", 3, word_corpus()).unwrap();
        if let Some(victim) = crashed {
            cluster.crash_node(pmr_cluster::NodeId(victim));
        }
        let out = Engine::new(&cluster)
            .run(
                JobSpec::new("cached", inputs, "out", TokenizeMapper, SumReducer, 2)
                    .cache_file("lookup", payload.clone()),
            )
            .unwrap();
        let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
        results.sort();
        assert_eq!(results, expected_counts());
        out.counters[builtin::DISTRIBUTED_CACHE_BYTES]
    };
    let len = payload.len() as u64;
    assert_eq!(run(None), len * 3);
    assert_eq!(run(Some(2)), len * 2, "only live nodes receive the cache");
}

#[test]
fn rejected_job_leaves_no_cache_copies() {
    // Two 10-byte copies exceed a 16-byte cap: the job fails after the
    // first copies landed, and must take them back off the nodes.
    let cluster = Cluster::new(ClusterConfig::with_nodes(2).intermediate_storage(16));
    let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let err = engine
        .run(
            JobSpec::new("capped", inputs, "out", TokenizeMapper, SumReducer, 1)
                .cache_file("lookup", Bytes::from_static(b"0123456789")),
        )
        .unwrap_err();
    assert!(
        matches!(err, MrError::Cluster(ClusterError::IntermediateStorageExceeded { .. })),
        "{err:?}"
    );
    assert_eq!(cluster.intermediate_bytes(), 0, "cache copies stay billed");
    for node in cluster.nodes() {
        assert_eq!(node.storage_used(), 0, "node {:?}", node.id());
    }

    // A job rejected for its inputs never distributes its cache.
    let err = engine
        .run(
            JobSpec::new("no-input", vec!["missing".into()], "out", TokenizeMapper, SumReducer, 1)
                .cache_file("lookup", Bytes::from_static(b"0123456789")),
        )
        .unwrap_err();
    assert!(matches!(err, MrError::InvalidJob(_)), "{err:?}");
    for node in cluster.nodes() {
        assert!(node.list_local("mr/").is_empty(), "node {:?}", node.id());
    }
}

#[test]
fn network_accounting_is_deterministic() {
    let run = || {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4).seed(11));
        let inputs = write_sharded(&cluster, "in", 4, word_corpus()).unwrap();
        let engine = Engine::new(&cluster);
        let out =
            engine.run(JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 3)).unwrap();
        (out.stats.network_bytes, out.counters[builtin::SHUFFLE_BYTES])
    };
    assert_eq!(run(), run(), "same seed+config must give identical byte accounting");
}

#[test]
fn invalid_jobs_rejected() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(2));
    let engine = Engine::new(&cluster);
    let err = engine
        .run(JobSpec::new(
            "no-input",
            vec!["missing".to_string()],
            "out",
            TokenizeMapper,
            SumReducer,
            1,
        ))
        .unwrap_err();
    assert!(matches!(err, MrError::InvalidJob(_)));

    let err = engine
        .run(JobSpec::new("no-reducers", vec![], "out", TokenizeMapper, SumReducer, 0))
        .unwrap_err();
    assert!(matches!(err, MrError::InvalidJob(_)));
}

#[test]
fn many_reducers_more_than_keys() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(2));
    let inputs = write_sharded(&cluster, "in", 1, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    engine.run(JobSpec::new("wide", inputs, "out", TokenizeMapper, SumReducer, 16)).unwrap();
    let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    results.sort();
    assert_eq!(results, expected_counts());
}

#[test]
fn large_dataset_spans_blocks_and_splits() {
    // 4 KiB block size forces many blocks; verify record-aligned splits
    // don't lose or duplicate records.
    let mut cfg = ClusterConfig::with_nodes(4);
    cfg.dfs_block_size = 4096;
    let cluster = Cluster::new(cfg);
    let records: Vec<(u64, String)> =
        (0..5000u64).map(|i| (i, format!("word{} word{}", i % 50, (i + 1) % 50))).collect();
    let inputs = write_sharded(&cluster, "in", 4, records).unwrap();
    let engine = Engine::new(&cluster);
    let out =
        engine.run(JobSpec::new("big", inputs, "out", TokenizeMapper, SumReducer, 5)).unwrap();
    assert_eq!(out.counters[builtin::MAP_INPUT_RECORDS], 5000);
    assert!(out.stats.map_tasks > 4, "block-sized splits expected, got {}", out.stats.map_tasks);
    let results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    let total: u64 = results.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 10_000); // two words per record
    assert_eq!(results.len(), 50);
}

/// Logical (exactly-once) counters that must not move under retries,
/// chaos, or speculation — only attempt/recovery bookkeeping may differ.
const LOGICAL_COUNTERS: &[&str] = &[
    builtin::MAP_INPUT_RECORDS,
    builtin::MAP_OUTPUT_RECORDS,
    builtin::MAP_OUTPUT_BYTES,
    builtin::SPILLED_RECORDS,
    builtin::SHUFFLE_BYTES,
    builtin::REDUCE_INPUT_GROUPS,
    builtin::REDUCE_INPUT_RECORDS,
    builtin::REDUCE_OUTPUT_RECORDS,
    builtin::REDUCE_OUTPUT_BYTES,
];

#[test]
fn high_failure_rate_matches_failure_free_run() {
    // A deterministic high-failure run must produce byte-identical output
    // and identical logical counters to the failure-free run; only the
    // attempt bookkeeping may differ.
    let run = |p: f64| {
        let mut cfg = ClusterConfig::with_nodes(4).failure_probability(p).seed(90210);
        cfg.max_task_attempts = 25;
        let cluster = Cluster::new(cfg);
        let inputs = write_sharded(&cluster, "in", 4, word_corpus()).unwrap();
        let engine = Engine::new(&cluster);
        let out = engine
            .run(JobSpec::new("wc-chaotic", inputs, "out", TokenizeMapper, SumReducer, 3))
            .unwrap();
        let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
        results.sort();
        (results, out.counters)
    };
    let (clean, clean_counters) = run(0.0);
    let (flaky, flaky_counters) = run(0.45);
    assert_eq!(clean, expected_counts());
    assert_eq!(flaky, clean, "failures must be invisible in the output");
    assert!(
        flaky_counters.get(builtin::FAILED_ATTEMPTS).copied().unwrap_or(0) > 0,
        "seed produced no failures; pick another seed"
    );
    for name in LOGICAL_COUNTERS {
        assert_eq!(
            flaky_counters.get(*name),
            clean_counters.get(*name),
            "{name} must count logical work exactly once despite retries"
        );
    }
}

#[test]
fn node_crashes_recover_with_identical_output() {
    // Seeded chaos: one node dies mid-job; results and logical counters
    // must match the healthy run exactly, and the crash must be counted.
    let clean = {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4));
        let inputs = write_sharded(&cluster, "in", 8, word_corpus()).unwrap();
        let out = Engine::new(&cluster)
            .run(JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 3))
            .unwrap();
        let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
        results.sort();
        (results, out.counters)
    };
    assert_eq!(clean.0, expected_counts());
    // Whether a crash lands before a reducer has fetched the victim's map
    // output depends on thread scheduling, so several seeds are tried and
    // at least one must take the recovery path.
    let mut any_rerun = false;
    for chaos_seed in [3u64, 17, 4242, 5, 23, 1009] {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, chaos_seed));
        let inputs = write_sharded(&cluster, "in", 8, word_corpus()).unwrap();
        let out = Engine::new(&cluster)
            .run(JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 3))
            .unwrap();
        assert_eq!(cluster.node_crashes(), 1, "seed {chaos_seed}");
        assert_eq!(out.counters[builtin::NODE_CRASHES], 1, "seed {chaos_seed}");
        any_rerun |= out.counters.get(builtin::MAP_RERUNS).copied().unwrap_or(0) > 0;
        let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
        results.sort();
        assert_eq!(results, clean.0, "seed {chaos_seed}: output must survive the crash");
        for name in LOGICAL_COUNTERS {
            assert_eq!(
                out.counters.get(*name),
                clean.1.get(*name),
                "seed {chaos_seed}: {name} must stay exactly-once under a crash"
            );
        }
    }
    assert!(any_rerun, "no chaos seed exercised map-output recovery; adjust seeds");
}

#[test]
fn speculative_backup_preserves_results() {
    // One map task is much slower than its siblings; with an aggressive
    // speculation multiplier an idle node launches a backup, and whichever
    // attempt wins, the committed output and counters are exactly-once.
    struct SlowShardMapper;
    impl Mapper for SlowShardMapper {
        type KIn = u64;
        type VIn = String;
        type KOut = String;
        type VOut = u64;
        fn map(
            &self,
            line_no: u64,
            line: String,
            ctx: &mut MapContext<'_, String, u64>,
        ) -> pmr_mapreduce::Result<()> {
            if line_no == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            for word in line.split_whitespace() {
                ctx.emit(word.to_string(), 1);
            }
            Ok(())
        }
    }
    let cluster = Cluster::new(ClusterConfig::with_nodes(4).speculation(1.0));
    let inputs = write_sharded(&cluster, "in", 4, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let out = engine
        .run(JobSpec::new("wc-straggler", inputs, "out", SlowShardMapper, SumReducer, 2))
        .unwrap();
    let launched = out.counters.get(builtin::SPECULATIVE_LAUNCHED).copied().unwrap_or(0);
    let won = out.counters.get(builtin::SPECULATIVE_WON).copied().unwrap_or(0);
    assert!(launched >= 1, "the straggling map task should get a backup attempt");
    assert!(won <= launched);
    let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    results.sort();
    assert_eq!(results, expected_counts(), "speculation must not change results");
    assert_eq!(out.counters[builtin::MAP_OUTPUT_RECORDS], 16, "exactly-once despite backups");

    // The same commit protocol serves reduce tasks: one group is slow to
    // reduce, and a reduce-side backup must leave output and counters as a
    // healthy run's.
    struct SlowWordReducer;
    impl Reducer for SlowWordReducer {
        type KIn = String;
        type VIn = u64;
        type KOut = String;
        type VOut = u64;
        fn reduce(
            &self,
            word: String,
            values: Values<'_, u64>,
            ctx: &mut ReduceContext<'_, String, u64>,
        ) -> pmr_mapreduce::Result<()> {
            if word == "fox" {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            SumReducer.reduce(word, values, ctx)
        }
    }
    let healthy_cluster = Cluster::new(ClusterConfig::with_nodes(4));
    let inputs = write_sharded(&healthy_cluster, "in", 4, word_corpus()).unwrap();
    let healthy = Engine::new(&healthy_cluster)
        .run(JobSpec::new("wc-healthy", inputs, "out", TokenizeMapper, SumReducer, 3))
        .unwrap();
    let cluster = Cluster::new(ClusterConfig::with_nodes(4).speculation(1.0))
        .with_telemetry(pmr_cluster::Telemetry::enabled());
    let inputs = write_sharded(&cluster, "in", 4, word_corpus()).unwrap();
    let out = Engine::new(&cluster)
        .run(JobSpec::new("wc-slow-reduce", inputs, "out", TokenizeMapper, SlowWordReducer, 3))
        .unwrap();
    let launched = out.counters.get(builtin::SPECULATIVE_LAUNCHED).copied().unwrap_or(0);
    let won = out.counters.get(builtin::SPECULATIVE_WON).copied().unwrap_or(0);
    assert!(launched >= 1, "the straggling reduce task should get a backup attempt");
    assert!(won <= launched);
    assert!(
        cluster.telemetry().report().events.iter().any(|e| e.kind == "speculative.launch"
            && e.detail.starts_with("backup attempt of reduce task")),
        "the backup must be a reduce attempt"
    );
    let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    results.sort();
    assert_eq!(results, expected_counts(), "reduce speculation must not change results");
    assert_eq!(
        out.counters[builtin::REDUCE_OUTPUT_RECORDS],
        healthy.counters[builtin::REDUCE_OUTPUT_RECORDS],
        "exactly-once despite reduce backups"
    );
}

#[test]
fn chaos_off_runs_report_no_recovery_counters() {
    // Healthy runs must not grow new counter keys — byte-for-byte metric
    // parity with pre-chaos reports.
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
    let out = Engine::new(&cluster)
        .run(JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 2))
        .unwrap();
    for name in [
        builtin::NODE_CRASHES,
        builtin::MAP_RERUNS,
        builtin::SPECULATIVE_LAUNCHED,
        builtin::SPECULATIVE_WON,
    ] {
        assert!(
            !out.counters.contains_key(name),
            "{name} must not appear in a healthy run's counters"
        );
    }
}

#[test]
fn spills_count_against_node_storage() {
    // A map task's sorted partition files are written to its node-local
    // store, so on one node they must fit the node's storage capacity: a
    // capacity of exactly their size passes, one byte less fails the job.
    let run = |capacity: Option<u64>| {
        let mut cfg = ClusterConfig::with_nodes(1);
        cfg.node.storage_capacity = capacity;
        let cluster = Cluster::new(cfg);
        let inputs = write_sharded(&cluster, "in", 1, word_corpus()).unwrap();
        Engine::new(&cluster).run(JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 2))
    };
    let out = run(None).unwrap();
    assert_eq!(out.stats.map_tasks, 1);
    let written = out.counters[builtin::MAP_OUTPUT_MOVED_BYTES];
    run(Some(written)).unwrap();
    let err = run(Some(written - 1)).unwrap_err();
    assert!(
        matches!(
            err,
            MrError::Cluster(ClusterError::NodeStorageExceeded { requested, capacity, .. })
                if requested == written && capacity == written - 1
        ),
        "{err}"
    );
}

#[test]
fn reduce_output_lost_to_a_dying_node_is_rewritten() {
    // Node 1 dies in two steps while the only reduce task (on node 0) runs:
    // its store goes first, and the DFS hears of the crash only later. A
    // part file written in between still names node 1 as a replica, so
    // the attempt that won the task fails to publish it. The task must go
    // back to the queue and commit on the next attempt, not stay won and
    // unfinished (which parked every worker for good).
    struct CrashingSumReducer {
        cluster: std::sync::Arc<Cluster>,
        calls: std::sync::atomic::AtomicU32,
    }
    impl Reducer for CrashingSumReducer {
        type KIn = String;
        type VIn = u64;
        type KOut = String;
        type VOut = u64;

        fn reduce(
            &self,
            word: String,
            values: Values<'_, u64>,
            ctx: &mut ReduceContext<'_, String, u64>,
        ) -> pmr_mapreduce::Result<()> {
            let victim = pmr_cluster::NodeId(1);
            if word == "the" {
                match self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) {
                    0 => {
                        self.cluster.node(victim).crash();
                    }
                    1 => {
                        let cluster = &self.cluster;
                        cluster.dfs().handle_node_crash(
                            victim,
                            cluster.traffic(),
                            &cluster.config().network,
                        );
                    }
                    _ => {}
                }
            }
            SumReducer.reduce(word, values, ctx)
        }
    }

    let cluster = std::sync::Arc::new(Cluster::new(ClusterConfig::with_nodes(2)));
    let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
    let reducer = CrashingSumReducer {
        cluster: std::sync::Arc::clone(&cluster),
        calls: std::sync::atomic::AtomicU32::new(0),
    };
    let out = Engine::new(&cluster)
        .run(JobSpec::new("wc", inputs, "out", TokenizeMapper, reducer, 1))
        .unwrap();
    assert_eq!(out.counters[builtin::REDUCE_TASK_ATTEMPTS], 2, "one failed publish, one retry");
    let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    results.sort();
    assert_eq!(results, expected_counts());
}

// ---------------------------------------------------------------------------
// The part sink of `Engine::run_with_sink`
// ---------------------------------------------------------------------------

/// Runs `body` on its own thread and fails the test if it has not returned
/// within a minute: a worker (or the calling thread) parked for good shows
/// up as this failure instead of a hung test binary.
fn with_watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(body());
    });
    match result.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(value) => value,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("the job did not return within 60 s: a thread parked for good")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("the test body panicked"),
    }
}

/// Key-sum reducer over `u64` keys that sleeps on one key, so the reduce
/// task owning it commits last, and logs every key it has reduced.
struct SlowKeySum {
    slow_key: Option<u64>,
    reduced: Arc<Mutex<Vec<u64>>>,
}

impl SlowKeySum {
    fn new(slow_key: Option<u64>) -> SlowKeySum {
        SlowKeySum { slow_key, reduced: Arc::default() }
    }
}

impl Reducer for SlowKeySum {
    type KIn = u64;
    type VIn = u64;
    type KOut = u64;
    type VOut = u64;

    fn reduce(
        &self,
        key: u64,
        values: Values<'_, u64>,
        ctx: &mut ReduceContext<'_, u64, u64>,
    ) -> pmr_mapreduce::Result<()> {
        if Some(key) == self.slow_key {
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        ctx.emit(key, values.sum());
        self.reduced.lock().unwrap().push(key);
        Ok(())
    }
}

const SINK_REDUCERS: usize = 6;
const SINK_KEYS: u64 = 24;

/// `(key, value)` records over keys `0..24`; with the modulo partitioner
/// key `k` lands in part `k % 6`.
fn keyed_records() -> Vec<(u64, u64)> {
    (0..240u64).map(|i| (i % SINK_KEYS, i)).collect()
}

/// The keyed sum job over `inputs`, in six parts.
fn keyed_job(
    inputs: Vec<String>,
    reducer: SlowKeySum,
) -> JobSpec<IdentityMapper<u64, u64>, SlowKeySum> {
    JobSpec::new("keyed", inputs, "out", IdentityMapper::<u64, u64>::new(), reducer, SINK_REDUCERS)
        .partitioner(Arc::new(ModuloPartitioner))
}

/// The parts every one of whose keys the reducer had reduced by now.
fn reduced_parts(reduced: &Mutex<Vec<u64>>) -> Vec<usize> {
    let reduced = reduced.lock().unwrap();
    (0..SINK_REDUCERS)
        .filter(|&k| (k as u64..SINK_KEYS).step_by(SINK_REDUCERS).all(|key| reduced.contains(&key)))
        .collect()
}

/// What a sink observed over one job: the parts in hand-over order, their
/// records, and which parts the reducer had finished when part 0 was
/// handed over.
#[derive(Default)]
struct SinkLog {
    parts: Vec<usize>,
    records: Vec<(u64, u64)>,
    finished_before_part0: Vec<usize>,
}

/// Runs the keyed sum job with a sink that decodes each part as it is
/// handed over, and checks the contract: every part exactly once, in index
/// order, each one complete at hand-over, and nothing written to the DFS.
fn run_keyed_with_sink(
    config: ClusterConfig,
    slow_key: Option<u64>,
) -> (pmr_mapreduce::JobOutput, SinkLog, Cluster) {
    let cluster = Cluster::new(config);
    let inputs = write_sharded(&cluster, "in", 4, keyed_records()).unwrap();
    let written = cluster.dfs().bytes_written();
    let reducer = SlowKeySum::new(slow_key);
    let reduced = Arc::clone(&reducer.reduced);
    let mut log = SinkLog::default();
    let out = Engine::new(&cluster)
        .run_with_sink(keyed_job(inputs, reducer), |part, bytes| {
            if log.parts.is_empty() {
                log.finished_before_part0 = reduced_parts(&reduced);
            }
            log.parts.push(part);
            log.records.extend(decode_record_stream::<u64, u64>(bytes)?);
            Ok(())
        })
        .unwrap();
    assert_eq!(log.parts, (0..SINK_REDUCERS).collect::<Vec<_>>(), "every part once, in order");
    let mut expected: Vec<(u64, u64)> = (0..SINK_KEYS)
        .map(|k| (k, keyed_records().iter().filter(|r| r.0 == k).map(|r| r.1).sum()))
        .collect();
    let mut seen = log.records.clone();
    seen.sort();
    expected.sort();
    assert_eq!(seen, expected, "each part complete at hand-over");
    assert!(out.output_paths.is_empty(), "no part file to name: {:?}", out.output_paths);
    assert_eq!(cluster.dfs().list("out/"), Vec::<String>::new(), "a sink job writes no part");
    assert_eq!(cluster.dfs().bytes_written(), written, "a sink job writes nothing to the DFS");
    (out, log, cluster)
}

#[test]
fn sink_gets_every_part_once_in_index_order() {
    with_watchdog(|| {
        let (_, log, _) = run_keyed_with_sink(ClusterConfig::with_nodes(3), None);
        assert_eq!(log.parts.len(), SINK_REDUCERS);
    });
}

#[test]
fn sink_order_holds_when_a_later_part_commits_first() {
    // Key 0 lives in part 0 and sleeps: part 1 (on another node) finishes
    // while part 0 is still running, yet part 0 is handed over first. With
    // one attempt per task, a task whose reduce calls have all returned
    // commits next, so part 1 waits on the calling thread.
    with_watchdog(|| {
        let (_, log, _) = run_keyed_with_sink(ClusterConfig::with_nodes(3), Some(0));
        assert!(
            log.finished_before_part0.contains(&1),
            "part 1 must have committed before part 0 was handed over: {:?}",
            log.finished_before_part0
        );
    });
}

#[test]
fn sink_contract_holds_under_speculation() {
    with_watchdog(|| {
        let config = ClusterConfig::with_nodes(3).speculation(2.0);
        let (out, _, _) = run_keyed_with_sink(config, Some(0));
        let launched = out.counters.get(builtin::SPECULATIVE_LAUNCHED).copied().unwrap_or(0);
        assert!(launched >= 1, "the slow reduce task should get a backup attempt");
    });
}

#[test]
fn sink_contract_holds_under_a_node_crash() {
    with_watchdog(|| {
        for chaos_seed in [3u64, 5, 17, 23, 1009, 4242] {
            let config = ClusterConfig::with_nodes(4).chaos(1, chaos_seed);
            let (out, _, cluster) = run_keyed_with_sink(config, None);
            assert_eq!(cluster.node_crashes(), 1, "seed {chaos_seed}");
            assert_eq!(out.counters[builtin::NODE_CRASHES], 1, "seed {chaos_seed}");
        }
    });
}

#[test]
fn sink_error_fails_the_job_and_cleans_up() {
    // Key 0 sleeps, so parts 1.. commit first and wait for part 0. The sink
    // refuses part 1: the parts still waiting are dropped, not handed over,
    // and none of them reaches the DFS either.
    with_watchdog(|| {
        let cluster = Cluster::new(ClusterConfig::with_nodes(3));
        let inputs = write_sharded(&cluster, "in", 4, keyed_records()).unwrap();
        let written = cluster.dfs().bytes_written();
        let reducer = SlowKeySum::new(Some(0));
        let reduced = Arc::clone(&reducer.reduced);
        let (mut handed, mut finished) = (Vec::new(), Vec::new());
        let err = Engine::new(&cluster)
            .run_with_sink(keyed_job(inputs, reducer), |part, _| {
                handed.push(part);
                match part {
                    1 => {
                        finished = reduced_parts(&reduced);
                        Err(MrError::User("sink refused part 1".into()))
                    }
                    _ => Ok(()),
                }
            })
            .unwrap_err();
        assert!(matches!(&err, MrError::User(msg) if msg == "sink refused part 1"), "{err}");
        assert!(finished.contains(&2), "part 2 waited behind part 1: {finished:?}");
        assert_eq!(handed, [0, 1], "nothing after the error");
        assert_eq!(cluster.dfs().list("out/"), Vec::<String>::new());
        assert_eq!(cluster.dfs().bytes_written(), written);
        for node in cluster.nodes() {
            assert!(node.list_local("mr/").is_empty(), "node {:?}", node.id());
        }
        assert_eq!(cluster.intermediate_bytes(), 0);
    });
}
