//! End-to-end tests of the MapReduce engine on the simulated cluster.

use bytes::Bytes;
use pmr_cluster::{Cluster, ClusterConfig, ClusterError};
use pmr_mapreduce::{
    builtin, read_output, typed_combiner, write_sharded, Engine, IdentityMapper, JobSpec,
    MapContext, Mapper, MrError, ReduceContext, Reducer, Values,
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
fn combiner_shrinks_shuffle_but_preserves_results() {
    let run = |with_combiner: bool| -> (Vec<(String, u64)>, u64) {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4));
        let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
        let engine = Engine::new(&cluster);
        let mut spec = JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 2);
        if with_combiner {
            spec =
                spec.combiner(typed_combiner(|k: String, vs: Vec<u64>| vec![(k, vs.iter().sum())]));
        }
        let out = engine.run(spec).unwrap();
        let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
        results.sort();
        (results, out.counters[builtin::SHUFFLE_BYTES])
    };
    let (plain, shuffle_plain) = run(false);
    let (combined, shuffle_combined) = run(true);
    assert_eq!(plain, expected_counts());
    assert_eq!(combined, expected_counts());
    assert!(
        shuffle_combined < shuffle_plain,
        "combiner should reduce shuffle: {shuffle_combined} vs {shuffle_plain}"
    );
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
    struct CacheMapper;
    impl Mapper for CacheMapper {
        type KIn = u64;
        type VIn = String;
        type KOut = u64;
        type VOut = String;
        fn map(
            &self,
            k: u64,
            _v: String,
            ctx: &mut MapContext<'_, u64, String>,
        ) -> pmr_mapreduce::Result<()> {
            let payload = ctx.cache().get("lookup");
            ctx.emit(k, String::from_utf8(payload.to_vec()).unwrap());
            Ok(())
        }
    }
    struct FirstReducer;
    impl Reducer for FirstReducer {
        type KIn = u64;
        type VIn = String;
        type KOut = u64;
        type VOut = String;
        fn reduce(
            &self,
            k: u64,
            mut values: Values<'_, String>,
            ctx: &mut ReduceContext<'_, u64, String>,
        ) -> pmr_mapreduce::Result<()> {
            ctx.emit(k, values.next().unwrap());
            Ok(())
        }
    }
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let inputs = write_sharded(&cluster, "in", 3, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let out = engine
        .run(
            JobSpec::new("cached", inputs, "out", CacheMapper, FirstReducer, 2)
                .cache_file("lookup", Bytes::from_static(b"BROADCAST")),
        )
        .unwrap();
    assert_eq!(out.counters[builtin::DISTRIBUTED_CACHE_BYTES], 9 * 3);
    let results: Vec<(u64, String)> = read_output(&cluster, "out").unwrap();
    assert_eq!(results.len(), 4);
    assert!(results.iter().all(|(_, v)| v == "BROADCAST"));
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

#[test]
fn sort_buffer_spills_preserve_results() {
    // A tiny sort buffer forces many spill runs; results must be identical
    // to the unbounded-buffer run and spill counters must show the runs.
    let run = |sort_buffer: Option<u64>| {
        let cluster = Cluster::new(ClusterConfig::with_nodes(3));
        let records: Vec<(u64, String)> =
            (0..400u64).map(|i| (i, format!("w{} w{} w{}", i % 17, i % 5, i % 29))).collect();
        let inputs = write_sharded(&cluster, "in", 2, records).unwrap();
        let engine = Engine::new(&cluster);
        let mut spec = JobSpec::new("wc-spill", inputs, "out", TokenizeMapper, SumReducer, 3);
        if let Some(b) = sort_buffer {
            spec = spec.sort_buffer(b);
        }
        let out = engine.run(spec).unwrap();
        let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
        results.sort();
        (results, out.counters)
    };
    let (plain, plain_counters) = run(None);
    let (spilled, spilled_counters) = run(Some(256));
    assert_eq!(plain, spilled, "spilling must not change results");
    assert_eq!(plain_counters.get("mr.map.spills").copied().unwrap_or(0), 0);
    let spills = spilled_counters.get("mr.map.spills").copied().unwrap_or(0);
    assert!(spills > 2, "expected several spills, got {spills}");
    assert!(spilled_counters.get("mr.map.merged.runs").copied().unwrap_or(0) >= spills);
    // Spilled records exceed map-output records (each record is written in
    // a run and again in the final partition files).
    assert!(spilled_counters[builtin::SPILLED_RECORDS] > plain_counters[builtin::SPILLED_RECORDS]);
}

#[test]
fn sort_buffer_with_combiner_still_correct() {
    let cluster = Cluster::new(ClusterConfig::with_nodes(2));
    let inputs = write_sharded(&cluster, "in", 2, word_corpus()).unwrap();
    let engine = Engine::new(&cluster);
    let out = engine
        .run(
            JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 2)
                .sort_buffer(64)
                .combiner(typed_combiner(|k: String, vs: Vec<u64>| vec![(k, vs.iter().sum())])),
        )
        .unwrap();
    assert!(out.counters.get("mr.map.spills").copied().unwrap_or(0) > 0);
    let mut results: Vec<(String, u64)> = read_output(&cluster, "out").unwrap();
    results.sort();
    assert_eq!(results, expected_counts());
}

/// Logical (exactly-once) counters that must not move under retries,
/// chaos, or speculation — only attempt/recovery bookkeeping may differ.
const LOGICAL_COUNTERS: &[&str] = &[
    builtin::MAP_INPUT_RECORDS,
    builtin::MAP_OUTPUT_RECORDS,
    builtin::MAP_OUTPUT_BYTES,
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
    // Spill runs live in node-local storage until merged, so a node storage
    // capacity that fits the final output but not the transient runs fails.
    let mut cfg = ClusterConfig::with_nodes(1);
    cfg.node.storage_capacity = Some(600);
    let cluster = Cluster::new(cfg);
    let records: Vec<(u64, String)> = (0..200u64).map(|i| (i, format!("word{}", i % 7))).collect();
    let inputs = write_sharded(&cluster, "in", 1, records.clone()).unwrap();
    let engine = Engine::new(&cluster);
    let err = engine
        .run(JobSpec::new("wc", inputs, "out", TokenizeMapper, SumReducer, 1).sort_buffer(64))
        .unwrap_err();
    assert!(matches!(err, MrError::Cluster(ClusterError::NodeStorageExceeded { .. })), "{err}");
}
