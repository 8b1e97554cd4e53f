//! Conservation properties of the run report: the run's phases tile its
//! wall time, and span byte/record totals agree with the engine's builtin
//! counters — the two bookkeeping systems observe the same run
//! independently, so any drift is a bug in one of them. Each law is stated
//! once, in `PairwiseRun::check`; the tests here drive it over the run
//! shapes that stress it and assert what is particular to each shape.

use pmr_cluster::{Cluster, ClusterConfig};
use pmr_core::runner::mr::{MrPairwiseOptions, EVALUATIONS_COUNTER};
use pmr_core::runner::{comp_fn, Backend, CompFn, PairwiseJob, PairwiseRun};
use pmr_core::scheme::{BlockScheme, BroadcastScheme};
use pmr_mapreduce::builtin;
use pmr_obs::{hist, trace, CriticalPath, Telemetry};

fn comp() -> CompFn<u64, u64> {
    comp_fn(|a: &u64, b: &u64| a.wrapping_mul(31) ^ b)
}

/// An instrumented MR run; `fuse: false` forces the paper's literal
/// two-job pipeline, so the bookkeeping of both jobs is under test.
fn instrumented_run(v: u64, nodes: usize, fuse: bool) -> PairwiseRun<u64> {
    instrumented_run_on(ClusterConfig::with_nodes(nodes), v, fuse)
}

fn instrumented_run_on(config: ClusterConfig, v: u64, fuse: bool) -> PairwiseRun<u64> {
    let data: Vec<u64> = (0..v).map(|i| i * 17 % 257).collect();
    let cluster = Cluster::new(config).with_telemetry(Telemetry::enabled());
    PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(v, 6))
        .backend(Backend::Mr(&cluster))
        .fuse(fuse)
        .run()
        .unwrap()
}

#[test]
fn job_phases_tile_each_jobs_wall_time() {
    let run = instrumented_run(64, 4, false);
    let report = &run.report;
    // One phase chain: the runner's I/O track (job `{dir}-io`) around
    // each job's setup → map → reduce → finalize. Every hand-over takes
    // one clock reading, so the phases tile the report's wall exactly.
    run.check().unwrap();
    let engine = ["setup", "map", "reduce", "finalize"];
    let expected: Vec<String> = std::iter::once("io distribute-input".to_string())
        .chain(engine.iter().map(|p| format!("evaluate {p}")))
        .chain(engine.iter().map(|p| format!("aggregate {p}")))
        .chain(["io collect-output".to_string()])
        .collect();
    let tail = |job: &str| job.rsplit('-').next().unwrap().to_string();
    let phases: Vec<String> =
        report.job_phases.iter().map(|p| format!("{} {}", tail(&p.job), p.phase)).collect();
    assert_eq!(phases, expected);
    // A job's phases cover (±5 % + 500 µs) the engine's own `Instant` wall.
    // Above that, HAND_OVER_US allows for `finalize` running on from the
    // engine's return to the driver's next hand-over: a few statements, but
    // a preempted driver thread stretches them (11 ms seen, 4 in 1,000 runs
    // of this binary, 4 at a time on 2 cores). More than that counted
    // against a job (a phase left open over the next job, say) fails.
    const HAND_OVER_US: f64 = 25_000.0;
    let jobs = report.job_phases.iter().filter(|p| p.phase == "setup").map(|p| &p.job);
    let engine_walls =
        [run.mr[0].job1.stats.wall_time_us, run.mr[0].job2.as_ref().unwrap().stats.wall_time_us];
    for (job, engine_wall) in jobs.zip(engine_walls) {
        let total = report.job_phase_total_us(job) as f64;
        let wall = engine_wall as f64;
        let slack = wall * 0.05 + 500.0;
        assert!(
            total >= wall - slack && total <= wall + slack + HAND_OVER_US,
            "{job}: phase total {total}µs vs engine wall {wall}µs"
        );
    }
}

/// The report's wall is the run's, not the sink's: a sink created long
/// before the run does not stretch it, on every backend.
#[test]
fn report_wall_starts_with_the_run_not_the_sink() {
    let data: Vec<u64> = (0..24).map(|i| i * 17 % 257).collect();
    let cluster = Cluster::new(ClusterConfig::with_nodes(3)).with_telemetry(Telemetry::enabled());
    let plain = Cluster::new(ClusterConfig::with_nodes(3));
    let backends = [
        Backend::Sequential,
        Backend::Local { threads: 2 },
        Backend::Mr(&cluster),
        Backend::Mr(&plain),
    ];
    for backend in backends {
        // The MR run records into the cluster's sink, older still. A
        // builder sink beside a cluster without one gets none of an MR
        // run's phases: they all go where the engine records its own.
        let telemetry = Telemetry::enabled();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let run = PairwiseJob::new(&data, comp())
            .scheme(BlockScheme::new(24, 4))
            .backend(backend)
            .telemetry(telemetry)
            .run()
            .unwrap();
        let phases = &run.report.job_phases;
        match backend {
            Backend::Mr(c) if !c.telemetry().is_enabled() => {
                assert!(phases.is_empty(), "{phases:?}")
            }
            _ => assert!(phases[0].start_us >= 20_000, "the sink slept first"),
        }
        run.check().unwrap();
    }
}

/// A failed run ends its phase chain where it fails: on a cluster sink
/// the next run reuses, its open phase does not run on through the idle
/// time before that run. The sink still holds the failed run until the
/// next one begins, and that run's report covers itself alone.
#[test]
fn failed_run_closes_its_phase_on_a_reused_sink() {
    let v = 48u64;
    let data: Vec<u64> = (0..v).map(|i| i * 17 % 257).collect();
    let broadcast = || PairwiseJob::new(&data, comp()).scheme(BroadcastScheme::new(v, 2));
    let free = Cluster::new(ClusterConfig::with_nodes(2));
    let peak = broadcast().backend(Backend::Mr(&free)).run().unwrap().mr[0].max_working_set_bytes;
    // A budget at the run's peak: 30 % accounting overhead fails the first
    // run inside the engine, none lets the second through.
    let cluster = Cluster::new(ClusterConfig::with_nodes(2).task_memory_budget(peak))
        .with_telemetry(Telemetry::enabled());
    let overhead = MrPairwiseOptions { memory_overhead: (13, 10), ..Default::default() };
    broadcast().backend(Backend::Mr(&cluster)).mr_options(overhead).run().unwrap_err();
    let failed_at = cluster.telemetry().now_us();
    std::thread::sleep(std::time::Duration::from_millis(20));
    // A phase left open would be closed here, 20 ms after the failure.
    let failed = cluster.telemetry().report().job_phases;
    assert!(failed.iter().any(|p| p.phase == "map"), "the failed run reached the engine");
    for p in &failed {
        assert!(p.end_us <= failed_at, "{p:?} ran on past the failure at {failed_at} µs");
    }
    let run = broadcast().backend(Backend::Mr(&cluster)).run().unwrap();
    run.check().unwrap();
    let early = run.report.job_phases.iter().find(|p| p.start_us < failed_at);
    assert!(early.is_none(), "the failed run's {early:?} is in the next run's report");
}

/// Two runs back to back on one traced cluster: each report holds its own
/// run's phases, spans, events and histograms, so both pass `check`.
#[test]
fn each_run_on_a_shared_sink_reports_itself_alone() {
    let data: Vec<u64> = (0..24).map(|i| i * 17 % 257).collect();
    let cluster = Cluster::new(ClusterConfig::with_nodes(3)).with_telemetry(Telemetry::enabled());
    for i in 0..2 {
        let run = PairwiseJob::new(&data, comp())
            .scheme(BlockScheme::new(24, 4))
            .backend(Backend::Mr(&cluster))
            .run()
            .unwrap();
        run.check().unwrap_or_else(|e| panic!("run {i}: {e}"));
    }
}

/// On a fused run the driver merges each of job 1's parts as its reduce
/// task commits, inside job 1's `reduce` window. The `-io` track keeps its
/// two phases in the run's one phase chain (so it overlaps no engine
/// phase), and each merged part is one `part.consume` event on the
/// driver, timed, inside that window.
#[test]
fn fused_merge_runs_inside_job1_reduce_and_is_traced() {
    let run = instrumented_run(64, 4, true);
    run.check().unwrap();
    let report = &run.report;
    let (io, engine): (Vec<_>, Vec<_>) =
        report.job_phases.iter().partition(|p| p.job.ends_with("-io"));
    assert_eq!(
        io.iter().map(|p| p.phase.as_str()).collect::<Vec<_>>(),
        ["distribute-input", "merge-aggregate"]
    );
    let reduce = engine.iter().find(|p| p.phase == "reduce").expect("job 1 has a reduce phase");
    for e in report.events.iter().filter(|e| e.kind == "part.consume") {
        assert_eq!(e.node, trace::NONE, "consumed on the driver: {}", e.detail);
        // The part arrives in memory: there is no read to time.
        assert!(e.detail.contains(" B, merge ") && !e.detail.contains(" read "), "{}", e.detail);
        let inside = reduce.start_us + e.dur_us <= e.at_us && e.at_us <= reduce.end_us;
        assert!(inside, "{e:?} outside job 1's reduce {reduce:?}");
    }
}

/// Span byte and record totals equal the builtin counters of both jobs
/// of the two-job pipeline.
#[test]
fn span_byte_totals_equal_builtin_counters() {
    instrumented_run(48, 3, false).check().unwrap();
}

#[test]
fn histograms_agree_with_counters() {
    let run = instrumented_run(40, 4, true);
    // Each histogram is recorded, so its law in `check` is not vacuous.
    for name in [hist::EVALUATIONS_PER_TASK, hist::SHUFFLE_BYTES_PER_PARTITION, hist::GROUP_SIZE] {
        assert!(run.report.histograms.iter().any(|(n, _)| n == name), "{name} missing");
    }
    assert_eq!(run.report.counter(EVALUATIONS_COUNTER).unwrap(), 40 * 39 / 2);
    run.check().unwrap();
}

#[test]
fn conservation_holds_under_injected_failures() {
    // Retried tasks must not double-count: injector-failed attempts never
    // open a span, and only the committed attempt's scratch counters merge
    // into the job counters, so both bookkeeping systems still agree
    // exactly on a flaky cluster.
    let mut cfg = ClusterConfig::with_nodes(3).failure_probability(0.35).seed(777);
    cfg.max_task_attempts = 30;
    let run = instrumented_run_on(cfg, 48, false);
    let report = &run.report;
    let failed = report.counter(builtin::FAILED_ATTEMPTS).unwrap_or(0);
    assert!(failed > 0, "seed produced no failures; pick another seed");
    // Spans, histograms and counters all stay exactly-once.
    run.check().unwrap();
    assert_eq!(report.counter(EVALUATIONS_COUNTER).unwrap(), 48 * 47 / 2);
}

#[test]
fn node_timelines_partition_wall_time() {
    let run = instrumented_run(48, 3, true);
    run.check().unwrap(); // busy + idle == wall on every node
    let report = &run.report;
    assert!(!report.node_timelines.is_empty());
    for tl in &report.node_timelines {
        assert!(tl.tasks > 0);
        // Busy intervals are disjoint and ascending after merging.
        for pair in tl.busy_intervals.windows(2) {
            assert!(pair[0].1 < pair[1].0);
        }
    }
    // Every span is attributed to some node's timeline.
    let span_count: u64 = report.node_timelines.iter().map(|t| t.tasks).sum();
    assert_eq!(span_count, report.task_spans.len() as u64);
}

#[test]
fn disabled_telemetry_run_records_no_trace() {
    // The default cluster carries a disabled telemetry handle; a full MR
    // run through it must leave the trace ring untouched.
    let data: Vec<u64> = (0..32u64).map(|i| i * 17 % 257).collect();
    let cluster = Cluster::new(ClusterConfig::with_nodes(3));
    let run = PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(32, 6))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    assert!(run.report.trace.is_empty(), "disabled run must not record trace events");
    assert_eq!(run.report.trace_dropped, 0);
    assert!(run.report.events.is_empty());
    assert!(run.report.task_spans.is_empty());
    run.check().unwrap(); // the laws that need telemetry are skipped
}

#[test]
fn trace_is_totally_ordered_and_holds_only_operation_samples() {
    let run = instrumented_run(48, 3, true);
    let report = &run.report;
    assert!(!report.trace.is_empty());
    assert_eq!(report.trace_dropped, 0, "small run must fit the trace ring");
    // Sequence numbers are dense from zero: the ring's push order is the
    // run's total order.
    for (i, ev) in report.trace.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "trace seq must be dense");
    }
    // Spans, phases and events live in their own sections only; an
    // in-process run's ring holds its transfers and placements.
    for ev in &report.trace {
        assert!(matches!(ev.kind, "transfer" | "placement"), "{} in the trace", ev.kind);
    }
    run.check().unwrap();
}

#[test]
fn chaos_run_traces_recovery_with_node_and_duration() {
    let v = 40u64;
    let data: Vec<u64> = (0..v).map(|i| i * 37 % 101).collect();
    let mut saw_rerun = false;
    for chaos_seed in [5u64, 23, 1009] {
        let cluster = Cluster::new(ClusterConfig::with_nodes(4).chaos(1, chaos_seed))
            .with_telemetry(Telemetry::enabled());
        let run = PairwiseJob::new(&data, comp())
            .scheme(BlockScheme::new(v, 5))
            .backend(Backend::Mr(&cluster))
            .run()
            .unwrap();
        let report = &run.report;
        let crashes: Vec<_> = report.events.iter().filter(|e| e.kind == "node.crash").collect();
        assert_eq!(crashes.len(), 1, "seed {chaos_seed}");
        // The crash event is tagged with the victim node, not the sentinel.
        assert_ne!(crashes[0].node, trace::NONE, "seed {chaos_seed}");
        // Each recovered map task leaves one timed rerun event on the node
        // that re-executed it.
        let reruns: u64 = run.mr.iter().map(|r| r.map_reruns).sum();
        let traced: Vec<_> = report.events.iter().filter(|e| e.kind == "map.rerun").collect();
        assert_eq!(traced.len() as u64, reruns, "seed {chaos_seed}");
        for ev in &traced {
            assert_ne!(ev.node, trace::NONE, "seed {chaos_seed}: rerun must name its node");
            assert!(!ev.detail.is_empty(), "seed {chaos_seed}");
        }
        saw_rerun |= !traced.is_empty();
        run.check().unwrap();
        // Lost DFS replicas are restored and traced once per crash that
        // cost blocks.
        for ev in report.events.iter().filter(|e| e.kind == "dfs.rereplicate") {
            assert_ne!(ev.node, trace::NONE, "seed {chaos_seed}");
        }
    }
    assert!(saw_rerun, "no seed exercised a map re-run; pick other seeds");
}

#[test]
fn critical_path_is_bounded_by_makespan_and_attribution_tiles_it() {
    let run = instrumented_run(64, 4, true);
    let cp = CriticalPath::from_report(&run.report).expect("instrumented run has spans");
    assert!(cp.duration_us <= cp.makespan_us, "{} > {}", cp.duration_us, cp.makespan_us);
    assert_eq!(
        cp.compute_us + cp.shuffle_us + cp.recovery_us + cp.wait_us,
        cp.duration_us,
        "attribution must tile the chain"
    );
    assert!(!cp.segments.is_empty());
    assert_eq!(cp.segments[0].edge, "start");
    for pair in cp.segments.windows(2) {
        assert!(pair[0].end_us <= pair[1].start_us, "chain must be contiguous");
    }
}

#[test]
fn single_slot_single_node_critical_path_equals_makespan() {
    // One node with one map and one reduce slot fully serializes the run,
    // so the binding chain is the whole run: duration == makespan.
    let mut config = ClusterConfig::with_nodes(1);
    config.node.map_slots = 1;
    config.node.reduce_slots = 1;
    let run = instrumented_run_on(config, 40, true);
    let cp = CriticalPath::from_report(&run.report).unwrap();
    assert_eq!(cp.duration_us, cp.makespan_us, "serialized run: chain must cover the makespan");
    assert_eq!(cp.segments.len(), run.report.task_spans.len());
}

#[test]
fn skew_report_carries_the_analytic_predictions() {
    let run = instrumented_run(48, 3, true);
    let skew = pmr_obs::SkewReport::from_report(&run.report);
    // The runner stamps Table-1 predictions into the report metadata.
    let analytic_ws = skew.analytic_working_set.expect("runner must record analytic working set");
    assert_eq!(analytic_ws, 2.0 * 48.0 / 6.0, "block h=6 working set is 2v/h");
    assert!(skew.analytic_evals_per_task.unwrap() > 0.0);
    assert!(!skew.utilization.is_empty());
}

/// Speculative backups and crashes leave attempts that lose or fail: their
/// spans and histogram observations are dropped with their counters, so
/// every law still holds on a traced run.
#[test]
fn losing_attempts_leave_no_trace_in_the_laws() {
    let mut launched = 0;
    for seed in [3u64, 5, 17, 23, 77, 1009, 4242] {
        for fuse in [true, false] {
            let config = ClusterConfig::with_nodes(4).speculation(1.0).chaos(1, seed);
            let run = instrumented_run_on(config, 40, fuse);
            run.check().unwrap_or_else(|e| panic!("seed {seed}, fuse {fuse}: {e}"));
            launched += run.mr.iter().map(|m| m.speculative_launched).sum::<u64>();
        }
    }
    assert!(launched > 0, "no backup attempt was launched");
}
