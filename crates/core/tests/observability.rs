//! Conservation properties of the run report: job phases must tile each
//! job's wall time, and span byte/record totals must agree with the
//! engine's builtin counters — the two bookkeeping systems observe the
//! same run independently, so any drift is a bug in one of them.

use pmr_cluster::{Cluster, ClusterConfig};
use pmr_core::runner::mr::EVALUATIONS_COUNTER;
use pmr_core::runner::{comp_fn, Backend, CompFn, PairwiseJob, PairwiseRun};
use pmr_core::scheme::BlockScheme;
use pmr_mapreduce::builtin;
use pmr_obs::{trace, CriticalPath, RunReport, Telemetry};

fn comp() -> CompFn<u64, u64> {
    comp_fn(|a: &u64, b: &u64| a.wrapping_mul(31) ^ b)
}

fn instrumented_mr_run(v: u64, nodes: usize) -> PairwiseRun<u64> {
    let data: Vec<u64> = (0..v).map(|i| i * 17 % 257).collect();
    let cluster =
        Cluster::new(ClusterConfig::with_nodes(nodes)).with_telemetry(Telemetry::enabled());
    PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(v, 6))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap()
}

/// Same run forced onto the paper's literal two-job pipeline — the
/// conservation tests below check both jobs' bookkeeping, so they opt out
/// of fused aggregation (which skips job 2 entirely).
fn instrumented_two_job_run(v: u64, nodes: usize) -> PairwiseRun<u64> {
    let data: Vec<u64> = (0..v).map(|i| i * 17 % 257).collect();
    let cluster =
        Cluster::new(ClusterConfig::with_nodes(nodes)).with_telemetry(Telemetry::enabled());
    PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(v, 6))
        .backend(Backend::Mr(&cluster))
        .fuse(false)
        .run()
        .unwrap()
}

/// Distinct job names in recorded order.
fn job_names(report: &RunReport) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for p in &report.job_phases {
        if !names.contains(&p.job) {
            names.push(p.job.clone());
        }
    }
    names
}

#[test]
fn job_phases_tile_each_jobs_wall_time() {
    let run = instrumented_two_job_run(64, 4);
    let report = &run.report;
    let all_jobs = job_names(report);
    // Runner-level DFS I/O (input distribution, output collection) is
    // tracked on its own `-io` job so the phases tile the whole run.
    let (io_jobs, jobs): (Vec<_>, Vec<_>) = all_jobs.into_iter().partition(|j| j.ends_with("-io"));
    assert_eq!(io_jobs.len(), 1, "io jobs: {io_jobs:?}");
    assert_eq!(
        report
            .job_phases
            .iter()
            .filter(|p| p.job == io_jobs[0])
            .map(|p| p.phase.as_str())
            .collect::<Vec<_>>(),
        ["distribute-input", "collect-output"]
    );
    // The two-job pipeline: distribute/evaluate then aggregate.
    assert_eq!(jobs.len(), 2, "jobs: {jobs:?}");
    for job in &jobs {
        let phases: Vec<_> = report.job_phases.iter().filter(|p| p.job == *job).collect();
        // setup → map → reduce → finalize, handed over back-to-back.
        assert_eq!(
            phases.iter().map(|p| p.phase.as_str()).collect::<Vec<_>>(),
            ["setup", "map", "reduce", "finalize"],
            "{job}"
        );
        // Each hand-over takes one clock reading that closes one phase and
        // opens the next, so the phases tile their window exactly.
        for pair in phases.windows(2) {
            assert_eq!(pair[1].start_us, pair[0].end_us, "gap inside {job}");
        }
        let window = phases.last().unwrap().end_us - phases.first().unwrap().start_us;
        let total = report.job_phase_total_us(job);
        assert_eq!(window, total, "{job}: phases must tile their window");
    }
    // The phase windows must also cover (±5%) the engine's own measure of
    // each job's wall time — the acceptance bar for the report.
    let engine_walls =
        [run.mr[0].job1.stats.wall_time_us, run.mr[0].job2.as_ref().unwrap().stats.wall_time_us];
    for (job, engine_wall) in jobs.iter().zip(engine_walls) {
        let total = report.job_phase_total_us(job) as f64;
        let wall = engine_wall as f64;
        assert!(
            (total - wall).abs() <= wall * 0.05 + 500.0,
            "{job}: phase total {total}µs vs engine wall {wall}µs"
        );
    }
    // And across every job — engine phases plus the runner's I/O phases —
    // the durations must sum (±5%) to the report's own wall time.
    let total: u64 = report.job_phases.iter().map(|p| p.end_us - p.start_us).sum();
    let wall = report.wall_time_us;
    assert!(
        (total as f64 - wall as f64).abs() <= wall as f64 * 0.05 + 500.0,
        "all phases {total}µs vs report wall {wall}µs"
    );
}

/// On a fused run the driver merges each of job 1's parts as its reduce
/// task commits, inside job 1's `reduce` window. The `-io` track keeps its
/// two phases and overlaps no engine phase, all phases still sum to the
/// run's wall time, and each merged part is one `part.consume` event on
/// the driver, timed, inside that window.
#[test]
fn fused_merge_runs_inside_job1_reduce_and_is_traced() {
    let run = instrumented_mr_run(64, 4);
    let report = &run.report;
    let (io, engine): (Vec<_>, Vec<_>) =
        report.job_phases.iter().partition(|p| p.job.ends_with("-io"));
    assert_eq!(
        io.iter().map(|p| p.phase.as_str()).collect::<Vec<_>>(),
        ["distribute-input", "merge-aggregate"]
    );
    for p in &io {
        for q in &engine {
            assert!(
                p.end_us <= q.start_us || q.end_us <= p.start_us,
                "io phase {} overlaps {} {}",
                p.phase,
                q.job,
                q.phase
            );
        }
    }
    let total: u64 = report.job_phases.iter().map(|p| p.end_us - p.start_us).sum();
    let wall = report.wall_time_us;
    assert!(
        (total as f64 - wall as f64).abs() <= wall as f64 * 0.05 + 500.0,
        "all phases {total}µs vs report wall {wall}µs"
    );
    let reduce = engine.iter().find(|p| p.phase == "reduce").expect("job 1 has a reduce phase");
    let parts: Vec<_> = report.trace.iter().filter(|e| e.kind == "part.consume").collect();
    assert_eq!(parts.len(), run.mr[0].job1.stats.reduce_tasks, "one event per part");
    for e in parts {
        assert_eq!(e.node, trace::NONE, "consumed on the driver: {}", e.detail);
        assert!(e.detail.contains(" read ") && e.detail.contains(" merge "), "{}", e.detail);
        assert!(
            reduce.start_us + e.dur_us <= e.at_us && e.at_us <= reduce.end_us,
            "{} at {}µs for {}µs, outside job 1's reduce [{}, {}]",
            e.detail,
            e.at_us,
            e.dur_us,
            reduce.start_us,
            reduce.end_us
        );
    }
}

#[test]
fn span_byte_totals_equal_builtin_counters() {
    let run = instrumented_two_job_run(48, 3);
    let report = &run.report;
    let jobs: Vec<String> = job_names(report).into_iter().filter(|j| !j.ends_with("-io")).collect();
    let counters = [&run.mr[0].job1.counters, &run.mr[0].job2.as_ref().unwrap().counters];
    for (job, counters) in jobs.iter().zip(counters) {
        // Reduce-side: every shuffled byte lands in exactly one reduce
        // span's bytes_in.
        let reduce_in: u64 = report
            .task_spans
            .iter()
            .filter(|s| s.job == *job && s.kind == "reduce")
            .map(|s| s.bytes_in)
            .sum();
        assert_eq!(reduce_in, counters[builtin::SHUFFLE_BYTES], "{job}: shuffle");
        // Map-side: span bytes_out is the same accumulation as the
        // MAP_OUTPUT_BYTES counter.
        let map_out: u64 = report
            .task_spans
            .iter()
            .filter(|s| s.job == *job && s.kind == "map")
            .map(|s| s.bytes_out)
            .sum();
        assert_eq!(map_out, counters[builtin::MAP_OUTPUT_BYTES], "{job}: map output");
        // Record conservation: reduce spans see exactly the records the
        // grouping loop hands to the reducer.
        let reduce_records: u64 = report
            .task_spans
            .iter()
            .filter(|s| s.job == *job && s.kind == "reduce")
            .map(|s| s.records_in)
            .sum();
        assert_eq!(
            reduce_records,
            counters[builtin::REDUCE_INPUT_RECORDS],
            "{job}: reduce records"
        );
    }
}

#[test]
fn histograms_agree_with_counters() {
    let run = instrumented_mr_run(40, 4);
    let report = &run.report;
    let hist_sum = |name: &str| -> u64 {
        report.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h.sum).unwrap_or(0)
    };
    // Every evaluation is recorded once in the per-task histogram and once
    // in the user counter (folded into the report by the builder).
    assert_eq!(
        hist_sum("pairwise.evaluations_per_task"),
        report.counter(EVALUATIONS_COUNTER).unwrap()
    );
    assert_eq!(report.counter(EVALUATIONS_COUNTER).unwrap(), 40 * 39 / 2);
    // Shuffle histogram entries are per reduce partition; their sum is the
    // builtin counter total (both jobs).
    assert_eq!(
        hist_sum("shuffle.bytes_per_partition"),
        report.counter(builtin::SHUFFLE_BYTES).unwrap()
    );
    // Group sizes: one histogram sample per reduce group, total records.
    assert_eq!(
        hist_sum("reduce.group_size"),
        report.counter(builtin::REDUCE_INPUT_RECORDS).unwrap()
    );
}

#[test]
fn conservation_holds_under_injected_failures() {
    // Retried tasks must not double-count: injector-failed attempts never
    // open a span, and only the committed attempt's scratch counters merge
    // into the job counters, so both bookkeeping systems still agree
    // exactly on a flaky cluster.
    let data: Vec<u64> = (0..48u64).map(|i| i * 17 % 257).collect();
    let mut cfg = ClusterConfig::with_nodes(3).failure_probability(0.35).seed(777);
    cfg.max_task_attempts = 30;
    let cluster = Cluster::new(cfg).with_telemetry(Telemetry::enabled());
    let run = PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(48, 6))
        .backend(Backend::Mr(&cluster))
        .fuse(false) // both jobs' bookkeeping is under test
        .run()
        .unwrap();
    let report = &run.report;
    let failed = report.counter(builtin::FAILED_ATTEMPTS).unwrap_or(0);
    assert!(failed > 0, "seed produced no failures; pick another seed");
    let jobs: Vec<String> = job_names(report).into_iter().filter(|j| !j.ends_with("-io")).collect();
    let counters = [&run.mr[0].job1.counters, &run.mr[0].job2.as_ref().unwrap().counters];
    for (job, counters) in jobs.iter().zip(counters) {
        let sum = |kind: &str, f: fn(&pmr_obs::TaskSpan) -> u64| -> u64 {
            report.task_spans.iter().filter(|s| s.job == *job && s.kind == kind).map(f).sum()
        };
        assert_eq!(sum("reduce", |s| s.bytes_in), counters[builtin::SHUFFLE_BYTES], "{job}");
        assert_eq!(sum("map", |s| s.bytes_out), counters[builtin::MAP_OUTPUT_BYTES], "{job}");
        assert_eq!(
            sum("reduce", |s| s.records_in),
            counters[builtin::REDUCE_INPUT_RECORDS],
            "{job}"
        );
        assert_eq!(sum("map", |s| s.records_in), counters[builtin::MAP_INPUT_RECORDS], "{job}");
    }
    // The evaluations histogram and user counter also stay exactly-once.
    let hist_sum = |name: &str| -> u64 {
        report.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h.sum).unwrap_or(0)
    };
    assert_eq!(report.counter(EVALUATIONS_COUNTER).unwrap(), 48 * 47 / 2);
    assert_eq!(
        hist_sum("pairwise.evaluations_per_task"),
        report.counter(EVALUATIONS_COUNTER).unwrap()
    );
}

#[test]
fn node_timelines_partition_wall_time() {
    let run = instrumented_mr_run(48, 3);
    let report = &run.report;
    assert!(!report.node_timelines.is_empty());
    for tl in &report.node_timelines {
        assert_eq!(tl.busy_us + tl.idle_us, report.wall_time_us, "node {}", tl.node);
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
}

#[test]
fn trace_is_totally_ordered_and_mirrors_every_span_and_event() {
    let run = instrumented_mr_run(48, 3);
    let report = &run.report;
    assert!(!report.trace.is_empty());
    assert_eq!(report.trace_dropped, 0, "small run must fit the trace ring");
    // Sequence numbers are dense from zero: the ring's push order is the
    // run's total order.
    for (i, ev) in report.trace.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "trace seq must be dense");
    }
    // Every committed span has exactly one start and one commit; every
    // discrete event is mirrored into the trace verbatim.
    let count = |kind: &str| report.trace.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(trace::kind::TASK_START), report.task_spans.len() + count("task.cancel"));
    assert_eq!(count(trace::kind::TASK_COMMIT), report.task_spans.len());
    for ev in &report.events {
        assert!(
            report.trace.iter().any(|t| t.kind == ev.kind && t.detail == ev.detail),
            "event '{}' missing from the trace",
            ev.kind
        );
    }
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
        let crashes: Vec<_> = report.trace.iter().filter(|e| e.kind == "node.crash").collect();
        assert_eq!(crashes.len(), 1, "seed {chaos_seed}");
        // The crash event is tagged with the victim node, not the sentinel.
        assert_ne!(crashes[0].node, trace::NONE, "seed {chaos_seed}");
        // Each recovered map task leaves one timed rerun event on the node
        // that re-executed it.
        let reruns: u64 = run.mr.iter().map(|r| r.map_reruns).sum();
        let traced: Vec<_> = report.trace.iter().filter(|e| e.kind == "map.rerun").collect();
        assert_eq!(traced.len() as u64, reruns, "seed {chaos_seed}");
        for ev in &traced {
            assert_ne!(ev.node, trace::NONE, "seed {chaos_seed}: rerun must name its node");
            assert!(!ev.detail.is_empty(), "seed {chaos_seed}");
        }
        saw_rerun |= !traced.is_empty();
        // Lost DFS replicas are restored and traced once per crash that
        // cost blocks.
        for ev in report.trace.iter().filter(|e| e.kind == "dfs.rereplicate") {
            assert_ne!(ev.node, trace::NONE, "seed {chaos_seed}");
        }
    }
    assert!(saw_rerun, "no seed exercised a map re-run; pick other seeds");
}

#[test]
fn critical_path_is_bounded_by_makespan_and_attribution_tiles_it() {
    let run = instrumented_mr_run(64, 4);
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
    let data: Vec<u64> = (0..40u64).map(|i| i * 17 % 257).collect();
    let mut config = ClusterConfig::with_nodes(1);
    config.node.map_slots = 1;
    config.node.reduce_slots = 1;
    let cluster = Cluster::new(config).with_telemetry(Telemetry::enabled());
    let run = PairwiseJob::new(&data, comp())
        .scheme(BlockScheme::new(40, 6))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap();
    let cp = CriticalPath::from_report(&run.report).unwrap();
    assert_eq!(cp.duration_us, cp.makespan_us, "serialized run: chain must cover the makespan");
    assert_eq!(cp.segments.len(), run.report.task_spans.len());
}

#[test]
fn skew_report_carries_the_analytic_predictions() {
    let run = instrumented_mr_run(48, 3);
    let skew = pmr_obs::SkewReport::from_report(&run.report);
    // The runner stamps Table-1 predictions into the report metadata.
    let analytic_ws = skew.analytic_working_set.expect("runner must record analytic working set");
    assert_eq!(analytic_ws, 2.0 * 48.0 / 6.0, "block h=6 working set is 2v/h");
    assert!(skew.analytic_evals_per_task.unwrap() > 0.0);
    assert!(!skew.utilization.is_empty());
}
