//! Golden-file test for the RunReport JSON serialization: a fully
//! populated, hand-assembled report must serialize byte-for-byte to the
//! checked-in `tests/golden/run_report.json`. Consumers parse this format
//! (schema tag `pmr.run_report/10`), so any change to the writer or the
//! report layout must show up as a reviewed diff of the golden file.
//! `/10` moved the discrete events' node and duration from the trace ring
//! into `events`; the ring keeps only per-operation samples.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p pmr-obs --test golden_report`
//!
//! `tests/golden/run_report_v9.json` is the golden file as schema `/9`
//! wrote it; the loader must keep reading it.

use pmr_obs::telemetry::{JobPhase, LinkStats, PlacementStats, RunEvent, TaskSpan};
use pmr_obs::trace::{self, TraceEvent};
use pmr_obs::{
    export, Histogram, JsonValue, PruningReport, RunReport, TransportReport, WorkerProc,
};

/// Deterministic report exercising every section and value shape the
/// writer handles (empty + populated objects, nested arrays, floats).
fn sample_report() -> RunReport {
    let mut shuffle = Histogram::new();
    for bytes in [0u64, 96, 128, 4096] {
        shuffle.record(bytes);
    }
    let mut groups = Histogram::new();
    for size in [1u64, 2, 2, 3] {
        groups.record(size);
    }
    let spans = vec![
        TaskSpan {
            job: "j1-distribute-evaluate".into(),
            kind: "map",
            task: 0,
            attempt: 0,
            node: 0,
            start_us: 120,
            end_us: 480,
            phases: vec![("read", 100), ("map", 200), ("merge", 0), ("sort", 60)],
            bytes_in: 2048,
            bytes_out: 1024,
            records_in: 16,
            records_out: 32,
            peak_working_set_bytes: 0,
            labels: vec![],
        },
        TaskSpan {
            job: "j1-distribute-evaluate".into(),
            kind: "reduce",
            task: 0,
            attempt: 1,
            node: 1,
            start_us: 500,
            end_us: 900,
            phases: vec![("shuffle", 80), ("sort", 20), ("reduce", 300)],
            bytes_in: 1024,
            bytes_out: 512,
            records_in: 32,
            records_out: 8,
            peak_working_set_bytes: 4096,
            labels: vec![("scheme".into(), "block".into()), ("h".into(), "4".into())],
        },
        TaskSpan {
            job: "j1-distribute-evaluate".into(),
            kind: "reduce",
            task: 1,
            attempt: 0,
            node: 0,
            start_us: 460,
            end_us: 700,
            phases: vec![("shuffle", 40), ("sort", 10), ("reduce", 190)],
            bytes_in: 512,
            bytes_out: 256,
            records_in: 8,
            records_out: 4,
            peak_working_set_bytes: 2048,
            labels: vec![],
        },
    ];
    let mut report = RunReport {
        meta: vec![
            ("backend".into(), "mr".into()),
            ("scheme".into(), "block".into()),
            ("scheme.v".into(), "32".into()),
            ("mr.fused".into(), "true".into()),
        ],
        wall_time_us: 1000,
        job_phases: vec![
            JobPhase {
                job: "j1-distribute-evaluate".into(),
                phase: "map".into(),
                start_us: 100,
                end_us: 490,
                bytes_charged: 1024,
                bytes_moved: 256,
            },
            JobPhase {
                job: "j1-distribute-evaluate".into(),
                phase: "reduce".into(),
                start_us: 490,
                end_us: 950,
                bytes_charged: 1536,
                bytes_moved: 384,
            },
        ],
        task_spans: spans,
        transfers: vec![
            (0, 1, LinkStats { bytes: 1024, events: 2, sim_us: 37 }),
            (1, 1, LinkStats { bytes: 512, events: 1, sim_us: 0 }),
        ],
        placements: vec![
            (0, PlacementStats { blocks: 3, bytes: 6144 }),
            (1, PlacementStats { blocks: 1, bytes: 2048 }),
        ],
        histograms: vec![
            ("reduce.group_size".into(), groups.snapshot()),
            ("shuffle.bytes_per_partition".into(), shuffle.snapshot()),
        ],
        events: vec![
            RunEvent {
                at_us: 450,
                kind: "node.crash",
                node: 2,
                dur_us: 0,
                detail: "node_2 crashed: lost 3 local files (1024 B); \
                         re-replicated 2 DFS blocks (2048 B)"
                    .into(),
            },
            RunEvent {
                at_us: 610,
                kind: "map.rerun",
                node: 1,
                dur_us: 85,
                detail: "map task 0 re-run on node_1 (output lost with node_2)".into(),
            },
            RunEvent {
                at_us: 640,
                kind: RunEvent::TASK_CANCEL,
                node: 0,
                dur_us: 180,
                detail: "j1-distribute-evaluate reduce 1 attempt 1".into(),
            },
            RunEvent {
                at_us: 940,
                kind: "part.consume",
                node: trace::NONE,
                dur_us: 12,
                detail: "j1-distribute-evaluate part 0: 512 B, merge 12 µs".into(),
            },
        ],
        trace: vec![
            TraceEvent {
                seq: 0,
                at_us: 300,
                kind: trace::kind::TRANSFER,
                node: 1,
                peer: 0,
                bytes: 1024,
                sim_us: 37,
                ..TraceEvent::default()
            },
            TraceEvent {
                seq: 1,
                at_us: 700,
                kind: trace::kind::PLACEMENT,
                node: 0,
                bytes: 2048,
                ..TraceEvent::default()
            },
            TraceEvent {
                seq: 2,
                at_us: 720,
                kind: trace::kind::WORKER_GET,
                node: 1,
                phase: "shuffle".into(),
                bytes: 512,
                dur_us: 14,
                ..TraceEvent::default()
            },
        ],
        trace_dropped: 2,
        ..RunReport::default()
    }
    .assemble();
    report.merge_counters([
        ("mr.shuffle.bytes", 1536),
        ("mr.map.output.bytes", 1024),
        ("pairwise.evaluations", 496),
        ("pairwise.fused.charged.shuffle.bytes", 512),
    ]);
    report.transport = Some(TransportReport {
        name: "process".into(),
        workers: vec![
            WorkerProc { node: 0, pid: 4242, alive: true },
            WorkerProc { node: 1, pid: 4243, alive: false },
        ],
        wire_bytes: vec![("dfs".into(), 8192), ("shuffle".into(), 512)],
        wire_frames: 24,
    });
    report.pruning = Some(PruningReport {
        pruner: "prefix".into(),
        exact: true,
        candidates: 496,
        pruned: 448,
        evaluated: 48,
    });
    report
}

#[test]
fn run_report_json_matches_golden_file() {
    let mut json = sample_report().to_json();
    json.push('\n');
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/run_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, golden,
        "RunReport JSON drifted from the golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// A `/9` report still loads, summarizes and exports. Its ring's copies of
/// spans, phases and events are skipped (they load from their own
/// sections), its events carry no node or duration, worker heartbeats are
/// skipped, and the worker rows' `offset_us`, `trace_events` and
/// `trace_dropped` are ignored.
#[test]
fn schema_9_report_still_loads_summarizes_and_exports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/run_report_v9.json");
    let text = std::fs::read_to_string(path).expect("the /9 fixture is checked in");
    assert!(text.contains("\"pmr.run_report/9\"") && text.contains("\"task.lap\""));
    let r = RunReport::from_json(&text).expect("a /9 report parses");
    assert_eq!((r.task_spans.len(), r.job_phases.len(), r.events.len()), (3, 2, 2));
    let kinds: Vec<&str> = r.trace.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, ["transfer", "placement"]);
    assert!(r.events.iter().all(|e| e.node == trace::NONE && e.dur_us == 0));

    let summary = export::text_summary(&r);
    for needle in ["critical path", "node.crash", "map.rerun", "2 samples recorded"] {
        assert!(summary.contains(needle), "missing {needle:?} in:\n{summary}");
    }
    let (chrome, count) = export::chrome_trace(&r);
    let v = JsonValue::parse(&chrome).expect("the chrome export parses");
    assert_eq!(v.get("traceEvents").and_then(JsonValue::as_array).map(<[_]>::len), Some(count));

    let process = r#"{"schema": "pmr.run_report/9", "transport": {"name": "process",
        "workers": [{"node": 1, "pid": 77, "alive": true,
                     "offset_us": -3, "trace_events": 2, "trace_dropped": 0}]},
        "trace": {"dropped": 0, "events": [
            {"seq": 0, "at_us": 5, "kind": "worker.put", "node": 1, "phase": "dfs",
             "bytes": 8, "dur_us": 2},
            {"seq": 1, "at_us": 9, "kind": "worker.heartbeat", "node": 1,
             "detail": "ops=1 bytes=8"}]}}"#;
    let r = RunReport::from_json(process).expect("a /9 process report parses");
    assert_eq!(r.trace.iter().map(|e| e.kind).collect::<Vec<_>>(), ["worker.put"]);
    let workers = r.transport.map(|t| t.workers);
    assert_eq!(workers, Some(vec![WorkerProc { node: 1, pid: 77, alive: true }]));
}
