//! Golden-file test for the RunReport JSON serialization: a fully
//! populated, hand-assembled report must serialize byte-for-byte to the
//! checked-in `tests/golden/run_report.json`. Consumers parse this format
//! (schema tag `pmr.run_report/9`), so any change to the writer or the
//! report layout must show up as a reviewed diff of the golden file.
//!
//! To regenerate after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p pmr-obs --test golden_report`

use pmr_obs::telemetry::{JobPhase, LinkStats, PlacementStats, RunEvent, TaskSpan};
use pmr_obs::trace::{self, TraceEvent};
use pmr_obs::{Histogram, PruningReport, RunReport};

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
    let mut report = RunReport::assemble(
        vec![
            ("backend".into(), "mr".into()),
            ("scheme".into(), "block".into()),
            ("scheme.v".into(), "32".into()),
            ("mr.fused".into(), "true".into()),
        ],
        1000,
        vec![
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
        spans,
        vec![
            (0, 1, LinkStats { bytes: 1024, events: 2, sim_us: 37 }),
            (1, 1, LinkStats { bytes: 512, events: 1, sim_us: 0 }),
        ],
        vec![
            (0, PlacementStats { blocks: 3, bytes: 6144 }),
            (1, PlacementStats { blocks: 1, bytes: 2048 }),
        ],
        vec![
            ("reduce.group_size".into(), groups.snapshot()),
            ("shuffle.bytes_per_partition".into(), shuffle.snapshot()),
        ],
        vec![
            RunEvent {
                at_us: 450,
                kind: "node.crash",
                detail: "node_2 crashed: lost 3 local files (1024 B); \
                         re-replicated 2 DFS blocks (2048 B)"
                    .into(),
            },
            RunEvent {
                at_us: 610,
                kind: "map.rerun",
                detail: "map task 0 re-run on node_1 (output lost with node_2)".into(),
            },
        ],
        vec![
            TraceEvent {
                seq: 0,
                at_us: 120,
                kind: trace::kind::TASK_START,
                job: "j1-distribute-evaluate".into(),
                task_kind: "map",
                task: 0,
                attempt: 0,
                node: 0,
                ..TraceEvent::default()
            },
            TraceEvent {
                seq: 1,
                at_us: 220,
                kind: trace::kind::TASK_LAP,
                job: "j1-distribute-evaluate".into(),
                task_kind: "map",
                task: 0,
                attempt: 0,
                node: 0,
                phase: "read".into(),
                dur_us: 100,
                ..TraceEvent::default()
            },
            TraceEvent {
                seq: 2,
                at_us: 300,
                kind: trace::kind::TRANSFER,
                node: 1,
                peer: 0,
                bytes: 1024,
                sim_us: 37,
                ..TraceEvent::default()
            },
            TraceEvent {
                seq: 3,
                at_us: 450,
                kind: "node.crash",
                node: 2,
                detail: "node_2 crashed: lost 3 local files (1024 B); \
                         re-replicated 2 DFS blocks (2048 B)"
                    .into(),
                ..TraceEvent::default()
            },
            TraceEvent {
                seq: 4,
                at_us: 610,
                kind: "map.rerun",
                node: 1,
                dur_us: 85,
                detail: "map task 0 re-run on node_1 (output lost with node_2)".into(),
                ..TraceEvent::default()
            },
            TraceEvent {
                seq: 5,
                at_us: 700,
                kind: trace::kind::PLACEMENT,
                node: 0,
                bytes: 2048,
                ..TraceEvent::default()
            },
        ],
        2,
    );
    report.merge_counters([
        ("mr.shuffle.bytes", 1536),
        ("mr.map.output.bytes", 1024),
        ("pairwise.evaluations", 496),
        ("pairwise.fused.charged.shuffle.bytes", 512),
    ]);
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
