//! End-to-end trace pipeline: a chaos-injected block-scheme run through
//! the MR backend, exported as Chrome-trace JSON and validated against
//! the viewer's schema — every event carries `ph`/`ts`/`pid`/`tid`,
//! timestamps are monotone within each (pid, tid) lane, and every
//! recovery event from the run report appears as an instant.

use std::collections::BTreeMap;
use std::sync::Arc;

use pairwise_mr::obs::export::chrome_trace;
use pairwise_mr::obs::{CriticalPath, JsonValue};
use pairwise_mr::prelude::*;

fn chaotic_block_run() -> PairwiseRun<u64> {
    let v = 40u64;
    let payloads: Vec<u64> = (0..v).map(|i| i * 37 % 101).collect();
    let cluster =
        Cluster::new(ClusterConfig::with_nodes(4).chaos(1, 5)).with_telemetry(Telemetry::enabled());
    PairwiseJob::new(&payloads, comp_fn(|a: &u64, b: &u64| a.wrapping_mul(31) ^ b))
        .scheme(BlockScheme::new(v, 5))
        .backend(Backend::Mr(&cluster))
        .run()
        .unwrap()
}

#[test]
fn chrome_trace_of_a_chaos_run_is_schema_valid_and_complete() {
    let run = chaotic_block_run();
    let report = &run.report;
    assert!(report.events.iter().any(|e| e.kind == "node.crash"), "chaos must fire");

    let (text, _) = chrome_trace(report);
    let root = JsonValue::parse(&text).expect("chrome trace must be valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("root must carry a traceEvents array");
    assert!(!events.is_empty());

    // Viewer schema: every event has a phase, a timestamp, and a lane.
    let mut lanes: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut instant_names: Vec<String> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("event missing ph");
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("event missing ts");
        let pid = ev.get("pid").and_then(|v| v.as_u64()).expect("event missing pid");
        let tid = ev.get("tid").and_then(|v| v.as_u64()).expect("event missing tid");
        assert!(matches!(ph, "X" | "i"), "unexpected phase {ph}");
        // The exporter sorts globally by ts, so each lane sees monotone
        // timestamps — the invariant the viewer needs for stable stacks.
        let last = lanes.entry((pid, tid)).or_insert(0.0);
        assert!(ts >= *last, "lane ({pid},{tid}) went backwards: {ts} < {last}");
        *last = ts;
        if ph == "i" {
            instant_names
                .push(ev.get("name").and_then(|v| v.as_str()).unwrap_or_default().to_string());
        }
    }

    // Every recovery event in the run report is present as an instant.
    for kind in ["node.crash", "map.rerun", "dfs.rereplicate"] {
        let in_report = report.events.iter().filter(|e| e.kind == kind).count();
        let in_chrome = instant_names.iter().filter(|n| n.as_str() == kind).count();
        assert_eq!(in_chrome, in_report, "{kind}: report and chrome trace disagree");
    }
    let reruns: u64 = run.mr.iter().map(|r| r.map_reruns).sum();
    assert_eq!(
        instant_names.iter().filter(|n| n.as_str() == "map.rerun").count() as u64,
        reruns,
        "every recovered map task must surface in the exported trace"
    );
}

#[test]
fn critical_path_of_a_chaos_run_attributes_recovery() {
    let run = chaotic_block_run();
    let cp = CriticalPath::from_report(&run.report).unwrap();
    assert!(cp.duration_us <= cp.makespan_us);
    assert_eq!(cp.compute_us + cp.shuffle_us + cp.recovery_us + cp.wait_us, cp.duration_us);
    // Recovery time along the chain never exceeds the total rerun time
    // recorded in the run's events.
    let total_rerun: u64 =
        run.report.events.iter().filter(|e| e.kind == "map.rerun").map(|e| e.dur_us).sum();
    assert!(cp.recovery_us <= total_rerun, "{} > {}", cp.recovery_us, total_rerun);
}

#[test]
fn healthy_and_chaotic_outputs_agree_while_traces_differ() {
    // The trace layer is pure observation: chaos changes the trace, never
    // the result.
    let v = 40u64;
    let payloads: Vec<u64> = (0..v).map(|i| i * 37 % 101).collect();
    let comp = comp_fn(|a: &u64, b: &u64| a.wrapping_mul(31) ^ b);
    let healthy = {
        let cluster =
            Cluster::new(ClusterConfig::with_nodes(4)).with_telemetry(Telemetry::enabled());
        PairwiseJob::new(&payloads, Arc::clone(&comp))
            .scheme(BlockScheme::new(v, 5))
            .backend(Backend::Mr(&cluster))
            .run()
            .unwrap()
    };
    let chaotic = chaotic_block_run();
    assert_eq!(healthy.output, chaotic.output);
    assert!(healthy.report.events.iter().all(|e| e.kind != "node.crash"));
    assert!(chaotic.report.events.iter().any(|e| e.kind == "node.crash"));
}
