//! Distributed tracing end-to-end over real worker processes: worker
//! rings drain into the coordinator's trace with clock-offset rebasing,
//! the merged per-class wire bytes reconcile exactly with the socket
//! byte counters on healthy runs, lanes stay monotone, a SIGKILL'd
//! worker is marked lost, and tracing stays zero-cost when disabled.
//!
//! Run `cargo build -p pmr-cluster --bin pmr-worker` first when invoking
//! this file outside a full workspace build (the tests spawn that binary).

use std::collections::BTreeMap;

use pairwise_mr::apps::distance::euclidean_comp;
use pairwise_mr::apps::generate::gaussian_clusters;
use pairwise_mr::obs::{export, JsonValue, RunReport};
use pairwise_mr::prelude::*;

fn process_config(n: usize) -> ClusterConfig {
    ClusterConfig::with_nodes(n).transport(TransportKind::Process { socket: SocketMode::Uds })
}

fn traced_run(cluster: &Cluster, telemetry: &Telemetry, seed: u64) -> PairwiseRun<f64> {
    let (points, _) = gaussian_clusters(36, 3, 2, 0.5, seed);
    let v = points.len() as u64;
    PairwiseJob::new(&points, euclidean_comp())
        .scheme(BlockScheme::new(v, 4))
        .backend(Backend::Mr(cluster))
        .telemetry(telemetry.clone())
        .run()
        .expect("pairwise run")
}

fn is_worker_op(kind: &str) -> bool {
    matches!(kind, "worker.put" | "worker.get" | "worker.remove" | "worker.remove_prefix")
}

/// Asserts every per-node worker lane has non-decreasing timestamps in
/// merge order and returns the number of worker-lane events seen.
fn assert_worker_lanes_monotone(report: &RunReport) -> u64 {
    let mut high: BTreeMap<u32, u64> = BTreeMap::new();
    let mut count = 0u64;
    for e in &report.trace {
        if !e.kind.starts_with("worker.") {
            continue;
        }
        let h = high.entry(e.node).or_insert(0);
        assert!(
            e.at_us >= *h,
            "worker lane {} went backwards: {} < {} at {}",
            e.node,
            e.at_us,
            h,
            e.kind
        );
        *h = e.at_us;
        count += 1;
    }
    count
}

/// The tentpole reconciliation: on a healthy traced run the bytes in the
/// merged worker PUT/GET spans sum *exactly* to the coordinator's
/// per-class socket byte counters — both sides observed the same frames.
#[test]
fn merged_worker_spans_sum_exactly_to_wire_class_totals() {
    let telemetry = Telemetry::enabled();
    let cluster = Cluster::try_new(process_config(3))
        .expect("spawn workers")
        .with_telemetry(telemetry.clone());
    let run = traced_run(&cluster, &telemetry, 7);
    run.check().unwrap();
    let report = &run.report;
    assert_eq!(report.trace_dropped, 0, "coordinator ring must not drop in a run this small");

    let transport = report.transport.as_ref().expect("transport section");
    assert_eq!(transport.workers.len(), 3);
    for w in &transport.workers {
        assert!(w.alive, "healthy run");
        assert!(w.trace_events > 0, "worker {} drained no events", w.node);
        assert_eq!(w.trace_dropped, 0, "worker {} ring overflowed", w.node);
        assert!(
            w.offset_us.unsigned_abs() < 60_000_000,
            "implausible clock offset for worker {}: {} µs",
            w.node,
            w.offset_us
        );
    }

    // Group the merged worker ops by wire class (carried in `phase`).
    let mut by_class: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &report.trace {
        if is_worker_op(e.kind) {
            *by_class.entry(e.phase.as_str()).or_default() += e.bytes;
        }
    }
    for (class, wire_bytes) in &transport.wire_bytes {
        assert_eq!(
            by_class.get(class.as_str()).copied().unwrap_or(0),
            *wire_bytes,
            "worker-span bytes must reconcile exactly with the socket counter for class {class}"
        );
    }
    assert!(transport.wire_bytes.iter().any(|(_, b)| *b > 0), "the run moved bytes");

    // Rebased lanes are monotone and every drained event made the merge.
    let lane_events = assert_worker_lanes_monotone(report);
    let drained: u64 = transport.workers.iter().map(|w| w.trace_events).sum();
    assert_eq!(lane_events, drained, "every drained worker event lands in the merged trace");
    assert!(
        report.trace.iter().any(|e| e.kind == "worker.heartbeat"),
        "periodic heartbeats ride along with the data spans"
    );
}

/// Zero-overhead guarantee on the multiprocess path: without telemetry
/// the workers never arm their rings, take no timestamps, and the
/// coordinator performs no ping exchange.
#[test]
fn untraced_process_run_records_no_worker_events() {
    let cluster = Cluster::try_new(process_config(2)).expect("spawn workers");
    let telemetry = Telemetry::disabled();
    let run = traced_run(&cluster, &telemetry, 13);
    assert!(run.report.trace.is_empty());
    for w in cluster.workers() {
        assert_eq!(w.trace_events, 0, "worker {} was traced while disabled", w.node.0);
        assert_eq!(w.trace_dropped, 0);
        assert_eq!(w.offset_us, 0, "no ping exchange should have run");
    }
}

/// Chaos leg: SIGKILL one worker mid-run. The merged trace still
/// parses and roundtrips, every lane stays monotone after rebasing, the
/// dead worker is marked lost exactly once at (or after) its last
/// observed sign of life, and the Chrome export stays schema-valid with
/// the surviving workers' real pids.
#[test]
fn sigkilled_worker_is_marked_lost_and_trace_stays_ordered() {
    let telemetry = Telemetry::enabled();
    let cluster = Cluster::try_new(process_config(4).chaos(1, 23))
        .expect("spawn workers")
        .with_telemetry(telemetry.clone());
    let run = traced_run(&cluster, &telemetry, 11);
    run.check().unwrap();
    let report = &run.report;
    assert_eq!(run.mr[0].node_crashes, 1, "the chaos plan fired");

    let transport = report.transport.as_ref().expect("transport section");
    let dead: Vec<_> = transport.workers.iter().filter(|w| !w.alive).collect();
    assert_eq!(dead.len(), 1, "exactly one worker was killed: {:?}", transport.workers);

    let lost: Vec<_> = report.trace.iter().filter(|e| e.kind == "worker.lost").collect();
    assert_eq!(lost.len(), 1, "the dead worker is marked lost exactly once");
    assert_eq!(lost[0].node, dead[0].node);
    assert!(
        lost[0].detail.contains("unreachable"),
        "loss marker names the failure: {:?}",
        lost[0].detail
    );
    // Survivors still drained; lanes stay ordered through the crash.
    assert!(transport.workers.iter().filter(|w| w.alive).all(|w| w.trace_events > 0));
    assert_worker_lanes_monotone(report);

    // The merged trace survives a JSON roundtrip byte-for-byte.
    let json = report.to_json();
    let parsed = RunReport::from_json(&json).expect("chaotic report parses back");
    assert_eq!(parsed.to_json(), json);

    // Chrome export: valid JSON, per-lane monotone ts, worker ops on the
    // real-pid lanes of surviving workers, and the loss marker present.
    let chrome = export::chrome_trace(report);
    let v = JsonValue::parse(&chrome).expect("chrome trace parses");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in events {
        for key in ["ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
        let lane = (e.u64_or_zero("pid"), e.u64_or_zero("tid"));
        let ts = e.u64_or_zero("ts");
        let prev = last_ts.entry(lane).or_insert(0);
        assert!(ts >= *prev, "chrome lane {lane:?} not monotone");
        *prev = ts;
    }
    let real_pids: Vec<u64> = transport.workers.iter().map(|w| w.pid as u64).collect();
    let worker_op_pids: Vec<u64> = events
        .iter()
        .filter(|e| e.u64_or_zero("tid") == 5 && e.str_or_empty("ph") == "X")
        .map(|e| e.u64_or_zero("pid"))
        .collect();
    assert!(!worker_op_pids.is_empty(), "worker op slices exported");
    assert!(
        worker_op_pids.iter().all(|pid| real_pids.contains(pid)),
        "worker lanes must use real worker pids {real_pids:?}, got {worker_op_pids:?}"
    );
    assert!(
        events.iter().any(|e| e.str_or_empty("name") == "worker.lost"),
        "loss marker survives the export"
    );
}
