//! Distributed tracing end-to-end over real worker processes: the
//! coordinator records each RPC it issues to a worker, timed over the
//! round trip under the connection lock, so the per-class bytes of the
//! `worker.*` samples reconcile exactly with the socket byte counters,
//! each worker lane is monotone, a SIGKILL'd worker gets one
//! `worker.lost` event, and tracing adds no socket traffic.
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

/// Asserts the trace holds only per-operation samples, that each worker
/// lane's RPCs follow one another without overlap, and that the samples'
/// bytes per wire class and their frames equal the socket counters.
fn assert_worker_ops_match_the_wire(report: &RunReport) {
    assert_eq!(report.trace_dropped, 0, "the ring must not drop in a run this small");
    let mut lane_free_at: BTreeMap<u32, u64> = BTreeMap::new();
    let mut by_class: BTreeMap<&str, u64> = BTreeMap::new();
    let mut ops = 0u64;
    for e in &report.trace {
        if !is_worker_op(e.kind) {
            assert!(matches!(e.kind, "transfer" | "placement"), "{} in the trace", e.kind);
            continue;
        }
        let free_at = lane_free_at.entry(e.node).or_insert(0);
        assert!(e.at_us >= *free_at, "worker lane {} went backwards at {e:?}", e.node);
        *free_at = e.at_us + e.dur_us;
        *by_class.entry(e.phase.as_str()).or_default() += e.bytes;
        ops += 1;
    }
    let transport = report.transport.as_ref().expect("transport section");
    for (class, wire_bytes) in &transport.wire_bytes {
        assert_eq!(
            by_class.get(class.as_str()).copied().unwrap_or(0),
            *wire_bytes,
            "worker-op bytes must reconcile exactly with the socket counter for class {class}"
        );
    }
    assert_eq!(2 * ops, transport.wire_frames, "one request and one reply per recorded op");
    assert!(transport.wire_bytes.iter().any(|(_, b)| *b > 0), "the run moved bytes");
}

/// The reconciliation: on a traced run the bytes in the `worker.*`
/// samples sum *exactly* to the coordinator's per-class socket byte
/// counters — both are booked at the same point of the same RPC.
#[test]
fn merged_worker_spans_sum_exactly_to_wire_class_totals() {
    let telemetry = Telemetry::enabled();
    let cluster = Cluster::try_new(process_config(3))
        .expect("spawn workers")
        .with_telemetry(telemetry.clone());
    let run = traced_run(&cluster, &telemetry, 7);
    run.check().unwrap();
    let report = &run.report;
    let transport = report.transport.as_ref().expect("transport section");
    assert_eq!(transport.workers.len(), 3);
    assert!(transport.workers.iter().all(|w| w.alive), "healthy run");
    assert!(report.events.iter().all(|e| e.kind != "worker.lost"), "no worker was lost");
    assert_worker_ops_match_the_wire(report);
    for w in &transport.workers {
        assert!(
            report.trace.iter().any(|e| is_worker_op(e.kind) && e.node == w.node),
            "no RPC to worker {} was recorded",
            w.node
        );
    }
}

/// Tracing costs the workers nothing: an untraced run records no sample,
/// and a traced run of the same job sends the same frames and the same
/// bytes per wire class, so the trace adds no socket traffic.
#[test]
fn untraced_process_run_records_no_worker_events() {
    let untraced = Cluster::try_new(process_config(2)).expect("spawn workers");
    let plain = traced_run(&untraced, &Telemetry::disabled(), 13);
    assert!(plain.report.trace.is_empty() && plain.report.events.is_empty());

    let telemetry = Telemetry::enabled();
    let traced = Cluster::try_new(process_config(2))
        .expect("spawn workers")
        .with_telemetry(telemetry.clone());
    let run = traced_run(&traced, &telemetry, 13);
    assert!(!run.report.trace.is_empty());
    assert_eq!(plain.output, run.output);
    let (a, b) = (plain.report.transport.unwrap(), run.report.transport.unwrap());
    assert_eq!(a.wire_frames, b.wire_frames, "tracing changed the frame count");
    assert_eq!(a.wire_bytes, b.wire_bytes, "tracing changed the wire series");
}

/// Chaos leg: SIGKILL one worker mid-run. The dead worker gets exactly
/// one `worker.lost` event on its node, the samples still reconcile with
/// the wire and stay ordered per lane, the report roundtrips, and the
/// Chrome export stays schema-valid with the workers' real pids.
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

    let lost: Vec<_> = report.events.iter().filter(|e| e.kind == "worker.lost").collect();
    assert_eq!(lost.len(), 1, "the dead worker is marked lost exactly once");
    assert_eq!(lost[0].node, dead[0].node);
    assert!(lost[0].detail.contains("lost"), "loss event names the failure: {:?}", lost[0].detail);
    assert_worker_ops_match_the_wire(report);

    // The report survives a JSON roundtrip byte-for-byte.
    let json = report.to_json();
    let parsed = RunReport::from_json(&json).expect("chaotic report parses back");
    assert_eq!(parsed.to_json(), json);

    // Chrome export: valid JSON, per-lane monotone ts, worker ops on the
    // real-pid lanes of surviving workers, and the loss marker present.
    let (chrome, _) = export::chrome_trace(report);
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
