//! Exporters: Chrome-trace JSON (loadable in `chrome://tracing` or
//! Perfetto) and a self-contained plain-text summary.
//!
//! # Chrome-trace layout
//!
//! * `pid 0` — the driver: job-phase windows as complete (`"X"`) slices.
//! * node `n` — its own process lane, with thread lanes: `tid 0` map
//!   tasks, `tid 1` reduce tasks, `tid 2` generic tasks, `tid 3`
//!   discrete events (crash / recovery / speculation / cancel /
//!   placement) as instants (`"i"`), `tid 4` network transfers, `tid 5`
//!   the storage RPCs the coordinator issued to the node's worker, timed
//!   over their round trip, and the worker's `worker.lost` instant.
//!   On distributed runs the lane's `pid` is the worker's **real OS
//!   pid** (taken from the report's transport section); simulated runs
//!   fall back to the synthetic `n + 1`.
//!
//! Every emitted event carries `ph`, `ts`, `pid`, and `tid`, and events
//! are written in ascending `ts` order, so any single lane's timestamps
//! are monotone — the two properties the CI schema check enforces.

use crate::analyze::{CriticalPath, SkewReport};
use crate::json::JsonWriter;
use crate::report::RunReport;
use crate::telemetry::RunEvent;
use crate::trace;

/// One pending Chrome event before sorting.
struct ChromeEvent {
    name: String,
    cat: &'static str,
    ph: &'static str,
    ts: u64,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    args: Vec<(String, String)>, // (key, raw-JSON value)
}

fn task_tid(kind: &str) -> u64 {
    match kind {
        "map" => 0,
        "reduce" => 1,
        _ => 2,
    }
}

/// Process-lane assignment: `NONE` (driver) is pid 0; a node with a
/// known worker process uses its real OS pid; otherwise the synthetic
/// `node + 1` keeps simulated lanes stable.
struct LaneMap {
    real: std::collections::BTreeMap<u32, u64>,
}

impl LaneMap {
    fn from_report(r: &RunReport) -> LaneMap {
        let mut real = std::collections::BTreeMap::new();
        if let Some(t) = &r.transport {
            for w in &t.workers {
                if w.pid != 0 {
                    real.insert(w.node, w.pid as u64);
                }
            }
        }
        LaneMap { real }
    }

    fn pid(&self, node: u32) -> u64 {
        if node == trace::NONE {
            0
        } else {
            self.real.get(&node).copied().unwrap_or(node as u64 + 1)
        }
    }
}

/// Renders a report as Chrome-trace JSON (the `traceEvents` array
/// format) and returns it with the number of Chrome events it holds.
pub fn chrome_trace(r: &RunReport) -> (String, usize) {
    let lanes = LaneMap::from_report(r);
    let mut events: Vec<ChromeEvent> = Vec::new();

    for p in &r.job_phases {
        events.push(ChromeEvent {
            name: format!("{}/{}", p.job, p.phase),
            cat: "phase",
            ph: "X",
            ts: p.start_us,
            dur: Some(p.end_us.saturating_sub(p.start_us)),
            pid: 0,
            tid: 0,
            args: vec![
                ("bytes_charged".to_string(), p.bytes_charged.to_string()),
                ("bytes_moved".to_string(), p.bytes_moved.to_string()),
            ],
        });
    }

    for s in &r.task_spans {
        let mut args = vec![
            ("job".to_string(), JsonWriter::quote(&s.job)),
            ("attempt".to_string(), s.attempt.to_string()),
            ("bytes_in".to_string(), s.bytes_in.to_string()),
            ("bytes_out".to_string(), s.bytes_out.to_string()),
        ];
        for (phase, us) in &s.phases {
            args.push((format!("phase.{phase}_us"), us.to_string()));
        }
        events.push(ChromeEvent {
            name: format!("{} {}", s.kind, s.task),
            cat: "task",
            ph: "X",
            ts: s.start_us,
            dur: Some(s.end_us.saturating_sub(s.start_us)),
            pid: lanes.pid(s.node),
            tid: task_tid(s.kind),
            args,
        });
    }

    for e in &r.events {
        let mut args: Vec<(String, String)> = Vec::new();
        if !e.detail.is_empty() {
            args.push(("detail".to_string(), JsonWriter::quote(&e.detail)));
        }
        if e.dur_us > 0 {
            args.push(("dur_us".to_string(), e.dur_us.to_string()));
        }
        let (cat, tid) = if e.kind == RunEvent::WORKER_LOST { ("worker", 5) } else { ("event", 3) };
        events.push(ChromeEvent {
            name: e.kind.to_string(),
            cat,
            ph: "i",
            ts: e.at_us,
            dur: None,
            pid: lanes.pid(e.node),
            tid,
            args,
        });
    }

    for e in &r.trace {
        match e.kind {
            trace::kind::TRANSFER => {
                events.push(ChromeEvent {
                    name: format!(
                        "xfer n{} -> n{}",
                        if e.peer == trace::NONE { 0 } else { e.peer },
                        if e.node == trace::NONE { 0 } else { e.node }
                    ),
                    cat: "network",
                    ph: "X",
                    ts: e.at_us,
                    dur: Some(e.sim_us),
                    pid: lanes.pid(e.node),
                    tid: 4,
                    args: vec![("bytes".to_string(), e.bytes.to_string())],
                });
            }
            trace::kind::WORKER_PUT
            | trace::kind::WORKER_GET
            | trace::kind::WORKER_REMOVE
            | trace::kind::WORKER_REMOVE_PREFIX => {
                let mut args = vec![("bytes".to_string(), e.bytes.to_string())];
                if !e.phase.is_empty() {
                    args.push(("class".to_string(), JsonWriter::quote(&e.phase)));
                }
                events.push(ChromeEvent {
                    name: e.kind.to_string(),
                    cat: "worker",
                    ph: "X",
                    ts: e.at_us,
                    dur: Some(e.dur_us),
                    pid: lanes.pid(e.node),
                    tid: 5,
                    args,
                });
            }
            _ => {
                // Placements become instants beside the discrete events.
                events.push(ChromeEvent {
                    name: e.kind.to_string(),
                    cat: "event",
                    ph: "i",
                    ts: e.at_us,
                    dur: None,
                    pid: lanes.pid(e.node),
                    tid: 3,
                    args: vec![("bytes".to_string(), e.bytes.to_string())],
                });
            }
        }
    }

    // Global ts order implies per-lane monotonicity.
    events.sort_by_key(|e| e.ts);

    let mut w = JsonWriter::new();
    w.begin_object();
    w.str_field("displayTimeUnit", "ms");
    w.begin_array_key("traceEvents");
    for e in &events {
        w.begin_object();
        w.str_field("name", &e.name);
        w.str_field("cat", e.cat);
        w.str_field("ph", e.ph);
        w.u64_field("ts", e.ts);
        if let Some(dur) = e.dur {
            w.u64_field("dur", dur);
        }
        if e.ph == "i" {
            w.str_field("s", "t"); // thread-scoped instant
        }
        w.u64_field("pid", e.pid);
        w.u64_field("tid", e.tid);
        w.begin_object_key("args");
        for (k, raw) in &e.args {
            w.raw_field(k, raw);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    (w.finish(), events.len())
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders a self-contained plain-text summary: run metadata, phases,
/// critical path with attribution, skew/straggler diagnosis, histogram
/// quantiles, and discrete events.
pub fn text_summary(r: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(w, "run summary");
    let _ = writeln!(w, "  wall time      {}", fmt_us(r.wall_time_us));
    for (k, v) in &r.meta {
        let _ = writeln!(w, "  {k:<24} {v}");
    }

    if !r.job_phases.is_empty() {
        let _ = writeln!(w, "\njob phases");
        for p in &r.job_phases {
            let _ = writeln!(
                w,
                "  {:<40} {:>10}  charged {} B, moved {} B",
                format!("{}/{}", p.job, p.phase),
                fmt_us(p.end_us.saturating_sub(p.start_us)),
                p.bytes_charged,
                p.bytes_moved,
            );
        }
    }

    match CriticalPath::from_report(r) {
        Some(cp) => {
            let _ = writeln!(w, "\ncritical path");
            let _ = writeln!(
                w,
                "  makespan {}  critical path {} ({:.1}% of makespan)",
                fmt_us(cp.makespan_us),
                fmt_us(cp.duration_us),
                pct(cp.duration_us, cp.makespan_us),
            );
            let _ = writeln!(
                w,
                "  attribution: compute {} ({:.1}%)  shuffle {} ({:.1}%)  recovery {} ({:.1}%)  wait {} ({:.1}%)",
                fmt_us(cp.compute_us),
                pct(cp.compute_us, cp.duration_us),
                fmt_us(cp.shuffle_us),
                pct(cp.shuffle_us, cp.duration_us),
                fmt_us(cp.recovery_us),
                pct(cp.recovery_us, cp.duration_us),
                fmt_us(cp.wait_us),
                pct(cp.wait_us, cp.duration_us),
            );
            for s in &cp.segments {
                let _ = writeln!(
                    w,
                    "  {:<6} {:<28} task {:>3}.{} node {:>2}  {:>10}  wait {:>9}  [compute {} shuffle {} recovery {}]",
                    s.edge,
                    s.job,
                    s.task,
                    s.attempt,
                    s.node,
                    fmt_us(s.span_us()),
                    fmt_us(s.wait_us),
                    fmt_us(s.compute_us),
                    fmt_us(s.shuffle_us),
                    fmt_us(s.recovery_us),
                );
            }
        }
        None => {
            let _ = writeln!(w, "\ncritical path\n  (no task spans recorded)");
        }
    }

    let skew = SkewReport::from_report(r);
    if !skew.utilization.is_empty() {
        let _ = writeln!(w, "\nnode utilization");
        for u in &skew.utilization {
            let _ = writeln!(
                w,
                "  node {:>2}  {:>4} tasks  busy {:>10}  idle {:>10}  ({:.1}% busy)",
                u.node,
                u.tasks,
                fmt_us(u.busy_us),
                fmt_us(u.idle_us),
                100.0 * u.busy_fraction,
            );
        }
    }
    if skew.evaluations.is_some() || skew.working_set.is_some() {
        let _ = writeln!(w, "\nskew (measured vs analytic)");
        if let Some(ev) = &skew.evaluations {
            let analytic = skew
                .analytic_evals_per_task
                .map(|a| format!("  analytic {a:.1}"))
                .unwrap_or_default();
            let _ = writeln!(
                w,
                "  evaluations/task  max {}  mean {:.1}  imbalance {:.2}x{analytic}",
                ev.max, ev.mean, ev.ratio,
            );
        }
        if let Some(ws) = &skew.working_set {
            let analytic =
                skew.analytic_working_set.map(|a| format!("  analytic {a:.0}")).unwrap_or_default();
            let _ = writeln!(
                w,
                "  working set (elements)  max {}  mean {:.1}  imbalance {:.2}x{analytic}",
                ws.max, ws.mean, ws.ratio,
            );
        }
        if let Some((job, kind, task, node, dur)) = &skew.straggler {
            let _ =
                writeln!(w, "  straggler  {job} {kind} {task} on node {node}  ({})", fmt_us(*dur));
        }
    }

    if !r.histograms.is_empty() {
        let _ = writeln!(w, "\nhistograms");
        for (name, h) in &r.histograms {
            let _ = writeln!(
                w,
                "  {:<34} n={:<6} min {:<8} p50 {:<8} p90 {:<8} p99 {:<8} max {:<8} mean {:.1}",
                name,
                h.count,
                h.min,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max,
                h.mean(),
            );
        }
    }

    if !r.events.is_empty() {
        let _ = writeln!(w, "\nevents");
        for e in &r.events {
            let _ = writeln!(w, "  {:>10}  {:<20} {}", fmt_us(e.at_us), e.kind, e.detail);
        }
    }

    let _ = writeln!(
        w,
        "\ntrace: {} samples recorded{}",
        r.trace.len(),
        if r.trace_dropped > 0 {
            format!(" ({} dropped from the bounded ring)", r.trace_dropped)
        } else {
            String::new()
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonparse::JsonValue;
    use crate::telemetry::{SpanKind, Telemetry};

    fn sample_report() -> RunReport {
        let t = Telemetry::enabled();
        t.set_meta("scheme", "block(h=4)");
        t.job_phase("j1", "map");
        {
            let mut span = t.span("j1", SpanKind::Map, 0, 0, 1);
            let mut at = std::time::Instant::now();
            span.lap("map", &mut at);
        }
        t.job_phase("j1", "reduce");
        {
            let mut span = t.span("j1", SpanKind::Reduce, 0, 0, 0);
            let mut at = std::time::Instant::now();
            span.lap("shuffle", &mut at);
            span.record_value(crate::hist::EVALUATIONS_PER_TASK, 10);
            span.record_value(crate::hist::EVALUATIONS_PER_TASK, 30);
        }
        t.transfer(1, 0, 4096, 35);
        t.event("node.crash", 1, 0, "node_1 crashed".to_string());
        t.event("map.rerun", 0, 42, "map 0 re-run on node_0".to_string());
        t.report()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_required_fields() {
        let r = sample_report();
        let (json, count) = chrome_trace(&r);
        let v = JsonValue::parse(&json).expect("chrome trace must parse");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        assert_eq!(events.len(), count);
        let mut last_ts_per_lane: std::collections::BTreeMap<(u64, u64), u64> =
            std::collections::BTreeMap::new();
        for e in events {
            for key in ["ph", "ts", "pid", "tid"] {
                assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
            }
            let lane = (e.u64_or_zero("pid"), e.u64_or_zero("tid"));
            let ts = e.u64_or_zero("ts");
            let last = last_ts_per_lane.entry(lane).or_insert(0);
            assert!(ts >= *last, "timestamps must be monotone per lane");
            *last = ts;
        }
        // Recovery events surface as instants.
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(JsonValue::as_str)).collect();
        assert!(names.contains(&"node.crash"));
        assert!(names.contains(&"map.rerun"));
        assert!(names.iter().any(|n| n.starts_with("xfer")));
    }

    #[test]
    fn worker_lanes_use_real_pids_from_the_transport_section() {
        let t = Telemetry::enabled();
        {
            let mut span = t.span("j1", SpanKind::Map, 0, 0, 1);
            let mut at = std::time::Instant::now();
            span.lap("map", &mut at);
        }
        t.worker_op(trace::kind::WORKER_PUT, 1, "map_output", 256, t.now_us());
        t.event(RunEvent::WORKER_LOST, 1, 0, "worker for node_1 killed".to_string());
        let mut r = t.report();
        r.transport = Some(crate::TransportReport {
            name: "process".to_string(),
            workers: vec![crate::WorkerProc { node: 1, pid: 31337, alive: false }],
            ..Default::default()
        });

        let (json, _) = chrome_trace(&r);
        let v = JsonValue::parse(&json).expect("chrome trace must parse");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let put = events
            .iter()
            .find(|e| e.str_or_empty("name") == trace::kind::WORKER_PUT)
            .expect("worker.put slice");
        assert_eq!(put.str_or_empty("ph"), "X");
        assert_eq!(put.u64_or_zero("pid"), 31337, "node 1 lane uses the real worker pid");
        assert_eq!(put.u64_or_zero("tid"), 5);
        assert_eq!(put.get("args").unwrap().str_or_empty("class"), "map_output");
        let lost = events
            .iter()
            .find(|e| e.str_or_empty("name") == RunEvent::WORKER_LOST)
            .expect("worker.lost instant");
        assert_eq!(lost.str_or_empty("ph"), "i");
        assert_eq!((lost.u64_or_zero("pid"), lost.u64_or_zero("tid")), (31337, 5));
        // The node-1 task span rides the same real-pid lane.
        let task = events.iter().find(|e| e.str_or_empty("name") == "map 0").expect("task slice");
        assert_eq!(task.u64_or_zero("pid"), 31337);
    }

    #[test]
    fn text_summary_is_self_contained() {
        let r = sample_report();
        let text = text_summary(&r);
        for needle in [
            "run summary",
            "critical path",
            "makespan",
            "node utilization",
            "block(h=4)",
            "node.crash",
            "map.rerun",
            "evaluations/task",
            "p50",
            "samples recorded",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
