//! The machine-readable run report: everything the telemetry sink saw,
//! assembled, derived (node timelines), and serializable to JSON with the
//! hand-rolled writer in [`crate::json`].

use crate::histogram::HistogramSnapshot;
use crate::json::JsonWriter;
use crate::telemetry::{JobPhase, LinkStats, PlacementStats, RunEvent, TaskSpan};
use crate::trace::{self, TraceEvent};

/// Busy/idle picture of one node, derived from its task spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeTimeline {
    /// Node id.
    pub node: u32,
    /// Task attempts that ran on the node.
    pub tasks: u64,
    /// Microseconds the node ran ≥ 1 task (span union).
    pub busy_us: u64,
    /// `wall_time_us - busy_us`.
    pub idle_us: u64,
    /// Merged busy intervals `(start_us, end_us)`, ascending.
    pub busy_intervals: Vec<(u64, u64)>,
    /// Largest task working set seen on the node, bytes.
    pub memory_high_water_bytes: u64,
}

/// One worker process row in the report's transport section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerProc {
    /// Node the worker backs.
    pub node: u32,
    /// OS process id.
    pub pid: u32,
    /// Whether the process was still running when the report was taken.
    pub alive: bool,
}

/// Physical-transport section of a run report (schema 7): which backend
/// moved the bytes, the worker process table, and the payload bytes that
/// actually crossed worker sockets, by traffic class.
///
/// Absent (`None` on [`RunReport::transport`]) for in-process runs, whose
/// byte movement is simulated rather than serialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportReport {
    /// Transport name (`"process"`).
    pub name: String,
    /// Spawned worker processes, ascending by node.
    pub workers: Vec<WorkerProc>,
    /// Physically serialized payload bytes as `(class, bytes)` pairs in
    /// stable order (`dfs`, `seed`, `cache`, `map_output`, `shuffle`,
    /// `other`).
    pub wire_bytes: Vec<(String, u64)>,
    /// Total frames exchanged over worker sockets.
    pub wire_frames: u64,
}

/// Candidate-pruning section of a run report (schema 8): which pruner
/// screened the pair relation and how many of its pairs it admitted.
///
/// Absent (`None` on [`RunReport::pruning`]) for unfiltered runs, whose
/// reports stay byte-identical to pre-pruning schemas modulo the tag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruningReport {
    /// Pruner name (`"prefix"`, `"lsh"`, ...).
    pub pruner: String,
    /// Whether the pruner is exact (recall 1.0 by construction).
    pub exact: bool,
    /// Pairs of the distribution scheme(s)' relation — probed, or passed
    /// over by a filter that generated its candidates.
    pub candidates: u64,
    /// Pairs rejected before evaluation.
    pub pruned: u64,
    /// Pairs that reached the kernel (`candidates - pruned`).
    pub evaluated: u64,
}

impl TransportReport {
    /// Bytes of a named wire class, if recorded.
    pub fn wire_class(&self, class: &str) -> Option<u64> {
        self.wire_bytes.iter().find(|(c, _)| c == class).map(|(_, b)| *b)
    }

    /// Sum of all wire classes.
    pub fn wire_total_bytes(&self) -> u64 {
        self.wire_bytes.iter().map(|(_, b)| *b).sum()
    }
}

/// A completed run's telemetry: metadata, counters, job phases, task
/// spans, per-node timelines, traffic/placement aggregates, histograms.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Report-level `(key, value)` metadata in insertion order.
    pub meta: Vec<(String, String)>,
    /// Run wall time, µs: from the first job phase's start to the report
    /// (from the telemetry epoch when no phase was opened).
    pub wall_time_us: u64,
    /// Named counters (merged in by the caller; e.g. engine counters).
    pub counters: Vec<(String, u64)>,
    /// Job-level phase windows in recorded order.
    pub job_phases: Vec<JobPhase>,
    /// Completed task attempts, sorted by (job, kind, task, attempt).
    pub task_spans: Vec<TaskSpan>,
    /// Per-node busy/idle timelines, ascending by node.
    pub node_timelines: Vec<NodeTimeline>,
    /// Directed per-link traffic `(src, dst, stats)`, ascending.
    pub transfers: Vec<(u32, u32, LinkStats)>,
    /// Per-node DFS placement `(node, stats)`, ascending.
    pub placements: Vec<(u32, PlacementStats)>,
    /// Named histograms, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Discrete run events (crashes, recoveries, speculation, cancelled
    /// attempts, lost workers) in recorded order.
    pub events: Vec<RunEvent>,
    /// Per-operation samples (transfers, placements, worker RPCs) in
    /// `seq` (total) order.
    pub trace: Vec<TraceEvent>,
    /// Trace samples evicted from the bounded ring before this snapshot.
    pub trace_dropped: u64,
    /// Physical-transport section (worker table + wire byte classes);
    /// `None` for in-process runs.
    pub transport: Option<TransportReport>,
    /// Candidate-pruning section; `None` for unfiltered runs.
    pub pruning: Option<PruningReport>,
}

impl RunReport {
    /// Finishes a report built from sink contents (as
    /// [`crate::Telemetry::report`] does): sorts the spans and derives the
    /// node timelines from them.
    pub fn assemble(mut self) -> RunReport {
        self.task_spans.sort_by(|a, b| {
            (&a.job, a.kind, a.task, a.attempt).cmp(&(&b.job, b.kind, b.task, b.attempt))
        });
        self.node_timelines = derive_timelines(&self.task_spans, self.wall_time_us);
        self
    }

    /// Merges counters (sorted by name for deterministic output). Existing
    /// entries with the same name are summed.
    pub fn merge_counters<'a>(&mut self, counters: impl IntoIterator<Item = (&'a str, u64)>) {
        for (name, value) in counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 += value,
                None => self.counters.push((name.to_string(), value)),
            }
        }
        self.counters.sort();
    }

    /// Value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The longest task attempt — the straggler (None if no spans).
    pub fn straggler(&self) -> Option<&TaskSpan> {
        self.task_spans.iter().max_by_key(|s| s.end_us.saturating_sub(s.start_us))
    }

    /// Summed wall time of a job's phase windows (µs). A job's phases are
    /// consecutive links of the run's phase chain, so this equals the
    /// job's window.
    pub fn job_phase_total_us(&self, job: &str) -> u64 {
        self.job_phases
            .iter()
            .filter(|p| p.job == job)
            .map(|p| p.end_us.saturating_sub(p.start_us))
            .sum()
    }

    /// Serializes the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.str_field("schema", "pmr.run_report/10");
        w.u64_field("wall_time_us", self.wall_time_us);

        w.begin_object_key("meta");
        for (k, v) in &self.meta {
            w.str_field(k, v);
        }
        w.end_object();

        w.begin_object_key("counters");
        for (k, v) in &self.counters {
            w.u64_field(k, *v);
        }
        w.end_object();

        if let Some(t) = &self.transport {
            w.begin_object_key("transport");
            w.str_field("name", &t.name);
            w.u64_field("wire_frames", t.wire_frames);
            w.begin_object_key("wire_bytes");
            for (class, bytes) in &t.wire_bytes {
                w.u64_field(class, *bytes);
            }
            w.end_object();
            w.begin_array_key("workers");
            for worker in &t.workers {
                w.begin_object();
                w.u64_field("node", worker.node as u64);
                w.u64_field("pid", worker.pid as u64);
                w.bool_field("alive", worker.alive);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }

        if let Some(p) = &self.pruning {
            w.begin_object_key("pruning");
            w.str_field("pruner", &p.pruner);
            w.bool_field("exact", p.exact);
            w.u64_field("candidates", p.candidates);
            w.u64_field("pruned", p.pruned);
            w.u64_field("evaluated", p.evaluated);
            w.end_object();
        }

        w.begin_array_key("job_phases");
        for p in &self.job_phases {
            w.begin_object();
            w.str_field("job", &p.job);
            w.str_field("phase", &p.phase);
            w.u64_field("start_us", p.start_us);
            w.u64_field("end_us", p.end_us);
            w.begin_object_key("bytes");
            w.u64_field("charged", p.bytes_charged);
            w.u64_field("moved", p.bytes_moved);
            w.end_object();
            w.end_object();
        }
        w.end_array();

        w.begin_array_key("task_spans");
        for s in &self.task_spans {
            w.begin_object();
            w.str_field("job", &s.job);
            w.str_field("kind", s.kind);
            w.u64_field("task", s.task as u64);
            w.u64_field("attempt", s.attempt as u64);
            w.u64_field("node", s.node as u64);
            w.u64_field("start_us", s.start_us);
            w.u64_field("end_us", s.end_us);
            w.begin_object_key("phases");
            for (name, us) in &s.phases {
                w.u64_field(name, *us);
            }
            w.end_object();
            w.u64_field("bytes_in", s.bytes_in);
            w.u64_field("bytes_out", s.bytes_out);
            w.u64_field("records_in", s.records_in);
            w.u64_field("records_out", s.records_out);
            w.u64_field("peak_working_set_bytes", s.peak_working_set_bytes);
            w.begin_object_key("labels");
            for (k, v) in &s.labels {
                w.str_field(k, v);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();

        w.begin_array_key("node_timelines");
        for n in &self.node_timelines {
            w.begin_object();
            w.u64_field("node", n.node as u64);
            w.u64_field("tasks", n.tasks);
            w.u64_field("busy_us", n.busy_us);
            w.u64_field("idle_us", n.idle_us);
            w.begin_array_key("busy_intervals");
            for (start, end) in &n.busy_intervals {
                w.begin_object();
                w.u64_field("start_us", *start);
                w.u64_field("end_us", *end);
                w.end_object();
            }
            w.end_array();
            w.u64_field("memory_high_water_bytes", n.memory_high_water_bytes);
            w.end_object();
        }
        w.end_array();

        w.begin_array_key("transfers");
        for (src, dst, l) in &self.transfers {
            w.begin_object();
            w.u64_field("src", *src as u64);
            w.u64_field("dst", *dst as u64);
            w.u64_field("bytes", l.bytes);
            w.u64_field("events", l.events);
            w.u64_field("sim_us", l.sim_us);
            w.end_object();
        }
        w.end_array();

        w.begin_array_key("placements");
        for (node, p) in &self.placements {
            w.begin_object();
            w.u64_field("node", *node as u64);
            w.u64_field("blocks", p.blocks);
            w.u64_field("bytes", p.bytes);
            w.end_object();
        }
        w.end_array();

        w.begin_array_key("events");
        for e in &self.events {
            w.begin_object();
            w.u64_field("at_us", e.at_us);
            w.str_field("kind", e.kind);
            if e.node != trace::NONE {
                w.u64_field("node", e.node as u64);
            }
            if e.dur_us != 0 {
                w.u64_field("dur_us", e.dur_us);
            }
            w.str_field("detail", &e.detail);
            w.end_object();
        }
        w.end_array();

        w.begin_object_key("trace");
        w.u64_field("dropped", self.trace_dropped);
        w.begin_array_key("events");
        for e in &self.trace {
            w.begin_object();
            w.u64_field("seq", e.seq);
            w.u64_field("at_us", e.at_us);
            w.str_field("kind", e.kind);
            if e.node != trace::NONE {
                w.u64_field("node", e.node as u64);
            }
            if e.peer != trace::NONE {
                w.u64_field("peer", e.peer as u64);
            }
            if !e.phase.is_empty() {
                w.str_field("phase", &e.phase);
            }
            if e.bytes != 0 {
                w.u64_field("bytes", e.bytes);
            }
            if e.dur_us != 0 {
                w.u64_field("dur_us", e.dur_us);
            }
            if e.sim_us != 0 {
                w.u64_field("sim_us", e.sim_us);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();

        w.begin_array_key("histograms");
        for (name, h) in &self.histograms {
            w.begin_object();
            w.str_field("name", name);
            w.u64_field("count", h.count);
            w.u64_field("sum", h.sum);
            w.u64_field("min", h.min);
            w.u64_field("max", h.max);
            w.f64_field("mean", h.mean());
            w.u64_field("p50", h.quantile(0.50));
            w.u64_field("p90", h.quantile(0.90));
            w.u64_field("p99", h.quantile(0.99));
            w.begin_array_key("buckets");
            for b in &h.buckets {
                w.begin_object();
                w.u64_field("lo", b.lo);
                w.u64_field("hi", b.hi);
                w.u64_field("count", b.count);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();

        w.end_object();
        w.finish()
    }

    /// Writes the JSON serialization to `path` (with a trailing newline),
    /// creating missing parent directories.
    pub fn write_json_file(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut text = self.to_json();
        text.push('\n');
        std::fs::write(path, text)
    }
}

/// Merges each node's span windows into busy intervals and totals.
fn derive_timelines(spans: &[TaskSpan], wall_time_us: u64) -> Vec<NodeTimeline> {
    let mut per_node: std::collections::BTreeMap<u32, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    let mut high_water: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for s in spans {
        per_node.entry(s.node).or_default().push((s.start_us, s.end_us.max(s.start_us)));
        let hw = high_water.entry(s.node).or_default();
        *hw = (*hw).max(s.peak_working_set_bytes);
    }
    per_node
        .into_iter()
        .map(|(node, mut windows)| {
            let tasks = windows.len() as u64;
            windows.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (start, end) in windows {
                match merged.last_mut() {
                    Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
                    _ => merged.push((start, end)),
                }
            }
            let busy_us: u64 = merged.iter().map(|(s, e)| e - s).sum();
            NodeTimeline {
                node,
                tasks,
                busy_us,
                idle_us: wall_time_us.saturating_sub(busy_us),
                busy_intervals: merged,
                memory_high_water_bytes: high_water.get(&node).copied().unwrap_or(0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(node: u32, task: u32, start: u64, end: u64, ws: u64) -> TaskSpan {
        TaskSpan {
            job: "j".into(),
            kind: "map",
            task,
            node,
            start_us: start,
            end_us: end,
            peak_working_set_bytes: ws,
            ..TaskSpan::default()
        }
    }

    #[test]
    fn timelines_merge_overlaps() {
        let spans = vec![span(0, 0, 0, 10, 100), span(0, 1, 5, 20, 300), span(1, 2, 30, 40, 50)];
        let tl = derive_timelines(&spans, 50);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].busy_intervals, vec![(0, 20)]);
        assert_eq!(tl[0].busy_us, 20);
        assert_eq!(tl[0].idle_us, 30);
        assert_eq!(tl[0].tasks, 2);
        assert_eq!(tl[0].memory_high_water_bytes, 300);
        assert_eq!(tl[1].busy_intervals, vec![(30, 40)]);
    }

    #[test]
    fn straggler_is_longest_span() {
        let spans = vec![span(0, 0, 0, 10, 0), span(1, 1, 10, 90, 0), span(0, 2, 20, 30, 0)];
        let r =
            RunReport { wall_time_us: 100, task_spans: spans, ..RunReport::default() }.assemble();
        assert_eq!(r.straggler().unwrap().task, 1);
    }

    #[test]
    fn counters_merge_and_sort() {
        let mut r = RunReport::default();
        r.merge_counters([("b", 2), ("a", 1)]);
        r.merge_counters([("b", 3)]);
        assert_eq!(r.counters, vec![("a".to_string(), 1), ("b".to_string(), 5)]);
        assert_eq!(r.counter("b"), Some(5));
        assert_eq!(r.counter("zz"), None);
    }

    fn phase(job: &str, name: &str, start_us: u64, end_us: u64) -> JobPhase {
        JobPhase { job: job.into(), phase: name.into(), start_us, end_us, ..JobPhase::default() }
    }

    #[test]
    fn phase_totals_per_job() {
        let r = RunReport {
            job_phases: vec![
                phase("j1", "map", 0, 60),
                phase("j1", "reduce", 60, 100),
                phase("j2", "map", 100, 110),
            ],
            ..RunReport::default()
        };
        assert_eq!(r.job_phase_total_us("j1"), 100);
        assert_eq!(r.job_phase_total_us("j2"), 10);
    }

    #[test]
    fn json_has_schema_and_sections() {
        let mut r = RunReport::default();
        r.meta.push(("scheme".into(), "design(q=7)".into()));
        r.merge_counters([("mr.shuffle.bytes", 42)]);
        r.events.push(RunEvent {
            at_us: 5,
            kind: "node.crash",
            node: trace::NONE,
            dur_us: 0,
            detail: "node_0 crashed".into(),
        });
        r.trace.push(TraceEvent { seq: 0, at_us: 5, kind: "placement", ..TraceEvent::default() });
        let json = r.to_json();
        for needle in [
            "\"schema\": \"pmr.run_report/10\"",
            "\"events\"",
            "\"kind\": \"node.crash\"",
            "\"meta\"",
            "\"counters\"",
            "\"job_phases\"",
            "\"task_spans\"",
            "\"node_timelines\"",
            "\"transfers\"",
            "\"placements\"",
            "\"histograms\"",
            "\"trace\"",
            "\"dropped\": 0",
            "\"seq\": 0",
            "\"mr.shuffle.bytes\": 42",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Sentinel node fields are omitted from events and trace samples.
        assert!(!json.contains("\"node\": 4294967295"));
    }

    #[test]
    fn write_json_file_creates_missing_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("pmr-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/deeper/report.json");
        let r = RunReport::default();
        r.write_json_file(path.to_str().unwrap()).expect("parents should be created");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("pmr.run_report/10"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transport_section_is_optional_and_serializes() {
        let plain = RunReport::default().to_json();
        assert!(!plain.contains("\"transport\""), "in-process reports omit the section");

        let r = RunReport {
            transport: Some(TransportReport {
                name: "process".into(),
                workers: vec![
                    WorkerProc { node: 0, pid: 4242, alive: true },
                    WorkerProc { node: 1, pid: 4243, alive: false },
                ],
                wire_bytes: vec![("shuffle".into(), 512), ("dfs".into(), 64)],
                wire_frames: 12,
            }),
            ..RunReport::default()
        };
        let json = r.to_json();
        for needle in [
            "\"transport\"",
            "\"name\": \"process\"",
            "\"wire_frames\": 12",
            "\"shuffle\": 512",
            "\"pid\": 4242",
            "\"alive\": true",
            "\"alive\": false",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let t = r.transport.as_ref().unwrap();
        assert_eq!(t.wire_class("shuffle"), Some(512));
        assert_eq!(t.wire_class("cache"), None);
        assert_eq!(t.wire_total_bytes(), 576);
    }

    #[test]
    fn pruning_section_is_optional_and_serializes() {
        let plain = RunReport::default().to_json();
        assert!(!plain.contains("\"pruning\""), "unfiltered reports omit the section");

        let r = RunReport {
            pruning: Some(PruningReport {
                pruner: "prefix".into(),
                exact: true,
                candidates: 1000,
                pruned: 900,
                evaluated: 100,
            }),
            ..RunReport::default()
        };
        let json = r.to_json();
        for needle in [
            "\"pruning\"",
            "\"pruner\": \"prefix\"",
            "\"exact\": true",
            "\"candidates\": 1000",
            "\"pruned\": 900",
            "\"evaluated\": 100",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
