//! The structured event sink and its cheap-clone handle.
//!
//! [`Telemetry`] is an `Option<Arc<…>>` wrapper: a disabled handle is a
//! `None` that every recording method checks before doing *anything* —
//! no formatting, no allocation, no locking — so instrumented code can be
//! left in place unconditionally. An enabled handle points at a shared
//! sink; a task's events accumulate locally in its [`Span`] and are pushed
//! under one short mutex hold when the span drops, keeping the hot path
//! lock-cheap.
//!
//! Each fact has one home in the sink: a task attempt is a [`TaskSpan`],
//! a job-level window a [`JobPhase`], a discrete occurrence (a crash, a
//! re-run, a cancelled attempt, a lost worker) a [`RunEvent`], and a
//! per-operation sample (a transfer, a placement, a worker RPC) a
//! [`TraceEvent`] in the bounded [`TraceRing`].
//!
//! The sink keeps the run's one clock. It holds the run's single open job
//! phase: [`Telemetry::job_phase`] closes it and opens the next at one
//! clock reading, and [`Telemetry::report`] closes the last one at the
//! reading it takes for `wall_time_us`. The wall runs from the first
//! phase's start to that reading, so the phases tile it with no gap.
//! [`Telemetry::begin_run`] drops what earlier runs recorded, so a sink
//! that serves several runs reports each one alone.
//!
//! All timestamps are microseconds since the sink's creation (its
//! *epoch*), so times of spans, phases, and the final report share one
//! axis.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::histogram::Histogram;
use crate::report::RunReport;
use crate::trace::{self, TraceEvent, TraceRing};

/// What kind of work a task span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// A map task attempt.
    Map,
    /// A reduce task attempt.
    Reduce,
    /// A generic task (local/sequential backends).
    Task,
}

impl SpanKind {
    /// Stable lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Map => "map",
            SpanKind::Reduce => "reduce",
            SpanKind::Task => "task",
        }
    }
}

/// One completed task attempt: identity, wall-clock window, per-phase
/// timings, byte/record flows, and peak working set.
#[derive(Debug, Clone, Default)]
pub struct TaskSpan {
    /// Job the task belongs to.
    pub job: String,
    /// Task kind ("map" / "reduce" / "task").
    pub kind: &'static str,
    /// Task index within the job and kind.
    pub task: u32,
    /// Attempt number (0 = first).
    pub attempt: u32,
    /// Node the attempt ran on.
    pub node: u32,
    /// Start, µs since the telemetry epoch.
    pub start_us: u64,
    /// End, µs since the telemetry epoch.
    pub end_us: u64,
    /// `(phase name, wall µs)` in execution order; phases tile the span.
    pub phases: Vec<(&'static str, u64)>,
    /// Bytes read by the task (input + shuffle).
    pub bytes_in: u64,
    /// Bytes written by the task (map output / reduce output).
    pub bytes_out: u64,
    /// Records read.
    pub records_in: u64,
    /// Records written.
    pub records_out: u64,
    /// Peak working-set bytes reserved while the task ran.
    pub peak_working_set_bytes: u64,
    /// Free-form `(key, value)` labels (scheme metadata etc.).
    pub labels: Vec<(String, String)>,
}

/// One job-level phase window. A run's phases form one chain (see
/// [`Telemetry::job_phase`]), so they tile the run's wall time.
///
/// The two byte series carry the paper's charged-vs-moved distinction:
/// `bytes_charged` is the communication cost the paper's model bills for
/// the phase (replicated payload bytes included), `bytes_moved` is what
/// physically crossed between stores (ids only on the payload-free shuffle
/// path). Both are zero for phases that move no accounted data.
#[derive(Debug, Clone, Default)]
pub struct JobPhase {
    /// Job name.
    pub job: String,
    /// Phase name ("setup" / "map" / "reduce" / "finalize" …).
    pub phase: String,
    /// Start, µs since the telemetry epoch.
    pub start_us: u64,
    /// End, µs since the telemetry epoch.
    pub end_us: u64,
    /// Bytes charged to this phase under the paper's cost model.
    pub bytes_charged: u64,
    /// Bytes physically moved during this phase.
    pub bytes_moved: u64,
}

/// One discrete run event (node crash, map re-run, speculative launch,
/// cancelled attempt, lost worker…), timestamped on the shared telemetry
/// axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEvent {
    /// When the event happened, µs since the telemetry epoch.
    pub at_us: u64,
    /// Stable event kind ("node.crash", "map.rerun", "dfs.rereplicate",
    /// "speculative.launch", "speculative.win", "part.consume",
    /// [`RunEvent::TASK_CANCEL`], [`RunEvent::WORKER_LOST`]).
    pub kind: &'static str,
    /// The node the event happened on, [`trace::NONE`] for the driver.
    pub node: u32,
    /// Wall time of the work the event stands for (a map re-run, a part
    /// merge, a cancelled attempt), µs; 0 for an instant.
    pub dur_us: u64,
    /// Human-readable detail.
    pub detail: String,
}

impl RunEvent {
    /// A task attempt was discarded: it failed or lost its commit race.
    pub const TASK_CANCEL: &'static str = "task.cancel";
    /// The coordinator killed a worker process or first failed an RPC to
    /// it.
    pub const WORKER_LOST: &'static str = "worker.lost";
}

/// Point-in-time progress sample returned by [`Telemetry::progress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Sample time, µs since the telemetry epoch (0 when disabled).
    pub at_us: u64,
    /// Task spans committed so far.
    pub tasks_committed: u64,
    /// Total pairwise evaluations observed so far.
    pub evaluations: u64,
    /// Trace samples recorded so far (retained + evicted).
    pub trace_events: u64,
}

/// Aggregated traffic over one directed node pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Total bytes moved.
    pub bytes: u64,
    /// Number of transfers.
    pub events: u64,
    /// Summed simulated transfer time, µs.
    pub sim_us: u64,
}

/// Aggregated DFS block placement on one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Block replicas placed.
    pub blocks: u64,
    /// Bytes placed.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct SinkState {
    meta: Vec<(String, String)>,
    job_phases: Vec<JobPhase>,
    /// The run's one open phase (`end_us` not yet set).
    open_phase: Option<JobPhase>,
    spans: Vec<TaskSpan>,
    transfers: BTreeMap<(u32, u32), LinkStats>,
    placements: BTreeMap<u32, PlacementStats>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<RunEvent>,
    trace: TraceRing,
}

#[derive(Debug)]
struct Sink {
    epoch: Instant,
    state: Mutex<SinkState>,
}

impl Sink {
    fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Microseconds since the epoch.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl SinkState {
    fn record_value(&mut self, histogram: &str, value: u64) {
        match self.histograms.get_mut(histogram) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                self.histograms.insert(histogram.to_string(), h);
            }
        }
    }

    /// Records the open phase, if any, as ending at `end_us`.
    fn close_phase(&mut self, end_us: u64) {
        if let Some(mut phase) = self.open_phase.take() {
            phase.end_us = end_us;
            self.job_phases.push(phase);
        }
    }
}

/// Cheap-clone telemetry handle; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Arc<Sink>>);

impl Telemetry {
    /// A no-op handle: every recording method returns immediately without
    /// allocating.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// A recording handle with a fresh sink; "now" becomes the epoch.
    pub fn enabled() -> Telemetry {
        Telemetry(Some(Arc::new(Sink { epoch: Instant::now(), state: Mutex::default() })))
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the sink's epoch (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |sink| sink.now_us())
    }

    /// Sets a report-level metadata entry (scheme name, parameters, …).
    /// Last write wins for a repeated key.
    pub fn set_meta(&self, key: &str, value: impl Display) {
        if let Some(sink) = &self.0 {
            let rendered = value.to_string();
            let mut st = sink.lock();
            if let Some(slot) = st.meta.iter_mut().find(|(k, _)| k == key) {
                slot.1 = rendered;
            } else {
                st.meta.push((key.to_string(), rendered));
            }
        }
    }

    /// Starts a run on this sink: drops everything recorded so far —
    /// phases, spans, traffic, placements, histograms, events, the trace
    /// and meta — so the next [`Telemetry::report`] covers this run only.
    /// The epoch stays, so every run shares the sink's time axis.
    pub fn begin_run(&self) {
        if let Some(sink) = &self.0 {
            *sink.lock() = SinkState::default();
        }
    }

    /// Closes the run's open phase and opens `job`'s `phase` at the same
    /// clock reading, so consecutive phases tile the run with no gap. The
    /// first call starts the run's wall; the phase stays open until the
    /// next call or [`Telemetry::report`].
    pub fn job_phase(&self, job: &str, phase: &str) {
        if let Some(sink) = &self.0 {
            let mut st = sink.lock();
            let at_us = sink.now_us();
            st.close_phase(at_us);
            st.open_phase = Some(JobPhase {
                job: job.to_string(),
                phase: phase.to_string(),
                start_us: at_us,
                ..JobPhase::default()
            });
        }
    }

    /// Closes the run's open phase now without opening another. A run
    /// that fails ends its phase chain with it.
    pub fn close_phase(&self) {
        if let Some(sink) = &self.0 {
            let mut st = sink.lock();
            let at_us = sink.now_us();
            st.close_phase(at_us);
        }
    }

    /// Adds to the open phase's charged/moved byte totals. Charged bytes
    /// follow the paper's cost model; moved bytes are what physically
    /// crossed between stores.
    pub fn phase_bytes(&self, charged: u64, moved: u64) {
        if let Some(sink) = &self.0 {
            if let Some(phase) = &mut sink.lock().open_phase {
                phase.bytes_charged += charged;
                phase.bytes_moved += moved;
            }
        }
    }

    /// Opens a task span ending (and recording) when the guard drops.
    pub fn span(&self, job: &str, kind: SpanKind, task: u32, attempt: u32, node: u32) -> Span {
        Span(self.0.as_ref().map(|sink| SpanInner {
            sink: Arc::clone(sink),
            data: TaskSpan {
                job: job.to_string(),
                kind: kind.as_str(),
                task,
                attempt,
                node,
                start_us: sink.now_us(),
                ..TaskSpan::default()
            },
            values: Vec::new(),
        }))
    }

    /// Records one network transfer (aggregated per directed link).
    pub fn transfer(&self, src: u32, dst: u32, bytes: u64, sim_us: u64) {
        if let Some(sink) = &self.0 {
            let at_us = sink.now_us();
            let mut st = sink.lock();
            let link = st.transfers.entry((src, dst)).or_default();
            link.bytes += bytes;
            link.events += 1;
            link.sim_us += sim_us;
            st.trace.push(TraceEvent {
                at_us,
                kind: trace::kind::TRANSFER,
                node: dst,
                peer: src,
                bytes,
                sim_us,
                ..TraceEvent::default()
            });
        }
    }

    /// Records a discrete run event (crash, recovery, speculation)
    /// timestamped now, on `node` ([`trace::NONE`] for the driver). Work
    /// that took measurable wall time, like a map re-run, carries it in
    /// `dur_us`.
    pub fn event(&self, kind: &'static str, node: u32, dur_us: u64, detail: String) {
        if let Some(sink) = &self.0 {
            let at_us = sink.now_us();
            sink.lock().events.push(RunEvent { at_us, kind, node, dur_us, detail });
        }
    }

    /// Records one DFS block replica placed on `node`.
    pub fn placement(&self, node: u32, bytes: u64) {
        if let Some(sink) = &self.0 {
            let at_us = sink.now_us();
            let mut st = sink.lock();
            let p = st.placements.entry(node).or_default();
            p.blocks += 1;
            p.bytes += bytes;
            st.trace.push(TraceEvent {
                at_us,
                kind: trace::kind::PLACEMENT,
                node,
                bytes,
                ..TraceEvent::default()
            });
        }
    }

    /// Records one RPC the coordinator issued to `node`'s worker process:
    /// a `kind` sample (one of the `worker.*` kinds in [`trace::kind`]) of
    /// wire class `class` carrying `bytes`, started at `start_us` (a
    /// [`Telemetry::now_us`] reading) and timed to now.
    pub fn worker_op(&self, kind: &'static str, node: u32, class: &str, bytes: u64, start_us: u64) {
        if let Some(sink) = &self.0 {
            let dur_us = sink.now_us().saturating_sub(start_us);
            sink.lock().trace.push(TraceEvent {
                at_us: start_us,
                kind,
                node,
                phase: class.to_string(),
                bytes,
                dur_us,
                ..TraceEvent::default()
            });
        }
    }

    /// A cheap point-in-time progress sample for live monitoring: task
    /// spans committed, total pairwise evaluations observed, and trace
    /// sample volume. All zero (without locking) when disabled.
    pub fn progress(&self) -> Progress {
        match &self.0 {
            None => Progress::default(),
            Some(sink) => {
                let at_us = sink.now_us();
                let st = sink.lock();
                Progress {
                    at_us,
                    tasks_committed: st.spans.len() as u64,
                    evaluations: st
                        .histograms
                        .get(crate::hist::EVALUATIONS_PER_TASK)
                        .map_or(0, |h| h.sum()),
                    trace_events: st.trace.len() as u64 + st.trace.dropped(),
                }
            }
        }
    }

    /// Closes the open phase and snapshots everything recorded so far into
    /// a [`RunReport`]. `wall_time_us` runs from the first phase's start
    /// (the epoch when no phase was opened) to the reading that closes the
    /// last phase; node timelines are derived from the spans.
    pub fn report(&self) -> RunReport {
        let Some(sink) = &self.0 else {
            return RunReport::default();
        };
        let mut st = sink.lock();
        let now = sink.now_us();
        st.close_phase(now);
        RunReport {
            meta: st.meta.clone(),
            wall_time_us: now - st.job_phases.first().map_or(0, |p| p.start_us),
            job_phases: st.job_phases.clone(),
            task_spans: st.spans.clone(),
            transfers: st.transfers.iter().map(|(&(s, d), &l)| (s, d, l)).collect(),
            placements: st.placements.iter().map(|(&n, &p)| (n, p)).collect(),
            histograms: st.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
            events: st.events.clone(),
            trace: st.trace.snapshot(),
            trace_dropped: st.trace.dropped(),
            ..RunReport::default()
        }
        .assemble()
    }
}

struct SpanInner {
    sink: Arc<Sink>,
    data: TaskSpan,
    /// Histogram observations held back until the span commits.
    values: Vec<(&'static str, u64)>,
}

/// Guard of one task attempt; accumulates locally, records on drop. The
/// default span is disabled and records nothing.
#[derive(Default)]
pub struct Span(Option<SpanInner>);

impl Span {
    /// Records the phase ending now: its wall time is the elapsed time of
    /// `since`, which is then reset so consecutive laps tile the span.
    pub fn lap(&mut self, phase: &'static str, since: &mut Instant) {
        let now = Instant::now();
        if let Some(inner) = &mut self.0 {
            inner.data.phases.push((phase, now.duration_since(*since).as_micros() as u64));
        }
        *since = now;
    }

    /// Adds bytes read by the task.
    pub fn add_bytes_in(&mut self, bytes: u64) {
        if let Some(inner) = &mut self.0 {
            inner.data.bytes_in += bytes;
        }
    }

    /// Adds bytes written by the task.
    pub fn add_bytes_out(&mut self, bytes: u64) {
        if let Some(inner) = &mut self.0 {
            inner.data.bytes_out += bytes;
        }
    }

    /// Adds records read by the task.
    pub fn add_records_in(&mut self, records: u64) {
        if let Some(inner) = &mut self.0 {
            inner.data.records_in += records;
        }
    }

    /// Adds records written by the task.
    pub fn add_records_out(&mut self, records: u64) {
        if let Some(inner) = &mut self.0 {
            inner.data.records_out += records;
        }
    }

    /// Raises the span's peak working set to at least `bytes`.
    pub fn record_peak_working_set(&mut self, bytes: u64) {
        if let Some(inner) = &mut self.0 {
            inner.data.peak_working_set_bytes = inner.data.peak_working_set_bytes.max(bytes);
        }
    }

    /// Attaches a `(key, value)` label (scheme name, h, q, block id, …).
    pub fn label(&mut self, key: &str, value: impl Display) {
        if let Some(inner) = &mut self.0 {
            inner.data.labels.push((key.to_string(), value.to_string()));
        }
    }

    /// Records one observation into the named histogram when the span
    /// commits, so a histogram counts each task once however many
    /// attempts ran.
    pub fn record_value(&mut self, histogram: &'static str, value: u64) {
        if let Some(inner) = &mut self.0 {
            inner.values.push((histogram, value));
        }
    }

    /// Discards the span: no [`TaskSpan`] is recorded on drop. Used for
    /// task attempts that fail or lose a speculative race — their work
    /// never becomes part of the run's accounting, though the cancellation
    /// itself is a [`RunEvent::TASK_CANCEL`] event on the attempt's node.
    pub fn cancel(&mut self) {
        if let Some(inner) = self.0.take() {
            let TaskSpan { job, kind, task, attempt, node, start_us, .. } = inner.data;
            let at_us = inner.sink.now_us();
            inner.sink.lock().events.push(RunEvent {
                at_us,
                kind: RunEvent::TASK_CANCEL,
                node,
                dur_us: at_us.saturating_sub(start_us),
                detail: format!("{job} {kind} {task} attempt {attempt}"),
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut inner) = self.0.take() {
            inner.data.end_us = inner.sink.now_us();
            let mut st = inner.sink.lock();
            st.spans.push(inner.data);
            for (histogram, value) in inner.values {
                st.record_value(histogram, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.set_meta("k", 1);
        t.transfer(0, 1, 100, 5);
        t.placement(0, 64);
        let mut span = t.span("job", SpanKind::Map, 0, 0, 0);
        let mut at = Instant::now();
        span.lap("read", &mut at);
        span.record_value("h", 3);
        span.add_bytes_in(10);
        drop(span);
        t.job_phase("job", "map");
        t.phase_bytes(1, 1);
        let report = t.report();
        assert_eq!(report.wall_time_us, 0);
        assert!(report.task_spans.is_empty() && report.histograms.is_empty());
    }

    #[test]
    fn span_lifecycle_lands_in_report() {
        let t = Telemetry::enabled();
        t.set_meta("scheme", "block(b=5)");
        t.set_meta("scheme", "block(b=6)"); // last write wins
        t.job_phase("j1", "map");
        {
            let mut span = t.span("j1", SpanKind::Map, 3, 0, 1);
            let mut at = Instant::now();
            span.add_records_in(7);
            span.add_bytes_in(128);
            span.lap("read", &mut at);
            span.lap("map", &mut at);
            span.record_peak_working_set(2048);
            span.label("block", 3);
            span.record_value("group.size", 4);
        }
        t.transfer(0, 1, 100, 5);
        t.transfer(0, 1, 50, 2);
        t.placement(1, 64);
        let r = t.report();
        assert_eq!(r.meta, vec![("scheme".to_string(), "block(b=6)".to_string())]);
        assert_eq!(r.task_spans.len(), 1);
        let s = &r.task_spans[0];
        assert_eq!((s.kind, s.task, s.node), ("map", 3, 1));
        assert_eq!(s.phases.len(), 2);
        assert!(s.end_us >= s.start_us);
        assert_eq!(s.records_in, 7);
        assert_eq!(s.peak_working_set_bytes, 2048);
        assert_eq!(s.labels, vec![("block".to_string(), "3".to_string())]);
        assert_eq!(r.job_phases.len(), 1);
        assert_eq!(r.transfers, vec![(0, 1, LinkStats { bytes: 150, events: 2, sim_us: 7 })]);
        assert_eq!(r.placements, vec![(1, PlacementStats { blocks: 1, bytes: 64 })]);
        assert_eq!(r.histograms[0].0, "group.size");
        assert_eq!(r.histograms[0].1.count, 1);
    }

    #[test]
    fn events_are_recorded_in_order() {
        let t = Telemetry::enabled();
        t.event("node.crash", 1, 0, "node_1 crashed".to_string());
        t.event("map.rerun", 0, 250, "map 3 re-run on node_0".to_string());
        let r = t.report();
        assert_eq!(r.events.len(), 2);
        assert_eq!((r.events[1].node, r.events[1].dur_us), (0, 250));
        assert_eq!(r.events[0].kind, "node.crash");
        assert_eq!(r.events[1].kind, "map.rerun");
        assert!(r.events[0].at_us <= r.events[1].at_us);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let t = Telemetry::enabled();
        let mut span = t.span("j", SpanKind::Map, 0, 1, 2);
        span.add_bytes_in(100);
        span.cancel();
        drop(span);
        assert!(t.report().task_spans.is_empty());
    }

    #[test]
    fn trace_holds_only_operation_samples_in_total_order() {
        let t = Telemetry::enabled();
        t.job_phase("j1", "map");
        {
            let mut span = t.span("j1", SpanKind::Map, 3, 0, 1);
            let mut at = Instant::now();
            span.lap("read", &mut at);
        }
        t.transfer(0, 1, 100, 5);
        t.placement(1, 64);
        t.event("map.rerun", 1, 250, "map 3 re-run".to_string());
        let r = t.report();
        // Spans, phases and events each live in their own section only.
        assert_eq!((r.task_spans.len(), r.job_phases.len(), r.events.len()), (1, 1, 1));
        let kinds: Vec<&str> = r.trace.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["transfer", "placement"]);
        for (i, e) in r.trace.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "seq must be dense and ordered");
        }
        assert_eq!(r.trace_dropped, 0);
        let xfer = &r.trace[0];
        assert_eq!((xfer.peer, xfer.node, xfer.bytes, xfer.sim_us), (0, 1, 100, 5));
        let rerun = &r.events[0];
        assert_eq!((rerun.kind, rerun.node, rerun.dur_us), ("map.rerun", 1, 250));
    }

    #[test]
    fn cancelled_span_leaves_a_cancel_trace_event() {
        let t = Telemetry::enabled();
        let mut span = t.span("j", SpanKind::Reduce, 2, 1, 0);
        span.cancel();
        drop(span);
        let r = t.report();
        assert!(r.task_spans.is_empty() && r.trace.is_empty());
        assert_eq!(r.events.len(), 1);
        let cancel = &r.events[0];
        assert_eq!((cancel.kind, cancel.node), (RunEvent::TASK_CANCEL, 0));
        assert_eq!(cancel.detail, "j reduce 2 attempt 1");
    }

    #[test]
    fn worker_events_merge_into_the_trace_in_order() {
        let t = Telemetry::enabled();
        t.event(RunEvent::WORKER_LOST, 2, 0, "worker for node_2 killed".to_string());
        let start = t.now_us();
        t.worker_op(trace::kind::WORKER_PUT, 1, "map_output", 64, start);
        t.transfer(0, 1, 64, 3);
        t.worker_op(trace::kind::WORKER_GET, 1, "shuffle", 32, t.now_us());
        let r = t.report();
        let kinds: Vec<&str> = r.trace.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["worker.put", "transfer", "worker.get"]);
        for (i, e) in r.trace.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "worker ops join the total order");
        }
        let put = &r.trace[0];
        assert_eq!(
            (put.node, put.bytes, put.phase.as_str(), put.at_us),
            (1, 64, "map_output", start)
        );
        assert!(r.trace[2].at_us >= put.at_us + put.dur_us, "one lane's ops do not overlap");
        assert_eq!(r.events.len(), 1, "a lost worker is an event, not a sample");
    }

    #[test]
    fn progress_samples_tasks_and_evaluations() {
        let disabled = Telemetry::disabled();
        assert_eq!(disabled.progress(), Progress::default());

        let t = Telemetry::enabled();
        {
            let mut span = t.span("j", SpanKind::Map, 0, 0, 0);
            span.record_value(crate::hist::EVALUATIONS_PER_TASK, 10);
            span.record_value(crate::hist::EVALUATIONS_PER_TASK, 32);
        }
        let p = t.progress();
        assert_eq!(p.tasks_committed, 1);
        assert_eq!(p.evaluations, 42);
        assert_eq!(p.trace_events, 0, "a span is not a trace sample");
        t.transfer(0, 1, 8, 1);
        assert_eq!(t.progress().trace_events, 1);
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t2.span("j", SpanKind::Task, 0, 0, 0).record_value("h", 1);
        assert_eq!(t.report().histograms[0].1.count, 1);
    }
}
