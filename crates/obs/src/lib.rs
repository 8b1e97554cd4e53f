//! # pmr-obs — run-report observability layer
//!
//! A lock-cheap structured telemetry subsystem threaded through the whole
//! stack:
//!
//! * [`Telemetry`] — a cheap-clone handle over a shared event sink. A
//!   *disabled* handle is a `None`: every recording call returns
//!   immediately without allocating, so instrumentation can stay in the
//!   hot paths unconditionally.
//! * [`Span`] — one task attempt: id, node, attempt, phase-by-phase wall
//!   timings, bytes/records in and out, peak working set. Accumulates
//!   locally; one mutex hold on drop.
//! * Job-level [`telemetry::JobPhase`] windows: the sink holds the run's
//!   one open phase, and [`Telemetry::job_phase`] hands over to the next
//!   at a single clock reading, so a run's phases tile its wall time;
//!   [`Telemetry::close_phase`] ends the chain of a run that fails.
//! * [`Histogram`] — log2-bucketed distributions (shuffle bytes per
//!   partition, group sizes per reduce key, evaluations per task).
//! * [`RunReport`] — the assembled picture (plus derived per-node
//!   busy/idle timelines and memory high-water marks), serializable to
//!   JSON via a hand-rolled writer ([`json`]) with zero dependencies.
//! * [`RunEvent`] — discrete events (crash, recovery, speculation, a
//!   cancelled attempt, a lost worker), each on its node with its
//!   duration.
//! * [`trace`] — a totally-ordered stream of per-operation samples
//!   (transfers, placements, and on distributed runs each worker RPC,
//!   timed by the coordinator over its round trip) in a bounded ring.
//!   Spans, phases, events and samples feed the [`analyze`] layer
//!   (critical path, skew/straggler diagnosis, run diffs) and the
//!   [`export`] layer (Chrome-trace JSON, text summaries).
//! * [`live`] — a sampling reporter thread emitting periodic JSONL
//!   progress records (`pmr.live/1`) for `--live` run monitoring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod histogram;
pub mod json;
pub mod jsonparse;
pub mod live;
pub mod report;
pub mod telemetry;
pub mod trace;

pub use analyze::{CriticalPath, CriticalPathSegment, NodeUtilization, SkewReport, TraceDiff};
pub use histogram::{Histogram, HistogramBucket, HistogramSnapshot};
pub use json::JsonWriter;
pub use jsonparse::JsonValue;
pub use live::{LiveMonitor, LiveSink, LiveTransportSample, LiveWorker, TransportProbe};
pub use report::{NodeTimeline, PruningReport, RunReport, TransportReport, WorkerProc};
pub use telemetry::{
    JobPhase, LinkStats, PlacementStats, Progress, RunEvent, Span, SpanKind, TaskSpan, Telemetry,
};
pub use trace::{TraceEvent, TraceRing};

/// Well-known histogram names recorded by the engine and runners.
pub mod hist {
    /// Shuffle bytes fetched per reduce partition (one observation per
    /// reduce task).
    pub const SHUFFLE_BYTES_PER_PARTITION: &str = "shuffle.bytes_per_partition";
    /// Records per reduce key group (one observation per group).
    pub const GROUP_SIZE: &str = "reduce.group_size";
    /// Pairwise evaluations per task (one observation per evaluating
    /// task).
    pub const EVALUATIONS_PER_TASK: &str = "pairwise.evaluations_per_task";
}
