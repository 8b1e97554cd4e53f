//! Live run monitor: a sampling reporter thread that emits periodic
//! JSONL progress records while a run is in flight.
//!
//! Each record is one line of JSON with schema tag `pmr.live/1`:
//! monotone `seq`, telemetry-epoch timestamp, tasks committed,
//! evaluations (pair computations) with a `pairs_per_s` rate over the
//! last interval, merged trace-event count, and — when a transport
//! probe is installed — per-class wire bytes with `mb_per_s` rates plus
//! per-worker liveness. The final record (written when the monitor is
//! finished or dropped) carries `"done": true` so followers know the
//! run ended rather than stalled.
//!
//! The monitor is deliberately decoupled from the cluster crate: it
//! samples the [`Telemetry`] handle directly and takes the transport
//! view through an opaque [`TransportProbe`] closure supplied by the
//! caller (the CLI builds one over its `Transport` handle).

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::telemetry::Telemetry;

/// Schema tag stamped on every live record.
pub const LIVE_SCHEMA: &str = "pmr.live/1";

/// Where the JSONL stream goes.
#[derive(Debug, Clone)]
pub enum LiveSink {
    /// One record per line on standard error.
    Stderr,
    /// One record per line appended to a file (created/truncated).
    File(PathBuf),
}

/// Liveness of one worker process, as seen by the probe.
#[derive(Debug, Clone)]
pub struct LiveWorker {
    /// Node id the worker serves.
    pub node: u32,
    /// Whether the coordinator still believes the process is alive.
    pub alive: bool,
}

/// Point-in-time transport view returned by a [`TransportProbe`].
#[derive(Debug, Clone, Default)]
pub struct LiveTransportSample {
    /// Total frames moved on the wire so far.
    pub frames: u64,
    /// Cumulative `(class name, bytes)` pairs, in a stable order.
    pub classes: Vec<(&'static str, u64)>,
    /// Per-worker liveness.
    pub workers: Vec<LiveWorker>,
}

/// Closure sampling the transport; called once per reporting interval.
pub type TransportProbe = Box<dyn Fn() -> LiveTransportSample + Send>;

/// Handle to the sampling reporter thread. Stops (and writes the final
/// `done` record) on [`LiveMonitor::finish`] or drop.
pub struct LiveMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LiveMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveMonitor").field("stopped", &self.stop.load(Ordering::Relaxed)).finish()
    }
}

/// Formats one record as a single JSON line.
fn render_record(
    seq: u64,
    t_us: u64,
    progress: crate::telemetry::Progress,
    pairs_per_s: f64,
    transport: Option<&LiveTransportSample>,
    rates: &[(&'static str, f64)],
    done: bool,
) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"schema\": \"{LIVE_SCHEMA}\", \"seq\": {seq}, \"t_us\": {t_us}, \
         \"tasks\": {}, \"evaluations\": {}, \"pairs_per_s\": {:.1}, \"trace_events\": {}",
        progress.tasks_committed, progress.evaluations, pairs_per_s, progress.trace_events,
    );
    if let Some(t) = transport {
        let _ = write!(line, ", \"wire_frames\": {}", t.frames);
        line.push_str(", \"wire_bytes\": {");
        for (i, (class, bytes)) in t.classes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{class}\": {bytes}");
        }
        line.push_str("}, \"wire_mb_per_s\": {");
        for (i, (class, rate)) in rates.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{class}\": {rate:.3}");
        }
        line.push_str("}, \"workers\": [");
        for (i, w) in t.workers.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}{{\"node\": {}, \"alive\": {}}}", w.node, w.alive);
        }
        line.push(']');
    }
    let _ = write!(line, ", \"done\": {done}}}");
    line
}

impl LiveMonitor {
    /// Spawns the reporter thread. `interval` is the sampling period;
    /// `probe`, when present, contributes the wire/worker fields.
    pub fn start(
        telemetry: &Telemetry,
        sink: LiveSink,
        interval: Duration,
        probe: Option<TransportProbe>,
    ) -> std::io::Result<LiveMonitor> {
        let mut out: Box<dyn std::io::Write + Send> = match &sink {
            LiveSink::Stderr => Box::new(std::io::stderr()),
            LiveSink::File(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Box::new(std::fs::File::create(path)?)
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let telemetry = telemetry.clone();
        let handle = std::thread::Builder::new().name("pmr-live".to_string()).spawn(move || {
            let started = Instant::now();
            let mut seq = 0u64;
            let mut last_wall = started;
            let mut last_evals = 0u64;
            let mut last_bytes: Vec<(&'static str, u64)> = Vec::new();
            loop {
                let done = stop_flag.load(Ordering::Acquire);
                let now = Instant::now();
                let dt_s = now.duration_since(last_wall).as_secs_f64().max(1e-9);
                let progress = telemetry.progress();
                let t_us = if progress.at_us > 0 {
                    progress.at_us
                } else {
                    started.elapsed().as_micros() as u64
                };
                let pairs_per_s = progress.evaluations.saturating_sub(last_evals) as f64 / dt_s;
                let sample = probe.as_ref().map(|p| p());
                let mut rates: Vec<(&'static str, f64)> = Vec::new();
                if let Some(s) = &sample {
                    for (class, bytes) in &s.classes {
                        let prev = last_bytes
                            .iter()
                            .find(|(c, _)| c == class)
                            .map(|(_, b)| *b)
                            .unwrap_or(0);
                        let mb = bytes.saturating_sub(prev) as f64 / 1e6;
                        rates.push((class, mb / dt_s));
                    }
                    last_bytes = s.classes.clone();
                }
                last_evals = progress.evaluations;
                last_wall = now;
                let line =
                    render_record(seq, t_us, progress, pairs_per_s, sample.as_ref(), &rates, done);
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
                seq += 1;
                if done {
                    return;
                }
                // Sleep in short slices so finish() is prompt.
                let deadline = now + interval;
                while Instant::now() < deadline {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10).min(interval));
                }
            }
        })?;
        Ok(LiveMonitor { stop, handle: Some(handle) })
    }

    /// Stops the reporter, writing the final `"done": true` record.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonparse::JsonValue;

    #[test]
    fn live_records_are_one_json_object_per_line_ending_done() {
        let dir = std::env::temp_dir().join(format!("pmr-live-{}", std::process::id()));
        let path = dir.join("live.jsonl");
        let t = Telemetry::enabled();
        {
            let mut span = t.span("j", crate::SpanKind::Map, 0, 0, 0);
            let mut at = std::time::Instant::now();
            span.add_records_in(3);
            span.lap("map", &mut at);
            span.record_value(crate::hist::EVALUATIONS_PER_TASK, 50);
        }
        let probe: TransportProbe = Box::new(|| LiveTransportSample {
            frames: 4,
            classes: vec![("shuffle", 1000), ("map_output", 500)],
            workers: vec![
                LiveWorker { node: 0, alive: true },
                LiveWorker { node: 1, alive: false },
            ],
        });
        let monitor = LiveMonitor::start(
            &t,
            LiveSink::File(path.clone()),
            Duration::from_millis(20),
            Some(probe),
        )
        .expect("start monitor");
        std::thread::sleep(Duration::from_millis(60));
        monitor.finish();

        let text = std::fs::read_to_string(&path).expect("live file written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected several samples, got {}", lines.len());
        for line in &lines {
            let v = JsonValue::parse(line).expect("each line is standalone JSON");
            assert_eq!(v.str_or_empty("schema"), LIVE_SCHEMA);
            assert_eq!(v.u64_or_zero("evaluations"), 50);
            assert_eq!(v.u64_or_zero("tasks"), 1);
            let wire = v.get("wire_bytes").expect("probe fields present");
            assert_eq!(wire.u64_or_zero("shuffle"), 1000);
            let workers = v.get("workers").unwrap().as_array().unwrap();
            assert_eq!(workers.len(), 2);
            assert_eq!(workers[1].get("alive").unwrap().as_bool(), Some(false));
        }
        // Exactly the last record is the done marker.
        for (i, line) in lines.iter().enumerate() {
            let v = JsonValue::parse(line).unwrap();
            let done = v.get("done").and_then(JsonValue::as_bool).unwrap();
            assert_eq!(done, i == lines.len() - 1, "line {i}");
        }
        // Sequence numbers are dense.
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(JsonValue::parse(line).unwrap().u64_or_zero("seq"), i as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn monitor_without_probe_omits_wire_fields() {
        let dir = std::env::temp_dir().join(format!("pmr-live-np-{}", std::process::id()));
        let path = dir.join("live.jsonl");
        let t = Telemetry::disabled();
        let monitor =
            LiveMonitor::start(&t, LiveSink::File(path.clone()), Duration::from_millis(10), None)
                .expect("start monitor");
        monitor.finish();
        let text = std::fs::read_to_string(&path).expect("live file written");
        let last = text.lines().last().expect("at least the done record");
        let v = JsonValue::parse(last).expect("valid JSON");
        assert!(v.get("wire_bytes").is_none());
        assert!(v.get("workers").is_none());
        assert_eq!(v.get("done").and_then(JsonValue::as_bool), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
