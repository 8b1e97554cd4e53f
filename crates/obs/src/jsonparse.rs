//! A small hand-rolled JSON parser, the read-side twin of
//! [`crate::json::JsonWriter`].
//!
//! The repo serializes run reports with a dependency-free writer; the
//! offline `trace` CLI needs to load them back. This module parses any
//! RFC 8259 document into a [`JsonValue`] tree (objects preserve key
//! order) and [`RunReport::from_json`] rebuilds a full
//! [`crate::RunReport`] from the `pmr.run_report/10` schema, and from
//! `/9` reports, whose trace ring also copied spans, phases and events and
//! held worker heartbeats.

use crate::histogram::{HistogramBucket, HistogramSnapshot};
use crate::report::{NodeTimeline, RunReport};
use crate::telemetry::{JobPhase, LinkStats, PlacementStats, RunEvent, TaskSpan};
use crate::trace::{self, TraceEvent};

/// A parsed JSON value. Objects keep their textual key order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member of an object by key (None for other variants / missing key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64` (negative / fractional values truncate toward
    /// zero, clamped at 0), if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| if n <= 0.0 { 0 } else { n as u64 })
    }

    /// `self.get(key).and_then(as_u64)`, defaulting to 0.
    pub fn u64_or_zero(&self, key: &str) -> u64 {
        self.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
    }

    /// `self.get(key).and_then(as_str)`, defaulting to "".
    pub fn str_or_empty(&self, key: &str) -> &str {
        self.get(key).and_then(JsonValue::as_str).unwrap_or("")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair: decode the low half if present.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat_literal("\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("invalid \\u escape")?
                            };
                            out.push(ch);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-borrow the raw bytes to keep multi-byte UTF-8 intact.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".to_string());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Interns a name into a `&'static str`: well-known names map to
/// statics; novel ones leak a one-time allocation (bounded by the number
/// of distinct names ever seen, fine for an offline analysis tool).
fn intern(name: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "",
        "map",
        "reduce",
        "task",
        "read",
        "merge",
        "sort",
        "shuffle",
        "write",
        "evaluate",
        "aggregate",
        "setup",
        "finalize",
        trace::kind::TRANSFER,
        trace::kind::PLACEMENT,
        "node.crash",
        "map.rerun",
        "speculative.launch",
        "speculative.win",
        "dfs.rereplicate",
        "part.consume",
        RunEvent::TASK_CANCEL,
        RunEvent::WORKER_LOST,
        trace::kind::WORKER_PUT,
        trace::kind::WORKER_GET,
        trace::kind::WORKER_REMOVE,
        trace::kind::WORKER_REMOVE_PREFIX,
    ];
    match KNOWN.iter().find(|k| **k == name) {
        Some(k) => k,
        None => Box::leak(name.to_string().into_boxed_str()),
    }
}

fn opt_u32(v: &JsonValue, key: &str) -> u32 {
    v.get(key).and_then(JsonValue::as_u64).map(|n| n as u32).unwrap_or(trace::NONE)
}

impl RunReport {
    /// Rebuilds a report from its [`RunReport::to_json`] serialization.
    ///
    /// Tolerant of unknown extra fields; sections that are absent load as
    /// empty. Fails on malformed JSON or a document that is not an
    /// object.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let root = JsonValue::parse(text)?;
        if root.as_object().is_none() {
            return Err("run report must be a JSON object".to_string());
        }
        let mut r =
            RunReport { wall_time_us: root.u64_or_zero("wall_time_us"), ..Default::default() };

        if let Some(meta) = root.get("meta").and_then(JsonValue::as_object) {
            for (k, v) in meta {
                r.meta.push((k.clone(), v.as_str().unwrap_or("").to_string()));
            }
        }
        if let Some(counters) = root.get("counters").and_then(JsonValue::as_object) {
            for (k, v) in counters {
                r.counters.push((k.clone(), v.as_u64().unwrap_or(0)));
            }
        }
        if let Some(t) = root.get("transport") {
            let mut section = crate::TransportReport {
                name: t.str_or_empty("name").to_string(),
                wire_frames: t.u64_or_zero("wire_frames"),
                ..Default::default()
            };
            if let Some(classes) = t.get("wire_bytes").and_then(JsonValue::as_object) {
                for (class, bytes) in classes {
                    section.wire_bytes.push((class.clone(), bytes.as_u64().unwrap_or(0)));
                }
            }
            for worker in t.get("workers").and_then(JsonValue::as_array).unwrap_or(&[]) {
                section.workers.push(crate::WorkerProc {
                    node: worker.u64_or_zero("node") as u32,
                    pid: worker.u64_or_zero("pid") as u32,
                    alive: worker.get("alive").and_then(JsonValue::as_bool).unwrap_or(false),
                });
            }
            r.transport = Some(section);
        }
        if let Some(p) = root.get("pruning") {
            r.pruning = Some(crate::PruningReport {
                pruner: p.str_or_empty("pruner").to_string(),
                exact: p.get("exact").and_then(JsonValue::as_bool).unwrap_or(false),
                candidates: p.u64_or_zero("candidates"),
                pruned: p.u64_or_zero("pruned"),
                evaluated: p.u64_or_zero("evaluated"),
            });
        }
        for p in root.get("job_phases").and_then(JsonValue::as_array).unwrap_or(&[]) {
            let bytes = p.get("bytes");
            r.job_phases.push(JobPhase {
                job: p.str_or_empty("job").to_string(),
                phase: p.str_or_empty("phase").to_string(),
                start_us: p.u64_or_zero("start_us"),
                end_us: p.u64_or_zero("end_us"),
                bytes_charged: bytes.map(|b| b.u64_or_zero("charged")).unwrap_or(0),
                bytes_moved: bytes.map(|b| b.u64_or_zero("moved")).unwrap_or(0),
            });
        }
        for s in root.get("task_spans").and_then(JsonValue::as_array).unwrap_or(&[]) {
            let mut span = TaskSpan {
                job: s.str_or_empty("job").to_string(),
                kind: intern(s.str_or_empty("kind")),
                task: s.u64_or_zero("task") as u32,
                attempt: s.u64_or_zero("attempt") as u32,
                node: s.u64_or_zero("node") as u32,
                start_us: s.u64_or_zero("start_us"),
                end_us: s.u64_or_zero("end_us"),
                bytes_in: s.u64_or_zero("bytes_in"),
                bytes_out: s.u64_or_zero("bytes_out"),
                records_in: s.u64_or_zero("records_in"),
                records_out: s.u64_or_zero("records_out"),
                peak_working_set_bytes: s.u64_or_zero("peak_working_set_bytes"),
                ..TaskSpan::default()
            };
            if let Some(phases) = s.get("phases").and_then(JsonValue::as_object) {
                for (name, us) in phases {
                    span.phases.push((intern(name), us.as_u64().unwrap_or(0)));
                }
            }
            if let Some(labels) = s.get("labels").and_then(JsonValue::as_object) {
                for (k, v) in labels {
                    span.labels.push((k.clone(), v.as_str().unwrap_or("").to_string()));
                }
            }
            r.task_spans.push(span);
        }
        for n in root.get("node_timelines").and_then(JsonValue::as_array).unwrap_or(&[]) {
            let mut tl = NodeTimeline {
                node: n.u64_or_zero("node") as u32,
                tasks: n.u64_or_zero("tasks"),
                busy_us: n.u64_or_zero("busy_us"),
                idle_us: n.u64_or_zero("idle_us"),
                memory_high_water_bytes: n.u64_or_zero("memory_high_water_bytes"),
                ..NodeTimeline::default()
            };
            for iv in n.get("busy_intervals").and_then(JsonValue::as_array).unwrap_or(&[]) {
                tl.busy_intervals.push((iv.u64_or_zero("start_us"), iv.u64_or_zero("end_us")));
            }
            r.node_timelines.push(tl);
        }
        for t in root.get("transfers").and_then(JsonValue::as_array).unwrap_or(&[]) {
            r.transfers.push((
                t.u64_or_zero("src") as u32,
                t.u64_or_zero("dst") as u32,
                LinkStats {
                    bytes: t.u64_or_zero("bytes"),
                    events: t.u64_or_zero("events"),
                    sim_us: t.u64_or_zero("sim_us"),
                },
            ));
        }
        for p in root.get("placements").and_then(JsonValue::as_array).unwrap_or(&[]) {
            r.placements.push((
                p.u64_or_zero("node") as u32,
                PlacementStats { blocks: p.u64_or_zero("blocks"), bytes: p.u64_or_zero("bytes") },
            ));
        }
        for e in root.get("events").and_then(JsonValue::as_array).unwrap_or(&[]) {
            r.events.push(RunEvent {
                at_us: e.u64_or_zero("at_us"),
                kind: intern(e.str_or_empty("kind")),
                node: opt_u32(e, "node"),
                dur_us: e.u64_or_zero("dur_us"),
                detail: e.str_or_empty("detail").to_string(),
            });
        }
        if let Some(tr) = root.get("trace") {
            r.trace_dropped = tr.u64_or_zero("dropped");
            for e in tr.get("events").and_then(JsonValue::as_array).unwrap_or(&[]) {
                // A `/9` ring also copied the spans, phases and events,
                // which load from their own sections, and held worker
                // heartbeats: only its per-operation samples load here.
                let kind = e.str_or_empty("kind");
                if !trace::kind::is_sample(kind) {
                    continue;
                }
                r.trace.push(TraceEvent {
                    seq: e.u64_or_zero("seq"),
                    at_us: e.u64_or_zero("at_us"),
                    kind: intern(kind),
                    node: opt_u32(e, "node"),
                    peer: opt_u32(e, "peer"),
                    phase: e.str_or_empty("phase").to_string(),
                    bytes: e.u64_or_zero("bytes"),
                    dur_us: e.u64_or_zero("dur_us"),
                    sim_us: e.u64_or_zero("sim_us"),
                });
            }
        }
        for h in root.get("histograms").and_then(JsonValue::as_array).unwrap_or(&[]) {
            let mut snap = HistogramSnapshot {
                count: h.u64_or_zero("count"),
                sum: h.u64_or_zero("sum"),
                min: h.u64_or_zero("min"),
                max: h.u64_or_zero("max"),
                buckets: Vec::new(),
            };
            for b in h.get("buckets").and_then(JsonValue::as_array).unwrap_or(&[]) {
                snap.buckets.push(HistogramBucket {
                    lo: b.u64_or_zero("lo"),
                    hi: b.u64_or_zero("hi"),
                    count: b.u64_or_zero("count"),
                });
            }
            r.histograms.push((h.str_or_empty("name").to_string(), snap));
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_strings_and_nesting() {
        let v = JsonValue::parse(
            r#"{"a": 1, "b": [true, null, -2.5], "s": "x\n\"\u0041\ud83d\ude00"}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_f64(), Some(-2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"A\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "{} x", "\"\\q\""] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let t = crate::Telemetry::enabled();
        t.set_meta("scheme", "block(h=4) \"quoted\"");
        t.job_phase("j1", "map");
        t.phase_bytes(100, 10);
        {
            let mut span = t.span("j1", crate::SpanKind::Map, 3, 0, 1);
            let mut at = std::time::Instant::now();
            span.add_records_in(7);
            span.record_peak_working_set(2048);
            span.label("block", 3);
            span.lap("read", &mut at);
            span.record_value("g", 4);
            span.record_value("g", 900);
        }
        t.transfer(0, 1, 150, 7);
        t.placement(1, 64);
        t.event("map.rerun", 1, 33, "map 3 re-run".to_string());
        t.worker_op(trace::kind::WORKER_GET, 1, "shuffle", 17, t.now_us());
        let mut report = t.report();
        report.merge_counters([("mr.shuffle.bytes", 42)]);
        report.transport = Some(crate::TransportReport {
            name: "process".to_string(),
            workers: vec![
                crate::WorkerProc { node: 0, pid: 4242, alive: true },
                crate::WorkerProc { node: 1, pid: 4243, alive: false },
            ],
            wire_bytes: vec![("shuffle".to_string(), 17), ("map_output".to_string(), 9)],
            wire_frames: 12,
        });

        let json = report.to_json();
        let parsed = RunReport::from_json(&json).expect("parse back");
        // The strongest equivalence we can assert without PartialEq on
        // RunReport: serializing the parsed report reproduces the exact
        // original document.
        assert_eq!(parsed.to_json(), json);
        assert_eq!(parsed.trace.len(), report.trace.len());
        assert_eq!(parsed.task_spans[0].kind, "map");
        assert_eq!(parsed.counter("mr.shuffle.bytes"), Some(42));
        let transport = parsed.transport.as_ref().expect("transport section survives");
        assert_eq!(transport.name, "process");
        assert_eq!(transport.wire_class("shuffle"), Some(17));
        assert_eq!(transport.wire_total_bytes(), 26);
        assert_eq!(transport.workers.len(), 2);
        assert!(transport.workers[0].alive);
        assert!(!transport.workers[1].alive);
    }
}
