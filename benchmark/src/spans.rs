//! In-memory span recorder for the traced (`--trace 1`) run.
//!
//! The harness opens a span around every call it makes into a layer's
//! public functions: name, start, end, the span that was open when it
//! started (its parent) and the workload. Spans stay in memory and are
//! written out once, when the run ends. A span's *self time* is its
//! duration minus what its direct children cover, so a rung that calls the
//! rung below it is charged only for what it adds.
//!
//! The recorder is used from the harness thread only; the program's own
//! threads are never instrumented (spans inside the program are a later
//! change, not the benchmark's).

use std::time::Instant;

use pmr_obs::JsonWriter;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub usize);

#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let now = self.now_ns();
        self.push_open(name, now)
    }

    fn push_open(&mut self, name: &str, start_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span, and returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        self.close(id, now)
    }

    fn close(&mut self, id: SpanId, end_ns: u64) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.duration_ns() as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.enter(name);
        let out = f(self);
        let secs = self.exit(id);
        (out, secs)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, in order of first appearance: how many spans, their
    /// total duration and their total self time, in nanoseconds.
    /// Repetition spans (`name#i`) are folded into `name#`.
    pub fn summary(&self) -> Vec<(String, usize, u64, u64)> {
        let self_ns = self_times(&self.spans);
        let mut rows: Vec<(String, usize, u64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let name = match span.name.split_once('#') {
                Some((rung, _)) => format!("{rung}#"),
                None => span.name.clone(),
            };
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.duration_ns();
                    row.3 += own;
                }
                None => rows.push((name, 1, span.duration_ns(), own)),
            }
        }
        rows
    }

    /// The trace as JSON: `{workload, spans: [{id, name, start_ns, end_ns,
    /// parent, self_ns}]}` with `parent` = -1 for roots.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.str_field("schema", "pairbench.trace/1");
        w.str_field("workload", &self.workload);
        w.begin_array_key("spans");
        let self_ns = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.u64_field("id", i as u64);
            w.str_field("name", &s.name);
            w.str_field("workload", &self.workload);
            w.u64_field("start_ns", s.start_ns);
            w.u64_field("end_ns", s.end_ns);
            w.i64_field("parent", s.parent.map_or(-1, |p| p as i64));
            w.u64_field("self_ns", self_ns[i]);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (start, end) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rung", 0, 100, None),
            span("kernel", 10, 40, Some(0)),
            span("kernel", 50, 70, Some(0)),
            span("inner", 15, 20, Some(1)), // grandchild: not subtracted from 0
        ];
        assert_eq!(self_times(&spans), [100 - 30 - 20, 30 - 5, 20, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 90, 130, Some(0)),  // starts before the parent
            span("b", 120, 150, Some(0)), // overlaps a
            span("c", 190, 260, Some(0)), // ends after the parent
        ];
        // covered: [100,150) and [190,200) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut t = Tracer::new("w");
        let outer = t.push_open("outer", 0);
        let inner = t.push_open("inner", 10);
        t.close(inner, 30);
        let second = t.push_open("inner", 40);
        t.close(second, 45);
        t.close(outer, 100);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(
            t.summary(),
            [("outer".to_string(), 1, 100, 75), ("inner".to_string(), 2, 25, 25)]
        );
        let json = pmr_obs::JsonValue::parse(&t.to_json()).expect("trace is valid JSON");
        let spans = json.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].u64_or_zero("self_ns"), 75);
        assert_eq!(json.str_or_empty("workload"), "w");
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new("w");
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }
}
