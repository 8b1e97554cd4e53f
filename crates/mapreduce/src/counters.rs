//! Job counters, mirroring Hadoop's counter framework.
//!
//! The experiment harness reads these to *measure* the paper's Table-1
//! metrics (communication cost, replication factor, working-set size,
//! evaluations per task) instead of trusting the analytic formulas.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Well-known counter names used by the engine itself.
pub mod builtin {
    /// Records read by all map tasks.
    pub const MAP_INPUT_RECORDS: &str = "mr.map.input.records";
    /// Records emitted by all map tasks.
    pub const MAP_OUTPUT_RECORDS: &str = "mr.map.output.records";
    /// Bytes of serialized map output (charged: framed records plus any
    /// extra charge billed through `emit_charged`).
    pub const MAP_OUTPUT_BYTES: &str = "mr.map.output.bytes";
    /// Bytes of map output physically written to partition files (the
    /// moved series of [`MAP_OUTPUT_BYTES`], which stays on charged
    /// semantics).
    pub const MAP_OUTPUT_MOVED_BYTES: &str = "mr.map.output.moved.bytes";
    /// Bytes fetched by reduce tasks during the shuffle.
    pub const SHUFFLE_BYTES: &str = "mr.shuffle.bytes";
    /// Bytes physically fetched by reduce tasks (the moved series of
    /// [`SHUFFLE_BYTES`], which stays on charged semantics).
    pub const SHUFFLE_MOVED_BYTES: &str = "mr.shuffle.moved.bytes";
    /// Distinct keys seen by all reduce tasks.
    pub const REDUCE_INPUT_GROUPS: &str = "mr.reduce.input.groups";
    /// Records consumed by all reduce tasks.
    pub const REDUCE_INPUT_RECORDS: &str = "mr.reduce.input.records";
    /// Records emitted by all reduce tasks.
    pub const REDUCE_OUTPUT_RECORDS: &str = "mr.reduce.output.records";
    /// Bytes written to the DFS by reduce tasks.
    pub const REDUCE_OUTPUT_BYTES: &str = "mr.reduce.output.bytes";
    /// Map tasks launched (including retries).
    pub const MAP_TASK_ATTEMPTS: &str = "mr.map.task.attempts";
    /// Reduce tasks launched (including retries).
    pub const REDUCE_TASK_ATTEMPTS: &str = "mr.reduce.task.attempts";
    /// Failed task attempts (injected failures).
    pub const FAILED_ATTEMPTS: &str = "mr.failed.attempts";
    /// Records map tasks write to their node-local partition files. Every
    /// emitted record is written exactly once, so this always equals
    /// [`MAP_OUTPUT_RECORDS`].
    pub const SPILLED_RECORDS: &str = "mr.spilled.records";
    /// Bytes broadcast through the distributed cache.
    pub const DISTRIBUTED_CACHE_BYTES: &str = "mr.cache.bytes";
    /// Node crashes observed while the job ran.
    pub const NODE_CRASHES: &str = "mr.node.crashes";
    /// Completed map tasks re-executed because their output died with a
    /// node (Dean–Ghemawat recovery).
    pub const MAP_RERUNS: &str = "mr.map.reruns";
    /// Speculative backup attempts launched for slow tasks.
    pub const SPECULATIVE_LAUNCHED: &str = "mr.speculative.launched";
    /// Speculative backup attempts that finished first and won.
    pub const SPECULATIVE_WON: &str = "mr.speculative.won";
}

/// A concurrent bag of named `u64` counters.
///
/// ```
/// use pmr_mapreduce::Counters;
///
/// let c = Counters::new();
/// c.inc("records");
/// c.add("records", 9);
/// c.record_max("peak", 7);
/// c.record_max("peak", 3);
/// assert_eq!(c.get("records"), 10);
/// assert_eq!(c.snapshot()["peak"], 7);
/// ```
#[derive(Debug, Default)]
pub struct Counters {
    inner: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl Counters {
    /// New, empty counter bag.
    pub fn new() -> Counters {
        Counters::default()
    }

    fn cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.inner.lock();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.cell(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the named counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records a maximum: the counter becomes `max(current, value)`.
    pub fn record_max(&self, name: &str, value: u64) {
        self.cell(name).fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of a counter (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.lock().get(name).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner.lock().iter().map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_snapshot() {
        let c = Counters::new();
        c.inc("a");
        c.add("a", 4);
        c.add("b", 2);
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("missing"), 0);
        let snap = c.snapshot();
        assert_eq!(snap["a"], 5);
        assert_eq!(snap["b"], 2);
    }

    #[test]
    fn record_max_keeps_largest() {
        let c = Counters::new();
        c.record_max("peak", 10);
        c.record_max("peak", 3);
        c.record_max("peak", 17);
        assert_eq!(c.get("peak"), 17);
    }

    #[test]
    fn concurrent_increments() {
        let c = Arc::new(Counters::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc("n");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get("n"), 8000);
    }
}
