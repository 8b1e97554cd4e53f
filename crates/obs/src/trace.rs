//! Totally-ordered per-operation samples.
//!
//! Spans, phases and discrete events each have one home in the sink
//! ([`crate::RunReport::task_spans`], [`crate::RunReport::job_phases`],
//! [`crate::RunReport::events`]). The trace holds what has no other home:
//! one sample per operation — each network transfer, each DFS block
//! placement, and each RPC the coordinator issues to a worker process —
//! in one bounded ring inside the telemetry sink, stamped with wall time
//! (µs since the sink epoch) and, for a simulated transfer, simulated
//! time.
//!
//! Total order is the `seq` number, assigned under the sink mutex, so
//! samples from concurrent workers interleave exactly as they reached the
//! sink. The ring is bounded ([`TraceRing::DEFAULT_CAPACITY`]); once
//! full, the oldest samples are evicted and counted in
//! [`TraceRing::dropped`], never silently.
//!
//! When telemetry is disabled nothing here runs: all emission sites sit
//! behind the `Option` check in [`crate::Telemetry`], so the disabled path
//! stays allocation-free.

use std::collections::VecDeque;

/// Sentinel for "no node / peer" in a [`TraceEvent`] or a
/// [`crate::RunEvent`].
pub const NONE: u32 = u32::MAX;

/// Stable sample kinds recorded in the trace.
pub mod kind {
    /// A network transfer; `peer` → `node`, `sim_us` is simulated time.
    pub const TRANSFER: &str = "transfer";
    /// A DFS block replica landed on `node`.
    pub const PLACEMENT: &str = "placement";
    /// The coordinator's PUT RPC to `node`'s worker; `phase` is the wire
    /// class, `bytes` the payload sent.
    pub const WORKER_PUT: &str = "worker.put";
    /// The coordinator's GET RPC to `node`'s worker; `bytes` is the
    /// payload returned.
    pub const WORKER_GET: &str = "worker.get";
    /// The coordinator's REMOVE RPC to `node`'s worker.
    pub const WORKER_REMOVE: &str = "worker.remove";
    /// The coordinator's REMOVE_PREFIX RPC to `node`'s worker.
    pub const WORKER_REMOVE_PREFIX: &str = "worker.remove_prefix";

    /// Whether `kind` is one of the sample kinds above.
    pub fn is_sample(kind: &str) -> bool {
        matches!(
            kind,
            TRANSFER | PLACEMENT | WORKER_PUT | WORKER_GET | WORKER_REMOVE | WORKER_REMOVE_PREFIX
        )
    }
}

/// One per-operation sample.
///
/// `node` and `peer` use [`NONE`] when not applicable, `phase` the empty
/// string. `at_us` is the wall-clock stamp on the telemetry axis;
/// `dur_us` is a measured wall duration (a worker RPC's round trip) and
/// `sim_us` a simulated one (a network transfer), each zero when
/// meaningless.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Position in the total order (assigned by the ring).
    pub seq: u64,
    /// Wall-clock stamp, µs since the telemetry epoch.
    pub at_us: u64,
    /// Sample kind; see [`kind`].
    pub kind: &'static str,
    /// Primary node (the lane the sample renders on).
    pub node: u32,
    /// Secondary node (transfer source), [`NONE`] when not applicable.
    pub peer: u32,
    /// Wire class of a worker RPC, "" otherwise.
    pub phase: String,
    /// Bytes carried by the operation, else 0.
    pub bytes: u64,
    /// Measured wall duration, µs (worker RPCs), else 0.
    pub dur_us: u64,
    /// Simulated duration, µs (network transfers), else 0.
    pub sim_us: u64,
}

impl Default for TraceEvent {
    fn default() -> Self {
        TraceEvent {
            seq: 0,
            at_us: 0,
            kind: "",
            node: NONE,
            peer: NONE,
            phase: String::new(),
            bytes: 0,
            dur_us: 0,
            sim_us: 0,
        }
    }
}

/// Bounded ring buffer holding the trace inside the sink.
#[derive(Debug)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::with_capacity(TraceRing::DEFAULT_CAPACITY)
    }
}

impl TraceRing {
    /// Default bound on retained events; ample for every in-repo
    /// workload while keeping a pathological run's memory bounded.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// An empty ring retaining at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing { buf: VecDeque::new(), capacity: capacity.max(1), next_seq: 0, dropped: 0 }
    }

    /// Appends `ev`, assigning its `seq`; evicts the oldest event when
    /// the ring is full.
    pub fn push(&mut self, mut ev: TraceEvent) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events in `seq` order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str) -> TraceEvent {
        TraceEvent { kind, ..TraceEvent::default() }
    }

    #[test]
    fn seq_is_a_total_order() {
        let mut ring = TraceRing::default();
        for _ in 0..10 {
            ring.push(ev(kind::TRANSFER));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_drops() {
        let mut ring = TraceRing::with_capacity(4);
        for _ in 0..10 {
            ring.push(ev(kind::TRANSFER));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let snap = ring.snapshot();
        assert_eq!(snap.first().unwrap().seq, 6);
        assert_eq!(snap.last().unwrap().seq, 9);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let mut ring = TraceRing::with_capacity(0);
        ring.push(ev(kind::PLACEMENT));
        ring.push(ev(kind::PLACEMENT));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.snapshot()[0].seq, 1);
    }
}
