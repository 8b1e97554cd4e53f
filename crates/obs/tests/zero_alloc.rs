//! A disabled [`Telemetry`] handle must not allocate on any hot-path
//! call: the engine leaves its instrumentation in place unconditionally,
//! so the disabled path must reduce to a `None` check. Verified with a
//! counting global allocator.
//!
//! This file holds exactly one `#[test]` — a sibling test running in a
//! parallel thread would allocate while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use pmr_obs::{SpanKind, Telemetry};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn disabled_sink_hot_path_does_not_allocate() {
    let telemetry = Telemetry::disabled();
    let mut lap_at = Instant::now();

    ARMED.store(true, Ordering::SeqCst);
    for task in 0..100u32 {
        let mut span = telemetry.span("job", SpanKind::Map, task, 0, task % 4);
        span.add_bytes_in(1024);
        span.add_records_in(16);
        span.lap("read", &mut lap_at);
        span.add_bytes_out(512);
        span.add_records_out(8);
        span.record_peak_working_set(4096);
        span.lap("map", &mut lap_at);
        drop(span);
        // Trace-ring mirror paths: a cancelled span and a report
        // snapshot must also be free on the disabled handle.
        let mut loser = telemetry.span("job", SpanKind::Reduce, task, 1, task % 4);
        loser.cancel();
        drop(loser);
        let report = telemetry.report();
        assert!(report.trace.is_empty() && report.trace_dropped == 0);
        telemetry.record_value("hist", task as u64);
        telemetry.transfer(0, 1, 1024, 3);
        telemetry.placement(1, 1024);
        drop(telemetry.job_phase("job", "phase").next("next-phase"));
        let _ = telemetry.now_us();
        let _ = telemetry.clone();
        // Distributed-tracing paths: merging worker rings and sampling
        // live progress are also free on the disabled handle (the
        // multiprocess transport leaves both calls in place).
        telemetry.merge_worker_events(std::iter::empty());
        let progress = telemetry.progress();
        assert!(progress.tasks_committed == 0 && progress.trace_events == 0);
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(
        ALLOCATIONS.load(Ordering::SeqCst),
        0,
        "disabled telemetry allocated on the hot path"
    );

    // Sanity check that the counter actually observes allocations.
    ARMED.store(true, Ordering::SeqCst);
    let v = std::hint::black_box(vec![1u8, 2, 3]);
    ARMED.store(false, Ordering::SeqCst);
    drop(v);
    assert!(ALLOCATIONS.load(Ordering::SeqCst) > 0, "counting allocator is not wired in");
}
