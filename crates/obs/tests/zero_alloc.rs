//! A disabled [`Telemetry`] handle must not allocate on any hot-path
//! call: the engine leaves its instrumentation in place unconditionally,
//! so the disabled path must reduce to a `None` check. Verified with a
//! counting global allocator.
//!
//! The allocator arms and counts per thread: only allocations made by the
//! thread that armed it are counted, so another thread of the test binary
//! (the harness's main thread, a sibling test) allocating meanwhile cannot
//! fail the check. Every hot-path call below runs on the arming thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;
use std::time::Instant;

use pmr_obs::{SpanKind, Telemetry};

struct CountingAllocator;

thread_local! {
    // `const`-initialised with no destructor: reading these never
    // allocates, so the allocator may touch them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Starts counting the calling thread's allocations from zero.
fn arm() {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
}

/// Stops counting and returns the calling thread's allocations since
/// [`arm`].
fn disarm() -> u64 {
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_sink_hot_path_does_not_allocate() {
    let telemetry = Telemetry::disabled();
    let mut lap_at = Instant::now();

    arm();
    for task in 0..100u32 {
        let mut span = telemetry.span("job", SpanKind::Map, task, 0, task % 4);
        span.add_bytes_in(1024);
        span.add_records_in(16);
        span.lap("read", &mut lap_at);
        span.add_bytes_out(512);
        span.add_records_out(8);
        span.record_peak_working_set(4096);
        span.lap("map", &mut lap_at);
        span.record_value("hist", task as u64);
        drop(span);
        // Trace-ring mirror paths: a cancelled span and a report
        // snapshot must also be free on the disabled handle.
        let mut loser = telemetry.span("job", SpanKind::Reduce, task, 1, task % 4);
        loser.cancel();
        drop(loser);
        let report = telemetry.report();
        assert!(report.trace.is_empty() && report.trace_dropped == 0);
        telemetry.transfer(0, 1, 1024, 3);
        telemetry.placement(1, 1024);
        telemetry.job_phase("job", "phase");
        telemetry.job_phase("job", "next-phase");
        telemetry.phase_bytes(1024, 64);
        let _ = telemetry.now_us();
        let _ = telemetry.clone();
        // Distributed-tracing paths: merging worker rings and sampling
        // live progress are also free on the disabled handle (the
        // multiprocess transport leaves both calls in place).
        telemetry.merge_worker_events(std::iter::empty());
        let progress = telemetry.progress();
        assert!(progress.tasks_committed == 0 && progress.trace_events == 0);
    }
    assert_eq!(disarm(), 0, "disabled telemetry allocated on the hot path");

    // Sanity check that the counter actually observes allocations.
    arm();
    let v = std::hint::black_box(vec![1u8, 2, 3]);
    let counted = disarm();
    drop(v);
    assert!(counted > 0, "counting allocator is not wired in");

    // Another thread's allocation while this one is armed is not counted.
    // The barriers carry no allocation of their own; the second one makes
    // the other thread's allocation land inside the armed window.
    let (go, done) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            go.wait();
            drop(std::hint::black_box(vec![0u8; 64]));
            done.wait();
        });
        arm();
        go.wait();
        done.wait();
        assert_eq!(disarm(), 0, "another thread's allocation was counted");
    });
}
