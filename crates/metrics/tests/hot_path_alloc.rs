//! Proof that steady-state recording is allocation-free: counters, gauges,
//! and histogram shards must not touch the heap once registered.
//!
//! Uses a counting global allocator; the lib crate itself stays
//! `forbid(unsafe_code)` — the unsafe lives only in this test binary.

use lowbit_metrics::{HistSpec, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations on the measuring thread only (armed by
/// [`count_allocations`]), so other tests in this binary cannot leak into
/// the measurement.
struct CountingAlloc;

thread_local! {
    /// `Some(n)` while the current thread is measuring; `None` otherwise.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|c| c + 1)));
}

/// Runs `f` with allocation counting armed on this thread and returns how
/// many allocations (including reallocations) it made.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.replace(None)).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn recording_is_allocation_free_after_registration() {
    let registry = Registry::new();
    // Registration may allocate freely: families, label vectors, cells.
    let counter = registry.counter("serve_completed_total", "done", &[("class", "demo-w4")]);
    let gauge = registry.gauge("queue_depth", "depth", &[]);
    let hist = registry.histogram(
        "serve_total_ms",
        "latency",
        &[("class", "demo-w4")],
        HistSpec::latency_ms(),
    );
    let shard = hist.shard();

    // Touch every path once so lazy effects (if any) settle.
    counter.inc();
    gauge.set(1.0);
    shard.record(2.5);
    hist.record(3.5);

    let allocations = count_allocations(|| {
        for i in 0..10_000u64 {
            counter.add(i % 3);
            gauge.set(i as f64);
            shard.record(0.5 + (i % 100) as f64);
            hist.record(0.25 + (i % 50) as f64);
        }
    });
    assert_eq!(allocations, 0, "hot-path recording must not allocate (saw {allocations} allocations)");
}
