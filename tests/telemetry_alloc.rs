//! Overhead contract of the disabled collector: `Telemetry::off` must add
//! **zero heap allocations** on hot paths (per-batch, per-solve, per-span),
//! so leaving telemetry hooks compiled into the kernels costs nothing in
//! production runs.
//!
//! This test binary installs a counting wrapper around the system allocator
//! (a `#[global_allocator]` is per-binary, which is why this lives in its
//! own integration-test file) and drives every record method of a disabled
//! handle.
//!
//! Allocations are counted **per thread**: the test harness runs these tests
//! on parallel threads, and a process-wide counter would let one test's
//! allocations land in another test's measured window. Each window is read
//! on the thread that makes the calls it measures.

use scis_repro::telemetry::{Counter, Event, Hist, RateWindow, Series, SpanKind, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // const-initialised and destructor-free, so touching it from inside the
    // allocator never allocates
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's exit may free memory after its slot is gone
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_collector_allocates_nothing_on_record_paths() {
    let tel = Telemetry::off();
    let clone = tel.clone(); // cloning a None handle is allocation-free too

    let before = allocations();
    for _ in 0..10_000 {
        tel.incr(Counter::DimBatches);
        tel.add(Counter::SinkhornIterations, 37);
        clone.incr(Counter::NnForwards);
        tel.record_span(SpanKind::Sse, std::time::Duration::from_nanos(1));
        let guard = tel.span(SpanKind::TrainInitial);
        drop(guard);
        // flight-recorder paths share the zero-alloc-when-off contract
        tel.push_series(Series::DimLoss, 0.25);
        tel.record_hist(Hist::SinkhornSolveIters, 37);
        tel.record_hist_duration(Hist::BatchStepNanos, std::time::Duration::from_nanos(9));
        tel.record_event(Event::CacheInvalidation);
        clone.record_event(Event::Rollback {
            epoch: 3,
            retries: 1,
        });
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled telemetry allocated {} times across 50k record calls",
        after - before
    );
    // and recorded nothing, of course
    assert_eq!(tel.counter(Counter::DimBatches), 0);
    assert_eq!(tel.span_count(SpanKind::TrainInitial), 0);
    assert!(tel.series(Series::DimLoss).is_empty());
    assert_eq!(tel.hist(Hist::SinkhornSolveIters).count, 0);
    assert_eq!(tel.events_recorded(), 0);
}

#[test]
fn disabled_rate_window_allocates_nothing() {
    let rate = RateWindow::off();
    let clone = rate.clone();

    let before = allocations();
    for _ in 0..10_000 {
        rate.record(4);
        clone.record(1);
        let _ = rate.per_sec();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled rate window allocated {} times",
        after - before
    );
    assert_eq!(rate.per_sec(), 0.0);
}

#[test]
fn collecting_rate_window_records_without_allocating() {
    let rate = RateWindow::collecting();
    let before = allocations();
    for _ in 0..10_000 {
        rate.record(2);
        let _ = rate.per_sec();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "rate window hot path allocated {} times",
        after - before
    );
    assert!(rate.per_sec() > 0.0, "recorded rows must show up");
}

#[test]
fn collecting_allocates_only_at_construction() {
    let before = allocations();
    let tel = Telemetry::collecting();
    let construction = allocations() - before;
    assert!(construction >= 1, "slab must be heap-allocated");

    let hot_before = allocations();
    for _ in 0..10_000 {
        tel.incr(Counter::DimBatches);
        tel.add(Counter::SinkhornIterations, 37);
        tel.record_span(SpanKind::Sse, std::time::Duration::from_nanos(1));
        // histogram slabs are atomics, the event ring is preallocated —
        // both stay allocation-free even while collecting (series pushes
        // are excluded: they grow per epoch, not per batch/solve)
        tel.record_hist(Hist::SinkhornSolveIters, 37);
        tel.record_event(Event::CacheInvalidation);
    }
    let hot = allocations() - hot_before;
    assert_eq!(hot, 0, "record paths of a live collector allocated {hot}x");
    assert_eq!(tel.counter(Counter::DimBatches), 10_000);
    assert_eq!(tel.hist(Hist::SinkhornSolveIters).count, 10_000);
    assert_eq!(tel.events_recorded(), 10_000);
}
