//! The telemetry contract: with no collector installed, the
//! per-launch recording calls perform zero heap allocations. This
//! file is its own test binary so it may own the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hsim_telemetry as tel;
use hsim_time::{SimDuration, SimTime};

/// System allocator with a per-thread allocation counter, so the test
/// can assert the disabled telemetry hot path never touches the heap.
/// Per thread, because the test harness's own threads allocate while
/// the test runs.
struct CountingAlloc;

thread_local! {
    // `const`-initialised: no lazy init, so counting never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to the `System` allocator — layout and
// pointer contracts are forwarded unchanged; the counter is a
// thread-local `Cell` with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: same contract as the caller's — `layout` is passed
        // through to the system allocator untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded verbatim from
        // the caller, which owns the allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` was produced by this same
        // pass-through allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Drive every per-launch recording entry point with telemetry
/// disabled and assert the allocation counter did not move.
#[test]
fn disabled_telemetry_is_allocation_free() {
    assert!(!tel::is_enabled(), "test must start with telemetry off");
    const CALLS: u64 = 10_000;
    // One warm-up round so lazy thread-local init cannot be charged
    // to the measured window.
    tel::count(tel::Counter::KernelLaunches, 1);
    let before = ALLOCS.with(Cell::get);
    for i in 0..CALLS {
        let t0 = SimTime::ZERO;
        let t1 = SimTime::ZERO + SimDuration::from_nanos(i);
        tel::count(tel::Counter::KernelLaunches, 1);
        tel::time_stat(tel::TimeStat::KernelTime, SimDuration::from_nanos(i));
        tel::gauge_max(tel::Gauge::DeviceOccupancy, 0.5);
        tel::rank_span(tel::Category::CpuKernel, "probe", t0, t1);
        tel::span_args(
            0,
            0,
            tel::Category::GpuKernel,
            "probe",
            t0,
            t1,
            &[("elems", i)],
        );
        tel::kernel_launch(SimDuration::from_nanos(i), Some(0.5));
    }
    let allocated = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocated, 0,
        "disabled telemetry hot path allocated {allocated} times"
    );
}
