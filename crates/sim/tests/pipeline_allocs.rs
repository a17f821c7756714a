//! Warm engine ticks allocate nothing on any thread, the demand worker's
//! included. At 8,748 apps the engine draws each tick's demand one tick
//! ahead on a worker thread when the host has a second CPU, so this
//! test's allocator counts every thread's allocations in one global
//! counter. It is the only test in its binary, so no other test's
//! allocations can land in its window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use willow_core::migration::TickReport;
use willow_sim::metrics::FabricSnapshot;
use willow_sim::{SimConfig, Simulation};

/// Forwards to the system allocator while counting allocation calls on
/// every thread.
struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic,
// which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Whether a thread named `willow-demand` runs in this process (Linux
/// only; `None` elsewhere).
fn demand_worker_runs() -> Option<bool> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(tasks.flatten().any(|task| {
        std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.trim() == "willow-demand")
    }))
}

#[test]
fn warm_pipelined_ticks_allocate_nothing_on_any_thread() {
    // 2,187 servers, four apps each.
    let mut cfg = SimConfig::paper_hot_cold(1, 0.4);
    cfg.branching = vec![3, 9, 9, 9];
    let mut sim = Simulation::new(cfg).unwrap();
    let second_cpu = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    if let Some(runs) = demand_worker_runs() {
        assert_eq!(runs, second_cpu, "the engine pipelines on a second CPU");
    }
    let (mut report, mut fabric) = (TickReport::default(), FabricSnapshot::default());
    for _ in 0..112 {
        sim.step_into_buffers(&mut report, &mut fabric);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..56 {
        sim.step_into_buffers(&mut report, &mut fabric);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(sim.invariant_violations(), 0);
    assert_eq!(allocations, 0, "warm ticks allocated on some thread");
}
