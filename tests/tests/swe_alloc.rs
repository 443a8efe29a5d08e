//! The SWE step allocates nothing once it is warm, and a repeated
//! `TsunamiModel::forward` only its result: the solver's workspace and the
//! gauges' series buffers are kept between steps and evaluations.
//!
//! A binary of its own because it installs a counting `#[global_allocator]`
//! (per thread, so the two tests and the harness do not see each other).

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::runup_solver;
use uq_swe::tohoku::{Resolution, TsunamiModel};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter without destructor, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes while running `work`.
fn allocations_in<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn a_warm_limited_step_allocates_nothing() {
    // the limiter fires on most steps of the run-up fixture, so the
    // incremental recompute is on the path
    let mut solver = runup_solver();
    solver.step();
    solver.step();
    let limited_before = solver.limited_cells();
    let (count, ()) = allocations_in(|| {
        for _ in 0..100 {
            solver.step();
        }
    });
    assert_eq!(count, 0, "100 warm steps allocated {count} times");
    assert!(
        solver.limited_cells() > limited_before + 100,
        "the limiter must have been at work: {} cells",
        solver.limited_cells() - limited_before
    );
}

#[test]
fn a_repeated_forward_allocates_only_its_result() {
    let mut model = TsunamiModel::new(1, Resolution::Custom([7, 11, 15]));
    let first = model.forward(&[0.0, 0.0]);
    for theta in [[0.0, 0.0], [62.5, -41.0], [-120.0, 87.25], [0.0, 0.0]] {
        let (count, obs) = allocations_in(|| model.forward(&theta));
        assert_eq!(count, 1, "forward({theta:?}) allocated {count} times");
        assert!(model.last_stats().limited_cells > 0);
        if theta == [0.0, 0.0] {
            assert_eq!(obs, first);
        }
    }
}
