//! A counting `#[global_allocator]` for the suites that assert on
//! allocation (`swe_alloc`, `poisson_alloc`, `frame_alloc`,
//! `serve_alloc`), included by `#[path]` so the
//! other suites keep the system allocator. Counters are per thread, so
//! the tests of one binary and the harness do not see each other; one
//! process-wide count of large requests covers work on threads a test
//! does not own, read where nothing else runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

/// A request this size or larger counts as large: the paper's QOI, 1089
/// `f64`, is 8712 bytes; a parameter vector or a boxed sample is far below.
const LARGE_BYTES: usize = 8000;

/// Every thread's requests of `LARGE_BYTES` or more.
static LARGE_IN_PROCESS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
    if bytes >= LARGE_BYTES {
        LARGE.with(|n| n.set(n.get() + 1));
        LARGE_IN_PROCESS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is three thread-local counters without destructor, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What this thread requested from the allocator while running `work`:
/// the number of allocations and reallocations, and their sizes summed
/// (an upper bound on the peak held at once).
#[allow(dead_code)] // not every suite that includes this file uses both
pub fn allocations_in<T>(work: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = work();
    let count = ALLOCATIONS.with(Cell::get) - before.0;
    let bytes = BYTES.with(Cell::get) - before.1;
    ((count, bytes), out)
}

/// How many of this thread's requests while running `work` were of
/// `LARGE_BYTES` or more.
#[allow(dead_code)] // not every suite that includes this file uses both
pub fn large_allocations_in<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = LARGE.with(Cell::get);
    let out = work();
    (LARGE.with(Cell::get) - before, out)
}

/// How many requests of `LARGE_BYTES` or more every thread of the process
/// made while this thread ran `work` — the threads `work` starts
/// included. Exact only in a process that runs nothing else meanwhile (a
/// test binary re-executed to run one test).
#[allow(dead_code)] // not every suite that includes this file uses it
pub fn large_allocations_in_process<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = LARGE_IN_PROCESS.load(Ordering::Relaxed);
    let out = work();
    (LARGE_IN_PROCESS.load(Ordering::Relaxed) - before, out)
}
