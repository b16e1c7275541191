//! The counting `#[global_allocator]` shared by the zero-allocation suites
//! (`query_alloc.rs`, `ingest_alloc.rs`).
//!
//! Forwards to [`System`] and counts every path that can acquire or move
//! heap memory (alloc, alloc_zeroed, realloc) **per thread**: libtest runs
//! a file's tests on concurrent threads, so a process-wide counter would
//! charge each test with its siblings' warm-up. The proof a suite states
//! is therefore "*this thread's* steady state allocates nothing", which is
//! exactly the contract of the sequential (`Threads::Fixed(1)`) hot paths.
//!
//! Each suite is its own test binary, so the allocator swap cannot perturb
//! any other suite.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and destructor-free: reading it never allocates
    // and it stays valid during thread teardown.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events performed by the calling thread so far.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}
