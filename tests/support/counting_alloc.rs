//! A counting allocator for the suites that hold an allocation claim
//! to account, included by path
//! (`#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`).
//! The including test binary installs it —
//! `#[global_allocator] static ALLOCATOR: Counting = Counting;` — and
//! measures with [`allocations`].
//!
//! Counts are per thread, so the harness running the tests of one file
//! side by side does not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// A `#[global_allocator]` that forwards to [`System`] and counts, per
/// thread, the calls that can return new memory.
pub struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counter is gone and nobody is counting.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls this thread makes while `f` runs (0 unless the test
/// binary installs [`Counting`]).
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}
