//! A counting allocator for the suites that hold an allocation claim
//! to account, included by path
//! (`#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`).
//! The including test binary installs it —
//! `#[global_allocator] static ALLOCATOR: Counting = Counting;` — and
//! measures with [`allocations`] (calls) or [`live_bytes`] (heap bytes
//! live and their high-water mark).
//!
//! Those counts are per thread, so the harness running the tests of one
//! file side by side does not disturb them. Code that hands work to
//! threads of its own is measured with [`process_allocations`] and
//! [`process_live_bytes`] instead: the same counts over every thread of
//! the process, which the tests using them must not run side by side.

// Not every including binary measures bytes.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed (negative
    /// once it frees what another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`live_bytes`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// `CALLS`, `LIVE` and `PEAK` over every thread of the process.
static PROCESS_CALLS: AtomicU64 = AtomicU64::new(0);
static PROCESS_LIVE: AtomicI64 = AtomicI64::new(0);
static PROCESS_PEAK: AtomicI64 = AtomicI64::new(0);

/// A `#[global_allocator]` that forwards to [`System`] and counts, per
/// thread and over the process, the calls that can return new memory
/// and the bytes live.
pub struct Counting;

fn note() {
    PROCESS_CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the counter is gone and nobody is counting.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Moves this thread's and the process's live bytes by `delta`, raising
/// each peak with them.
fn resize(delta: i64) {
    let live = PROCESS_LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PROCESS_PEAK.fetch_max(live, Ordering::Relaxed);
    let Ok(live) = LIVE.try_with(|l| {
        l.set(l.get() + delta);
        l.get()
    }) else {
        return;
    };
    let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator. The byte counters
// are the same kind of thread-local, and the process totals are atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        resize(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        resize(layout.size() as i64);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        resize(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
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

/// What running `f` did to this thread's live heap bytes, counted from
/// where they stood when it began.
#[derive(Debug, Clone, Copy)]
pub struct LiveBytes {
    /// The high-water mark while `f` ran.
    pub peak: i64,
    /// What was still live when `f` returned (its result included).
    pub retained: i64,
}

impl LiveBytes {
    /// Bytes held only while `f` ran: the peak above what it kept.
    pub fn transient(&self) -> i64 {
        self.peak - self.retained
    }
}

/// This thread's live heap bytes over `f` (all zero unless the test
/// binary installs [`Counting`]).
pub fn live_bytes<R>(f: impl FnOnce() -> R) -> (LiveBytes, R) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    let bytes = LiveBytes {
        peak: PEAK.with(Cell::get) - before,
        retained: LIVE.with(Cell::get) - before,
    };
    (bytes, out)
}

/// Allocator calls every thread of the process makes while `f` runs.
pub fn process_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = PROCESS_CALLS.load(Ordering::Relaxed);
    let out = f();
    (PROCESS_CALLS.load(Ordering::Relaxed) - before, out)
}

/// [`live_bytes`] over every thread of the process.
pub fn process_live_bytes<R>(f: impl FnOnce() -> R) -> (LiveBytes, R) {
    let before = PROCESS_LIVE.load(Ordering::Relaxed);
    PROCESS_PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let bytes = LiveBytes {
        peak: PROCESS_PEAK.load(Ordering::Relaxed) - before,
        retained: PROCESS_LIVE.load(Ordering::Relaxed) - before,
    };
    (bytes, out)
}
