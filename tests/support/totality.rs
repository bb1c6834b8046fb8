//! Decoder totality checks, included by path
//! (`#[path = "…/tests/support/totality.rs"] mod totality;`) beside
//! `seeded.rs` by the suites that feed decoders damaged bytes. The
//! including test binary installs [`PeakAlloc`] —
//! `#[global_allocator] static ALLOCATOR: PeakAlloc = PeakAlloc;` — so
//! the checks can bound the largest single request a decode makes.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation request this thread has made since
    /// [`peak_request`] last reset it.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// A `#[global_allocator]` that forwards to [`System`] and records, per
/// thread, the largest single request.
pub struct PeakAlloc;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the cell is gone and nobody is measuring.
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the record is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The largest single allocation request this thread makes while `f`
/// runs (0 unless the test binary installs [`PeakAlloc`]).
pub fn peak_request<R>(f: impl FnOnce() -> R) -> (usize, R) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (PEAK.with(Cell::get), out)
}

/// What a total decoder may do with `input_len` bytes of input,
/// damaged or not: return — a value or a typed error, which is all
/// `decode`'s type lets it return. Never panic (the seeded loop
/// catches that), and never make an allocation sized by a number the
/// input merely states — every request stays within a small multiple
/// of the input's own length.
pub fn check_total_bytes<T>(input_len: usize, decode: impl FnOnce() -> T) -> Result<T, String> {
    let (peak, outcome) = peak_request(decode);
    let bound = 64 * input_len + 4096;
    if peak > bound {
        return Err(format!(
            "a {peak}-byte allocation for {input_len} bytes of input (bound {bound})"
        ));
    }
    Ok(outcome)
}

/// [`check_total_bytes`] for a text decoder: `input` reaches it the
/// way a sidecar reader would hand it over, lossily decoded.
pub fn check_total<T, E: std::fmt::Debug>(
    input: &[u8],
    decode: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Result<T, E>, String> {
    let text = String::from_utf8_lossy(input);
    check_total_bytes(text.len(), || decode(&text))
}

/// [`check_total`], and exactness on top: `decode` either rejects
/// `input` with an error `typed` recognises, or yields a value whose
/// `encode` is the input again — up to the newline closing the last
/// line, which a line reader cannot tell from the end of the text. A
/// codec held to this never invents state beyond the bytes it read.
pub fn check_total_and_exact<T, E: std::fmt::Debug>(
    input: &[u8],
    decode: impl FnOnce(&str) -> Result<T, E>,
    encode: impl FnOnce(&T) -> String,
    typed: impl FnOnce(&E) -> bool,
) -> Result<(), String> {
    let unterminated = |text: &str| text.strip_suffix('\n').unwrap_or(text).to_string();
    match check_total(input, decode)? {
        Ok(decoded) => {
            if unterminated(&encode(&decoded)) == unterminated(&String::from_utf8_lossy(input)) {
                Ok(())
            } else {
                Err("decoded to other bytes than it read".into())
            }
        }
        Err(e) if typed(&e) => Ok(()),
        Err(e) => Err(format!("untyped rejection {e:?}")),
    }
}
