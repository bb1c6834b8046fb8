//! Shared support for the seeded property suites, included by path
//! (`#[path = "…/tests/support/seeded.rs"] mod seeded;`) from each
//! suite that needs it.
//!
//! The vendored `proptest` stand-in neither shrinks nor reports seeds,
//! so these suites are plain seeded loops: case `n` depends on nothing
//! but `n`, a failure names its seed and prints the one command that
//! replays exactly that case. On top of the loop sit the mutators the
//! decoder totality properties share — text and binary alike — and an
//! allocator that records the largest single request a decode makes.

#![allow(dead_code)]

use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How to re-run one seed of a suite.
pub struct Replay {
    /// Environment variable naming the one seed to run.
    pub var: &'static str,
    /// Cargo package the suite belongs to.
    pub package: &'static str,
    /// Cargo test target flags, e.g. `--test reorder_props` or `--lib`.
    pub target: &'static str,
    /// The `#[test]` to run with `var` set.
    pub test: &'static str,
}

impl Replay {
    /// The seed `var` names, if it is set.
    pub fn seed_from_env(&self) -> Option<u64> {
        let seed = std::env::var(self.var).ok()?;
        Some(
            seed.parse()
                .unwrap_or_else(|_| panic!("{} must be a u64, got `{seed}`", self.var)),
        )
    }

    /// The one-line command that replays `seed`.
    pub fn line(&self, seed: u64) -> String {
        format!(
            "{}={seed} cargo test -p {} {} {} -- --nocapture",
            self.var, self.package, self.target, self.test
        )
    }

    /// Runs `case` for seeds `0..cases` — or for the one seed `var`
    /// names, uncaught, so its panic shows where it happened. A case
    /// that fails or panics fails the test with its seed and replay
    /// line.
    pub fn for_each_seed(&self, cases: u64, mut case: impl FnMut(u64) -> Result<(), String>) {
        if let Some(seed) = self.seed_from_env() {
            if let Err(why) = case(seed) {
                panic!("seed {seed}, {why}");
            }
            return;
        }
        for seed in 0..cases {
            let why = match catch_unwind(AssertUnwindSafe(|| case(seed))) {
                Ok(Ok(())) => continue,
                Ok(Err(why)) => why,
                Err(_) => "panicked (message above)".to_string(),
            };
            panic!(
                "{} failed at seed {seed}, {why}\nreplay: {}",
                self.test,
                self.line(seed)
            );
        }
    }
}

/// One damaged variant of `valid` durable bytes (text or binary), and
/// what was done to it: torn at a byte, one bit flipped, one decimal
/// field scaled by a power of ten (a length or count grown past
/// anything real; binary input rarely has one), or replaced from some
/// point on — possibly from the start — by arbitrary bytes.
pub fn mutate(rng: &mut TestRng, valid: impl AsRef<[u8]>) -> (String, Vec<u8>) {
    let mut bytes = valid.as_ref().to_vec();
    let at = rng.usize_in(0, bytes.len());
    match rng.usize_in(0, 4) {
        0 => {
            bytes.truncate(at);
            (format!("truncated to {at} bytes"), bytes)
        }
        1 => {
            let bit = rng.usize_in(0, 8);
            bytes[at] ^= 1 << bit;
            (format!("bit {bit} of byte {at} flipped"), bytes)
        }
        2 => {
            // Whole decimal fields only: a run of digits between two
            // separators that is not the 16 digits of a hex float.
            let is_sep = |b: u8| matches!(b, b' ' | b'\n' | b':' | b',');
            let mut fields = Vec::new();
            let mut start = 0;
            for end in 0..=bytes.len() {
                if end == bytes.len() || is_sep(bytes[end]) {
                    let token = &bytes[start..end];
                    if !token.is_empty()
                        && token.len() != 16
                        && token.iter().all(u8::is_ascii_digit)
                    {
                        fields.push(end);
                    }
                    start = end + 1;
                }
            }
            if fields.is_empty() {
                return ("no decimal field to scale".into(), bytes);
            }
            let end = fields[rng.usize_in(0, fields.len())];
            let zeros = rng.usize_in(1, 20);
            bytes.splice(end..end, std::iter::repeat_n(b'0', zeros));
            (
                format!("decimal field ending at byte {end} scaled by 10^{zeros}"),
                bytes,
            )
        }
        _ => {
            let keep = if rng.usize_in(0, 2) == 0 { 0 } else { at };
            bytes.truncate(keep);
            let len = rng.usize_in(0, 200);
            bytes.extend((0..len).map(|_| rng.next_u64() as u8));
            (
                format!("{len} arbitrary bytes after the first {keep}"),
                bytes,
            )
        }
    }
}

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
