//! Shared support for the seeded property suites, included by path
//! (`#[path = "…/tests/support/seeded.rs"] mod seeded;`) from each
//! suite that needs it — unit-test modules too: it is safe code, so a
//! crate that forbids `unsafe` can take it.
//!
//! A suite is a plain seeded loop: case `n` depends on nothing but `n`,
//! and a failure names its seed and prints the one command that replays
//! exactly that case. [`TestRng`] draws a case's inputs from its seed,
//! [`properties!`] declares one `#[test]` a property over the loop, and
//! [`mutate`] is the damage the decoder totality properties share —
//! text and binary alike (their allocator and checks are
//! `totality.rs`).

#![allow(dead_code)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic SplitMix64 generator driving the case inputs.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded directly.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[lo, hi)` (`hi > lo`).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty size range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A uniform draw from the non-empty `range`.
    pub fn range<T: Uniform>(&mut self, range: Range<T>) -> T {
        T::draw(self, range)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.usize_in(0, items.len())].clone()
    }

    /// `len` values of `draw`: exactly `len`, or as many as a draw from
    /// a range `len`.
    pub fn vec<T>(&mut self, len: impl Len, mut draw: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = len.draw(self);
        (0..len).map(|_| draw(self)).collect()
    }
}

/// What [`TestRng::range`] draws: the unsigned integers and `f64`.
pub trait Uniform: Sized {
    /// A uniform draw from the non-empty `range`.
    fn draw(rng: &mut TestRng, range: Range<Self>) -> Self;
}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(rng: &mut TestRng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty range");
                range.start + (rng.next_u64() % (range.end - range.start) as u64) as $t
            }
        }
    )*};
}

uniform_unsigned!(u8, u16, u32, u64, usize);

impl Uniform for f64 {
    fn draw(rng: &mut TestRng, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        range.start + rng.next_f64() * (range.end - range.start)
    }
}

/// A length [`TestRng::vec`] takes: a count, or a range to draw one from.
pub trait Len {
    /// The length.
    fn draw(self, rng: &mut TestRng) -> usize;
}

impl Len for usize {
    fn draw(self, _: &mut TestRng) -> usize {
        self
    }
}

impl Len for Range<usize> {
    fn draw(self, rng: &mut TestRng) -> usize {
        rng.range(self)
    }
}

/// Values for codec properties: signed zeros, NaN, ±∞, the smallest
/// normal and a huge value beside two ordinary ones, so "bit-exact"
/// means exactly that where `PartialEq` on floats breaks down.
pub const BIT_EXACT_POOL: [f64; 9] = [
    0.0,
    -0.0,
    21.5,
    -3.25,
    1e300,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

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

/// Declares seeded properties, one `#[test]` each: `fn name(rng) {
/// body }` runs `body` for seeds `0..cases` through
/// [`Replay::for_each_seed`], `rng` a `&mut` [`TestRng`] seeded with the
/// case's seed, and replays a seed as `var=N cargo test -p package
/// target name`. A body fails a case with `assert!`/`assert_eq!` (or
/// `?` on a `Result<_, String>`) and skips one with `return Ok(())`.
/// The including module names this file `seeded`.
#[allow(unused_macros)]
macro_rules! properties {
    (
        var: $var:literal, package: $package:literal, target: $target:literal, cases: $cases:expr;
        $($(#[$meta:meta])* fn $name:ident($rng:ident) $body:block)*
    ) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let replay = seeded::Replay {
                var: $var,
                package: $package,
                target: $target,
                test: stringify!($name),
            };
            replay.for_each_seed($cases, |seed| {
                let $rng = &mut seeded::TestRng::new(seed);
                $body
                Ok(())
            });
        }
    )*};
}

#[allow(unused_imports)]
pub(crate) use properties;

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
