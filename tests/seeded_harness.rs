//! Self-checks of the shared property harness (`tests/support/`): the
//! seeded generator every property suite draws from, the loop that runs
//! and replays cases, the `properties!` declarations, the damage the
//! totality suites inflict and the checks they hold decoders to. A
//! suite built on a harness that silently drew from the wrong range,
//! skipped seeds or lost the failing one would pass for the wrong
//! reason; these tests are what keeps the harness honest.

#[path = "support/seeded.rs"]
mod seeded;
#[path = "support/totality.rs"]
mod totality;

use seeded::{mutate, Replay, TestRng};
use std::sync::atomic::{AtomicU64, Ordering};
use totality::{check_total, check_total_and_exact, check_total_bytes, peak_request, PeakAlloc};

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

fn replay(var: &'static str) -> Replay {
    Replay {
        var,
        package: "sentinet-core",
        target: "--test seeded_harness",
        test: "harness_case",
    }
}

/// `draw` over many seeds: every value it yields, sorted and deduplicated.
fn values<T: Ord>(mut draw: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let mut rng = TestRng::new(11);
    let mut seen: Vec<T> = (0..2_000).map(|_| draw(&mut rng)).collect();
    seen.sort();
    seen.dedup();
    seen
}

#[test]
fn the_stream_is_splitmix64() {
    // The reference generator's first outputs (Vigna's `splitmix64.c`):
    // every seeded suite's cases, and the replay lines they print,
    // depend on this stream staying exactly what it is.
    let first = |seed| {
        let mut rng = TestRng::new(seed);
        [rng.next_u64(), rng.next_u64(), rng.next_u64()]
    };
    assert_eq!(
        first(0),
        [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f
        ]
    );
    assert_eq!(
        first(1),
        [
            0x910a_2dec_8902_5cc1,
            0xbeeb_8da1_658e_ec67,
            0xf893_a2ee_fb32_555e
        ]
    );
    assert_eq!(
        first(u64::MAX),
        [
            0xe4d9_7177_1b65_2c20,
            0xe99f_f867_dbf6_82c9,
            0x382f_f84c_b272_81e9
        ]
    );
}

#[test]
fn a_clone_replays_the_same_draws() {
    let mut rng = TestRng::new(5);
    rng.next_u64();
    let mut twin = rng.clone();
    let a: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    let b: Vec<u64> = (0..8).map(|_| twin.next_u64()).collect();
    assert_eq!(a, b);
}

#[test]
fn next_f64_stays_in_the_unit_interval() {
    let mut rng = TestRng::new(3);
    for _ in 0..10_000 {
        let x = rng.next_f64();
        assert!((0.0..1.0).contains(&x), "{x}");
    }
}

#[test]
fn a_usize_range_is_the_usize_in_stream() {
    // Suites written against `usize_in` and suites written against
    // `range` draw the same cases from the same seed.
    let (mut a, mut b) = (TestRng::new(9), TestRng::new(9));
    for hi in 1..200 {
        assert_eq!(a.usize_in(hi / 3, hi), b.range(hi / 3..hi));
    }
}

#[test]
#[should_panic(expected = "empty size range")]
fn an_empty_usize_in_panics() {
    TestRng::new(0).usize_in(4, 4);
}

#[test]
fn small_integer_ranges_stay_in_bounds_and_reach_both_ends() {
    assert_eq!(values(|r| r.range(3u8..7)), [3, 4, 5, 6]);
    assert_eq!(values(|r| r.range(250u8..255)), [250, 251, 252, 253, 254]);
    assert_eq!(values(|r| r.range(0u16..4)), [0, 1, 2, 3]);
    assert_eq!(values(|r| r.range(65_533u16..65_535)), [65_533, 65_534]);
    assert_eq!(values(|r| r.range(7u32..10)), [7, 8, 9]);
    assert_eq!(values(|r| r.range(1usize..4)), [1, 2, 3]);
}

#[test]
fn wide_u64_ranges_stay_in_bounds() {
    let mut rng = TestRng::new(17);
    for _ in 0..10_000 {
        let near_top = rng.range(u64::MAX - 3..u64::MAX);
        assert!((u64::MAX - 3..u64::MAX).contains(&near_top));
        // The whole type but one value: the span is `u64::MAX` itself.
        assert!(rng.range(0..u64::MAX) < u64::MAX);
        let mid = rng.range(1_000u64..100_000);
        assert!((1_000..100_000).contains(&mid));
    }
}

#[test]
fn float_ranges_are_half_open() {
    let mut rng = TestRng::new(23);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for _ in 0..10_000 {
        let x = rng.range(-2.5..4.0);
        assert!((-2.5..4.0).contains(&x), "{x}");
        lo = lo.min(x);
        hi = hi.max(x);
    }
    // Spread over the whole range, not bunched at one end.
    assert!(lo < -2.4 && hi > 3.9, "draws spanned {lo}..{hi}");
}

#[test]
fn a_one_value_range_draws_it_and_advances_the_stream() {
    let (mut rng, mut twin) = (TestRng::new(2), TestRng::new(2));
    assert_eq!(rng.range(41u16..42), 41);
    twin.next_u64();
    assert_eq!(rng.next_u64(), twin.next_u64());
}

#[test]
#[should_panic(expected = "empty range")]
fn an_empty_integer_range_panics() {
    TestRng::new(0).range(5u64..5);
}

#[test]
#[should_panic(expected = "empty range")]
fn an_empty_float_range_panics() {
    TestRng::new(0).range(1.0..1.0);
}

#[test]
fn vec_of_a_count_has_exactly_that_many() {
    let mut rng = TestRng::new(4);
    for n in 0..20 {
        assert_eq!(rng.vec(n, TestRng::bool).len(), n);
    }
}

#[test]
fn vec_of_a_range_draws_its_length_from_it() {
    assert_eq!(values(|r| r.vec(2..6, TestRng::bool).len()), [2, 3, 4, 5]);
}

#[test]
fn vec_draws_its_length_first_then_each_element_in_order() {
    let (mut rng, mut twin) = (TestRng::new(8), TestRng::new(8));
    let got = rng.vec(1..9, TestRng::next_u64);
    let len = twin.range(1usize..9);
    let want: Vec<u64> = (0..len).map(|_| twin.next_u64()).collect();
    assert_eq!(got, want);
}

#[test]
fn pick_reaches_every_item_and_nothing_else() {
    let items = ['a', 'b', 'c', 'd', 'e'];
    assert_eq!(values(|r| r.pick(&items)), items);
}

#[test]
#[should_panic(expected = "empty size range")]
fn pick_from_nothing_panics() {
    TestRng::new(0).pick::<u8>(&[]);
}

#[test]
fn bool_is_a_fair_coin() {
    let mut rng = TestRng::new(31);
    let heads = (0..10_000).filter(|_| rng.bool()).count();
    assert!((4_700..5_300).contains(&heads), "{heads} heads in 10 000");
}

#[test]
fn the_replay_line_names_variable_seed_package_target_and_test() {
    assert_eq!(
        replay("SOME_SEED").line(42),
        "SOME_SEED=42 cargo test -p sentinet-core --test seeded_harness harness_case -- --nocapture"
    );
}

#[test]
fn every_seed_runs_once_in_order() {
    let mut seen = Vec::new();
    replay("HARNESS_ORDER_SEED").for_each_seed(6, |seed| {
        seen.push(seed);
        Ok(())
    });
    assert_eq!(seen, [0, 1, 2, 3, 4, 5]);
}

#[test]
#[should_panic(expected = "harness_case failed at seed 3, three is wrong\n\
                           replay: HARNESS_FAIL_SEED=3 cargo test -p sentinet-core")]
fn a_failing_case_names_its_seed_and_replay_line() {
    replay("HARNESS_FAIL_SEED").for_each_seed(10, |seed| match seed {
        3 => Err("three is wrong".into()),
        _ => Ok(()),
    });
}

#[test]
#[should_panic(expected = "harness_case failed at seed 2, panicked (message above)")]
fn a_panicking_case_is_caught_and_named() {
    replay("HARNESS_PANIC_SEED").for_each_seed(10, |seed| {
        assert_ne!(seed, 2, "the case's own message");
        Ok(())
    });
}

#[test]
fn no_case_runs_after_the_first_failure() {
    let mut ran = Vec::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        replay("HARNESS_STOP_SEED").for_each_seed(10, |seed| {
            ran.push(seed);
            if seed == 4 {
                return Err("stop".into());
            }
            Ok(())
        })
    }));
    assert!(outcome.is_err());
    assert_eq!(ran, [0, 1, 2, 3, 4]);
}

#[test]
fn the_variable_replays_exactly_its_seed() {
    std::env::set_var("HARNESS_ONE_SEED", "7");
    let mut seen = Vec::new();
    replay("HARNESS_ONE_SEED").for_each_seed(100, |seed| {
        seen.push(seed);
        Ok(())
    });
    assert_eq!(seen, [7]);
}

#[test]
#[should_panic(expected = "seed 9, still wrong")]
fn a_replayed_failure_names_its_seed() {
    std::env::set_var("HARNESS_REPLAY_FAIL_SEED", "9");
    replay("HARNESS_REPLAY_FAIL_SEED").for_each_seed(3, |_| Err("still wrong".into()));
}

#[test]
#[should_panic(expected = "HARNESS_BAD_SEED must be a u64, got `seven`")]
fn a_malformed_variable_is_refused() {
    std::env::set_var("HARNESS_BAD_SEED", "seven");
    replay("HARNESS_BAD_SEED").for_each_seed(3, |_| Ok(()));
}

/// Cases `properties!` has run so far for
/// [`each_case_draws_from_its_own_seed`].
static CASES_SEEN: AtomicU64 = AtomicU64::new(0);

seeded::properties! {
    var: "HARNESS_PROPS_SEED", package: "sentinet-core", target: "--test seeded_harness",
    cases: 16;

    /// The cases run in seed order, each handed a fresh generator
    /// seeded with its own seed.
    fn each_case_draws_from_its_own_seed(rng) {
        let seed = CASES_SEEN.fetch_add(1, Ordering::SeqCst);
        assert_eq!(rng.next_u64(), TestRng::new(seed).next_u64());
    }

    /// `return Ok(())` skips a case: half of these never reach the
    /// assertion that would fail them.
    fn a_skipped_case_passes(rng) {
        if rng.bool() {
            return Ok(());
        }
        assert!(rng.range(0u8..2) < 2);
    }

    /// A property fails through `assert!`, named by its own test name.
    #[should_panic(expected = "an_assertion_fails_the_property failed at seed 0")]
    fn an_assertion_fails_the_property(rng) {
        assert!(rng.range(0u8..1) == 1, "never");
    }

    /// And through `?` on a `Result<_, String>`, its text kept.
    #[should_panic(expected = "a_returned_error_fails_the_property failed at seed 0, not a u8")]
    fn a_returned_error_fails_the_property(_rng) {
        "x".parse::<u8>().map_err(|_| String::from("not a u8"))?;
    }
}

/// A text with every kind of field [`mutate`] works on
/// (`4000000000000000` is 2.0's bit pattern: sixteen digits that are
/// not a decimal field.)
const VALID: &str = "counters 3\naccepted 240:17,9 -\nhex 4000000000000000\n";

/// `mutate` over many seeds: what it says it did, and the bytes.
fn damage() -> Vec<(String, Vec<u8>)> {
    (0..2_000)
        .map(|seed| mutate(&mut TestRng::new(seed), VALID))
        .collect()
}

#[test]
fn a_truncation_keeps_exactly_the_prefix_it_names() {
    let mut seen = 0;
    for (what, bytes) in damage() {
        if let Some(n) = what.strip_prefix("truncated to ") {
            let n: usize = n.trim_end_matches(" bytes").parse().expect("a length");
            assert_eq!(bytes, VALID.as_bytes()[..n]);
            seen += 1;
        }
    }
    assert!(seen > 0);
}

#[test]
fn a_bit_flip_changes_exactly_the_bit_it_names() {
    let mut seen = 0;
    for (what, bytes) in damage() {
        if what.contains(" flipped") {
            let words: Vec<&str> = what.split(' ').collect();
            let (bit, at): (u32, usize) = (words[1].parse().unwrap(), words[4].parse().unwrap());
            let mut want = VALID.as_bytes().to_vec();
            want[at] ^= 1 << bit;
            assert_eq!(bytes, want, "{what}");
            seen += 1;
        }
    }
    assert!(seen > 0);
}

#[test]
fn a_scaled_field_gains_zeros_after_a_whole_decimal_field() {
    let mut seen = 0;
    for (what, bytes) in damage() {
        if let Some(rest) = what.strip_prefix("decimal field ending at byte ") {
            let (end, zeros) = rest.split_once(" scaled by 10^").expect("both numbers");
            let (end, zeros): (usize, usize) = (end.parse().unwrap(), zeros.parse().unwrap());
            let valid = VALID.as_bytes();
            assert!(valid[end - 1].is_ascii_digit(), "{what}");
            assert!(b" \n:,".contains(&valid[end]), "{what}");
            let mut want = valid[..end].to_vec();
            want.extend(std::iter::repeat_n(b'0', zeros));
            want.extend(&valid[end..]);
            assert_eq!(bytes, want, "{what}");
            seen += 1;
        }
    }
    assert!(seen > 0);
}

#[test]
fn a_hex_float_is_never_scaled_as_a_decimal_field() {
    let hex = VALID.find("4000").expect("the hex field") + 16;
    let scaled_hex = format!("decimal field ending at byte {hex} ");
    assert!(damage()
        .iter()
        .all(|(what, _)| !what.starts_with(&scaled_hex)));
}

#[test]
fn arbitrary_bytes_follow_the_prefix_they_name() {
    let mut seen = 0;
    for (what, bytes) in damage() {
        if let Some((len, keep)) = what.split_once(" arbitrary bytes after the first ") {
            let (len, keep): (usize, usize) = (len.parse().unwrap(), keep.parse().unwrap());
            assert_eq!(bytes.len(), keep + len);
            assert_eq!(bytes[..keep], VALID.as_bytes()[..keep]);
            seen += 1;
        }
    }
    assert!(seen > 0);
}

#[test]
fn input_without_a_decimal_field_says_so_and_is_left_whole() {
    let plain = "no digits here\n";
    let mut seen = 0;
    for seed in 0..500 {
        let (what, bytes) = mutate(&mut TestRng::new(seed), plain);
        if what == "no decimal field to scale" {
            assert_eq!(bytes, plain.as_bytes());
            seen += 1;
        }
    }
    assert!(seen > 0);
}

#[test]
fn the_peak_is_measured_per_call() {
    let (big, _) = peak_request(|| vec![0u8; 1 << 20]);
    assert!(big >= 1 << 20, "{big}");
    let (small, _) = peak_request(|| vec![0u8; 16]);
    assert!(small < 1 << 20, "the previous call's peak leaked: {small}");
}

#[test]
fn a_decode_within_the_bound_passes_its_value_through() {
    assert_eq!(check_total_bytes(100, || vec![7u8; 1_000].len()), Ok(1_000));
}

#[test]
fn an_allocation_sized_by_a_stated_count_is_caught() {
    // 10 bytes of input cannot back a 1 MiB buffer: a decoder that
    // trusted a length field would do exactly this.
    let why = check_total_bytes(10, || Vec::<u8>::with_capacity(1 << 20)).unwrap_err();
    assert!(why.contains("for 10 bytes of input"), "{why}");
}

#[test]
fn text_reaches_the_decoder_lossily_decoded() {
    let got = check_total(b"ok\xffok", |text| Ok::<String, ()>(text.to_string()));
    assert_eq!(got, Ok(Ok("ok\u{fffd}ok".to_string())));
}

#[test]
fn an_exact_reencoding_passes_up_to_the_closing_newline() {
    // A line codec: it reads lines and writes each one terminated.
    let decode = |text: &str| Ok::<String, String>(text.trim_end().to_string());
    let encode = |lines: &String| format!("{lines}\n");
    for input in ["a 1\nb 2\n", "a 1\nb 2"] {
        let checked = check_total_and_exact(input.as_bytes(), decode, encode, |_| false);
        assert_eq!(checked, Ok(()), "{input:?}");
    }
}

#[test]
fn a_lenient_decoder_is_caught_reading_what_it_cannot_write() {
    // Reads "07" as 7, and so re-encodes other bytes than it read.
    let lenient = |text: &str| text.trim().parse::<u32>().map_err(|e| e.to_string());
    let checked = check_total_and_exact(b"07\n", lenient, |n| format!("{n}\n"), |_| true);
    assert_eq!(checked, Err("decoded to other bytes than it read".into()));
}

#[test]
fn a_typed_rejection_passes_and_an_untyped_one_is_reported() {
    let reject = |_: &str| Err::<u32, String>("malformed line 1".into());
    let encode = |n: &u32| n.to_string();
    let typed = |e: &String| e.starts_with("malformed");
    assert_eq!(check_total_and_exact(b"x", reject, encode, typed), Ok(()));
    let untyped = check_total_and_exact(b"x", reject, encode, |_| false);
    assert_eq!(
        untyped,
        Err("untyped rejection \"malformed line 1\"".into())
    );
}

#[test]
#[should_panic(expected = "empty range")]
fn an_empty_length_range_panics() {
    TestRng::new(0).vec(3..3, TestRng::bool);
}

#[test]
fn the_allocation_bound_is_64_bytes_a_byte_of_input_and_4_kib() {
    // Ten bytes of input may take 4 736 bytes in one request, not one
    // more.
    assert!(check_total_bytes(10, || Vec::<u8>::with_capacity(4_736)).is_ok());
    assert!(check_total_bytes(10, || Vec::<u8>::with_capacity(4_737)).is_err());
}
