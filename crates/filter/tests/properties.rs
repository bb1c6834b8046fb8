//! Property-based tests for the alarm-filtering substrate.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use sentinet_filter::{
    AlarmFilter, Cusum, EwmaChart, KOfNFilter, Sprt, SprtAlarmFilter, SprtDecision,
};

seeded::properties! {
    var: "FILTER_PROPS_SEED", package: "sentinet-filter", target: "--test properties", cases: 48;

    fn kofn_matches_naive_window_count(rng) {
        let k = rng.range(1usize..6);
        let n = k + rng.range(0usize..5);
        let stream = rng.vec(1..200, |r| r.bool());
        let mut f = KOfNFilter::new(k, n);
        for (i, &raw) in stream.iter().enumerate() {
            let got = f.push(raw);
            let lo = i.saturating_sub(n - 1);
            let expect = stream[lo..=i].iter().filter(|&&b| b).count() >= k;
            assert_eq!(got, expect, "step {i}");
        }
    }

    fn kofn_all_true_raises_and_all_false_clears(rng) {
        let k = rng.range(1usize..6);
        let n = k + rng.range(0usize..5);
        let mut f = KOfNFilter::new(k, n);
        for _ in 0..n {
            f.push(true);
        }
        assert!(f.is_raised());
        for _ in 0..n {
            f.push(false);
        }
        assert!(!f.is_raised());
    }

    fn sprt_eventually_decides_on_constant_streams(rng) {
        let p0 = rng.range(0.01..0.3);
        let p1 = (p0 + rng.range(0.2..0.6)).min(0.95);
        let mut t = Sprt::new(p0, p1, 0.01, 0.01);
        let mut decided = false;
        for _ in 0..10_000 {
            if t.push(true) == SprtDecision::AcceptH1 {
                decided = true;
                break;
            }
        }
        assert!(decided, "constant alarms must accept H1");
        let mut t = Sprt::new(p0, p1, 0.01, 0.01);
        let mut decided = false;
        for _ in 0..10_000 {
            if t.push(false) == SprtDecision::AcceptH0 {
                decided = true;
                break;
            }
        }
        assert!(decided, "constant silence must accept H0");
    }

    fn sprt_llr_is_sum_of_increments(rng) {
        let p0 = rng.range(0.05..0.3);
        let stream = rng.vec(1..50, |r| r.bool());
        let p1 = 0.7;
        let mut t = Sprt::new(p0, p1, 0.001, 0.001);
        let mut manual = 0.0;
        for &raw in &stream {
            if t.decision() != SprtDecision::Continue {
                break;
            }
            manual += if raw {
                (p1 / p0).ln()
            } else {
                ((1.0 - p1) / (1.0 - p0)).ln()
            };
            t.push(raw);
        }
        assert!((t.log_likelihood_ratio() - manual).abs() < 1e-9);
    }

    fn cusum_sums_always_nonnegative_and_reset_works(rng) {
        let xs = rng.vec(1..100, |r| r.range(-10.0..10.0));
        let mut c = Cusum::new(0.0, 0.5, 5.0);
        for &x in &xs {
            c.push(x);
            assert!(c.upper_sum() >= 0.0);
            assert!(c.lower_sum() >= 0.0);
        }
        c.reset();
        assert!(!c.is_alarmed());
        assert_eq!(c.upper_sum(), 0.0);
    }

    fn cusum_detects_any_persistent_shift_beyond_allowance(rng) {
        let shift = rng.pick(&[-5.0, -2.0, 2.0, 5.0]);
        let mut c = Cusum::new(0.0, 1.0, 4.0);
        let mut alarmed = false;
        for _ in 0..100 {
            alarmed = c.push(shift);
            if alarmed {
                break;
            }
        }
        assert!(alarmed, "shift {shift} undetected");
    }

    fn ewma_statistic_is_convex_combination(rng) {
        let lambda = rng.range(0.05..1.0);
        let xs = rng.vec(1..100, |r| r.range(-5.0..5.0));
        let mut e = EwmaChart::new(0.0, 1.0, lambda, 3.0);
        let (mut lo, mut hi) = (0.0f64, 0.0f64);
        for &x in &xs {
            e.push(x);
            lo = lo.min(x);
            hi = hi.max(x);
            assert!(e.statistic() >= lo - 1e-12 && e.statistic() <= hi + 1e-12);
        }
    }

    fn sprt_alarm_filter_is_monotone_on_extremes(rng) {
        // Whatever the prefix, sustained alarms raise and sustained
        // silence clears.
        let mut f = SprtAlarmFilter::balanced();
        for raw in rng.vec(0..30, |r| r.bool()) {
            f.push(raw);
        }
        for _ in 0..200 {
            f.push(true);
        }
        assert!(f.is_raised());
        for _ in 0..500 {
            f.push(false);
        }
        assert!(!f.is_raised());
    }
}
