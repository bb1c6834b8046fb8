//! The harness's own arithmetic: order statistics over rep samples and
//! the failure accounting every workload reports.

/// Percentiles the harness will name. A latency distribution is
/// reported at the highest of these that still has
/// [`MIN_SAMPLES_BEYOND`] samples above it.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A percentile with fewer samples than this beyond it is mostly the
/// luck of one run, so it is not named.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// Median, quartiles, the 5th and 95th percentiles and extremes of one
/// metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p5: f64,
    pub p95: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// A metric that is one exact observation (a count, a size).
    pub fn exact(value: f64) -> Self {
        Self {
            n: 1,
            median: value,
            q1: value,
            q3: value,
            p5: value,
            p95: value,
            min: value,
            max: value,
        }
    }

    /// The same distribution under a monotone map of every sample.
    /// A decreasing map (time → rate) swaps the quartiles and the outer
    /// percentiles.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        let (c, d) = (f(self.min), f(self.max));
        let (g, h) = (f(self.p5), f(self.p95));
        Self {
            n: self.n,
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            p5: g.min(h),
            p95: g.max(h),
            min: c.min(d),
            max: c.max(d),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation between closest ranks (`q` in `[0, 1]`) over an
/// already sorted slice — the median of an even count is the mean of
/// the middle two.
fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles of `samples`.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no sample is a harness bug.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let s = sorted(samples);
    Summary {
        n: s.len(),
        median: interpolate(&s, 0.5),
        q1: interpolate(&s, 0.25),
        q3: interpolate(&s, 0.75),
        p5: interpolate(&s, 0.05),
        p95: interpolate(&s, 0.95),
        min: s[0],
        max: s[s.len() - 1],
    }
}

/// The median alone.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Mean of the lowest `keep` share of the samples (at least one).
///
/// For a small-integer quantity spread over two neighbouring values —
/// fifty alarm delays of 5 or 6 windows — the median and every other
/// rank statistic sit on the boundary between the two and jump with
/// the mix; the mean uses every sample and moves by hundredths. The
/// trim keeps a known slow tail from deciding it.
pub fn mean_of_lowest(samples: &[f64], keep: f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "mean_of_lowest needs at least one sample"
    );
    let s = sorted(samples);
    let n = ((s.len() as f64 * keep).floor() as usize).clamp(1, s.len());
    s[..n].iter().sum::<f64>() / n as f64
}

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample
/// with at least `p` % of the samples at or below it. Never
/// interpolates, so a reported tail latency is one that happened.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile needs at least one sample");
    let s = sorted(samples);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of [`PERCENTILES`] that still has
/// [`MIN_SAMPLES_BEYOND`] of `n` samples above it; `None` when even
/// the median does not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // In hundredths of a percent, so that "10 of 100 samples lie beyond
    // p90" is a whole-number comparison and not a rounding accident.
    let beyond = |p: f64| n as u64 * (10_000 - (p * 100.0).round() as u64);
    PERCENTILES
        .iter()
        .copied()
        .rfind(|&p| beyond(p) >= MIN_SAMPLES_BEYOND * 10_000)
}

/// Readings attempted and failed over every rep of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Adds one rep: `failed` readings were refused, dropped or left
    /// unacknowledged — unless the rep's output check failed, in which
    /// case nothing it produced can be trusted and every reading it
    /// attempted counts as failed.
    pub fn add_rep(&mut self, attempted: u64, failed: u64, output_ok: bool) {
        self.attempted += attempted;
        self.failed += if output_ok {
            failed.min(attempted)
        } else {
            attempted
        };
    }

    /// `failed ÷ attempted`, floored at one reading of one rep: a run
    /// of `n` readings cannot resolve a failure share below `1/n`, and
    /// the floor keeps the metric off zero, where a relative bound
    /// means nothing.
    pub fn failed_share(&self, readings_per_rep: u64) -> f64 {
        let floor = 1.0 / readings_per_rep.max(1) as f64;
        if self.attempted == 0 {
            return 1.0;
        }
        (self.failed as f64 / self.attempted as f64).max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        assert_eq!((s.p5, s.p95), (1.2, 4.8));
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.q3), (12.5, 17.5));
    }

    #[test]
    fn mean_of_lowest_drops_the_slow_tail_and_uses_every_kept_sample() {
        // 8 samples, keep three quarters: the two 72s are dropped.
        let delays = [5.0, 6.0, 5.0, 72.0, 6.0, 6.0, 72.0, 5.0];
        assert_eq!(mean_of_lowest(&delays, 0.75), 33.0 / 6.0);
        // One more five instead of a six moves it by a sixth, not by a
        // whole window.
        let mixed = [5.0, 5.0, 5.0, 72.0, 6.0, 6.0, 72.0, 5.0];
        assert_eq!(mean_of_lowest(&mixed, 0.75), 32.0 / 6.0);
        // One more window on every sensor moves it by one.
        let later: Vec<f64> = delays.iter().map(|v| v + 1.0).collect();
        assert_eq!(mean_of_lowest(&later, 0.75), 33.0 / 6.0 + 1.0);
        // A third never-alarming sensor no longer fits in the dropped
        // quarter, and the number says so loudly.
        let worse = [5.0, 6.0, 5.0, 72.0, 6.0, 72.0, 72.0, 5.0];
        assert!(mean_of_lowest(&worse, 0.75) > 16.0);
        assert_eq!(mean_of_lowest(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn percentile_is_a_sample_that_happened() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 9.0], 1.0), 5.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(50_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
    }

    #[test]
    fn decreasing_map_swaps_quartiles() {
        let wall = summarize(&[1.0, 2.0, 4.0]);
        let rate = wall.map(|s| 8.0 / s);
        assert_eq!(rate.median, 4.0);
        assert!(rate.q1 < rate.median && rate.median < rate.q3);
        assert!(rate.p5 < rate.q1 && rate.q3 < rate.p95);
        assert_eq!((rate.min, rate.max), (2.0, 8.0));
    }

    #[test]
    fn failed_share_counts_refusals_against_attempts() {
        let mut t = Tally::default();
        t.add_rep(1_000, 0, true);
        t.add_rep(1_000, 25, true);
        assert_eq!(
            t,
            Tally {
                attempted: 2_000,
                failed: 25
            }
        );
        assert_eq!(t.failed_share(1_000), 25.0 / 2_000.0);
    }

    #[test]
    fn failed_output_check_fails_every_reading_of_the_rep() {
        let mut t = Tally::default();
        t.add_rep(1_000, 0, true);
        t.add_rep(1_000, 3, false);
        assert_eq!(t.failed, 1_000);
        assert_eq!(t.failed_share(1_000), 0.5);
    }

    #[test]
    fn clean_run_reports_the_resolution_floor_not_zero() {
        let mut t = Tally::default();
        t.add_rep(1_000, 0, true);
        t.add_rep(1_000, 0, true);
        assert_eq!(t.failed_share(1_000), 1.0 / 1_000.0);
        assert_eq!(Tally::default().failed_share(1_000), 1.0);
    }
}
