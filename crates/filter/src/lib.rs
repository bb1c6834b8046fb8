//! Alarm filtering and change detection for the `sentinet`
//! sensor-network error/attack detector.
//!
//! The paper's Alarm Filtering module (§3.1) smooths noisy raw alarm
//! streams (Fig. 12 shows ≈ 1.5 % false raw alarms on a healthy sensor)
//! before they open error/attack tracks. Four interchangeable policies
//! are provided:
//!
//! - [`KOfNFilter`] — the paper's simple "k raw alarms in the last n
//!   steps" filter;
//! - [`Sprt`] — Wald's Sequential Probability Ratio Test on the alarm
//!   rate;
//! - [`Cusum`] — tabular CUSUM on a numeric statistic;
//! - [`EwmaChart`] — EWMA control chart.
//!
//! Boolean-input policies implement [`AlarmFilter`], so the detection
//! pipeline can swap them at run time.
//!
//! # Examples
//!
//! ```
//! use sentinet_filter::{AlarmFilter, KOfNFilter, SprtAlarmFilter};
//!
//! let mut filters: Vec<Box<dyn AlarmFilter>> = vec![
//!     Box::new(KOfNFilter::new(3, 5)),
//!     Box::new(SprtAlarmFilter::balanced()),
//! ];
//! for f in &mut filters {
//!     for _ in 0..10 {
//!         f.push(true);
//!     }
//!     assert!(f.is_raised());
//! }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cusum;
mod ewma;
mod kofn;
mod sprt;

pub use cusum::Cusum;
pub use ewma::EwmaChart;
pub use kofn::KOfNFilter;
pub use sprt::{Sprt, SprtDecision};

/// A boolean alarm smoother: raw alarms in, filtered alarm state out.
///
/// Implementations must be monotone in the obvious sense: a stream of
/// `true` eventually raises, a stream of `false` eventually clears (or
/// keeps the filter silent).
pub trait AlarmFilter: std::fmt::Debug + Send {
    /// Feeds one raw alarm flag; returns the filtered alarm state.
    fn push(&mut self, raw: bool) -> bool;
    /// The current filtered alarm state.
    fn is_raised(&self) -> bool;
    /// Clears all filter memory.
    fn reset(&mut self);
    /// Captures the complete filter state for checkpointing; feeding
    /// the snapshot to [`FilterSnapshot::restore`] yields a filter that
    /// behaves bit-identically from this point on.
    fn snapshot(&self) -> FilterSnapshot;
}

/// Plain-data image of an [`AlarmFilter`]'s state, used to checkpoint
/// and restore per-sensor runtimes.
///
/// All floating-point fields are stored verbatim (log-domain for SPRT),
/// so `restore` reproduces the source filter bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterSnapshot {
    /// State of a [`KOfNFilter`]: parameters plus the boolean window,
    /// oldest entry first.
    KOfN {
        /// Raw alarms required within the window.
        k: usize,
        /// Window length.
        n: usize,
        /// Window contents, oldest first (`len <= n`).
        window: Vec<bool>,
    },
    /// State of a [`SprtAlarmFilter`]: the fixed log-domain constants,
    /// the running log-likelihood ratio, and the latched output.
    Sprt {
        /// Per-alarm LLR increment.
        llr_true: f64,
        /// Per-silence LLR increment.
        llr_false: f64,
        /// Wald upper threshold `A`.
        upper: f64,
        /// Wald lower threshold `B`.
        lower: f64,
        /// Running log-likelihood ratio.
        llr: f64,
        /// Observations consumed since the last reset.
        steps: u64,
        /// Latched filtered-alarm output.
        raised: bool,
    },
}

impl FilterSnapshot {
    /// Rebuilds the filter this snapshot was taken from.
    ///
    /// # Errors
    ///
    /// A description of the violated bound when a k-of-n snapshot — read
    /// back from a checkpoint, so untrusted — does not satisfy
    /// `1 <= k <= n` and `window.len() <= n`.
    pub fn restore(self) -> Result<Box<dyn AlarmFilter>, String> {
        Ok(match self {
            FilterSnapshot::KOfN { k, n, window } => {
                if k < 1 || k > n || window.len() > n {
                    return Err(format!(
                        "k-of-n filter needs 1 <= k <= n and at most n window bits \
                         (got k={k}, n={n}, {} bits)",
                        window.len()
                    ));
                }
                Box::new(KOfNFilter::from_parts(k, n, window))
            }
            FilterSnapshot::Sprt {
                llr_true,
                llr_false,
                upper,
                lower,
                llr,
                steps,
                raised,
            } => Box::new(SprtAlarmFilter {
                sprt: Sprt::from_parts(llr_true, llr_false, upper, lower, llr, steps),
                raised,
            }),
        })
    }
}

impl AlarmFilter for KOfNFilter {
    fn push(&mut self, raw: bool) -> bool {
        KOfNFilter::push(self, raw)
    }
    fn is_raised(&self) -> bool {
        KOfNFilter::is_raised(self)
    }
    fn reset(&mut self) {
        KOfNFilter::reset(self)
    }
    fn snapshot(&self) -> FilterSnapshot {
        FilterSnapshot::KOfN {
            k: self.k(),
            n: self.n(),
            window: self.window_bits(),
        }
    }
}

/// [`Sprt`] adapted to the [`AlarmFilter`] interface: `AcceptH1` raises
/// the filtered alarm; `AcceptH0` clears it and restarts the test so
/// the sensor keeps being monitored.
#[derive(Debug, Clone, PartialEq)]
pub struct SprtAlarmFilter {
    sprt: Sprt,
    raised: bool,
}

impl SprtAlarmFilter {
    /// Wraps an [`Sprt`] as an alarm filter.
    pub fn new(sprt: Sprt) -> Self {
        Self {
            sprt,
            raised: false,
        }
    }

    /// A reasonable default: healthy rate 5 %, faulty rate 60 %, 1 %
    /// error rates (matches the paper's Fig. 12 false-alarm regime).
    pub fn balanced() -> Self {
        Self::new(Sprt::new(0.05, 0.6, 0.01, 0.01))
    }
}

impl AlarmFilter for SprtAlarmFilter {
    fn push(&mut self, raw: bool) -> bool {
        match self.sprt.push(raw) {
            SprtDecision::AcceptH1 => {
                self.raised = true;
                self.sprt.reset();
            }
            SprtDecision::AcceptH0 => {
                self.raised = false;
                self.sprt.reset();
            }
            SprtDecision::Continue => {}
        }
        self.raised
    }
    fn is_raised(&self) -> bool {
        self.raised
    }
    fn reset(&mut self) {
        self.sprt.reset();
        self.raised = false;
    }
    fn snapshot(&self) -> FilterSnapshot {
        let (llr_true, llr_false, upper, lower, llr, steps) = self.sprt.parts();
        FilterSnapshot::Sprt {
            llr_true,
            llr_false,
            upper,
            lower,
            llr,
            steps,
            raised: self.raised,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sprt_filter_raises_and_clears() {
        let mut f = SprtAlarmFilter::balanced();
        for _ in 0..20 {
            f.push(true);
        }
        assert!(f.is_raised());
        for _ in 0..100 {
            f.push(false);
        }
        assert!(!f.is_raised());
    }

    #[test]
    fn trait_object_usage() {
        let mut f: Box<dyn AlarmFilter> = Box::new(KOfNFilter::new(2, 4));
        f.push(true);
        assert!(f.push(true));
        f.reset();
        assert!(!f.is_raised());
    }

    #[test]
    fn sprt_filter_reset() {
        let mut f = SprtAlarmFilter::balanced();
        for _ in 0..20 {
            f.push(true);
        }
        f.reset();
        assert!(!f.is_raised());
    }

    /// Snapshot/restore must be transparent: the restored filter and
    /// the original produce identical outputs on any continuation.
    #[test]
    fn snapshot_restore_is_transparent() {
        let continuation = [true, false, true, true, false, false, true, false];
        let originals: Vec<Box<dyn AlarmFilter>> = vec![
            Box::new(KOfNFilter::new(2, 4)),
            Box::new(SprtAlarmFilter::balanced()),
        ];
        for mut original in originals {
            for i in 0..7 {
                original.push(i % 3 == 0);
            }
            let mut restored = original.snapshot().restore().expect("valid snapshot");
            assert_eq!(restored.is_raised(), original.is_raised());
            for &raw in &continuation {
                assert_eq!(original.push(raw), restored.push(raw));
            }
            assert_eq!(original.snapshot(), restored.snapshot());
        }
    }

    /// A snapshot is read back from disk: bounds a live filter asserts
    /// are errors there, not panics.
    #[test]
    fn restore_rejects_out_of_bounds_kofn_parts() {
        for (k, n, bits) in [(0, 4, 0), (5, 4, 0), (2, 4, 5)] {
            let snapshot = FilterSnapshot::KOfN {
                k,
                n,
                window: vec![true; bits],
            };
            assert!(snapshot.restore().is_err(), "k={k} n={n} bits={bits}");
        }
    }
}
