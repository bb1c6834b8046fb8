//! Sensor and network models: from `Θ(t)` to the collector's trace.
//!
//! Each sensor `j` periodically samples `p_j = Θ(t) + N_j` (zero-mean
//! Gaussian noise, §3.1) and sends a `⟨t, p⟩` message to the collector.
//! The lossy wireless link drops some packets and corrupts others —
//! the paper notes the GDI data contains "missing and malformed sensor
//! packets", which this module reproduces with Bernoulli models.

use crate::environment::EnvironmentModel;
use crate::stats::{clamp, Gaussian};
use crate::types::{Payload, Reading, SensorId, Timestamp, Trace, TraceRecord};
use rand::Rng;

/// Admissible range of one attribute; readings are clamped into it
/// (e.g. relative humidity lives in `[0, 100]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributeRange {
    /// Lower admissible bound.
    pub lo: f64,
    /// Upper admissible bound.
    pub hi: f64,
}

impl AttributeRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid attribute range [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Clamps `x` into the range.
    pub fn clamp(&self, x: f64) -> f64 {
        clamp(x, self.lo, self.hi)
    }
}

/// Gilbert–Elliott burst-loss parameters: each sensor's link is a
/// two-state Markov chain (Good/Bad). In Good the packet-loss
/// probability is the config's base `loss_prob`; in Bad it is
/// `loss_bad`. Real mote radios lose packets in bursts (fading,
/// collisions, dying hardware), not independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Per-sample probability of a Good → Bad transition.
    pub p_enter_bad: f64,
    /// Per-sample probability of a Bad → Good transition.
    pub p_exit_bad: f64,
    /// Packet-loss probability while the link is Bad.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// Stationary fraction of time the link spends in the Bad state.
    fn bad_fraction(&self) -> f64 {
        self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad)
    }

    /// Long-run average packet-loss probability given the Good-state
    /// base loss `loss_good`.
    pub fn average_loss(&self, loss_good: f64) -> f64 {
        let pb = self.bad_fraction();
        (1.0 - pb) * loss_good + pb * self.loss_bad
    }

    fn validate(&self) {
        assert!(
            self.p_enter_bad > 0.0
                && self.p_enter_bad <= 1.0
                && self.p_exit_bad > 0.0
                && self.p_exit_bad <= 1.0
                && (0.0..=1.0).contains(&self.loss_bad),
            "invalid burst-loss parameters {self:?}"
        );
    }
}

/// Full simulation scenario configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of sensors `K` reporting to the collector.
    pub num_sensors: u16,
    /// Sampling period in seconds (GDI: 300 s = 5 minutes).
    pub sample_period: u64,
    /// Total simulated duration in seconds.
    pub duration: u64,
    /// Per-attribute measurement noise standard deviation.
    pub noise_std: Vec<f64>,
    /// Per-attribute admissible ranges (readings are clamped).
    pub ranges: Vec<AttributeRange>,
    /// Probability a packet is lost in transit (the Good-state loss
    /// when `burst` is set).
    pub loss_prob: f64,
    /// Optional Gilbert–Elliott burst-loss model layered on top of the
    /// base loss probability.
    pub burst: Option<BurstLoss>,
    /// Probability a delivered packet is malformed and discarded.
    pub malformed_prob: f64,
    /// The hidden environment process.
    pub environment: EnvironmentModel,
}

impl SimConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when dimensions disagree or probabilities leave `[0, 1]` —
    /// configs are construction-time values, so this is a programmer
    /// error, not a runtime condition.
    pub fn validate(&self) {
        let n = self.environment.num_attributes();
        assert!(self.num_sensors > 0, "need at least one sensor");
        assert!(self.sample_period > 0, "sample period must be positive");
        assert_eq!(self.noise_std.len(), n, "noise dims must match environment");
        assert_eq!(self.ranges.len(), n, "range dims must match environment");
        assert!(
            (0.0..=1.0).contains(&self.loss_prob) && (0.0..=1.0).contains(&self.malformed_prob),
            "probabilities must be in [0, 1]"
        );
        if let Some(b) = &self.burst {
            b.validate();
        }
    }

    /// Number of sampling instants in the scenario.
    pub fn num_samples(&self) -> u64 {
        self.duration / self.sample_period
    }
}

/// Simulates the scenario, producing the collector-side [`Trace`].
///
/// Every sensor samples at every multiple of `sample_period`; the trace
/// records delivered readings as well as lost/malformed packets (the
/// latter two carry no reading and are ignored by the collector but are
/// kept for ground-truth accounting).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sentinet_sim::{gdi, simulate};
///
/// let cfg = gdi::day_config();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let trace = simulate(&cfg, &mut rng);
/// assert!(trace.delivered().count() > 0);
/// ```
pub fn simulate<R: Rng + ?Sized>(config: &SimConfig, rng: &mut R) -> Trace {
    config.validate();
    let noise: Vec<Gaussian> = config
        .noise_std
        .iter()
        .map(|&s| Gaussian::new(0.0, s))
        .collect();
    let mut records =
        Vec::with_capacity((config.num_samples() as usize) * config.num_sensors as usize);
    // Per-sensor Gilbert–Elliott link state (false = Good).
    let mut link_bad = vec![false; config.num_sensors as usize];
    let mut t = 0u64;
    while t < config.duration {
        let theta = config.environment.value(t);
        for s in 0..config.num_sensors {
            let loss_prob = match &config.burst {
                Some(b) => {
                    let bad = &mut link_bad[s as usize];
                    if *bad {
                        if rng.gen::<f64>() < b.p_exit_bad {
                            *bad = false;
                        }
                    } else if rng.gen::<f64>() < b.p_enter_bad {
                        *bad = true;
                    }
                    if *bad {
                        b.loss_bad
                    } else {
                        config.loss_prob
                    }
                }
                None => config.loss_prob,
            };
            let payload = if rng.gen::<f64>() < loss_prob {
                Payload::Lost
            } else if rng.gen::<f64>() < config.malformed_prob {
                Payload::Malformed
            } else {
                let values: Vec<f64> = theta
                    .iter()
                    .zip(&noise)
                    .zip(&config.ranges)
                    .map(|((&th, g), r)| r.clamp(th + g.sample(rng)))
                    .collect();
                Payload::Delivered(Reading::new(values))
            };
            records.push(TraceRecord {
                time: t,
                sensor: SensorId(s),
                payload,
            });
        }
        t += config.sample_period;
    }
    Trace::from_records(records)
}

/// Ground truth for a scenario: the noiseless environment value at each
/// sampling instant, as `(time, Θ(t))` pairs. Benchmarks compare the
/// recovered Markov model `M_C` against this.
pub fn ground_truth(config: &SimConfig) -> Vec<(Timestamp, Vec<f64>)> {
    let mut out = Vec::with_capacity(config.num_samples() as usize);
    let mut t = 0u64;
    while t < config.duration {
        out.push((t, config.environment.value(t)));
        t += config.sample_period;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> SimConfig {
        SimConfig {
            num_sensors: 5,
            sample_period: 300,
            duration: 3_600,
            noise_std: vec![0.5, 1.0],
            ranges: vec![
                AttributeRange::new(-40.0, 60.0),
                AttributeRange::new(0.0, 100.0),
            ],
            loss_prob: 0.1,
            burst: None,
            malformed_prob: 0.05,
            environment: EnvironmentModel::gdi(),
        }
    }

    fn burst() -> BurstLoss {
        BurstLoss {
            p_enter_bad: 0.02,
            p_exit_bad: 0.2,
            loss_bad: 0.9,
        }
    }

    #[test]
    fn burst_average_loss_matches_formula() {
        let mut c = cfg();
        c.duration = 300 * 20_000;
        c.num_sensors = 1;
        c.loss_prob = 0.05;
        c.burst = Some(burst());
        let mut rng = StdRng::seed_from_u64(21);
        let trace = simulate(&c, &mut rng);
        let expect_loss = burst().average_loss(0.05);
        // Observed bad fraction includes malformed (5% of delivered):
        // bad = loss + (1 - loss)·malformed.
        let expect = expect_loss + (1.0 - expect_loss) * 0.05;
        let rate = trace.loss_rate();
        assert!((rate - expect).abs() < 0.02, "rate {rate} vs {expect}");
    }

    #[test]
    fn burst_losses_are_bursty() {
        // At matched average loss, GE loss runs are much longer than
        // Bernoulli runs.
        fn mean_loss_run(trace: &Trace) -> f64 {
            let mut runs = Vec::new();
            let mut run = 0usize;
            for r in trace.records() {
                if matches!(r.payload, Payload::Lost) {
                    run += 1;
                } else if run > 0 {
                    runs.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                runs.push(run);
            }
            runs.iter().sum::<usize>() as f64 / runs.len().max(1) as f64
        }
        let mut base = cfg();
        base.num_sensors = 1;
        base.duration = 300 * 30_000;
        base.malformed_prob = 0.0;
        let b = burst();
        let avg = b.average_loss(0.02);

        let mut ge = base.clone();
        ge.loss_prob = 0.02;
        ge.burst = Some(b);
        let mut bern = base.clone();
        bern.loss_prob = avg;

        let ge_trace = simulate(&ge, &mut StdRng::seed_from_u64(31));
        let bern_trace = simulate(&bern, &mut StdRng::seed_from_u64(31));
        let ge_run = mean_loss_run(&ge_trace);
        let bern_run = mean_loss_run(&bern_trace);
        assert!(
            ge_run > 1.5 * bern_run,
            "GE runs {ge_run:.2} vs Bernoulli {bern_run:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid burst-loss")]
    fn invalid_burst_params_panic() {
        let mut c = cfg();
        c.burst = Some(BurstLoss {
            p_enter_bad: 0.0,
            p_exit_bad: 0.5,
            loss_bad: 0.9,
        });
        c.validate();
    }

    #[test]
    fn simulate_produces_expected_record_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let trace = simulate(&cfg(), &mut rng);
        // 12 sampling instants × 5 sensors.
        assert_eq!(trace.len(), 60);
    }

    #[test]
    fn loss_rates_are_plausible() {
        let mut c = cfg();
        c.duration = 300 * 2_000;
        let mut rng = StdRng::seed_from_u64(2);
        let trace = simulate(&c, &mut rng);
        // Expected bad fraction = loss + (1-loss)·malformed ≈ 0.145.
        let rate = trace.loss_rate();
        assert!((rate - 0.145).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn zero_loss_delivers_everything() {
        let mut c = cfg();
        c.loss_prob = 0.0;
        c.malformed_prob = 0.0;
        let mut rng = StdRng::seed_from_u64(3);
        let trace = simulate(&c, &mut rng);
        assert_eq!(trace.delivered().count(), trace.len());
    }

    #[test]
    fn readings_track_environment() {
        let mut c = cfg();
        c.loss_prob = 0.0;
        c.malformed_prob = 0.0;
        c.noise_std = vec![0.1, 0.1];
        let mut rng = StdRng::seed_from_u64(4);
        let trace = simulate(&c, &mut rng);
        for (t, _, reading) in trace.delivered() {
            let theta = c.environment.value(t);
            assert!((reading.values()[0] - theta[0]).abs() < 1.0);
            assert!((reading.values()[1] - theta[1]).abs() < 1.0);
        }
    }

    #[test]
    fn readings_respect_ranges() {
        let mut c = cfg();
        c.noise_std = vec![50.0, 50.0]; // huge noise to force clamping
        let mut rng = StdRng::seed_from_u64(5);
        let trace = simulate(&c, &mut rng);
        for (_, _, r) in trace.delivered() {
            assert!((-40.0..=60.0).contains(&r.values()[0]));
            assert!((0.0..=100.0).contains(&r.values()[1]));
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let c = cfg();
        let t1 = simulate(&c, &mut StdRng::seed_from_u64(9));
        let t2 = simulate(&c, &mut StdRng::seed_from_u64(9));
        assert_eq!(t1, t2);
    }

    #[test]
    fn ground_truth_matches_sampling_grid() {
        let c = cfg();
        let gt = ground_truth(&c);
        assert_eq!(gt.len(), 12);
        assert_eq!(gt[0].0, 0);
        assert_eq!(gt[11].0, 3_300);
    }

    #[test]
    #[should_panic(expected = "noise dims")]
    fn validate_catches_dimension_mismatch() {
        let mut c = cfg();
        c.noise_std = vec![0.5];
        c.validate();
    }

    #[test]
    #[should_panic(expected = "invalid attribute range")]
    fn bad_range_panics() {
        AttributeRange::new(5.0, 1.0);
    }
}
