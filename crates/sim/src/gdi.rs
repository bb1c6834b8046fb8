//! Great Duck Island presets (paper §4).
//!
//! The paper's evaluation uses one month of data from 10 outside motes
//! sampling temperature and humidity every 5 minutes. These presets
//! reproduce that workload on the calibrated diurnal environment and
//! expose the key model states the paper reports, for calibration
//! assertions in benchmarks.

use crate::environment::{EnvironmentModel, DAY_S};
use crate::network::{AttributeRange, SimConfig};

/// Number of outside motes used by the paper's experiments.
pub const NUM_SENSORS: u16 = 10;

/// GDI sampling period: 5 minutes.
pub const SAMPLE_PERIOD: u64 = 300;

/// The four key environment states of the paper's Fig. 7, as
/// (temperature, humidity) tuples.
pub const KEY_STATES: [(f64, f64); 4] = [(12.0, 94.0), (17.0, 84.0), (24.0, 70.0), (31.0, 56.0)];

/// Packet loss probability calibrated to the paper's remark that "about
/// a hundred sensor readings [are available] in average" per 12-sample
/// window of 10 sensors (i.e. ≈ 17% of 120 packets unusable).
pub const LOSS_PROB: f64 = 0.12;

/// Malformed packet probability (delivered but discarded).
const MALFORMED_PROB: f64 = 0.05;

/// Per-attribute measurement noise (°C, %RH).
const NOISE_STD: [f64; 2] = [0.6, 1.5];

fn base_config(duration: u64) -> SimConfig {
    SimConfig {
        num_sensors: NUM_SENSORS,
        sample_period: SAMPLE_PERIOD,
        duration,
        noise_std: NOISE_STD.to_vec(),
        ranges: vec![
            AttributeRange::new(-40.0, 60.0),
            AttributeRange::new(0.0, 100.0),
        ],
        loss_prob: LOSS_PROB,
        burst: None,
        malformed_prob: MALFORMED_PROB,
        environment: EnvironmentModel::gdi(),
    }
}

/// One simulated day — the Fig. 6 workload.
pub fn day_config() -> SimConfig {
    base_config(DAY_S)
}

/// One simulated month (30 days) — the workload behind Fig. 7, the
/// fault-classification study (Tables 2–5), and the attack studies.
pub fn month_config() -> SimConfig {
    base_config(30 * DAY_S)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::simulate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn month_has_expected_volume() {
        let c = month_config();
        c.validate();
        // 30 days × 288 samples/day × 10 sensors.
        assert_eq!(c.num_samples() * c.num_sensors as u64, 86_400);
    }

    #[test]
    fn key_states_lie_on_environment_curve() {
        for (t, h) in KEY_STATES {
            assert!((h - (118.0 - 2.0 * t)).abs() < 1e-9);
        }
    }

    #[test]
    fn average_readings_per_window_match_paper() {
        // Paper: "about a hundred sensor readings in average" per
        // 12-sample window (120 packets max).
        let c = day_config();
        let trace = simulate(&c, &mut StdRng::seed_from_u64(1));
        let delivered = trace.delivered().count() as f64;
        let windows = c.num_samples() as f64 / 12.0;
        let per_window = delivered / windows;
        assert!(
            (95.0..=105.0).contains(&per_window),
            "deliveries per window: {per_window}"
        );
    }

    #[test]
    fn day_and_week_durations() {
        assert_eq!(day_config().duration, 86_400);
        assert_eq!(base_config(7 * DAY_S).duration, 7 * 86_400);
    }
}
