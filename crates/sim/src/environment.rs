//! Environment models: the hidden multi-dimensional process `Θ(t)`.
//!
//! The paper models the sensed phenomenon as an unknown parameter vector
//! `Θ(t)` changing slowly relative to the observation window (§3.1). For
//! the Great Duck Island reproduction, [`EnvironmentModel::gdi`] builds
//! a diurnal temperature/humidity process calibrated so that the online
//! clustering recovers the paper's four key states
//! (12, 94), (17, 84), (24, 70), (31, 56) — which lie exactly on the
//! line `H = 118 − 2·T` (a fact we exploit for calibration).

use std::f64::consts::PI;

/// Seconds in a simulated day.
pub const DAY_S: u64 = 86_400;

/// The hidden environment process `Θ(t)`.
///
/// Implemented as an enum (not a trait object) so simulation configs
/// stay serializable and comparable.
///
/// # Examples
///
/// ```
/// use sentinet_sim::EnvironmentModel;
///
/// let env = EnvironmentModel::gdi();
/// let theta = env.value(6 * 3600); // 6 AM
/// assert_eq!(theta.len(), 2);      // temperature, humidity
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum EnvironmentModel {
    /// Constant environment — every attribute fixed. Useful in unit
    /// tests and as a building block of attack scenarios.
    Constant(Vec<f64>),
    /// A day-periodic sinusoidal temperature with linearly coupled
    /// humidity, mimicking the GDI coastal climate.
    Diurnal(DiurnalParams),
    /// Piecewise-constant schedule: ordered `(start_time, values)`
    /// segments; the last segment extends to infinity.
    Piecewise(Vec<(u64, Vec<f64>)>),
}

/// Parameters of the diurnal model.
///
/// Temperature follows
/// `T(t) = T_min + (T_max − T_min)·(1 − cos(2π·(t − t_peak_offset)/day))/2`
/// and humidity is `H = h_intercept + h_slope·T`, clamped to
/// `[0, 100]` — the coupling observed in the paper's Fig. 6/7 states.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalParams {
    /// Daily minimum temperature (°C), reached at night.
    pub t_min: f64,
    /// Daily maximum temperature (°C), reached mid-afternoon.
    pub t_max: f64,
    /// Seconds after midnight at which temperature is minimal.
    pub trough_time: u64,
    /// Humidity intercept in `H = h_intercept + h_slope · T`.
    pub h_intercept: f64,
    /// Humidity slope (negative: warm air is drier on GDI).
    pub h_slope: f64,
    /// Day-to-day temperature modulation amplitude (°C); a slow
    /// multi-day wobble so one month of data is not 30 identical days.
    pub seasonal_amplitude: f64,
    /// Period of the slow modulation in days.
    pub seasonal_period_days: f64,
    /// Linear climate trend in °C per day (heat waves, cold fronts,
    /// seasonal progression). The online clustering must track it.
    pub trend_per_day: f64,
}

impl Default for DiurnalParams {
    fn default() -> Self {
        Self {
            t_min: 12.0,
            t_max: 31.0,
            trough_time: 4 * 3600, // coldest at 4 AM
            h_intercept: 118.0,
            h_slope: -2.0,
            seasonal_amplitude: 1.5,
            seasonal_period_days: 9.0,
            trend_per_day: 0.0,
        }
    }
}

impl EnvironmentModel {
    /// The Great-Duck-Island-calibrated diurnal environment used by all
    /// paper-reproduction experiments.
    pub fn gdi() -> Self {
        EnvironmentModel::Diurnal(DiurnalParams::default())
    }

    /// Number of attributes this model produces.
    pub fn num_attributes(&self) -> usize {
        match self {
            EnvironmentModel::Constant(v) => v.len(),
            EnvironmentModel::Diurnal(_) => 2,
            EnvironmentModel::Piecewise(segs) => segs.first().map(|(_, v)| v.len()).unwrap_or(0),
        }
    }

    /// Evaluates `Θ(t)`.
    ///
    /// # Panics
    ///
    /// Panics for an empty [`EnvironmentModel::Piecewise`] schedule.
    pub fn value(&self, t: u64) -> Vec<f64> {
        match self {
            EnvironmentModel::Constant(v) => v.clone(),
            EnvironmentModel::Diurnal(p) => {
                let day_phase =
                    2.0 * PI * ((t + DAY_S - p.trough_time % DAY_S) % DAY_S) as f64 / DAY_S as f64;
                let seasonal = p.seasonal_amplitude
                    * (2.0 * PI * t as f64 / (p.seasonal_period_days * DAY_S as f64)).sin();
                let trend = p.trend_per_day * t as f64 / DAY_S as f64;
                let temp = p.t_min
                    + (p.t_max - p.t_min) * (1.0 - day_phase.cos()) / 2.0
                    + seasonal
                    + trend;
                let hum = (p.h_intercept + p.h_slope * temp).clamp(0.0, 100.0);
                vec![temp, hum]
            }
            EnvironmentModel::Piecewise(segs) => {
                assert!(!segs.is_empty(), "piecewise schedule must be non-empty");
                let mut current = &segs[0].1;
                for (start, v) in segs {
                    if *start <= t {
                        current = v;
                    } else {
                        break;
                    }
                }
                current.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model() {
        let env = EnvironmentModel::Constant(vec![20.0, 70.0]);
        assert_eq!(env.value(0), vec![20.0, 70.0]);
        assert_eq!(env.value(1_000_000), vec![20.0, 70.0]);
        assert_eq!(env.num_attributes(), 2);
    }

    #[test]
    fn diurnal_extremes_at_trough_and_peak() {
        let p = DiurnalParams {
            seasonal_amplitude: 0.0,
            ..Default::default()
        };
        let env = EnvironmentModel::Diurnal(p.clone());
        let at_trough = env.value(p.trough_time);
        assert!(
            (at_trough[0] - p.t_min).abs() < 1e-9,
            "trough {at_trough:?}"
        );
        let at_peak = env.value(p.trough_time + DAY_S / 2);
        assert!((at_peak[0] - p.t_max).abs() < 1e-9, "peak {at_peak:?}");
    }

    #[test]
    fn diurnal_humidity_coupling_hits_paper_states() {
        let p = DiurnalParams {
            seasonal_amplitude: 0.0,
            ..Default::default()
        };
        let env = EnvironmentModel::Diurnal(p);
        // At the trough T=12 → H=94; at the peak T=31 → H=56.
        let lo = env.value(4 * 3600);
        assert!((lo[0] - 12.0).abs() < 1e-9 && (lo[1] - 94.0).abs() < 1e-9);
        let hi = env.value(16 * 3600);
        assert!((hi[0] - 31.0).abs() < 1e-9 && (hi[1] - 56.0).abs() < 1e-9);
        // Intermediate paper states (17,84) and (24,70) lie on the curve:
        // solve T for 17 and 24 — the coupling guarantees H.
        for t in (0..DAY_S).step_by(300) {
            let v = env.value(t);
            assert!((v[1] - (118.0 - 2.0 * v[0])).abs() < 1e-9);
        }
    }

    #[test]
    fn diurnal_is_day_periodic_without_seasonal() {
        let p = DiurnalParams {
            seasonal_amplitude: 0.0,
            ..Default::default()
        };
        let env = EnvironmentModel::Diurnal(p);
        for t in [0u64, 3_600, 40_000] {
            assert_eq!(env.value(t), env.value(t + DAY_S));
        }
    }

    #[test]
    fn seasonal_wobble_changes_days() {
        let env = EnvironmentModel::gdi();
        let d0 = env.value(12 * 3600);
        let d4 = env.value(12 * 3600 + 4 * DAY_S);
        assert!((d0[0] - d4[0]).abs() > 0.1, "seasonal modulation absent");
    }

    #[test]
    fn humidity_clamped_to_admissible_range() {
        let p = DiurnalParams {
            t_min: -20.0, // would push H above 100
            t_max: 80.0,  // would push H below 0
            seasonal_amplitude: 0.0,
            ..Default::default()
        };
        let env = EnvironmentModel::Diurnal(p);
        for t in (0..DAY_S).step_by(600) {
            let v = env.value(t);
            assert!((0.0..=100.0).contains(&v[1]), "H out of range: {v:?}");
        }
    }

    #[test]
    fn trend_shifts_days_linearly() {
        let p = DiurnalParams {
            seasonal_amplitude: 0.0,
            trend_per_day: 0.5,
            ..Default::default()
        };
        let env = EnvironmentModel::Diurnal(p);
        let d0 = env.value(12 * 3600)[0];
        let d10 = env.value(12 * 3600 + 10 * DAY_S)[0];
        assert!((d10 - d0 - 5.0).abs() < 1e-9, "trend drift {}", d10 - d0);
    }

    #[test]
    fn piecewise_schedule() {
        let env = EnvironmentModel::Piecewise(vec![
            (0, vec![10.0]),
            (100, vec![20.0]),
            (200, vec![30.0]),
        ]);
        assert_eq!(env.value(0), vec![10.0]);
        assert_eq!(env.value(99), vec![10.0]);
        assert_eq!(env.value(100), vec![20.0]);
        assert_eq!(env.value(5_000), vec![30.0]);
        assert_eq!(env.num_attributes(), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_piecewise_panics() {
        EnvironmentModel::Piecewise(vec![]).value(0);
    }
}
