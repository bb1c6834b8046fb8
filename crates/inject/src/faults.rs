//! Accidental-error injection (paper §3.3, *sensor fault model*).
//!
//! Transforms a clean trace by corrupting the delivered readings of a
//! chosen sensor according to one of the paper's fault models:
//! stuck-at-value, calibration (multiplicative), additive, and random
//! noise — plus the drift-to-stuck behaviour the paper actually observed
//! on GDI sensor 6 (humidity decaying to ≈ 0 and sticking, Fig. 8).

use rand::Rng;
use sentinet_sim::{AttributeRange, Gaussian, Payload, Reading, SensorId, Timestamp, Trace};

/// A fault model to apply to a sensor's readings.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModel {
    /// The sensor constantly reports `value` (Stuck-at-Value Error).
    StuckAt {
        /// The fixed reading reported.
        value: Vec<f64>,
    },
    /// Readings decay linearly toward `target` over `drift_duration`
    /// seconds, then stick — the paper's observed sensor-6 behaviour.
    DriftToStuck {
        /// The value the sensor decays to and then sticks at.
        target: Vec<f64>,
        /// Seconds taken to decay from the true reading to `target`.
        drift_duration: u64,
    },
    /// Readings are multiplied per-attribute by `gain` (Calibration
    /// Error); the paper's sensor 7 reports humidity ≈ 10 % high.
    Calibration {
        /// Per-attribute multiplicative gain.
        gain: Vec<f64>,
    },
    /// Readings are offset per-attribute by `offset` (Additive Error).
    Additive {
        /// Per-attribute additive offset.
        offset: Vec<f64>,
    },
    /// Readings gain extra zero-mean noise with per-attribute `std`
    /// (Random Noise Error).
    RandomNoise {
        /// Per-attribute noise standard deviation.
        std: Vec<f64>,
    },
    /// The sensor's radio degrades: each delivered packet is dropped
    /// with probability `drop_prob` on top of the network's own loss.
    /// Models the paper's observation that dying GDI sensors also shed
    /// packets (their data "contains missing and malformed packets").
    Outage {
        /// Additional per-packet drop probability in `[0, 1]`.
        drop_prob: f64,
    },
}

/// A fault applied to one sensor over a time window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjection {
    /// The faulty sensor.
    pub sensor: SensorId,
    /// The fault model.
    pub model: FaultModel,
    /// Fault onset time (inclusive).
    pub start: Timestamp,
    /// Fault end time (exclusive); `None` = until the trace ends.
    pub end: Option<Timestamp>,
}

impl FaultInjection {
    /// A fault active from `start` until the end of the trace.
    pub fn from_onset(sensor: SensorId, model: FaultModel, start: Timestamp) -> Self {
        Self {
            sensor,
            model,
            start,
            end: None,
        }
    }

    fn active_at(&self, t: Timestamp) -> bool {
        t >= self.start && self.end.map(|e| t < e).unwrap_or(true)
    }
}

/// Applies `injections` to `trace`, returning the corrupted trace.
/// Faulty readings are clamped into `ranges` (a real degraded sensor
/// still reports admissible values; the paper's sensor 6 bottoms out at
/// humidity ≈ 0, not below).
///
/// Lost/malformed records are untouched: a fault corrupts what the
/// sensor *reports*, not whether the network delivers it.
///
/// # Panics
///
/// Panics if a fault model's parameter dimensionality disagrees with
/// the readings it corrupts, or `ranges` disagrees with the readings.
pub fn inject_faults<R: Rng + ?Sized>(
    trace: &Trace,
    injections: &[FaultInjection],
    ranges: &[AttributeRange],
    rng: &mut R,
) -> Trace {
    let records = trace
        .records()
        .iter()
        .map(|rec| {
            let mut rec = rec.clone();
            for inj in injections {
                if inj.sensor != rec.sensor || !inj.active_at(rec.time) {
                    continue;
                }
                if let FaultModel::Outage { drop_prob } = &inj.model {
                    assert!(
                        (0.0..=1.0).contains(drop_prob),
                        "outage drop probability must be in [0, 1]"
                    );
                    if rec.payload.is_delivered() && rng.gen::<f64>() < *drop_prob {
                        rec.payload = Payload::Lost;
                    }
                    continue;
                }
                if let Payload::Delivered(reading) = &rec.payload {
                    let corrupted =
                        apply_fault(&inj.model, reading, rec.time, inj.start, ranges, rng);
                    rec.payload = Payload::Delivered(corrupted);
                }
            }
            rec
        })
        .collect();
    Trace::from_records(records)
}

fn apply_fault<R: Rng + ?Sized>(
    model: &FaultModel,
    truth: &Reading,
    t: Timestamp,
    onset: Timestamp,
    ranges: &[AttributeRange],
    rng: &mut R,
) -> Reading {
    let v = truth.values();
    assert_eq!(ranges.len(), v.len(), "range dims must match readings");
    let raw: Vec<f64> = match model {
        FaultModel::StuckAt { value } => {
            assert_eq!(value.len(), v.len(), "stuck-at dims");
            value.clone()
        }
        FaultModel::DriftToStuck {
            target,
            drift_duration,
        } => {
            assert_eq!(target.len(), v.len(), "drift dims");
            assert!(*drift_duration > 0, "drift duration must be positive");
            let progress = ((t - onset) as f64 / *drift_duration as f64).min(1.0);
            v.iter()
                .zip(target)
                .map(|(&x, &tgt)| x + progress * (tgt - x))
                .collect()
        }
        FaultModel::Calibration { gain } => {
            assert_eq!(gain.len(), v.len(), "calibration dims");
            v.iter().zip(gain).map(|(&x, &g)| x * g).collect()
        }
        FaultModel::Additive { offset } => {
            assert_eq!(offset.len(), v.len(), "additive dims");
            v.iter().zip(offset).map(|(&x, &o)| x + o).collect()
        }
        FaultModel::RandomNoise { std } => {
            assert_eq!(std.len(), v.len(), "noise dims");
            v.iter()
                .zip(std)
                .map(|(&x, &s)| x + Gaussian::new(0.0, s).sample(rng))
                .collect()
        }
        // sentinet-allow(panic-used): Outage is rewritten into per-reading drops at delivery and never reaches sampling
        FaultModel::Outage { .. } => unreachable!("outage handled at delivery level"),
    };
    Reading::new(raw.iter().zip(ranges).map(|(&x, r)| r.clamp(x)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sentinet_sim::{gdi, simulate};

    fn clean_trace() -> (Trace, Vec<AttributeRange>) {
        let mut cfg = gdi::day_config();
        cfg.loss_prob = 0.0;
        cfg.malformed_prob = 0.0;
        let ranges = cfg.ranges.clone();
        (simulate(&cfg, &mut StdRng::seed_from_u64(1)), ranges)
    }

    #[test]
    fn stuck_at_fixes_readings() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(
            SensorId(6),
            FaultModel::StuckAt {
                value: vec![15.0, 1.0],
            },
            0,
        );
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(2));
        for (_, r) in out.sensor_series(SensorId(6)) {
            assert_eq!(r.values(), &[15.0, 1.0]);
        }
        // Other sensors untouched.
        assert_eq!(
            out.sensor_series(SensorId(0)),
            trace.sensor_series(SensorId(0))
        );
    }

    #[test]
    fn window_limits_fault_activity() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection {
            sensor: SensorId(2),
            model: FaultModel::StuckAt {
                value: vec![0.0, 0.0],
            },
            start: 3_600,
            end: Some(7_200),
        };
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(3));
        for (t, r) in out.sensor_series(SensorId(2)) {
            if (3_600..7_200).contains(&t) {
                assert_eq!(r.values(), &[0.0, 0.0]);
            } else {
                assert_ne!(r.values(), &[0.0, 0.0]);
            }
        }
    }

    #[test]
    fn drift_to_stuck_decays_then_sticks() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(
            SensorId(6),
            FaultModel::DriftToStuck {
                target: vec![15.0, 1.0],
                drift_duration: 6 * 3_600,
            },
            0,
        );
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(4));
        let series = out.sensor_series(SensorId(6));
        let orig = trace.sensor_series(SensorId(6));
        // Early: close to truth. Late: stuck at target.
        assert!((series[0].1.values()[1] - orig[0].1.values()[1]).abs() < 1.0);
        let last = series.last().unwrap().1;
        assert_eq!(last.values(), &[15.0, 1.0]);
        // Humidity decreases monotonically-ish during the drift.
        let mid = series[series.len() / 4].1.values()[1];
        assert!(mid < orig[series.len() / 4].1.values()[1]);
    }

    #[test]
    fn calibration_scales_readings() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(
            SensorId(7),
            FaultModel::Calibration {
                gain: vec![1.0, 1.1],
            },
            0,
        );
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(5));
        for ((_, r_out), (_, r_in)) in out
            .sensor_series(SensorId(7))
            .iter()
            .zip(trace.sensor_series(SensorId(7)))
        {
            assert_eq!(r_out.values()[0], r_in.values()[0]);
            let expect = (r_in.values()[1] * 1.1).min(100.0);
            assert!((r_out.values()[1] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn additive_offsets_readings() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(
            SensorId(3),
            FaultModel::Additive {
                offset: vec![5.0, -10.0],
            },
            0,
        );
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(6));
        for ((_, r_out), (_, r_in)) in out
            .sensor_series(SensorId(3))
            .iter()
            .zip(trace.sensor_series(SensorId(3)))
        {
            assert!((r_out.values()[0] - (r_in.values()[0] + 5.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn random_noise_increases_variance() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(
            SensorId(4),
            FaultModel::RandomNoise {
                std: vec![5.0, 5.0],
            },
            0,
        );
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(7));
        let diffs: Vec<f64> = out
            .sensor_series(SensorId(4))
            .iter()
            .zip(trace.sensor_series(SensorId(4)))
            .map(|((_, a), (_, b))| a.values()[0] - b.values()[0])
            .collect();
        let var = diffs.iter().map(|d| d * d).sum::<f64>() / diffs.len() as f64;
        assert!((var - 25.0).abs() < 5.0, "noise var {var}");
    }

    #[test]
    fn readings_stay_in_admissible_range() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(
            SensorId(1),
            FaultModel::Additive {
                offset: vec![100.0, 100.0],
            },
            0,
        );
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(8));
        for (_, r) in out.sensor_series(SensorId(1)) {
            assert!(r.values()[0] <= 60.0);
            assert!(r.values()[1] <= 100.0);
        }
    }

    #[test]
    fn lost_records_stay_lost() {
        let mut cfg = gdi::day_config();
        cfg.loss_prob = 0.5;
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(9));
        let inj = FaultInjection::from_onset(
            SensorId(0),
            FaultModel::StuckAt {
                value: vec![0.0, 0.0],
            },
            0,
        );
        let out = inject_faults(&trace, &[inj], &cfg.ranges, &mut StdRng::seed_from_u64(10));
        assert_eq!(out.loss_rate(), trace.loss_rate());
    }

    #[test]
    fn outage_drops_packets_for_target_only() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(SensorId(2), FaultModel::Outage { drop_prob: 0.7 }, 0);
        let out = inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(42));
        let delivered_before = trace.sensor_series(SensorId(2)).len() as f64;
        let delivered_after = out.sensor_series(SensorId(2)).len() as f64;
        let rate = 1.0 - delivered_after / delivered_before;
        assert!((rate - 0.7).abs() < 0.1, "drop rate {rate}");
        // Other sensors untouched.
        assert_eq!(
            out.sensor_series(SensorId(0)),
            trace.sensor_series(SensorId(0))
        );
        // Delivered values for the target are unmodified.
        for (t, r) in out.sensor_series(SensorId(2)) {
            let orig = trace
                .sensor_series(SensorId(2))
                .into_iter()
                .find(|(tt, _)| *tt == t)
                .unwrap()
                .1
                .clone();
            assert_eq!(r.clone(), orig);
        }
    }

    #[test]
    fn outage_composes_with_value_fault() {
        // A dying sensor both sticks and sheds packets — the paper's
        // sensor-6 reality.
        let (trace, ranges) = clean_trace();
        let injs = vec![
            FaultInjection::from_onset(
                SensorId(6),
                FaultModel::StuckAt {
                    value: vec![15.0, 1.0],
                },
                0,
            ),
            FaultInjection::from_onset(SensorId(6), FaultModel::Outage { drop_prob: 0.5 }, 0),
        ];
        let out = inject_faults(&trace, &injs, &ranges, &mut StdRng::seed_from_u64(43));
        let series = out.sensor_series(SensorId(6));
        assert!(!series.is_empty());
        assert!(series.len() < trace.sensor_series(SensorId(6)).len());
        for (_, r) in series {
            assert_eq!(r.values(), &[15.0, 1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "outage drop probability")]
    fn outage_bad_probability_panics() {
        let (trace, ranges) = clean_trace();
        let inj = FaultInjection::from_onset(SensorId(0), FaultModel::Outage { drop_prob: 1.5 }, 0);
        inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(44));
    }

    #[test]
    #[should_panic(expected = "stuck-at dims")]
    fn dimension_mismatch_panics() {
        let (trace, ranges) = clean_trace();
        let inj =
            FaultInjection::from_onset(SensorId(0), FaultModel::StuckAt { value: vec![1.0] }, 0);
        inject_faults(&trace, &[inj], &ranges, &mut StdRng::seed_from_u64(11));
    }
}
