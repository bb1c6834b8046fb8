//! Malicious-attack injection (paper §3.3, *sensor attack model*).
//!
//! The adversary controls a subset of sensors (the paper compromises
//! one third) and — crucially — *knows the underlying dynamics of the
//! environment*: at every sampling instant the malicious sensors see
//! what the correct sensors report and forge values that move the
//! **network-observed mean** where the adversary wants it:
//!
//! - **Dynamic Creation** pushes the observed mean to a spurious target
//!   state while the true environment is elsewhere;
//! - **Dynamic Deletion** pins the observed mean at a frozen value when
//!   the true environment moves away (deleting the new state);
//! - **Dynamic Change** shifts the observed mean by a constant offset,
//!   preserving temporal structure but altering attributes;
//! - **Mixed** alternates creation and deletion phases.
//!
//! To move the mean of `N` delivered readings from `θ` to `τ` with `m`
//! compromised deliveries, each compromised sensor reports
//! `θ + (N/m)·(τ − θ)`, clamped to the admissible ranges — the paper
//! explicitly keeps "malicious values within their admissible range",
//! which is why its deletion example cannot hold humidity exactly.

use sentinet_sim::{AttributeRange, Payload, Reading, SensorId, Timestamp, Trace};
use std::collections::BTreeMap;

/// An attack strategy executed by the compromised sensors.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackModel {
    /// Force the observed mean to `target` (introducing a spurious
    /// environment state).
    DynamicCreation {
        /// The spurious state the adversary fabricates.
        target: Vec<f64>,
    },
    /// Pin the observed mean at `freeze_at` (deleting the states the
    /// environment actually visits).
    DynamicDeletion {
        /// The stale state the adversary keeps the network reporting.
        freeze_at: Vec<f64>,
    },
    /// Shift the observed mean by `offset` relative to the truth,
    /// keeping temporal behaviour intact.
    DynamicChange {
        /// Constant displacement applied to the observed mean.
        offset: Vec<f64>,
    },
    /// Alternate between a creation and a deletion phase with the given
    /// period (seconds), starting with creation.
    Mixed {
        /// Creation-phase target.
        creation_target: Vec<f64>,
        /// Deletion-phase frozen value.
        freeze_at: Vec<f64>,
        /// Phase length in seconds.
        phase_period: u64,
    },
}

/// An attack campaign: which sensors are compromised, what they do,
/// and when.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackInjection {
    /// Compromised sensors.
    pub sensors: Vec<SensorId>,
    /// The strategy they execute.
    pub model: AttackModel,
    /// Attack onset (inclusive).
    pub start: Timestamp,
    /// Attack end (exclusive); `None` = until the trace ends.
    pub end: Option<Timestamp>,
}

impl AttackInjection {
    /// An attack active from `start` until the end of the trace.
    pub fn from_onset(sensors: Vec<SensorId>, model: AttackModel, start: Timestamp) -> Self {
        Self {
            sensors,
            model,
            start,
            end: None,
        }
    }

    fn active_at(&self, t: Timestamp) -> bool {
        t >= self.start && self.end.map(|e| t < e).unwrap_or(true)
    }
}

/// Applies an attack campaign to a trace.
///
/// At each sampling instant the correct (non-compromised) delivered
/// readings determine the truth estimate `θ`; each compromised delivery
/// is replaced with the forged value that steers the all-sensor mean to
/// the attack's goal, clamped into `ranges`.
///
/// # Panics
///
/// Panics if attack parameter dimensions disagree with the readings or
/// `ranges`, or if an injection lists no sensors.
pub fn inject_attacks(
    trace: &Trace,
    attacks: &[AttackInjection],
    ranges: &[AttributeRange],
) -> Trace {
    for a in attacks {
        assert!(!a.sensors.is_empty(), "attack with no compromised sensors");
    }
    // Group delivered record indices by timestamp.
    let mut by_time: BTreeMap<Timestamp, Vec<usize>> = BTreeMap::new();
    for (i, rec) in trace.records().iter().enumerate() {
        if rec.payload.is_delivered() {
            by_time.entry(rec.time).or_default().push(i);
        }
    }

    let mut records = trace.records().to_vec();
    for (&t, idxs) in &by_time {
        for attack in attacks {
            if !attack.active_at(t) {
                continue;
            }
            let compromised: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|&i| attack.sensors.contains(&records[i].sensor))
                .collect();
            if compromised.is_empty() {
                continue;
            }
            let honest: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|&i| !attack.sensors.contains(&records[i].sensor))
                .collect();
            // Truth estimate θ: mean of honest readings (fall back to
            // the pre-attack values of compromised sensors if the whole
            // window was compromised).
            let theta = mean_of(&records, if honest.is_empty() { idxs } else { &honest });
            let dims = theta.len();
            assert_eq!(ranges.len(), dims, "range dims must match readings");

            let goal: Option<Vec<f64>> = match &attack.model {
                AttackModel::DynamicCreation { target } => {
                    assert_eq!(target.len(), dims, "creation target dims");
                    Some(target.clone())
                }
                AttackModel::DynamicDeletion { freeze_at } => {
                    assert_eq!(freeze_at.len(), dims, "deletion freeze dims");
                    Some(freeze_at.clone())
                }
                AttackModel::DynamicChange { offset } => {
                    assert_eq!(offset.len(), dims, "change offset dims");
                    Some(theta.iter().zip(offset).map(|(&a, &b)| a + b).collect())
                }
                AttackModel::Mixed {
                    creation_target,
                    freeze_at,
                    phase_period,
                } => {
                    assert!(*phase_period > 0, "phase period must be positive");
                    assert_eq!(creation_target.len(), dims, "mixed creation dims");
                    assert_eq!(freeze_at.len(), dims, "mixed freeze dims");
                    let phase = (t.saturating_sub(attack.start) / phase_period) % 2;
                    Some(if phase == 0 {
                        creation_target.clone()
                    } else {
                        freeze_at.clone()
                    })
                }
            };

            if let Some(tau) = goal {
                let n = idxs.len() as f64;
                let m = compromised.len() as f64;
                // Each forged reading: θ + (N/m)(τ − θ), clamped.
                let forged: Vec<f64> = (0..dims)
                    .map(|d| {
                        let v = theta[d] + (n / m) * (tau[d] - theta[d]);
                        ranges[d].clamp(v)
                    })
                    .collect();
                for &i in &compromised {
                    records[i].payload = Payload::Delivered(Reading::new(forged.clone()));
                }
            }
        }
    }
    Trace::from_records(records)
}

fn mean_of(records: &[sentinet_sim::TraceRecord], idxs: &[usize]) -> Vec<f64> {
    let first = idxs
        .iter()
        .find_map(|&i| records[i].payload.reading())
        // sentinet-allow(expect-used): the attack model guarantees at least one delivered reading per window
        .expect("at least one delivered reading");
    let dims = first.dims();
    let mut sum = vec![0.0; dims];
    let mut count = 0.0;
    for &i in idxs {
        if let Some(r) = records[i].payload.reading() {
            for (s, &v) in sum.iter_mut().zip(r.values()) {
                *s += v;
            }
            count += 1.0;
        }
    }
    sum.iter_mut().for_each(|s| *s /= count);
    sum
}

/// Convenience: the first `k` sensor ids — the paper compromises "one
/// third of the available sensors".
pub fn first_k_sensors(k: u16) -> Vec<SensorId> {
    (0..k).map(SensorId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sentinet_sim::{gdi, simulate, EnvironmentModel};

    fn clean_trace() -> (Trace, Vec<AttributeRange>) {
        let mut cfg = gdi::day_config();
        cfg.loss_prob = 0.0;
        cfg.malformed_prob = 0.0;
        cfg.noise_std = vec![0.1, 0.1];
        let ranges = cfg.ranges.clone();
        (simulate(&cfg, &mut StdRng::seed_from_u64(1)), ranges)
    }

    fn observed_mean(trace: &Trace, t: Timestamp) -> Vec<f64> {
        let readings: Vec<&Reading> = trace
            .records()
            .iter()
            .filter(|r| r.time == t)
            .filter_map(|r| r.payload.reading())
            .collect();
        let dims = readings[0].dims();
        let mut m = vec![0.0; dims];
        for r in &readings {
            for (s, &v) in m.iter_mut().zip(r.values()) {
                *s += v;
            }
        }
        m.iter_mut().for_each(|s| *s /= readings.len() as f64);
        m
    }

    #[test]
    fn creation_moves_observed_mean_to_target() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection::from_onset(
            first_k_sensors(3), // 3 of 10
            AttackModel::DynamicCreation {
                target: vec![25.0, 69.0],
            },
            0,
        );
        let out = inject_attacks(&trace, &[attack], &ranges);
        // At 4 AM truth is (12, 94); the observed mean should be pulled
        // to ~ (25, 69) unless clamping binds.
        let m = observed_mean(&out, 4 * 3600);
        assert!((m[0] - 25.0).abs() < 1.5, "mean {m:?}");
        assert!((m[1] - 69.0).abs() < 3.0, "mean {m:?}");
    }

    #[test]
    fn deletion_pins_observed_mean() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection {
            sensors: first_k_sensors(3),
            model: AttackModel::DynamicDeletion {
                freeze_at: vec![24.0, 70.0],
            },
            start: 10 * 3600,
            end: Some(18 * 3600),
        };
        let out = inject_attacks(&trace, &[attack], &ranges);
        // Mid-afternoon truth is ~(31, 56); observed stays near (24, 70)
        // temperature-wise (humidity clamping may bind, as in the paper).
        let m = observed_mean(&out, 14 * 3600);
        assert!((m[0] - 24.0).abs() < 2.0, "mean {m:?}");
        // Outside the window, mean matches truth again.
        let after = observed_mean(&out, 20 * 3600);
        let truth = observed_mean(&trace, 20 * 3600);
        assert!((after[0] - truth[0]).abs() < 0.5);
    }

    #[test]
    fn change_offsets_observed_mean() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection::from_onset(
            first_k_sensors(3),
            AttackModel::DynamicChange {
                offset: vec![-8.0, 0.0],
            },
            0,
        );
        let out = inject_attacks(&trace, &[attack], &ranges);
        for hour in [2u64, 8, 14, 20] {
            let truth = observed_mean(&trace, hour * 3600);
            let m = observed_mean(&out, hour * 3600);
            assert!(
                (m[0] - (truth[0] - 8.0)).abs() < 1.0,
                "hour {hour}: {m:?} vs truth {truth:?}"
            );
        }
    }

    #[test]
    fn mixed_alternates_phases() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection::from_onset(
            first_k_sensors(5),
            AttackModel::Mixed {
                creation_target: vec![40.0, 30.0],
                freeze_at: vec![12.0, 94.0],
                phase_period: 6 * 3600,
            },
            0,
        );
        let out = inject_attacks(&trace, &[attack], &ranges);
        // Phase 0 (t < 6h): creation toward (40, 30).
        let m0 = observed_mean(&out, 2 * 3600);
        // Phase 1 (6h ≤ t < 12h): freeze at (12, 94).
        let m1 = observed_mean(&out, 8 * 3600);
        assert!(m0[0] > 25.0, "creation phase mean {m0:?}");
        assert!((m1[0] - 12.0).abs() < 3.0, "deletion phase mean {m1:?}");
    }

    #[test]
    fn forged_values_respect_ranges() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection::from_onset(
            first_k_sensors(1), // single sensor must push very hard
            AttackModel::DynamicCreation {
                target: vec![55.0, 5.0],
            },
            0,
        );
        let out = inject_attacks(&trace, &[attack], &ranges);
        for (_, r) in out.sensor_series(SensorId(0)) {
            assert!(r.values()[0] <= 60.0, "temp {r}");
            assert!(r.values()[1] >= 0.0, "hum {r}");
        }
    }

    #[test]
    fn honest_sensors_untouched() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection::from_onset(
            first_k_sensors(3),
            AttackModel::DynamicCreation {
                target: vec![25.0, 69.0],
            },
            0,
        );
        let out = inject_attacks(&trace, &[attack], &ranges);
        for s in 3..10 {
            assert_eq!(
                out.sensor_series(SensorId(s)),
                trace.sensor_series(SensorId(s)),
                "sensor {s} modified"
            );
        }
    }

    #[test]
    fn constant_environment_creation_scenario() {
        // The paper's Fig. 11: correct environment roughly constant,
        // adversary forges a new state.
        let mut cfg = gdi::day_config();
        cfg.environment = EnvironmentModel::Constant(vec![12.0, 95.0]);
        cfg.loss_prob = 0.0;
        cfg.malformed_prob = 0.0;
        cfg.noise_std = vec![0.1, 0.1];
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(3));
        let attack = AttackInjection {
            sensors: first_k_sensors(3),
            model: AttackModel::DynamicCreation {
                target: vec![25.0, 69.0],
            },
            start: 12 * 3600,
            end: None,
        };
        let out = inject_attacks(&trace, &[attack], &cfg.ranges);
        let before = observed_mean(&out, 6 * 3600);
        let during = observed_mean(&out, 18 * 3600);
        assert!((before[0] - 12.0).abs() < 0.5);
        assert!((during[0] - 25.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "no compromised sensors")]
    fn empty_sensor_list_panics() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection::from_onset(
            vec![],
            AttackModel::DynamicChange {
                offset: vec![0.0, 0.0],
            },
            0,
        );
        inject_attacks(&trace, &[attack], &ranges);
    }

    #[test]
    #[should_panic(expected = "creation target dims")]
    fn dim_mismatch_panics() {
        let (trace, ranges) = clean_trace();
        let attack = AttackInjection::from_onset(
            first_k_sensors(2),
            AttackModel::DynamicCreation { target: vec![1.0] },
            0,
        );
        inject_attacks(&trace, &[attack], &ranges);
    }

    #[test]
    fn first_k_sensors_helper() {
        assert_eq!(first_k_sensors(2), vec![SensorId(0), SensorId(1)]);
        assert!(first_k_sensors(0).is_empty());
    }
}
