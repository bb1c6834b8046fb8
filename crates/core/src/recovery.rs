//! Recovery actions — closing the loop the paper motivates.
//!
//! The paper's introduction argues that *distinguishing* faults from
//! attacks matters because it selects the correct recovery action; §4
//! stops at classification. This module supplies the missing step: a
//! policy mapping each [`Diagnosis`] to a [`RecoveryAction`], and —
//! for the parametric error types — *data rehabilitation*: inverting
//! the estimated gain/offset so a mis-calibrated sensor's readings can
//! keep contributing instead of being discarded.

use crate::classify::{AttackType, Diagnosis, ErrorType};
use sentinet_sim::{Reading, SensorId};
use serde::{Deserialize, Serialize};

/// The action a deployment should take for one diagnosed sensor (or,
/// for attacks, for the network).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Nothing to do.
    None,
    /// Keep using the sensor, dividing each attribute by the estimated
    /// gain (calibration fault: the data is *recoverable*).
    Recalibrate {
        /// Per-attribute gains to divide out.
        gains: Vec<f64>,
    },
    /// Keep using the sensor, subtracting the estimated offset
    /// (additive fault: the data is recoverable).
    BiasCorrect {
        /// Per-attribute offsets to subtract.
        offsets: Vec<f64>,
    },
    /// Exclude the sensor's data and schedule physical maintenance
    /// (stuck-at or unknown error: the data carries no information).
    MaskAndService,
    /// Security response: quarantine the implicated sensors, preserve
    /// evidence, and distrust the affected observable states.
    Quarantine {
        /// Observable states whose recent values are adversarial.
        tainted_states: Vec<usize>,
    },
}

impl RecoveryAction {
    /// Selects the action for a diagnosis — the paper's "correct
    /// recovery action" decision.
    pub fn for_diagnosis(diagnosis: &Diagnosis) -> Self {
        match diagnosis {
            Diagnosis::ErrorFree => RecoveryAction::None,
            Diagnosis::Error(ErrorType::Calibration { gains }) => RecoveryAction::Recalibrate {
                gains: gains.clone(),
            },
            Diagnosis::Error(ErrorType::Additive { offsets }) => RecoveryAction::BiasCorrect {
                offsets: offsets.clone(),
            },
            Diagnosis::Error(ErrorType::StuckAt { .. }) | Diagnosis::Error(ErrorType::Unknown) => {
                RecoveryAction::MaskAndService
            }
            Diagnosis::Attack(attack) => RecoveryAction::Quarantine {
                tainted_states: match attack {
                    AttackType::DynamicCreation { created } => created.clone(),
                    AttackType::DynamicDeletion { deleted } => deleted.clone(),
                    AttackType::DynamicChange { pairs } => pairs.iter().map(|&(_, o)| o).collect(),
                    AttackType::Mixed => Vec::new(),
                },
            },
        }
    }

    /// Whether the sensor's data stream remains usable under this
    /// action (possibly after correction).
    pub fn keeps_sensor(&self) -> bool {
        matches!(
            self,
            RecoveryAction::None
                | RecoveryAction::Recalibrate { .. }
                | RecoveryAction::BiasCorrect { .. }
        )
    }

    /// Rehabilitates one reading under this action: inverts the
    /// estimated corruption for recoverable faults, passes clean data
    /// through, and returns `None` when the data must be discarded.
    ///
    /// # Panics
    ///
    /// Panics if the correction dimensionality disagrees with the
    /// reading.
    pub fn rehabilitate(&self, reading: &Reading) -> Option<Reading> {
        match self {
            RecoveryAction::None => Some(reading.clone()),
            RecoveryAction::Recalibrate { gains } => {
                assert_eq!(gains.len(), reading.dims(), "gain dims");
                Some(Reading::new(
                    reading
                        .values()
                        .iter()
                        .zip(gains)
                        .map(|(&x, &g)| if g.abs() > 1e-9 { x / g } else { x })
                        .collect(),
                ))
            }
            RecoveryAction::BiasCorrect { offsets } => {
                assert_eq!(offsets.len(), reading.dims(), "offset dims");
                Some(Reading::new(
                    reading
                        .values()
                        .iter()
                        .zip(offsets)
                        .map(|(&x, &o)| x - o)
                        .collect(),
                ))
            }
            RecoveryAction::MaskAndService | RecoveryAction::Quarantine { .. } => None,
        }
    }
}

/// Degraded-mode report from a supervised run: which sensors were
/// quarantined because their shard exceeded its restart budget, and how
/// many times each shard was restarted along the way.
///
/// Produced by the sharded engine's supervisor and surfaced through the
/// run report; [`RecoveryPlan::mask_quarantined`] folds it into the
/// recovery policy so operators service the crashed shard's sensors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedStatus {
    /// Sensors excluded from voting after their shard was quarantined,
    /// ordered by sensor id.
    pub quarantined_sensors: Vec<SensorId>,
    /// `(shard index, restart count)` for every shard that crashed at
    /// least once, quarantined or not.
    pub shard_restarts: Vec<(usize, u32)>,
}

impl std::fmt::Display for DegradedStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degraded: quarantined sensors [")?;
        for (i, s) in self.quarantined_sensors.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", s.0)?;
        }
        write!(f, "], shard restarts [")?;
        for (i, (shard, n)) in self.shard_restarts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{shard}×{n}")?;
        }
        write!(f, "]")
    }
}

/// A full recovery plan: one action per sensor, derived from a
/// pipeline's diagnoses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// Actions by sensor, ordered by sensor id.
    pub actions: Vec<(SensorId, RecoveryAction)>,
}

impl RecoveryPlan {
    /// Builds the plan from a pipeline's current diagnoses.
    pub fn from_pipeline(pipeline: &crate::Pipeline) -> Self {
        Self::from_report(&pipeline.report())
    }

    /// Builds the plan a report's diagnoses call for; sensors the
    /// report lists as quarantined are forced to
    /// [`RecoveryAction::MaskAndService`] (see
    /// [`RecoveryPlan::mask_quarantined`]).
    pub fn from_report(report: &crate::PipelineReport) -> Self {
        let actions = report
            .sensors
            .iter()
            .map(|s| (s.sensor, RecoveryAction::for_diagnosis(&s.diagnosis)))
            .collect();
        let mut plan = Self { actions };
        if let Some(degraded) = &report.degraded {
            plan.mask_quarantined(degraded);
        }
        plan
    }

    /// The action for one sensor ([`RecoveryAction::None`] if unseen).
    pub fn action(&self, sensor: SensorId) -> &RecoveryAction {
        self.actions
            .iter()
            .find(|(id, _)| *id == sensor)
            .map(|(_, a)| a)
            .unwrap_or(&RecoveryAction::None)
    }

    /// Sensors whose data must be excluded going forward.
    pub fn masked_sensors(&self) -> Vec<SensorId> {
        self.actions
            .iter()
            .filter(|(_, a)| !a.keeps_sensor())
            .map(|(id, _)| *id)
            .collect()
    }

    /// Folds a degraded-mode report into the plan: every quarantined
    /// sensor is forced to [`RecoveryAction::MaskAndService`] — its
    /// shard stopped contributing mid-run, so whatever diagnosis its
    /// stale data produced, the sensor needs servicing before it can be
    /// trusted again. Sensors the run never saw are appended.
    pub fn mask_quarantined(&mut self, status: &DegradedStatus) {
        for &sensor in &status.quarantined_sensors {
            match self.actions.iter_mut().find(|(id, _)| *id == sensor) {
                Some((_, action)) => *action = RecoveryAction::MaskAndService,
                None => self.actions.push((sensor, RecoveryAction::MaskAndService)),
            }
        }
        self.actions.sort_by_key(|(id, _)| *id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_maps_each_diagnosis() {
        assert_eq!(
            RecoveryAction::for_diagnosis(&Diagnosis::ErrorFree),
            RecoveryAction::None
        );
        assert_eq!(
            RecoveryAction::for_diagnosis(&Diagnosis::Error(ErrorType::StuckAt { state: 3 })),
            RecoveryAction::MaskAndService
        );
        match RecoveryAction::for_diagnosis(&Diagnosis::Error(ErrorType::Calibration {
            gains: vec![1.2, 1.1],
        })) {
            RecoveryAction::Recalibrate { gains } => assert_eq!(gains, vec![1.2, 1.1]),
            other => panic!("{other:?}"),
        }
        match RecoveryAction::for_diagnosis(&Diagnosis::Attack(AttackType::DynamicCreation {
            created: vec![7],
        })) {
            RecoveryAction::Quarantine { tainted_states } => {
                assert_eq!(tainted_states, vec![7])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recalibration_inverts_gain() {
        let action = RecoveryAction::Recalibrate {
            gains: vec![1.25, 1.1],
        };
        let corrupted = Reading::new(vec![25.0, 77.0]);
        let fixed = action.rehabilitate(&corrupted).unwrap();
        assert!((fixed.values()[0] - 20.0).abs() < 1e-9);
        assert!((fixed.values()[1] - 70.0).abs() < 1e-9);
        assert!(action.keeps_sensor());
    }

    #[test]
    fn bias_correction_subtracts_offset() {
        let action = RecoveryAction::BiasCorrect {
            offsets: vec![-9.0, -4.5],
        };
        let corrupted = Reading::new(vec![11.0, 65.5]);
        let fixed = action.rehabilitate(&corrupted).unwrap();
        assert!((fixed.values()[0] - 20.0).abs() < 1e-9);
        assert!((fixed.values()[1] - 70.0).abs() < 1e-9);
    }

    #[test]
    fn masked_data_is_discarded() {
        let action = RecoveryAction::MaskAndService;
        assert!(action.rehabilitate(&Reading::new(vec![1.0])).is_none());
        assert!(!action.keeps_sensor());
        let q = RecoveryAction::Quarantine {
            tainted_states: vec![],
        };
        assert!(q.rehabilitate(&Reading::new(vec![1.0])).is_none());
    }

    #[test]
    fn zero_gain_passes_through_instead_of_dividing() {
        let action = RecoveryAction::Recalibrate { gains: vec![0.0] };
        let r = action.rehabilitate(&Reading::new(vec![5.0])).unwrap();
        assert_eq!(r.values(), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "gain dims")]
    fn dimension_mismatch_panics() {
        RecoveryAction::Recalibrate { gains: vec![1.0] }
            .rehabilitate(&Reading::new(vec![1.0, 2.0]));
    }

    #[test]
    fn quarantine_overrides_and_appends_actions() {
        let mut plan = RecoveryPlan {
            actions: vec![
                (SensorId(0), RecoveryAction::None),
                (
                    SensorId(2),
                    RecoveryAction::Recalibrate { gains: vec![1.1] },
                ),
            ],
        };
        let status = DegradedStatus {
            quarantined_sensors: vec![SensorId(1), SensorId(2)],
            shard_restarts: vec![(1, 4)],
        };
        plan.mask_quarantined(&status);
        assert_eq!(plan.action(SensorId(2)), &RecoveryAction::MaskAndService);
        assert_eq!(plan.action(SensorId(1)), &RecoveryAction::MaskAndService);
        assert_eq!(plan.action(SensorId(0)), &RecoveryAction::None);
        assert_eq!(plan.masked_sensors(), vec![SensorId(1), SensorId(2)]);
        assert_eq!(
            status.to_string(),
            "degraded: quarantined sensors [1, 2], shard restarts [1×4]"
        );
    }
}
