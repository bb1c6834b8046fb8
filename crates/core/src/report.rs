//! Operator-facing summary reports.
//!
//! [`Pipeline::report`](crate::Pipeline::report) condenses everything
//! the methodology produces — the environment model `M_C`, the
//! network-level attack verdict, and per-sensor diagnoses with track
//! timelines — into one serializable structure with a human-readable
//! `Display`, so deployments can log or ship the collector's view
//! without poking at individual accessors.

use crate::classify::{AttackType, Diagnosis};
use crate::runtime::{GlobalModel, SensorRuntime};
use sentinet_sim::SensorId;
use std::collections::BTreeMap;
use std::fmt;

/// Minimum occupancy for a state to appear in the user-facing `M_C`
/// (the paper drops its (16, 27) fluctuation state this way).
pub const KEY_STATE_OCCUPANCY: f64 = 0.02;

/// One model state in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSummary {
    /// Slot index.
    pub slot: usize,
    /// Centroid attribute values.
    pub centroid: Vec<f64>,
    /// Occupancy in the correct-state sequence.
    pub occupancy: f64,
}

/// One sensor's entry in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSummary {
    /// The sensor.
    pub sensor: SensorId,
    /// Structural diagnosis.
    pub diagnosis: Diagnosis,
    /// Fraction of processed windows with a raw alarm.
    pub raw_alarm_rate: f64,
    /// Error/attack track timeline (window indices).
    pub tracks: Vec<(u64, Option<u64>)>,
}

/// Snapshot of everything the pipeline currently believes.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Windows fully processed.
    pub windows_processed: u64,
    /// Key environment states (occupancy above the configured floor).
    pub key_states: Vec<StateSummary>,
    /// Network-level attack verdict, if any.
    pub network_attack: Option<AttackType>,
    /// Per-sensor summaries, ordered by sensor id.
    pub sensors: Vec<SensorSummary>,
}

impl PipelineReport {
    /// Sensors whose diagnosis is not error/attack-free.
    pub fn flagged(&self) -> impl Iterator<Item = &SensorSummary> {
        self.sensors
            .iter()
            .filter(|s| s.diagnosis != Diagnosis::ErrorFree)
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sentinet report after {} windows",
            self.windows_processed
        )?;
        writeln!(f, "environment states:")?;
        for s in &self.key_states {
            write!(f, "  state {}: (", s.slot)?;
            for (i, v) in s.centroid.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.1}")?;
            }
            writeln!(f, ") occupancy {:.2}", s.occupancy)?;
        }
        match &self.network_attack {
            Some(a) => writeln!(
                f,
                "network attack signature: {}",
                Diagnosis::Attack(a.clone())
            )?,
            None => writeln!(f, "network attack signature: none")?,
        }
        for s in &self.sensors {
            writeln!(
                f,
                "  {}: {} (raw alarms {:.1}%, {} track(s))",
                s.sensor,
                s.diagnosis,
                100.0 * s.raw_alarm_rate,
                s.tracks.len()
            )?;
        }
        Ok(())
    }
}

impl PipelineReport {
    /// Builds the report of what `global` believes about `sensors`.
    pub(crate) fn build(global: &GlobalModel, sensors: &BTreeMap<SensorId, SensorRuntime>) -> Self {
        let key_states = match (global.states(), global.correct_model()) {
            (Some(states), Some(m_c)) => m_c
                .key_states(KEY_STATE_OCCUPANCY)
                .into_iter()
                .filter_map(|slot| {
                    states.centroid_any(slot).map(|c| StateSummary {
                        slot,
                        centroid: c.to_vec(),
                        occupancy: m_c.occupancy()[slot],
                    })
                })
                .collect(),
            _ => Vec::new(),
        };
        let sensors = sensors
            .iter()
            .map(|(&sensor, rt)| {
                let hist = rt.raw_history();
                let raw_alarm_rate = if hist.is_empty() {
                    0.0
                } else {
                    hist.iter().filter(|(_, r)| *r).count() as f64 / hist.len() as f64
                };
                SensorSummary {
                    sensor,
                    diagnosis: global.classify(Some(rt)),
                    raw_alarm_rate,
                    tracks: rt.tracks().iter().map(|t| (t.opened, t.closed)).collect(),
                }
            })
            .collect();
        Self {
            windows_processed: global.windows_processed(),
            key_states,
            network_attack: global.network_attack(),
            sensors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Pipeline;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sentinet_sim::{gdi, simulate};

    fn reported() -> PipelineReport {
        let mut cfg = gdi::day_config();
        cfg.loss_prob = 0.0;
        cfg.malformed_prob = 0.0;
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(5));
        let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
        p.process_trace(&trace);
        p.report()
    }

    #[test]
    fn report_reflects_clean_run() {
        let r = reported();
        assert_eq!(r.windows_processed, 24);
        assert!(!r.key_states.is_empty());
        assert_eq!(r.network_attack, None);
        assert_eq!(r.sensors.len(), 10);
        assert_eq!(r.flagged().count(), 0);
        for s in &r.sensors {
            assert!(s.raw_alarm_rate < 0.2, "{:?}", s);
            assert!(s.tracks.is_empty());
        }
    }

    #[test]
    fn report_display_mentions_everything() {
        let r = reported();
        let text = r.to_string();
        assert!(text.contains("sentinet report after 24 windows"));
        assert!(text.contains("network attack signature: none"));
        assert!(text.contains("sensor9"));
        assert!(text.contains("occupancy"));
    }

    #[test]
    fn empty_pipeline_report_is_empty() {
        let p = Pipeline::new(PipelineConfig::default(), 300);
        let r = p.report();
        assert_eq!(r.windows_processed, 0);
        assert!(r.key_states.is_empty());
        assert!(r.sensors.is_empty());
        assert!(!r.to_string().is_empty());
    }
}
