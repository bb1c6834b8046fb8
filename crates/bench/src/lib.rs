//! Shared scenario builders and reporting helpers for the `sentinet`
//! experiment harness.
//!
//! Every table and figure of the paper's §4 has a dedicated bench
//! target (`harness = false`) under `benches/`; they all build their
//! workloads through this module so the scenarios stay consistent
//! across experiments, tests, and examples.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::classify::evidenced_rows;
use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_inject::{
    first_k_sensors, inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection,
    FaultModel,
};
use sentinet_sim::{gdi, simulate, SensorId, SimConfig, Trace, DAY_S};

/// A clean GDI-like trace of `days` days with the given seed.
pub fn clean_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    (trace, cfg)
}

/// The paper's sensor-6 story: drift to (15, 1) then stick (Fig. 8/9,
/// Tables 2–3).
pub fn stuck_at_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let (clean, cfg) = clean_scenario(days, seed);
    let trace = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(6),
            FaultModel::DriftToStuck {
                target: vec![15.0, 1.0],
                drift_duration: 2 * DAY_S,
            },
            DAY_S,
        )],
        &cfg.ranges,
        &mut StdRng::seed_from_u64(seed ^ 0x5afe),
    );
    (trace, cfg)
}

/// The paper's sensor-7 story: readings ≈ 15 % high (Tables 4–5).
pub fn calibration_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let (clean, cfg) = clean_scenario(days, seed);
    let trace = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(7),
            FaultModel::Calibration {
                gain: vec![1.15, 1.15],
            },
            0,
        )],
        &cfg.ranges,
        &mut StdRng::seed_from_u64(seed ^ 0x5afe),
    );
    (trace, cfg)
}

/// Additive fault perpendicular to the environment curve.
pub fn additive_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let (clean, cfg) = clean_scenario(days, seed);
    let trace = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(3),
            FaultModel::Additive {
                offset: vec![-9.0, -4.5],
            },
            0,
        )],
        &cfg.ranges,
        &mut StdRng::seed_from_u64(seed ^ 0x5afe),
    );
    (trace, cfg)
}

/// High-variance random-noise fault.
pub fn noise_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let (clean, cfg) = clean_scenario(days, seed);
    let trace = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(5),
            FaultModel::RandomNoise {
                std: vec![10.0, 10.0],
            },
            0,
        )],
        &cfg.ranges,
        &mut StdRng::seed_from_u64(seed ^ 0x5afe),
    );
    (trace, cfg)
}

/// Dynamic Deletion by ⅓ of the sensors from mid-trace (Fig. 10,
/// Table 6).
pub fn deletion_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let (clean, cfg) = clean_scenario(days, seed);
    let attack = AttackInjection::from_onset(
        first_k_sensors(3),
        AttackModel::DynamicDeletion {
            freeze_at: vec![12.0, 94.0],
        },
        days / 2 * DAY_S,
    );
    let trace = inject_attacks(&clean, &[attack], &cfg.ranges);
    (trace, cfg)
}

/// Periodic Dynamic Creation against a quiet environment (Fig. 11,
/// Table 7).
pub fn creation_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    cfg.environment = sentinet_sim::EnvironmentModel::Constant(vec![12.0, 95.0]);
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    let onset = days / 2 * DAY_S;
    let attacks: Vec<AttackInjection> = (0..(days - days / 2) * 2)
        .map(|i| AttackInjection {
            sensors: first_k_sensors(3),
            model: AttackModel::DynamicCreation {
                target: vec![25.0, 69.0],
            },
            start: onset + i * 12 * 3600,
            end: Some(onset + i * 12 * 3600 + 6 * 3600),
        })
        .collect();
    let trace = inject_attacks(&clean, &attacks, &cfg.ranges);
    (trace, cfg)
}

/// Dynamic Change over a plateaued environment (§3.4's 50 → 10 alias).
pub fn change_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    let mut schedule = Vec::new();
    for step in 0..days * 4 {
        let v = match step % 4 {
            0 => vec![12.0, 94.0],
            1 | 3 => vec![22.0, 74.0],
            _ => vec![31.0, 56.0],
        };
        schedule.push((step * 6 * 3600, v));
    }
    cfg.environment = sentinet_sim::EnvironmentModel::Piecewise(schedule);
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    let attack = AttackInjection::from_onset(
        first_k_sensors(3),
        AttackModel::DynamicChange {
            offset: vec![-15.0, 0.0],
        },
        0,
    );
    let trace = inject_attacks(&clean, &[attack], &cfg.ranges);
    (trace, cfg)
}

/// Mixed attack alternating creation and deletion phases daily.
pub fn mixed_scenario(days: u64, seed: u64) -> (Trace, SimConfig) {
    let (clean, cfg) = clean_scenario(days, seed);
    let attack = AttackInjection::from_onset(
        first_k_sensors(3),
        AttackModel::Mixed {
            creation_target: vec![40.0, 20.0],
            freeze_at: vec![12.0, 94.0],
            phase_period: DAY_S,
        },
        days / 2 * DAY_S,
    );
    let trace = inject_attacks(&clean, &[attack], &cfg.ranges);
    (trace, cfg)
}

/// Runs the default pipeline over a trace.
pub fn run_pipeline(trace: &Trace, cfg: &SimConfig) -> Pipeline {
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    p.process_trace(trace);
    p
}

/// `"(24,70)"`-style label for a model-state slot, matching the paper's
/// state naming.
pub fn state_label(pipeline: &Pipeline, slot: usize) -> String {
    match pipeline.model_states().and_then(|s| s.centroid_any(slot)) {
        Some(c) => format!("({:.0},{:.0})", c[0], c[1]),
        None => format!("s{slot}"),
    }
}

/// Prints a labeled observation matrix restricted to interesting rows
/// and columns, in the paper's table style.
pub fn print_matrix(
    title: &str,
    b: &sentinet_hmm::StochasticMatrix,
    row_labels: &[String],
    col_labels: &[String],
    rows: &[usize],
    cols: &[usize],
) {
    println!("{title}");
    print!("{:>10}", "i↓ j→");
    for &c in cols {
        print!(" {:>9}", col_labels[c]);
    }
    println!();
    for &r in rows {
        print!("{:>10}", row_labels[r]);
        for &c in cols {
            print!(" {:>9.4}", b[(r, c)]);
        }
        println!();
    }
}

/// Columns of `b` (over the given rows) that carry visible mass — used
/// to keep printed tables to the interesting columns, like the paper.
pub fn visible_columns(
    b: &sentinet_hmm::StochasticMatrix,
    rows: &[usize],
    floor: f64,
) -> Vec<usize> {
    (0..b.num_cols())
        .filter(|&c| rows.iter().any(|&r| b[(r, c)] >= floor))
        .collect()
}

/// Active `B` rows of the global `M_CO` given minimum evidence.
pub fn active_rows(pipeline: &Pipeline) -> Vec<usize> {
    let rows = pipeline.m_co().map(|m| evidenced_rows(m).collect());
    rows.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build() {
        for (name, (trace, cfg)) in [
            ("clean", clean_scenario(1, 1)),
            ("stuck", stuck_at_scenario(2, 1)),
            ("calib", calibration_scenario(1, 1)),
            ("deletion", deletion_scenario(2, 1)),
            ("creation", creation_scenario(2, 1)),
            ("change", change_scenario(1, 1)),
            ("mixed", mixed_scenario(2, 1)),
            ("noise", noise_scenario(1, 1)),
            ("additive", additive_scenario(1, 1)),
        ] {
            assert!(!trace.is_empty(), "{name} trace empty");
            assert_eq!(cfg.num_sensors, 10, "{name} sensors");
        }
    }

    #[test]
    fn run_pipeline_produces_model() {
        let (trace, cfg) = clean_scenario(1, 2);
        let p = run_pipeline(&trace, &cfg);
        assert!(p.correct_model().is_some());
        assert!(!active_rows(&p).is_empty());
        assert!(state_label(&p, 0).starts_with('('));
    }

    #[test]
    fn state_label_names_the_slot_before_a_model_exists() {
        let (_, cfg) = clean_scenario(1, 3);
        let p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
        assert_eq!(state_label(&p, 4), "s4");
        assert!(active_rows(&p).is_empty());
    }

    #[test]
    fn visible_columns_keep_mass_in_the_given_rows_only() {
        let b = sentinet_hmm::StochasticMatrix::from_rows(vec![
            vec![0.9, 0.1, 0.0],
            vec![0.0, 0.5, 0.5],
        ])
        .unwrap();
        assert_eq!(visible_columns(&b, &[0], 0.05), [0, 1]);
        assert_eq!(visible_columns(&b, &[1], 0.05), [1, 2]);
        assert_eq!(visible_columns(&b, &[0, 1], 0.2), [0, 1, 2]);
        assert!(visible_columns(&b, &[], 0.0).is_empty());
    }

    #[test]
    fn stuck_at_scenario_alters_sensor_six_only() {
        // Onset after day 1 and a two-day drift: stuck from day 3 on.
        let (clean, _) = clean_scenario(4, 5);
        let (stuck, _) = stuck_at_scenario(4, 5);
        for sensor in clean.sensors() {
            let differs = clean.sensor_series(sensor) != stuck.sensor_series(sensor);
            assert_eq!(differs, sensor == SensorId(6), "sensor {sensor:?}");
        }
        let series = stuck.sensor_series(SensorId(6));
        let mut late = series.iter().filter(|(t, _)| *t >= 3 * DAY_S);
        assert!(late.clone().count() > 0);
        assert!(late.all(|(_, r)| r.values() == [15.0, 1.0]));
    }
}
