//! Metamorphic properties of the Fig. 1 pass: a pinned report says a
//! run is what it was last week, these say it is right in ways that do
//! not depend on last week. Each transforms a seeded scenario — clean,
//! one of three faults or one of three attacks on a three-day network —
//! in a way the detector must not see through, and asserts that the
//! window outcomes and the verdicts are unchanged (up to the transform)
//! and, where the transform leaves every float operation in place,
//! that the checkpoint bytes are too.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use rand::rngs::StdRng;
use rand::SeedableRng;
use seeded::TestRng;
use sentinet_core::{
    decode_pipeline, encode_pipeline, Diagnosis, ErrorType, Pipeline, PipelineConfig, WindowOutcome,
};
use sentinet_inject::{
    first_k_sensors, inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection,
    FaultModel,
};
use sentinet_sim::{gdi, simulate, SensorId, Timestamp, DAY_S};

/// One delivered reading.
type Reading = (Timestamp, SensorId, Vec<f64>);

/// A seeded three-day scenario, its delivered readings in arrival
/// order, and its sampling period.
fn scenario(rng: &mut TestRng) -> (Vec<Reading>, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 3 * DAY_S;
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(rng.next_u64()));
    let sensor = SensorId(rng.range(0..cfg.num_sensors));
    let fault = |model| {
        let fault = FaultInjection::from_onset(sensor, model, DAY_S);
        let mut noise = StdRng::seed_from_u64(7);
        inject_faults(&clean, &[fault], &cfg.ranges, &mut noise)
    };
    let attack = |model| {
        let attack = AttackInjection::from_onset(first_k_sensors(3), model, DAY_S);
        inject_attacks(&clean, &[attack], &cfg.ranges)
    };
    let trace = match rng.range(0u8..7) {
        0 => clean.clone(),
        1 => fault(FaultModel::StuckAt {
            value: vec![15.0, 1.0],
        }),
        2 => fault(FaultModel::Calibration {
            gain: vec![1.4, 1.4],
        }),
        3 => fault(FaultModel::Additive {
            offset: vec![6.0, -12.0],
        }),
        4 => attack(AttackModel::DynamicCreation {
            target: vec![25.0, 69.0],
        }),
        5 => attack(AttackModel::DynamicDeletion {
            freeze_at: vec![20.0, 70.0],
        }),
        _ => attack(AttackModel::DynamicChange {
            offset: vec![-5.0, 0.0],
        }),
    };
    let readings = trace
        .delivered()
        .map(|(t, s, r)| (t, s, r.values().to_vec()))
        .collect();
    (readings, cfg.sample_period)
}

/// `readings` through a fresh pipeline, in the order given, the final
/// window flushed: every outcome, and the pipeline for its verdicts.
fn run(readings: &[Reading], period: u64) -> (Vec<WindowOutcome>, Pipeline) {
    run_with(PipelineConfig::default(), readings, period)
}

/// [`run`] under `config`.
fn run_with(
    config: PipelineConfig,
    readings: &[Reading],
    period: u64,
) -> (Vec<WindowOutcome>, Pipeline) {
    let mut pipeline = Pipeline::new(config, period);
    let mut outcomes = Vec::new();
    for (time, sensor, values) in readings {
        outcomes.extend(pipeline.push_values(*time, *sensor, values));
    }
    outcomes.extend(pipeline.finalize());
    (outcomes, pipeline)
}

/// `verdict` with its per-attribute estimates listed the other way
/// round.
fn swap_attributes(verdict: Diagnosis) -> Diagnosis {
    match verdict {
        Diagnosis::Error(ErrorType::Calibration { mut gains }) => {
            gains.reverse();
            Diagnosis::Error(ErrorType::Calibration { gains })
        }
        Diagnosis::Error(ErrorType::Additive { mut offsets }) => {
            offsets.reverse();
            Diagnosis::Error(ErrorType::Additive { offsets })
        }
        other => other,
    }
}

seeded::properties! {
    var: "METAMORPHIC_SEED", package: "sentinet-core", target: "--test metamorphic", cases: 16;

    /// Renaming sensors by an order-preserving map renames the alarms
    /// and verdicts and changes nothing else: per-sensor state is
    /// keyed by id, and every pass walks ids in ascending order.
    fn renaming_sensors_in_order_renames_the_verdicts_and_nothing_else(rng) {
        let (readings, period) = scenario(rng);
        let stride = rng.range(1u16..40);
        let rename = |s: SensorId| SensorId(stride * s.0 + 2);
        let renamed: Vec<Reading> =
            readings.iter().map(|(t, s, v)| (*t, rename(*s), v.clone())).collect();
        let ((mut want, a), (got, b)) = (run(&readings, period), run(&renamed, period));
        for outcome in &mut want {
            outcome.raw_alarms.iter_mut().for_each(|s| *s = rename(*s));
            outcome.filtered_alarms.iter_mut().for_each(|s| *s = rename(*s));
        }
        assert_eq!(got, want);
        let verdicts: Vec<_> = a.classify_all().into_iter().map(|(s, d)| (rename(s), d)).collect();
        assert_eq!(b.classify_all().into_iter().collect::<Vec<_>>(), verdicts);
        assert_eq!(b.network_attack(), a.network_attack());
    }

    /// Moving the time origin by whole windows moves the window starts
    /// and nothing else.
    fn shifting_time_by_whole_windows_moves_only_the_window_starts(rng) {
        let (readings, period) = scenario(rng);
        let window = u64::from(PipelineConfig::default().window_samples) * period;
        let shift = window * rng.range(1u64..1_000);
        let shifted: Vec<Reading> =
            readings.iter().map(|(t, s, v)| (t + shift, *s, v.clone())).collect();
        let ((mut want, a), (got, b)) = (run(&readings, period), run(&shifted, period));
        want.iter_mut().for_each(|outcome| outcome.start += shift);
        assert_eq!(got, want);
        assert_eq!(b.classify_all(), a.classify_all());
        assert_eq!(b.network_attack(), a.network_attack());
    }

    /// Readings of one instant may arrive in any order: a window keeps
    /// its readings by sensor, so the order among sensors never reaches
    /// a float operation, and the checkpoint comes out byte for byte.
    /// (Eq. 2 breaks distance ties by a reading's place in that
    /// by-sensor order, never by its arrival across sensors.)
    fn readings_of_one_instant_arrive_in_any_order(rng) {
        let (readings, period) = scenario(rng);
        let mut shuffled = readings.clone();
        for instant in shuffled.chunk_by_mut(|a, b| a.0 == b.0) {
            for i in (1..instant.len()).rev() {
                instant.swap(i, rng.range(0..i + 1));
            }
        }
        let ((want, a), (got, b)) = (run(&readings, period), run(&shuffled, period));
        assert_eq!(got, want);
        assert_eq!(encode_pipeline(&b.snapshot()), encode_pipeline(&a.snapshot()));
    }

    /// The pass is online: a prefix of the stream yields exactly the
    /// outcomes the whole stream yields for the windows the prefix
    /// closed.
    fn a_prefix_of_the_stream_yields_a_prefix_of_the_outcomes(rng) {
        let (readings, period) = scenario(rng);
        let (whole, _) = run(&readings, period);
        let cut = rng.range(0..readings.len());
        let mut pipeline = Pipeline::new(PipelineConfig::default(), period);
        let mut prefix = Vec::new();
        for (time, sensor, values) in &readings[..cut] {
            prefix.extend(pipeline.push_values(*time, *sensor, values));
        }
        assert_eq!(prefix[..], whole[..prefix.len()]);
    }

    /// A change of units by a power of two, the distance thresholds
    /// scaled to match, scales the additive estimates and changes
    /// nothing else: multiplying by a power of two is exact, so every
    /// sum, mean, square root and ratio the pass takes scales exactly
    /// or not at all.
    fn a_power_of_two_change_of_units_scales_only_the_offsets(rng) {
        let (readings, period) = scenario(rng);
        let scale = rng.pick(&[0.25, 0.5, 2.0, 8.0]);
        let scaled: Vec<Reading> = readings
            .iter()
            .map(|(t, s, v)| (*t, *s, v.iter().map(|x| x * scale).collect()))
            .collect();
        let mut config = PipelineConfig::default();
        config.cluster.merge_threshold *= scale;
        config.cluster.spawn_threshold *= scale;
        let ((want, a), (got, b)) =
            (run(&readings, period), run_with(config, &scaled, period));
        assert_eq!(got, want);
        let verdicts: Vec<_> = a
            .classify_all()
            .into_iter()
            .map(|(s, d)| match d {
                Diagnosis::Error(ErrorType::Additive { offsets }) => {
                    let offsets = offsets.iter().map(|x| x * scale).collect();
                    (s, Diagnosis::Error(ErrorType::Additive { offsets }))
                }
                other => (s, other),
            })
            .collect();
        assert_eq!(b.classify_all().into_iter().collect::<Vec<_>>(), verdicts);
        assert_eq!(b.network_attack(), a.network_attack());
    }

    /// A restore point taken after any reading — before the bootstrap,
    /// inside a window, at its last reading — and decoded from its
    /// text continues to the outcomes and the final bytes of the run
    /// that never stopped.
    fn a_restore_after_any_reading_is_invisible(rng) {
        let (readings, period) = scenario(rng);
        let ((whole, uninterrupted), cut) = (run(&readings, period), rng.range(0..readings.len()));
        let mut first = Pipeline::new(PipelineConfig::default(), period);
        let mut outcomes = Vec::new();
        for (time, sensor, values) in &readings[..cut] {
            outcomes.extend(first.push_values(*time, *sensor, values));
        }
        let text = encode_pipeline(&first.snapshot());
        let snapshot = decode_pipeline(&text).map_err(|e| format!("cut {cut}: {e}"))?;
        let mut resumed = Pipeline::from_snapshot(PipelineConfig::default(), period, snapshot)
            .map_err(|e| format!("cut {cut}: {e}"))?;
        for (time, sensor, values) in &readings[cut..] {
            outcomes.extend(resumed.push_values(*time, *sensor, values));
        }
        outcomes.extend(resumed.finalize());
        assert_eq!(outcomes, whole, "cut {cut}");
        assert_eq!(encode_pipeline(&resumed.snapshot()), encode_pipeline(&uninterrupted.snapshot()));
    }

    /// Listing the two attributes the other way round changes no
    /// window outcome, and a verdict only by listing its per-attribute
    /// estimates the other way round too: with two attributes every
    /// sum over them is one commutative addition, so no float operation
    /// changes its result.
    fn swapping_the_two_attributes_swaps_the_estimates_and_nothing_else(rng) {
        let (readings, period) = scenario(rng);
        let swapped: Vec<Reading> =
            readings.iter().map(|(t, s, v)| (*t, *s, vec![v[1], v[0]])).collect();
        let ((want, a), (got, b)) = (run(&readings, period), run(&swapped, period));
        assert_eq!(got, want);
        let verdicts: Vec<_> =
            a.classify_all().into_iter().map(|(s, d)| (s, swap_attributes(d))).collect();
        assert_eq!(b.classify_all().into_iter().collect::<Vec<_>>(), verdicts);
        assert_eq!(b.network_attack(), a.network_attack());
    }
}
