//! Checkpoint round trip of the pipeline mid-run, sensors included:
//! `Pipeline::snapshot` → `encode_pipeline` → `decode_pipeline` →
//! `Pipeline::from_snapshot` must preserve every operator-facing output
//! — diagnosis, confidence, alarm and track history, `M_CE` — bit for
//! bit, and a pipeline restored mid-run must continue exactly like the
//! uninterrupted one. The scenarios are the ones `report_pin` and
//! `metamorphic.rs` lack: a late joiner, mid-run spawns under a
//! creation and a mixed attack, an outage and a single sensor.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_cluster::StateEvent;
use sentinet_core::{decode_pipeline, encode_pipeline, Pipeline, PipelineConfig, WindowOutcome};
use sentinet_inject::{
    first_k_sensors, inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection,
    FaultModel,
};
use sentinet_sim::{gdi, simulate, EnvironmentModel, Payload, Reading, SensorId, Trace, DAY_S};

fn faulty_scenario(seed: u64, days: u64, fault: FaultInjection) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(&clean, &[fault], &cfg.ranges, &mut rng);
    (faulty, cfg.sample_period)
}

fn stuck_at_scenario(seed: u64, sensor: u16, days: u64) -> (Trace, u64) {
    let stuck = FaultModel::StuckAt {
        value: vec![15.0, 1.0],
    };
    let fault = FaultInjection::from_onset(SensorId(sensor), stuck, DAY_S);
    faulty_scenario(seed, days, fault)
}

/// Five days under a constant environment, the first three sensors
/// attacked with `model` from day two.
fn attack_scenario(seed: u64, attacks: impl Fn(u64) -> Vec<AttackInjection>) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 5 * DAY_S;
    cfg.environment = EnvironmentModel::Constant(vec![12.0, 95.0]);
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    let attacked = inject_attacks(&clean, &attacks(2 * DAY_S), &cfg.ranges);
    (attacked, cfg.sample_period)
}

/// `pipeline` through the text codec and back.
fn round_trip(pipeline: &Pipeline, period: u64) -> Pipeline {
    let snapshot = pipeline.snapshot();
    let decoded = decode_pipeline(&encode_pipeline(&snapshot)).expect("codec round trip");
    assert_eq!(decoded, snapshot, "codec changed the snapshot");
    Pipeline::from_snapshot(pipeline.config().clone(), period, decoded).expect("valid snapshot")
}

/// Every operator-facing output of `a` and `b` is equal, confidences
/// to the bit.
fn assert_same_outputs(a: &Pipeline, b: &Pipeline) {
    assert_eq!(a.sensor_ids(), b.sensor_ids());
    assert_eq!(a.windows_processed(), b.windows_processed());
    assert_eq!(a.network_attack(), b.network_attack());
    assert_eq!(a.classify_all(), b.classify_all());
    assert_eq!(a.report(), b.report());
    for id in a.sensor_ids() {
        let ((da, ca), (db, cb)) = (
            a.classify_with_confidence(id),
            b.classify_with_confidence(id),
        );
        assert_eq!((da, ca.to_bits()), (db, cb.to_bits()), "{id}");
        assert_eq!(a.raw_alarm_history(id), b.raw_alarm_history(id), "{id}");
        assert_eq!(a.tracks(id), b.tracks(id), "{id}");
        assert_eq!(a.ever_alarmed(id), b.ever_alarmed(id), "{id}");
        assert_eq!(a.m_ce(id), b.m_ce(id), "{id}: M_CE");
    }
}

/// Runs `trace` whole, and again restored through the text codec after
/// each of `cuts` (shares of its delivered readings). Every restored run
/// must yield the same outcomes and end byte-equal to the uninterrupted
/// one; returns the latter and its outcomes.
fn assert_restores_mid_run(
    trace: &Trace,
    period: u64,
    cuts: &[f64],
) -> (Pipeline, Vec<WindowOutcome>) {
    let delivered: Vec<_> = trace.delivered().collect();
    let mut whole = Pipeline::new(PipelineConfig::default(), period);
    let expected = whole.process_trace(trace);
    let end = encode_pipeline(&whole.snapshot());
    for &cut in cuts {
        let split = (delivered.len() as f64 * cut) as usize;
        let mut first = Pipeline::new(PipelineConfig::default(), period);
        let mut outcomes = Vec::new();
        for &(time, sensor, reading) in &delivered[..split] {
            outcomes.extend(first.push_reading(time, sensor, reading));
        }
        let mut resumed = round_trip(&first, period);
        assert_same_outputs(&first, &resumed);
        for &(time, sensor, reading) in &delivered[split..] {
            outcomes.extend(resumed.push_reading(time, sensor, reading));
        }
        outcomes.extend(resumed.finalize());
        assert_eq!(
            outcomes, expected,
            "outcomes diverged after a restore at {cut}"
        );
        assert_eq!(
            encode_pipeline(&resumed.snapshot()),
            end,
            "end state, cut at {cut}"
        );
        assert_same_outputs(&whole, &resumed);
    }
    (whole, expected)
}

/// Whether a model state spawned in a window starting at or after `from`.
fn spawns_from(outcomes: &[WindowOutcome], from: u64) -> bool {
    let spawned = |o: &WindowOutcome| {
        o.cluster_events
            .iter()
            .any(|e| matches!(e, StateEvent::Spawned(_)))
    };
    outcomes.iter().any(|o| o.start >= from && spawned(o))
}

#[test]
fn restore_preserves_classification_and_alarm_outputs() {
    let (trace, period) = stuck_at_scenario(41, 2, 3);
    let mut pipeline = Pipeline::new(PipelineConfig::default(), period);
    pipeline.process_trace(&trace);
    assert!(
        pipeline.ever_alarmed(SensorId(2)),
        "the fault raised no alarm"
    );
    let restored = round_trip(&pipeline, period);
    assert_same_outputs(&pipeline, &restored);
}

#[test]
fn restored_sensor_map_continues_bit_identically_mid_run() {
    let (trace, period) = stuck_at_scenario(41, 2, 3);
    assert_restores_mid_run(&trace, period, &[0.2, 0.5, 0.8]);
}

/// Sensor 4 unheard of for two days, then stuck where sensor 6 is: a
/// sensor whose first step raises a raw alarm, restored before and
/// after it joins.
#[test]
fn a_late_joiner_restores_mid_run_bit_identically() {
    let (trace, period) = stuck_at_scenario(20, 6, 4);
    let joiner = SensorId(4);
    let mut records = trace.into_records();
    records.retain(|r| r.sensor != joiner || r.time >= 2 * DAY_S);
    for r in records.iter_mut().filter(|r| r.sensor == joiner) {
        if let Payload::Delivered(reading) = &mut r.payload {
            *reading = Reading::new(vec![15.0, 1.0]);
        }
    }
    let trace = Trace::from_records(records);
    let (_, outcomes) = assert_restores_mid_run(&trace, period, &[0.4, 0.6]);
    let joined = outcomes.iter().find(|o| o.start == 2 * DAY_S).unwrap();
    assert_eq!(joined.raw_alarms, [SensorId(4), SensorId(6)]);
    assert_eq!(joined.filtered_alarms, [SensorId(6)]);
}

/// Four six-hour creation attacks from day two: model states spawn
/// after the first cut, so the restored sensors must grow with them.
#[test]
fn creation_attack_spawns_restore_mid_run_bit_identically() {
    let (trace, period) = attack_scenario(7, |start| {
        (0..4)
            .map(|i| AttackInjection {
                sensors: first_k_sensors(3),
                model: AttackModel::DynamicCreation {
                    target: vec![25.0, 69.0],
                },
                start: start + i * 12 * 3600,
                end: Some(start + i * 12 * 3600 + 6 * 3600),
            })
            .collect()
    });
    // The first cut falls in day two's first half, before any spawn.
    let (_, outcomes) = assert_restores_mid_run(&trace, period, &[0.25, 0.5]);
    assert!(spawns_from(&outcomes, 3 * DAY_S / 2), "no spawn after it");
}

/// Alternating creation and deletion phases from day two keep adding
/// model states.
#[test]
fn a_mixed_attack_restores_mid_run_bit_identically() {
    let (trace, period) = attack_scenario(14, |start| {
        vec![AttackInjection {
            sensors: first_k_sensors(3),
            model: AttackModel::Mixed {
                creation_target: vec![25.0, 69.0],
                freeze_at: vec![12.0, 95.0],
                phase_period: 12 * 3600,
            },
            start,
            end: None,
        }]
    });
    let (_, outcomes) = assert_restores_mid_run(&trace, period, &[0.25, 0.5]);
    assert!(spawns_from(&outcomes, 3 * DAY_S / 2), "no spawn after it");
}

/// A sensor that drops half its packets sits some windows' votes out.
#[test]
fn an_outage_restores_mid_run_bit_identically() {
    let outage = FaultModel::Outage { drop_prob: 0.5 };
    let fault = FaultInjection::from_onset(SensorId(3), outage, DAY_S);
    let (trace, period) = faulty_scenario(13, 3, fault);
    assert_restores_mid_run(&trace, period, &[0.5, 0.7]);
}

#[test]
fn a_single_sensor_restores_mid_run_bit_identically() {
    let mut cfg = gdi::month_config();
    cfg.duration = 2 * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(8));
    let mut records = trace.into_records();
    records.retain(|r| r.sensor == SensorId(5));
    let trace = Trace::from_records(records);
    let (whole, _) = assert_restores_mid_run(&trace, cfg.sample_period, &[0.5]);
    assert_eq!(whole.sensor_ids(), [SensorId(5)]);
}
