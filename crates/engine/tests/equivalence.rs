//! Determinism/equivalence suite: the sharded engine must produce
//! output **bit-for-bit identical** to the serial
//! `sentinet_core::Pipeline` at every shard count, on clean, faulty,
//! and attacked fixed-seed scenarios.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_engine::Engine;
use sentinet_inject::{
    first_k_sensors, inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection,
    FaultModel,
};
use sentinet_sim::{gdi, simulate, Payload, Reading, SensorId, Trace, DAY_S};

fn clean_scenario(seed: u64, days: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    (trace, cfg.sample_period)
}

fn stuck_at_scenario(seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 4 * DAY_S;
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(6),
            FaultModel::StuckAt {
                value: vec![15.0, 1.0],
            },
            DAY_S,
        )],
        &cfg.ranges,
        &mut rng,
    );
    (faulty, cfg.sample_period)
}

/// The stuck-at scenario with sensor 4 unheard of for the first two
/// days and stuck where sensor 6 is from its first reading on: a
/// sensor whose first step raises a raw alarm, with lower and higher
/// ids — sensor 6, alarming, among them — long known to the workers.
fn late_joiner_scenario(seed: u64) -> (Trace, u64) {
    let (trace, period) = stuck_at_scenario(seed);
    let joiner = SensorId(4);
    let mut records = trace.into_records();
    records.retain(|r| r.sensor != joiner || r.time >= 2 * DAY_S);
    for r in records.iter_mut().filter(|r| r.sensor == joiner) {
        if let Payload::Delivered(reading) = &mut r.payload {
            *reading = Reading::new(vec![15.0, 1.0]);
        }
    }
    (Trace::from_records(records), period)
}

fn creation_scenario(seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 5 * DAY_S;
    cfg.environment = sentinet_sim::EnvironmentModel::Constant(vec![12.0, 95.0]);
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    let attacks: Vec<AttackInjection> = (0..4)
        .map(|i| AttackInjection {
            sensors: first_k_sensors(3),
            model: AttackModel::DynamicCreation {
                target: vec![25.0, 69.0],
            },
            start: 2 * DAY_S + i * 12 * 3600,
            end: Some(2 * DAY_S + i * 12 * 3600 + 6 * 3600),
        })
        .collect();
    let attacked = inject_attacks(&clean, &attacks, &cfg.ranges);
    (attacked, cfg.sample_period)
}

/// Asserts the engine at `num_shards` matches the serial pipeline on
/// every observable product: window outcomes, decisive-window history,
/// diagnoses, confidences, network verdict, alarm/track state, and the
/// per-sensor `M_CE` matrices (exact equality — the per-sensor float
/// work runs in serial order on exactly one thread).
fn assert_equivalent(trace: &Trace, sample_period: u64, num_shards: usize) {
    let mut pipeline = Pipeline::new(PipelineConfig::default(), sample_period);
    let serial_outcomes = pipeline.process_trace(trace);

    let engine = Engine::new(PipelineConfig::default(), sample_period, num_shards);
    let run = engine.process_trace(trace).expect("healthy run");
    let sharded = run.pipeline();

    assert_eq!(
        run.outcomes(),
        serial_outcomes.as_slice(),
        "window outcomes diverged at {num_shards} shards"
    );
    assert_eq!(run.windows_processed(), pipeline.windows_processed());
    assert_eq!(sharded.sensor_ids(), pipeline.sensor_ids());
    assert_eq!(sharded.network_attack(), pipeline.network_attack());
    assert_eq!(sharded.classify_all(), pipeline.classify_all());
    for id in pipeline.sensor_ids() {
        assert_eq!(sharded.ever_alarmed(id), pipeline.ever_alarmed(id), "{id}");
        assert_eq!(sharded.tracks(id), pipeline.tracks(id), "{id}");
        assert_eq!(
            sharded.raw_alarm_history(id),
            pipeline.raw_alarm_history(id),
            "{id}"
        );
        let (serial_m_ce, engine_m_ce) = (pipeline.m_ce(id).unwrap(), sharded.m_ce(id).unwrap());
        assert_eq!(serial_m_ce, engine_m_ce, "M_CE diverged for {id}");
        let (sd, sc) = pipeline.classify_with_confidence(id);
        let (ed, ec) = sharded.classify_with_confidence(id);
        assert_eq!(sd, ed, "{id}");
        assert_eq!(sc.to_bits(), ec.to_bits(), "confidence diverged for {id}");
    }
}

#[test]
fn clean_trace_is_shard_invariant() {
    let (trace, period) = clean_scenario(11, 3);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn stuck_at_trace_is_shard_invariant() {
    let (trace, period) = stuck_at_scenario(20);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn mid_stream_joiner_is_shard_invariant() {
    let (trace, period) = late_joiner_scenario(20);
    let mut serial = Pipeline::new(PipelineConfig::default(), period);
    let outcomes = serial.process_trace(&trace);
    let joined = outcomes.iter().find(|o| o.start == 2 * DAY_S).unwrap();
    assert_eq!(joined.raw_alarms, [SensorId(4), SensorId(6)]);
    assert_eq!(joined.filtered_alarms, [SensorId(6)]);
    for shards in [2, 3] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn creation_attack_trace_is_shard_invariant() {
    let (trace, period) = creation_scenario(7);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn engine_runs_are_deterministic_across_repeats() {
    let (trace, period) = stuck_at_scenario(33);
    let engine = Engine::new(PipelineConfig::default(), period, 3);
    let a = engine.process_trace(&trace).expect("healthy run");
    let b = engine.process_trace(&trace).expect("healthy run");
    assert_eq!(a.outcomes(), b.outcomes());
    assert_eq!(a.pipeline().classify_all(), b.pipeline().classify_all());
}

#[test]
fn shard_count_larger_than_sensor_count_is_fine() {
    let (trace, period) = clean_scenario(5, 2);
    assert_equivalent(&trace, period, 8);
}

fn faulty_scenario(seed: u64, days: u64, fault: FaultInjection) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(&clean, &[fault], &cfg.ranges, &mut rng);
    (faulty, cfg.sample_period)
}

/// `trace` with every sensor renamed by `rename`.
fn renamed(trace: Trace, rename: impl Fn(SensorId) -> SensorId) -> Trace {
    let mut records = trace.into_records();
    for r in &mut records {
        r.sensor = rename(r.sensor);
    }
    Trace::from_records(records)
}

#[test]
fn calibration_fault_trace_is_shard_invariant() {
    let fault = FaultInjection::from_onset(
        SensorId(7),
        FaultModel::Calibration {
            gain: vec![1.0, 1.1],
        },
        DAY_S,
    );
    let (trace, period) = faulty_scenario(12, 4, fault);
    for shards in [2, 3] {
        assert_equivalent(&trace, period, shards);
    }
}

/// A sensor that drops half its packets is missing from some windows'
/// votes: the shards' step batches then differ from window to window.
#[test]
fn outage_trace_is_shard_invariant() {
    let fault =
        FaultInjection::from_onset(SensorId(3), FaultModel::Outage { drop_prob: 0.5 }, DAY_S);
    let (trace, period) = faulty_scenario(13, 3, fault);
    for shards in [2, 3] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn deletion_attack_trace_is_shard_invariant() {
    let mut cfg = gdi::month_config();
    cfg.duration = 5 * DAY_S;
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(9));
    let attack = AttackInjection {
        sensors: first_k_sensors(3),
        model: AttackModel::DynamicDeletion {
            freeze_at: vec![12.0, 94.0],
        },
        start: 2 * DAY_S,
        end: None,
    };
    let attacked = inject_attacks(&clean, &[attack], &cfg.ranges);
    for shards in [2, 4] {
        assert_equivalent(&attacked, cfg.sample_period, shards);
    }
}

/// Sensor ids that are all multiples of the shard count land on shard
/// 0 alone; the other shards step nothing.
#[test]
fn sensors_all_on_one_shard_are_shard_invariant() {
    let (trace, period) = stuck_at_scenario(21);
    let trace = renamed(trace, |id| SensorId(id.0 * 4));
    for shards in [2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn single_sensor_trace_is_shard_invariant() {
    let (trace, period) = clean_scenario(8, 2);
    let mut records = trace.into_records();
    records.retain(|r| r.sensor == SensorId(5));
    let trace = Trace::from_records(records);
    for shards in [2, 3] {
        assert_equivalent(&trace, period, shards);
    }
}

/// Alternating creation and deletion phases keep adding model states,
/// so every shard's estimators must grow in step mid-run.
#[test]
fn mixed_attack_trace_is_shard_invariant() {
    let mut cfg = gdi::month_config();
    cfg.duration = 5 * DAY_S;
    cfg.environment = sentinet_sim::EnvironmentModel::Constant(vec![12.0, 95.0]);
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(14));
    let attack = AttackInjection {
        sensors: first_k_sensors(3),
        model: AttackModel::Mixed {
            creation_target: vec![25.0, 69.0],
            freeze_at: vec![12.0, 95.0],
            phase_period: 12 * 3600,
        },
        start: 2 * DAY_S,
        end: None,
    };
    let attacked = inject_attacks(&clean, &[attack], &cfg.ranges);
    let outcomes =
        Pipeline::new(PipelineConfig::default(), cfg.sample_period).process_trace(&attacked);
    assert!(
        outcomes.iter().any(|o| o.start >= 2 * DAY_S
            && o.cluster_events
                .iter()
                .any(|e| matches!(e, sentinet_cluster::StateEvent::Spawned(_)))),
        "the attack spawns a state mid-run"
    );
    for shards in [2, 3] {
        assert_equivalent(&attacked, cfg.sample_period, shards);
    }
}
