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

    assert!(run.degraded().is_none(), "no faults, no degradation");
    assert!(run.shard_restarts().is_empty(), "no faults, no restarts");
    assert_eq!(
        run.outcomes(),
        serial_outcomes.as_slice(),
        "window outcomes diverged at {num_shards} shards"
    );
    assert_eq!(run.windows_processed(), pipeline.windows_processed());
    assert_eq!(sharded.state_history(), pipeline.state_history());
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
