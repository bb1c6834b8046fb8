//! Checkpoint round trip of the per-sensor half of the pipeline:
//! snapshotting a [`SensorMap`] through the text codec and restoring
//! it must preserve the operator-facing outputs — diagnosis,
//! confidence, alarm and track history — bit-for-bit, and a restored
//! map must step on exactly like the original.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::checkpoint::{decode_shard, encode_shard};
use sentinet_core::{
    Coordinator, Pipeline, PipelineConfig, SensorMap, SensorSnapshot, SensorStages, WindowOutcome,
};
use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
use sentinet_sim::{gdi, simulate, SensorId, Trace, DAY_S};

fn scenario() -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 3 * DAY_S;
    let mut rng = StdRng::seed_from_u64(41);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(2),
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

/// The sensors a whole-trace run left in one map, and its coordinator.
fn run(config: &PipelineConfig, trace: &Trace, period: u64) -> (Coordinator, SensorMap) {
    let mut sensors = SensorMap::new(config.clone());
    let mut coordinator = Coordinator::new(config.clone(), period);
    coordinator.process_trace(&mut sensors, trace);
    (coordinator, sensors)
}

/// `sensors` rebuilt from their checkpoint text.
fn round_trip(config: PipelineConfig, sensors: &SensorMap) -> SensorMap {
    let shard: Vec<(SensorId, SensorSnapshot)> = sensors.snapshots();
    let decoded = decode_shard(&encode_shard(&shard)).expect("codec round trip");
    assert_eq!(decoded, shard, "codec changed the snapshot");
    SensorMap::restore(config, decoded).expect("snapshots are valid")
}

#[test]
fn restore_preserves_classification_and_alarm_outputs() {
    let (trace, period) = scenario();
    let config = PipelineConfig::default();

    // Serial reference for the classification outputs.
    let mut pipeline = Pipeline::new(config.clone(), period);
    pipeline.process_trace(&trace);

    let (coordinator, mut sensors) = run(&config, &trace, period);
    let global = coordinator.global();
    let mut twin = round_trip(config, &sensors);
    let originals = sensors.take();
    let restored = twin.take();
    assert_eq!(
        originals.keys().collect::<Vec<_>>(),
        restored.keys().collect::<Vec<_>>()
    );
    assert!(originals.keys().any(|&id| id == SensorId(2)));

    for (id, original) in &originals {
        let twin = &restored[id];
        // Classification and confidence from the restored state must be
        // bit-identical to both the original runtime and the pipeline.
        assert_eq!(
            global.classify(Some(original)),
            global.classify(Some(twin)),
            "{id}: diagnosis changed across restore"
        );
        let (diag_orig, conf_orig) = global.classify_with_confidence(Some(original));
        let (diag_twin, conf_twin) = global.classify_with_confidence(Some(twin));
        assert_eq!(diag_orig, diag_twin, "{id}");
        assert_eq!(conf_orig.to_bits(), conf_twin.to_bits(), "{id}: confidence");
        assert_eq!(diag_twin, pipeline.classify(*id), "{id}: vs serial");

        // Alarm and track products survive the round trip exactly.
        assert_eq!(original.raw_history(), twin.raw_history(), "{id}");
        assert_eq!(original.tracks(), twin.tracks(), "{id}");
        assert_eq!(original.ever_alarmed(), twin.ever_alarmed(), "{id}");
        assert_eq!(original.m_ce(), twin.m_ce(), "{id}");
    }
}

#[test]
fn restored_sensor_map_continues_bit_identically_mid_run() {
    let (trace, period) = scenario();
    let config = PipelineConfig::default();
    let (_, mut sensors) = run(&config, &trace, period);

    // Restore mid-state, then step both maps through the same
    // additional windows: every alarm list must match.
    let mut twin = round_trip(config, &sensors);
    let ids: Vec<SensorId> = sensors.snapshots().iter().map(|(id, _)| *id).collect();
    let start = 1000u64;
    for w in 0..8u64 {
        let labels: Vec<(SensorId, usize)> = ids
            .iter()
            .map(|&id| (id, usize::from((w + u64::from(id.0)) % 3 == 0)))
            .collect();
        let window = WindowOutcome {
            index: start + w,
            correct: 0,
            ..WindowOutcome::default()
        };
        let (mut a, mut b) = (window.clone(), window);
        sensors.step(2, labels.iter().copied(), &mut a);
        twin.step(2, labels.into_iter(), &mut b);
        assert_eq!(
            a.raw_alarms, b.raw_alarms,
            "window {w}: raw alarms diverged"
        );
        assert_eq!(
            a.filtered_alarms, b.filtered_alarms,
            "window {w}: filtered alarms diverged"
        );
    }
    let (a, b) = (sensors.take(), twin.take());
    for (id, original) in &a {
        assert_eq!(original.m_ce(), b[id].m_ce(), "{id}: M_CE diverged");
        assert_eq!(original.tracks(), b[id].tracks(), "{id}: tracks diverged");
    }
}
