//! Harness-robustness tests: degenerate and hostile input shapes the
//! collector must survive without panicking or mis-diagnosing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Diagnosis, Pipeline, PipelineConfig};
use sentinet_sim::{
    gdi, simulate, EnvironmentModel, Payload, Reading, SensorId, Trace, TraceRecord,
};

fn record(t: u64, s: u16, values: Vec<f64>) -> TraceRecord {
    TraceRecord {
        time: t,
        sensor: SensorId(s),
        payload: Payload::Delivered(Reading::new(values)),
    }
}

#[test]
fn extreme_packet_loss_is_survivable() {
    let mut cfg = gdi::day_config();
    cfg.loss_prob = 0.9;
    cfg.malformed_prob = 0.05;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(3));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    let outcomes = p.process_trace(&trace);
    // Some windows may survive with a couple readings each; whatever
    // happens, the pipeline stays consistent and classification still runs.
    assert!(outcomes.len() <= 24);
    for id in p.sensor_ids() {
        let _ = p.classify(id);
    }
}

#[test]
fn bursty_loss_does_not_frame_sensors() {
    // Gilbert-Elliott bursts silence whole stretches of a sensor's
    // stream; silence must never be mistaken for misbehaviour.
    let mut cfg = gdi::day_config();
    cfg.duration = 3 * 86_400;
    cfg.loss_prob = 0.02;
    cfg.burst = Some(sentinet_sim::BurstLoss {
        p_enter_bad: 0.01,
        p_exit_bad: 0.05,
        loss_bad: 0.95,
    });
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(10));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    p.process_trace(&trace);
    assert_eq!(p.network_attack(), None);
    for id in p.sensor_ids() {
        assert_eq!(p.classify(id), Diagnosis::ErrorFree, "{id}");
    }
}

#[test]
fn single_sensor_network_never_alarms_itself() {
    // With one sensor, the majority is that sensor: it can never
    // disagree with itself, so no alarms and no diagnosis.
    let mut cfg = gdi::day_config();
    cfg.num_sensors = 1;
    cfg.loss_prob = 0.0;
    cfg.malformed_prob = 0.0;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(4));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    let outcomes = p.process_trace(&trace);
    assert!(!outcomes.is_empty());
    assert_eq!(p.classify(SensorId(0)), Diagnosis::ErrorFree);
    assert!(outcomes.iter().all(|o| o.raw_alarms.is_empty()));
}

/// FNV-1a, for pinning a run's bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn sensor_joining_late_is_tracked() {
    // Ten sensors report from the start; 1 and 4 go wrong a quarter of
    // the way in, so the model state they sit in exists by the time two
    // more sensors first report, halfway through: 5, clean, and 2,
    // which sits in that wrong state from its first reading. Sensors
    // with lower and higher ids than both are known by then.
    const OFF: [f64; 2] = [35.0, 40.0];
    let (quarter, half) = (21_600, 43_200);
    let mut records = Vec::new();
    for t in (0..86_400).step_by(300) {
        for s in [0u16, 1, 3, 4, 6, 7, 8, 9, 10, 11] {
            let wrong = (s == 1 || s == 4) && t >= quarter;
            let honest = vec![20.0 + s as f64 * 0.01, 70.0];
            records.push(record(t, s, if wrong { OFF.to_vec() } else { honest }));
        }
        if t >= half {
            records.push(record(t, 2, OFF.to_vec()));
            records.push(record(t, 5, vec![20.0, 70.0]));
        }
    }
    let trace = Trace::from_records(records);
    let mut p = Pipeline::new(PipelineConfig::default(), 300);
    let outcomes = p.process_trace(&trace);
    assert!(p.sensor_ids().contains(&SensorId(5)));
    assert_eq!(p.classify(SensorId(5)), Diagnosis::ErrorFree);
    // Its history only covers the second half.
    let h5 = p.raw_alarm_history(SensorId(5)).unwrap().len();
    let h0 = p.raw_alarm_history(SensorId(0)).unwrap().len();
    assert!(h5 < h0, "late sensor has shorter history: {h5} vs {h0}");

    // The newcomer raises its raw alarm in the window it appears in,
    // between the known sensors', and its filtered alarm in its turn.
    let wrong = [SensorId(1), SensorId(2), SensorId(4)];
    let joined = outcomes.iter().find(|o| o.start == half).unwrap();
    assert_eq!(joined.raw_alarms, wrong);
    assert_eq!(joined.filtered_alarms, [SensorId(1), SensorId(4)]);
    assert_eq!(outcomes.last().unwrap().filtered_alarms, wrong);
    assert!(p.raw_alarm_history(SensorId(2)).unwrap()[0].1);
    let ascending = |ids: &[SensorId]| ids.windows(2).all(|w| w[0] < w[1]);
    for o in &outcomes {
        assert!(ascending(&o.raw_alarms), "raw {:?}", o.raw_alarms);
        assert!(ascending(&o.filtered_alarms), "{:?}", o.filtered_alarms);
    }
    // The state the run ends in — every sensor's raw history, tracks
    // and `M_CE` — as recorded at 62a0109 by this same test, where every
    // sensor of every window was looked up by id.
    let state = sentinet_core::encode_pipeline(&p.snapshot());
    assert_eq!(
        fnv(state.as_bytes()),
        0x9a28_f64b_1bc1_53b3,
        "a mid-stream joiner changed the run"
    );
}

#[test]
fn sensor_vanishing_mid_stream_keeps_its_state() {
    // Sensor 4 goes silent halfway; it must neither alarm nor crash
    // subsequent windows.
    let mut records = Vec::new();
    for t in (0..86_400).step_by(300) {
        for s in 0..4u16 {
            records.push(record(t, s, vec![20.0, 70.0]));
        }
        if t < 43_200 {
            records.push(record(t, 4, vec![20.0, 70.0]));
        }
    }
    let trace = Trace::from_records(records);
    let mut p = Pipeline::new(PipelineConfig::default(), 300);
    let outcomes = p.process_trace(&trace);
    assert!(!outcomes.is_empty());
    assert_eq!(p.classify(SensorId(4)), Diagnosis::ErrorFree);
}

#[test]
fn constant_environment_stays_single_state() {
    let mut cfg = gdi::day_config();
    cfg.environment = EnvironmentModel::Constant(vec![20.0, 70.0]);
    cfg.loss_prob = 0.0;
    cfg.malformed_prob = 0.0;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(6));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    let outcomes = p.process_trace(&trace);
    // All windows agree on one state, no alarms.
    let first = outcomes[0].correct;
    assert!(outcomes.iter().all(|o| o.correct == first));
    assert!(outcomes.iter().all(|o| o.raw_alarms.is_empty()));
    assert_eq!(p.network_attack(), None);
}

#[test]
fn duplicate_timestamps_per_sensor_are_accepted() {
    // Two readings from the same sensor at the same instant (e.g. a
    // retransmission) both land in the window.
    let records = vec![
        record(0, 0, vec![20.0, 70.0]),
        record(0, 0, vec![20.1, 70.1]),
        record(0, 1, vec![20.0, 70.0]),
        record(300, 0, vec![20.0, 70.0]),
        record(300, 1, vec![20.0, 70.0]),
    ];
    let trace = Trace::from_records(records);
    let mut p = Pipeline::new(PipelineConfig::default(), 300);
    let _ = p.process_trace(&trace);
}

#[test]
fn wildly_different_magnitudes_do_not_break_clustering() {
    // Attributes on very different scales (e.g. pressure in Pa).
    let mut records = Vec::new();
    for t in (0..43_200).step_by(300) {
        for s in 0..6u16 {
            records.push(record(t, s, vec![20.0, 101_325.0]));
        }
    }
    let trace = Trace::from_records(records);
    let mut cfg = PipelineConfig::default();
    cfg.cluster.spawn_threshold = 500.0;
    cfg.cluster.merge_threshold = 100.0;
    let mut p = Pipeline::new(cfg, 300);
    let outcomes = p.process_trace(&trace);
    assert!(!outcomes.is_empty());
    assert!(outcomes.iter().all(|o| o.raw_alarms.is_empty()));
}

#[test]
fn window_larger_than_trace_still_finalizes() {
    let cfg = PipelineConfig {
        window_samples: 1_000, // window >> trace
        ..Default::default()
    };
    let records: Vec<TraceRecord> = (0..10)
        .map(|i| record(i * 300, (i % 3) as u16, vec![20.0, 70.0]))
        .collect();
    let trace = Trace::from_records(records);
    let mut p = Pipeline::new(cfg, 300);
    let outcomes = p.process_trace(&trace);
    // Everything lands in one finalized window — or none if bootstrap
    // needed more data; either way no panic and consistent state.
    assert!(outcomes.len() <= 1);
}

#[test]
fn alternating_fast_environment_degrades_gracefully() {
    // Environment flips every sample — far faster than the window; the
    // paper requires Θ(t) ≈ constant per window, so quality degrades
    // but nothing breaks and clean sensors are not condemned.
    let env = EnvironmentModel::Piecewise(
        (0..288)
            .map(|i| {
                (
                    i * 300,
                    if i % 2 == 0 {
                        vec![10.0, 90.0]
                    } else {
                        vec![30.0, 50.0]
                    },
                )
            })
            .collect(),
    );
    let mut cfg = gdi::day_config();
    cfg.environment = env;
    cfg.loss_prob = 0.0;
    cfg.malformed_prob = 0.0;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(8));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    p.process_trace(&trace);
    assert_eq!(
        p.network_attack(),
        None,
        "fast dynamics must not look like attacks"
    );
    for id in p.sensor_ids() {
        assert_eq!(p.classify(id), Diagnosis::ErrorFree, "{id}");
    }
}
