//! Harness-robustness tests: degenerate and hostile input shapes the
//! collector must survive without panicking or mis-diagnosing.

#[path = "../../../tests/support/runs.rs"]
mod runs;
#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_cluster::{ClusterConfig, StatesSnapshot};
use sentinet_core::{
    decode_pipeline, encode_pipeline, CheckpointError, Diagnosis, GlobalModel, GlobalSnapshot,
    GlobalStates, IdentityPrior, MceSnapshot, Pipeline, PipelineConfig,
};
use sentinet_hmm::{OnlineHmmEstimator, StochasticMatrix};
use sentinet_sim::{
    gdi, simulate, EnvironmentModel, Payload, Reading, SensorId, Trace, TraceRecord, DAY_S,
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
    // sensor of every window was looked up by id, and re-recorded in
    // checkpoint layouts v2 and v3 (the older text, read back by the
    // newer reader, re-encodes to this one).
    let state = sentinet_core::encode_pipeline(&p.snapshot());
    assert_eq!(
        fnv(state.as_bytes()),
        0xb4ba_b7e5_d2c1_9901,
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
fn the_open_window_is_flushed_once() {
    let cfg = gdi::day_config();
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(3));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    let mut outcomes = Vec::new();
    for (time, sensor, reading) in trace.delivered() {
        outcomes.extend(p.push_values(time, sensor, reading.values()));
    }
    let last = outcomes.last().expect("closed windows").index;
    let flushed = p.finalize();
    assert_eq!(flushed.len(), 1, "the window still open");
    assert_eq!(flushed[0].index, last + 1);
    assert!(p.finalize().is_empty(), "nothing is left open");
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

/// Five sensors sampled every 300 s for `instants` instants, sensor 3
/// with a third attribute from `odd_from` on.
fn mixed_dimension_trace(instants: u64, odd_from: u64) -> Trace {
    let mut trace = Trace::new();
    for i in 0..instants {
        for s in 0..5u16 {
            let mut values = vec![12.0 + f64::from(s) / 10.0, 94.0];
            if s == 3 && i >= odd_from {
                values.push(1.0);
            }
            trace.push(record(i * 300, s, values));
        }
    }
    trace
}

#[test]
#[should_panic(expected = "inconsistent reading dimensions")]
fn a_trace_mixing_reading_dimensions_is_refused() {
    let config = PipelineConfig {
        initial_states: Some(vec![vec![12.0, 94.0], vec![31.0, 56.0]]),
        ..PipelineConfig::default()
    };
    Pipeline::new(config, 300).process_trace(&mixed_dimension_trace(48, 0));
}

/// A reading with another attribute count than the states (or, before
/// any, the first reading) is refused before it moves anything: the
/// pipeline's checkpoint is byte-equal to what it was before the push.
#[test]
fn a_reading_of_another_dimension_moves_nothing() {
    for initial_states in [Some(vec![vec![12.0, 94.0], vec![31.0, 56.0]]), None] {
        let config = PipelineConfig {
            initial_states,
            ..PipelineConfig::default()
        };
        let mut p = Pipeline::new(config, 300);
        let trace = mixed_dimension_trace(40, 36);
        let mut delivered = trace.delivered();
        for (time, sensor, reading) in delivered.by_ref().take(36 * 5 + 3) {
            p.push_reading(time, sensor, reading);
        }
        let before = encode_pipeline(&p.snapshot());
        let (time, sensor, reading) = delivered.next().expect("sensor 3's odd reading");
        assert_eq!((sensor, reading.values().len()), (SensorId(3), 3));
        let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.push_reading(time, sensor, reading);
        }));
        let message = pushed.expect_err("a 3-D reading among 2-D ones was accepted");
        assert_eq!(
            message
                .downcast_ref::<String>()
                .map(|m| m.contains("inconsistent reading dimensions")),
            Some(true)
        );
        assert_eq!(encode_pipeline(&p.snapshot()), before);
    }
}

/// A restore point whose estimators disagree with its slot count used
/// to restore, then panic at the first decisive window
/// (`SymbolOutOfRange` from `M_CO`'s observe). `Pipeline::from_snapshot`
/// takes outside input — a peer's migration snapshot — so each shape is
/// checked by the owner it restores: `GlobalModel::from_snapshot`
/// refuses a one-state `M_CO`, `Pipeline::from_snapshot` a sensor's
/// one-slot `M_CE`, prior or built; through `Pipeline::from_snapshot`
/// each is `Invalid`.
#[test]
fn a_restore_point_sized_off_its_slots_is_invalid_not_a_panic() {
    let mut cfg = gdi::month_config();
    cfg.num_sensors = 10;
    cfg.duration = 4 * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(7));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    for (time, sensor, reading) in trace.delivered().filter(|(t, _, _)| *t < DAY_S) {
        p.push_reading(time, sensor, reading);
    }
    assert_eq!(p.model_states().expect("bootstrapped").num_slots(), 9);
    let snap = p.snapshot();
    let restore =
        |snap| Pipeline::from_snapshot(PipelineConfig::default(), cfg.sample_period, snap);
    assert!(restore(snap.clone()).is_ok());

    let mut one_state_m_co = snap.clone();
    if let Some(states) = one_state_m_co.global.states.as_mut() {
        states.m_co = OnlineHmmEstimator::new(1, 1, 0.1, 0.1)
            .expect("valid")
            .export_state();
    }
    let mut built = OnlineHmmEstimator::without_chain(
        StochasticMatrix::from_rows(vec![vec![0.0, 1.0]]).expect("one-hot"),
        0.1,
    )
    .expect("valid");
    built.observe(0, 1).expect("within dims");
    let one_slot_m_ce = |m_ce: MceSnapshot| {
        let mut bad = snap.clone();
        bad.sensors[0].1.m_ce = m_ce;
        bad
    };
    for bad in [
        one_state_m_co,
        one_slot_m_ce(MceSnapshot::Prior(IdentityPrior {
            slots: 1,
            gamma: 0.1,
            generation: 0,
        })),
        one_slot_m_ce(MceSnapshot::Built(built.export_state())),
    ] {
        assert!(matches!(restore(bad), Err(CheckpointError::Invalid(_))));
    }
}

/// A restore point whose track list no sensor writes — windows not
/// strictly ascending (opened < closed < next opened), or a track open
/// before the last — used to restore: `Pipeline::from_snapshot`, which
/// also adopts a peer's migration snapshot, took every list below in
/// layout v2 text at 42a00a9. Such a list is `Invalid` now. Layout v2
/// also wrote each sensor's `track` and `alarmed` flags, so two more
/// shapes could be written there: an open track where the list has
/// none, and none where it has one; those flags are malformed.
#[test]
fn a_restore_point_with_an_impossible_track_list_is_invalid() {
    let mut cfg = gdi::day_config();
    cfg.num_sensors = 4;
    cfg.duration = 2 * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(3));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    p.process_trace(&trace);
    let text = encode_pipeline(&p.snapshot());
    assert_eq!(text.matches("\ntracks -\n").count(), 4, "{text}");
    let restore = |tracks: &str| {
        let text = text.replacen("\ntracks -\n", &format!("\ntracks {tracks}\n"), 1);
        let snap = decode_pipeline(&text).expect("a well-formed list");
        Pipeline::from_snapshot(PipelineConfig::default(), cfg.sample_period, snap).map(|_| ())
    };
    for possible in ["3:4", "3:-", "3:4 5:6", "3:4 5:-"] {
        assert_eq!(restore(possible), Ok(()), "{possible}");
    }
    for impossible in ["9:3", "3:3", "3:- 5:-", "3:5 5:7", "5:6 3:4", "5:- 3:4"] {
        assert!(
            matches!(restore(impossible), Err(CheckpointError::Invalid(_))),
            "{impossible}"
        );
    }

    let v2 = runs::as_v3(&text)
        .replace("sentinet-pipeline v3", "sentinet-pipeline v2")
        .replace("sentinet-checkpoint v3", "sentinet-checkpoint v2")
        .replacen("\nbootstrap ", "\nhistory -\nbootstrap ", 1)
        .replace("\ntracks -\n", "\ntrack 0\ntracks -\n")
        .replace("\nend\n", "\nalarmed 0\nend\n");
    assert_eq!(decode_pipeline(&v2).map(|s| encode_pipeline(&s)), Ok(text));
    for flags in ["track 1\ntracks -", "track 0\ntracks 3:-"] {
        let damaged = v2.replacen("track 0\ntracks -", flags, 1);
        assert!(
            matches!(
                decode_pipeline(&damaged),
                Err(CheckpointError::Malformed { .. })
            ),
            "{flags}"
        );
    }
}

/// `GlobalModel::from_snapshot` refuses an `M_CO` that is not a chain
/// over the model-state slots on its own, not only when a whole
/// pipeline restores: a `B^CO` of 2 × 4 over 2 slots is `Invalid`,
/// where the 2 × 2 one beside it restores.
#[test]
fn a_global_snapshot_whose_m_co_is_sized_off_its_slots_is_invalid() {
    let snapshot = |symbols| GlobalSnapshot {
        windows_processed: 0,
        bootstrap_points: Vec::new(),
        states: Some(GlobalStates {
            states: StatesSnapshot {
                centroids: vec![vec![20.0, 50.0], vec![25.0, 60.0]],
                active: vec![true, true],
                config: ClusterConfig::default(),
                generation: 0,
            },
            m_co: OnlineHmmEstimator::new(2, symbols, 0.1, 0.1)
                .expect("valid")
                .export_state(),
        }),
    };
    let restore =
        |symbols| GlobalModel::from_snapshot(PipelineConfig::default(), snapshot(symbols));
    assert!(restore(2).is_ok());
    assert!(matches!(restore(4), Err(CheckpointError::Invalid(_))));
}
