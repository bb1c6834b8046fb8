//! What the window pass hands each sensor, read off the pipeline's
//! outputs: which windows step which sensors, in what order, and at
//! what model-state slot count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig, WindowOutcome};
use sentinet_inject::{first_k_sensors, inject_attacks, AttackInjection, AttackModel};
use sentinet_sim::{
    gdi, simulate, EnvironmentModel, Payload, Reading, SensorId, Trace, TraceRecord, DAY_S,
};
use std::collections::BTreeSet;

/// Three days of a ten-sensor network under a constant environment,
/// three sensors forging a new state from day one: windows split and
/// agree, and the forged state has to be spawned.
fn forged_state() -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 3 * DAY_S;
    cfg.environment = EnvironmentModel::Constant(vec![12.0, 80.0]);
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(7));
    let attack = AttackInjection::from_onset(
        first_k_sensors(3),
        AttackModel::DynamicCreation {
            target: vec![25.0, 69.0],
        },
        DAY_S,
    );
    (
        inject_attacks(&clean, &[attack], &cfg.ranges),
        cfg.sample_period,
    )
}

fn run(trace: &Trace, period: u64) -> (Pipeline, Vec<WindowOutcome>) {
    let mut pipeline = Pipeline::new(PipelineConfig::default(), period);
    let outcomes = pipeline.process_trace(trace);
    assert!(!outcomes.is_empty(), "the run produced no window");
    (pipeline, outcomes)
}

/// The sensors that delivered a reading in `outcome`'s window.
fn voters(trace: &Trace, period: u64, outcome: &WindowOutcome) -> BTreeSet<SensorId> {
    let end = outcome.start + u64::from(PipelineConfig::default().window_samples) * period;
    let delivered = trace.delivered();
    let inside = delivered.filter(|&(time, ..)| (outcome.start..end).contains(&time));
    inside.map(|(_, sensor, _)| sensor).collect()
}

#[test]
fn alarm_lists_ascend_and_name_only_that_windows_voters() {
    let (trace, period) = forged_state();
    let (pipeline, outcomes) = run(&trace, period);
    for outcome in &outcomes {
        let voters = voters(&trace, period, outcome);
        for alarms in [&outcome.raw_alarms, &outcome.filtered_alarms] {
            assert!(alarms.is_sorted_by(|a, b| a < b), "{outcome:?}");
            assert!(alarms.iter().all(|s| voters.contains(s)), "{outcome:?}");
        }
    }
    assert!(outcomes.iter().any(|o| !o.raw_alarms.is_empty()));
    // No sensor sits a vote out: every one of the field's was stepped.
    let field: Vec<SensorId> = (0..gdi::NUM_SENSORS).map(SensorId).collect();
    assert_eq!(pipeline.sensor_ids(), field);
}

#[test]
fn a_decisive_window_steps_every_voter_and_every_step_is_an_outcome() {
    let (trace, period) = forged_state();
    let (pipeline, outcomes) = run(&trace, period);
    let mut decisive = 0;
    for outcome in &outcomes {
        let stepped = |id: &SensorId| {
            let history = pipeline.raw_alarm_history(*id).unwrap_or_default();
            history.iter().find(|&&(w, _)| w == outcome.index).copied()
        };
        let voters = voters(&trace, period, outcome);
        let steps: Vec<_> = voters.iter().filter_map(stepped).collect();
        if steps.is_empty() {
            assert!(outcome.raw_alarms.is_empty(), "{outcome:?}");
            continue;
        }
        decisive += 1;
        assert_eq!(steps.len(), voters.len(), "window {}", outcome.index);
        for (id, (_, raw)) in voters.iter().zip(steps) {
            assert_eq!(raw, outcome.raw_alarms.contains(id), "{id}");
        }
    }
    assert!(decisive > 0, "no decisive window");
    let indices: BTreeSet<u64> = outcomes.iter().map(|o| o.index).collect();
    for id in pipeline.sensor_ids() {
        let history = pipeline.raw_alarm_history(id).unwrap();
        assert!(history.iter().all(|(w, _)| indices.contains(w)), "{id}");
    }
}

#[test]
fn the_slot_count_only_rises_and_every_sensor_grows_with_it() {
    let (trace, period) = forged_state();
    let mut pipeline = Pipeline::new(PipelineConfig::default(), period);
    let slots = |p: &Pipeline| p.model_states().map_or(0, |s| s.num_slots());
    let (mut last, mut rises) = (0, 0);
    for (time, sensor, reading) in trace.delivered() {
        if pipeline.push_reading(time, sensor, reading).is_empty() {
            continue;
        }
        let now = slots(&pipeline);
        assert!(now >= last, "the slot count fell from {last} to {now}");
        rises += usize::from(last > 0 && now > last);
        last = now;
    }
    pipeline.finalize();
    assert!(rises > 0, "the forged state was never spawned");
    for id in pipeline.sensor_ids() {
        let m_ce = pipeline.m_ce(id).unwrap();
        assert_eq!(m_ce.num_states(), slots(&pipeline), "{id}");
    }
}

#[test]
fn windows_the_bootstrap_absorbs_yield_no_outcome_and_no_sensor() {
    // One sensor, one mean a window: the bootstrap takes every window
    // until it holds as many means as there are initial states.
    let config = PipelineConfig::default();
    let windows = config.num_initial_states as u64 - 1;
    let window = u64::from(config.window_samples) * 300;
    let mut trace = Trace::new();
    for time in (0..windows * window).step_by(300) {
        trace.push(TraceRecord {
            time,
            sensor: SensorId(4),
            payload: Payload::Delivered(Reading::new(vec![1.0, 2.0])),
        });
    }
    let mut pipeline = Pipeline::new(config, 300);
    assert!(pipeline.process_trace(&trace).is_empty());
    assert!(pipeline.sensor_ids().is_empty());
    assert!(pipeline.model_states().is_none());
}
