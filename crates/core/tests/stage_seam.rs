//! The window pass's side of the [`SensorStages`] seam, seen through a
//! recording double around the in-process [`SensorMap`]: which sensors
//! the [`Coordinator`] hands each stage, in what order, and at what
//! model-state slot count. The serial map and the engine's shards both
//! rely on exactly this.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Coordinator, PipelineConfig, SensorMap, SensorStages, WindowOutcome};
use sentinet_inject::{first_k_sensors, inject_attacks, AttackInjection, AttackModel};
use sentinet_sim::{
    gdi, simulate, EnvironmentModel, Payload, Reading, SensorId, Trace, TraceRecord, DAY_S,
};

/// One stage call as the coordinator made it.
#[derive(Debug)]
enum Call {
    Step {
        num_slots: usize,
        voted: Vec<(SensorId, usize)>,
        index: u64,
        correct: usize,
    },
    Grow(usize),
}

struct Recording {
    sensors: SensorMap,
    calls: Vec<Call>,
}

impl SensorStages for Recording {
    fn step(
        &mut self,
        num_slots: usize,
        voted: impl Iterator<Item = (SensorId, usize)>,
        outcome: &mut WindowOutcome,
    ) {
        let voted: Vec<(SensorId, usize)> = voted.collect();
        self.calls.push(Call::Step {
            num_slots,
            voted: voted.clone(),
            index: outcome.index,
            correct: outcome.correct,
        });
        self.sensors.step(num_slots, voted.into_iter(), outcome);
    }

    fn grow(&mut self, num_slots: usize) {
        self.calls.push(Call::Grow(num_slots));
        self.sensors.grow(num_slots);
    }
}

/// Three days of a ten-sensor network under a constant environment,
/// three sensors forging a new state from day one: windows split and
/// agree, and the forged state has to be spawned.
fn recorded_run() -> (Coordinator, Vec<WindowOutcome>, Recording) {
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
    let trace = inject_attacks(&clean, &[attack], &cfg.ranges);
    let config = PipelineConfig::default();
    let mut stages = Recording {
        sensors: SensorMap::new(config.clone()),
        calls: Vec::new(),
    };
    let mut coordinator = Coordinator::new(config, cfg.sample_period);
    let outcomes = coordinator.process_trace(&mut stages, &trace);
    assert!(!outcomes.is_empty(), "the run produced no window");
    (coordinator, outcomes, stages)
}

#[test]
fn every_step_hands_over_ascending_sensors_labelled_within_its_slots() {
    let (_, _, recording) = recorded_run();
    let mut stepped = std::collections::BTreeSet::new();
    for call in &recording.calls {
        let Call::Step {
            num_slots, voted, ..
        } = call
        else {
            continue;
        };
        assert!(voted.windows(2).all(|w| w[0].0 < w[1].0), "{voted:?}");
        assert!(
            voted.iter().all(|&(_, label)| label < *num_slots),
            "{voted:?}"
        );
        stepped.extend(voted.iter().map(|v| v.0));
    }
    assert!(!stepped.is_empty(), "no decisive window");
    let held: Vec<SensorId> = recording
        .sensors
        .snapshots()
        .into_iter()
        .map(|s| s.0)
        .collect();
    assert_eq!(stepped.into_iter().collect::<Vec<_>>(), held);
    // No sensor sits a vote out: every one of the field's is stepped.
    let field: Vec<SensorId> = (0..gdi::NUM_SENSORS).map(SensorId).collect();
    assert_eq!(held, field);
}

#[test]
fn every_stepped_window_is_an_outcome_under_the_state_it_elected() {
    let (_, outcomes, recording) = recorded_run();
    for call in &recording.calls {
        if let Call::Step {
            index,
            correct,
            voted,
            ..
        } = call
        {
            let outcome = outcomes
                .iter()
                .find(|o| o.index == *index)
                .unwrap_or_else(|| panic!("window {index} was stepped but not returned"));
            assert_eq!(outcome.correct, *correct);
            let voters: Vec<SensorId> = voted.iter().map(|v| v.0).collect();
            assert!(outcome.raw_alarms.iter().all(|s| voters.contains(s)));
        }
    }
}

#[test]
fn grow_only_raises_the_slot_count_and_every_later_step_sees_it() {
    let (coordinator, _, recording) = recorded_run();
    let mut slots: Option<usize> = None;
    let mut grows = 0;
    for call in &recording.calls {
        match *call {
            Call::Grow(n) => {
                assert!(slots.is_none_or(|s| n > s), "grow to {n} after {slots:?}");
                slots = Some(n);
                grows += 1;
            }
            Call::Step { num_slots, .. } => {
                assert_eq!(*slots.get_or_insert(num_slots), num_slots);
            }
        }
    }
    assert!(grows > 0, "the forged state was never spawned");
    assert_eq!(slots, Some(coordinator.global().num_slots()));
}

#[test]
fn windows_the_bootstrap_absorbs_reach_no_stage() {
    // One sensor, one mean a window: the bootstrap takes every window
    // until it holds as many means as there are initial states.
    let config = PipelineConfig::default();
    let windows = config.num_initial_states as u64 - 1;
    let window = u64::from(config.window_samples) * 300;
    let mut stages = Recording {
        sensors: SensorMap::new(config.clone()),
        calls: Vec::new(),
    };
    let mut coordinator = Coordinator::new(config, 300);
    let mut trace = Trace::new();
    for time in (0..windows * window).step_by(300) {
        trace.push(TraceRecord {
            time,
            sensor: SensorId(4),
            payload: Payload::Delivered(Reading::new(vec![1.0, 2.0])),
        });
    }
    assert!(coordinator.process_trace(&mut stages, &trace).is_empty());
    assert!(stages.calls.is_empty(), "{:?}", stages.calls);
    assert!(coordinator.global().states().is_none());
}
