//! Holds `window.rs`'s and `pipeline.rs`'s allocation claims to
//! account: a counting `#[global_allocator]` (this test binary only)
//! measures the steady-state window-close path and requires **zero**
//! allocator calls for
//!
//! - `ModelStates::nearest` × 1000,
//! - a reading pushed into a recycled window, through
//!   `Pipeline::push_values` and through `process_trace` alike,
//! - a warm-scratch Eqs. 2–4 pass (`observable_with`, certified, and
//!   `trimmed_mean_with`, exact, + `identify_states_into`),
//! - a no-spawn `update_labeled`,
//! - a spawn, single or several slots at once, for sensors that never
//!   opened a track (their `M_CE` is built at the first one),
//!
//! for a window close through `Pipeline::push_values` exactly two
//! (the completed-window `Vec`, the outcome `Vec`) at 20 sensors and at
//! 200, and for a spawned model state a number of calls per tracked
//! sensor that does not grow with the states it already has: eight
//! spawns in a row within 16 calls a sensor.
//!
//! Counts are per thread, so the harness running the tests of this file
//! side by side does not disturb them.

use sentinet_cluster::{ClusterConfig, ModelStates, UpdateScratch};
use sentinet_core::{
    identify_states_into, Observed, Pipeline, PipelineConfig, SensorRuntime, WindowScratch,
    Windower,
};
use sentinet_sim::{Payload, Reading, SensorId, Trace, TraceRecord};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn states() -> ModelStates {
    ModelStates::new(
        vec![
            vec![12.0, 94.0],
            vec![17.0, 84.0],
            vec![24.0, 70.0],
            vec![31.0, 56.0],
        ],
        ClusterConfig::default(),
    )
}

/// A sampling instant of `sensors` sensors, every fifth one lost, each
/// reading within a unit of `centre`.
fn instant(sensors: u16, centre: [f64; 2]) -> impl Iterator<Item = (SensorId, [f64; 2])> {
    (0..sensors).filter(|s| s % 5 != 4).map(move |s| {
        let wobble = f64::from(s % 7) / 7.0;
        (SensorId(s), [centre[0] + wobble, centre[1] - wobble])
    })
}

#[test]
fn the_counter_counts() {
    let (n, v) = allocations(|| vec![1u8; 64]);
    assert_eq!(v.len(), 64);
    assert!(n >= 1, "a fresh Vec must show up in the count");
}

#[test]
fn nearest_does_not_allocate() {
    let s = states();
    let (n, hits) = allocations(|| {
        (0..1000)
            .filter(|&i| s.nearest(&[10.0 + f64::from(i) / 40.0, 80.0]).is_some())
            .count()
    });
    assert_eq!(hits, 1000);
    assert_eq!(n, 0, "ModelStates::nearest allocated");
}

#[test]
fn window_close_kernels_do_not_allocate_once_warm() {
    let mut windower = Windower::new(3_600);
    let mut s = states();
    let mut scratch = WindowScratch::new();
    let mut update_scratch = UpdateScratch::default();
    let mut close = |windower: &mut Windower, hour: u64| {
        let mut pushes = 0;
        for sample in 0..12 {
            for (id, values) in instant(100, [12.5, 93.0]) {
                for done in windower.push(hour * 3_600 + sample * 300, id, &values) {
                    // Eqs. 2–4 and the clustering round, as the
                    // pipeline runs them on a completed window.
                    let (n, _) = allocations(|| {
                        let observed = done.observable_with(0.1, &s, &mut scratch);
                        assert_eq!(observed, Some(Observed::Settled(0)));
                        let mean = done.trimmed_mean_with(0.1, &mut scratch).map(|m| m[0]);
                        let vote = identify_states_into(&done, &s, 0.5, &mut scratch);
                        assert!(mean.is_some() && vote.is_some());
                        let events = s.update_labeled(
                            scratch.representatives(),
                            scratch.labels(),
                            &mut update_scratch,
                        );
                        assert!(events.is_empty(), "the scenario spawns nothing");
                    });
                    if hour > 2 {
                        assert_eq!(n, 0, "warm Eqs. 2–4 + update allocated (hour {hour})");
                    }
                    windower.recycle(done);
                }
                pushes += 1;
            }
        }
        pushes
    };
    // Three windows warm every buffer: both windows in rotation have
    // seen every sensor and the scratch has its sizes.
    for hour in 0..3 {
        close(&mut windower, hour);
    }
    // From here an hour of pushes is cursor bumps into recycled
    // buffers; the one allocator call is the one-element Vec the
    // completed window comes back in.
    for hour in 3..6 {
        let (n, pushes) = allocations(|| close(&mut windower, hour));
        assert!(pushes > 900);
        assert_eq!(
            n, 1,
            "hour {hour}: expected only the completed-window Vec, counted {n}"
        );
    }
}

/// Allocator calls of a `push_values` that closes a warm window of a
/// `sensors`-sensor field in a steady environment: the median over ten
/// closes, because every sensor's alarm history is a `Vec` of the same
/// length and they all double in the same window.
fn window_close_allocations(sensors: u16) -> u64 {
    let mut p = Pipeline::new(PipelineConfig::default(), 300);
    let mut closes = Vec::with_capacity(16);
    for hour in 0..40u64 {
        for sample in 0..12 {
            for (id, values) in instant(sensors, [12.5, 93.0]) {
                let (n, outcomes) =
                    allocations(|| p.push_values(hour * 3_600 + sample * 300, id, &values));
                let closed = !outcomes.is_empty();
                for o in outcomes {
                    p.recycle_outcome(o);
                }
                if hour >= 30 {
                    if closed {
                        closes.push(n);
                    } else {
                        assert_eq!(n, 0, "a reading that closes nothing allocated");
                    }
                }
            }
        }
    }
    assert_eq!(closes.len(), 10);
    closes.sort_unstable();
    closes[closes.len() / 2]
}

/// Allocator calls of a whole `process_trace` over 40 hours of a
/// `sensors`-sensor field in a steady environment, `per_hour` sampling
/// instants an hour from hour 30 on (12 before).
fn process_trace_allocations(sensors: u16, per_hour: u64) -> u64 {
    let mut records = Vec::new();
    for hour in 0..40u64 {
        let instants = if hour < 30 { 12 } else { per_hour };
        for sample in 0..instants {
            for (sensor, values) in instant(sensors, [12.5, 93.0]) {
                records.push(TraceRecord {
                    time: hour * 3_600 + sample * 300,
                    sensor,
                    payload: Payload::Delivered(Reading::new(values.to_vec())),
                });
            }
        }
    }
    let trace = Trace::from_records(records);
    let mut p = Pipeline::new(PipelineConfig::default(), 300);
    let (n, outcomes) = allocations(|| p.process_trace(&trace));
    assert_eq!(outcomes.len(), 40);
    n
}

#[test]
fn a_reading_that_closes_no_window_allocates_nothing_in_process_trace() {
    // The two traces differ only by readings inside open windows of
    // warm buffers: half the instants of the last ten hours, none the
    // first of its hour. Dropping them drops no allocator call.
    for sensors in [20, 200] {
        let full = process_trace_allocations(sensors, 12);
        let thinned = process_trace_allocations(sensors, 6);
        assert_eq!(
            full,
            thinned,
            "{sensors} sensors: {} readings inside open windows cost {} allocator calls",
            u64::from(sensors) * 4 / 5 * 60,
            full.abs_diff(thinned)
        );
    }
}

#[test]
fn pipeline_window_close_allocates_a_constant_independent_of_sensor_count() {
    // The completed-window Vec and the outcome Vec; nothing per sensor.
    assert_eq!(window_close_allocations(20), 2);
    assert_eq!(window_close_allocations(200), 2);
}

/// `sensors` sensors first seen at `slots` model-state slots, every
/// one stepped `windows` times with a label the correct state (0)
/// disagrees with.
fn disagreeing_sensors(sensors: u16, slots: usize, windows: u64) -> Vec<SensorRuntime> {
    let config = PipelineConfig::default();
    let mut runtimes: Vec<_> = (0..sensors)
        .map(|_| SensorRuntime::new(&config, slots))
        .collect();
    for index in 0..windows {
        for sensor in &mut runtimes {
            sensor.step(index, 1, 0);
        }
    }
    runtimes
}

#[test]
fn an_untracked_sensors_spawn_is_a_counter_bump() {
    // A sensor that never opened a track holds `M_CE` as its identity
    // prior: a spawn, single or a jump of several slots, changes two
    // counters and allocates nothing, whatever the sensor count.
    for sensors in [20, 200, 2_000] {
        let mut runtimes = disagreeing_sensors(sensors, 4, 1);
        let (n, ()) = allocations(|| {
            for grown in [5, 6, 6, 9, 10, 14, 15, 16] {
                for sensor in &mut runtimes {
                    sensor.grow(grown);
                }
            }
        });
        assert_eq!(n, 0, "{sensors} untracked sensors: {n} allocator calls");
        let untracked = runtimes.iter().all(|rt| !rt.m_ce_built());
        assert!(untracked, "a grow built an untracked sensor's M_CE");
    }
}

#[test]
fn a_spawn_grows_each_sensor_in_place() {
    // Eight single-slot spawns in a row, as a new regime or an attack
    // produces them, on sensors whose track is open. Each grows both
    // matrices of every sensor's `M_CE` by a row and a column, and its
    // two count vectors by a cell: four buffers whose growth is
    // amortised, so the whole run stays within 16 allocator calls a
    // sensor wherever it starts. Reallocating both matrices per spawn
    // costs six calls a sensor a spawn, 50 or so in all.
    const SENSORS: u16 = 200;
    const SPAWNS: usize = 8;
    for slots in [4, 6, 8, 13] {
        // Six disagreements raise the default 6-of-10 filter.
        let mut sensors = disagreeing_sensors(SENSORS, slots, 6);
        assert!(
            sensors
                .iter()
                .all(|rt| rt.tracks().last().is_some_and(|t| t.closed.is_none())),
            "every sensor must have opened a track, or this counts priors"
        );
        let (n, ()) = allocations(|| {
            for grown in 1..=SPAWNS {
                for sensor in &mut sensors {
                    sensor.grow(slots + grown);
                }
            }
        });
        let per_sensor = n as f64 / f64::from(SENSORS);
        assert!(
            per_sensor <= 16.0,
            "{SPAWNS} spawns from {slots} slots: {per_sensor} allocator calls per sensor"
        );
        // And they grew: every sensor steps in the newest state.
        for sensor in &mut sensors {
            sensor.step(6, 1, slots + SPAWNS - 1);
        }
        let grown =
            (sensors.iter()).all(|rt| rt.m_ce_built() && rt.m_ce().num_states() == slots + SPAWNS);
        assert!(
            grown,
            "a tracked sensor did not grow to {} slots",
            slots + SPAWNS
        );
    }
}
