//! Differential oracle for the reorder buffer.
//!
//! [`ModelReorder`] is the `BTreeMap` implementation the gateway
//! shipped before the flat per-sensor queues replaced it, moved here
//! verbatim: one global tree keyed `(time, sensor)`, walked for every
//! release and searched for every shed. It is slow and obviously
//! right, which is what an oracle should be. The property drives it
//! and the shipped [`ReorderBuffer`] with the same seeded stream of
//! offers — out of order within and across sensors, same-slot
//! duplicates, stragglers behind the watermark and behind a sensor's
//! released history, per-sensor overflow at capacities 0/1/3/64, a
//! record older than the sensor's oldest arriving at capacity,
//! snapshot/restore mid-stream — and after every step compares the
//! outcome, the released stream, `stats()`, `watermark()` and
//! `snapshot()`.
//!
//! The shipped buffer keeps each sensor's records in a slab and takes
//! one sensor's readings a run at a time. The run-shaped property
//! [`runs_release_what_one_at_a_time_releases`] offers the model the
//! same readings one at a time, draining after each, and compares every
//! reading's outcome and every release; two unit tests pin the traps a
//! run offer that released only at its end would fall into. Two
//! properties of the slabs follow: the room they keep is not state
//! (equal snapshots, equal `encode_collector` bytes), and a drained
//! burst of the widest readings leaves no more room than
//! `reorder.rs`'s header states.
//!
//! Last, [`hostile_parts_restore_to_a_buffer_that_keeps_its_promises`]
//! audits `ReorderBuffer::from_snapshot` and `Sanitizer::from_snapshot`
//! (ROADMAP 6c): arbitrary snapshot parts, then arbitrary traffic, and
//! the released stream must still be strictly increasing per sensor
//! with every drop counted.
//!
//! The cases are a plain seeded loop (`tests/support/seeded.rs`): a
//! failure names its seed and step and prints the one command that
//! replays it with every operation logged.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::{Replay, TestRng};
use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_gateway::{
    encode_collector, AdmitOutcome, CollectorSnapshot, ReorderBuffer, ReorderConfig,
    ReorderSnapshot, ReorderStats, RETAINED_VALUES,
};
use sentinet_sim::{RawRecord, Sanitizer, SanitizerSnapshot, SensorId, Timestamp};
use std::collections::BTreeMap;

/// Cases per run; the acceptance bar is 10 000.
const CASES: u64 = 10_000;
/// `REORDER_PROPS_SEED` names one seed for [`replay_seed_from_env`].
const REPLAY: Replay = Replay {
    var: "REORDER_PROPS_SEED",
    package: "sentinet-gateway",
    target: "--test reorder_props",
    test: "replay_seed_from_env",
};
/// Stream seconds between sampling instants.
const PERIOD: u64 = 300;

/// The pre-flat-queue `ReorderBuffer`, verbatim apart from its name.
#[derive(Debug)]
struct ModelReorder {
    config: ReorderConfig,
    buffer: BTreeMap<(Timestamp, SensorId), Vec<f64>>,
    buffered_per_sensor: BTreeMap<SensorId, usize>,
    last_released: BTreeMap<SensorId, Timestamp>,
    watermark: Option<Timestamp>,
    stats: ReorderStats,
}

impl ModelReorder {
    /// An empty buffer.
    fn new(config: ReorderConfig) -> Self {
        Self {
            config,
            buffer: BTreeMap::new(),
            buffered_per_sensor: BTreeMap::new(),
            last_released: BTreeMap::new(),
            watermark: None,
            stats: ReorderStats::default(),
        }
    }

    /// The current release watermark, if any record has been admitted.
    fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Drop accounting so far.
    fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// Offers one deduplicated record. On `Admitted` the record is
    /// buffered; call `drain_ready` to
    /// collect whatever the (possibly advanced) watermark now frees.
    fn offer(&mut self, record: RawRecord) -> AdmitOutcome {
        let RawRecord {
            time,
            sensor,
            values,
        } = record;
        if let Some(w) = self.watermark {
            if time < w {
                self.stats.late += 1;
                return AdmitOutcome::Late;
            }
        }
        if let Some(&released) = self.last_released.get(&sensor) {
            if time <= released {
                self.stats.late += 1;
                return AdmitOutcome::Late;
            }
        }
        if self.buffer.contains_key(&(time, sensor)) {
            self.stats.duplicates += 1;
            return AdmitOutcome::Duplicate;
        }

        let buffered = self.buffered_per_sensor.entry(sensor).or_insert(0);
        if *buffered >= self.config.per_sensor_capacity {
            // Shed this sensor's oldest buffered record to make room.
            let oldest = self.buffer.keys().find(|(_, s)| *s == sensor).copied();
            if let Some(key) = oldest {
                self.buffer.remove(&key);
                *buffered -= 1;
                self.stats.shed += 1;
            }
        }
        *buffered += 1;
        self.buffer.insert((time, sensor), values);

        let horizon = time.saturating_sub(self.config.watermark_delay);
        if self.watermark.is_none_or(|w| horizon > w) {
            self.watermark = Some(horizon);
        }
        AdmitOutcome::Admitted
    }

    /// Moves every buffered record at or below the watermark into
    /// `out`, in `(time, sensor)` order.
    fn drain_ready(&mut self, out: &mut Vec<RawRecord>) {
        let Some(w) = self.watermark else { return };
        self.release_through(w, out);
    }

    /// End of stream: releases everything still buffered, in order.
    fn flush(&mut self, out: &mut Vec<RawRecord>) {
        self.release_through(Timestamp::MAX, out);
    }

    /// Captures the buffer's contents and accounting for checkpointing.
    fn snapshot(&self) -> ReorderSnapshot {
        ReorderSnapshot {
            buffer: self
                .buffer
                .iter()
                .map(|(&key, v)| (key, v.as_slice()))
                .collect(),
            last_released: self.last_released.iter().map(|(&s, &t)| (s, t)).collect(),
            watermark: self.watermark,
            stats: self.stats,
        }
    }

    /// Rebuilds a buffer from a snapshot taken under the same config;
    /// admit/release decisions continue exactly as the captured
    /// instance's would.
    fn from_snapshot(config: ReorderConfig, snapshot: ReorderSnapshot) -> Self {
        let mut buffered_per_sensor: BTreeMap<SensorId, usize> = BTreeMap::new();
        let mut buffer = BTreeMap::new();
        for ((t, s), v) in snapshot.buffer.iter() {
            *buffered_per_sensor.entry(s).or_insert(0) += 1;
            buffer.insert((t, s), v.to_vec());
        }
        Self {
            config,
            buffer,
            buffered_per_sensor,
            last_released: snapshot.last_released.into_iter().collect(),
            watermark: snapshot.watermark,
            stats: snapshot.stats,
        }
    }

    fn release_through(&mut self, limit: Timestamp, out: &mut Vec<RawRecord>) {
        while let Some((&(time, sensor), _)) = self.buffer.iter().next() {
            if time > limit {
                break;
            }
            if let Some(values) = self.buffer.remove(&(time, sensor)) {
                if let Some(count) = self.buffered_per_sensor.get_mut(&sensor) {
                    *count = count.saturating_sub(1);
                }
                self.last_released.insert(sensor, time);
                out.push(RawRecord {
                    time,
                    sensor,
                    values,
                });
            }
        }
    }
}

/// Both implementations under one config, plus what the generator
/// needs to aim its offers.
struct Pair {
    config: ReorderConfig,
    model: ModelReorder,
    flat: ReorderBuffer,
    /// Every `(time, sensor)` offered so far, for aimed re-offers.
    offered: Vec<(Timestamp, SensorId)>,
    /// Distinct payload per offer, so "first arrival wins" is visible.
    next_value: f64,
    /// Restores taken with records still buffered.
    restores_with_backlog: usize,
    log: bool,
}

impl Pair {
    fn new(config: ReorderConfig, log: bool) -> Self {
        Self {
            model: ModelReorder::new(config.clone()),
            flat: ReorderBuffer::new(config.clone()),
            config,
            offered: Vec::new(),
            next_value: 0.0,
            restores_with_backlog: 0,
            log,
        }
    }

    /// The observable state must agree after every step.
    fn check_state(&self, what: &str) -> Result<(), String> {
        if self.model.stats() != self.flat.stats() {
            return Err(format!(
                "{what}: stats {:?} (model) vs {:?}",
                self.model.stats(),
                self.flat.stats()
            ));
        }
        if self.model.watermark() != self.flat.watermark() {
            return Err(format!(
                "{what}: watermark {:?} (model) vs {:?}",
                self.model.watermark(),
                self.flat.watermark()
            ));
        }
        let (m, f) = (self.model.snapshot(), self.flat.snapshot());
        if m != f {
            return Err(format!("{what}: snapshot {m:?} (model) vs {f:?}"));
        }
        Ok(())
    }

    fn offer(&mut self, time: Timestamp, sensor: SensorId, dims: usize) -> Result<(), String> {
        self.next_value += 1.0;
        let values: Vec<f64> = (0..dims)
            .map(|d| self.next_value + d as f64 / 8.0)
            .collect();
        let record = RawRecord {
            time,
            sensor,
            values,
        };
        let expect = self.model.offer(record.clone());
        let got = self.flat.offer(record);
        if self.log {
            eprintln!("offer t={time} s={} -> {expect:?}", sensor.0);
        }
        self.offered.push((time, sensor));
        if expect != got {
            return Err(format!(
                "offer t={time} s={}: {expect:?} (model) vs {got:?}",
                sensor.0
            ));
        }
        self.check_state("after offer")
    }

    fn release(&mut self, flush: bool) -> Result<(), String> {
        let (mut expect, mut got) = (Vec::new(), Vec::new());
        if flush {
            self.model.flush(&mut expect);
            self.flat.flush(&mut got);
        } else {
            self.model.drain_ready(&mut expect);
            self.flat.drain_ready(&mut got);
        }
        let what = if flush { "flush" } else { "drain_ready" };
        if self.log {
            eprintln!("{what} -> {} record(s)", expect.len());
        }
        if expect != got {
            return Err(format!("{what}: released {expect:?} (model) vs {got:?}"));
        }
        self.check_state(what)
    }

    /// Snapshots both, checks the images agree, and continues on
    /// buffers restored crosswise (each from the other's image).
    fn restore(&mut self) -> Result<(), String> {
        let (m, f) = (self.model.snapshot(), self.flat.snapshot());
        if self.log {
            eprintln!("snapshot/restore ({} buffered)", m.buffer.len());
        }
        if m != f {
            return Err(format!("snapshot {m:?} (model) vs {f:?}"));
        }
        self.restores_with_backlog += usize::from(!m.buffer.is_empty());
        self.model = ModelReorder::from_snapshot(self.config.clone(), f);
        self.flat = ReorderBuffer::from_snapshot(self.config.clone(), m);
        self.check_state("after restore")
    }
}

/// One seeded case: a config, then a stream of operations, every one
/// of them compared. `Err` carries the step and the disagreement; `Ok`
/// the final drop accounting and how many restores had a backlog.
fn run_case(seed: u64, log: bool) -> Result<(ReorderStats, usize), String> {
    let mut rng = TestRng::new(seed);
    let config = ReorderConfig {
        watermark_delay: rng.pick(&[0, PERIOD, 5 * PERIOD, 20 * PERIOD, u64::MAX]),
        per_sensor_capacity: rng.pick(&[0, 1, 3, 64]),
    };
    // Scattered ids, so queues are created out of sensor order.
    let mut sensors: Vec<SensorId> = [300u16, 0, 65_535, 7, 1]
        .iter()
        .map(|&s| SensorId(s))
        .collect();
    sensors.truncate(rng.usize_in(1, sensors.len() + 1));
    let jitter = rng.pick(&[0u64, 2, 6, 30]);
    if log {
        eprintln!(
            "seed {seed}: {config:?}, {} sensor(s), jitter {jitter}",
            sensors.len()
        );
    }
    let mut pair = Pair::new(config, log);
    let mut clock = 100 * PERIOD;
    let steps = rng.usize_in(20, 140);
    for step in 0..steps {
        let sensor = rng.pick(&sensors);
        let dims = rng.usize_in(1, 4);
        let outcome = match rng.usize_in(0, 100) {
            // The common case: near the clock, jittered both ways, so
            // arrivals are out of order within and across sensors.
            0..=59 => {
                clock += PERIOD * rng.usize_in(0, 2) as u64;
                let back = PERIOD * rng.usize_in(0, jitter as usize + 1) as u64;
                let ahead = PERIOD * rng.usize_in(0, jitter as usize / 2 + 1) as u64;
                pair.offer(clock + ahead - back.min(clock), sensor, dims)
            }
            // A burst from one sensor: overflow at small capacities.
            60..=69 => (0..rng.usize_in(2, 8))
                .try_for_each(|i| pair.offer(clock + PERIOD * i as u64, sensor, dims)),
            // A slot offered before: buffered (duplicate), released
            // (behind `last_released`) or shed (admitted afresh).
            70..=79 if !pair.offered.is_empty() => {
                let (time, sensor) = rng.pick(&pair.offered);
                pair.offer(time, sensor, dims)
            }
            // Far behind everything: late by the watermark.
            80..=84 => pair.offer(PERIOD * rng.usize_in(0, 50) as u64, sensor, dims),
            // Just older than the sensor's oldest buffered record —
            // at capacity it displaces that record and becomes the
            // oldest itself.
            85..=89 => {
                let oldest = pair
                    .model
                    .snapshot()
                    .buffer
                    .iter()
                    .find(|((_, s), _)| *s == sensor)
                    .map(|((t, _), _)| t);
                match oldest {
                    Some(t) => pair.offer(t.saturating_sub(1), sensor, dims),
                    None => Ok(()),
                }
            }
            90..=94 => pair.restore(),
            95..=96 => pair.release(true),
            _ => pair.release(false),
        };
        // The collector drains after every offer; skipping it now and
        // then lets the buffers build up past what a drain would leave.
        let outcome = outcome.and_then(|()| {
            if rng.usize_in(0, 4) > 0 {
                pair.release(false)
            } else {
                Ok(())
            }
        });
        outcome.map_err(|why| format!("step {step}: {why}"))?;
    }
    pair.release(true)
        .map_err(|why| format!("final flush: {why}"))?;
    Ok((pair.flat.stats(), pair.restores_with_backlog))
}

#[test]
fn flat_queues_match_the_tree_model_step_for_step() {
    // What the generator reached, summed over the cases: a green run
    // that never shed or restored would prove nothing.
    let mut reached = ReorderStats::default();
    let mut restores_with_backlog = 0;
    // The replay variable belongs to `replay_seed_from_env`; this test
    // always runs every case.
    for seed in 0..CASES {
        match run_case(seed, false) {
            Ok((stats, restores)) => {
                reached.duplicates += stats.duplicates;
                reached.late += stats.late;
                reached.shed += stats.shed;
                restores_with_backlog += restores;
            }
            Err(why) => panic!(
                "reorder differential failed at seed {seed}, {why}\nreplay: {}",
                REPLAY.line(seed)
            ),
        }
    }
    assert!(reached.duplicates > CASES as usize, "{reached:?}");
    assert!(reached.late > CASES as usize, "{reached:?}");
    assert!(reached.shed > CASES as usize, "{reached:?}");
    assert!(restores_with_backlog > CASES as usize / 2);
}

/// Replays the one seed named by `REORDER_PROPS_SEED` with every
/// operation logged to stderr; does nothing when it is unset.
#[test]
fn replay_seed_from_env() {
    let Some(seed) = REPLAY.seed_from_env() else {
        return;
    };
    if let Err(why) = run_case(seed, true) {
        panic!("seed {seed}: {why}");
    }
}

fn raw(time: Timestamp, sensor: u16, values: Vec<f64>) -> RawRecord {
    RawRecord {
        time,
        sensor: SensorId(sensor),
        values,
    }
}

/// A collector snapshot that is empty but for its reorder buffer.
fn around(reorder: ReorderSnapshot) -> CollectorSnapshot {
    CollectorSnapshot {
        pipeline: Pipeline::new(PipelineConfig::default(), PERIOD).snapshot(),
        reorder,
        sanitizer: SanitizerSnapshot::default(),
        seqs: Vec::new(),
        accepted: 0,
        rejected: Vec::new(),
        last_heard: Vec::new(),
        silent: Vec::new(),
        episodes: 0,
    }
}

/// A buffer and a twin restored from its image before every offer:
/// the same state in slabs cut to fit, while the live one's still hold
/// the room a wide burst grew. Neither the outcomes, the releases, a
/// snapshot nor a restore point's bytes show the difference.
#[test]
fn slab_room_is_not_state() {
    let config = ReorderConfig {
        watermark_delay: 4 * PERIOD,
        per_sensor_capacity: 64,
    };
    let mut live = ReorderBuffer::new(config.clone());
    let mut rng = TestRng::new(7);
    let mut differed = false;
    for i in 0..400u64 {
        let sensor = rng.usize_in(0, 4) as u16;
        let time = PERIOD * (i / 4 + rng.usize_in(0, 4) as u64);
        let width = if (100..110).contains(&i) { 1_500 } else { 2 };
        let record = raw(time, sensor, vec![i as f64; width]);
        let mut twin = ReorderBuffer::from_snapshot(config.clone(), live.snapshot());
        differed |= twin.retained_values().sum::<usize>() < live.retained_values().sum::<usize>();
        assert_eq!(live.offer(record.clone()), twin.offer(record));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        live.drain_ready(&mut a);
        twin.drain_ready(&mut b);
        assert_eq!(a, b, "step {i}");
        let (a, b) = (live.snapshot(), twin.snapshot());
        assert_eq!(a, b, "step {i}");
        if i % 8 == 0 {
            assert_eq!(encode_collector(&around(a)), encode_collector(&around(b)));
        }
    }
    assert!(differed, "the live slabs held more room than their twins'");
}

/// What a slab can pin: once a burst of the widest readings a frame
/// can state has drained, no sensor's slab keeps room for more than
/// [`RETAINED_VALUES`] values beyond twice its live ones — whether the
/// burst left behind it in the queue or emptied it.
#[test]
fn a_drained_burst_leaves_the_stated_room() {
    let mut buffer = ReorderBuffer::new(ReorderConfig {
        watermark_delay: 8 * PERIOD,
        per_sensor_capacity: 64,
    });
    // All buffered, all released (the sanitizer's to refuse).
    let wide = vec![1.0; usize::from(u16::MAX)];
    let mut released = Vec::new();
    let mut peak = 0;
    for i in 0..80u64 {
        let values = if (10..30).contains(&i) {
            wide.clone()
        } else {
            vec![i as f64, 2.0]
        };
        assert_eq!(
            buffer.offer(raw(PERIOD * i, 0, values)),
            AdmitOutcome::Admitted
        );
        buffer.drain_ready(&mut released);
        peak = peak.max(buffer.retained_values().sum::<usize>());
    }
    assert!(peak > 20 * wide.len(), "the burst was buffered whole");
    assert!(released.iter().any(|r| r.values.len() == wide.len()));
    let live: usize = buffer.snapshot().buffer.iter().map(|(_, v)| v.len()).sum();
    assert!(live > 0, "normal readings still behind the watermark");
    let room: Vec<usize> = buffer.retained_values().collect();
    assert!(
        room.iter().all(|&r| r <= RETAINED_VALUES.max(2 * live)),
        "{room:?}"
    );
    buffer.flush(&mut released);
    assert!(buffer.retained_values().all(|r| r <= RETAINED_VALUES));
}

/// `REORDER_RUNS_SEED` names one seed of the run-shaped differential.
const RUNS: Replay = Replay {
    var: "REORDER_RUNS_SEED",
    package: "sentinet-gateway",
    target: "--test reorder_props",
    test: "runs_release_what_one_at_a_time_releases",
};

/// Offers `run` of `sensor` to the model one reading at a time with a
/// drain after each, and to `shipped` as one run and one drain; the two
/// must agree reading for reading.
fn offer_both(
    model: &mut ModelReorder,
    shipped: &mut ReorderBuffer,
    sensor: SensorId,
    run: &[(Timestamp, Vec<f64>)],
) -> Result<(), String> {
    let (mut expect_outcomes, mut expect) = (Vec::new(), Vec::new());
    for (time, values) in run {
        expect_outcomes.push(model.offer(raw(*time, sensor.0, values.clone())));
        model.drain_ready(&mut expect);
    }
    let (mut outcomes, mut got) = (Vec::new(), Vec::new());
    let mut release = |time, sensor, values: &[f64]| {
        got.push(RawRecord {
            time,
            sensor,
            values: values.to_vec(),
        })
    };
    let readings = run.iter().map(|(t, v)| (*t, v.as_slice()));
    shipped.offer_run(sensor, readings, |_, o| outcomes.push(o), &mut release);
    shipped.release_ready(&mut release);
    if outcomes != expect_outcomes {
        return Err(format!(
            "outcomes {expect_outcomes:?} (model) vs {outcomes:?}"
        ));
    }
    if got != expect {
        return Err(format!("released {expect:?} (model) vs {got:?}"));
    }
    let (m, f) = (model.snapshot(), shipped.snapshot());
    if (model.stats(), model.watermark(), &m) != (shipped.stats(), shipped.watermark(), &f) {
        return Err(format!(
            "state {:?} {:?} {m:?} (model) vs {:?} {:?} {f:?}",
            model.stats(),
            model.watermark(),
            shipped.stats(),
            shipped.watermark()
        ));
    }
    Ok(())
}

/// One seeded case: runs of one to 300 readings of one sensor — in
/// order with gaps, with same-slot repeats, stragglers and readings
/// exactly at the watermark the run itself has raised inside them —
/// from several sensors, with crosswise snapshot/restore between runs.
fn run_shaped_case(seed: u64) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let config = ReorderConfig {
        watermark_delay: rng.pick(&[0, PERIOD, 5 * PERIOD, 20 * PERIOD, u64::MAX]),
        per_sensor_capacity: rng.pick(&[0, 1, 3, 64]),
    };
    let mut sensors = vec![SensorId(300), SensorId(0), SensorId(65_535), SensorId(7)];
    sensors.truncate(rng.usize_in(1, sensors.len() + 1));
    let mut model = ModelReorder::new(config.clone());
    let mut shipped = ReorderBuffer::new(config.clone());
    let (mut clock, mut value) = (100 * PERIOD, 0.0);
    let mut shed_mid_run = false;
    for step in 0..rng.usize_in(2, 12) {
        if rng.usize_in(0, 5) == 0 {
            let (m, f) = (model.snapshot(), shipped.snapshot());
            model = ModelReorder::from_snapshot(config.clone(), f);
            shipped = ReorderBuffer::from_snapshot(config.clone(), m);
        }
        let sensor = rng.pick(&sensors);
        let len = match rng.usize_in(0, 4) {
            0 => 1,
            1 => rng.usize_in(2, 10),
            2 => rng.usize_in(10, 64),
            _ => rng.usize_in(64, 301),
        };
        // The watermark the model will have reached by each reading: a
        // refused reading never raises it.
        let mut horizon = model.watermark();
        let mut run: Vec<(Timestamp, Vec<f64>)> = Vec::with_capacity(len);
        for _ in 0..len {
            let time = match rng.usize_in(0, 12) {
                0..=5 => {
                    clock += PERIOD * rng.usize_in(1, 3) as u64;
                    clock
                }
                6 | 7 if !run.is_empty() => run[rng.usize_in(0, run.len())].0,
                8 => clock.saturating_sub(PERIOD * rng.usize_in(1, 8) as u64),
                9 => horizon.unwrap_or(clock),
                _ => clock,
            };
            horizon = horizon.max(Some(time.saturating_sub(config.watermark_delay)));
            value += 1.0;
            let dims = rng.usize_in(1, 4);
            run.push((time, (0..dims).map(|d| value + d as f64 / 8.0).collect()));
        }
        let shed = shipped.stats().shed;
        offer_both(&mut model, &mut shipped, sensor, &run)
            .map_err(|why| format!("run {step} ({len} of sensor {}): {why}", sensor.0))?;
        shed_mid_run |= len > 1 && shipped.stats().shed > shed;
    }
    let (mut expect, mut got) = (Vec::new(), Vec::new());
    model.flush(&mut expect);
    shipped.release_all(|time, sensor, values| got.push(raw(time, sensor.0, values.to_vec())));
    if expect != got {
        return Err(format!("final flush: {expect:?} (model) vs {got:?}"));
    }
    // Every case need not shed; the suite as a whole must.
    if shed_mid_run {
        SHED_MID_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    Ok(())
}

/// Cases whose runs shed part-way.
static SHED_MID_RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[test]
fn runs_release_what_one_at_a_time_releases() {
    RUNS.for_each_seed(400, run_shaped_case);
    if RUNS.seed_from_env().is_none() {
        let shed = SHED_MID_RUN.load(std::sync::atomic::Ordering::Relaxed);
        assert!(shed > 40, "only {shed} case(s) shed inside a run");
    }
}

/// The first trap: a run offered whole before anything is released
/// sheds, at capacity, a record the one-at-a-time path released before
/// the run's next reading arrived.
#[test]
fn a_run_never_sheds_what_a_drain_released_first() {
    let config = ReorderConfig {
        watermark_delay: 0,
        per_sensor_capacity: 1,
    };
    let run = [(300, vec![1.0]), (600, vec![2.0]), (900, vec![3.0])];
    let mut model = ModelReorder::new(config.clone());
    let mut shipped = ReorderBuffer::new(config);
    offer_both(&mut model, &mut shipped, SensorId(2), &run).unwrap();
    assert_eq!(
        model.stats().shed,
        0,
        "each reading left before the next came"
    );
    assert_eq!(shipped.stats(), ReorderStats::default());
}

/// The second trap: a reading in a slot the run released a reading
/// earlier is late one at a time; a run that has not released yet
/// would find the slot still taken and count a duplicate.
#[test]
fn a_repeat_of_a_released_slot_is_late_not_duplicate() {
    let config = ReorderConfig {
        watermark_delay: 0,
        per_sensor_capacity: 64,
    };
    let run = [(300, vec![1.0]), (300, vec![9.0]), (600, vec![2.0])];
    let mut model = ModelReorder::new(config.clone());
    let mut shipped = ReorderBuffer::new(config);
    offer_both(&mut model, &mut shipped, SensorId(2), &run).unwrap();
    let expect = ReorderStats {
        duplicates: 0,
        late: 1,
        shed: 0,
    };
    assert_eq!(model.stats(), expect);
    assert_eq!(shipped.stats(), expect);
}

/// `HOSTILE_PARTS_SEED` names one seed of the from-snapshot audit.
const HOSTILE: Replay = Replay {
    var: "HOSTILE_PARTS_SEED",
    package: "sentinet-gateway",
    target: "--test reorder_props",
    test: "hostile_parts_restore_to_a_buffer_that_keeps_its_promises",
};

/// Values no well-behaved sensor sends: empty, one to three, the widest
/// a frame can state (rarely — half a megabyte each), non-finite.
fn hostile_values(rng: &mut TestRng) -> Vec<f64> {
    let dims = match rng.usize_in(0, 60) {
        0 => usize::from(u16::MAX),
        1..=5 => 0,
        n => 1 + n % 3,
    };
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    (0..dims)
        .map(|d| match rng.usize_in(0, 12) {
            0 => rng.pick(&odd),
            _ => d as f64 + rng.usize_in(0, 1000) as f64 / 8.0,
        })
        .collect()
}

/// One seeded case of the audit: arbitrary snapshot parts for both
/// `from_snapshot`s, then arbitrary offers and releases.
fn hostile_case(seed: u64) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let config = ReorderConfig {
        watermark_delay: rng.pick(&[0, PERIOD, 5 * PERIOD, u64::MAX]),
        per_sensor_capacity: rng.pick(&[0, 1, 3, 64]),
    };
    let sensors = [SensorId(0), SensorId(1), SensorId(7), SensorId(65_535)];
    let span = 60u64;
    let time = |rng: &mut TestRng| PERIOD * rng.usize_in(0, span as usize) as u64;

    // The reorder parts: unsorted, slots listed twice, sensors marked
    // twice, records on both sides of the watermark and of their
    // sensor's mark, more of a sensor than its capacity.
    let mut buffer: Vec<(Timestamp, SensorId, Vec<f64>)> = Vec::new();
    for _ in 0..rng.usize_in(0, 50) {
        let slot = match buffer.len() {
            n if n > 0 && rng.usize_in(0, 5) == 0 => {
                let (t, s, _) = &buffer[rng.usize_in(0, n)];
                (*t, *s)
            }
            _ => (time(&mut rng), rng.pick(&sensors)),
        };
        buffer.push((slot.0, slot.1, hostile_values(&mut rng)));
    }
    let last_released: Vec<(SensorId, Timestamp)> = (0..rng.usize_in(0, 7))
        .map(|_| (rng.pick(&sensors), time(&mut rng)))
        .collect();
    let watermark = match rng.usize_in(0, 8) {
        0 => None,
        1 => Some(u64::MAX),
        _ => Some(time(&mut rng)),
    };
    let stats = ReorderStats {
        duplicates: rng.usize_in(0, 9),
        late: rng.usize_in(0, 9),
        shed: rng.usize_in(0, 9),
    };
    let parts = ReorderSnapshot {
        buffer: buffer
            .iter()
            .map(|(t, s, v)| ((*t, *s), v.as_slice()))
            .collect(),
        last_released,
        watermark,
        stats,
    };
    // The sanitizer parts: sensors listed twice, times ahead of every
    // buffered record, a dimensionality of 0 or of 65 535.
    let latest: Vec<(SensorId, Timestamp)> = (0..rng.usize_in(0, 7))
        .map(|_| {
            let ahead = PERIOD * span * rng.usize_in(0, 2) as u64;
            (rng.pick(&sensors), time(&mut rng) + ahead)
        })
        .collect();
    let dims = rng.pick(&[None, Some(0), Some(1), Some(2), Some(3), Some(65_535)]);

    // What the restored pair must never step behind.
    let mut mark: BTreeMap<SensorId, Timestamp> = BTreeMap::new();
    for &(s, t) in &parts.last_released {
        let m = mark.entry(s).or_insert(t);
        *m = t.max(*m);
    }
    let mut accepted_mark: BTreeMap<SensorId, Timestamp> = BTreeMap::new();
    for &(s, t) in &latest {
        let m = accepted_mark.entry(s).or_insert(t);
        *m = t.max(*m);
    }

    let mut entered = parts.buffer.len();
    let mut left = 0usize;
    let mut restored = ReorderBuffer::from_snapshot(config.clone(), parts);
    let mut sanitizer = Sanitizer::from_snapshot(SanitizerSnapshot { latest, dims });
    let mut dims = dims.filter(|&d| d > 0);
    let (mut accepted, mut rejected) = (0usize, 0usize);

    let capacity = config.per_sensor_capacity.max(1);
    let mut released = Vec::new();
    let steps = rng.usize_in(10, 80);
    for step in 0..=steps {
        let what = match (step == steps, rng.usize_in(0, 10)) {
            (true, _) | (_, 0) => {
                restored.flush(&mut released);
                "flush"
            }
            (_, 1..=3) => {
                restored.drain_ready(&mut released);
                "drain_ready"
            }
            _ => {
                let late = PERIOD * span / 2 * rng.usize_in(0, 3) as u64;
                let record = RawRecord {
                    time: time(&mut rng) + late,
                    sensor: rng.pick(&sensors),
                    values: hostile_values(&mut rng),
                };
                restored.offer(record);
                entered += 1;
                "offer"
            }
        };
        let at = |why: String| format!("step {step} ({what}): {why}");
        // One call releases in `(time, sensor)` order …
        if !released
            .windows(2)
            .all(|w| (w[0].time, w[0].sensor) < (w[1].time, w[1].sensor))
        {
            return Err(at("one call released out of order".into()));
        }
        for record in released.drain(..) {
            left += 1;
            // … and over all calls each sensor only moves forward, from
            // the newest mark the snapshot gave it.
            let (sensor, time) = (record.sensor, record.time);
            if let Some(&before) = mark.get(&sensor) {
                if time <= before {
                    return Err(at(format!(
                        "sensor {} released t={time} at or behind t={before}",
                        sensor.0
                    )));
                }
            }
            mark.insert(sensor, time);
            // The sanitizer behind it: whatever it accepts is well
            // formed, of one dimensionality, and newer than anything
            // it accepted (or was told it had accepted) before.
            let values = record.values.clone();
            match sanitizer.accept(record) {
                Ok(_) => {
                    accepted += 1;
                    let newer = accepted_mark.get(&sensor).is_none_or(|&m| time > m);
                    let shaped = !values.is_empty()
                        && values.iter().all(|v| v.is_finite())
                        && *dims.get_or_insert(values.len()) == values.len();
                    if !newer || !shaped {
                        return Err(at(format!(
                            "sanitizer accepted sensor {} t={time} with {} value(s)",
                            sensor.0,
                            values.len()
                        )));
                    }
                    accepted_mark.insert(sensor, time);
                }
                Err(_) => rejected += 1,
            }
        }
        // Every record that entered is buffered, released, or counted
        // as dropped; no queue is over what a live one can reach.
        let now = restored.snapshot();
        let dropped = (now.stats.duplicates + now.stats.late + now.stats.shed)
            - (stats.duplicates + stats.late + stats.shed);
        if entered != now.buffer.len() + left + dropped {
            return Err(at(format!(
                "{entered} entered, {} buffered + {left} released + {dropped} dropped",
                now.buffer.len()
            )));
        }
        let mut per_sensor: BTreeMap<SensorId, usize> = BTreeMap::new();
        for ((_, s), _) in now.buffer.iter() {
            *per_sensor.entry(s).or_insert(0) += 1;
        }
        if let Some((s, n)) = per_sensor.iter().find(|(_, &n)| n > capacity) {
            return Err(at(format!("sensor {} buffers {n} over {capacity}", s.0)));
        }
    }
    if left != accepted + rejected {
        return Err(format!(
            "{left} released, {accepted} accepted + {rejected} rejected"
        ));
    }
    // A sanitizer restored from hostile parts is not wedged: a
    // well-formed record newer than everything is accepted.
    let fresh = RawRecord {
        time: u64::MAX,
        sensor: SensorId(3),
        values: vec![1.0; dims.unwrap_or(2)],
    };
    sanitizer
        .accept(fresh)
        .map(|_| ())
        .map_err(|e| format!("a well-formed record was refused: {e}"))
}

#[test]
fn hostile_parts_restore_to_a_buffer_that_keeps_its_promises() {
    HOSTILE.for_each_seed(4_000, hostile_case);
}
