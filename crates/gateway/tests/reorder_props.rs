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
//! The vendored `proptest` stand-in neither shrinks nor reports seeds,
//! so the cases are a plain seeded loop: a failure names its seed and
//! step and prints the one command that replays it with every
//! operation logged.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use proptest::TestRng;
use seeded::Replay;
use sentinet_gateway::{AdmitOutcome, ReorderBuffer, ReorderConfig, ReorderSnapshot, ReorderStats};
use sentinet_sim::{RawRecord, SensorId, Timestamp};
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
                .map(|(&(t, s), v)| (t, s, v.clone()))
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
        for (t, s, v) in snapshot.buffer {
            *buffered_per_sensor.entry(s).or_insert(0) += 1;
            buffer.insert((t, s), v);
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

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.usize_in(0, items.len())]
}

/// One seeded case: a config, then a stream of operations, every one
/// of them compared. `Err` carries the step and the disagreement; `Ok`
/// the final drop accounting and how many restores had a backlog.
fn run_case(seed: u64, log: bool) -> Result<(ReorderStats, usize), String> {
    let mut rng = TestRng::new(seed);
    let config = ReorderConfig {
        watermark_delay: pick(&mut rng, &[0, PERIOD, 5 * PERIOD, 20 * PERIOD, u64::MAX]),
        per_sensor_capacity: pick(&mut rng, &[0, 1, 3, 64]),
    };
    // Scattered ids, so queues are created out of sensor order.
    let mut sensors: Vec<SensorId> = [300u16, 0, 65_535, 7, 1]
        .iter()
        .map(|&s| SensorId(s))
        .collect();
    sensors.truncate(rng.usize_in(1, sensors.len() + 1));
    let jitter = pick(&mut rng, &[0u64, 2, 6, 30]);
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
        let sensor = pick(&mut rng, &sensors);
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
                let (time, sensor) = pick(&mut rng, &pair.offered);
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
                    .find(|(_, s, _)| *s == sensor)
                    .map(|(t, _, _)| *t);
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
