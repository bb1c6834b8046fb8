//! Run-shaped admission is per-reading admission: one seeded
//! multi-sensor stream delivered two ways into two collectors — as
//! `deliver_batch` runs of random length (retransmitted overlaps, seq
//! gaps filled later, same-slot repeats, stragglers, a sanitizer
//! reject now and then) and as one `deliver` per reading of the same
//! runs — under a silence deadline short enough that sensors fall
//! silent and come back inside a run. After every run both collectors
//! encode to the same snapshot bytes; at the end both reports agree
//! (pipeline, ingest counters, liveness, storage), and reopening either
//! directory — the full log replayed a run at a time, the restore point
//! verified at its cursor — replays to the bytes it was left with.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::{Replay, TestRng};
use sentinet_gateway::{
    encode_collector, Collector, FsyncPolicy, GatewayConfig, GatewayReport, Mutant,
};
use sentinet_sim::{SensorId, Timestamp};
use std::fs;
use std::path::PathBuf;

const PERIOD: u64 = 300;

const EQUIVALENCE: Replay = Replay {
    var: "RUN_ADMISSION_SEED",
    package: "sentinet-gateway",
    target: "--test run_admission",
    test: "a_batch_admits_what_its_readings_admit_one_by_one",
};

/// One delivery: a sensor's run of consecutive seqs from `first_seq`.
struct Run {
    sensor: SensorId,
    first_seq: u64,
    readings: Vec<(Timestamp, Vec<f64>)>,
}

/// The seeded stream: per sensor a history of `(time, values)` by seq,
/// cut into runs that resend some of it and skip seqs they send later.
fn stream(rng: &mut TestRng) -> Vec<Run> {
    let sensors = rng.usize_in(2, 6);
    let mut history: Vec<Vec<(Timestamp, Vec<f64>)>> = vec![Vec::new(); sensors];
    let mut newest = vec![0u64; sensors];
    let mut gaps: Vec<(usize, u64, usize)> = Vec::new();
    let mut clock = 100 * PERIOD;
    let mut runs = Vec::new();
    while runs.len() < 60 {
        // A skipped stretch comes in, late, now and then.
        if !gaps.is_empty() && rng.usize_in(0, 4) == 0 {
            let (s, first, len) = gaps.swap_remove(rng.usize_in(0, gaps.len()));
            let readings = history[s][first as usize..first as usize + len].to_vec();
            runs.push(Run {
                sensor: SensorId(s as u16),
                first_seq: first,
                readings,
            });
            continue;
        }
        let s = rng.usize_in(0, sensors);
        let sent = history[s].len();
        let len = match rng.usize_in(0, 4) {
            0 => 1,
            1 | 2 => rng.usize_in(2, 12),
            _ => rng.usize_in(12, 70),
        };
        let first = match rng.usize_in(0, 8) {
            // A retransmission overlapping what was sent.
            0 if sent > 0 => sent - rng.usize_in(1, sent.min(len) + 1),
            // A gap: the seqs in front of this run come later.
            1 => {
                let skip = rng.usize_in(1, 4);
                gaps.push((s, sent as u64, skip));
                sent + skip
            }
            _ => sent,
        };
        while history[s].len() < first + len {
            let time = match rng.usize_in(0, 12) {
                0 => newest[s],
                1 => newest[s].saturating_sub(PERIOD * rng.usize_in(1, 4) as u64),
                _ => (newest[s] + PERIOD).max(clock),
            };
            newest[s] = newest[s].max(time);
            let v = 20.0 + rng.usize_in(0, 50) as f64 / 4.0;
            let values = match rng.usize_in(0, 40) {
                0 => vec![f64::NAN, v],
                1 => vec![v],
                _ => vec![v, v + 30.0],
            };
            history[s].push((time, values));
        }
        runs.push(Run {
            sensor: SensorId(s as u16),
            first_seq: first as u64,
            readings: history[s][first..first + len].to_vec(),
        });
        clock += PERIOD * rng.usize_in(0, len.min(8) + 1) as u64;
    }
    runs
}

fn dir(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-run-admission-{name}-{seed}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Everything a report says, comparable with `==`.
fn said(report: GatewayReport) -> impl PartialEq + std::fmt::Debug {
    (
        report.pipeline,
        report.ingest,
        report.liveness,
        report.storage,
    )
}

fn case(seed: u64) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let dirs = [dir("batch", seed), dir("reading", seed)];
    let mut config = GatewayConfig::new(&dirs[0]);
    config.wal.fsync = FsyncPolicy::Never;
    config.checkpoint_every = [0, 7, 40][rng.usize_in(0, 3)];
    config.reorder.watermark_delay = PERIOD * rng.usize_in(0, 5) as u64;
    config.reorder.per_sensor_capacity = [1, 3, 64][rng.usize_in(0, 3)];
    config.silence_deadline = Some(PERIOD * rng.usize_in(1, 5) as u64);
    let configs = dirs.clone().map(|d| {
        let mut c = config.clone();
        c.wal.dir = d;
        c
    });
    let open = |c: &GatewayConfig| Collector::open(c.clone()).map_err(|e| e.to_string());
    let (mut batch, _) = open(&configs[0])?;
    let (mut reading, _) = open(&configs[1])?;
    let mut silences = 0;
    for (i, run) in stream(&mut rng).into_iter().enumerate() {
        batch
            .deliver_batch(run.sensor, run.first_seq, &run.readings)
            .map_err(|e| e.to_string())?;
        for (k, (time, values)) in run.readings.into_iter().enumerate() {
            reading
                .deliver(run.sensor, run.first_seq + k as u64, time, values)
                .map_err(|e| e.to_string())?;
        }
        let (a, b) = (
            encode_collector(&batch.snapshot()),
            encode_collector(&reading.snapshot()),
        );
        if a != b {
            return Err(format!(
                "run {i}: snapshots differ\n{a}\n-- one by one --\n{b}"
            ));
        }
        silences = batch.liveness().episodes;
    }
    let images = [batch.snapshot(), reading.snapshot()].map(|s| encode_collector(&s));
    drop((batch, reading));
    let mut reports = Vec::new();
    for (c, image) in configs.iter().zip(&images) {
        let (reopened, _) = open(c)?;
        if encode_collector(&reopened.snapshot()) != *image {
            return Err(format!("{} replays to other bytes", c.wal.dir.display()));
        }
        reports.push(said(reopened.finish().map_err(|e| e.to_string())?));
    }
    if reports[0] != reports[1] {
        return Err(format!(
            "reports differ:\n{:?}\n-- one by one --\n{:?}",
            reports[0], reports[1]
        ));
    }
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
    SILENCES.fetch_add(silences, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// Silence episodes the cases reached, summed: a green run that never
/// silenced a sensor would prove nothing about liveness.
static SILENCES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[test]
fn a_batch_admits_what_its_readings_admit_one_by_one() {
    EQUIVALENCE.for_each_seed(40, case);
    if EQUIVALENCE.seed_from_env().is_none() {
        let silences = SILENCES.load(std::sync::atomic::Ordering::Relaxed);
        assert!(silences > 40, "only {silences} silence episode(s)");
    }
}

const NON_INTERFERENCE: Replay = Replay {
    var: "HORIZON_SEED",
    package: "sentinet-gateway",
    target: "--test run_admission",
    test: "a_rogue_clock_leaves_every_other_sensor_as_it_was",
};

/// The seeded stream delivered twice, once with a rogue sensor's
/// readings between its runs — stamped `u64::MAX`, `2⁴⁰` s past the
/// newest reading, and one second past the stream horizon — and once
/// without. Every rogue reading is refused before the append, so after
/// every run both collectors encode to the same bytes, and both finish
/// to the same report over the same windows: the step budget.
fn rogue_case(seed: u64, mutant: Option<Mutant>) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let dirs = [dir("rogue", seed), dir("clean", seed)];
    let delay = PERIOD * rng.usize_in(0, 5) as u64;
    let configs = dirs.clone().map(|d| {
        let mut c = GatewayConfig::new(d);
        c.wal.fsync = FsyncPolicy::Never;
        c.checkpoint_every = 0;
        c.reorder.watermark_delay = delay;
        c.mutant = mutant;
        c
    });
    let open = |c: &GatewayConfig| Collector::open(c.clone()).map_err(|e| e.to_string());
    let (mut rogue, _) = open(&configs[0])?;
    let (mut clean, _) = open(&configs[1])?;
    let runs = stream(&mut rng);
    let newest = runs.iter().flat_map(|r| &r.readings).map(|r| r.0).max();
    // The stream clock (watermark plus delay) and its horizon, as
    // `RejectCause::Horizon` states them.
    let reach = delay.max(PERIOD) * HORIZON_DELAYS;
    let mut clock: Option<Timestamp> = None;
    let mut rogue_seq = 0;
    for (i, run) in runs.into_iter().enumerate() {
        if let Some(clock) = clock.filter(|_| rng.usize_in(0, 3) == 0) {
            let newest = newest.unwrap_or(0);
            let past = clock.max(delay) + reach + 1;
            let times = [u64::MAX, newest.saturating_add(1 << 40), past];
            let time = rng.pick(&times);
            let out = rogue
                .deliver_batch(SensorId(999), rogue_seq, &[(time, vec![20.0, 50.0])])
                .map_err(|e| e.to_string())?;
            if out.accepted > 0 {
                rogue_seq += 1;
            }
        }
        for c in [&mut rogue, &mut clean] {
            c.deliver_batch(run.sensor, run.first_seq, &run.readings)
                .map_err(|e| e.to_string())?;
        }
        let times = run.readings.iter().map(|r| r.0);
        clock = clock.into_iter().chain(times).max();
        let (a, b) = (
            encode_collector(&rogue.snapshot()),
            encode_collector(&clean.snapshot()),
        );
        if a != b {
            return Err(format!("run {i}: the rogue clock moved the collector"));
        }
    }
    let refused = rogue.storage_status().horizon_rejects;
    let reports = [rogue, clean].map(|c| c.finish().map_err(|e| e.to_string()));
    let [a, b] = reports;
    let (mut a, b) = (a?, b?);
    if (a.storage.horizon_rejects, b.storage.horizon_rejects) != (refused, 0) {
        return Err("horizon refusals miscounted".into());
    }
    a.storage.horizon_rejects = 0;
    if said(a) != said(b) {
        return Err("the reports differ".into());
    }
    REFUSED.fetch_add(refused, std::sync::atomic::Ordering::Relaxed);
    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
    Ok(())
}

/// `RejectCause::Horizon`'s reach, in watermark delays.
const HORIZON_DELAYS: u64 = 2_048;

/// Rogue readings the non-interference cases refused, summed.
static REFUSED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[test]
fn a_rogue_clock_leaves_every_other_sensor_as_it_was() {
    NON_INTERFERENCE.for_each_seed(40, |seed| rogue_case(seed, None));
    if NON_INTERFERENCE.seed_from_env().is_none() {
        let refused = REFUSED.load(std::sync::atomic::Ordering::Relaxed);
        assert!(refused > 100, "only {refused} rogue reading(s) refused");
    }
}

/// The must-fail self-test: with the horizon check skipped
/// (`Mutant::SkipHorizon`) the property fails at every seed.
#[test]
fn the_rogue_clock_property_fails_without_the_horizon() {
    for seed in 0..8 {
        assert!(
            rogue_case(seed, Some(Mutant::SkipHorizon)).is_err(),
            "seed {seed}: the property passed with the horizon skipped"
        );
    }
}

/// A client resending from each NACK: at each of `sends`, sensor `s`
/// sends its refused readings again and then a new one stamped `t`;
/// a last round resends what is still refused. Returns how many
/// deliveries were refused past the horizon, or an error when a
/// reading is refused still, when one arrived late, or when the
/// directory replays to other bytes.
fn resending_client(name: &str, delay: u64, sends: &[(u16, Timestamp)]) -> Result<usize, String> {
    let d = dir(name, delay * 1_000 + sends.len() as u64);
    let mut config = GatewayConfig::new(&d);
    config.wal.fsync = FsyncPolicy::Never;
    config.checkpoint_every = 0;
    config.reorder.watermark_delay = delay;
    let (mut c, _) = Collector::open(config.clone()).map_err(|e| e.to_string())?;
    let sensors = sends
        .iter()
        .map(|&(s, _)| usize::from(s) + 1)
        .max()
        .unwrap_or(0);
    let mut pending: Vec<Vec<(Timestamp, Vec<f64>)>> = vec![Vec::new(); sensors];
    let mut next = vec![0u64; sensors];
    let last = (0..sensors).map(|s| (s, None));
    let all = sends.iter().map(|&(s, t)| (usize::from(s), Some(t)));
    for (s, time) in all.chain(last) {
        let queue = &mut pending[s];
        queue.extend(time.map(|t| (t, vec![21.0, 55.0])));
        let first = next[s];
        let out = (c.deliver_batch(SensorId(s as u16), first, queue)).map_err(|e| e.to_string())?;
        let kept = out.nack.map_or(queue.len() as u64, |(seq, _)| seq - first);
        queue.drain(..kept as usize);
        next[s] = first + kept;
    }
    if let Some(s) = pending.iter().position(|q| !q.is_empty()) {
        return Err(format!(
            "sensor {s}: {} reading(s) still refused",
            pending[s].len()
        ));
    }
    let refused = c.storage_status().horizon_rejects;
    let image = encode_collector(&c.snapshot());
    let report = c.finish().map_err(|e| e.to_string())?;
    if report.ingest.late > 0 {
        return Err(format!("{} reading(s) arrived late", report.ingest.late));
    }
    let (reopened, _) = Collector::open(config).map_err(|e| e.to_string())?;
    if encode_collector(&reopened.snapshot()) != image {
        return Err("the directory replays to other bytes".into());
    }
    drop(reopened);
    let _ = fs::remove_dir_all(&d);
    Ok(refused)
}

/// Every sensor falls silent for longer than the horizon's reach — a
/// network down for twice that — and resumes: the first sensor back is
/// refused once, the second is its witness and moves the clock, and
/// from then on every reading is admitted, none late. A lone sensor
/// has no one to shield and is admitted at once.
#[test]
fn every_sensor_resuming_after_a_gap_past_the_reach_is_admitted() {
    for delay in [0, PERIOD, 4 * PERIOD] {
        let reach = delay.max(PERIOD) * HORIZON_DELAYS;
        let resume = 100 * PERIOD + 2 * reach;
        for sensors in 1..=4 {
            let round = |t: Timestamp| (0..sensors).map(move |s| (s, t));
            let before = (0..20).flat_map(|i| round(100 * PERIOD + i * PERIOD));
            let after = (0..20).flat_map(|i| round(resume + i * PERIOD));
            let sends: Vec<_> = before.chain(after).collect();
            let refused = resending_client("gap", delay, &sends);
            let want = usize::from(sensors > 1);
            assert_eq!(refused, Ok(want), "{sensors} sensor(s), delay {delay}");
        }
    }
}

/// A mote with an unset clock stamps the stream's first reading 0;
/// every later reading — its own and the others' — carries real Unix
/// time, the mote's last in each round. The first real reading is
/// refused, the second sensor's is its witness, and the stream runs
/// on real time. Alone, the mote is admitted at once.
#[test]
fn a_stream_stamped_0_first_then_real_time_keeps_admitting() {
    for sensors in 1..=3 {
        let round = |t: Timestamp| (0..sensors).rev().map(move |s| (s, t));
        let real = (0..30).flat_map(|i| round(1_700_000_000 + i * PERIOD));
        let sends: Vec<_> = [(0, 0)].into_iter().chain(real).collect();
        let refused = resending_client("unset", PERIOD, &sends);
        assert_eq!(refused, Ok(usize::from(sensors > 1)), "{sensors} sensor(s)");
    }
}
