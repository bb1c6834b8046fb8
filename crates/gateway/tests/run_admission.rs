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

use proptest::TestRng;
use seeded::Replay;
use sentinet_gateway::{encode_collector, Collector, FsyncPolicy, GatewayConfig, GatewayReport};
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

/// Everything a report says, NaN-safe.
fn render(report: &GatewayReport) -> String {
    format!(
        "{}\n{:?}\n{:?}\n{:?}",
        report.pipeline, report.ingest, report.liveness, report.storage
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
        reports.push(render(&reopened.finish().map_err(|e| e.to_string())?));
    }
    if reports[0] != reports[1] {
        return Err(format!(
            "reports differ:\n{}\n-- one by one --\n{}",
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
