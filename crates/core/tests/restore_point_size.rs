//! Restore-point size ledger: what one sensor's block of a pipeline
//! restore point costs, section by section — `raw`, `tracks`, the
//! `M_CE` estimator, the alarm filter, and the sensor's row of the
//! in-progress window — once a stream has run 100, 1 000 and 10 000
//! windows. Printed for a quiet stream, on which no raw alarm fires,
//! and for the Great Duck Island simulator; on the quiet stream every
//! `raw` line is one run, and a block at 10 000 windows is within 10 %
//! of its size at 1 000: the history no longer grows with the stream.
//!
//! 10 000 windows are 1.2 million readings, 417 days of the simulator,
//! drawn a day at a time. CI prints the ledger in release:
//! `cargo test --release -p sentinet-core --test restore_point_size -- --nocapture`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{encode_pipeline, Pipeline, PipelineConfig};
use sentinet_sim::{gdi, simulate, Reading, SensorId, DAY_S};

/// Windows at which the restore point is taken.
const MARKS: [u64; 3] = [100, 1_000, 10_000];
/// Sensors in each stream.
const SENSORS: u16 = 10;
/// Seconds between samples, the simulator's.
const PERIOD: u64 = gdi::SAMPLE_PERIOD;

/// Bytes per sensor of each section of a pipeline restore point.
#[derive(Debug, Clone, Copy)]
struct Ledger {
    raw: f64,
    tracks: f64,
    estimator: f64,
    filter: f64,
    window_buffer: f64,
    /// The whole block, `sensor` to `end`.
    block: f64,
}

impl Ledger {
    fn of(text: &str) -> Self {
        let sensors = text.matches("\nsensor ").count() as f64;
        let bytes = |tags: &[&str]| {
            let lines = text
                .lines()
                .filter(|l| tags.iter().any(|t| l.starts_with(t)));
            lines.map(|l| l.len() + 1).sum::<usize>() as f64 / sensors
        };
        let shard = text.find("\nsensor ").map_or("", |at| &text[at + 1..]);
        Self {
            raw: bytes(&["raw "]),
            tracks: bytes(&["tracks "]),
            // `M_CE`'s lines; `M_CO`'s are `mco…`.
            estimator: bytes(&["prior ", "mce ", "b ", "counts "]),
            filter: bytes(&["filter "]),
            window_buffer: bytes(&["wsensor "]),
            block: shard.len() as f64 / sensors,
        }
    }
}

/// Runs `stream` through a pipeline and returns the restore point's
/// text at each of [`MARKS`], printing its ledger.
fn ledger(name: &str, stream: impl Iterator<Item = (u64, SensorId, Reading)>) -> Vec<String> {
    let mut p = Pipeline::new(PipelineConfig::default(), PERIOD);
    let mut texts = Vec::new();
    for (time, sensor, reading) in stream {
        for outcome in p.push_reading(time, sensor, &reading) {
            p.recycle_outcome(outcome);
        }
        if p.windows_processed() >= MARKS[texts.len()] {
            let text = encode_pipeline(&p.snapshot());
            let l = Ledger::of(&text);
            println!(
                "{name} at {} windows, bytes per sensor: raw {:.1}, tracks {:.1}, \
                 estimator {:.1}, filter {:.1}, window buffer {:.1}; block {:.1}",
                p.windows_processed(),
                l.raw,
                l.tracks,
                l.estimator,
                l.filter,
                l.window_buffer,
                l.block
            );
            texts.push(text);
            if texts.len() == MARKS.len() {
                break;
            }
        }
    }
    assert_eq!(
        texts.len(),
        MARKS.len(),
        "{name} ran out before its last mark"
    );
    texts
}

#[test]
fn a_quiet_streams_restore_point_stops_growing() {
    // Every sensor reads the same value, so every window is decisive
    // and no sensor disagrees with the vote.
    let stream = (1..).flat_map(|i: u64| {
        let (t, h) = gdi::KEY_STATES[(i / 36 % 4) as usize];
        (0..SENSORS).map(move |s| (i * PERIOD, SensorId(s), Reading::new(vec![t, h])))
    });
    let texts = ledger("quiet", stream);
    for text in &texts {
        for line in text.lines().filter(|l| l.starts_with("raw ")) {
            let tokens: Vec<&str> = line.split(' ').skip(1).collect();
            assert!(
                matches!(tokens[..], [run] if run.starts_with("0:0")),
                "not one quiet run: `{line}`"
            );
        }
    }
    let (at_1k, at_10k) = (Ledger::of(&texts[1]).block, Ledger::of(&texts[2]).block);
    assert!(
        at_10k <= 1.1 * at_1k,
        "a block grew from {at_1k:.1} B at 1 000 windows to {at_10k:.1} B at 10 000"
    );
}

#[test]
fn the_simulators_ledger_prints() {
    let mut cfg = gdi::day_config();
    cfg.num_sensors = SENSORS;
    let stream = (0..).flat_map(|day: u64| {
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(day));
        let records: Vec<_> = trace
            .delivered()
            .map(|(t, s, r)| (t, s, r.clone()))
            .collect();
        records
            .into_iter()
            .map(move |(t, s, r)| (day * DAY_S + t, s, r))
    });
    ledger("gdi", stream);
}
