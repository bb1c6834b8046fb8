//! A reopen ends where its writer stopped, wherever the restore point's
//! cursor falls in the log's framing and whichever thread replays it.
//!
//! A seeded four-sensor stream is written through `deliver_batch` into
//! segments small enough that the log has several, and the writer's
//! `encode_collector(snapshot())` and `finish()` report are kept. A twin
//! fed the same readings one `deliver` each writes the checkpoint that
//! is then placed beside the log, its cursor chosen in the log's last
//! quarter: inside a batch frame, on a frame boundary inside a segment,
//! or on a segment boundary. The reopen must verify it there, rebuild
//! the writer's snapshot bytes and report — with a torn half frame
//! appended to the last segment or without — and refuse the same
//! checkpoint once either half of its body is altered. Each placement
//! runs on a log below the size at which a reopen replays on a worker
//! thread (≈ 52 KB) and on one above it (≈ 400 KB in 64 KiB segments,
//! where the worker takes over part way, and in one 4 MiB segment).
//! A retained log — reclaimed prefix, restore point restored, tail
//! replayed — is held to the same bytes on both sides of the size.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;
mod support;

use seeded::TestRng;
use sentinet_gateway::{
    encode_collector, Collector, DeliverOutcome, GatewayConfig, GatewayError, GatewayReport, Wal,
    CHECKPOINT_FILE,
};
use sentinet_sim::{SensorId, Timestamp};
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const PERIOD: u64 = 300;
const SENSORS: usize = 4;
/// Readings in a log a reopen replays on its own thread.
const SMALL: usize = 2_000;
/// Readings in a log a reopen hands to a worker part way.
const LARGE: usize = 15_000;

/// Where the checkpoint's cursor falls in the log's framing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cursor {
    MidFrame,
    FrameEnd,
    SegmentEnd,
}

/// One delivery: a sensor's run of consecutive seqs from the second.
type Run = (SensorId, u64, Vec<(Timestamp, Vec<f64>)>);

fn dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-reopen-equivalence-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, segment: u64) -> GatewayConfig {
    let mut config = GatewayConfig::new(dir);
    config.sample_period = PERIOD;
    config.reorder.watermark_delay = 4 * PERIOD;
    config.silence_deadline = Some(24 * PERIOD);
    config.checkpoint_every = 0;
    config.wal.segment_max_bytes = segment;
    config
}

/// `n` seeded readings as delivery runs of 1 to 96 readings, the sensor
/// furthest behind usually next, so the sensors' clocks stay close and
/// the reorder buffer re-sequences across them.
fn runs(rng: &mut TestRng, n: usize) -> Vec<Run> {
    let (mut seqs, mut clocks) = ([0u64; SENSORS], [0u64; SENSORS]);
    let (mut out, mut total) = (Vec::new(), 0);
    while total < n {
        let s = match rng.usize_in(0, 4) {
            0 => rng.usize_in(0, SENSORS),
            _ => (0..SENSORS).min_by_key(|&s| clocks[s]).unwrap_or(0),
        };
        let len = rng.usize_in(1, 97).min(n - total);
        let readings: Vec<(Timestamp, Vec<f64>)> = (0..len)
            .map(|_| {
                clocks[s] += PERIOD;
                let hour = (clocks[s] / 3600 % 24) as f64;
                let v = 14.0 + hour / 4.0 + rng.usize_in(0, 8) as f64 / 8.0 + s as f64;
                (clocks[s], vec![v, 80.0 - hour])
            })
            .collect();
        out.push((SensorId(s as u16), seqs[s], readings));
        seqs[s] += len as u64;
        total += len;
    }
    out
}

/// Everything a report says that a restart keeps, NaN-safe.
fn render(report: &GatewayReport) -> String {
    format!(
        "{}\n{:?}\n{:?}\n{:?}",
        report.pipeline, report.ingest, report.liveness, report.plan
    )
}

/// Delivers `runs` through `config` and returns the writer's snapshot
/// bytes and report where it stopped.
fn write(config: &GatewayConfig, runs: &[Run]) -> (String, String) {
    let (mut writer, _) = Collector::open(config.clone()).expect("fresh directory");
    for (sensor, first, readings) in runs {
        let out = writer.deliver_batch(*sensor, *first, readings).unwrap();
        assert_eq!(out.accepted, readings.len());
    }
    let snapshot = encode_collector(&writer.snapshot());
    (snapshot, render(&writer.finish().unwrap()))
}

/// The segments of the log in `dir`, in order.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segments.sort();
    segments
}

/// Every frame of the log as `(cursor at its end, readings, whether it
/// ends its segment)`.
fn frames(dir: &Path) -> Vec<(u64, u64, bool)> {
    let mut at = 0;
    let mut out = Vec::new();
    for segment in segments(dir) {
        let ends = support::frame_ends(&fs::read(segment).unwrap());
        for (i, &(_, readings)) in ends.iter().enumerate() {
            at += readings as u64;
            out.push((at, readings as u64, i + 1 == ends.len()));
        }
    }
    out
}

/// A cursor of kind `kind` in the log's last quarter (never its end).
fn pick(rng: &mut TestRng, dir: &Path, kind: Cursor) -> u64 {
    let frames = frames(dir);
    let total = frames.last().map_or(0, |f| f.0);
    let late = frames[..frames.len() - 1]
        .iter()
        .filter(|&&(end, readings, _)| 4 * (end - readings) >= 3 * total);
    let fits: Vec<u64> = match kind {
        Cursor::MidFrame => late
            .filter(|f| f.1 >= 2)
            .map(|&(end, readings, _)| end - readings + rng.usize_in(1, readings as usize) as u64)
            .collect(),
        Cursor::FrameEnd => late.filter(|f| !f.2).map(|f| f.0).collect(),
        Cursor::SegmentEnd => late.filter(|f| f.2).map(|f| f.0).collect(),
    };
    assert!(!fits.is_empty(), "no {kind:?} cursor in the last quarter");
    fits[rng.usize_in(0, fits.len())]
}

/// The checkpoint a twin writes after the log's first `cursor` readings,
/// fed one `deliver` each.
fn twin_checkpoint(config: &GatewayConfig, cursor: u64) -> String {
    let (_, log) = Wal::open(config.wal.clone(), None).unwrap();
    let twin = dir(&format!("twin-{cursor}"));
    let mut twin_config = config.clone();
    twin_config.wal.dir = twin.clone();
    twin_config.checkpoint_every = cursor;
    let (mut c, _) = Collector::open(twin_config).unwrap();
    for r in log.iter().take(cursor as usize) {
        let out = c.deliver(r.sensor, r.seq, r.time, r.values.to_vec());
        assert_eq!(out.unwrap(), DeliverOutcome::Accepted);
    }
    drop(c);
    let text = fs::read_to_string(twin.join(CHECKPOINT_FILE)).unwrap();
    assert!(text.contains(&format!("\ncursor {cursor}\n")), "{text:.80}");
    fs::remove_dir_all(&twin).unwrap();
    text
}

/// Appends the first half of the last segment's last frame to it.
fn tear(dir: &Path) {
    let last = segments(dir).pop().unwrap();
    let bytes = fs::read(&last).unwrap();
    let ends = support::frame_ends(&bytes);
    let start = ends.len().checked_sub(2).map_or(0, |i| ends[i].0);
    let half = &bytes[start..start + (bytes.len() - start) / 2];
    OpenOptions::new()
        .append(true)
        .open(&last)
        .unwrap()
        .write_all(half)
        .unwrap();
}

/// Writes a seeded log of `readings` in `segment`-byte segments, places
/// a twin's checkpoint at a `kind` cursor beside it, and holds the
/// reopen to the writer's bytes with and without a torn tail.
fn verified_at(kind: Cursor, readings: usize, segment: u64, seed: u64) {
    let mut rng = TestRng::new(seed);
    let dir = dir(&format!("{kind:?}-{readings}-{segment}"));
    let config = config(&dir, segment);
    let (snapshot, report) = write(&config, &runs(&mut rng, readings));
    let cursor = pick(&mut rng, &dir, kind);
    let checkpoint = twin_checkpoint(&config, cursor);
    fs::write(dir.join(CHECKPOINT_FILE), &checkpoint).unwrap();
    for torn in [false, true] {
        if torn {
            tear(&dir);
        }
        let (reopened, info) = Collector::open(config.clone())
            .unwrap_or_else(|e| panic!("{kind:?} cursor {cursor}, torn {torn}: {e}"));
        assert_eq!(info.verified_cursor, Some(cursor), "torn {torn}");
        assert_eq!(info.replayed, readings as u64, "torn {torn}");
        assert!(
            encode_collector(&reopened.snapshot()) == snapshot,
            "{kind:?} cursor {cursor}, torn {torn}: snapshot"
        );
        assert_eq!(render(&reopened.finish().unwrap()), report, "torn {torn}");
    }
    // Either half of the body altered is a mismatch at the cursor.
    let accepted = checkpoint
        .lines()
        .find(|l| l.starts_with("accepted "))
        .unwrap();
    let heard = checkpoint
        .lines()
        .find(|l| l.starts_with("heard "))
        .unwrap();
    for (line, altered) in [
        (accepted, format!("{accepted}0")),
        (heard, format!("{heard}0")),
    ] {
        fs::write(
            dir.join(CHECKPOINT_FILE),
            checkpoint.replace(line, &altered),
        )
        .unwrap();
        match Collector::open(config.clone()) {
            Err(GatewayError::CheckpointMismatch { cursor: at }) => assert_eq!(at, cursor),
            other => panic!(
                "{kind:?} cursor {cursor}, `{altered}`: {:?}",
                other.map(|o| o.1)
            ),
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cursor_inside_a_batch_frame_reopens_to_the_writers_state() {
    verified_at(Cursor::MidFrame, SMALL, 8 << 10, 1);
    verified_at(Cursor::MidFrame, LARGE, 64 << 10, 2);
    verified_at(Cursor::MidFrame, LARGE, 4 << 20, 3);
}

#[test]
fn a_cursor_on_a_frame_boundary_reopens_to_the_writers_state() {
    verified_at(Cursor::FrameEnd, SMALL, 8 << 10, 4);
    verified_at(Cursor::FrameEnd, LARGE, 64 << 10, 5);
}

#[test]
fn a_cursor_on_a_segment_boundary_reopens_to_the_writers_state() {
    verified_at(Cursor::SegmentEnd, SMALL, 8 << 10, 6);
    verified_at(Cursor::SegmentEnd, LARGE, 64 << 10, 7);
}

/// Under retention the writer's own restore points reclaim the prefix;
/// the reopen restores the last one and replays the tail behind it.
#[test]
fn a_retained_log_restores_to_the_writers_state() {
    for (readings, retain, seed) in [(SMALL, 24 << 10, 8), (LARGE * 2, 512 << 10, 9)] {
        let mut rng = TestRng::new(seed);
        let dir = dir(&format!("retained-{readings}"));
        let mut config = config(&dir, retain / 8);
        config.wal.retain_bytes = Some(retain);
        config.checkpoint_every = 4096;
        let (snapshot, report) = write(&config, &runs(&mut rng, readings));
        assert!(segments(&dir).len() < 10, "the prefix was reclaimed");
        tear(&dir);
        let (reopened, info) = Collector::open(config.clone()).unwrap();
        assert!(info.restored_from.is_some(), "{info:?}");
        assert!(
            encode_collector(&reopened.snapshot()) == snapshot,
            "{readings}: snapshot"
        );
        assert_eq!(render(&reopened.finish().unwrap()), report);
        fs::remove_dir_all(&dir).unwrap();
    }
}
