//! WAL size ledger: log bytes per reading of a fixed stream, in the
//! payload older binaries logged a batch in (the wire's `DataBatch`
//! frame, a lone reading's `Data` frame) and in the log's own run
//! payload, which the WAL writes now. The stream is the ingest
//! benchmark's: the Great Duck Island simulator, 10 sensors for 56
//! days at seed 42, cut into 256-reading batches a sensor in the order
//! a v2 uplink seals them, each batch one extent. The figure asserted
//! is the run payload's; the older one is printed beside it.
//!
//! The same stream also runs through a real collector in the ingest
//! benchmark's shape, without retention and under its 64 KiB budget, to
//! price the restore points beside the log: bytes a commit and a
//! reading, and how many buffered readings they name by log position
//! and how many they copy by value.
//!
//! CI prints the ledger: `cargo test --release -p sentinet-gateway
//! --test wal_size -- --nocapture`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    trace_to_raw, Collector, FsyncPolicy, GatewayConfig, Message, RealVfs, VFile, Vfs, Wal,
    WalConfig, WalRecord,
};
use sentinet_sim::{gdi, simulate, SensorId, Timestamp, DAY_S};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

const SENSORS: u16 = 10;
const DAYS: u64 = 56;
const SEED: u64 = 42;
const BATCH: usize = 256;

/// The stream's batches, each a run of one sensor's consecutive
/// readings: a sensor's batch seals at its 256th reading, the rest at
/// the end of the stream in sensor order.
fn batches() -> Vec<Vec<WalRecord>> {
    let mut cfg = gdi::month_config();
    cfg.num_sensors = SENSORS;
    cfg.duration = DAYS * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(SEED));
    let mut open: BTreeMap<SensorId, Vec<WalRecord>> = BTreeMap::new();
    let mut next_seq: BTreeMap<SensorId, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for r in trace_to_raw(&trace) {
        let seq = next_seq.entry(r.sensor).or_insert(0);
        let batch = open.entry(r.sensor).or_default();
        batch.push(WalRecord {
            sensor: r.sensor,
            seq: *seq,
            time: r.time,
            values: r.values,
        });
        *seq += 1;
        if batch.len() == BATCH {
            out.extend(open.remove(&r.sensor));
        }
    }
    out.extend(open.into_values());
    out
}

/// The bytes an older binary logged `batch` in: the frame it arrived
/// in, a lone reading's `Data` frame.
fn older_frame(batch: &[WalRecord]) -> usize {
    let message = match batch {
        [r] => Message::Data {
            sensor: r.sensor,
            seq: r.seq,
            time: r.time,
            values: r.values.clone(),
        },
        _ => Message::DataBatch {
            sensor: batch[0].sensor,
            first_seq: batch[0].seq,
            readings: batch.iter().map(|r| (r.time, r.values.clone())).collect(),
        },
    };
    encode_frame(&message).len()
}

#[test]
fn wal_bytes_per_reading_of_the_ingest_stream() {
    let batches = batches();
    let readings: usize = batches.iter().map(Vec::len).sum();
    let older: usize = batches.iter().map(|b| older_frame(b)).sum();

    let dir = std::env::temp_dir().join(format!("sentinet-wal-size-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).expect("fresh directory");
    for batch in &batches {
        wal.append_many(batch).expect("append");
    }
    let (runs, logged) = (wal.total_bytes(), wal.records_logged());
    drop(wal);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(logged, readings as u64);

    let per = |bytes: u64| bytes as f64 / readings as f64;
    let (older, runs) = (per(older as u64), per(runs));
    println!(
        "wal size ledger: {readings} readings in {} batches of {BATCH}",
        batches.len()
    );
    println!("  DataBatch frames (older binaries): {older:.3} B a reading");
    println!(
        "  log runs (this binary):            {runs:.3} B a reading ({:+.1} %)",
        100.0 * (runs / older - 1.0)
    );
    assert!(
        (runs - 18.098).abs() < 0.0005,
        "log runs take {runs:.4} B a reading, not 18.098"
    );
}

/// A pass-through [`Vfs`] that keeps every restore point written.
#[derive(Debug, Default)]
struct RestorePoints(Mutex<Vec<String>>);

impl Vfs for RestorePoints {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        RealVfs.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        RealVfs.list(dir)
    }

    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        RealVfs.create(path)
    }

    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        RealVfs.open_append(path)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealVfs.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if path.ends_with("checkpoint.tmp") {
            let text = String::from_utf8_lossy(bytes).into_owned();
            self.0.lock().expect("ledger lock").push(text);
        }
        RealVfs.write_file(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        RealVfs.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealVfs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_file(path)
    }

    fn available_space(&self, path: &Path) -> Option<u64> {
        RealVfs.available_space(path)
    }
}

/// The number after `tag` on `text`'s line that opens with it.
fn field(text: &str, tag: &str) -> Option<u64> {
    let line = text.lines().find_map(|l| l.strip_prefix(tag))?;
    line.split(' ').next()?.parse().ok()
}

/// How many buffered readings `text` names by log position and how many
/// it copies by value, `log` holding every logged reading in log order:
/// a named sensor's readings from the redo cursor up to the cursor, at
/// or after its front (the stream repeats no slot).
fn naming(text: &str, log: &[(SensorId, Timestamp)]) -> (usize, usize) {
    let by_value = text.lines().filter(|l| l.starts_with("rbuf ")).count();
    let (Some(cursor), Some(redo)) = (field(text, "cursor "), field(text, "redo ")) else {
        return (0, by_value);
    };
    let fronts: BTreeMap<u16, Timestamp> = text
        .lines()
        .find_map(|l| l.strip_prefix("front "))
        .into_iter()
        .flat_map(|list| list.split(' '))
        .filter_map(|item| {
            let (s, t) = item.split_once(':')?;
            Some((s.parse().ok()?, t.parse().ok()?))
        })
        .collect();
    let named = log[redo as usize..cursor as usize]
        .iter()
        .filter(|(s, t)| fronts.get(&s.0).is_some_and(|front| t >= front))
        .count();
    (named, by_value)
}

/// One run of the stream through a collector in the ingest shape —
/// watermark 512 periods, 1 024 readings a sensor, a restore point
/// every 8 192 readings, no fsync — with `retain` bytes of retention
/// in 16 KiB segments, or none: `(restore-point bytes, commits, named
/// by position, by value)`.
fn restore_points(batches: &[Vec<WalRecord>], retain: Option<u64>) -> (usize, usize, usize, usize) {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-wal-size-rp-{}-{}",
        retain.unwrap_or(0),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = Arc::new(RestorePoints::default());
    let mut config = GatewayConfig::new(&dir);
    config.reorder.watermark_delay = 2 * BATCH as u64 * gdi::SAMPLE_PERIOD;
    config.reorder.per_sensor_capacity = 4 * BATCH;
    config.checkpoint_every = 32 * BATCH as u64;
    config.wal.fsync = FsyncPolicy::Never;
    config.wal.vfs = ledger.clone();
    if retain.is_some() {
        config.wal.retain_bytes = retain;
        config.wal.segment_max_bytes = 16 << 10;
    }
    let (mut collector, _) = Collector::open(config).expect("fresh directory");
    let mut log = Vec::new();
    for batch in batches {
        let readings: Vec<(Timestamp, Vec<f64>)> =
            batch.iter().map(|r| (r.time, r.values.clone())).collect();
        let out = collector
            .deliver_batch(batch[0].sensor, batch[0].seq, &readings)
            .expect("healthy storage");
        assert_eq!(out.accepted, batch.len(), "every reading is admitted");
        log.extend(batch.iter().map(|r| (r.sensor, r.time)));
    }
    drop(collector);
    std::fs::remove_dir_all(&dir).ok();
    let texts = ledger.0.lock().expect("ledger lock");
    let bytes = texts.iter().map(String::len).sum();
    let (named, by_value) = texts
        .iter()
        .map(|t| naming(t, &log))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    (bytes, texts.len(), named, by_value)
}

/// The restore-point ledger: per shape, bytes a commit and a reading,
/// readings named by position and by value — asserted exactly, with
/// the figures of the layout that copied every buffered reading by
/// value beside them (recorded under pipeline layout v4, as were this
/// layout's 8 883.062 5 and 41 121.395 B a commit before v5's `0`
/// cells).
#[test]
fn restore_point_bytes_of_the_ingest_stream() {
    let batches = batches();
    let readings: usize = batches.iter().map(Vec::len).sum();
    // (shape, retention, then per layout: bytes a commit, bytes a
    // reading, named by position, by value), the older layout first.
    type Row = (f64, f64, usize, usize);
    let shapes: [(&str, Option<u64>, Row, Row); 2] = [
        (
            "no retention",
            None,
            (160_685.625, 19.085, 0, 49_775),
            (6_836.5, 0.811_99, 49_775, 0),
        ),
        (
            "64 KiB budget",
            Some(64 << 10),
            (161_125.994, 193.766, 0, 505_468),
            (39_089.080, 47.007_53, 398_657, 106_811),
        ),
    ];
    println!("restore-point ledger: {readings} readings, a restore point every 8 192");
    let mut measured = Vec::new();
    for (shape, retain, older, pinned) in shapes {
        let (bytes, commits, named, by_value) = restore_points(&batches, retain);
        let row: Row = (
            bytes as f64 / commits as f64,
            bytes as f64 / readings as f64,
            named,
            by_value,
        );
        println!(
            "  {shape}: {commits} commits, {:.3} B a commit, {:.3} B a reading, \
             {named} named by position, {by_value} by value \
             (every reading by value: {:.3} B a commit, {:.3} B a reading, {} by value)",
            row.0, row.1, older.0, older.1, older.3
        );
        measured.push((shape, row, pinned));
    }
    for (shape, row, pinned) in measured {
        assert!(
            (row.0 - pinned.0).abs() < 0.0005 && (row.1 - pinned.1).abs() < 0.00005,
            "{shape}: {row:?}, not {pinned:?}"
        );
        assert_eq!((row.2, row.3), (pinned.2, pinned.3), "{shape}");
    }
}
