//! Property tests for the WAL codec: arbitrary record batches
//! round-trip bit-exactly, a torn tail cut at *every* byte offset of
//! the final record recovers exactly the preceding prefix, and a
//! single flipped bit anywhere in a segment can never smuggle a
//! corrupted record into recovery — the log either truncates cleanly
//! before the damage or refuses to open.
//!
//! Below those, the frame-granular properties: what [`RunPlanner`]
//! projects for an extent is what `append_many` writes and what the
//! directory holds, over seeded extents and segment sizes; a reopen
//! returns the records and the bookkeeping the writer had; a tear at
//! every byte costs exactly the frames it touches; and a directory as
//! an older binary leaves it — one `Data` frame a record, batches
//! included — reopens, verifies its checkpoint and continues.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;
mod support;

use seeded::{Replay, TestRng, BIT_EXACT_POOL};
use sentinet_gateway::frame::{encode_frame, frame_payload};
use sentinet_gateway::{
    Collector, GatewayConfig, Message, RunPlanner, Wal, WalConfig, WalRecord, CHECKPOINT_FILE,
    MAX_BATCH_READINGS,
};
use sentinet_sim::SensorId;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use support::frame_ends;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-wal-props-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Bit-exact record equality (`PartialEq` would lose NaN payloads).
fn same_record(a: &WalRecord, b: &WalRecord) -> bool {
    a.sensor == b.sensor
        && a.seq == b.seq
        && a.time == b.time
        && a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_prefix(recovered: &[WalRecord], original: &[WalRecord]) {
    assert!(
        recovered.len() <= original.len(),
        "recovered more than written"
    );
    for (i, (r, o)) in recovered.iter().zip(original).enumerate() {
        assert!(same_record(r, o), "record {i} corrupted in recovery");
    }
}

/// Arbitrary batches over a few sensors, values from
/// [`BIT_EXACT_POOL`].
fn batch(rng: &mut TestRng) -> Vec<WalRecord> {
    rng.vec(1..24, |r| WalRecord {
        sensor: SensorId(r.range(0u16..4)),
        seq: r.range(0u64..1_000),
        time: r.range(0u64..100_000),
        values: r.vec(1..4, |r| r.pick(&BIT_EXACT_POOL)),
    })
}

/// Writes `records` into a fresh single-segment WAL and returns the
/// directory plus the segment size after each append (so tests can
/// locate record boundaries without re-deriving the wire format).
fn write_wal(name: &str, records: &[WalRecord]) -> (PathBuf, PathBuf, Vec<u64>) {
    let dir = tmpdir(name);
    let (mut wal, recovered) = Wal::open(WalConfig::new(&dir), None).expect("open fresh wal");
    assert!(recovered.is_empty());
    let segment = dir.join("wal-00000001.seg");
    let mut sizes = Vec::with_capacity(records.len());
    for record in records {
        wal.append(record).expect("append");
        sizes.push(fs::metadata(&segment).expect("segment exists").len());
    }
    drop(wal);
    (dir, segment, sizes)
}

seeded::properties! {
    var: "WAL_PROPS_SEED", package: "sentinet-gateway", target: "--test wal_props", cases: 48;

    fn roundtrip_is_bit_exact(rng) {
        let records = batch(rng);
        let (dir, _, _) = write_wal("roundtrip", &records);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).expect("reopen");
        assert_eq!(recovered.len(), records.len());
        for (r, o) in recovered.to_records().iter().zip(&records) {
            assert!(same_record(r, o), "roundtrip corrupted a record");
        }
        fs::remove_dir_all(&dir).ok();
    }

    fn torn_tail_at_every_offset_recovers_prefix(rng) {
        let records = batch(rng);
        // Reference write to learn where the final record begins/ends.
        let (dir, segment, sizes) = write_wal("torn-ref", &records);
        let last_start = if sizes.len() >= 2 { sizes[sizes.len() - 2] } else { 0 };
        let last_end = *sizes.last().unwrap();
        let template = fs::read(&segment).expect("read segment");
        fs::remove_dir_all(&dir).ok();

        for cut in last_start..last_end {
            let dir = tmpdir("torn-cut");
            fs::create_dir_all(&dir).expect("mkdir");
            fs::write(dir.join("wal-00000001.seg"), &template[..cut as usize])
                .expect("write truncated segment");
            let (wal, recovered) = Wal::open(WalConfig::new(&dir), None).expect("torn tail must open");
            assert_eq!(
                recovered.len(),
                records.len() - 1,
                "cut at {} must lose exactly the final record",
                cut
            );
            assert_prefix(&recovered.to_records(), &records);
            // The truncated log must keep accepting appends.
            drop(wal);
            fs::remove_dir_all(&dir).ok();
        }
    }

    fn single_bit_flip_never_corrupts_recovery(rng) {
        let records = batch(rng);
        let (dir, segment, sizes) = write_wal("flip", &records);
        let mut bytes = fs::read(&segment).expect("read segment");
        let pos = rng.range(0usize..1_000_000) % bytes.len();
        bytes[pos] ^= 1 << rng.range(0u8..8);
        fs::write(&segment, &bytes).expect("write flipped segment");

        // The flipped byte lives inside this record index.
        let victim = sizes.iter().position(|&end| (pos as u64) < end).unwrap();

        match Wal::open(WalConfig::new(&dir), None) {
            Ok((_, recovered)) => {
                // Treated as a torn tail: everything from the damaged
                // frame on is dropped, nothing before it is altered.
                assert!(
                    recovered.len() <= victim,
                    "flip at byte {} (record {}) survived: recovered {}",
                    pos, victim, recovered.len()
                );
                assert_prefix(&recovered.to_records(), &records);
            }
            Err(_) => {
                // Refusing to open is also safe — just never silent
                // acceptance of altered data.
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}

fn replay(test: &'static str) -> Replay {
    Replay {
        var: "WAL_PROPS_SEED",
        package: "sentinet-gateway",
        target: "--test wal_props",
        test,
    }
}

/// A seeded extent: runs of one sensor's consecutive seqs (lengths
/// skewed short, now and then thousands), lone readings of other
/// sensors between them, the occasional seq gap inside a run (what
/// dedup leaves in a batch's fresh prefix), one to three values each.
fn extent(rng: &mut TestRng, first_seq: u64, budget: usize) -> Vec<WalRecord> {
    let mut out = Vec::new();
    let mut next = [first_seq; 4];
    while out.len() < budget {
        let sensor = rng.usize_in(0, 4);
        let run = match rng.usize_in(0, 8) {
            0..=2 => 1,
            3..=5 => rng.usize_in(2, 40),
            6 => rng.usize_in(200, 600),
            _ => rng.usize_in(1_000, 5_001),
        };
        let dims = rng.usize_in(1, 4);
        for _ in 0..run.min(budget - out.len()) {
            if rng.usize_in(0, 50) == 0 {
                next[sensor] += rng.usize_in(1, 4) as u64; // a hole
            }
            // Mostly a steady width; a ragged reading now and then.
            let dims = if rng.usize_in(0, 20) == 0 {
                rng.usize_in(1, 4)
            } else {
                dims
            };
            let seq = next[sensor];
            next[sensor] += 1;
            out.push(WalRecord {
                sensor: SensorId(sensor as u16),
                seq,
                time: 300 * (seq + 1),
                values: (0..dims).map(|d| seq as f64 + d as f64 / 8.0).collect(),
            });
        }
    }
    out
}

/// Pushes `records` through `plan`; the bytes it projects for them.
fn project(mut plan: RunPlanner, records: &[WalRecord]) -> u64 {
    for r in records {
        plan.push(r.sensor, r.seq, r.time, r.values.len());
    }
    plan.bytes()
}

/// Bytes of every `.seg` file in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .expect("wal directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .map(|p| fs::metadata(p).expect("segment").len())
        .sum()
}

fn assert_same(recovered: &[WalRecord], original: &[WalRecord]) -> Result<(), String> {
    if recovered.len() != original.len() {
        return Err(format!(
            "recovered {} records of {}",
            recovered.len(),
            original.len()
        ));
    }
    match recovered
        .iter()
        .zip(original)
        .position(|(r, o)| !same_record(r, o))
    {
        Some(i) => Err(format!("record {i} came back different")),
        None => Ok(()),
    }
}

/// Planner = projection = disk, on a log that already holds an extent
/// (so the second one starts mid-segment), then the reopen.
#[test]
fn planned_bytes_are_written_bytes_are_directory_bytes() {
    replay("planned_bytes_are_written_bytes_are_directory_bytes").for_each_seed(48, |seed| {
        let mut rng = TestRng::new(seed);
        // From "one reading" to the 4 MiB default, log-uniform.
        let segment_max = 40u64 << rng.usize_in(0, 18);
        let small = rng.usize_in(0, 3) > 0;
        let size = if small { rng.usize_in(1, 120) } else { rng.usize_in(500, 9_000) };
        let dir = tmpdir("planned");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = segment_max;
        let (mut wal, _) = Wal::open(config.clone(), None).map_err(|e| e.to_string())?;
        let mut all = Vec::new();
        for round in 0..2u64 {
            let records = extent(&mut rng, 10_000 * round, size);
            let projected = project(wal.planner(), &records);
            let before = wal.total_bytes();
            wal.append_many(&records).map_err(|e| e.to_string())?;
            let wrote = wal.total_bytes() - before;
            if projected != wrote {
                return Err(format!(
                    "extent {round} ({} records, segments of {segment_max}): projected {projected} bytes, wrote {wrote}",
                    records.len()
                ));
            }
            all.extend(records);
        }
        if dir_bytes(&dir) != wal.total_bytes() {
            return Err(format!(
                "directory holds {} bytes, the log counts {}",
                dir_bytes(&dir),
                wal.total_bytes()
            ));
        }
        let (logged, segments) = (wal.records_logged(), wal.segments().to_vec());
        drop(wal);
        for bytes in segments.iter().map(|s| fs::read(dir.join(format!("wal-{:08}.seg", s.index)))) {
            let bytes = bytes.map_err(|e| e.to_string())?;
            if bytes.len() as u64 > segment_max && frame_ends(&bytes).len() != 1 {
                return Err("only a lone frame may overfill a segment".into());
            }
            if let Some((_, n)) = frame_ends(&bytes).iter().find(|f| f.1 > MAX_BATCH_READINGS) {
                return Err(format!("a frame of {n} readings"));
            }
        }
        let (wal, recovered) = Wal::open(config, None).map_err(|e| e.to_string())?;
        assert_same(&recovered.to_records(), &all)?;
        if wal.records_logged() != logged || wal.segments() != segments {
            return Err(format!(
                "reopened bookkeeping {:?} differs from the writer's {segments:?}",
                wal.segments()
            ));
        }
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    });
}

/// Frame-granular recovery: cut the last segment at *every* byte and
/// exactly the records of the frames that end at or before the cut
/// come back, the file is truncated to the last such frame, and the
/// log keeps appending.
#[test]
fn a_tear_at_every_byte_costs_exactly_the_frames_it_touches() {
    replay("a_tear_at_every_byte_costs_exactly_the_frames_it_touches").for_each_seed(12, |seed| {
        let mut rng = TestRng::new(seed);
        let size = rng.usize_in(3, 30);
        let records = extent(&mut rng, 0, size);
        let dir = tmpdir("tear");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 200u64 << rng.usize_in(0, 4);
        let (mut wal, _) = Wal::open(config.clone(), None).map_err(|e| e.to_string())?;
        wal.append_many(&records).map_err(|e| e.to_string())?;
        let last = *wal.segments().last().expect("active segment");
        drop(wal);
        let path = dir.join(format!("wal-{:08}.seg", last.index));
        let template = fs::read(&path).map_err(|e| e.to_string())?;
        let sealed = records.len() - last.records as usize;
        let ends = frame_ends(&template);
        for cut in 0..=template.len() {
            fs::write(&path, &template[..cut]).map_err(|e| e.to_string())?;
            let (mut wal, recovered) =
                Wal::open(config.clone(), None).map_err(|e| format!("cut at {cut}: {e}"))?;
            let whole: Vec<&(usize, usize)> = ends.iter().take_while(|f| f.0 <= cut).collect();
            let kept = sealed + whole.iter().map(|f| f.1).sum::<usize>();
            assert_same(&recovered.to_records(), &records[..kept])
                .map_err(|why| format!("cut at {cut}: {why}"))?;
            let clean = whole.last().map_or(0, |f| f.0) as u64;
            if fs::metadata(&path).map_err(|e| e.to_string())?.len() != clean {
                return Err(format!(
                    "cut at {cut}: the tail was not truncated to byte {clean}"
                ));
            }
            // The redelivered suffix lands and the log is whole again.
            wal.append_many(&records[kept..])
                .map_err(|e| e.to_string())?;
            drop(wal);
            let (_, again) = Wal::open(config.clone(), None).map_err(|e| e.to_string())?;
            assert_same(&again.to_records(), &records)
                .map_err(|why| format!("after cut at {cut}: {why}"))?;
            // Back to the template for the next cut (the redelivery may
            // have rolled into a later segment).
            for extra in last.index + 1.. {
                if fs::remove_file(dir.join(format!("wal-{extra:08}.seg"))).is_err() {
                    break;
                }
            }
        }
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    });
}

/// Values a log run must carry bit-exactly: the shared pool, NaNs with
/// payloads of both signs, and subnormals.
const STEP_POOL_VALUES: [f64; 4] = [
    f64::from_bits(0x7FF8_0000_0000_0001),
    f64::from_bits(0xFFF4_0000_0000_0ABC),
    5e-324,
    -2.2e-310,
];

/// Time steps a log run must price and round-trip: every varint length
/// from one byte to ten, either way across each boundary, and the two
/// extremes.
const STEPS: [i64; 18] = [
    0,
    1,
    -1,
    63,
    64,
    -64,
    -65,
    300,
    8_191,
    8_192,
    -8_193,
    1 << 20,
    -(1 << 20),
    1 << 27,
    1 << 40,
    -(1 << 55),
    i64::MAX,
    i64::MIN,
];

/// A seeded extent of runs over `sensors` sensors whose times walk
/// [`STEPS`] — backwards, across every varint length, wrapping past 0
/// and `u64::MAX` — with now and then a jump to exactly 0 or
/// `u64::MAX`, lone readings of other sensors between the runs, and now
/// and then a value count changing inside a run.
fn stepped_extent(rng: &mut TestRng, budget: usize, sensors: usize) -> Vec<WalRecord> {
    let mut out = Vec::new();
    let mut next = vec![0u64; sensors];
    let mut time = rng.next_u64();
    let pool: Vec<f64> = BIT_EXACT_POOL
        .iter()
        .chain(&STEP_POOL_VALUES)
        .copied()
        .collect();
    while out.len() < budget {
        let sensor = rng.usize_in(0, sensors);
        let run = rng.usize_in(1, 60).min(budget - out.len());
        let mut dims = rng.usize_in(1, 4);
        for _ in 0..run {
            time = match rng.usize_in(0, 12) {
                0 => 0,
                1 => u64::MAX,
                _ => time.wrapping_add(rng.pick(&STEPS) as u64),
            };
            if rng.usize_in(0, 10) == 0 {
                dims = rng.usize_in(1, 4);
            }
            let seq = next[sensor];
            next[sensor] += 1;
            out.push(WalRecord {
                sensor: SensorId(sensor as u16),
                seq,
                time,
                values: (0..dims).map(|_| rng.pick(&pool)).collect(),
            });
        }
    }
    out
}

/// One sensor's readings for a collector, whose window pass visits
/// every window up to the newest reading: time stays within a few
/// hundred windows of `u64::MAX` from the first reading on and reaches
/// it, while readings at 0 or anywhere below arrive late — so the steps still cross every varint
/// length both ways, ten bytes included. Value counts change now and
/// then.
fn collector_steps(rng: &mut TestRng, size: usize) -> Vec<WalRecord> {
    let pool: Vec<f64> = BIT_EXACT_POOL
        .iter()
        .chain(&STEP_POOL_VALUES)
        .copied()
        .collect();
    let mut high = u64::MAX - 2_000_000;
    let mut dims = rng.usize_in(1, 4);
    (0..size as u64)
        .map(|seq| {
            // The first reading opens the window pass up high.
            let time = match rng.usize_in(0, 10) {
                _ if seq == 0 => high,
                0 => 0,
                1 => rng.next_u64() % high,
                2 => u64::MAX,
                _ => {
                    high = high.saturating_add(rng.pick(&[0, 1, 63, 64, 300, 8_191, 8_192]));
                    high
                }
            };
            if rng.usize_in(0, 10) == 0 {
                dims = rng.usize_in(1, 4);
            }
            WalRecord {
                sensor: SensorId(0),
                seq,
                time,
                values: (0..dims).map(|_| rng.pick(&pool)).collect(),
            }
        })
        .collect()
}

/// Any time sequence round-trips through the log run bit for bit, and
/// the planner's price is what the append writes and what the
/// directory holds, over segment sizes from a frame to the default.
#[test]
fn any_time_steps_reopen_bit_exactly_and_price_as_written() {
    replay("any_time_steps_reopen_bit_exactly_and_price_as_written").for_each_seed(48, |seed| {
        let mut rng = TestRng::new(seed);
        let size = rng.usize_in(2, 400);
        let records = stepped_extent(&mut rng, size, 3);
        let dir = tmpdir("stepped");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 64u64 << rng.usize_in(0, 17);
        let (mut wal, _) = Wal::open(config.clone(), None).map_err(|e| e.to_string())?;
        let projected = project(wal.planner(), &records);
        wal.append_many(&records).map_err(|e| e.to_string())?;
        if projected != wal.total_bytes() || projected != dir_bytes(&dir) {
            return Err(format!(
                "projected {projected} bytes, wrote {}, the directory holds {}",
                wal.total_bytes(),
                dir_bytes(&dir)
            ));
        }
        drop(wal);
        let (_, recovered) = Wal::open(config, None).map_err(|e| e.to_string())?;
        assert_same(&recovered.to_records(), &records)?;
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    });
}

/// Admission's retention budget, set to what the planner prices a
/// prefix of a batch at, admits exactly that prefix and the log holds
/// exactly those bytes — whatever the batch's time steps and value
/// counts.
#[test]
fn the_budget_projection_is_what_lands_for_any_time_steps() {
    replay("the_budget_projection_is_what_lands_for_any_time_steps").for_each_seed(48, |seed| {
        let mut rng = TestRng::new(seed);
        let size = rng.usize_in(2, 120);
        let records = collector_steps(&mut rng, size);
        let readings: Vec<(u64, Vec<f64>)> =
            records.iter().map(|r| (r.time, r.values.clone())).collect();
        let kept = rng.usize_in(1, readings.len() + 1);
        let budget = project(RunPlanner::default(), &records[..kept]);
        let dir = tmpdir("stepped-budget");
        let mut config = GatewayConfig::new(&dir);
        config.checkpoint_every = 0;
        config.wal.retain_bytes = Some(budget);
        let (mut c, _) = Collector::open(config).map_err(|e| e.to_string())?;
        let out = c
            .deliver_batch(SensorId(0), 0, &readings)
            .map_err(|e| e.to_string())?;
        if out.accepted != kept || c.wal_footprint() != budget {
            return Err(format!(
                "a budget of {budget} bytes for {kept} of {} readings: {} accepted, {} bytes logged",
                readings.len(),
                out.accepted,
                c.wal_footprint()
            ));
        }
        drop(c);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).map_err(|e| e.to_string())?;
        assert_same(&recovered.to_records(), &records[..kept])?;
        fs::remove_dir_all(&dir).map_err(|e| e.to_string())
    });
}

/// 70 000 consecutive readings of one sensor in one `append_many`: cut
/// at the per-frame caps, not wrapped at the count field's `u16`.
#[test]
fn a_run_longer_than_any_frame_is_cut_at_the_cap() {
    let dir = tmpdir("long-run");
    let records: Vec<WalRecord> = (0..70_000u64)
        .map(|seq| WalRecord {
            sensor: SensorId(9),
            seq,
            time: 300 * (seq + 1),
            values: vec![seq as f64, -(seq as f64)],
        })
        .collect();
    let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).expect("fresh wal");
    let projected = project(wal.planner(), &records);
    wal.append_many(&records).expect("append");
    assert_eq!(wal.total_bytes(), projected);
    // 17 full frames and a remainder: 23 bytes a frame, 2 + 16 a
    // reading inside them, and two more for the first step of every
    // frame but the first (from 0 to 1 228 800 s on, a four-byte varint).
    let frames = 70_000usize.div_ceil(MAX_BATCH_READINGS) as u64;
    assert_eq!(projected, 70_000 * 18 + frames * 23 + (frames - 1) * 2);
    drop(wal);
    let bytes = fs::read(dir.join("wal-00000001.seg")).expect("one 4 MiB segment holds it");
    let cut: Vec<usize> = frame_ends(&bytes).iter().map(|f| f.1).collect();
    assert_eq!(cut.len() as u64, frames);
    assert!(cut[..cut.len() - 1]
        .iter()
        .all(|&n| n == MAX_BATCH_READINGS));
    let (wal, recovered) = Wal::open(WalConfig::new(&dir), None).expect("reopen");
    assert_eq!(wal.records_logged(), 70_000);
    assert_same(&recovered.to_records(), &records).unwrap();
    fs::remove_dir_all(&dir).ok();
}

/// The compatibility drill: a directory as the previous on-disk format
/// leaves it — every record its own `Data` frame, records that arrived
/// in batches included, plus the `checkpoint.ck` written along the way
/// — reopens with its checkpoint verified against the full log, takes
/// batch appends (new-format frames behind old-format ones, in one
/// segment), and reopens again to the report of an uninterrupted run.
#[test]
fn a_log_of_per_record_frames_reopens_and_continues() {
    /// One `DataBatch` worth of input: sensor, first seq, readings.
    type Batch = (SensorId, u64, Vec<(u64, Vec<f64>)>);
    let batches: Vec<Batch> = (0..12u64)
        .flat_map(|b| {
            (0..2u16).map(move |s| {
                let readings = (0..8u64)
                    .map(|i| {
                        let seq = 8 * b + i;
                        let v = 20.0 + (seq % 7) as f64 + f64::from(s);
                        (300 * (seq + 1), vec![v, v + 30.0])
                    })
                    .collect();
                (SensorId(s), 8 * b, readings)
            })
        })
        .collect();
    let config = |dir: &Path| {
        let mut c = GatewayConfig::new(dir);
        c.reorder.watermark_delay = 600;
        c.checkpoint_every = 32;
        c
    };
    let feed = |c: &mut Collector, part: &[Batch]| {
        for (sensor, first_seq, readings) in part {
            let out = c
                .deliver_batch(*sensor, *first_seq, readings)
                .expect("deliver");
            assert_eq!(out.accepted, readings.len());
        }
    };
    let (first, rest) = batches.split_at(14);

    let uninterrupted = tmpdir("compat-whole");
    let (mut c, _) = Collector::open(config(&uninterrupted)).unwrap();
    feed(&mut c, &batches);
    let expect = c.finish().unwrap();

    // What the first 14 batches leave today, re-framed as the older
    // binary framed it: the same records in the same order, one `Data`
    // frame each, beside the same checkpoint.
    let today = tmpdir("compat-today");
    let (mut c, _) = Collector::open(config(&today)).unwrap();
    feed(&mut c, first);
    drop(c);
    let (_, records) = Wal::open(WalConfig::new(&today), None).unwrap();
    assert_eq!(records.len(), 14 * 8);
    let old = tmpdir("compat-old");
    fs::create_dir_all(&old).unwrap();
    let mut segment = Vec::new();
    for r in &records.to_records() {
        let frame = encode_frame(&Message::Data {
            sensor: r.sensor,
            seq: r.seq,
            time: r.time,
            values: r.values.clone(),
        });
        frame_payload(&frame[4..frame.len() - 4], &mut segment);
    }
    assert_eq!(
        segment.len(),
        records.len() * 45,
        "45 bytes a reading, as before"
    );
    assert!(
        (segment.len() as u64) > dir_bytes(&today),
        "the same records take fewer bytes in batch frames"
    );
    fs::write(old.join("wal-00000001.seg"), &segment).unwrap();
    fs::copy(today.join(CHECKPOINT_FILE), old.join(CHECKPOINT_FILE)).unwrap();

    let (mut c, info) = Collector::open(config(&old)).expect("an old log opens");
    assert_eq!(info.replayed, 14 * 8);
    assert_eq!(
        info.verified_cursor,
        Some(96),
        "checkpoint verified in passing"
    );
    feed(&mut c, rest);
    drop(c); // no finish: a crash
    let mixed = fs::read(old.join("wal-00000001.seg")).unwrap();
    assert_eq!(mixed[..segment.len()], segment[..], "old frames untouched");
    let appended: Vec<usize> = frame_ends(&mixed[segment.len()..])
        .iter()
        .map(|f| f.1)
        .collect();
    assert_eq!(
        appended,
        vec![8; rest.len()],
        "one frame a batch behind them"
    );

    let (c, info) = Collector::open(config(&old)).expect("a mixed log opens");
    assert_eq!(info.replayed, 24 * 8);
    assert!(info.verified_cursor.is_some());
    let resumed = c.finish().unwrap();
    assert_eq!(
        format!("{}", expect.pipeline),
        format!("{}", resumed.pipeline)
    );
    assert_eq!(expect.ingest.accepted, resumed.ingest.accepted);
    assert_eq!(format!("{:?}", expect.plan), format!("{:?}", resumed.plan));
    for dir in [uninterrupted, today, old] {
        fs::remove_dir_all(&dir).ok();
    }
}

/// Upgrade in place. A log an older binary wrote — the committed
/// `v3_wal/full` fixture (a stop-and-wait client's stream, one `Data`
/// frame a reading) and a first half logged in the `DataBatch` frames
/// older binaries wrote batches in — reopens under this binary, takes
/// a further stream in batches (log runs behind the old frames, in the
/// same segment), and a reopen whose replay crosses that boundary
/// finishes with the report of a run that never stopped.
#[test]
fn an_older_binarys_log_is_appended_to_in_place() {
    const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v3_wal/full");
    /// The fixture's stream (`gateway_retention`'s), tick `i` of it.
    fn tick(i: u64) -> [(SensorId, u64, u64, Vec<f64>); 2] {
        [0u16, 1].map(|s| {
            let v = 20.0 + (i % 7) as f64 + f64::from(s);
            (SensorId(s), i, 300 * (i + 1), vec![v, v + 30.0])
        })
    }
    /// One `DataBatch` worth of input: sensor, first seq, readings.
    type Batch = (SensorId, u64, Vec<(u64, Vec<f64>)>);
    /// Ticks `from..to` as batches of eight readings a sensor.
    fn batches(from: u64, to: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        for first in (from..to).step_by(8) {
            for s in 0..2 {
                let readings = (first..first + 8).map(|i| {
                    let (_, _, time, values) = tick(i)[s].clone();
                    (time, values)
                });
                out.push((SensorId(s as u16), first, readings.collect()));
            }
        }
        out
    }
    let config = |dir: &Path| {
        let mut c = GatewayConfig::new(dir);
        c.reorder.watermark_delay = 600;
        c.checkpoint_every = 32;
        c
    };
    let feed = |c: &mut Collector, part: &[Batch]| {
        for (sensor, first_seq, readings) in part {
            let out = c
                .deliver_batch(*sensor, *first_seq, readings)
                .expect("deliver");
            assert_eq!(out.accepted, readings.len());
        }
    };
    let report = |c: Collector| {
        let run = c.finish().expect("finish");
        (
            format!("{}", run.pipeline),
            run.ingest.accepted,
            format!("{:?}", run.plan),
        )
    };
    let segment = |dir: &Path| fs::read(dir.join("wal-00000001.seg")).expect("segment");
    let rest = batches(120, 240);

    // The fixture: 240 `Data` frames beside a checkpoint at 224.
    let fixture = tmpdir("upgrade-fixture");
    fs::create_dir_all(&fixture).unwrap();
    for entry in fs::read_dir(FIXTURE).expect("fixture") {
        let entry = entry.unwrap();
        fs::copy(entry.path(), fixture.join(entry.file_name())).unwrap();
    }
    let old = segment(&fixture);
    assert!(
        frame_ends(&old).iter().all(|f| f.1 == 1),
        "one frame a reading"
    );
    let (_, log) = Wal::open(WalConfig::new(&fixture), None).unwrap();
    let straight = tmpdir("upgrade-fixture-straight");
    let (mut c, _) = Collector::open(config(&straight)).unwrap();
    for r in log.to_records() {
        c.deliver(r.sensor, r.seq, r.time, r.values).unwrap();
    }
    feed(&mut c, &rest);
    let want = report(c);

    // A first half in `DataBatch` frames: this binary's log of the same
    // batches, each run frame re-framed as an older binary framed it.
    let batched = tmpdir("upgrade-batched");
    let (mut c, _) = Collector::open(config(&batched)).unwrap();
    feed(&mut c, &batches(0, 120));
    drop(c);
    let (_, log) = Wal::open(WalConfig::new(&batched), None).unwrap();
    let records = log.to_records();
    let mut older = Vec::new();
    let mut at = 0;
    for (_, n) in frame_ends(&segment(&batched)) {
        let run = &records[at..at + n];
        at += n;
        older.extend(encode_frame(&Message::DataBatch {
            sensor: run[0].sensor,
            first_seq: run[0].seq,
            readings: run.iter().map(|r| (r.time, r.values.clone())).collect(),
        }));
    }
    assert_eq!(at, 240);
    assert!(frame_ends(&older).iter().all(|f| f.1 == 8));
    fs::write(batched.join("wal-00000001.seg"), &older).unwrap();
    let straight_batched = tmpdir("upgrade-batched-straight");
    let (mut c, _) = Collector::open(config(&straight_batched)).unwrap();
    feed(&mut c, &batches(0, 240));
    let want_batched = report(c);

    for (dir, old, want) in [(&fixture, &old, &want), (&batched, &older, &want_batched)] {
        let (mut c, info) = Collector::open(config(dir)).expect("an older log opens");
        assert_eq!(info.replayed, 240);
        assert!(
            info.verified_cursor.is_some(),
            "checkpoint verified in passing"
        );
        feed(&mut c, &rest);
        drop(c); // no finish: a crash
        let mixed = segment(dir);
        assert_eq!(mixed[..old.len()], old[..], "the old frames are untouched");
        let appended = &mixed[old.len()..];
        let frames = frame_ends(appended);
        assert_eq!(frames.len(), rest.len(), "one frame a batch behind them");
        let mut start = 0;
        for (end, n) in frames {
            assert_eq!((appended[start + 4], n), (16, 8), "a log run");
            start = end;
        }
        let (c, info) = Collector::open(config(dir)).expect("a mixed log opens");
        assert_eq!(info.replayed, 480);
        assert_eq!(&report(c), want);
    }
    for dir in [fixture, straight, batched, straight_batched] {
        fs::remove_dir_all(&dir).ok();
    }
}
