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

use proptest::prelude::*;
use proptest::TestRng;
use seeded::Replay;
use sentinet_gateway::frame::{encode_frame, frame_payload};
use sentinet_gateway::{
    Collector, GatewayConfig, Message, Placement, RunPlanner, Wal, WalConfig, WalRecord,
    CHECKPOINT_FILE, MAX_BATCH_READINGS,
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

/// Arbitrary batches over a few sensors; values include NaN, ±∞ and
/// subnormals so "bit-exact" means exactly that.
fn batches() -> impl Strategy<Value = Vec<WalRecord>> {
    prop::collection::vec(
        (
            0u16..4,
            0u64..1_000,
            0u64..100_000,
            prop::collection::vec(
                prop::sample::select(vec![
                    0.0,
                    -0.0,
                    21.5,
                    -3.25,
                    1e300,
                    f64::MIN_POSITIVE,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ]),
                1..4,
            ),
        ),
        1..24,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(sensor, seq, time, values)| WalRecord {
                sensor: SensorId(sensor),
                seq,
                time,
                values,
            })
            .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn roundtrip_is_bit_exact(records in batches()) {
        let (dir, _, _) = write_wal("roundtrip", &records);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).expect("reopen");
        prop_assert_eq!(recovered.len(), records.len());
        for (r, o) in recovered.to_records().iter().zip(&records) {
            prop_assert!(same_record(r, o), "roundtrip corrupted a record");
        }
        fs::remove_dir_all(&dir).ok();
    }

    fn torn_tail_at_every_offset_recovers_prefix(records in batches()) {
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
            prop_assert_eq!(
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

    fn single_bit_flip_never_corrupts_recovery(
        records in batches(),
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let (dir, segment, sizes) = write_wal("flip", &records);
        let mut bytes = fs::read(&segment).expect("read segment");
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        fs::write(&segment, &bytes).expect("write flipped segment");

        // The flipped byte lives inside this record index.
        let victim = sizes.iter().position(|&end| (pos as u64) < end).unwrap();

        match Wal::open(WalConfig::new(&dir), None) {
            Ok((_, recovered)) => {
                // Treated as a torn tail: everything from the damaged
                // frame on is dropped, nothing before it is altered.
                prop_assert!(
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
        plan.push(r.sensor, r.seq, r.values.len());
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

/// The `crash_after` coordinate: a planner that knows the process dies
/// after N more records projects exactly what appending the first N
/// writes — the frame is cut at the coordinate, and nothing past it
/// costs a byte. (The abort itself is driven end to end by the CLI's
/// `gateway_crash` suite; in-process it would take the test with it.)
#[test]
fn the_crash_coordinate_cuts_the_frame_where_the_abort_lands() {
    replay("the_crash_coordinate_cuts_the_frame_where_the_abort_lands").for_each_seed(24, |seed| {
        let mut rng = TestRng::new(seed);
        let size = rng.usize_in(2, 40);
        let records = extent(&mut rng, 0, size);
        let segment_max = 64u64 << rng.usize_in(0, 8);
        for coordinate in 1..=records.len() {
            let doomed = tmpdir("crash-plan");
            let mut config = WalConfig::new(&doomed);
            config.segment_max_bytes = segment_max;
            config.crash_after = Some(coordinate as u64);
            let (wal, _) = Wal::open(config, None).map_err(|e| e.to_string())?;
            let mut plan = wal.planner();
            let placed: Vec<Placement> = records
                .iter()
                .map(|r| plan.push(r.sensor, r.seq, r.values.len()))
                .collect();
            let unwritten = placed.iter().filter(|&&p| p == Placement::Unwritten).count();
            if unwritten != records.len() - coordinate
                || placed[..coordinate].contains(&Placement::Unwritten)
            {
                return Err(format!("coordinate {coordinate}: placements {placed:?}"));
            }
            drop(wal);

            let dir = tmpdir("crash-disk");
            let mut config = WalConfig::new(&dir);
            config.segment_max_bytes = segment_max;
            let (mut survivor, _) = Wal::open(config, None).map_err(|e| e.to_string())?;
            survivor
                .append_many(&records[..coordinate])
                .map_err(|e| e.to_string())?;
            if plan.bytes() != survivor.total_bytes() || plan.bytes() != dir_bytes(&dir) {
                return Err(format!(
                    "coordinate {coordinate}: projected {} bytes, the first {coordinate} records take {}",
                    plan.bytes(),
                    survivor.total_bytes()
                ));
            }
            fs::remove_dir_all(&doomed).ok();
            fs::remove_dir_all(&dir).ok();
        }
        Ok(())
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
    // 17 full frames and a remainder, 26 bytes a reading inside them.
    let frames = 70_000usize.div_ceil(MAX_BATCH_READINGS) as u64;
    assert_eq!(projected, 70_000 * 26 + frames * 21);
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
