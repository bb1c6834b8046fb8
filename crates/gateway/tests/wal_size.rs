//! WAL size ledger: log bytes per reading of a fixed stream, in the
//! payload older binaries logged a batch in (the wire's `DataBatch`
//! frame, a lone reading's `Data` frame) and in the log's own run
//! payload, which the WAL writes now. The stream is the ingest
//! benchmark's: the Great Duck Island simulator, 10 sensors for 56
//! days at seed 42, cut into 256-reading batches a sensor in the order
//! a v2 uplink seals them, each batch one extent. The figure asserted
//! is the run payload's; the older one is printed beside it.
//!
//! CI prints the ledger: `cargo test --release -p sentinet-gateway
//! --test wal_size -- --nocapture`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{trace_to_raw, Message, Wal, WalConfig, WalRecord};
use sentinet_sim::{gdi, simulate, SensorId, DAY_S};
use std::collections::BTreeMap;

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
