//! The recovery end of the allocation budget. A reopen reads one
//! segment at a time and replays each frame as the scan verifies it,
//! out of one reused frame arena, so what [`Collector::open`] allocates
//! and holds follows the segments, not the readings; [`Wal::open`]
//! collects the same scan into one arena log sized once a segment from
//! the frame heads.
//!
//! Calls, over two logs of N and 2N readings, one segment each: the
//! scans must agree to within a few allocator calls, and the replays
//! may differ only by what the replayed windows themselves allocate —
//! the slope `admission_alloc.rs` holds the live path to — where a
//! vector a record (what the scan once made) put a whole N between them.
//!
//! Bytes, over two logs of N and 6N readings in 64 KiB segments (one
//! segment and four: ≈ 18 log bytes a reading): what a reopen holds
//! only while it runs (its peak above what the opened collector keeps)
//! may differ by less than a segment, where decoding the whole log
//! before replaying it put ≈ 48 bytes a reading between them.
//!
//! A counting `#[global_allocator]` (this test binary only) does the
//! measuring. A reopen of a large enough log replays on a worker thread
//! as well as its own, so the counts are the whole process's, and the
//! two tests take turns under [`SERIAL`].

use sentinet_gateway::{Collector, GatewayConfig, Wal};
use sentinet_sim::{SensorId, Timestamp};
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{process_allocations, process_live_bytes, Counting};

/// Held by each test for its whole run: process-wide counts see every
/// thread, the other test's included.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SAMPLE_PERIOD: u64 = 300;
/// Readings in the shorter log: a week of one sensor.
const N: u64 = 2016;

fn config(name: &str) -> (PathBuf, GatewayConfig) {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-recovery-alloc-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    let mut config = GatewayConfig::new(&dir);
    config.sample_period = SAMPLE_PERIOD;
    // A restore point's verification is not the scan or the replay.
    config.checkpoint_every = 0;
    (dir, config)
}

/// Writes a log of `n` readings of one sensor in 96-reading batches
/// through `config` and crashes.
fn write_log(config: &GatewayConfig, n: u64) {
    let (mut collector, _) = Collector::open(config.clone()).expect("fresh directory");
    for first in (0..n).step_by(96) {
        let readings: Vec<(Timestamp, Vec<f64>)> = (first..(first + 96).min(n))
            .map(|i| {
                let hour = (i / 12 % 24) as f64;
                (
                    SAMPLE_PERIOD * (i + 1),
                    vec![14.0 + hour / 4.0, 80.0 - hour],
                )
            })
            .collect();
        let out = collector
            .deliver_batch(SensorId(0), first, &readings)
            .expect("deliver");
        assert_eq!(out.accepted, readings.len());
    }
    drop(collector); // no finish: a crash
}

/// Writes a log of `n` readings in one segment and returns the
/// allocator calls of the bare scan and of the full reopen.
fn reopen_costs(name: &str, n: u64) -> (u64, u64) {
    let (dir, config) = config(name);
    write_log(&config, n);
    assert_eq!(
        fs::read_dir(&dir).expect("wal dir").count(),
        1,
        "one segment"
    );

    let (scan, opened) = process_allocations(|| Wal::open(config.wal.clone(), None));
    let (wal, log) = opened.expect("scan");
    assert_eq!(log.len() as u64, n);
    drop((wal, log));
    let (reopen, opened) = process_allocations(|| Collector::open(config));
    let (_, info) = opened.expect("reopen");
    assert_eq!(info.replayed, n);
    fs::remove_dir_all(&dir).ok();
    (scan, reopen)
}

#[test]
fn a_reopen_allocates_by_the_segment_not_by_the_reading() {
    let _serial = serial();
    let (scan_short, reopen_short) = reopen_costs("short", N);
    let (scan_long, reopen_long) = reopen_costs("long", 2 * N);
    assert!(
        scan_long <= scan_short + 4 && scan_short < 40,
        "Wal::open: {scan_short} allocator calls for {N} readings, {scan_long} for twice that"
    );
    // What is left scales with the windows the replay closes and the
    // histories they grow, exactly as on the live path (0.19 a reading
    // there; held to the same bar).
    let per_reading = (reopen_long as f64 - reopen_short as f64) / N as f64;
    assert!(
        per_reading < 0.21,
        "Collector::open: {per_reading:.3} allocations per extra replayed reading \
         ({N}: {reopen_short}, {}: {reopen_long})",
        2 * N
    );
}

/// Writes a log of `n` readings in 64 KiB segments and returns its
/// segment count and what the reopen did to the process's live bytes.
fn reopen_bytes(name: &str, n: u64) -> (usize, counting_alloc::LiveBytes) {
    let (dir, mut config) = config(name);
    config.wal.segment_max_bytes = SEGMENT;
    write_log(&config, n);
    let segments = fs::read_dir(&dir).expect("wal dir").count();
    let (bytes, opened) = process_live_bytes(|| Collector::open(config).expect("reopen"));
    assert_eq!(opened.1.replayed, n);
    drop(opened);
    fs::remove_dir_all(&dir).ok();
    (segments, bytes)
}

/// The segment size of the byte measurement.
const SEGMENT: u64 = 64 << 10;

#[test]
fn a_reopen_holds_a_segment_not_the_log() {
    let _serial = serial();
    let (segments_short, short) = reopen_bytes("bytes-short", N);
    let (segments_long, long) = reopen_bytes("bytes-long", 6 * N);
    assert!(
        segments_short == 1 && segments_long > 3,
        "{segments_short} and {segments_long} segments"
    );
    let grown = long.transient() - short.transient();
    assert!(
        grown < SEGMENT as i64,
        "Collector::open held {} bytes beyond what it kept for {N} readings, \
         {} for {} ({grown} more; a segment is {SEGMENT})",
        short.transient(),
        long.transient(),
        6 * N
    );
}
