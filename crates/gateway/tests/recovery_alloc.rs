//! The recovery end of the allocation budget: a reopen scans every
//! segment into one arena log and replays borrowed records out of it,
//! so what [`Wal::open`] and [`Collector::open`] allocate follows the
//! number of segments, not the number of readings. Measured over two
//! logs of N and 2N readings, one segment each: the scans must agree
//! to within a few allocator calls (the log's three vectors are sized
//! once from the frame heads, whatever they hold), and the replays may
//! differ only by what the replayed windows themselves allocate — the
//! slope `admission_alloc.rs` holds the live path to — where a vector a
//! record (what the scan used to make) put a whole N between them.
//!
//! A counting `#[global_allocator]` (this test binary only) does the
//! measuring; counts are per thread.

use sentinet_gateway::{Collector, GatewayConfig, Wal};
use sentinet_sim::{SensorId, Timestamp};
use std::fs;
use std::path::PathBuf;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

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

/// Writes a log of `n` readings of one sensor in 96-reading batches and
/// returns the allocator calls of the bare scan and of the full reopen.
fn reopen_costs(name: &str, n: u64) -> (u64, u64) {
    let (dir, config) = config(name);
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
    assert_eq!(
        fs::read_dir(&dir).expect("wal dir").count(),
        1,
        "one segment"
    );

    let (scan, opened) = allocations(|| Wal::open(config.wal.clone(), None));
    let (wal, log) = opened.expect("scan");
    assert_eq!(log.len() as u64, n);
    drop((wal, log));
    let (reopen, opened) = allocations(|| Collector::open(config));
    let (_, info) = opened.expect("reopen");
    assert_eq!(info.replayed, n);
    fs::remove_dir_all(&dir).ok();
    (scan, reopen)
}

#[test]
fn a_reopen_allocates_by_the_segment_not_by_the_reading() {
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
