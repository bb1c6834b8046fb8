//! Holds the v2 admission path to its claim that no reading is a heap
//! object between the wire and the window: a counting
//! `#[global_allocator]` (this test binary only) measures the allocator
//! calls one `DataBatch` frame costs from wire bytes to the detection
//! pipeline, through [`StepServer`] — the same `FrameBuffer::next_frame`
//! decode, `protocol::Core::on_batch` arm and `Collector` admission the
//! socket server runs — on a warm collector.
//!
//! A frame is decoded into one values arena (two allocations, sized
//! from what the payload can back); admission borrows slices of it for
//! the dedup pass and the WAL encoder, and hands the fresh prefix to
//! the reorder buffer as one run. The buffer copies each admitted slice
//! onto its sensor's slab — grown once, then reused as the head moves —
//! and lends each released one to the sanitizer and the window, which
//! read it where it lies. So a frame of N readings costs a handful of
//! allocations for itself and, per reading, only what the windows it
//! closes and the per-sensor histories cost — measured here as the
//! slope between a 96-reading and a 192-reading frame, which cancels
//! the per-frame part. (One `Vec<f64>` a reading, moved rather than
//! cloned from decode to window, measured 1.19; cloning at each
//! hand-off, 3.2.)
//!
//! The restore point's stage — the collector's snapshot value, taken on
//! the event loop — copies the slabs flat: its allocator calls do not
//! grow with the readings the buffer holds.
//!
//! Counts are per thread, so the harness running the tests of this file
//! side by side does not disturb them.

use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    AckDiscipline, Collector, FsyncPolicy, GatewayConfig, Message, StepEvent, StepServer,
    PROTOCOL_VERSION,
};
use sentinet_sim::{SensorId, Timestamp};
use std::fs;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SAMPLE_PERIOD: u64 = 300;
/// Readings the reorder buffer holds back behind its watermark: deep
/// enough that a node-based buffer would be allocating and freeing
/// nodes as the stream passes through it (the `BTreeMap` this replaced
/// measured 1.33 per reading here), under the default per-sensor
/// capacity of 64 so nothing is shed.
const HELD: u64 = 48;

/// The wire bytes of one frame of `n` consecutive readings of sensor 0.
fn frame(first_seq: u64, n: u64) -> Vec<u8> {
    encode_frame(&Message::DataBatch {
        sensor: SensorId(0),
        first_seq,
        readings: (first_seq..first_seq + n)
            .map(|i| {
                let hour = (i / 12 % 24) as f64;
                (
                    SAMPLE_PERIOD * (i + 1),
                    vec![14.0 + hour / 4.0, 80.0 - hour],
                )
            })
            .collect(),
    })
}

#[test]
fn an_admitted_v2_reading_allocates_nothing_of_its_own() {
    let dir = std::env::temp_dir().join(format!("sentinet-admit-alloc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut config = GatewayConfig::new(&dir);
    config.sample_period = SAMPLE_PERIOD;
    // Durable policy, so the frame takes the deferred-sync arm the
    // server takes; checkpoints off (a snapshot encode is not
    // admission).
    config.wal.fsync = FsyncPolicy::Batch(64);
    config.checkpoint_every = 0;
    config.reorder.watermark_delay = HELD * SAMPLE_PERIOD;
    let (collector, _) = Collector::open(config).expect("open");
    let mut server = StepServer::new(collector, 4, AckDiscipline::Durable);
    let conn = server.connect();
    server.feed(
        conn,
        &encode_frame(&Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: 0,
        }),
    );
    server.step(conn).expect("hello");

    // Admits one frame and returns what it cost. The cost is counted
    // from the feed on, so the decode's allocations are in it.
    let mut next_seq = 0u64;
    let mut admit = |server: &mut StepServer, n: u64| -> u64 {
        let bytes = frame(next_seq, n);
        next_seq += n;
        let (calls, event) = allocations(|| {
            server.feed(conn, &bytes);
            server.step(conn).expect("step")
        });
        assert!(matches!(event, StepEvent::Replies(_)), "{event:?}");
        server.commit().expect("commit");
        calls
    };

    // Warm up: two days of readings size every buffer, history and
    // window the steady state reuses.
    for _ in 0..6 {
        admit(&mut server, 96);
    }
    // Whole hours in both frames, so the windows they close (two
    // allocations each, `core/tests/steady_state_alloc.rs`) scale with
    // the frame like the readings do.
    let short = admit(&mut server, 96);
    let long = admit(&mut server, 192);
    let per_reading = (long - short) as f64 / 96.0;
    // 2/12 for the hourly window close and what the per-sensor
    // histories grow by, amortised (ROADMAP item 2's, not admission's):
    // 0.19 as measured, held to that plus 10 %. Decode, dedup, the WAL
    // encoder, the reorder queues and the sanitizer add nothing per
    // reading.
    assert!(
        per_reading < 0.21,
        "{per_reading:.3} allocations per admitted reading (96: {short}, 192: {long})"
    );
    // And the frame itself is cheap: its arena, the fresh-prefix list,
    // the reply list — not a vector a reading.
    assert!(
        short < 96 / 2,
        "{short} allocator calls for a 96-reading frame"
    );
    assert_eq!(
        server.collector().ingest_report().accepted as u64 + HELD,
        next_seq,
        "every reading but the ones the watermark still holds was admitted"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A restore point's stage with N and with 2N readings held in the
/// reorder buffer: the same allocator calls, give or take a doubling
/// of the flat buffers — where a vector a buffered reading cost N more.
#[test]
fn staging_a_restore_point_costs_the_same_for_twice_the_backlog() {
    let stage_with = |held: u64| -> u64 {
        let dir = std::env::temp_dir().join(format!(
            "sentinet-stage-alloc-{held}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(&dir);
        config.sample_period = SAMPLE_PERIOD;
        config.wal.fsync = FsyncPolicy::Never;
        config.checkpoint_every = 0;
        config.reorder.watermark_delay = held * SAMPLE_PERIOD;
        config.reorder.per_sensor_capacity = 4 * held as usize;
        let (mut collector, _) = Collector::open(config).expect("open");
        // Two days of two sensors, then as many more readings as are
        // held: both pipelines end having released the same two days.
        for sensor in [SensorId(0), SensorId(1)] {
            let readings: Vec<(Timestamp, Vec<f64>)> = (0..576 + held)
                .map(|i| (SAMPLE_PERIOD * (i + 1), vec![14.0 + (i % 7) as f64, 80.0]))
                .collect();
            collector
                .deliver_batch(sensor, 0, &readings)
                .expect("deliver");
        }
        let (calls, snapshot) = allocations(|| collector.snapshot());
        assert_eq!(snapshot.reorder.buffer.len() as u64, 2 * held);
        drop(collector);
        fs::remove_dir_all(&dir).ok();
        calls
    };
    let (n, twice) = (stage_with(HELD), stage_with(2 * HELD));
    assert!(
        n.abs_diff(twice) <= 2,
        "{n} allocator calls with {} readings held, {twice} with {}",
        2 * HELD,
        4 * HELD
    );
}
