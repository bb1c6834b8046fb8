//! Holds the v2 admission path to its "move, don't clone" claim: a
//! counting `#[global_allocator]` (this test binary only) measures the
//! allocator calls one `DataBatch` frame costs from wire bytes to the
//! detection pipeline, through [`StepServer`] — the same
//! `protocol::Core` arm and `Collector` admission the socket server
//! runs — on a warm collector.
//!
//! A decoded reading owns one `Vec<f64>`; admission must carry that one
//! allocation through the WAL record, the reorder buffer and the
//! sanitizer instead of copying it at each hand-off (which is what it
//! did: one copy into the WAL record, one more out of it). So a frame
//! of N readings may cost N allocations for the decode plus a small
//! per-frame and per-closed-window remainder — measured here as the
//! slope between a 96-reading and a 192-reading frame, which cancels
//! the per-frame part.
//!
//! Counts are per thread, so the harness running the tests of this file
//! side by side does not disturb them.

use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    AckDiscipline, Collector, FsyncPolicy, GatewayConfig, Message, StepEvent, StepServer,
    PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
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
fn an_admitted_v2_reading_keeps_the_allocation_its_decode_made() {
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
    // 1 for the decode's `Vec<f64>`, 2/12 for the hourly window close,
    // and what the per-sensor histories grow by, amortised: 1.19 as
    // measured, held to that plus 10 %. The reorder queues add nothing
    // (a record moves in and out of a ring that is already at its
    // working size). The cloning path measured 3.2 here.
    assert!(
        per_reading < 1.31,
        "{per_reading:.3} allocations per admitted reading (96: {short}, 192: {long})"
    );
    assert_eq!(
        server.collector().ingest_report().accepted as u64 + HELD,
        next_seq,
        "every reading but the ones the watermark still holds was admitted"
    );
    fs::remove_dir_all(&dir).ok();
}
