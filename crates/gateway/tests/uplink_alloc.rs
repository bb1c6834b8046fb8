//! The client end of the allocation budget: in steady state
//! [`PipelinedUplink::send`] costs allocator calls per sealed frame,
//! not per reading. A reading is pushed into its sensor's open batch —
//! one values arena, emptied and refilled batch after batch — and the
//! seal encodes that arena straight into the one buffer that is the
//! frame. Measured as the cost of one whole batch (its sends, its seal,
//! the pump that puts it on the wire) at 96 and at 192 readings a
//! batch: the two must agree to within a couple of calls, where a
//! vector a reading (what `send` used to make) put 96 between them.
//!
//! A counting `#[global_allocator]` (this test binary only) does the
//! measuring; counts are per thread, so the scripted server on its own
//! thread does not disturb them.

use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    Frame, FrameBuffer, Message, PipelinedConfig, PipelinedUplink, PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Grants a window, acks every batch as it arrives, answers `Fin`.
/// Returns the readings it acknowledged.
fn acking_server(listener: TcpListener) -> u64 {
    let (mut stream, _) = listener.accept().expect("accept");
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 8192];
    let mut acked = 0u64;
    loop {
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "the client hung up before Fin");
        fb.feed(&buf[..n]);
        while let Some(frame) = fb.next_frame().expect("well-formed client frame") {
            let reply = match frame {
                Frame::Batch(sensor, first_seq, readings) => {
                    acked += readings.len() as u64;
                    Message::AckUpTo {
                        sensor,
                        seq: first_seq + readings.len() as u64 - 1,
                    }
                }
                Frame::Message(Message::Hello { .. }) => Message::HelloAck {
                    version: PROTOCOL_VERSION,
                    credits: 8,
                },
                Frame::Message(Message::Fin) => {
                    stream
                        .write_all(&encode_frame(&Message::FinAck))
                        .expect("write finack");
                    return acked;
                }
                Frame::Message(other) => panic!("unexpected {other:?}"),
            };
            stream
                .write_all(&encode_frame(&reply))
                .expect("write reply");
        }
    }
}

/// Allocator calls one whole batch of `batch` readings costs a warm
/// uplink, the median of several.
fn calls_per_batch(batch: usize) -> u64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || acking_server(listener));
    let mut config = PipelinedConfig::new(addr);
    config.batch_size = batch;
    config.transport.ack_timeout = Duration::from_secs(10);
    let mut uplink = PipelinedUplink::new(config);
    let mut next = 0u64;
    let mut one_batch = |uplink: &mut PipelinedUplink| {
        allocations(|| {
            for _ in 0..batch {
                next += 1;
                let hour = (next / 12 % 24) as f64;
                uplink
                    .send(SensorId(3), 300 * next, &[14.0 + hour / 4.0, 80.0 - hour])
                    .expect("send");
            }
        })
        .0
    };
    // Warm up: the connection, the arena, the queues at their size.
    for _ in 0..4 {
        one_batch(&mut uplink);
    }
    let mut costs: Vec<u64> = (0..9).map(|_| one_batch(&mut uplink)).collect();
    costs.sort_unstable();
    let stats = uplink.finish().expect("fin/finack");
    assert_eq!(stats.retransmits, 0, "a clean run");
    assert_eq!(server.join().expect("server thread"), 13 * batch as u64);
    costs[costs.len() / 2]
}

#[test]
fn a_sent_reading_costs_no_allocation_of_its_own() {
    let (short, long) = (calls_per_batch(96), calls_per_batch(192));
    // The frame's buffer, sized once (1 and 1 as measured) — and
    // nothing that scales.
    assert!(
        short <= 3 && long <= short + 1,
        "{short} allocator calls for a 96-reading batch, {long} for a 192-reading one"
    );
}
