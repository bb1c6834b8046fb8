//! The socket server's overlapped group commit, end to end over
//! loopback TCP: the WAL's policy fsync runs on the syncer thread, and
//! an ack is released only when the fsync that was *started* after its
//! batch was appended has come back clean.
//!
//! The fault tests fail the nth fsync of the run through a
//! [`FaultyVfs`] plan and prove the failed one ran on the syncer
//! thread: the collector reports zero nanoseconds blocked in inline
//! fsyncs, so every fsync the plan counted was a background one.

use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    Collector, FaultPlan, FaultSpec, FaultyVfs, FrameBuffer, FsyncPolicy, GatewayConfig, Message,
    Server, ServerConfig, StorageFault, VfsOp, Wal, WalConfig, PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-overlap-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Readings per batch: at least the `batch:8` threshold, so every
/// admitted batch makes a policy sync due under both policies.
const BATCH: u64 = 16;

fn batch(index: u64) -> Vec<u8> {
    let first_seq = index * BATCH;
    encode_frame(&Message::DataBatch {
        sensor: SensorId(0),
        first_seq,
        readings: (first_seq..first_seq + BATCH)
            .map(|i| (300 * (i + 1), vec![20.0 + (i % 7) as f64, 50.0]))
            .collect(),
    })
}

/// A raw v2 client: frames out, typed replies in.
struct Client {
    sock: TcpStream,
    frames: FrameBuffer,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(&encode_frame(&Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: 0,
        }))
        .expect("hello");
        let mut client = Self {
            sock,
            frames: FrameBuffer::new(),
        };
        let reply = client.next(Duration::from_secs(10));
        assert!(matches!(reply, Some(Message::HelloAck { .. })), "{reply:?}");
        client
    }

    fn send(&mut self, frame: &[u8]) {
        self.sock.write_all(frame).expect("send");
    }

    /// The next reply, or `None` if none arrives within `patience`.
    fn next(&mut self, patience: Duration) -> Option<Message> {
        self.sock
            .set_read_timeout(Some(patience))
            .expect("read timeout");
        let mut buf = [0u8; 1024];
        loop {
            if let Some(message) = self.frames.next_message().expect("well-formed reply") {
                return Some(message);
            }
            match self.sock.read(&mut buf) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => self.frames.feed(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return None
                }
                Err(e) => panic!("waiting for a reply: {e}"),
            }
        }
    }
}

/// The third background fsync fails. Batches 0 and 1 are sent
/// stop-and-wait, so syncs one and two cover exactly them; batch 2's
/// sync is the one that fails.
fn background_fsync_failure_loses_no_acked_reading(name: &str, policy: FsyncPolicy) {
    let dir = tmpdir(name);
    let vfs = Arc::new(FaultyVfs::new(FaultPlan::new().with_fault(FaultSpec {
        path: ".seg".into(),
        op: VfsOp::Fsync,
        nth: 3,
        kind: StorageFault::FsyncFail,
        count: 1,
    })));
    let mut config = GatewayConfig::new(&dir);
    config.wal.fsync = policy;
    config.wal.vfs = vfs.clone();
    // No checkpoint, no roll: the only fsyncs are the policy's.
    config.checkpoint_every = 0;
    let (mut collector, _) = Collector::open(config).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    let client = std::thread::spawn(move || {
        let mut client = Client::connect(&addr);
        let patience = Duration::from_secs(10);
        let mut acked = None;
        for index in 0..2 {
            client.send(&batch(index));
            match client.next(patience) {
                Some(Message::AckUpTo { seq, .. }) => acked = Some(seq),
                other => panic!("batch {index}: expected its ack, got {other:?}"),
            }
        }
        // Batch 2's covering fsync fails when it completes: silence for
        // it and for whatever was admitted while it ran, a NACK for the
        // first batch that arrives after the poisoning — and never
        // another ack.
        let mut index = 2;
        let nacked = loop {
            client.send(&batch(index));
            match client.next(Duration::from_millis(20)) {
                Some(Message::Nack { seq, .. }) => break seq,
                None => index += 1,
                Some(other) => panic!("batch {index}: {other:?} after a failed fsync"),
            }
            assert!(index < 500, "the poisoned server never NACKed");
        };
        client.send(&encode_frame(&Message::Fin));
        loop {
            match client.next(patience) {
                Some(Message::FinAck) => break,
                Some(Message::Nack { .. }) => {}
                other => panic!("expected FinAck, got {other:?}"),
            }
        }
        (acked, nacked)
    });

    server.run(&mut collector).expect("serve");
    let (acked, nacked) = client.join().expect("client thread");
    let acked = acked.expect("two clean syncs acked two batches");
    assert_eq!(
        acked,
        2 * BATCH - 1,
        "{policy}: syncs one and two, nothing more"
    );
    assert!(
        nacked >= 3 * BATCH,
        "{policy}: batch 2 itself is never NACKed"
    );
    let status = collector.storage_status();
    let error = status.error.expect("the failed fsync poisoned the wal");
    assert_eq!(error.op, VfsOp::Fsync);
    assert_eq!(vfs.injected().len(), 1);
    assert_eq!(
        collector.stage_timings().sync_blocked_ns,
        0,
        "{policy}: an fsync ran inline, so the failed one may not have been a background one"
    );
    assert!(collector.stage_timings().fsync_ns > 0);
    drop(collector);

    // Reopen on healthy storage: every acked reading is in the log.
    let (_, recovered) = Wal::open(WalConfig::new(&dir), None).expect("reopen");
    for seq in 0..=acked {
        assert!(
            recovered.iter().any(|r| r.seq == seq),
            "{policy}: acked seq {seq} did not survive"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_fsync_failure_loses_no_acked_reading_under_batch_8() {
    background_fsync_failure_loses_no_acked_reading("fault-batch8", FsyncPolicy::Batch(8));
}

#[test]
fn background_fsync_failure_loses_no_acked_reading_under_always() {
    background_fsync_failure_loses_no_acked_reading("fault-always", FsyncPolicy::Always);
}

/// A burst of batches with nothing waiting between them: the fsyncs
/// overlap admission, so there are fewer of them than batches, none of
/// them inline, and every batch is still acked before the `FinAck`.
#[test]
fn a_burst_is_covered_by_fewer_background_fsyncs_than_batches() {
    const BATCHES: u64 = 200;
    let dir = tmpdir("burst");
    let vfs = Arc::new(FaultyVfs::new(FaultPlan::new()));
    let mut config = GatewayConfig::new(&dir);
    config.wal.fsync = FsyncPolicy::Always;
    config.wal.vfs = vfs.clone();
    config.checkpoint_every = 0;
    let (mut collector, _) = Collector::open(config).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || {
        let mut client = Client::connect(&addr);
        let burst: Vec<u8> = (0..BATCHES).flat_map(batch).collect();
        client.send(&burst);
        let mut acked = None;
        while acked != Some(BATCHES * BATCH - 1) {
            match client.next(Duration::from_secs(10)) {
                Some(Message::AckUpTo { seq, .. }) => {
                    assert!(acked < Some(seq), "cumulative acks only move forward");
                    acked = Some(seq);
                }
                other => panic!("expected an ack, got {other:?}"),
            }
        }
        client.send(&encode_frame(&Message::Fin));
        let reply = client.next(Duration::from_secs(10));
        assert_eq!(reply, Some(Message::FinAck));
    });
    server.run(&mut collector).expect("serve");
    client.join().expect("client thread");
    let fsyncs = vfs.op_count(VfsOp::Fsync);
    assert!(
        (1..BATCHES).contains(&fsyncs),
        "{fsyncs} fsyncs for {BATCHES} batches: the syncs did not group"
    );
    assert_eq!(collector.stage_timings().sync_blocked_ns, 0);
    assert_eq!(collector.unsynced_records(), 0);
    let report = collector.finish().expect("finish");
    assert!(report.storage.is_clean());
    fs::remove_dir_all(&dir).ok();
}

/// `shutdown_handle()` ends a run without a `Fin`, also when no client
/// ever connected and the accept thread sits blocked in `accept`.
#[test]
fn shutdown_handle_stops_an_idle_server() {
    let dir = tmpdir("shutdown");
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind");
    let stop = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run(&mut collector).expect("serve"));
    stop.store(true, Ordering::SeqCst);
    let stats = serving.join().expect("server thread");
    assert_eq!(
        stats.connections, 0,
        "the wake-up connection is not a client"
    );
    fs::remove_dir_all(&dir).ok();
}
