//! Socket-level end-to-end tests: a real `Server` + `Collector` on one
//! side, a retrying `SensorUplink` on the other, over loopback TCP and
//! Unix sockets. A seeded lossy delivery schedule driven through the
//! wire must land on the same bit-identical report as in-process
//! in-order delivery, wire-level corruption ([`corrupt_frames`]) must
//! be rejected without polluting the pipeline, and the whole path must
//! survive a long soak.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    delivery_schedule, drive_uplink, trace_to_raw, Collector, FrameBuffer, FrameError, FsyncPolicy,
    GatewayConfig, GatewayReport, Message, NetsimConfig, PipelinedConfig, PipelinedUplink,
    SensorUplink, Server, ServerConfig, UplinkConfig, PROTOCOL_V1, PROTOCOL_VERSION,
};
use sentinet_sim::{gdi, simulate, RawRecord, SensorId, DAY_S};
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A legacy (v1) Hello: the server sends no reply to it, so a raw
/// connection can stream frames right after.
fn hello_frame() -> Vec<u8> {
    encode_frame(&Message::Hello {
        version: PROTOCOL_V1,
        epoch: 0,
    })
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-e2e-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn gdi_records(days: u64, sensors: u16, seed: u64) -> Vec<RawRecord> {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    cfg.num_sensors = sensors;
    let mut rng = StdRng::seed_from_u64(seed);
    trace_to_raw(&simulate(&cfg, &mut rng))
}

/// Wire-level corruption over already-encoded frames (opaque byte
/// vectors: this knows nothing of the codec). Roughly `rate` of the
/// frames are attacked, deterministically from `seed`, with one of:
///
/// * **truncated frame** — the tail is cut mid-record (a torn write
///   or dropped carrier), leaving 1..len-1 bytes;
/// * **flipped CRC byte** — one bit of the 4-byte CRC trailer flips,
///   so the payload parses but the checksum must reject it;
/// * **duplicated frame** — the frame is delivered twice back to
///   back (a retransmission whose ack was lost).
///
/// Truncation and CRC flips *replace* the clean frame (the damage
/// models a frame that never arrives intact). Empty frames pass
/// through untouched.
fn corrupt_frames(frames: &[Vec<u8>], seed: u64, rate: f64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        let corrupt = rng.gen::<f64>() < rate;
        let pick = rng.gen_range(0usize..3);
        if !corrupt || frame.is_empty() {
            out.push(frame.clone());
            continue;
        }
        match pick {
            0 => {
                // Torn tail: keep a strict, nonempty prefix (1-byte
                // frames pass through — there is nothing to tear).
                let keep = if frame.len() < 2 {
                    frame.len()
                } else {
                    1 + rng.gen_range(0..frame.len() - 1)
                };
                out.push(frame[..keep].to_vec());
            }
            1 => {
                // Flip one bit of the CRC trailer (last 4 bytes).
                let mut bad = frame.clone();
                let tail = bad.len().saturating_sub(4);
                let at = tail + rng.gen_range(0..bad.len() - tail);
                let bit = rng.gen_range(0u32..8);
                bad[at] ^= 1 << bit;
                out.push(bad);
            }
            _ => {
                out.push(frame.clone());
                out.push(frame.clone());
            }
        }
    }
    out
}

#[test]
fn corrupt_frames_is_deterministic_and_hits_every_mode() {
    let frames: Vec<Vec<u8>> = (0..200u32)
        .map(|i| i.to_le_bytes().iter().cycle().take(24).copied().collect())
        .collect();
    let a = corrupt_frames(&frames, 11, 0.5);
    let b = corrupt_frames(&frames, 11, 0.5);
    assert_eq!(a, b, "same seed, same corruption");
    assert_eq!(corrupt_frames(&frames, 11, 0.0), frames, "zero rate");

    let clean: std::collections::BTreeSet<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let truncated = a.iter().filter(|f| f.len() < 24 && !f.is_empty()).count();
    let flipped = a
        .iter()
        .filter(|f| f.len() == 24 && !clean.contains(f.as_slice()))
        .count();
    assert!(truncated > 0, "no torn frames injected");
    assert!(flipped > 0, "no CRC flips injected");
    assert!(a.len() > frames.len(), "no duplicate frames injected");
    // Flips touch only the 4-byte CRC trailer.
    for f in a.iter().filter(|f| f.len() == 24) {
        if let Some(orig) = frames.iter().find(|o| o[..20] == f[..20]) {
            let diff = orig.iter().zip(f.iter()).filter(|(x, y)| x != y).count();
            assert!(diff <= 1, "at most one flipped byte");
        }
    }
}

fn in_order_report(name: &str, records: &[RawRecord]) -> GatewayReport {
    let dir = tmpdir(name);
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
    for r in records {
        let seq = seqs.entry(r.sensor).or_insert(0);
        collector
            .deliver(r.sensor, *seq, r.time, r.values.clone())
            .expect("deliver");
        *seq += 1;
    }
    let report = collector.finish().expect("finish");
    fs::remove_dir_all(&dir).ok();
    report
}

/// Runs a server on `bind`, drives `schedule` through a real uplink in
/// a client thread, and returns the finished report.
fn serve_schedule(
    name: &str,
    bind: &str,
    schedule: Vec<sentinet_gateway::Emission>,
) -> GatewayReport {
    let dir = tmpdir(name);
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let server = Server::start(ServerConfig {
        bind: bind.into(),
        ..ServerConfig::default()
    })
    .expect("bind server");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || {
        let mut uplink = SensorUplink::new(UplinkConfig::new(addr));
        drive_uplink(&mut uplink, &schedule).expect("uplink delivery");
        uplink.finish().expect("fin/finack");
    });
    let stats = server.run(&mut collector).expect("serve");
    client.join().expect("client thread");
    assert_eq!(stats.bad_frames, 0, "clean client tripped frame errors");
    let report = collector.finish().expect("finish");
    fs::remove_dir_all(&dir).ok();
    report
}

#[test]
fn tcp_uplink_matches_in_order_delivery() {
    let records = gdi_records(1, 3, 21);
    let baseline = in_order_report("tcp-base", &records);
    let schedule = delivery_schedule(&records, &NetsimConfig::default());
    let report = serve_schedule("tcp-run", "127.0.0.1:0", schedule);
    assert_eq!(
        format!("{}", report.pipeline),
        format!("{}", baseline.pipeline),
        "socket delivery diverged from in-order"
    );
    assert!(report.ingest.rejected.is_empty());
    assert_eq!(report.ingest.accepted, baseline.ingest.accepted);
}

#[cfg(unix)]
#[test]
fn unix_socket_uplink_matches_in_order_delivery() {
    let records = gdi_records(1, 2, 22);
    let baseline = in_order_report("unix-base", &records);
    let schedule = delivery_schedule(
        &records,
        &NetsimConfig {
            seed: 5,
            ..NetsimConfig::default()
        },
    );
    let sock = std::env::temp_dir().join(format!("sentinet-e2e-{}.sock", std::process::id()));
    let bind = format!("unix:{}", sock.display());
    let report = serve_schedule("unix-run", &bind, schedule);
    assert_eq!(
        format!("{}", report.pipeline),
        format!("{}", baseline.pipeline)
    );
    let _ = fs::remove_file(&sock);
}

/// The pipelined (v2) client over loopback TCP must land on the same
/// bit-identical report as in-order in-process delivery, across fsync
/// policies — including `batch:N`, where acks are deferred until the
/// covering group fsync.
#[test]
fn pipelined_uplink_matches_in_order_delivery_across_fsync_policies() {
    let records = gdi_records(1, 3, 31);
    // Batching delivers one sensor's readings in bursts spanning
    // `batch_size × sample_period` stream-seconds, so the reorder
    // watermark must cover that skew (and the buffer must hold a
    // batch) or other sensors' same-era readings are dropped as late.
    // Both sides of the comparison get the same tuning.
    let tune = |dir: &PathBuf| {
        let mut cfg = GatewayConfig::new(dir);
        cfg.reorder.watermark_delay = 2 * 64 * 300;
        cfg.reorder.per_sensor_capacity = 512;
        cfg
    };
    let baseline = {
        let dir = tmpdir("pipe-base");
        let (mut collector, _) = Collector::open(tune(&dir)).expect("open");
        let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
        for r in &records {
            let seq = seqs.entry(r.sensor).or_insert(0);
            collector
                .deliver(r.sensor, *seq, r.time, r.values.clone())
                .expect("deliver");
            *seq += 1;
        }
        let report = collector.finish().expect("finish");
        fs::remove_dir_all(&dir).ok();
        report
    };
    for (tag, fsync) in [
        ("never", FsyncPolicy::Never),
        ("batch", FsyncPolicy::Batch(64)),
        ("always", FsyncPolicy::Always),
    ] {
        let dir = tmpdir(&format!("pipe-{tag}"));
        let mut cfg = tune(&dir);
        cfg.wal.fsync = fsync;
        let (mut collector, _) = Collector::open(cfg).expect("open");
        let server = Server::start(ServerConfig::default()).expect("bind server");
        let addr = server.addr().to_string();
        let client_records = records.clone();
        let client = std::thread::spawn(move || {
            let mut config = PipelinedConfig::new(addr);
            config.batch_size = 64;
            let mut uplink = PipelinedUplink::new(config);
            for r in &client_records {
                uplink.send(r.sensor, r.time, &r.values).expect("send");
            }
            uplink.finish().expect("fin/finack")
        });
        let stats = server.run(&mut collector).expect("serve");
        let uplink_stats = client.join().expect("client thread");
        assert_eq!(stats.bad_frames, 0, "{tag}: {:?}", stats.frame_errors);
        assert_eq!(stats.version_rejects, 0, "{tag}");
        let report = collector.finish().expect("finish");
        fs::remove_dir_all(&dir).ok();
        assert_eq!(
            format!("{}", report.pipeline),
            format!("{}", baseline.pipeline),
            "{tag}: pipelined delivery diverged from in-order"
        );
        assert_eq!(report.ingest.accepted, baseline.ingest.accepted, "{tag}");
        assert!(report.ingest.rejected.is_empty(), "{tag}");
        // Every batch put on the wire came back acknowledged.
        assert!(uplink_stats.frames_sent > 0, "{tag}");
        assert_eq!(
            uplink_stats.acked,
            uplink_stats.frames_sent - uplink_stats.retransmits,
            "{tag}: unacked batches at finish: {uplink_stats:?}"
        );
    }
}

/// `PipelinedUplink::send_at` carries explicit sequence numbers: a gap
/// seals the open batch, so each batch stays one consecutive run. The
/// collector already holds the gap's readings (an earlier owner
/// delivered them), so its cumulative ack covers both runs.
#[test]
fn a_sequence_gap_in_send_at_seals_the_open_batch() {
    let dir = tmpdir("send-at-gap");
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let reading = |seq: u64| (SensorId(1), seq, 300 * (seq + 1), vec![20.0, 45.0]);
    for (sensor, seq, time, values) in (3..=5).map(reading) {
        collector
            .deliver(sensor, seq, time, values)
            .expect("deliver");
    }
    let server = Server::start(ServerConfig::default()).expect("bind server");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || {
        let mut config = PipelinedConfig::new(addr);
        config.batch_size = 8;
        let mut uplink = PipelinedUplink::new(config);
        for (sensor, seq, time, values) in [0, 1, 2, 6, 7, 8].map(reading) {
            uplink.send_at(sensor, seq, time, &values).expect("send_at");
        }
        uplink.finish().expect("fin/finack")
    });
    let stats = server.run(&mut collector).expect("serve");
    let uplink = client.join().expect("client thread");
    assert_eq!(stats.bad_frames, 0, "{:?}", stats.frame_errors);
    assert_eq!(uplink.frames_sent, 2, "one batch a run: {uplink:?}");
    assert_eq!(uplink.acked, 2, "the server acked both runs: {uplink:?}");
    assert_eq!(uplink.retransmits, 0, "{uplink:?}");
    let report = collector.finish().expect("finish");
    fs::remove_dir_all(&dir).ok();
    assert_eq!(report.ingest.accepted, 9);
    assert_eq!(report.ingest.duplicates, 0);
}

/// A client announcing an unknown protocol version gets a typed
/// `HelloReject` and is dropped; the server counts it as a version
/// reject, not corrupt-frame noise, and keeps serving other clients.
#[test]
fn unknown_protocol_version_is_rejected_typed() {
    let dir = tmpdir("ver-reject");
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind server");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || {
        // Rogue hello from the future.
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        conn.write_all(&encode_frame(&Message::Hello {
            version: 99,
            epoch: 0,
        }))
        .expect("hello");
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 256];
        let supported = 'reject: loop {
            match fb.next_message() {
                Ok(Some(Message::HelloReject { supported })) => break 'reject supported,
                Ok(Some(other)) => panic!("unexpected reply {other:?}"),
                Ok(None) => {}
                Err(e) => panic!("frame error {e}"),
            }
            match conn.read(&mut buf) {
                Ok(0) => panic!("eof before HelloReject"),
                Ok(n) => fb.feed(&buf[..n]),
                Err(e) => panic!("read: {e}"),
            }
        };
        // A healthy v2 client on the same server is unaffected.
        let mut config = PipelinedConfig::new(addr);
        config.batch_size = 8;
        let mut uplink = PipelinedUplink::new(config);
        uplink.send(SensorId(1), 300, &[20.0, 45.0]).expect("send");
        uplink.finish().expect("fin/finack");
        supported
    });
    let stats = server.run(&mut collector).expect("serve");
    let supported = client.join().expect("client thread");
    assert_eq!(supported, sentinet_gateway::PROTOCOL_VERSION);
    assert_eq!(stats.version_rejects, 1);
    assert_eq!(stats.bad_frames, 0);
    let report = collector.finish().expect("finish");
    assert_eq!(report.ingest.accepted, 1);
    fs::remove_dir_all(&dir).ok();
}

/// A `Hello` of an unknown version is answered with a typed
/// `HelloReject { supported: PROTOCOL_VERSION }`: the counter
/// classifies it as a version reject and the reply is byte-for-byte the
/// encoded reject frame — nothing more — before the socket closes. A
/// legacy stop-and-wait client on the same server is still served.
#[test]
fn unknown_version_hello_gets_exactly_one_reject_frame() {
    let dir = tmpdir("reject-wire");
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind server");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        conn.write_all(&encode_frame(&Message::Hello {
            version: 99,
            epoch: 0,
        }))
        .expect("hello");
        // The server writes the reject, flushes, and shuts the socket
        // down; everything up to EOF is the raw reject frame.
        let mut wire = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            match conn.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => wire.extend_from_slice(&buf[..n]),
                Err(e) => panic!("read: {e}"),
            }
        }
        // The server still speaks v1: a stop-and-wait client lands a
        // record and terminates the run with Fin/FinAck.
        let mut uplink = SensorUplink::new(UplinkConfig::new(addr));
        uplink
            .send_at(SensorId(1), 0, 300, &[20.0, 45.0])
            .expect("send");
        uplink.finish().expect("fin/finack");
        wire
    });
    let stats = server.run(&mut collector).expect("serve");
    let wire = client.join().expect("client thread");
    assert_eq!(
        wire,
        encode_frame(&Message::HelloReject {
            supported: PROTOCOL_VERSION
        }),
        "reject reply must be exactly one encoded HelloReject frame"
    );
    assert_eq!(stats.version_rejects, 1);
    assert_eq!(stats.bad_frames, 0);
    let report = collector.finish().expect("finish");
    assert_eq!(report.ingest.accepted, 1);
    fs::remove_dir_all(&dir).ok();
}

/// The log's run frame is no wire message: a peer that sends one — the
/// exact bytes a WAL segment holds for a run — is dropped with a typed
/// frame error (an unknown tag) and none of its readings is admitted,
/// while a clean client on the same server is served.
#[test]
fn a_peer_sending_a_log_run_frame_is_dropped_typed() {
    let dir = tmpdir("log-run-wire");
    let log = tmpdir("log-run-segment");
    let (mut wal, _) = sentinet_gateway::Wal::open(sentinet_gateway::WalConfig::new(&log), None)
        .expect("fresh wal");
    let run: Vec<sentinet_gateway::WalRecord> = (0..3u64)
        .map(|seq| sentinet_gateway::WalRecord {
            sensor: SensorId(2),
            seq,
            time: 300 * (seq + 1),
            values: vec![20.0, 45.0],
        })
        .collect();
    wal.append_many(&run).expect("append");
    drop(wal);
    let frame = fs::read(log.join("wal-00000001.seg")).expect("segment");
    assert_eq!(frame[4], 16, "one log-run frame");
    fs::remove_dir_all(&log).ok();

    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind server");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        conn.write_all(&hello_frame()).expect("hello");
        conn.write_all(&frame).expect("log-run frame");
        // Dropped: EOF. A timeout instead still ends the run below, so
        // a server that kept the connection fails the test, not hangs.
        let mut sink = [0u8; 256];
        let dropped = loop {
            match conn.read(&mut sink) {
                Ok(0) => break true,
                Ok(_) => continue,
                Err(_) => break false,
            }
        };
        let mut uplink = SensorUplink::new(UplinkConfig::new(addr));
        uplink
            .send_at(SensorId(1), 0, 300, &[20.0, 45.0])
            .expect("send");
        uplink.finish().expect("fin/finack");
        dropped
    });
    let stats = server.run(&mut collector).expect("serve");
    assert!(
        client.join().expect("client thread"),
        "the connection was kept"
    );
    assert_eq!(stats.bad_frames, 1);
    assert_eq!(stats.frame_errors, vec![FrameError::UnknownTag(16)]);
    let report = collector.finish().expect("finish");
    assert_eq!(report.ingest.accepted, 1, "nothing of the run was admitted");
    fs::remove_dir_all(&dir).ok();
}

/// The frame corrupter feeds the gateway's decoder directly:
/// a duplicated frame decodes twice, a torn frame stays pending (never
/// a phantom message), and a flipped CRC byte is rejected loudly.
#[test]
fn corrupt_frames_exercise_every_decoder_path() {
    let frame = encode_frame(&Message::Data {
        sensor: SensorId(1),
        seq: 7,
        time: 300,
        values: vec![20.0, 50.0],
    });
    let frames: Vec<Vec<u8>> = vec![frame.clone(); 64];
    let corrupted = corrupt_frames(&frames, 99, 1.0);
    // Duplicate mode grows the output; with rate 1.0 every clean
    // element is such a duplicated copy.
    assert!(
        corrupted.len() > frames.len(),
        "no duplicate mode at rate 1.0"
    );

    let (mut dups, mut torn, mut bad_crc) = (0usize, 0, 0);
    for bytes in &corrupted {
        let mut fb = FrameBuffer::new();
        fb.feed(bytes);
        if *bytes == frame {
            // A duplicated copy decodes cleanly.
            assert!(matches!(fb.next_message(), Ok(Some(Message::Data { .. }))));
            assert!(matches!(fb.next_message(), Ok(None)));
            dups += 1;
        } else if bytes.len() < frame.len() {
            // Torn mode: the decoder waits for more bytes (or rejects
            // on a damaged length prefix) — it never invents a message.
            match fb.next_message() {
                Ok(None) => torn += 1,
                Err(_) => torn += 1,
                Ok(Some(_)) => panic!("torn frame decoded as a full message"),
            }
        } else {
            // Flip mode targets the CRC trailer.
            assert!(matches!(fb.next_message(), Err(FrameError::BadCrc { .. })));
            bad_crc += 1;
        }
    }
    assert!(
        dups > 0 && torn > 0 && bad_crc > 0,
        "{dups}/{torn}/{bad_crc}"
    );
}

/// A rogue connection replaying CRC-flipped frames is dropped and
/// counted, while a clean client on the same server is unaffected:
/// the final report matches clean in-order delivery exactly.
#[test]
fn corrupted_connections_are_dropped_without_polluting_the_report() {
    let records = gdi_records(1, 2, 23);
    let baseline = in_order_report("rogue-base", &records);

    // Frames replaying the stream's first record; corrupt until the
    // deterministic search finds a seed where every frame lands in
    // flip-CRC mode (so every rogue connection must die on BadCrc).
    let first = &records[0];
    let frame = encode_frame(&Message::Data {
        sensor: first.sensor,
        seq: 0,
        time: first.time,
        values: first.values.clone(),
    });
    let frames = vec![frame.clone(); 3];
    let flipped = (0..500u64)
        .map(|seed| corrupt_frames(&frames, seed, 1.0))
        .find(|out| out.iter().all(|f| f.len() == frame.len() && *f != frame))
        .expect("a seed where all frames flip a CRC byte");

    let dir = tmpdir("rogue-run");
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind server");
    let addr = server.addr().to_string();
    let rogue_count = flipped.len() as u64;
    let client_records = records.clone();
    let client = std::thread::spawn(move || {
        // Rogue phase first: each bad frame on its own connection; the
        // server must shut each one down (observed as EOF here).
        for bad in &flipped {
            let mut conn = TcpStream::connect(&addr).expect("rogue connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            conn.write_all(&hello_frame()).expect("hello");
            conn.write_all(bad).expect("bad frame");
            let mut sink = [0u8; 256];
            loop {
                match conn.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) => panic!("rogue read: {e}"),
                }
            }
        }
        // Clean phase: the full stream, in order, through the uplink.
        let mut uplink = SensorUplink::new(UplinkConfig::new(addr));
        let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
        for r in &client_records {
            let seq = seqs.entry(r.sensor).or_insert(0);
            uplink
                .send_at(r.sensor, *seq, r.time, &r.values)
                .expect("send");
            *seq += 1;
        }
        uplink.finish().expect("fin/finack");
    });
    let stats = server.run(&mut collector).expect("serve");
    client.join().expect("client thread");
    assert_eq!(stats.bad_frames, rogue_count, "{:?}", stats.frame_errors);
    assert!(stats
        .frame_errors
        .iter()
        .all(|e| matches!(e, FrameError::BadCrc { .. })));

    let report = collector.finish().expect("finish");
    fs::remove_dir_all(&dir).ok();
    assert_eq!(
        format!("{}", report.pipeline),
        format!("{}", baseline.pipeline),
        "rogue frames leaked into the pipeline"
    );
}

/// Long soak over loopback: a week of four sensors through a lossy
/// seeded schedule, retries and dedup doing real work. Run with
/// `cargo test -p sentinet-gateway -- --ignored`.
#[test]
#[ignore = "soak: long-running, exercised by the CI gateway job"]
fn soak_week_long_lossy_stream_over_tcp() {
    let records = gdi_records(7, 4, 24);
    let baseline = in_order_report("soak-base", &records);
    let schedule = delivery_schedule(
        &records,
        &NetsimConfig {
            seed: 77,
            dup_rate: 0.1,
            ..NetsimConfig::default()
        },
    );
    let report = serve_schedule("soak-run", "127.0.0.1:0", schedule);
    assert_eq!(
        format!("{}", report.pipeline),
        format!("{}", baseline.pipeline)
    );
    assert!(report.ingest.rejected.is_empty());
    assert!(report.ingest.duplicates > 0, "soak never exercised dedup");
}

/// Sends one v1 `Data` frame on a throwaway connection and returns the
/// server's typed reply (`Ack` or `Nack`).
fn v1_exchange(addr: &str, sensor: u16, seq: u64, time: u64) -> Message {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    conn.write_all(&encode_frame(&Message::Data {
        sensor: SensorId(sensor),
        seq,
        time,
        values: vec![20.0, 45.0],
    }))
    .expect("data");
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 256];
    loop {
        match fb.next_message() {
            Ok(Some(msg)) => return msg,
            Ok(None) => {}
            Err(e) => panic!("frame error {e}"),
        }
        match conn.read(&mut buf) {
            Ok(0) => panic!("eof before reply"),
            Ok(n) => fb.feed(&buf[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
}

/// Ends a server run with a Fin/FinAck exchange.
fn shut_down(addr: &str) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    conn.write_all(&encode_frame(&Message::Fin)).expect("fin");
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 256];
    loop {
        match fb.next_message() {
            Ok(Some(Message::FinAck)) => return,
            Ok(Some(other)) => panic!("unexpected reply {other:?}"),
            Ok(None) => {}
            Err(e) => panic!("frame error {e}"),
        }
        match conn.read(&mut buf) {
            Ok(0) => panic!("eof before FinAck"),
            Ok(n) => fb.feed(&buf[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
}

/// The full three-frame migration handshake over real sockets: a
/// controller-shaped probe cuts sensor 1 out of a live source server,
/// ships the staged snapshot to a fresh destination server, and
/// confirms adoption. From the cut on, the source NACKs the moved
/// range while still serving its own; the destination absorbs a
/// pre-cut retransmission through the shipped dedup state, accepts the
/// next fresh reading, and the completion signal clears the source's
/// staged outbox copy.
#[test]
fn live_range_migration_moves_a_sensor_between_servers() {
    let records = gdi_records(1, 3, 77);
    let baseline = in_order_report("mig-base", &records);
    let src_dir = tmpdir("mig-src");
    let (mut src, _) = Collector::open(GatewayConfig::new(&src_dir)).expect("open src");
    let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
    for r in &records {
        let seq = seqs.entry(r.sensor).or_insert(0);
        src.deliver(r.sensor, *seq, r.time, r.values.clone())
            .expect("deliver");
        *seq += 1;
    }
    let dst_dir = tmpdir("mig-dst");
    let (mut dst, _) = Collector::open(GatewayConfig::new(&dst_dir)).expect("open dst");

    let src_server = Server::start(ServerConfig::default()).expect("bind src");
    let dst_server = Server::start(ServerConfig::default()).expect("bind dst");
    let src_addr = src_server.addr().to_string();
    let dst_addr = dst_server.addr().to_string();
    let src_thread = std::thread::spawn(move || {
        src_server.run(&mut src).expect("src serve");
        src.finish().expect("src finish")
    });
    let dst_thread = std::thread::spawn(move || {
        dst_server.run(&mut dst).expect("dst serve");
        dst.finish().expect("dst finish")
    });

    let timeout = Duration::from_secs(10);
    let (cursor, snapshot) =
        sentinet_gateway::probe_migrate_cut(&src_addr, 1, 2, timeout).expect("cut");
    assert_eq!(cursor, records.len() as u64, "cut cursor covers the log");

    // From the cut on the source fences the moved sensor but keeps
    // serving its own.
    let tail_time = 2 * DAY_S;
    let moved_seq = seqs[&SensorId(1)];
    assert!(matches!(
        v1_exchange(&src_addr, 1, moved_seq, tail_time),
        Message::Nack { .. }
    ));
    assert!(matches!(
        v1_exchange(&src_addr, 0, seqs[&SensorId(0)], tail_time),
        Message::Ack { .. }
    ));

    sentinet_gateway::probe_migrate_adopt(&dst_addr, 1, 2, cursor, snapshot, timeout)
        .expect("adopt");
    // A pre-cut retransmission is absorbed by the shipped dedup state;
    // the next fresh reading lands.
    assert!(matches!(
        v1_exchange(&dst_addr, 1, 0, 300),
        Message::Ack { .. }
    ));
    assert!(matches!(
        v1_exchange(&dst_addr, 1, moved_seq, tail_time),
        Message::Ack { .. }
    ));

    sentinet_gateway::probe_migrate_done(&src_addr, 1, 2, cursor, timeout).expect("done");
    assert!(
        !src_dir.join("outbox-1-2.ck").exists(),
        "completion must clear the staged outbox copy"
    );

    shut_down(&src_addr);
    shut_down(&dst_addr);
    let src_report = src_thread.join().expect("src thread");
    let dst_report = dst_thread.join().expect("dst thread");
    // Nothing is lost or double-counted across the cut: readings of
    // sensor 1 still sitting in the reorder buffer moved with the
    // shipped snapshot and are accepted at the destination, so the
    // two ledgers together cover the baseline plus the two tail
    // readings delivered post-cut.
    assert_eq!(
        src_report.ingest.accepted + dst_report.ingest.accepted,
        baseline.ingest.accepted + 2
    );
    assert!(
        dst_report.ingest.accepted >= 1,
        "the post-cut reading must land at the destination"
    );
    assert!(src_report.ingest.rejected.is_empty());
    assert!(dst_report.ingest.rejected.is_empty());
    fs::remove_dir_all(&src_dir).ok();
    fs::remove_dir_all(&dst_dir).ok();
}
