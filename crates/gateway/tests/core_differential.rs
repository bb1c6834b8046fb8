//! Differential test of the protocol core's two drivers: one scripted
//! frame sequence goes through a loopback [`Server`] (threads, real
//! TCP) and through [`StepServer`] (the model checker's seam), and the
//! reply sequences must be equal, frame for frame and connection for
//! connection — including which connections get closed.
//!
//! Both drive the same `protocol::Core`, so a divergence here is a
//! driver bug: a reply dropped, reordered, sent to the wrong
//! connection, or a close not honoured. The client sends one frame and
//! waits for its replies, so the server's queue runs dry after every
//! frame; the step driver mirrors that with a `commit()` per step.

use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::protocol::Core;
use sentinet_gateway::{
    AckDiscipline, Collector, FaultPlan, FaultSpec, FaultyVfs, FrameBuffer, FsyncPolicy,
    GatewayConfig, Message, Server, ServerConfig, StepEvent, StepServer, StorageFault, VfsOp,
    CHECKPOINT_FILE, PROTOCOL_V1, PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const CREDITS: u32 = 4;

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sentinet-core-diff-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One scripted client action on connection `conn` (connections are
/// opened on first use, in index order).
enum Step {
    /// Send this message.
    Send(usize, Message),
    /// Send these messages in one write, with no queue-dry tick
    /// guaranteed between them.
    Burst(usize, Vec<Message>),
    /// Send back the last `MigrateAccept` this run received — the
    /// source taking its own range back.
    EchoAccept(usize),
}

/// Replies to one step, with the connections it closed.
type StepReplies = (Vec<(usize, Message)>, Vec<usize>);

fn readings(n: u64, from: u64) -> Vec<(u64, Vec<f64>)> {
    (from..from + n)
        .map(|i| (300 * (i + 1), vec![20.0 + i as f64, 50.0]))
        .collect()
}

impl Step {
    /// The connection and frames of this step, given the replies seen
    /// so far in the run.
    fn frames(&self, seen: &[StepReplies]) -> (usize, Vec<Message>) {
        match self {
            Step::Send(conn, message) => (*conn, vec![message.clone()]),
            Step::Burst(conn, messages) => (*conn, messages.clone()),
            Step::EchoAccept(conn) => (*conn, vec![last_accept(seen)]),
        }
    }
}

fn last_accept(seen: &[StepReplies]) -> Message {
    seen.iter()
        .rev()
        .flat_map(|(replies, _)| replies.iter().rev())
        .find(|(_, m)| matches!(m, Message::MigrateAccept { .. }))
        .map(|(_, m)| m.clone())
        .expect("script echoes an accept it never received")
}

/// The script through [`StepServer`]: the reference reply sequence.
fn run_steps(config: GatewayConfig, v1_only: bool, script: &[Step]) -> Vec<StepReplies> {
    let (collector, _) = Collector::open(config).expect("open");
    let core = Core::new(CREDITS, v1_only, AckDiscipline::Durable);
    let mut server = StepServer::with_core(collector, core);
    let mut conns: Vec<usize> = Vec::new();
    let mut seen: Vec<StepReplies> = Vec::new();
    for step in script {
        let (conn, messages) = step.frames(&seen);
        while conns.len() <= conn {
            conns.push(server.connect());
        }
        let mut replies = Vec::new();
        for message in &messages {
            server.feed(conns[conn], &encode_frame(message));
            match server.step(conns[conn]).expect("step") {
                StepEvent::Replies(more) => replies.extend(more),
                other => panic!("scripted frame did not decode: {other:?}"),
            }
        }
        replies.extend(server.commit().expect("commit"));
        // A rejected hello closes its connection: from then on it
        // ignores bytes (an open one always answers a heartbeat).
        let closed: Vec<usize> = replies
            .iter()
            .filter(|(_, m)| matches!(m, Message::HelloReject { .. }))
            .map(|(c, _)| *c)
            .collect();
        for &c in &closed {
            server.feed(c, &encode_frame(&Message::Heartbeat { epoch: 0 }));
            assert_eq!(server.step(c).expect("probe"), StepEvent::Idle);
        }
        seen.push((replies, closed));
    }
    seen
}

/// The script over loopback TCP against a real [`Server`], checked
/// step by step against `expected`.
fn run_server(config: GatewayConfig, v1_only: bool, script: &[Step], expected: &[StepReplies]) {
    let (mut collector, _) = Collector::open(config).expect("open");
    let server = Server::start(ServerConfig {
        credit_window: CREDITS,
        v1_only,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let serving = std::thread::spawn(move || server.run(&mut collector).expect("serve"));

    let mut socks: Vec<(TcpStream, FrameBuffer)> = Vec::new();
    let mut seen: Vec<StepReplies> = Vec::new();
    for (i, (step, (want, want_closed))) in script.iter().zip(expected).enumerate() {
        let (conn, messages) = step.frames(&seen);
        while socks.len() <= conn {
            let sock = TcpStream::connect(&addr).expect("connect");
            sock.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            socks.push((sock, FrameBuffer::new()));
            // Accept order is connection-id order; let this one land
            // before the next connects.
            std::thread::sleep(Duration::from_millis(30));
        }
        let bytes: Vec<u8> = messages.iter().flat_map(encode_frame).collect();
        socks[conn].0.write_all(&bytes).expect("send");
        let mut got = Vec::new();
        for (reply_conn, _) in want {
            let (sock, fb) = &mut socks[*reply_conn];
            let reply = read_frame(sock, fb)
                .unwrap_or_else(|| panic!("step {i}: server sent fewer replies than the core"));
            got.push((*reply_conn, reply));
        }
        assert_eq!(&got, want, "step {i}: reply sequences differ");
        for &closed in want_closed {
            let (sock, fb) = &mut socks[closed];
            assert!(
                read_frame(sock, fb).is_none(),
                "step {i}: connection {closed} must be closed after its reject"
            );
        }
        seen.push((got, want_closed.clone()));
    }
    // The script ends in Fin: the server stops, every socket reaches
    // EOF, and nothing unaccounted for may precede it.
    serving.join().expect("server thread");
    for (conn, (sock, fb)) in socks.iter_mut().enumerate() {
        assert!(
            read_frame(sock, fb).is_none(),
            "connection {conn} carried a reply the core never emitted"
        );
    }
}

/// The next frame on `sock`, or `None` at a clean EOF.
fn read_frame(sock: &mut TcpStream, fb: &mut FrameBuffer) -> Option<Message> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(message) = fb.next_message().expect("server frames are well-formed") {
            return Some(message);
        }
        match sock.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => fb.feed(&buf[..n]),
            // A reset after the server dropped the socket is an EOF.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return None,
            Err(e) => panic!("waiting for a reply: {e}"),
        }
    }
}

fn differential(name: &str, v1_only: bool, tweak: impl Fn(&mut GatewayConfig), script: &[Step]) {
    let config = |side: &str| {
        let dir = tmpdir(&format!("{name}-{side}"));
        let mut config = GatewayConfig::new(&dir);
        config.reorder.watermark_delay = 600;
        config.wal.fsync = FsyncPolicy::Batch(64);
        tweak(&mut config);
        (dir, config)
    };
    let (step_dir, step_config) = config("step");
    let expected = run_steps(step_config, v1_only, script);
    let (server_dir, server_config) = config("server");
    run_server(server_config, v1_only, script, &expected);
    assert!(
        matches!(
            expected.last(),
            Some((replies, _)) if replies.last().map(|(_, m)| m) == Some(&Message::FinAck)
        ),
        "script must end with an acknowledged Fin"
    );
    let _ = fs::remove_dir_all(step_dir);
    let _ = fs::remove_dir_all(server_dir);
}

fn hello(version: u32) -> Message {
    Message::Hello { version, epoch: 0 }
}

fn batch(sensor: u16, first_seq: u64, n: u64) -> Message {
    Message::DataBatch {
        sensor: SensorId(sensor),
        first_seq,
        readings: readings(n, first_seq),
    }
}

fn data(sensor: u16, seq: u64) -> Message {
    Message::Data {
        sensor: SensorId(sensor),
        seq,
        time: 300 * (seq + 1),
        values: vec![21.0, 55.0],
    }
}

/// Negotiation, both data paths, dedup, a mid-batch budget NACK,
/// reply-type frames, and fencing by a heartbeat from a newer epoch.
#[test]
fn data_paths_negotiation_and_fencing_match() {
    use Step::Send;
    let s = SensorId(3);
    let script = [
        Send(0, hello(PROTOCOL_VERSION)),
        Send(0, batch(0, 0, 3)),
        Send(0, batch(0, 0, 3)),     // duplicate: re-acked, not re-admitted
        Send(1, hello(PROTOCOL_V1)), // silent
        Send(1, data(1, 0)),
        Send(1, data(1, 0)),     // duplicate
        Send(2, hello(9)),       // unknown version: reject + close
        Send(0, batch(0, 3, 4)), // budget holds 6 frames: NACK mid-batch
        Send(1, data(1, 1)),     // budget full: NACK
        // Server-bound streams should not carry replies: all ignored.
        Send(0, Message::Ack { sensor: s, seq: 1 }),
        Send(0, Message::AckUpTo { sensor: s, seq: 1 }),
        Send(0, Message::Nack { sensor: s, seq: 1 }),
        Send(0, Message::FinAck),
        Send(
            0,
            Message::HelloAck {
                version: 2,
                credits: 1,
            },
        ),
        Send(0, Message::HelloReject { supported: 2 }),
        Send(
            0,
            Message::HeartbeatAck {
                epoch: 1,
                checkpoint_cursor: 0,
            },
        ),
        Send(0, Message::Heartbeat { epoch: 1 }),
        Send(0, Message::Heartbeat { epoch: 5 }), // newer epoch: fenced from here
        Send(0, batch(2, 0, 2)),
        Send(1, data(2, 0)),
        Send(1, Message::Fin),
    ];
    differential(
        "data",
        false,
        |config| {
            // Checkpoints never commit, so retention can never reclaim
            // and the budget (6 two-value frames) really fills.
            let plan = FaultPlan::new().with_fault(FaultSpec {
                path: CHECKPOINT_FILE.into(),
                op: VfsOp::Rename,
                nth: 1,
                kind: StorageFault::Enospc,
                count: u32::MAX,
            });
            config.wal.vfs = Arc::new(FaultyVfs::new(plan));
            config.wal.retain_bytes = Some(6 * 45);
            config.epoch = 1;
        },
        &script,
    );
}

/// The three migration arms, their silence-on-failure policy, and acks
/// released by the cut's fsync ahead of the `MigrateAccept`.
#[test]
fn migration_arms_match() {
    use Step::{Burst, EchoAccept, Send};
    let script = [
        Send(0, hello(PROTOCOL_VERSION)),
        Send(0, batch(0, 0, 4)),
        // The batch's ack is still queued when the offer arrives (or
        // was just released by a dry queue): either way it must reach
        // the wire before the MigrateAccept.
        Burst(
            0,
            vec![batch(1, 0, 4), Message::MigrateOffer { start: 1, end: 2 }],
        ),
        Send(1, Message::MigrateOffer { start: 2, end: 2 }), // empty range: silence
        Send(
            1,
            Message::MigrateAccept {
                start: 5,
                end: 6,
                cursor: 1,
                snapshot: b"not a snapshot".to_vec(),
            },
        ), // undecodable: silence
        EchoAccept(0),
        Send(
            1,
            Message::MigrateDone {
                start: 1,
                end: 2,
                cursor: 8,
            },
        ),
        Send(0, batch(1, 4, 2)), // the range is home again
        Send(0, Message::Fin),
    ];
    differential("migrate", false, |_| {}, &script);
}

/// A core pinned to v1 refuses a v2 hello by naming v1, and keeps
/// serving stop-and-wait.
#[test]
fn v1_only_negotiation_matches() {
    use Step::Send;
    let script = [
        Send(0, hello(PROTOCOL_VERSION)),
        Send(1, hello(PROTOCOL_V1)),
        Send(1, data(0, 0)),
        Send(1, Message::Fin),
    ];
    differential("v1only", true, |_| {}, &script);
}
