//! Exact transport accounting under scripted adversity: a bare
//! `TcpListener` plays the server role from a deterministic script
//! (drop the connection here, swallow an ack there), and the
//! `SensorUplink`'s [`UplinkStats`] must come out exactly right —
//! every retransmit, reconnect and timeout attributed, nothing
//! swallowed by the retry loop. The one-shot probes face the same
//! kind of scripted peer and must give up within their timeout.

use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    probe_heartbeat, probe_migrate_cut, FrameBuffer, Message, SensorUplink, UplinkConfig,
};
use sentinet_sim::SensorId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// What the scripted server does after reading one `Data` frame,
/// keyed by the global (retransmissions included) data-frame count.
#[derive(Clone, Copy, PartialEq)]
enum Script {
    /// Ack the frame normally.
    Ack,
    /// Close the connection without acking (abrupt server death).
    Close,
    /// Swallow the frame: no ack, connection stays up (slow server).
    Swallow,
}

/// Serves connections off `listener`, following `script` per data
/// frame read (frames beyond the script are acked). Returns after
/// `Fin`, yielding the total number of data frames read.
fn scripted_server(listener: TcpListener, script: Vec<Script>) -> u64 {
    let mut data_reads = 0u64;
    let mut buf = [0u8; 4096];
    'conns: for stream in listener.incoming() {
        let mut stream: TcpStream = stream.expect("accept");
        let mut fb = FrameBuffer::new();
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => continue 'conns,
                Ok(n) => n,
            };
            fb.feed(&buf[..n]);
            loop {
                match fb.next_message().expect("well-formed client frame") {
                    None => break,
                    Some(Message::Data { sensor, seq, .. }) => {
                        data_reads += 1;
                        let action = script
                            .get(data_reads as usize - 1)
                            .copied()
                            .unwrap_or(Script::Ack);
                        match action {
                            Script::Close => continue 'conns,
                            Script::Swallow => {}
                            Script::Ack => stream
                                .write_all(&encode_frame(&Message::Ack { sensor, seq }))
                                .expect("write ack"),
                        }
                    }
                    Some(Message::Fin) => {
                        stream
                            .write_all(&encode_frame(&Message::FinAck))
                            .expect("write finack");
                        return data_reads;
                    }
                    // Hello (per connection) needs no reply on v1.
                    Some(_) => {}
                }
            }
        }
    }
    unreachable!("listener closed before Fin");
}

fn drill_uplink(addr: String) -> SensorUplink {
    let mut config = UplinkConfig::new(addr);
    config.ack_timeout = Duration::from_millis(250);
    config.max_attempts = 8;
    config.backoff_base = Duration::from_millis(2);
    config.backoff_cap = Duration::from_millis(10);
    config.jitter_pct = 0;
    SensorUplink::new(config)
}

/// Sends `count` readings, asserting every send is eventually acked.
fn send_all(uplink: &mut SensorUplink, count: u64) {
    for i in 0..count {
        let t = 300 * (i + 1);
        uplink
            .send(SensorId(0), t, &[20.0 + i as f64])
            .expect("send acked");
    }
}

#[test]
fn three_scripted_disconnects_are_counted_exactly() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Reads 4, 8 and 12 die without an ack; the retransmit of each
    // lands on a fresh connection as the very next read.
    let script: Vec<Script> = (1..=13)
        .map(|n| {
            if n % 4 == 0 {
                Script::Close
            } else {
                Script::Ack
            }
        })
        .collect();
    let server = std::thread::spawn(move || scripted_server(listener, script));

    let mut uplink = drill_uplink(addr);
    send_all(&mut uplink, 10);

    // stats() is read before finish(): Fin/FinAck traffic has its own
    // frame count and must not blur the data-frame ledger.
    let stats = uplink.stats();
    assert_eq!(stats.frames_sent, 13, "10 readings + 3 retransmissions");
    assert_eq!(stats.retransmits, 3, "one retransmit per scripted close");
    assert_eq!(stats.reconnects, 3, "one reconnect per scripted close");
    assert_eq!(
        stats.timeouts, 0,
        "closes are detected as EOF, not by the ack deadline"
    );
    assert_eq!(stats.nacks, 0);
    assert_eq!(stats.acked, 10, "every reading acked exactly once");

    uplink.finish().expect("fin/finack");
    assert_eq!(server.join().expect("server thread"), 13);
}

/// Accepts `conns` connections one after another; on each, reads the
/// request, writes `reply` (nothing, for a silent peer) and holds the
/// connection open until the client hangs up.
fn scripted_peer(reply: &'static [u8], conns: usize) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        for stream in listener.incoming().take(conns) {
            let mut stream = stream.expect("accept");
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(reply);
            while matches!(stream.read(&mut buf), Ok(n) if n > 0) {}
        }
    });
    (addr, peer)
}

/// The one-shot probes never hang on a peer that will not answer: a
/// silent peer costs them their timeout, a garbled reply (a length
/// prefix past any frame) ends them early, and both come back `None`.
#[test]
fn probes_give_up_on_a_silent_or_garbled_peer_within_their_timeout() {
    let timeout = Duration::from_millis(300);
    let slack = Duration::from_secs(2);
    for (name, reply) in [("silent", &b""[..]), ("garbled", &[0xFF; 16][..])] {
        let (addr, peer) = scripted_peer(reply, 2);
        let start = Instant::now();
        assert_eq!(probe_heartbeat(&addr, 1, timeout), None, "{name}");
        let heartbeat = start.elapsed();
        let start = Instant::now();
        assert_eq!(probe_migrate_cut(&addr, 0, 2, timeout), None, "{name}");
        let cut = start.elapsed();
        for took in [heartbeat, cut] {
            assert!(took < timeout + slack, "{name}: took {took:?}");
            if name == "silent" {
                assert!(took >= timeout, "{name}: gave up early, {took:?}");
            }
        }
        peer.join().expect("peer thread");
    }
}

#[test]
fn swallowed_acks_surface_as_timeouts_not_reconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Reads 2 and 5 are swallowed: the server stays up but never
    // acks, so the client must burn its ack deadline and retransmit
    // on the *same* connection.
    let script = vec![
        Script::Ack,
        Script::Swallow,
        Script::Ack,
        Script::Ack,
        Script::Swallow,
        Script::Ack,
        Script::Ack,
    ];
    let server = std::thread::spawn(move || scripted_server(listener, script));

    let mut uplink = drill_uplink(addr);
    send_all(&mut uplink, 5);

    let stats = uplink.stats();
    assert_eq!(stats.frames_sent, 7, "5 readings + 2 retransmissions");
    assert_eq!(stats.retransmits, 2, "one retransmit per swallowed ack");
    assert_eq!(stats.timeouts, 2, "each swallowed ack burns one deadline");
    assert_eq!(stats.reconnects, 0, "the connection never dropped");
    assert_eq!(stats.nacks, 0);
    assert_eq!(stats.acked, 5);

    uplink.finish().expect("fin/finack");
    assert_eq!(server.join().expect("server thread"), 7);
}
