//! The gateway daemon: socket front end for the [`Collector`].
//!
//! Threading model (the gateway shares the engine's thread-spawning
//! privilege — see the `thread-spawn` lint):
//!
//! * an **accept thread** polls the listener non-blocking, spawning one
//!   **reader thread** per connection;
//! * each reader decodes frames incrementally (reads are bounded by a
//!   read timeout so a dead peer can never wedge a thread) and pushes
//!   events into one **bounded** channel — when the channel fills, the
//!   reader blocks, it stops reading its socket, and the kernel's
//!   receive window pushes back on the sender: backpressure end to
//!   end, no queue without a limit anywhere;
//! * the caller's thread runs [`Server::run`], handing each event to
//!   the sans-IO [`protocol::Core`](crate::protocol::Core) and writing
//!   the replies it emits back on a cloned write half — the protocol
//!   itself lives there, shared with the model checker's
//!   [`StepServer`](crate::harness::StepServer).
//!
//! A frame-level error (bad CRC, oversized length) is
//! connection-fatal: the stream offset can no longer be trusted, so
//! the connection is dropped, the event is counted, and the client's
//! retry protocol re-delivers whatever lost its ack. A `Fin` frame
//! (acked with `FinAck`) ends the run: the server shuts down its
//! threads and the collector can be finished for a report.

use crate::collector::{Collector, GatewayError};
use crate::frame::{encode_frame, FrameBuffer, FrameError, Message, PROTOCOL_V1};
use crate::net::{is_timeout, Listener, Stream};
use crate::protocol::{AckDiscipline, Core, Reply};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Endpoint to bind: `"127.0.0.1:0"` or `"unix:/path"`.
    pub bind: String,
    /// Per-read socket timeout (also the shutdown poll interval for
    /// reader threads).
    pub read_timeout: Duration,
    /// Capacity of the bounded ingest event queue.
    pub queue_capacity: usize,
    /// Batches a v2 connection may keep in flight (granted in the
    /// `HelloAck`).
    pub credit_window: u32,
    /// Speak only protocol v1: a v2 `Hello` is answered with a typed
    /// `HelloReject { supported: 1 }` and the connection is dropped,
    /// exactly like an unknown version. Lets an operator pin a fleet
    /// to stop-and-wait (and gives tests a live rejection path).
    pub v1_only: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".into(),
            read_timeout: Duration::from_millis(200),
            queue_capacity: 1024,
            credit_window: 32,
            v1_only: false,
        }
    }
}

/// Transport-level accounting from one serve run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections dropped on a frame-level decode error.
    pub bad_frames: u64,
    /// Hellos refused for carrying an unknown protocol version
    /// (answered with `HelloReject`, then dropped — a typed outcome,
    /// not corrupt-frame noise).
    pub version_rejects: u64,
    /// The decode error behind each dropped connection, in order
    /// (surfaced by the CLI on stderr).
    pub frame_errors: Vec<FrameError>,
    /// Wall nanoseconds reader threads spent decoding frames (bench
    /// stage breakdown).
    pub decode_ns: u64,
    /// Wall nanoseconds the event loop spent writing replies (bench
    /// stage breakdown).
    pub ack_ns: u64,
}

/// One event from the socket threads to the collector loop.
enum Event {
    /// Connection `id` opened; carries the ack write half.
    Opened(usize, Stream),
    /// Connection `id` decoded one message.
    Msg(usize, Message),
    /// Connection `id` died on a frame error.
    BadFrame(usize, FrameError),
    /// Connection `id` closed (EOF or I/O error).
    Closed(usize),
}

/// A started gateway server. Create with [`Server::start`] (which
/// spawns the socket threads), then drive the collector with
/// [`Server::run`].
pub struct Server {
    addr: String,
    core: Core,
    shutdown: Arc<AtomicBool>,
    events: Receiver<Event>,
    decode_ns: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the endpoint and spawns the accept thread.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the endpoint cannot be bound.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let (listener, addr) = Listener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded(config.queue_capacity);
        let accept_shutdown = Arc::clone(&shutdown);
        let read_timeout = config.read_timeout;
        let decode_ns = Arc::new(AtomicU64::new(0));
        let accept_decode_ns = Arc::clone(&decode_ns);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(
                listener,
                tx,
                accept_shutdown,
                read_timeout,
                accept_decode_ns,
            );
        });
        Ok(Self {
            addr,
            core: Core::new(config.credit_window, config.v1_only, AckDiscipline::Durable),
            shutdown,
            events: rx,
            decode_ns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The resolved address clients should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A flag that stops the server when set (for soak harnesses that
    /// end a run without a `Fin`).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Drains delivered frames into `collector` until a client sends
    /// `Fin` (or the shutdown flag is raised), acking each durable
    /// record, then tears the socket threads down. The collector is
    /// left ready for [`Collector::finish`].
    ///
    /// # Errors
    ///
    /// [`GatewayError`] if the collector's WAL fails; socket-level
    /// errors are per-connection events, not run failures.
    pub fn run(mut self, collector: &mut Collector) -> Result<ServerStats, GatewayError> {
        let mut stats = ServerStats::default();
        let result = self.event_loop(collector, &mut stats);
        // Stop the socket threads and unblock any reader stuck on a
        // full queue by draining until every sender is gone.
        self.shutdown.store(true, Ordering::SeqCst);
        while !matches!(
            self.events.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Disconnected)
        ) {}
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        stats.decode_ns = self.decode_ns.load(Ordering::Relaxed);
        stats.version_rejects = self.core.version_rejects();
        result.map(|()| stats)
    }

    fn event_loop(
        &mut self,
        collector: &mut Collector,
        stats: &mut ServerStats,
    ) -> Result<(), GatewayError> {
        let mut writers: BTreeMap<usize, Stream> = BTreeMap::new();
        let mut replies: Vec<Reply> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            // A momentarily dry queue is the core's flush interval.
            let event = match self.events.try_recv() {
                Ok(e) => e,
                Err(TryRecvError::Empty) => {
                    self.core.on_queue_dry(collector, &mut replies)?;
                    write_replies(&mut writers, &mut replies, stats);
                    match self.events.recv_timeout(Duration::from_millis(100)) {
                        Ok(e) => e,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return Ok(()),
                    }
                }
                Err(TryRecvError::Disconnected) => return Ok(()),
            };
            match event {
                Event::Opened(id, writer) => {
                    stats.connections += 1;
                    writers.insert(id, writer);
                }
                Event::Msg(id, msg) => {
                    // Whatever the core emitted before a fatal error
                    // is still sent: those acks cover durable data.
                    let fin = self.core.on_message(collector, id, msg, &mut replies);
                    write_replies(&mut writers, &mut replies, stats);
                    if fin? {
                        return Ok(());
                    }
                }
                Event::BadFrame(id, e) => {
                    stats.bad_frames += 1;
                    stats.frame_errors.push(e);
                    self.core.on_closed(id);
                    if let Some(w) = writers.remove(&id) {
                        let _ = w.shutdown();
                    }
                }
                Event::Closed(id) => {
                    self.core.on_closed(id);
                    writers.remove(&id);
                }
            }
        }
    }
}

/// Writes each reply as one frame, in order, draining `replies`; a
/// reply that closes its connection drops the writer afterwards. A
/// failed write is the client's problem — it retries and the seq dedup
/// absorbs the re-delivery. The wall time goes to the ack stage of the
/// bench breakdown.
fn write_replies(
    writers: &mut BTreeMap<usize, Stream>,
    replies: &mut Vec<Reply>,
    stats: &mut ServerStats,
) {
    if replies.is_empty() {
        return;
    }
    let start = std::time::Instant::now();
    for reply in replies.drain(..) {
        if let Some(w) = writers.get_mut(&reply.conn) {
            let _ = w.write_all(&encode_frame(&reply.message));
            if reply.close {
                let _ = w.shutdown();
                writers.remove(&reply.conn);
            }
        }
    }
    stats.ack_ns = stats
        .ack_ns
        .saturating_add(start.elapsed().as_nanos() as u64);
}

fn accept_loop(
    listener: Listener,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    read_timeout: Duration,
    decode_ns: Arc<AtomicU64>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let id = next_id;
                next_id += 1;
                let ok = stream.set_read_timeout(Some(read_timeout)).is_ok()
                    && stream
                        .set_write_timeout(Some(Duration::from_secs(5)))
                        .is_ok();
                let writer = stream.try_clone();
                match (ok, writer) {
                    (true, Ok(writer)) => {
                        if events.send(Event::Opened(id, writer)).is_err() {
                            return;
                        }
                        let tx = events.clone();
                        let sd = Arc::clone(&shutdown);
                        let dns = Arc::clone(&decode_ns);
                        readers.push(std::thread::spawn(move || {
                            reader_loop(id, stream, tx, sd, dns);
                        }));
                    }
                    _ => {
                        let _ = stream.shutdown();
                    }
                }
            }
            Err(e) if is_timeout(&e) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for handle in readers {
        let _ = handle.join();
    }
}

fn reader_loop(
    id: usize,
    mut stream: Stream,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    decode_ns: Arc<AtomicU64>,
) {
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 8192];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = events.send(Event::Closed(id));
                return;
            }
            Ok(n) => {
                let decode_start = std::time::Instant::now();
                fb.feed(&buf[..n]);
                loop {
                    // The decode clock covers framing + parse only;
                    // it stops before the (possibly blocking) queue
                    // send so backpressure is not billed as decoding.
                    let next = fb.next_message();
                    decode_ns
                        .fetch_add(decode_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    match next {
                        Ok(Some(msg)) => {
                            // Blocking send on the bounded queue is the
                            // backpressure point.
                            if events.send(Event::Msg(id, msg)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = stream.shutdown();
                            let _ = events.send(Event::BadFrame(id, e));
                            return;
                        }
                    }
                }
            }
            Err(e) if is_timeout(&e) => continue,
            Err(_) => {
                let _ = events.send(Event::Closed(id));
                return;
            }
        }
    }
}

/// A legacy (v1) Hello frame for raw-socket clients to open with
/// (re-exported convenience). The server sends no reply to a v1
/// Hello, so a raw connection can stream Data frames immediately.
pub fn hello_frame() -> Vec<u8> {
    encode_frame(&Message::Hello {
        version: PROTOCOL_V1,
        epoch: 0,
    })
}
