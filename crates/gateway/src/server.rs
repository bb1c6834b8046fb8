//! The gateway daemon: socket front end for the [`Collector`].
//!
//! Threading model (the gateway shares the engine's thread-spawning
//! privilege — see the `thread-spawn` lint):
//!
//! * an **accept thread** blocks in `accept`, spawning one **reader
//!   thread** per connection ([`Server::run`]'s teardown wakes it with
//!   a connection of its own);
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
//!   [`StepServer`](crate::harness::StepServer);
//! * a **syncer thread**, started by the first sync the loop rule
//!   starts (see [`protocol`](crate::protocol)), runs each job with
//!   [`Syncer`] — the policy fsync on a second open of the active WAL
//!   segment while the event loop admits the next batches, then the
//!   commit of a restore point riding it — and posts each outcome back
//!   on the event queue. Its acks are released when the fsync
//!   completes, against the cursor captured before it started, so a
//!   group is as many batches as were admitted meanwhile, at most the
//!   credit window. The loop lands the restore point (cursor
//!   advertised, segments reclaimed); it only takes the snapshot.
//!   Under `fsync=never` the commit is the thread's only work;
//! * before any of these, [`Collector::open`] may run a **replay
//!   worker**: once a reopen has read 256 KiB of log it scans and
//!   re-sequences the rest on one scoped thread while the opening thread
//!   runs the detector on what it releases, and it is joined before
//!   `open` returns.
//!
//! A frame-level error (bad CRC, oversized length) is
//! connection-fatal: the stream offset can no longer be trusted, so
//! the connection is dropped, the event is counted, and the client's
//! retry protocol re-delivers whatever lost its ack. A `Fin` frame
//! (acked with `FinAck`) ends the run: the server shuts down its
//! threads and the collector can be finished for a report.

use crate::collector::{Collector, GatewayError};
use crate::frame::{
    encode_payload, frame_with, Frame, FrameBuffer, FrameError, Message, ReadingArena,
};
use crate::net::{is_timeout, Listener, Stream};
use crate::protocol::{Core, Reply, RestoreStep, Syncer};
use crate::wal::{SyncDone, SyncStart, SyncTicket, WalConfig};
use sentinet_sim::SensorId;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Endpoint to bind: `"127.0.0.1:0"` or `"unix:/path"`.
    pub bind: String,
    /// Batches a v2 connection may keep in flight (granted in the
    /// `HelloAck`).
    pub credit_window: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".into(),
            credit_window: 32,
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
    /// Connection `id` decoded one `DataBatch` frame — sensor, first
    /// sequence number — into an arena that is now the loop's.
    Batch(usize, SensorId, u64, ReadingArena),
    /// Connection `id` died on a frame error.
    BadFrame(usize, FrameError),
    /// Connection `id` closed (EOF or I/O error).
    Closed(usize),
    /// The syncer thread finished the overlapped WAL fsync of `ticket`.
    Synced(SyncTicket, SyncDone),
    /// The syncer thread ran the commit of the restore point that rode
    /// a sync; the collector holds the outcome.
    RestorePoint,
}

/// Capacity of the bounded ingest event queue.
const EVENT_QUEUE: usize = 1024;

/// Per-read socket timeout, also the reader threads' shutdown poll
/// interval.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// The syncer thread and its job queue (one slot: the loop hands it a
/// job only while it is idle).
struct SyncThread {
    jobs: SyncSender<SyncStart>,
    thread: JoinHandle<()>,
}

impl SyncThread {
    fn spawn(events: SyncSender<Event>, wal: WalConfig) -> Self {
        let (jobs, queue) = sync_channel::<SyncStart>(1);
        let thread = std::thread::spawn(move || {
            let mut syncer = Syncer::default();
            for job in queue.iter() {
                syncer.take(job);
                if let Some((ticket, done)) = syncer.fsync() {
                    if events.send(Event::Synced(ticket, done)).is_err() {
                        return;
                    }
                }
                while let Some(step) = syncer.step_restore(&wal) {
                    if step == RestoreStep::Land && events.send(Event::RestorePoint).is_err() {
                        return;
                    }
                }
            }
        });
        Self { jobs, thread }
    }
}

/// A started gateway server. Create with [`Server::start`] (which
/// spawns the socket threads), then drive the collector with
/// [`Server::run`].
pub struct Server {
    addr: String,
    core: Core,
    shutdown: Arc<AtomicBool>,
    events: Receiver<Event>,
    /// The event queue's sending side, for the syncer's completions;
    /// dropped at teardown so the queue can disconnect.
    events_tx: Option<SyncSender<Event>>,
    syncer: Option<SyncThread>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel(EVENT_QUEUE);
        let events_tx = tx.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let decode_ns = Arc::new(AtomicU64::new(0));
        let accept_decode_ns = Arc::clone(&decode_ns);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, tx, accept_shutdown, accept_decode_ns);
        });
        Ok(Self {
            addr,
            core: Core::new(config.credit_window),
            shutdown,
            events: rx,
            events_tx: Some(events_tx),
            syncer: None,
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
        // Closing the job queue lets the syncer finish the fsync it is
        // in and exit; its last completion is landed below.
        let syncer_thread = self.syncer.take().map(|syncer| syncer.thread);
        self.events_tx = None;
        // Stop the socket threads — the accept thread is blocked in
        // `accept`, so wake it with a connection — and unblock any
        // reader stuck on a full queue by draining until every sender
        // is gone.
        self.shutdown.store(true, Ordering::SeqCst);
        drop(Stream::connect(&self.addr));
        loop {
            match self.events.recv_timeout(Duration::from_millis(50)) {
                // A failed fsync must still poison the WAL: the inline
                // flush behind a `Fin` ran on another open of the file
                // and proves nothing about this one.
                Ok(Event::Synced(ticket, done)) => collector.complete_sync(ticket, done),
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for handle in self.accept_thread.take().into_iter().chain(syncer_thread) {
            let _ = handle.join();
        }
        // A run that ended without a `Fin` still leaves no restore
        // point half-way.
        let result = result.and_then(|()| collector.flush_restore_points());
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
        let mut drain = Drain::default();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let event = match self.events.try_recv() {
                Ok(e) => e,
                Err(TryRecvError::Empty) => {
                    // A momentarily dry queue is the group commit's
                    // flush interval.
                    let job = self.core.on_queue_dry(collector, &mut replies)?;
                    self.start_sync(collector, job);
                    write_replies(&mut writers, &mut replies, &mut drain, stats);
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
                    write_replies(&mut writers, &mut replies, &mut drain, stats);
                    if fin? {
                        return Ok(());
                    }
                    self.start_sync(collector, None);
                }
                Event::Batch(id, sensor, seq, arena) => {
                    let done = self
                        .core
                        .on_batch(collector, id, sensor, seq, &arena, &mut replies);
                    write_replies(&mut writers, &mut replies, &mut drain, stats);
                    done?;
                    self.start_sync(collector, None);
                }
                Event::Synced(ticket, done) => {
                    self.core.on_synced(collector, ticket, done, &mut replies);
                    write_replies(&mut writers, &mut replies, &mut drain, stats);
                    self.start_sync(collector, None);
                }
                Event::RestorePoint => {
                    collector.land_restore_point();
                    self.start_sync(collector, None);
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

impl Server {
    /// Hands the syncer thread `job` (the dry queue's), or else the next
    /// sync if one is due — after every message and completion, so a
    /// sync starts once the syncer is idle. Spawns the thread on the first.
    fn start_sync(&mut self, collector: &mut Collector, job: Option<SyncStart>) {
        let Some(events) = &self.events_tx else {
            return;
        };
        let job = job.or_else(|| {
            collector
                .sync_due()
                .then(|| collector.begin_sync())
                .flatten()
        });
        let Some(job) = job else {
            return;
        };
        let ticket = job.ticket;
        let syncer = self.syncer.get_or_insert_with(|| {
            SyncThread::spawn(events.clone(), collector.wal_config().clone())
        });
        if let (Err(_), Some(ticket)) = (syncer.jobs.send(job), ticket) {
            // The syncer is gone (its thread panicked): nothing will
            // ever cover this ticket, so fail it and fail-stop.
            collector.complete_sync(ticket, SyncDone::failed("syncer thread is gone"));
        }
    }
}

/// A reply drain encoded: each connection's frames back to back in one
/// buffer, reused from drain to drain.
#[derive(Debug, Default)]
struct Drain {
    bytes: Vec<u8>,
    /// Per connection, in `bytes` order: where its frames end, and
    /// whether the last of them closes it.
    runs: Vec<(usize, usize, bool)>,
    order: Vec<usize>,
}

impl Drain {
    /// Encodes `replies`, each connection's in their order, up to and
    /// including the one that closes it: nothing follows a closing
    /// frame. No IO — [`write_replies`] writes each run once.
    fn encode(&mut self, replies: &[Reply]) {
        self.bytes.clear();
        self.runs.clear();
        self.order.clear();
        self.order.extend(0..replies.len());
        self.order.sort_unstable_by_key(|&i| (replies[i].conn, i));
        for reply in self.order.iter().map(|&i| &replies[i]) {
            if let Some(&(_, _, closed)) = self.runs.last().filter(|run| run.0 == reply.conn) {
                if closed {
                    continue;
                }
                self.runs.pop();
            }
            frame_with(&mut self.bytes, |out| encode_payload(&reply.message, out));
            self.runs.push((reply.conn, self.bytes.len(), reply.close));
        }
    }
}

/// Writes a drain of `replies` with one write a connection, emptying
/// `replies`; a connection whose run closes it is dropped afterwards. A
/// failed write is the client's problem — it retries and the seq dedup
/// absorbs the re-delivery. The wall time goes to the ack stage of the
/// bench breakdown.
fn write_replies(
    writers: &mut BTreeMap<usize, Stream>,
    replies: &mut Vec<Reply>,
    drain: &mut Drain,
    stats: &mut ServerStats,
) {
    if replies.is_empty() {
        return;
    }
    let start = std::time::Instant::now();
    drain.encode(replies);
    replies.clear();
    let mut from = 0;
    for &(conn, end, close) in &drain.runs {
        if let Some(w) = writers.get_mut(&conn) {
            let _ = w.write_all(&drain.bytes[from..end]);
            if close {
                let _ = w.shutdown();
                writers.remove(&conn);
            }
        }
        from = end;
    }
    stats.ack_ns = stats
        .ack_ns
        .saturating_add(start.elapsed().as_nanos() as u64);
}

fn accept_loop(
    listener: Listener,
    events: SyncSender<Event>,
    shutdown: Arc<AtomicBool>,
    decode_ns: Arc<AtomicU64>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0usize;
    // Blocks in `accept`; teardown sets the flag and then connects, so
    // the connection that wakes this loop is the one it discards.
    loop {
        match listener.accept() {
            Ok(_) if shutdown.load(Ordering::SeqCst) => break,
            Ok(stream) => {
                let id = next_id;
                next_id += 1;
                let ok = stream.set_read_timeout(Some(READ_TIMEOUT)).is_ok()
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
    events: SyncSender<Event>,
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
                let mut decode_start = std::time::Instant::now();
                fb.feed(&buf[..n]);
                loop {
                    // The decode clock covers framing + parse only:
                    // it stops before the (possibly blocking) queue
                    // send and restarts after it, so a read carrying
                    // several frames bills each frame's decode once
                    // and backpressure never.
                    let next = fb.next_frame();
                    decode_ns
                        .fetch_add(decode_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    match next {
                        Ok(Some(frame)) => {
                            let event = match frame {
                                Frame::Batch(s, seq, arena) => Event::Batch(id, s, seq, arena),
                                Frame::Message(msg) => Event::Msg(id, msg),
                            };
                            // Blocking send on the bounded queue is the
                            // backpressure point.
                            if events.send(event).is_err() {
                                return;
                            }
                            decode_start = std::time::Instant::now();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, PROTOCOL_V1};

    /// Two frames arrive in one `read` while the event queue is full,
    /// so both sends stall until the test drains it. The decode clock
    /// must hold the two decodes only: before the fix it billed frame
    /// 1's decode twice and every stall before the last decode.
    #[test]
    fn decode_clock_excludes_queue_stalls() {
        const STALL: Duration = Duration::from_millis(120);
        let (listener, addr) = Listener::bind("127.0.0.1:0").unwrap();
        let mut client = Stream::connect(&addr).unwrap();
        let hello = encode_frame(&Message::Hello {
            version: PROTOCOL_V1,
            epoch: 0,
        });
        let mut wire = hello.clone();
        wire.extend(hello);
        client.write_all(&wire).unwrap();
        let served = listener.accept().unwrap();
        served
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        let (tx, rx) = sync_channel::<Event>(1);
        // One placeholder event: the queue is full.
        assert!(tx.send(Event::Closed(usize::MAX)).is_ok());
        let decode_ns = Arc::new(AtomicU64::new(0));
        let reader = {
            let decode_ns = Arc::clone(&decode_ns);
            let shutdown = Arc::new(AtomicBool::new(false));
            std::thread::spawn(move || reader_loop(7, served, tx, shutdown, decode_ns))
        };
        std::thread::sleep(STALL);
        assert!(matches!(rx.recv().unwrap(), Event::Closed(usize::MAX)));
        for _ in 0..2 {
            assert!(matches!(rx.recv().unwrap(), Event::Msg(7, _)));
        }
        drop(client);
        assert!(matches!(rx.recv().unwrap(), Event::Closed(7)));
        reader.join().unwrap();

        let billed = Duration::from_nanos(decode_ns.load(Ordering::Relaxed));
        assert!(
            billed < STALL / 4,
            "decode clock billed {billed:?} for two hello frames; the stall was {STALL:?}"
        );
    }

    /// A drain is each connection's frames end to end — exactly what
    /// one `encode_frame` a reply would have written there, in order —
    /// and nothing for a connection after the frame that closes it.
    #[test]
    fn a_drain_is_one_run_of_frames_a_connection() {
        let ack = |sensor, seq| Message::AckUpTo {
            sensor: SensorId(sensor),
            seq,
        };
        let reply = |conn, message, close| Reply {
            conn,
            message,
            close,
        };
        let replies = vec![
            reply(7, ack(1, 10), false),
            reply(3, ack(2, 4), false),
            reply(7, ack(1, 11), false),
            reply(3, Message::HelloReject { supported: 1 }, true),
            reply(
                7,
                Message::Nack {
                    sensor: SensorId(1),
                    seq: 12,
                },
                false,
            ),
            reply(3, ack(2, 5), false),
            reply(7, ack(5, 0), false),
            reply(3, Message::FinAck, false),
            reply(7, Message::FinAck, false),
        ];
        let mut drain = Drain::default();
        // Twice: the second drain reuses the first one's buffers.
        for _ in 0..2 {
            drain.encode(&replies);
            let mut expect: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
            let mut closed = Vec::new();
            for r in &replies {
                if !closed.contains(&r.conn) {
                    expect
                        .entry(r.conn)
                        .or_default()
                        .extend(encode_frame(&r.message));
                }
                if r.close {
                    closed.push(r.conn);
                }
            }
            let mut got: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
            let mut from = 0;
            for &(conn, end, _) in &drain.runs {
                got.insert(conn, drain.bytes[from..end].to_vec());
                from = end;
            }
            assert_eq!(got, expect);
            assert_eq!(drain.runs.len(), 2, "one write a connection");
            let closes: Vec<(usize, bool)> = drain.runs.iter().map(|r| (r.0, r.2)).collect();
            assert_eq!(closes, vec![(3, true), (7, false)]);
        }
    }
}
