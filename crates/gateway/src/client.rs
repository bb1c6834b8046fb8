//! Sensor-side clients: the stop-and-wait [`SensorUplink`] (protocol
//! v1) and the pipelined, credit-windowed [`PipelinedUplink`]
//! (protocol v2).
//!
//! The v1 uplink is stop-and-wait: each reading is framed with a
//! per-sensor sequence number, sent, and retransmitted until the
//! server acknowledges that exact `(sensor, seq)` — with capped
//! exponential backoff plus seeded jitter between attempts, so a
//! retry storm from many motes decorrelates deterministically. An I/O
//! error tears the connection down and the next attempt reconnects,
//! which transparently rides out a server restart: whatever lost its
//! ack is re-sent on the new connection and the server's sequence
//! dedup absorbs anything that was already durable.
//!
//! The v2 uplink removes the per-reading round trip: readings are
//! coalesced into `DataBatch` frames, many batches ride the wire
//! unacknowledged at once (bounded by the credit window the server
//! grants in its `HelloAck`), and the server's cumulative `AckUpTo`
//! retires whole batches at a time. Durability semantics are
//! unchanged — an `AckUpTo` is only ever sent for readings whose WAL
//! extent a completed fsync covers — so the pipeline's only effect is
//! latency hiding. On timeout, NACK, or reconnection the uplink
//! retransmits unacked batches in order and the server's dedup
//! absorbs whatever was already durable.
//!
//! [`SensorUplink::send_at`] exposes the raw `(seq, …)` coordinate so
//! the network simulator can inject duplicates and reordering through
//! the real client path; [`PipelinedUplink::send_at`] lets the
//! federation tier carry its routed sequence numbers, which continue
//! across a migration, over a fresh v2 uplink.

use crate::frame::{
    encode_batch_payload, encode_frame, frame_with, FrameBuffer, Message, ReadingArena,
    PROTOCOL_V1, PROTOCOL_VERSION,
};
use crate::net::{is_timeout, Stream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinet_sim::{SensorId, Timestamp};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Uplink tuning.
#[derive(Debug, Clone)]
pub struct UplinkConfig {
    /// Endpoint to connect to: `"127.0.0.1:4410"` or `"unix:/path"`.
    pub connect: String,
    /// How long one attempt waits for its ack before retrying.
    pub ack_timeout: Duration,
    /// Attempts per frame before giving up.
    pub max_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the jitter added to each backoff.
    pub jitter_seed: u64,
    /// Jitter ceiling as a percentage of the computed delay (0
    /// disables jitter entirely — fully deterministic backoff, the
    /// knob federation drills use to compress time). Values above 100
    /// are clamped to 100.
    pub jitter_pct: u32,
    /// Fence epoch carried in the Hello handshake (0 = unfenced; the
    /// field is then omitted from the wire so pre-fencing servers and
    /// the pinned v1 Hello bytes are untouched). Federation links set
    /// this to the partition's failover epoch so a collector that was
    /// partitioned away learns it has been superseded the moment any
    /// newer-epoch peer connects.
    pub epoch: u64,
}

impl UplinkConfig {
    /// Defaults for `connect`: 500 ms ack wait, 8 attempts, 25 ms
    /// base / 2 s cap backoff with up to 50% seeded jitter.
    pub fn new(connect: impl Into<String>) -> Self {
        Self {
            connect: connect.into(),
            ack_timeout: Duration::from_millis(500),
            max_attempts: 8,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 7,
            jitter_pct: 50,
            epoch: 0,
        }
    }
}

/// Why the uplink gave up.
#[derive(Debug)]
pub enum UplinkError {
    /// Every attempt at one frame went unacknowledged.
    Exhausted {
        /// Sensor of the abandoned frame.
        sensor: SensorId,
        /// Sequence number of the abandoned frame.
        seq: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// Every attempt at the `Fin` handshake went unacknowledged.
    FinExhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// Every attempt to (re)connect and complete the version
    /// handshake failed.
    ConnectExhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// The server refused the client's protocol version.
    VersionRejected {
        /// Highest version the server supports.
        supported: u32,
    },
}

impl fmt::Display for UplinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UplinkError::Exhausted {
                sensor,
                seq,
                attempts,
            } => write!(
                f,
                "no ack for {sensor} seq {seq} after {attempts} attempt(s)"
            ),
            UplinkError::FinExhausted { attempts } => {
                write!(f, "no fin-ack after {attempts} attempt(s)")
            }
            UplinkError::ConnectExhausted { attempts } => {
                write!(f, "handshake failed after {attempts} attempt(s)")
            }
            UplinkError::VersionRejected { supported } => {
                write!(
                    f,
                    "server rejected protocol version (supports up to {supported})"
                )
            }
        }
    }
}

impl std::error::Error for UplinkError {}

/// Client-side transport accounting, surfaced through
/// [`GatewayReport::uplink`](crate::collector::GatewayReport::uplink)
/// so pipelining regressions (retry storms, silent timeout churn) are
/// observable instead of being swallowed by the backoff loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UplinkStats {
    /// Data-carrying frames written to the socket, including
    /// retransmissions.
    pub frames_sent: u64,
    /// Frames re-sent after a timeout, NACK, or reconnection.
    pub retransmits: u64,
    /// Ack waits that hit the deadline.
    pub timeouts: u64,
    /// NACKs received from the server.
    pub nacks: u64,
    /// Connections re-established after a failure (the first connect
    /// is not counted).
    pub reconnects: u64,
    /// Frames (v1) or batches (v2) fully acknowledged.
    pub acked: u64,
}

/// The sensor-side client. One uplink may carry any number of
/// sensors' streams (a cluster head relaying for its motes).
pub struct SensorUplink {
    config: UplinkConfig,
    conn: Option<(Stream, FrameBuffer)>,
    next_seq: BTreeMap<SensorId, u64>,
    rng: StdRng,
    stats: UplinkStats,
    ever_connected: bool,
}

impl fmt::Debug for SensorUplink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SensorUplink")
            .field("connect", &self.config.connect)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SensorUplink {
    /// A disconnected uplink; the first send connects lazily.
    pub fn new(config: UplinkConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.jitter_seed);
        Self {
            config,
            conn: None,
            next_seq: BTreeMap::new(),
            rng,
            stats: UplinkStats::default(),
            ever_connected: false,
        }
    }

    /// Transport counters so far (retransmits, timeouts, NACKs, …).
    pub fn stats(&self) -> UplinkStats {
        self.stats
    }

    /// Sends one reading, assigning the sensor's next sequence number;
    /// returns it. Blocks until acked or attempts are exhausted.
    ///
    /// # Errors
    ///
    /// [`UplinkError::Exhausted`] when every attempt times out.
    pub fn send(
        &mut self,
        sensor: SensorId,
        time: Timestamp,
        values: &[f64],
    ) -> Result<u64, UplinkError> {
        let seq = {
            let next = self.next_seq.entry(sensor).or_insert(0);
            let seq = *next;
            *next += 1;
            seq
        };
        self.send_at(sensor, seq, time, values)?;
        Ok(seq)
    }

    /// Sends one frame under an explicit sequence number — the hook
    /// the network simulator uses to inject duplicate deliveries
    /// through the real retry path.
    ///
    /// # Errors
    ///
    /// [`UplinkError::Exhausted`] when every attempt times out.
    pub fn send_at(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<(), UplinkError> {
        let frame = encode_frame(&Message::Data {
            sensor,
            seq,
            time,
            values: values.to_vec(),
        });
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                self.stats.retransmits += 1;
                self.backoff(attempt);
            }
            if self.attempt(&frame, |msg| match msg {
                Message::Ack { sensor: s, seq: q } if (s, q) == (sensor, seq) => Some(Reply::Acked),
                // A NACK means the server is alive but refused the
                // record (poisoned storage or budget shedding): fail
                // the attempt now instead of waiting out the ack
                // deadline, and let backoff pace the re-offer.
                Message::Nack { sensor: s, seq: q } if (s, q) == (sensor, seq) => {
                    Some(Reply::Nacked)
                }
                _ => None,
            }) {
                return Ok(());
            }
        }
        Err(UplinkError::Exhausted {
            sensor,
            seq,
            attempts: self.config.max_attempts,
        })
    }

    /// Ends the stream: sends `Fin` until `FinAck` arrives, then
    /// closes the connection.
    ///
    /// # Errors
    ///
    /// [`UplinkError::FinExhausted`] when every attempt times out.
    pub fn finish(mut self) -> Result<(), UplinkError> {
        let frame = encode_frame(&Message::Fin);
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            if self.attempt(&frame, fin_ack) {
                if let Some((stream, _)) = self.conn.take() {
                    let _ = stream.shutdown();
                }
                return Ok(());
            }
        }
        Err(UplinkError::FinExhausted {
            attempts: self.config.max_attempts,
        })
    }

    /// One attempt: ensure a connection, write the frame, wait for a
    /// message `classify` marks as the ack or nack. Returns `false` on
    /// nack or timeout (keeping the connection) or I/O error (dropping
    /// it so the next attempt redials).
    fn attempt(&mut self, frame: &[u8], classify: impl FnMut(Message) -> Option<Reply>) -> bool {
        if !self.ensure_connected() {
            return false;
        }
        let Some((mut stream, mut fb)) = self.conn.take() else {
            return false;
        };
        self.stats.frames_sent += 1;
        match attempt_on(
            &mut stream,
            &mut fb,
            frame,
            classify,
            self.config.ack_timeout,
        ) {
            Ok(Reply::Acked) => {
                self.stats.acked += 1;
                self.conn = Some((stream, fb));
                true
            }
            Err(NoReply::Timeout) => {
                // The server is slow: keep the connection, the
                // retransmit rides the same stream.
                self.stats.timeouts += 1;
                self.conn = Some((stream, fb));
                false
            }
            Ok(Reply::Nacked) => {
                // Alive but refusing; same connection, paced re-offer.
                self.stats.nacks += 1;
                self.conn = Some((stream, fb));
                false
            }
            Err(NoReply::Broken) => {
                let _ = stream.shutdown();
                false
            }
        }
    }

    fn ensure_connected(&mut self) -> bool {
        if self.conn.is_some() {
            return true;
        }
        // The stop-and-wait client speaks v1 on the wire forever: its
        // bytes (and its per-frame ack discipline) must stay exactly
        // what v1 servers and the crash-recovery tests pinned down.
        let hello = encode_frame(&Message::Hello {
            version: PROTOCOL_V1,
            epoch: self.config.epoch,
        });
        let Some(stream) = dial(&self.config.connect, self.config.ack_timeout, &hello) else {
            return false;
        };
        if self.ever_connected {
            self.stats.reconnects += 1;
        }
        self.ever_connected = true;
        self.conn = Some((stream, FrameBuffer::new()));
        true
    }

    /// Sleeps `min(cap, base · 2^(attempt−1))` plus up to
    /// `jitter_pct`% seeded jitter, so synchronized retry storms from
    /// many motes spread out deterministically.
    fn backoff(&mut self, attempt: u32) {
        backoff_sleep(&mut self.rng, &self.config, attempt);
    }
}

/// Sleeps the uplink's capped exponential backoff, `min(cap, base ·
/// 2^(attempt−1))`, plus up to `jitter_pct`% of that drawn from the
/// seeded `rng` — shared by both clients.
fn backoff_sleep(rng: &mut StdRng, config: &UplinkConfig, attempt: u32) {
    let base = config.backoff_base.as_millis() as u64;
    let cap = config.backoff_cap.as_millis() as u64;
    let delay = base
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
        .min(cap);
    let ceiling = delay.saturating_mul(u64::from(config.jitter_pct.min(100))) / 100;
    let jitter = if ceiling > 0 {
        rng.gen_range(0..ceiling + 1)
    } else {
        0
    };
    std::thread::sleep(Duration::from_millis(delay + jitter));
}

/// What the reply to the frame in flight said.
enum Reply {
    /// The matching ack: the frame is durable.
    Acked,
    /// The matching NACK: the server refused the frame (connection
    /// still healthy).
    Nacked,
}

/// Why no reply matched.
enum NoReply {
    /// The deadline passed (connection still healthy).
    Timeout,
    /// The connection failed (I/O error, EOF, or a frame error).
    Broken,
}

/// Classifies a `FinAck` as the ack of a `Fin`.
fn fin_ack(msg: Message) -> Option<Reply> {
    matches!(msg, Message::FinAck).then_some(Reply::Acked)
}

/// Pipelined-uplink tuning on top of the shared transport knobs.
#[derive(Debug, Clone)]
pub struct PipelinedConfig {
    /// Endpoint, ack deadline, attempt budget, and backoff — shared
    /// with the stop-and-wait client.
    pub transport: UplinkConfig,
    /// Readings coalesced into one `DataBatch` frame.
    pub batch_size: usize,
    /// Client-side ceiling on in-flight batches; the effective window
    /// is `min(this, the server's HelloAck credit grant)`.
    pub max_inflight: usize,
}

impl PipelinedConfig {
    /// Defaults for `connect`: 256-reading batches, up to 32 batches
    /// in flight, transport defaults from [`UplinkConfig::new`].
    pub fn new(connect: impl Into<String>) -> Self {
        Self {
            transport: UplinkConfig::new(connect),
            batch_size: 256,
            max_inflight: 32,
        }
    }
}

/// A sensor's open (not yet sealed) batch: the first sequence number
/// plus the readings buffered so far, in an arena every batch refills.
type OpenBatch = (u64, ReadingArena);

/// One sealed batch: the encoded frame plus the coordinates needed to
/// retire it against cumulative acks (and to retransmit it verbatim).
struct Batch {
    sensor: SensorId,
    first_seq: u64,
    len: usize,
    frame: Vec<u8>,
    sent_at: Instant,
    attempts: u32,
}

impl Batch {
    fn last_seq(&self) -> u64 {
        self.first_seq + self.len as u64 - 1
    }
}

/// The pipelined, credit-windowed v2 client. Readings are buffered
/// per sensor, sealed into `DataBatch` frames, and streamed with up
/// to a window of batches unacknowledged; the server's cumulative
/// `AckUpTo` (sent only after the covering fsync) retires them.
/// Unacked batches are retransmitted on timeout, NACK, and
/// reconnection — the server's dedup absorbs anything already
/// durable, exactly as for the stop-and-wait client.
pub struct PipelinedUplink {
    config: PipelinedConfig,
    conn: Option<(Stream, FrameBuffer)>,
    /// Negotiated window (min of our ceiling and the server grant).
    credits: usize,
    next_seq: BTreeMap<SensorId, u64>,
    /// Per-sensor open batch: first seq + buffered readings.
    buffers: BTreeMap<SensorId, OpenBatch>,
    /// Sealed batches not yet on the wire.
    queue: VecDeque<Batch>,
    /// Batches on the wire awaiting their cumulative ack.
    inflight: VecDeque<Batch>,
    rng: StdRng,
    stats: UplinkStats,
    ever_connected: bool,
}

impl fmt::Debug for PipelinedUplink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedUplink")
            .field("connect", &self.config.transport.connect)
            .field("inflight", &self.inflight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PipelinedUplink {
    /// A disconnected uplink; the first send connects and negotiates.
    pub fn new(config: PipelinedConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.transport.jitter_seed);
        Self {
            config,
            conn: None,
            credits: 1,
            next_seq: BTreeMap::new(),
            buffers: BTreeMap::new(),
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            rng,
            stats: UplinkStats::default(),
            ever_connected: false,
        }
    }

    /// Transport counters so far.
    pub fn stats(&self) -> UplinkStats {
        self.stats
    }

    /// Buffers one reading under the sensor's next sequence number,
    /// sealing and streaming a batch when one fills. Returns the seq.
    /// Blocks only when the credit window is exhausted (waiting for
    /// an ack to free a slot).
    ///
    /// # Errors
    ///
    /// Any [`UplinkError`] once a batch (or the handshake) exhausts
    /// its attempts.
    pub fn send(
        &mut self,
        sensor: SensorId,
        time: Timestamp,
        values: &[f64],
    ) -> Result<u64, UplinkError> {
        let seq = {
            let next = self.next_seq.entry(sensor).or_insert(0);
            let seq = *next;
            *next += 1;
            seq
        };
        let batch_size = self
            .config
            .batch_size
            .clamp(1, crate::frame::MAX_BATCH_READINGS);
        let (first, readings) = self
            .buffers
            .entry(sensor)
            .or_insert_with(|| (seq, ReadingArena::default()));
        if readings.is_empty() {
            *first = seq;
        }
        readings.push(time, values);
        if readings.len() >= batch_size {
            self.seal(sensor);
            self.pump(false)?;
        }
        Ok(seq)
    }

    /// [`Self::send`] under an explicit sequence number. A `seq` that
    /// does not continue the sensor's open batch seals that batch
    /// first, so each batch stays one consecutive run.
    ///
    /// # Errors
    ///
    /// As [`Self::send`].
    pub fn send_at(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<(), UplinkError> {
        if self
            .next_seq
            .insert(sensor, seq)
            .is_some_and(|next| next != seq)
        {
            self.seal(sensor);
        }
        self.send(sensor, time, values).map(drop)
    }

    /// Seals every buffered reading and blocks until every in-flight
    /// batch is acknowledged.
    ///
    /// # Errors
    ///
    /// Any [`UplinkError`] once a batch exhausts its attempts.
    pub fn flush(&mut self) -> Result<(), UplinkError> {
        let sensors: Vec<SensorId> = self.buffers.keys().copied().collect();
        for sensor in sensors {
            self.seal(sensor);
        }
        self.pump(true)
    }

    /// Ends the stream: flushes and awaits all acks, then runs the
    /// `Fin`/`FinAck` handshake and closes. Returns the transport
    /// counters for the run.
    ///
    /// # Errors
    ///
    /// Any [`UplinkError`]; [`UplinkError::FinExhausted`] if the
    /// handshake never completes.
    pub fn finish(mut self) -> Result<UplinkStats, UplinkError> {
        self.flush()?;
        let frame = encode_frame(&Message::Fin);
        for attempt in 0..self.config.transport.max_attempts {
            if attempt > 0 {
                backoff_sleep(&mut self.rng, &self.config.transport, attempt);
            }
            if self.conn.is_none() && self.ensure_connected().is_err() {
                continue;
            }
            let Some((mut stream, mut fb)) = self.conn.take() else {
                continue;
            };
            let timeout = self.config.transport.ack_timeout;
            match attempt_on(&mut stream, &mut fb, &frame, fin_ack, timeout) {
                Ok(Reply::Acked) => {
                    let _ = stream.shutdown();
                    return Ok(self.stats);
                }
                Ok(Reply::Nacked) | Err(NoReply::Timeout) => {
                    self.conn = Some((stream, fb));
                }
                Err(NoReply::Broken) => {
                    let _ = stream.shutdown();
                }
            }
        }
        Err(UplinkError::FinExhausted {
            attempts: self.config.transport.max_attempts,
        })
    }

    /// Encodes the sensor's open batch straight into its one
    /// `DataBatch` frame buffer and queues that, emptying the arena.
    fn seal(&mut self, sensor: SensorId) {
        let Some((first_seq, readings)) = self.buffers.get_mut(&sensor) else {
            return;
        };
        if readings.is_empty() {
            return;
        }
        let (first_seq, len) = (*first_seq, readings.len());
        // Sized once: envelope, batch head, ten bytes a reading, values.
        let mut frame = Vec::with_capacity(8 + 13 + 10 * len + 8 * readings.values.len());
        frame_with(&mut frame, |out| {
            encode_batch_payload(sensor, first_seq, readings.iter(), out)
        });
        readings.truncate(0);
        self.queue.push_back(Batch {
            sensor,
            first_seq,
            len,
            frame,
            sent_at: Instant::now(),
            attempts: 0,
        });
    }

    /// The engine: keeps the wire full. Sends queued batches while
    /// the window has room; when the window is full (or `drain` wants
    /// everything retired) waits for acks, retransmitting what times
    /// out. Returns with the queue empty — and, when `drain` is set,
    /// the in-flight window empty too.
    fn pump(&mut self, drain: bool) -> Result<(), UplinkError> {
        loop {
            self.ensure_connected()?;
            let mut broken = false;
            while self.inflight.len() < self.credits {
                let Some(mut batch) = self.queue.pop_front() else {
                    break;
                };
                let Some((stream, _)) = self.conn.as_mut() else {
                    self.queue.push_front(batch);
                    broken = true;
                    break;
                };
                batch.attempts += 1;
                if batch.attempts > 1 {
                    self.stats.retransmits += 1;
                }
                self.stats.frames_sent += 1;
                if stream
                    .write_all(&batch.frame)
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    self.queue.push_front(batch);
                    broken = true;
                    break;
                }
                batch.sent_at = Instant::now();
                self.inflight.push_back(batch);
            }
            if broken {
                self.disconnect();
                continue;
            }
            if self.queue.is_empty() && (!drain || self.inflight.is_empty()) {
                return Ok(());
            }
            self.await_progress()?;
        }
    }

    /// Blocks until something changes: a batch retires, a batch times
    /// out back into the queue, or the connection drops (the caller's
    /// loop reconnects and retransmits).
    fn await_progress(&mut self) -> Result<(), UplinkError> {
        let Some((mut stream, mut fb)) = self.conn.take() else {
            return Ok(());
        };
        let mut buf = [0u8; 8192];
        loop {
            loop {
                match fb.next_message() {
                    Ok(Some(msg)) => match self.handle_reply(&msg) {
                        Ok(true) => {
                            self.conn = Some((stream, fb));
                            return Ok(());
                        }
                        Ok(false) => {}
                        Err(e) => return Err(e),
                    },
                    Ok(None) => break,
                    Err(_) => {
                        // Corrupt reply stream: drop the connection;
                        // reconnection replays the in-flight window.
                        let _ = stream.shutdown();
                        return Ok(());
                    }
                }
            }
            if let Some(overdue) = self.take_overdue()? {
                self.stats.timeouts += 1;
                self.queue.push_front(overdue);
                self.conn = Some((stream, fb));
                return Ok(());
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    let _ = stream.shutdown();
                    return Ok(());
                }
                Ok(n) => fb.feed(&buf[..n]),
                Err(e) if is_timeout(&e) => {}
                Err(_) => {
                    let _ = stream.shutdown();
                    return Ok(());
                }
            }
        }
    }

    /// Pulls the oldest in-flight batch past the ack deadline, if
    /// any; errors when it is out of attempts.
    fn take_overdue(&mut self) -> Result<Option<Batch>, UplinkError> {
        let deadline = self.config.transport.ack_timeout;
        let pos = self
            .inflight
            .iter()
            .position(|b| b.sent_at.elapsed() >= deadline);
        let Some(pos) = pos else {
            return Ok(None);
        };
        // sentinet-allow(expect-used): position() came from this deque
        let batch = self.inflight.remove(pos).expect("indexed batch");
        if batch.attempts >= self.config.transport.max_attempts {
            return Err(UplinkError::Exhausted {
                sensor: batch.sensor,
                seq: batch.first_seq,
                attempts: batch.attempts,
            });
        }
        Ok(Some(batch))
    }

    /// Processes one server reply; `Ok(true)` means progress (a batch
    /// retired or requeued) that lets the pump loop re-evaluate.
    fn handle_reply(&mut self, msg: &Message) -> Result<bool, UplinkError> {
        match msg {
            Message::AckUpTo { sensor, seq } => {
                let before = self.inflight.len();
                self.inflight
                    .retain(|b| !(b.sensor == *sensor && b.last_seq() <= *seq));
                let retired = before - self.inflight.len();
                self.stats.acked += retired as u64;
                Ok(retired > 0)
            }
            Message::Nack { sensor, seq } => {
                self.stats.nacks += 1;
                let pos = self.inflight.iter().position(|b| {
                    b.sensor == *sensor && b.first_seq <= *seq && *seq <= b.last_seq()
                });
                let Some(pos) = pos else {
                    return Ok(false);
                };
                // sentinet-allow(expect-used): position() came from this deque
                let batch = self.inflight.remove(pos).expect("indexed batch");
                if batch.attempts >= self.config.transport.max_attempts {
                    return Err(UplinkError::Exhausted {
                        sensor: batch.sensor,
                        seq: *seq,
                        attempts: batch.attempts,
                    });
                }
                // Alive but refusing (poisoned storage, budget): pace
                // the re-offer like the stop-and-wait client does.
                backoff_sleep(&mut self.rng, &self.config.transport, batch.attempts);
                self.queue.push_front(batch);
                Ok(true)
            }
            Message::HelloReject { supported } => Err(UplinkError::VersionRejected {
                supported: *supported,
            }),
            // Stale handshake replies, v1 acks, or anything else a
            // server might emit: not ours, not progress.
            _ => Ok(false),
        }
    }

    fn disconnect(&mut self) {
        if let Some((stream, _)) = self.conn.take() {
            let _ = stream.shutdown();
        }
    }

    /// Connects and completes the v2 handshake (with the transport's
    /// attempt/backoff budget), then requeues the dead connection's
    /// in-flight window for retransmission.
    fn ensure_connected(&mut self) -> Result<(), UplinkError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let transport = self.config.transport.clone();
        let hello = encode_frame(&Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: transport.epoch,
        });
        for attempt in 0..transport.max_attempts {
            if attempt > 0 {
                backoff_sleep(&mut self.rng, &transport, attempt);
            }
            let Some(mut stream) = dial(&transport.connect, transport.ack_timeout, &hello) else {
                continue;
            };
            let mut fb = FrameBuffer::new();
            let granted = await_reply(
                &mut stream,
                &mut fb,
                transport.ack_timeout,
                |msg| match msg {
                    Message::HelloAck { credits, .. } => Some(Ok(credits)),
                    Message::HelloReject { supported } => {
                        Some(Err(UplinkError::VersionRejected { supported }))
                    }
                    _ => None,
                },
            );
            let Ok(granted) = granted else {
                continue;
            };
            self.credits = (granted? as usize).min(self.config.max_inflight).max(1);
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            // Whatever the dead connection had in flight is
            // unconfirmed: send it again, oldest first; dedup absorbs
            // duplicates.
            while let Some(b) = self.inflight.pop_back() {
                self.stats.retransmits += 1;
                self.queue.push_front(b);
            }
            self.conn = Some((stream, fb));
            return Ok(());
        }
        Err(UplinkError::ConnectExhausted {
            attempts: transport.max_attempts,
        })
    }
}

/// One-shot heartbeat over a dedicated connection: send a `Heartbeat`
/// carrying `epoch` to `connect`, wait up to `timeout` for the
/// `HeartbeatAck`, and return the server's `(fence epoch, checkpoint
/// cursor)`. `None` on any connect, I/O, or deadline failure — the
/// caller's liveness machine treats that as a missed beat, never an
/// error.
pub fn probe_heartbeat(connect: &str, epoch: u64, timeout: Duration) -> Option<(u64, u64)> {
    exchange(
        connect,
        &Message::Heartbeat { epoch },
        timeout,
        |msg| match msg {
            Message::HeartbeatAck {
                epoch,
                checkpoint_cursor,
            } => Some((epoch, checkpoint_cursor)),
            _ => None,
        },
    )
}

/// One-shot exchange over a dedicated connection: dial `connect`, send
/// `request`, and wait up to `timeout` for the first reply `matches`
/// accepts. `None` on any connect, I/O, or deadline failure — a missed
/// beat or a failed migration step (abort or retry), never an error.
/// Deliberately separate from the data uplinks, so control traffic
/// cannot perturb their retransmit state.
fn exchange<T>(
    connect: &str,
    request: &Message,
    timeout: Duration,
    matches: impl FnMut(Message) -> Option<T>,
) -> Option<T> {
    let mut stream = dial(connect, timeout, &encode_frame(request))?;
    await_reply(&mut stream, &mut FrameBuffer::new(), timeout, matches).ok()
}

/// Orders the collector at `connect` to cut the sensor range
/// `[start, end)` out of its live state (a `MigrateOffer`), returning
/// the cut's WAL cursor and the staged sub-range snapshot bytes from
/// the `MigrateAccept`. From the moment this returns, the source
/// NACKs the range as fenced. `None` means the cut did not commit
/// there — safe to retry (the cut is idempotent) or abort.
pub fn probe_migrate_cut(
    connect: &str,
    start: u16,
    end: u16,
    timeout: Duration,
) -> Option<(u64, Vec<u8>)> {
    exchange(
        connect,
        &Message::MigrateOffer { start, end },
        timeout,
        |msg| match msg {
            Message::MigrateAccept {
                start: s,
                end: e,
                cursor,
                snapshot,
            } if (s, e) == (start, end) => Some((cursor, snapshot)),
            _ => None,
        },
    )
}

/// Ships a staged sub-range snapshot to the destination collector at
/// `connect` (a forwarded `MigrateAccept`) and waits for its
/// `MigrateDone` — the confirmation that the restore point is durable
/// at the new home. `None` means adoption did not commit; the staged
/// source copy stays authoritative and the step can be retried.
pub fn probe_migrate_adopt(
    connect: &str,
    start: u16,
    end: u16,
    cursor: u64,
    snapshot: Vec<u8>,
    timeout: Duration,
) -> Option<()> {
    exchange(
        connect,
        &Message::MigrateAccept {
            start,
            end,
            cursor,
            snapshot,
        },
        timeout,
        |msg| match msg {
            Message::MigrateDone {
                start: s,
                end: e,
                cursor: c,
            } if (s, e, c) == (start, end, cursor) => Some(()),
            _ => None,
        },
    )
}

/// Tells the source collector at `connect` that the destination has
/// durably adopted `[start, end)` (a forwarded `MigrateDone`), letting
/// it drop the staged outbox payload. Best-effort by design — a
/// leftover outbox for a retired range is inert — so `None` only
/// means the cleanup signal was not acknowledged.
pub fn probe_migrate_done(
    connect: &str,
    start: u16,
    end: u16,
    cursor: u64,
    timeout: Duration,
) -> Option<()> {
    exchange(
        connect,
        &Message::MigrateDone { start, end, cursor },
        timeout,
        |msg| match msg {
            Message::MigrateDone {
                start: s,
                end: e,
                cursor: c,
            } if (s, e, c) == (start, end, cursor) => Some(()),
            _ => None,
        },
    )
}

/// Dials `connect`, sets a per-read timeout short enough to keep a
/// `timeout` deadline responsive, and writes the opening frame. `None`
/// on any failure.
fn dial(connect: &str, timeout: Duration, first: &[u8]) -> Option<Stream> {
    let mut stream = Stream::connect(connect).ok()?;
    let per_read = (timeout / 4).max(Duration::from_millis(10));
    stream.set_read_timeout(Some(per_read)).ok()?;
    stream.write_all(first).and_then(|()| stream.flush()).ok()?;
    Some(stream)
}

/// Reads replies until `matches` accepts one (returning what it made
/// of it), the `timeout` deadline passes, or the connection fails.
/// Buffered replies come first: an ack may have arrived alongside one
/// for an earlier retransmit.
fn await_reply<T>(
    stream: &mut Stream,
    fb: &mut FrameBuffer,
    timeout: Duration,
    mut matches: impl FnMut(Message) -> Option<T>,
) -> Result<T, NoReply> {
    let deadline = Instant::now() + timeout;
    let mut buf = [0u8; 4096];
    loop {
        while let Some(msg) = fb.next_message().map_err(|_| NoReply::Broken)? {
            if let Some(out) = matches(msg) {
                return Ok(out);
            }
        }
        if Instant::now() >= deadline {
            return Err(NoReply::Timeout);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(NoReply::Broken),
            Ok(n) => fb.feed(&buf[..n]),
            Err(e) if is_timeout(&e) => {}
            Err(_) => return Err(NoReply::Broken),
        }
    }
}

/// Writes `frame`, then awaits the reply `classify` recognises as its
/// ack or NACK.
fn attempt_on(
    stream: &mut Stream,
    fb: &mut FrameBuffer,
    frame: &[u8],
    classify: impl FnMut(Message) -> Option<Reply>,
    ack_timeout: Duration,
) -> Result<Reply, NoReply> {
    stream
        .write_all(frame)
        .and_then(|()| stream.flush())
        .map_err(|_| NoReply::Broken)?;
    await_reply(stream, fb, ack_timeout, classify)
}
