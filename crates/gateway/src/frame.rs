//! Length-prefixed, CRC-framed wire protocol.
//!
//! Every frame on the socket and every frame in the WAL has the shape
//!
//! ```text
//! [u32 payload_len LE] [payload bytes] [u32 crc32(payload) LE]
//! ```
//!
//! and every payload starts with a one-byte message tag. Floating
//! point values travel as IEEE-754 bit patterns (`f64::to_bits`), so a
//! reading round-trips bit-exactly — including the NaN/∞ payloads a
//! broken ADC produces, which must reach the sanitizer unchanged for
//! its accounting to be faithful.
//!
//! The log shares the envelope and the `Data` payload with the wire,
//! but a run of two or more readings is logged in a payload of its own
//! (tag 16, written only by the WAL): after the head — sensor, first
//! sequence number, reading count and the one value count every
//! reading shares — each reading is the zig-zag LEB128 varint of the
//! wrapping difference between its time and the previous reading's
//! (the first one's from 0), then its values. A socket decoder refuses
//! that tag as unknown; the log still reads the `DataBatch` frames
//! older binaries wrote.
//!
//! Decoding is incremental: a [`FrameBuffer`] is fed raw socket bytes
//! as they arrive (reads use short timeouts, never blocking forever)
//! and yields complete frames. A CRC mismatch or an oversized length
//! prefix is connection-fatal — after corruption the stream offset can
//! no longer be trusted, so the peer closes and the client's retry
//! loop re-delivers anything unacknowledged on a fresh connection.
//!
//! A run of readings lives in one [`ReadingArena`] from the client's
//! open batch to the window and from the log back in; one decoder
//! (`Cursor::run`) fills it for the server's reader, the WAL scan and
//! [`decode_frame`] alike. [`Message::DataBatch`]'s vectors are what
//! tests and the benchmark build frames from.

use crate::crc::crc32;
use sentinet_sim::{SensorId, Timestamp};
use std::fmt;

/// Hard cap on a frame payload; anything larger is corruption.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Current protocol version carried by [`Message::Hello`]. Version 2
/// adds pipelined batch frames ([`Message::DataBatch`]), cumulative
/// acks ([`Message::AckUpTo`]) and explicit negotiation
/// ([`Message::HelloAck`] / [`Message::HelloReject`]).
pub const PROTOCOL_VERSION: u32 = 2;

/// The original stop-and-wait protocol version (one `Data` frame per
/// `Ack`). Still spoken by [`crate::client::SensorUplink`]; the server
/// accepts it unchanged.
pub const PROTOCOL_V1: u32 = 1;

const TAG_HELLO: u8 = 1;
const TAG_DATA: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_FIN: u8 = 4;
const TAG_FIN_ACK: u8 = 5;
const TAG_NACK: u8 = 6;
const TAG_DATA_BATCH: u8 = 7;
const TAG_ACK_UP_TO: u8 = 8;
const TAG_HELLO_ACK: u8 = 9;
const TAG_HELLO_REJECT: u8 = 10;
const TAG_HEARTBEAT: u8 = 11;
const TAG_HEARTBEAT_ACK: u8 = 12;
const TAG_MIGRATE_OFFER: u8 = 13;
const TAG_MIGRATE_ACCEPT: u8 = 14;
const TAG_MIGRATE_DONE: u8 = 15;
/// The log's run payload ([`encode_run_payload`]); no wire message.
const TAG_LOG_RUN: u8 = 16;

/// Hard cap on readings per [`Message::DataBatch`] frame (the frame
/// must also fit [`MAX_PAYLOAD`]). Enforced where frames enter:
/// [`decode_frame`] refuses a longer batch with
/// [`FrameError::BatchTooLong`], and neither the pipelined client nor
/// the WAL writer ever builds one.
pub const MAX_BATCH_READINGS: usize = 4096;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client greeting; carries the protocol version and (for fenced
    /// federation links) the sender's owner epoch.
    Hello {
        /// Wire protocol version (see [`PROTOCOL_VERSION`]).
        version: u32,
        /// Owner epoch the sender believes is current; `0` means
        /// unfenced (standalone clients). Encoded as an optional
        /// trailing field only when non-zero, so the v1 wire bytes a
        /// plain `Hello` produces are unchanged.
        epoch: u64,
    },
    /// One sensor reading with its per-sensor sequence number.
    Data {
        /// Reporting sensor.
        sensor: SensorId,
        /// Per-sensor sequence number assigned by the client.
        seq: u64,
        /// Sample timestamp.
        time: Timestamp,
        /// Attribute values (possibly empty or non-finite — the
        /// sanitizer, not the codec, polices value semantics).
        values: Vec<f64>,
    },
    /// Server acknowledgment: the `(sensor, seq)` record is durable.
    Ack {
        /// Acknowledged sensor.
        sensor: SensorId,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Client end-of-stream: flush and finalize.
    Fin,
    /// Server acknowledgment of [`Message::Fin`].
    FinAck,
    /// Negative acknowledgment: the `(sensor, seq)` record could not
    /// be made durable (storage failure or WAL budget shedding) and
    /// was *not* accepted. The client must not treat it as delivered;
    /// its retry protocol redelivers later or gives up loudly.
    Nack {
        /// Refused sensor.
        sensor: SensorId,
        /// Refused sequence number.
        seq: u64,
    },
    /// Many consecutive readings from one sensor in a single frame
    /// (protocol v2). Reading `i` carries sequence number
    /// `first_seq + i`; the server admits each reading individually
    /// but logs and fsyncs the batch as one WAL extent.
    DataBatch {
        /// Reporting sensor.
        sensor: SensorId,
        /// Sequence number of the first reading in the batch.
        first_seq: u64,
        /// `(timestamp, values)` per reading, in sequence order.
        readings: Vec<(Timestamp, Vec<f64>)>,
    },
    /// Cumulative acknowledgment (protocol v2): every reading of
    /// `sensor` with sequence number `≤ seq` is durable — its WAL
    /// extent is covered by a completed fsync.
    AckUpTo {
        /// Acknowledged sensor.
        sensor: SensorId,
        /// Highest durable sequence number (inclusive).
        seq: u64,
    },
    /// Server reply to a v2 [`Message::Hello`]: the negotiated version
    /// plus the initial credit grant (how many `DataBatch` frames the
    /// client may keep in flight before waiting for acks).
    HelloAck {
        /// Negotiated protocol version.
        version: u32,
        /// Batch frames the client may keep unacknowledged.
        credits: u32,
    },
    /// Server refusal of an unknown [`Message::Hello`] version; names
    /// the highest version the server speaks so the mismatch is a
    /// typed protocol event, not corrupt-frame noise.
    HelloReject {
        /// Highest protocol version the server supports.
        supported: u32,
    },
    /// Lightweight liveness probe from a federation controller. The
    /// carried epoch doubles as a fence observation: a server whose
    /// configured epoch is older fail-stops its WAL.
    Heartbeat {
        /// Owner epoch the controller believes is current.
        epoch: u64,
    },
    /// Server reply to [`Message::Heartbeat`]: the server's own epoch
    /// plus the WAL cursor of its last committed checkpoint.
    HeartbeatAck {
        /// The server's configured owner epoch.
        epoch: u64,
        /// WAL cursor of the last committed checkpoint (0: none yet).
        checkpoint_cursor: u64,
    },
    /// Controller order to the current owner of `[start, end)`: cut
    /// that sensor range out of the live collector at the current WAL
    /// cursor and stage it for transfer. From the moment the cut
    /// commits the range answers `Nack`/fenced, so no acked reading
    /// can postdate the cut. The server replies with
    /// [`Message::MigrateAccept`] carrying the staged sub-range
    /// snapshot.
    MigrateOffer {
        /// First sensor id of the moving range (inclusive).
        start: u16,
        /// One past the last sensor id of the moving range.
        end: u16,
    },
    /// The staged cut of `[start, end)`: the sub-range collector
    /// snapshot taken at `cursor`. Sent by the source server in answer
    /// to [`Message::MigrateOffer`], then forwarded verbatim by the
    /// controller to the destination server, which adopts it and
    /// answers [`Message::MigrateDone`]. The snapshot must fit one
    /// frame ([`MAX_PAYLOAD`]), which bounds how much per-sensor state
    /// a single migration may carry.
    MigrateAccept {
        /// First sensor id of the moving range (inclusive).
        start: u16,
        /// One past the last sensor id of the moving range.
        end: u16,
        /// Source WAL cursor the cut was taken at.
        cursor: u64,
        /// Sub-range snapshot bytes (`snapshot::encode_collector`).
        snapshot: Vec<u8>,
    },
    /// The range `[start, end)` is durably adopted at its new home:
    /// sent by the destination once the shipped snapshot's restore
    /// point commits, and forwarded by the controller to the source as
    /// permission to discard the staged outbox payload (the source
    /// echoes it as an acknowledgment).
    MigrateDone {
        /// First sensor id of the migrated range (inclusive).
        start: u16,
        /// One past the last sensor id of the migrated range.
        end: u16,
        /// The cut cursor being confirmed.
        cursor: u64,
    },
}

/// A run of readings in one values arena: each reading's key — its
/// time; time and sensor in a reorder buffer's image — and the end of
/// its values in one flat vector. Value counts may differ from reading
/// to reading — hostile batches carry such.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadingArena<K = Timestamp> {
    /// Per reading, in order: its key and where its values end.
    pub(crate) marks: Vec<(K, usize)>,
    pub(crate) values: Vec<f64>,
}

impl<K: Copy> ReadingArena<K> {
    /// Readings held.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no reading is held.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Makes room for `readings` more readings of `values` values in all.
    pub fn reserve(&mut self, readings: usize, values: usize) {
        self.marks.reserve(readings);
        self.values.reserve(values);
    }

    /// Appends one reading.
    pub fn push(&mut self, key: K, values: &[f64]) {
        self.values.extend_from_slice(values);
        self.marks.push((key, self.values.len()));
    }

    /// The readings, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (K, &[f64])> + Clone {
        self.range(0..self.len())
    }

    /// The readings at indices `range`, in order.
    pub fn range(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl ExactSizeIterator<Item = (K, &[f64])> + Clone {
        let mut start = self.start(range.start);
        self.marks[range].iter().map(move |&(key, end)| {
            let values = &self.values[start..end];
            start = end;
            (key, values)
        })
    }

    /// Drops every reading from `len` on; the room is kept.
    pub fn truncate(&mut self, len: usize) {
        if len < self.marks.len() {
            self.values.truncate(self.start(len));
            self.marks.truncate(len);
        }
    }

    /// Where reading `at`'s values start.
    pub(crate) fn start(&self, at: usize) -> usize {
        at.checked_sub(1).map_or(0, |last| self.marks[last].1)
    }
}

impl<'a, K: Copy> Extend<(K, &'a [f64])> for ReadingArena<K> {
    fn extend<I: IntoIterator<Item = (K, &'a [f64])>>(&mut self, readings: I) {
        for (key, values) in readings {
            self.push(key, values);
        }
    }
}

impl<'a, K: Copy> FromIterator<(K, &'a [f64])> for ReadingArena<K> {
    fn from_iter<I: IntoIterator<Item = (K, &'a [f64])>>(readings: I) -> Self {
        let mut arena = Self {
            marks: Vec::new(),
            values: Vec::new(),
        };
        arena.extend(readings);
        arena
    }
}

/// One decoded frame as a server's reader hands it on.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A [`Message::DataBatch`] — sensor, first sequence number — whose
    /// readings stay in the arena they were decoded into.
    Batch(SensorId, u64, ReadingArena),
    /// Any other message.
    Message(Message),
}

impl Frame {
    /// The frame as a [`Message`], a batch's readings copied out of the
    /// arena into a vector each.
    pub fn into_message(self) -> Message {
        match self {
            Frame::Batch(sensor, first_seq, readings) => Message::DataBatch {
                sensor,
                first_seq,
                readings: readings.iter().map(|(t, v)| (t, v.to_vec())).collect(),
            },
            Frame::Message(message) => message,
        }
    }
}

/// A frame- or payload-level decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    TooLarge {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload checksum did not match its CRC trailer.
    BadCrc {
        /// CRC computed over the received payload.
        computed: u32,
        /// CRC carried by the frame.
        carried: u32,
    },
    /// The payload tag byte is unknown.
    UnknownTag(u8),
    /// The payload was shorter than its tag requires.
    ShortPayload {
        /// The offending tag.
        tag: u8,
        /// Bytes present.
        len: usize,
    },
    /// A `DataBatch` payload claims more than [`MAX_BATCH_READINGS`]
    /// readings.
    BatchTooLong {
        /// The claimed reading count.
        count: usize,
    },
    /// The stream ended in the middle of a frame.
    Truncated,
    /// A log run's time delta is not a varint of at most ten bytes, in
    /// its shortest form, within `u64`.
    BadVarint,
    /// A log run states fewer than two readings, or no values a
    /// reading.
    BadRun {
        /// The stated reading count.
        count: usize,
        /// The stated value count.
        dims: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::BadCrc { computed, carried } => {
                write!(
                    f,
                    "frame crc mismatch (computed {computed:08x}, carried {carried:08x})"
                )
            }
            FrameError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            FrameError::ShortPayload { tag, len } => {
                write!(f, "payload too short ({len} bytes) for tag {tag}")
            }
            FrameError::BatchTooLong { count } => {
                write!(
                    f,
                    "batch of {count} readings exceeds cap {MAX_BATCH_READINGS}"
                )
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadVarint => write!(f, "malformed time delta in a log run"),
            FrameError::BadRun { count, dims } => write!(
                f,
                "log run of {count} readings of {dims} values (two readings and one value at least)"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The zig-zag image of the wrapping step from `prev` to `time`: small
/// steps either way are small numbers.
fn zigzag(prev: Timestamp, time: Timestamp) -> u64 {
    let step = time.wrapping_sub(prev);
    (step << 1) ^ (step as i64 >> 63) as u64
}

/// Bytes of the LEB128 varint of the step from `prev` to `time` in a
/// log run — how the WAL's planner prices a reading's time.
pub(crate) fn step_len(prev: Timestamp, time: Timestamp) -> u64 {
    u64::from(64 - (zigzag(prev, time) | 1).leading_zeros()).div_ceil(7)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Cursor over a payload slice with typed underrun errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    tag: u8,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(FrameError::ShortPayload {
                tag: self.tag,
                len: self.bytes.len(),
            }),
        }
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `u16` count and the bytes of that many IEEE-754 bit patterns.
    /// The bytes are claimed before anything is sized by the count, so
    /// a count the payload cannot back allocates nothing.
    fn value_bits(&mut self) -> Result<impl Iterator<Item = f64> + 'a, FrameError> {
        let n = self.u16()? as usize;
        self.values(n)
    }

    /// The bytes of `n` IEEE-754 bit patterns, as values.
    fn values(&mut self, n: usize) -> Result<impl Iterator<Item = f64> + 'a, FrameError> {
        let bits = self.take(8 * n)?;
        Ok(bits.chunks_exact(8).map(|b| {
            f64::from_bits(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        }))
    }

    /// One zig-zag LEB128 varint, undone: at most ten bytes, in its
    /// shortest form, within `u64` — so every step decodes from exactly
    /// the bytes [`put_varint`] writes for it.
    fn step(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)?[0];
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    break;
                }
                return Ok((v >> 1) ^ (v & 1).wrapping_neg());
            }
        }
        Err(FrameError::BadVarint)
    }

    /// A log run's readings onto the end of `arena`: the value count
    /// every reading shares, then `count` times a time step and that
    /// many values. Both counts are held to what the rest of the
    /// payload can back — a byte of step and the values a reading —
    /// before room is made for them.
    fn log_run(&mut self, count: usize, arena: &mut ReadingArena) -> Result<(), FrameError> {
        let dims = self.u16()? as usize;
        if count < 2 || dims == 0 {
            return Err(FrameError::BadRun { count, dims });
        }
        if self.bytes.len() - self.pos < count * (1 + 8 * dims) {
            return Err(FrameError::ShortPayload {
                tag: self.tag,
                len: self.bytes.len(),
            });
        }
        arena.reserve(count, count * dims);
        let mut time: Timestamp = 0;
        for _ in 0..count {
            time = time.wrapping_add(self.step()?);
            arena.values.extend(self.values(dims)?);
            arena.marks.push((time, arena.values.len()));
        }
        Ok(())
    }

    /// One reading — time, value count, values — onto the end of
    /// `arena`: the per-reading step of every data decode.
    fn reading(&mut self, arena: &mut ReadingArena) -> Result<(), FrameError> {
        let time = self.u64()?;
        arena.values.extend(self.value_bits()?);
        arena.marks.push((time, arena.values.len()));
        Ok(())
    }

    /// The one data decoder: sensor and first sequence number, then the
    /// readings — one for `Data`, for `DataBatch` and a log run the
    /// count the head states, held to [`MAX_BATCH_READINGS`] — onto the
    /// end of `arena`. Room is made once, for what the rest of the
    /// payload can back: for a batch ten bytes a reading, and what is
    /// left over is values. Readings decoded before an error are the
    /// caller's to discard.
    fn run(&mut self, arena: &mut ReadingArena) -> Result<(SensorId, u64), FrameError> {
        let run = (SensorId(self.u16()?), self.u64()?);
        let count = match self.tag {
            TAG_DATA => 1,
            _ => self.u16()? as usize,
        };
        if count > MAX_BATCH_READINGS {
            return Err(FrameError::BatchTooLong { count });
        }
        if self.tag == TAG_LOG_RUN {
            self.log_run(count, arena)?;
            return Ok(run);
        }
        if let Some(values) = (self.bytes.len() - self.pos).checked_sub(10 * count) {
            arena.reserve(count, values / 8);
        }
        for _ in 0..count {
            self.reading(arena)?;
        }
        Ok(run)
    }

    /// Fails unless the whole payload was consumed.
    fn end(&self) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::ShortPayload {
                tag: self.tag,
                len: self.bytes.len() + 1,
            })
        }
    }
}

/// Splits the tag byte off a payload.
fn open_payload(payload: &[u8]) -> Result<Cursor<'_>, FrameError> {
    match payload.split_first() {
        Some((&tag, bytes)) => Ok(Cursor { bytes, pos: 0, tag }),
        None => Err(FrameError::ShortPayload { tag: 0, len: 0 }),
    }
}

/// Appends the payload of a `Data` message (tag included) to `out`.
/// The WAL logs a lone reading as exactly this payload, so every byte
/// a stop-and-wait client causes is a wire byte.
pub fn encode_data_payload(
    sensor: SensorId,
    seq: u64,
    time: Timestamp,
    values: &[f64],
    out: &mut Vec<u8>,
) {
    out.push(TAG_DATA);
    put_u16(out, sensor.0);
    put_u64(out, seq);
    put_u64(out, time);
    put_u16(out, values.len() as u16);
    for v in values {
        put_u64(out, v.to_bits());
    }
}

/// Appends the payload of a `DataBatch` message (tag included) to
/// `out`: reading `i` of `readings` travels under `first_seq + i`.
/// Callers keep the run within [`MAX_BATCH_READINGS`] and every value
/// count within `u16`.
pub fn encode_batch_payload<'a>(
    sensor: SensorId,
    first_seq: u64,
    readings: impl ExactSizeIterator<Item = (Timestamp, &'a [f64])>,
    out: &mut Vec<u8>,
) {
    out.push(TAG_DATA_BATCH);
    put_u16(out, sensor.0);
    put_u64(out, first_seq);
    put_u16(out, readings.len() as u16);
    for (time, values) in readings {
        put_u64(out, time);
        put_u16(out, values.len() as u16);
        for v in values {
            put_u64(out, v.to_bits());
        }
    }
}

/// Appends the log's payload for a run (tag included) to `out`: reading
/// `i` of `readings` is logged under `first_seq + i`, its time as the
/// step from the reading before (the first one's from 0), then its
/// `dims` values. The WAL is its one writer and keeps the run to two
/// readings or more, within [`MAX_BATCH_READINGS`], every reading
/// carrying `dims` values, `dims` between 1 and `u16::MAX`.
pub(crate) fn encode_run_payload<'a>(
    sensor: SensorId,
    first_seq: u64,
    dims: usize,
    readings: impl ExactSizeIterator<Item = (Timestamp, &'a [f64])>,
    out: &mut Vec<u8>,
) {
    out.push(TAG_LOG_RUN);
    put_u16(out, sensor.0);
    put_u64(out, first_seq);
    put_u16(out, readings.len() as u16);
    put_u16(out, dims as u16);
    let mut prev = 0;
    for (time, values) in readings {
        debug_assert_eq!(values.len(), dims, "a log run shares one value count");
        put_varint(out, zigzag(prev, time));
        prev = time;
        for v in values {
            put_u64(out, v.to_bits());
        }
    }
}

/// Appends the payload bytes of `msg` to `out`.
pub fn encode_payload(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Hello { version, epoch } => {
            out.push(TAG_HELLO);
            put_u32(out, *version);
            // Optional trailing field: absent when zero, keeping the
            // pinned v1 Hello bytes byte-for-byte.
            if *epoch > 0 {
                put_u64(out, *epoch);
            }
        }
        Message::Data {
            sensor,
            seq,
            time,
            values,
        } => encode_data_payload(*sensor, *seq, *time, values, out),
        Message::Ack { sensor, seq } => {
            out.push(TAG_ACK);
            put_u16(out, sensor.0);
            put_u64(out, *seq);
        }
        Message::Fin => out.push(TAG_FIN),
        Message::FinAck => out.push(TAG_FIN_ACK),
        Message::Nack { sensor, seq } => {
            out.push(TAG_NACK);
            put_u16(out, sensor.0);
            put_u64(out, *seq);
        }
        Message::DataBatch {
            sensor,
            first_seq,
            readings,
        } => encode_batch_payload(
            *sensor,
            *first_seq,
            readings
                .iter()
                .map(|(time, values)| (*time, values.as_slice())),
            out,
        ),
        Message::AckUpTo { sensor, seq } => {
            out.push(TAG_ACK_UP_TO);
            put_u16(out, sensor.0);
            put_u64(out, *seq);
        }
        Message::HelloAck { version, credits } => {
            out.push(TAG_HELLO_ACK);
            put_u32(out, *version);
            put_u32(out, *credits);
        }
        Message::HelloReject { supported } => {
            out.push(TAG_HELLO_REJECT);
            put_u32(out, *supported);
        }
        Message::Heartbeat { epoch } => {
            out.push(TAG_HEARTBEAT);
            put_u64(out, *epoch);
        }
        Message::HeartbeatAck {
            epoch,
            checkpoint_cursor,
        } => {
            out.push(TAG_HEARTBEAT_ACK);
            put_u64(out, *epoch);
            put_u64(out, *checkpoint_cursor);
        }
        Message::MigrateOffer { start, end } => {
            out.push(TAG_MIGRATE_OFFER);
            put_u16(out, *start);
            put_u16(out, *end);
        }
        Message::MigrateAccept {
            start,
            end,
            cursor,
            snapshot,
        } => {
            out.push(TAG_MIGRATE_ACCEPT);
            put_u16(out, *start);
            put_u16(out, *end);
            put_u64(out, *cursor);
            put_u32(out, snapshot.len() as u32);
            out.extend_from_slice(snapshot);
        }
        Message::MigrateDone { start, end, cursor } => {
            out.push(TAG_MIGRATE_DONE);
            put_u16(out, *start);
            put_u16(out, *end);
            put_u64(out, *cursor);
        }
    }
}

/// Decodes one payload (tag byte first) into a [`Frame`].
///
/// # Errors
///
/// [`FrameError::UnknownTag`] / [`FrameError::ShortPayload`] on a
/// malformed payload, [`FrameError::BatchTooLong`] on a batch above
/// [`MAX_BATCH_READINGS`].
pub fn decode_frame(payload: &[u8]) -> Result<Frame, FrameError> {
    let mut cur = open_payload(payload)?;
    let msg = match cur.tag {
        TAG_HELLO => {
            let version = cur.u32()?;
            // The epoch is an optional trailing field (pre-fencing
            // peers never send it); absent decodes as 0 = unfenced.
            let epoch = if cur.pos < cur.bytes.len() {
                cur.u64()?
            } else {
                0
            };
            Message::Hello { version, epoch }
        }
        TAG_DATA => Message::Data {
            sensor: SensorId(cur.u16()?),
            seq: cur.u64()?,
            time: cur.u64()?,
            values: cur.value_bits()?.collect(),
        },
        TAG_ACK => Message::Ack {
            sensor: SensorId(cur.u16()?),
            seq: cur.u64()?,
        },
        TAG_FIN => Message::Fin,
        TAG_FIN_ACK => Message::FinAck,
        TAG_NACK => Message::Nack {
            sensor: SensorId(cur.u16()?),
            seq: cur.u64()?,
        },
        TAG_DATA_BATCH => {
            let mut readings = ReadingArena::default();
            let (sensor, first_seq) = cur.run(&mut readings)?;
            cur.end()?;
            return Ok(Frame::Batch(sensor, first_seq, readings));
        }
        TAG_ACK_UP_TO => Message::AckUpTo {
            sensor: SensorId(cur.u16()?),
            seq: cur.u64()?,
        },
        TAG_HELLO_ACK => Message::HelloAck {
            version: cur.u32()?,
            credits: cur.u32()?,
        },
        TAG_HELLO_REJECT => Message::HelloReject {
            supported: cur.u32()?,
        },
        TAG_HEARTBEAT => Message::Heartbeat { epoch: cur.u64()? },
        TAG_HEARTBEAT_ACK => Message::HeartbeatAck {
            epoch: cur.u64()?,
            checkpoint_cursor: cur.u64()?,
        },
        TAG_MIGRATE_OFFER => Message::MigrateOffer {
            start: cur.u16()?,
            end: cur.u16()?,
        },
        TAG_MIGRATE_ACCEPT => {
            let start = cur.u16()?;
            let end = cur.u16()?;
            let cursor = cur.u64()?;
            let len = cur.u32()? as usize;
            let snapshot = cur.take(len)?.to_vec();
            Message::MigrateAccept {
                start,
                end,
                cursor,
                snapshot,
            }
        }
        TAG_MIGRATE_DONE => Message::MigrateDone {
            start: cur.u16()?,
            end: cur.u16()?,
            cursor: cur.u64()?,
        },
        // A log run (`TAG_LOG_RUN`) included: no peer may send one.
        other => return Err(FrameError::UnknownTag(other)),
    };
    cur.end()?;
    Ok(Frame::Message(msg))
}

/// Decodes the readings of a `Data`, `DataBatch` or log-run payload
/// onto the end of `arena` and returns the run's sensor and first
/// sequence number — how the WAL scan reads every kind of log frame,
/// the `DataBatch` frames older binaries logged included. `Ok(None)` is
/// a well-formed payload of any other kind.
///
/// # Errors
///
/// As [`decode_frame`], and for a log run [`FrameError::BadVarint`] /
/// [`FrameError::BadRun`]; `arena` is left as it was.
pub fn decode_readings(
    payload: &[u8],
    arena: &mut ReadingArena,
) -> Result<Option<(SensorId, u64)>, FrameError> {
    let mut cur = open_payload(payload)?;
    if !matches!(cur.tag, TAG_DATA | TAG_DATA_BATCH | TAG_LOG_RUN) {
        return decode_frame(payload).map(|_| None);
    }
    let before = arena.len();
    let run = cur.run(arena).and_then(|run| cur.end().map(|()| run));
    if run.is_err() {
        arena.truncate(before);
    }
    run.map(Some)
}

/// How many readings and values a payload *states* it carries, from
/// its tag and head alone: one reading for `Data`, the count for
/// `DataBatch` and a log run, none otherwise; the values a `Data` or
/// log-run head names, for a `DataBatch` what its bytes leave after the
/// heads. Nothing is validated; this sizes a buffer ahead of a decode
/// that checks every byte, so the values are held to what the payload
/// could back.
pub fn stated_readings(payload: &[u8]) -> (usize, usize) {
    let u16_at = |at: usize| match payload.get(at..at + 2) {
        Some(&[b0, b1]) => usize::from(u16::from_le_bytes([b0, b1])),
        _ => 0,
    };
    // Tag (1), sensor (2) and first seq (8) precede a batch's count.
    let (readings, values, head) = match payload.first() {
        Some(&TAG_DATA) => (1, u16_at(19), 21),
        Some(&TAG_DATA_BATCH) => (u16_at(11), usize::MAX, 13 + 10 * u16_at(11)),
        Some(&TAG_LOG_RUN) => (
            u16_at(11),
            u16_at(11).saturating_mul(u16_at(13)),
            15 + u16_at(11),
        ),
        _ => return (0, 0),
    };
    (readings, values.min(payload.len().saturating_sub(head) / 8))
}

/// Wraps already-encoded payload bytes in the frame envelope
/// (`len` prefix + CRC trailer), appending to `out`.
pub fn frame_payload(payload: &[u8], out: &mut Vec<u8>) {
    frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame to `out` whose payload is whatever `encode`
/// appends: the length prefix is patched and the CRC trailer computed
/// once the payload is in place, so it is written exactly once.
pub fn frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    encode(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[at + 4..]);
    put_u32(out, crc);
}

/// Encodes `msg` as one complete frame (envelope included).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    frame_with(&mut out, |out| encode_payload(msg, out));
    out
}

/// Opens the `[u32 len][payload][u32 crc]` envelope at the head of
/// `bytes`, the one parse the stream and the log share: the length cap,
/// then completeness (`Ok(None)`), then the CRC. Returns the verified
/// payload and the frame's length.
pub(crate) fn open_envelope(bytes: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(&len) = bytes.first_chunk() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge { len });
    }
    let Some(&carried) = bytes.get(4 + len..).and_then(<[u8]>::first_chunk) else {
        return Ok(None);
    };
    let (payload, carried) = (&bytes[4..4 + len], u32::from_le_bytes(carried));
    let computed = crc32(payload);
    if computed != carried {
        return Err(FrameError::BadCrc { computed, carried });
    }
    Ok(Some((payload, 4 + len + 4)))
}

/// Incremental frame decoder: feed raw stream bytes, pop messages.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow without bound.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// [`FrameBuffer::next_frame`] as a [`Message`] (a batch copied out
    /// of its arena), failing as it does.
    pub fn next_message(&mut self) -> Result<Option<Message>, FrameError> {
        Ok(self.next_frame()?.map(Frame::into_message))
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; after an error the stream offset is
    /// untrustworthy and the connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let Some((payload, framed)) = open_envelope(&self.buf[self.start..])? else {
            return Ok(None);
        };
        let frame = decode_frame(payload)?;
        self.start += framed;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(sensor: u16, seq: u64, time: u64, values: Vec<f64>) -> Message {
        Message::Data {
            sensor: SensorId(sensor),
            seq,
            time,
            values,
        }
    }

    #[test]
    fn roundtrip_every_message_kind() {
        let messages = vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                epoch: 0,
            },
            Message::Hello {
                version: PROTOCOL_VERSION,
                epoch: 7,
            },
            data(3, 42, 600, vec![17.25, -80.5]),
            data(0, 0, 0, vec![]),
            Message::Ack {
                sensor: SensorId(7),
                seq: 9,
            },
            Message::Fin,
            Message::FinAck,
            Message::Nack {
                sensor: SensorId(2),
                seq: 11,
            },
            Message::DataBatch {
                sensor: SensorId(4),
                first_seq: 100,
                readings: vec![(300, vec![20.5, 55.0]), (600, vec![21.0, 54.5])],
            },
            Message::DataBatch {
                sensor: SensorId(0),
                first_seq: 0,
                readings: vec![],
            },
            Message::AckUpTo {
                sensor: SensorId(4),
                seq: 101,
            },
            Message::HelloAck {
                version: PROTOCOL_VERSION,
                credits: 32,
            },
            Message::HelloReject {
                supported: PROTOCOL_VERSION,
            },
            Message::Heartbeat { epoch: 3 },
            Message::HeartbeatAck {
                epoch: 3,
                checkpoint_cursor: 4096,
            },
            Message::MigrateOffer { start: 2, end: 5 },
            Message::MigrateAccept {
                start: 2,
                end: 5,
                cursor: 640,
                snapshot: b"sentinet-collector v1\n...".to_vec(),
            },
            Message::MigrateAccept {
                start: 0,
                end: 1,
                cursor: 0,
                snapshot: Vec::new(),
            },
            Message::MigrateDone {
                start: 2,
                end: 5,
                cursor: 640,
            },
        ];
        let mut fb = FrameBuffer::new();
        for m in &messages {
            fb.feed(&encode_frame(m));
        }
        for m in &messages {
            assert_eq!(fb.next_message().unwrap().unwrap(), *m);
        }
        assert_eq!(fb.next_message().unwrap(), None);
    }

    #[test]
    fn nan_and_infinity_roundtrip_bit_exactly() {
        let values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let mut fb = FrameBuffer::new();
        fb.feed(&encode_frame(&data(1, 1, 300, values.clone())));
        let Some(Message::Data { values: got, .. }) = fb.next_message().unwrap() else {
            panic!("expected data");
        };
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&values));
    }

    #[test]
    fn partial_feeds_reassemble() {
        let frame = encode_frame(&data(2, 5, 900, vec![1.0, 2.0]));
        let mut fb = FrameBuffer::new();
        for b in &frame {
            assert!(fb.next_message().unwrap().is_none());
            fb.feed(std::slice::from_ref(b));
        }
        assert!(fb.next_message().unwrap().is_some());
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut frame = encode_frame(&data(2, 5, 900, vec![1.0]));
        let n = frame.len();
        frame[n - 1] ^= 0x01; // flip a CRC trailer bit
        let mut fb = FrameBuffer::new();
        fb.feed(&frame);
        assert!(matches!(fb.next_message(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn payload_flip_is_detected() {
        let mut frame = encode_frame(&data(2, 5, 900, vec![1.0]));
        frame[6] ^= 0x80; // flip a payload bit
        let mut fb = FrameBuffer::new();
        fb.feed(&frame);
        assert!(matches!(fb.next_message(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut fb = FrameBuffer::new();
        fb.feed(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        fb.feed(&[0; 8]);
        assert!(matches!(
            fb.next_message(),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut payload = vec![99u8];
        payload.extend_from_slice(&[0; 4]);
        let mut framed = Vec::new();
        frame_payload(&payload, &mut framed);
        let mut fb = FrameBuffer::new();
        fb.feed(&framed);
        assert!(matches!(fb.next_message(), Err(FrameError::UnknownTag(99))));
    }

    #[test]
    fn migrate_accept_snapshot_length_overrun_is_rejected() {
        let mut payload = Vec::new();
        encode_payload(
            &Message::MigrateAccept {
                start: 1,
                end: 2,
                cursor: 9,
                snapshot: vec![7; 4],
            },
            &mut payload,
        );
        // Claim one more snapshot byte than the payload carries.
        let len_at = 1 + 2 + 2 + 8;
        payload[len_at] = 5;
        assert!(matches!(
            decode_frame(&payload),
            Err(FrameError::ShortPayload {
                tag: TAG_MIGRATE_ACCEPT,
                ..
            })
        ));
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        let mut payload = Vec::new();
        encode_payload(&Message::Fin, &mut payload);
        payload.push(0xAB); // extra byte after a complete Fin
        let mut framed = Vec::new();
        frame_payload(&payload, &mut framed);
        let mut fb = FrameBuffer::new();
        fb.feed(&framed);
        assert!(matches!(
            fb.next_message(),
            Err(FrameError::ShortPayload { .. })
        ));
    }

    #[test]
    fn batch_roundtrips_non_finite_values_bit_exactly() {
        let m = Message::DataBatch {
            sensor: SensorId(3),
            first_seq: 7,
            readings: vec![
                (300, vec![f64::NAN, f64::INFINITY]),
                (600, vec![-0.0, f64::NEG_INFINITY]),
                (900, vec![]),
            ],
        };
        let mut fb = FrameBuffer::new();
        fb.feed(&encode_frame(&m));
        let Some(Message::DataBatch { readings, .. }) = fb.next_message().unwrap() else {
            panic!("expected batch");
        };
        let Message::DataBatch { readings: want, .. } = m else {
            unreachable!()
        };
        assert_eq!(readings.len(), want.len());
        for ((tg, vg), (tw, vw)) in readings.iter().zip(&want) {
            assert_eq!(tg, tw);
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(vg), bits(vw));
        }
    }

    #[test]
    fn truncated_batch_payload_is_short() {
        let m = Message::DataBatch {
            sensor: SensorId(1),
            first_seq: 0,
            readings: vec![(300, vec![1.0]), (600, vec![2.0])],
        };
        let mut payload = Vec::new();
        encode_payload(&m, &mut payload);
        payload.truncate(payload.len() - 3); // cut into the final value
        let mut framed = Vec::new();
        frame_payload(&payload, &mut framed);
        let mut fb = FrameBuffer::new();
        fb.feed(&framed);
        assert!(matches!(
            fb.next_message(),
            Err(FrameError::ShortPayload { .. })
        ));
    }

    /// A batch of `count` one-value readings as raw payload bytes —
    /// `encode_payload` is not asked, so the count can be anything.
    fn batch_payload(count: u16) -> Vec<u8> {
        let mut payload = vec![TAG_DATA_BATCH];
        put_u16(&mut payload, 3);
        put_u64(&mut payload, 0);
        put_u16(&mut payload, count);
        for i in 0..u64::from(count) {
            put_u64(&mut payload, 300 * (i + 1));
            put_u16(&mut payload, 1);
            put_u64(&mut payload, 20.5f64.to_bits());
        }
        payload
    }

    #[test]
    fn batch_reading_cap_is_enforced_where_frames_enter() {
        let at_cap = batch_payload(MAX_BATCH_READINGS as u16);
        match decode_frame(&at_cap).map(Frame::into_message) {
            Ok(Message::DataBatch { readings, .. }) => {
                assert_eq!(readings.len(), MAX_BATCH_READINGS)
            }
            other => panic!("a batch at the cap must decode, got {other:?}"),
        }
        let over = batch_payload(MAX_BATCH_READINGS as u16 + 1);
        assert!(over.len() <= MAX_PAYLOAD, "only the count is over a cap");
        let too_long = FrameError::BatchTooLong {
            count: MAX_BATCH_READINGS + 1,
        };
        assert_eq!(decode_frame(&over), Err(too_long.clone()));
        assert_eq!(
            decode_readings(&over, &mut ReadingArena::default()),
            Err(too_long.clone())
        );
        // Through the stream decoder the error is the connection's end:
        // the frame is never consumed, so every later pop fails too.
        let mut fb = FrameBuffer::new();
        frame_payload(&over, &mut fb.buf);
        fb.feed(&encode_frame(&Message::Fin));
        assert_eq!(fb.next_message(), Err(too_long.clone()));
        assert_eq!(fb.next_message(), Err(too_long));
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn an_arena_round_trips_every_reading_shape_bit_exactly() {
        let widest: Vec<f64> = (0..u16::MAX).map(f64::from).collect();
        let readings: Vec<(Timestamp, Vec<f64>)> = vec![
            (300, vec![]),
            (600, vec![1.5]),
            (900, vec![f64::NAN, f64::NEG_INFINITY, -0.0]),
            (1200, widest),
            (1500, vec![f64::from_bits(0x7FF8_0000_0000_0001)]),
        ];
        let mut arena = ReadingArena::default();
        for (time, values) in &readings {
            arena.push(*time, values);
        }
        assert_eq!(arena.len(), readings.len());
        assert_eq!(arena.values.len(), 1 + 3 + 65_535 + 1);
        let mut frame = Vec::new();
        frame_with(&mut frame, |out| {
            encode_batch_payload(SensorId(4), 100, arena.iter(), out)
        });
        let msg = Message::DataBatch {
            sensor: SensorId(4),
            first_seq: 100,
            readings: readings.clone(),
        };
        assert_eq!(frame, encode_frame(&msg), "an arena encodes as its vectors");
        let mut fb = FrameBuffer::new();
        fb.feed(&frame);
        let Some(Frame::Batch(sensor, first_seq, decoded)) = fb.next_frame().unwrap() else {
            panic!("expected a batch");
        };
        assert_eq!((sensor, first_seq), (SensorId(4), 100));
        assert_eq!(decoded.len(), readings.len());
        for (i, ((time, values), (want_time, want))) in decoded.iter().zip(&readings).enumerate() {
            assert_eq!(time, *want_time);
            assert_eq!(bits(values), bits(want), "reading {i}");
        }
        // Through the `Message` adapter: the same readings, owned.
        fb.feed(&frame);
        assert_eq!(
            format!("{:?}", fb.next_message().unwrap().unwrap()),
            format!("{msg:?}"),
            "NaN-safe compare"
        );
    }

    #[test]
    fn an_arena_truncates_at_reading_boundaries() {
        let mut arena = ReadingArena::default();
        for (time, values) in [(300, &[1.0, 2.0][..]), (600, &[]), (900, &[3.0])] {
            arena.push(time, values);
        }
        arena.truncate(5);
        assert_eq!(arena.len(), 3, "truncating past the end keeps everything");
        arena.truncate(2);
        assert_eq!((arena.len(), arena.values.len()), (2, 2));
        arena.push(1200, &[4.0]);
        let got: Vec<_> = arena.iter().collect();
        assert_eq!(
            got,
            vec![(300, &[1.0, 2.0][..]), (600, &[][..]), (1200, &[4.0][..])]
        );
        arena.truncate(0);
        assert!(arena.is_empty() && arena.values.is_empty());
        assert_eq!(arena.iter().len(), 0);
    }

    #[test]
    fn decode_readings_appends_what_decode_frame_yields() {
        let batch = Message::DataBatch {
            sensor: SensorId(4),
            first_seq: 100,
            readings: vec![
                (300, vec![20.5, 55.0]),
                (600, vec![]),
                (900, vec![f64::NAN]),
            ],
        };
        let single = data(4, 7, 300, vec![1.0, -0.0]);
        // A scan's arena already holds earlier frames' readings.
        let mut arena = ReadingArena::default();
        arena.push(1, &[9.0]);
        for msg in [&batch, &single] {
            let mut payload = Vec::new();
            encode_payload(msg, &mut payload);
            let before = arena.len();
            let run = decode_readings(&payload, &mut arena).unwrap();
            let got: Vec<(Timestamp, Vec<f64>)> = arena
                .iter()
                .skip(before)
                .map(|(t, v)| (t, v.to_vec()))
                .collect();
            let (want_run, want) = match msg {
                Message::DataBatch {
                    sensor,
                    first_seq,
                    readings,
                } => ((*sensor, *first_seq), readings.clone()),
                Message::Data {
                    sensor,
                    seq,
                    time,
                    values,
                } => ((*sensor, *seq), vec![(*time, values.clone())]),
                _ => unreachable!(),
            };
            assert_eq!(run, Some(want_run));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "NaN-safe compare");
            // A payload torn mid-way — or carrying a byte too many —
            // fails as it does through the frame decoder, and leaves
            // none of its readings behind.
            let kept = arena.clone();
            let mut long = payload.clone();
            long.push(0);
            for bad in [&payload[..payload.len() - 3], &long[..]] {
                assert_eq!(
                    decode_readings(bad, &mut arena).unwrap_err(),
                    decode_frame(bad).unwrap_err()
                );
                assert_eq!(format!("{arena:?}"), format!("{kept:?}"));
            }
        }
        // Anything else carries no readings — or is malformed.
        let kept = arena.clone();
        let mut payload = Vec::new();
        encode_payload(&Message::Fin, &mut payload);
        assert_eq!(decode_readings(&payload, &mut arena), Ok(None));
        assert_eq!(
            decode_readings(&[99, 0], &mut arena),
            Err(FrameError::UnknownTag(99))
        );
        assert_eq!(format!("{arena:?}"), format!("{kept:?}"));
    }

    #[test]
    fn a_batch_reserves_only_what_its_payload_can_back() {
        // 40 readings stated, none present: nothing is reserved.
        let mut arena = ReadingArena::default();
        assert!(decode_readings(&batch_payload(40)[..13], &mut arena).is_err());
        assert_eq!((arena.marks.capacity(), arena.values.capacity()), (0, 0));
        // An honest batch is sized once, exactly.
        decode_readings(&batch_payload(40), &mut arena).unwrap();
        assert_eq!((arena.marks.capacity(), arena.values.capacity()), (40, 40));
    }

    #[test]
    fn a_value_count_the_payload_cannot_back_is_a_short_payload() {
        let mut payload = Vec::new();
        encode_payload(&data(1, 2, 300, vec![1.5]), &mut payload);
        let count_at = 1 + 2 + 8 + 8;
        payload[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&payload),
            Err(FrameError::ShortPayload { tag: TAG_DATA, .. })
        ));
    }

    #[test]
    fn stated_readings_reads_the_head_and_nothing_else() {
        let mut payload = Vec::new();
        encode_payload(&data(1, 2, 300, vec![1.5]), &mut payload);
        assert_eq!(stated_readings(&payload), (1, 1));
        assert_eq!(stated_readings(&payload[..20]), (1, 0), "values cut off");
        assert_eq!(stated_readings(&batch_payload(40)), (40, 40));
        assert_eq!(
            stated_readings(&batch_payload(40)[..12]),
            (0, 0),
            "count cut off"
        );
        assert_eq!(stated_readings(&batch_payload(u16::MAX)[..13]), (65_535, 0));
        let run = log_run_payload(&[(300, &[1.0, 2.0]), (600, &[3.0, 4.0]), (900, &[5.0, 6.0])]);
        assert_eq!(stated_readings(&run), (3, 6));
        assert_eq!(
            stated_readings(&run[..15]),
            (3, 0),
            "values held to the bytes"
        );
        payload.clear();
        encode_payload(&Message::Fin, &mut payload);
        assert_eq!(stated_readings(&payload), (0, 0));
        assert_eq!(stated_readings(&[]), (0, 0));
    }

    /// A log run of sensor 4 from seq 100, as the WAL writes it.
    fn log_run_payload(readings: &[(Timestamp, &[f64])]) -> Vec<u8> {
        let mut payload = Vec::new();
        let dims = readings[0].1.len();
        encode_run_payload(
            SensorId(4),
            100,
            dims,
            readings.iter().copied(),
            &mut payload,
        );
        payload
    }

    #[test]
    fn a_log_run_round_trips_any_time_sequence_bit_exactly() {
        // Steps across every varint length, both ways, through 0 and
        // `u64::MAX` and wrapping past them.
        let steps: [i64; 14] = [
            0,
            63,
            64,
            -64,
            -65,
            8_191,
            8_192,
            -(1 << 20),
            1 << 40,
            i64::MAX,
            i64::MIN,
            -1,
            1,
            300,
        ];
        let pool = [
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF0_0000_DEAD_BEEF),
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::NEG_INFINITY,
        ];
        let mut time = 0u64;
        let mut times: Vec<Timestamp> = steps
            .iter()
            .map(|step| {
                time = time.wrapping_add(*step as u64);
                time
            })
            .collect();
        times.extend([u64::MAX, 0, u64::MAX, 1 << 63]);
        let owned: Vec<(Timestamp, Vec<f64>)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, (0..3).map(|d| pool[(i + d) % pool.len()]).collect()))
            .collect();
        let readings: Vec<(Timestamp, &[f64])> =
            owned.iter().map(|(t, v)| (*t, v.as_slice())).collect();
        let payload = log_run_payload(&readings);
        let (mut prev, mut lengths, mut priced) = (0, Vec::new(), 15);
        for (time, values) in &readings {
            lengths.push(step_len(prev, *time));
            priced += step_len(prev, *time) + 8 * values.len() as u64;
            prev = *time;
        }
        for want in [1, 2, 3, 10] {
            assert!(
                lengths.contains(&want),
                "no {want}-byte step in {lengths:?}"
            );
        }
        assert_eq!(payload.len() as u64, priced, "priced as written");
        let mut arena = ReadingArena::default();
        arena.push(7, &[9.0]);
        assert_eq!(
            decode_readings(&payload, &mut arena),
            Ok(Some((SensorId(4), 100)))
        );
        assert_eq!(arena.len(), 1 + readings.len());
        for ((time, values), (want_time, want)) in arena.iter().skip(1).zip(&readings) {
            assert_eq!(time, *want_time);
            assert_eq!(bits(values), bits(want));
        }
        // The wire has no such message.
        assert_eq!(decode_frame(&payload), Err(FrameError::UnknownTag(16)));
        let mut fb = FrameBuffer::new();
        frame_payload(&payload, &mut fb.buf);
        assert_eq!(fb.next_frame(), Err(FrameError::UnknownTag(16)));
    }

    #[test]
    fn damaged_log_runs_are_typed_errors_that_leave_the_arena_as_it_was() {
        // Count at byte 11, dims at 13, readings from 15 on.
        let honest = log_run_payload(&[(300, &[1.0, 2.0]), (600, &[3.0, 4.0]), (900, &[5.0, 6.0])]);
        let with = |at: usize, field: u16| {
            let mut p = honest.clone();
            p[at..at + 2].copy_from_slice(&field.to_le_bytes());
            p
        };
        // A one-value run whose second step is cut inside its varint.
        let long = log_run_payload(&[(1 << 62, &[1.0]), (0, &[2.0])]);
        let (head, value) = (15, 8);
        assert_eq!(long.len(), head + 10 + value + 9 + value);
        let cut_varint = long[..head + 10 + value + 4].to_vec();
        // Two one-value readings with a hand-made first step.
        let stepped = |step: &[u8]| {
            let mut p = with(11, 2);
            p[13..15].copy_from_slice(&1u16.to_le_bytes());
            p.truncate(head);
            p.extend_from_slice(step);
            p.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
            p.extend_from_slice(&[0xD8, 0x04]);
            p.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
            p
        };
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        let mut trailing = honest.clone();
        trailing.push(0);
        let short = |p: &[u8]| FrameError::ShortPayload {
            tag: TAG_LOG_RUN,
            len: p.len() - 1,
        };
        let cases: Vec<(&str, Vec<u8>, FrameError)> = vec![
            ("truncated varint", cut_varint.clone(), short(&cut_varint)),
            (
                "eleven-byte varint",
                stepped(&eleven),
                FrameError::BadVarint,
            ),
            ("varint past u64", stepped(&wide), FrameError::BadVarint),
            (
                "padded varint",
                stepped(&[0xD8, 0x84, 0x00]),
                FrameError::BadVarint,
            ),
            ("count 40 of 3", with(11, 40), short(&honest)),
            (
                "count past the cap",
                with(11, 4097),
                FrameError::BatchTooLong { count: 4097 },
            ),
            (
                "count u16::MAX",
                with(11, u16::MAX),
                FrameError::BatchTooLong { count: 65_535 },
            ),
            ("dims 3 of 2", with(13, 3), short(&honest)),
            ("dims u16::MAX", with(13, u16::MAX), short(&honest)),
            (
                "trailing byte",
                trailing.clone(),
                FrameError::ShortPayload {
                    tag: TAG_LOG_RUN,
                    len: trailing.len(),
                },
            ),
            (
                "count 1",
                with(11, 1),
                FrameError::BadRun { count: 1, dims: 2 },
            ),
            (
                "count 0",
                with(11, 0),
                FrameError::BadRun { count: 0, dims: 2 },
            ),
            (
                "dims 0",
                with(13, 0),
                FrameError::BadRun { count: 3, dims: 0 },
            ),
            ("head cut", honest[..14].to_vec(), short(&honest[..14])),
        ];
        // The one shortest form decodes; every case below is refused.
        assert!(decode_readings(&stepped(&[0xD8, 0x04]), &mut ReadingArena::default()).is_ok());
        assert!(decode_readings(&long, &mut ReadingArena::default()).is_ok());
        for (what, payload, want) in cases {
            let mut arena = ReadingArena::default();
            arena.push(1, &[9.0]);
            let kept = arena.clone();
            assert_eq!(decode_readings(&payload, &mut arena), Err(want), "{what}");
            assert_eq!(format!("{arena:?}"), format!("{kept:?}"), "{what}");
            let mut fresh = ReadingArena::default();
            let _ = decode_readings(&payload, &mut fresh);
            assert!(
                9 * fresh.marks.capacity() <= payload.len()
                    && 8 * fresh.values.capacity() <= payload.len(),
                "{what}: room for {} readings and {} values in {} bytes",
                fresh.marks.capacity(),
                fresh.values.capacity(),
                payload.len()
            );
            assert_eq!(
                decode_frame(&payload),
                Err(FrameError::UnknownTag(16)),
                "{what}"
            );
        }
    }

    #[test]
    fn frame_with_matches_frame_payload() {
        let mut payload = Vec::new();
        encode_payload(&data(2, 5, 900, vec![1.0, 2.0]), &mut payload);
        let mut copied = vec![0xEE];
        frame_payload(&payload, &mut copied);
        let mut in_place = vec![0xEE];
        frame_with(&mut in_place, |out| {
            encode_data_payload(SensorId(2), 5, 900, &[1.0, 2.0], out)
        });
        assert_eq!(in_place, copied);
    }

    #[test]
    fn v1_frames_decode_unchanged_under_v2() {
        // The v1 message set must keep its exact wire bytes so legacy
        // stop-and-wait clients interoperate with a v2 server.
        let hello = encode_frame(&Message::Hello {
            version: PROTOCOL_V1,
            epoch: 0,
        });
        let payload = [TAG_HELLO, 1, 0, 0, 0];
        let mut want = vec![5, 0, 0, 0];
        want.extend_from_slice(&payload);
        want.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
        assert_eq!(hello, want);
        // A legacy epoch-less Hello decodes as epoch 0 (unfenced).
        let mut fb = FrameBuffer::new();
        fb.feed(&hello);
        assert_eq!(
            fb.next_message().unwrap().unwrap(),
            Message::Hello {
                version: PROTOCOL_V1,
                epoch: 0,
            }
        );
        let data = encode_frame(&data(1, 2, 300, vec![1.5]));
        assert_eq!(data[4], 2); // TAG_DATA survives
        assert_eq!(data.len(), 4 + 21 + 8 + 4); // envelope + payload shape
    }

    #[test]
    fn buffer_compaction_preserves_stream() {
        let mut fb = FrameBuffer::new();
        let m = data(1, 7, 300, vec![3.5]);
        for _ in 0..2000 {
            fb.feed(&encode_frame(&m));
            assert_eq!(fb.next_message().unwrap().unwrap(), m);
        }
        assert_eq!(fb.pending(), 0);
    }
}
