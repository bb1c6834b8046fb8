//! Append-only segmented write-ahead log.
//!
//! Every admitted record is logged *before* it is acknowledged to the
//! client, so an ack means durable: after a crash the daemon replays
//! the log through the identical accept path and resumes bit-exactly.
//!
//! On-disk layout: a directory of segments named `wal-00000001.seg`,
//! `wal-00000002.seg`, … — each a concatenation of frames in the same
//! `[u32 len][payload][u32 crc]` envelope as the wire protocol. A lone
//! reading is one wire `Data` payload, so every byte a stop-and-wait
//! client causes is what it always was. A *run* of an appended extent
//! (one sensor, consecutive sequence numbers, one value count, two
//! readings or more) is one payload of the log's own (`frame.rs`
//! header): one head for the run, then each reading's time as a varint
//! step from the one before and its values — 18 bytes a two-value
//! reading five minutes after the last, where the wire's `DataBatch`
//! spends 26. Logs older binaries wrote hold `DataBatch` frames; the
//! scan still reads them, and appends go on behind them.
//! [`RunPlanner`] decides where runs are cut. A frame never spans a
//! segment; a segment rolls once the next frame would push it past
//! the configured size. Everything the log counts — cursors,
//! [`SegmentInfo::records`], reclaim plans — is in readings, and a
//! cursor need not fall on a frame boundary.
//!
//! Opening reads the segments in order, one segment's bytes at a time,
//! and scans each, handing each frame's run on as soon as it checks out:
//! the collector replays it (on a worker thread, for a large log),
//! [`Wal::open`] collects a [`WalLog`]. A decode failure in
//! the *last* segment is treated as a torn tail — the segment is
//! truncated at the start of the frame that failed and every frame
//! before it is recovered exactly. Recovery is therefore
//! frame-granular: a tear inside a batch frame loses the whole frame.
//! No acknowledged reading can be in it, because an ack is released
//! only by an fsync started after the whole extent was appended. (A
//! mid-file bit flip in the last segment is indistinguishable from a
//! torn tail by construction, so later frames are discarded with it;
//! the client retry protocol re-delivers anything that lost its ack.)
//! A decode failure in an *earlier* segment cannot be a torn tail and
//! is reported as corruption instead of being silently dropped.
//!
//! Durability against power loss is governed by [`FsyncPolicy`]. Note
//! that a `kill -9` does not lose page-cache writes — only the machine
//! dying does — so even `fsync=never` survives process kill.
//!
//! Two robustness mechanisms live at this layer (`DESIGN.md` §13):
//!
//! * **Fail-stop on storage errors.** All I/O flows through the
//!   injectable [`Vfs`]. A failed write or fsync *poisons* the log:
//!   the typed [`StorageError`] is captured, every subsequent append
//!   fails with it, and nothing is ever acknowledged past it. After a
//!   failed fsync the kernel may have silently dropped the dirty pages
//!   (the fsyncgate lesson), so retrying would turn an I/O error into
//!   silent data loss; crash-and-replay from the last verified cursor
//!   is the only sound continuation.
//! * **Checkpoint-gated retention.** The log tracks per-segment record
//!   counts against an absolute record index. Once a checkpoint has
//!   durably captured collector state at a cursor, sealed segments
//!   wholly below that cursor can be reclaimed
//!   ([`Wal::plan_reclaim`]/[`Wal::execute_reclaim`]); the log then
//!   reopens against the checkpoint's `(base segment, base records)`
//!   coordinates, deleting any lower-indexed leftovers from a reclaim
//!   that crashed between checkpoint commit and segment deletion.

use crate::collector::RestorePoint;
use crate::frame::{
    decode_readings, encode_data_payload, encode_run_payload, frame_with, open_envelope,
    stated_readings, step_len, FrameError, ReadingArena, MAX_BATCH_READINGS, MAX_PAYLOAD,
};
use crate::vfs::{RealVfs, StorageError, VFile, Vfs, VfsOp};
use sentinet_sim::{SensorId, Timestamp};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One durable record: an admitted sensor reading plus the sequence
/// number it arrived under (kept so replay can rebuild the
/// deduplication state and recognise post-restart retries). `V` holds
/// the values: owned, or `&[f64]` for a record borrowed from an arena.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord<V = Vec<f64>> {
    /// Reporting sensor.
    pub sensor: SensorId,
    /// Per-sensor sequence number the record arrived under.
    pub seq: u64,
    /// Sample timestamp.
    pub time: Timestamp,
    /// Attribute values, preserved bit-exactly.
    pub values: V,
}

/// What [`Wal::open`] collects for tools and tests (a collector's
/// reopen holds none): every on-disk reading in log order, its sensor
/// and sequence number beside one values arena.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalLog {
    pub(crate) keys: Vec<(SensorId, u64)>,
    pub(crate) readings: ReadingArena,
}

impl WalLog {
    /// Readings recovered.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether nothing was recovered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The records, in log order, borrowed from the arena.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = WalRecord<&[f64]>> {
        let records = self.keys.iter().zip(self.readings.iter());
        records.map(|(&(sensor, seq), (time, values))| WalRecord {
            sensor,
            seq,
            time,
            values,
        })
    }

    /// Appends one frame's run from `first_seq` on: one copy of its
    /// values, their ends moved past the log's.
    fn push_run(&mut self, sensor: SensorId, first_seq: u64, run: &ReadingArena) {
        let seqs = (0..run.len() as u64).map(|i| (sensor, first_seq.wrapping_add(i)));
        self.keys.extend(seqs);
        let (marks, at) = (&mut self.readings.marks, self.readings.values.len());
        marks.extend(run.marks.iter().map(|&(time, end)| (time, at + end)));
        self.readings.values.extend_from_slice(&run.values);
    }

    /// The records as owned values, for tests and tools.
    pub fn to_records(&self) -> Vec<WalRecord> {
        let owned = |r: WalRecord<&[f64]>| WalRecord {
            sensor: r.sensor,
            seq: r.seq,
            time: r.time,
            values: r.values.to_vec(),
        };
        self.iter().map(owned).collect()
    }
}

/// What one segment's scan found: the readings handed on, and the
/// offset of the first frame that failed to decode and why, if one did.
pub(crate) type Scanned = (u64, Option<(u64, FrameError)>);

/// When the log forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync (still survives `kill -9`; loses data on power cut).
    Never,
    /// Fsync after every N appended records.
    Batch(u32),
    /// Fsync after every append.
    Always,
}

impl FsyncPolicy {
    /// Parses `never`, `always`, or `batch:N`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "never" => Ok(FsyncPolicy::Never),
            "always" => Ok(FsyncPolicy::Always),
            other => match other.strip_prefix("batch:") {
                Some(n) => match n.parse::<u32>() {
                    Ok(n) if n > 0 => Ok(FsyncPolicy::Batch(n)),
                    _ => Err(format!("bad fsync batch size `{n}`")),
                },
                None => Err(format!(
                    "unknown fsync policy `{other}` (expected never | always | batch:N)"
                )),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Never => write!(f, "never"),
            FsyncPolicy::Batch(n) => write!(f, "batch:{n}"),
            FsyncPolicy::Always => write!(f, "always"),
        }
    }
}

/// Write-ahead log configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segments (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment once the current one would exceed this.
    pub segment_max_bytes: u64,
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// Chaos hook: abort the whole process (as if `kill -9`) right
    /// after the write that logs this process's Nth reading — the Nth
    /// append under v1; under v2 the batch that crosses N is logged
    /// whole first (up to a segment roll inside it).
    pub crash_after: Option<u64>,
    /// The storage layer all I/O goes through ([`RealVfs`] by
    /// default; tests inject a `FaultyVfs`).
    pub vfs: Arc<dyn Vfs>,
    /// On-disk budget for checkpoint-gated retention: when the log
    /// exceeds this, the collector checkpoints and reclaims sealed
    /// segments (and sheds with NACKs once nothing is reclaimable).
    /// `None` retains everything.
    pub retain_bytes: Option<u64>,
}

impl WalConfig {
    /// A config with default segment size (4 MiB), no fsync, real
    /// storage, and unbounded retention.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_max_bytes: 4 << 20,
            fsync: FsyncPolicy::Never,
            crash_after: None,
            vfs: Arc::new(RealVfs),
            retain_bytes: None,
        }
    }
}

/// A WAL failure.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error, with the path involved.
    Io(PathBuf, std::io::Error),
    /// A non-final segment failed to decode — real corruption, not a
    /// torn tail.
    Corrupt {
        /// The corrupt segment.
        segment: PathBuf,
        /// Byte offset of the undecodable record.
        offset: u64,
        /// What went wrong there.
        reason: FrameError,
    },
    /// A decoded frame carried no readings (a well-formed payload of a
    /// kind other than `Data`, `DataBatch` or a log run).
    ForeignRecord {
        /// The segment holding it.
        segment: PathBuf,
        /// Byte offset of the record.
        offset: u64,
    },
    /// A record handed to an append cannot be framed (see
    /// [`Wal::framable`]): logging it would write a frame no reader
    /// decodes. Nothing of it was written; the log stays healthy.
    Unframable {
        /// Sensor of the refused record.
        sensor: SensorId,
        /// Sequence number of the refused record.
        seq: u64,
        /// How many values it carries.
        values: usize,
    },
    /// The log directory starts at a segment index above the expected
    /// base — a retained log opened without its checkpoint.
    MissingPrefix {
        /// The lowest segment present.
        first_segment: u64,
        /// The segment the caller expected the log to start at.
        expected: u64,
    },
    /// A write or fsync failed; the log is poisoned (fail-stop) and
    /// every subsequent append reports this same error.
    Storage(StorageError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(path, e) => write!(f, "wal io error at {}: {e}", path.display()),
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "wal corruption in {} at byte {offset}: {reason}",
                segment.display()
            ),
            WalError::ForeignRecord { segment, offset } => write!(
                f,
                "non-data record in {} at byte {offset}",
                segment.display()
            ),
            WalError::Unframable {
                sensor,
                seq,
                values,
            } => write!(
                f,
                "record ({sensor}, seq {seq}) with {values} values does not fit a wal frame"
            ),
            WalError::MissingPrefix {
                first_segment,
                expected,
            } => write!(
                f,
                "wal starts at segment {first_segment}, expected {expected}: \
                 retained log opened without its checkpoint"
            ),
            WalError::Storage(e) => write!(f, "wal poisoned: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

fn segment_name(index: u64) -> String {
    format!("wal-{index:08}.seg")
}

fn io_err(path: &Path, e: std::io::Error) -> WalError {
    WalError::Io(path.to_path_buf(), e)
}

/// Decodes the frames in `bytes` one at a time into `frame` and hands
/// each CRC-verified frame's run to `visit` before decoding the next.
/// Returns the readings handed on, and the offset of the first frame
/// that fails to decode and why, if one does; it reaches no visitor.
/// `ForeignRecord` (a syntactically valid payload that carries no
/// readings) is real corruption even in the last segment, so it is
/// returned as a hard error directly.
pub(crate) fn scan_segment(
    segment: &Path,
    bytes: &[u8],
    frame: &mut ReadingArena,
    visit: &mut impl FnMut(SensorId, u64, &ReadingArena),
) -> Result<Scanned, WalError> {
    let (mut pos, mut readings) = (0, 0);
    while pos < bytes.len() {
        frame.truncate(0);
        // An incomplete frame is a torn tail here, not a wait for bytes.
        let opened = open_envelope(&bytes[pos..]).and_then(|f| f.ok_or(FrameError::Truncated));
        match opened.and_then(|(payload, framed)| Ok((decode_readings(payload, frame)?, framed))) {
            Ok((Some((sensor, first_seq)), framed)) => {
                readings += frame.len() as u64;
                visit(sensor, first_seq, frame);
                pos += framed;
            }
            Ok((None, _)) => {
                return Err(WalError::ForeignRecord {
                    segment: segment.to_path_buf(),
                    offset: pos as u64,
                })
            }
            Err(reason) => return Ok((readings, Some((pos as u64, reason)))),
        }
    }
    Ok((readings, None))
}

/// How many readings and values the frames in `bytes` state they
/// hold, read off the envelopes and payload heads alone — no CRC, no
/// decode — so [`Wal::open`] sizes its log once a segment instead of
/// doubling into it.
/// Nothing here is trusted further than that: the walk stops at the
/// first frame that does not fit, each frame's values are held to its
/// bytes, and the readings to what `bytes` could possibly back (a
/// reading takes nine bytes at least).
fn count_readings(bytes: &[u8]) -> (usize, usize) {
    let (mut readings, mut values, mut pos) = (0, 0, 0);
    while let Some(&len) = bytes.get(pos..).and_then(|rest| rest.first_chunk()) {
        let len = u32::from_le_bytes(len) as usize;
        let Some(payload) = bytes[pos + 4..].get(..len) else {
            break;
        };
        let (r, v) = stated_readings(payload);
        (readings, values) = (readings + r, values + v);
        pos += 8 + len;
    }
    (readings.min(bytes.len() / 9), values)
}

/// Bookkeeping for one on-disk segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment index (the number in `wal-NNNNNNNN.seg`).
    pub index: u64,
    /// Bytes currently in the segment.
    pub bytes: u64,
    /// Records currently in the segment.
    pub records: u64,
}

/// The outcome of [`Wal::plan_reclaim`]: which sealed segments a
/// committed checkpoint at the given cursor lets the log delete, and
/// the `(base segment, base records)` coordinates the checkpoint must
/// record *before* the deletion happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReclaimPlan {
    /// Segment indices to delete, oldest first.
    pub delete: Vec<u64>,
    /// First surviving segment index after the reclaim.
    pub base_segment: u64,
    /// Absolute index of the first record in that segment.
    pub base_records: u64,
}

impl ReclaimPlan {
    /// Whether the plan deletes anything.
    pub fn is_empty(&self) -> bool {
        self.delete.is_empty()
    }
}

/// The fixed head of a `Data` payload: tag, sensor, seq, time, value
/// count.
const DATA_PAYLOAD_HEAD: u64 = 21;
/// What a lone reading costs on disk besides its values: the envelope
/// (length prefix + CRC trailer) and that head.
const DATA_FRAME_HEAD: u64 = 8 + DATA_PAYLOAD_HEAD;
/// The fixed head of a log run's payload: tag, sensor, first seq,
/// reading count, value count. Each reading adds its time step's
/// varint ([`step_len`]) and its values.
const RUN_PAYLOAD_HEAD: u64 = 15;

/// Where [`RunPlanner::push`] put a reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// It extends the open frame.
    Joined,
    /// The open frame (if any) is complete; the reading opens the next
    /// one in the same segment.
    Opened,
    /// As [`Placement::Opened`], but the active segment has no room
    /// for the new frame: it is sealed first.
    Rolled,
}

/// Cuts an extent into frames — the one place that decides how
/// readings appended in order land on disk. Fed one reading at a time
/// (each [`Wal::framable`]), it extends the open frame while the
/// reading continues the run — same sensor, next sequence number, the
/// run's value count, at least one value — and the frame stays within
/// [`MAX_BATCH_READINGS`], [`MAX_PAYLOAD`] and the room left in the
/// active segment; otherwise it closes the frame and opens the next,
/// after a roll when even a lone reading no longer fits (an empty
/// segment takes any single frame). A run of one is a `Data` frame, a
/// longer one a log run, each reading priced by its time step.
///
/// [`Wal::append_many`] writes exactly the frames the planner cuts,
/// and admission's retention-budget projection pushes the same
/// readings through a copy of it, so the bytes projected are the bytes
/// written. The state is a few words and `Copy`: a caller probes "what
/// if this reading were appended too" on a copy ([`RunPlanner::with`])
/// and keeps it or not. [`RunPlanner::default`] prices frames on their
/// own: an empty segment without a size cap.
#[derive(Debug, Clone, Copy)]
pub struct RunPlanner {
    segment_max: u64,
    /// Bytes in the active segment below the open frame.
    filled: u64,
    /// Bytes of every frame closed so far.
    closed: u64,
    /// Sensor of the open frame.
    sensor: SensorId,
    /// The sequence number that would extend the open frame.
    next_seq: Option<u64>,
    /// Time of the open frame's last reading: the next step's origin.
    last_time: Timestamp,
    /// Values each reading of the open frame carries.
    dims: usize,
    /// Readings in the open frame (0: none is open).
    count: usize,
    /// Run-layout bytes of those readings: steps and values.
    body: u64,
}

impl Default for RunPlanner {
    fn default() -> Self {
        Self {
            segment_max: u64::MAX,
            filled: 0,
            closed: 0,
            sensor: SensorId(0),
            next_seq: None,
            last_time: 0,
            dims: 0,
            count: 0,
            body: 0,
        }
    }
}

impl RunPlanner {
    /// Places the next reading of the extent: `values` values at `time`.
    pub fn push(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: usize,
    ) -> Placement {
        let bits = 8 * values as u64;
        let joined = step_len(self.last_time, time) + bits;
        let payload = RUN_PAYLOAD_HEAD + self.body + joined;
        self.last_time = time;
        if self.count > 0
            && sensor == self.sensor
            && self.next_seq == Some(seq)
            && values == self.dims
            && values > 0
            && self.count < MAX_BATCH_READINGS
            && payload <= MAX_PAYLOAD as u64
            && self.filled + 8 + payload <= self.segment_max
        {
            self.count += 1;
            self.body += joined;
            self.next_seq = seq.checked_add(1);
            return Placement::Joined;
        }
        let open = self.open_bytes();
        self.closed += open;
        self.filled += open;
        let rolled = self.filled > 0 && self.filled + DATA_FRAME_HEAD + bits > self.segment_max;
        if rolled {
            self.filled = 0;
        }
        self.sensor = sensor;
        self.next_seq = seq.checked_add(1);
        self.dims = values;
        self.count = 1;
        self.body = step_len(0, time) + bits;
        if rolled {
            Placement::Rolled
        } else {
            Placement::Opened
        }
    }

    /// The plan with one more reading placed — the probe a budget
    /// check makes before it commits to the reading.
    pub fn with(mut self, sensor: SensorId, seq: u64, time: Timestamp, values: usize) -> Self {
        self.push(sensor, seq, time, values);
        self
    }

    /// On-disk bytes of the open frame as it stands.
    fn open_bytes(&self) -> u64 {
        match self.count {
            0 => 0,
            // A `Data` frame: the reading's time sits in the payload
            // head, whole.
            1 => DATA_FRAME_HEAD + 8 * self.dims as u64,
            _ => 8 + RUN_PAYLOAD_HEAD + self.body,
        }
    }

    /// On-disk bytes of every reading placed so far: what appending
    /// exactly those readings writes.
    pub fn bytes(&self) -> u64 {
        self.closed + self.open_bytes()
    }
}

/// Frames one run the planner cut, appending to `out`.
fn encode_run<V: AsRef<[f64]>>(run: &[WalRecord<V>], out: &mut Vec<u8>) {
    match run {
        [] => {}
        [r] => frame_with(out, |out| {
            encode_data_payload(r.sensor, r.seq, r.time, r.values.as_ref(), out)
        }),
        [first, ..] => frame_with(out, |out| {
            encode_run_payload(
                first.sensor,
                first.seq,
                first.values.as_ref().len(),
                run.iter().map(|r| (r.time, r.values.as_ref())),
                out,
            )
        }),
    }
}

/// Who runs the fsync the policy asks for after an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicySync {
    /// The append itself, before it returns — every direct caller.
    Inline,
    /// Nobody yet: the caller polls [`Wal::sync_due`] and overlaps the
    /// fsync with later appends ([`Wal::begin_sync`]).
    Deferred,
}

/// One overlapped group-commit fsync, from [`Wal::begin_sync`] to
/// [`Wal::complete_sync`]. `cursor` is [`Wal::records_logged`] as it
/// stood *before* the fsync started — the only records the fsync can
/// be trusted to cover, however many were appended while it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SyncTicket {
    pub(crate) cursor: u64,
    /// Segment the fsync runs against (names the file if it fails).
    segment: u64,
}

/// One job for whoever runs overlapped syncs: what [`Wal::begin_sync`]
/// hands the caller, plus the restore point the collector attaches.
#[derive(Default)]
pub(crate) struct SyncStart {
    /// The fsync to run. `None` only on a job the collector made for a
    /// restore point whose cursor a completed fsync already covers.
    pub(crate) ticket: Option<SyncTicket>,
    /// A sync handle on the active segment, present the first time a
    /// sync starts after open or after a roll: it replaces the one the
    /// caller held for the previous segment.
    pub(crate) handle: Option<Box<dyn VFile>>,
    /// A staged restore point riding this sync: committed after the
    /// fsync has been reported, and only if it succeeded.
    pub(crate) restore: Option<Arc<RestorePoint>>,
}

/// The outcome of one overlapped fsync.
#[derive(Debug)]
pub(crate) struct SyncDone {
    result: std::io::Result<()>,
    /// Wall time inside the fsync call.
    ns: u64,
}

impl SyncDone {
    /// The outcome of a sync that could not be run at all.
    pub(crate) fn failed(why: &'static str) -> Self {
        Self {
            result: Err(std::io::Error::other(why)),
            ns: 0,
        }
    }

    /// Whether the fsync succeeded.
    pub(crate) fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Runs the fsync on `handle` and times it.
    pub(crate) fn run(handle: &mut dyn VFile) -> Self {
        let start = std::time::Instant::now();
        let result = handle.fsync();
        Self {
            result,
            ns: start.elapsed().as_nanos() as u64,
        }
    }
}

/// An open write-ahead log, positioned for appending.
pub struct Wal {
    config: WalConfig,
    file: Box<dyn VFile>,
    segment_path: PathBuf,
    appended_this_process: u64,
    records_logged: u64,
    /// Absolute record cursor covered by the last completed fsync.
    /// Records above it are appended but not yet durable; the
    /// pipelined protocol must not ack past this point.
    synced_records: u64,
    /// Cursor of the overlapped sync in flight, if one is (at most one
    /// ever is).
    in_flight: Option<u64>,
    /// Segment whose sync handle [`Wal::begin_sync`] last handed out.
    handle_segment: Option<u64>,
    /// Wall time spent cutting and encoding extents, CRC included
    /// (bench stage breakdown).
    encode_ns: u64,
    /// Wall time spent inside write calls.
    append_ns: u64,
    /// Wall time spent inside fsync calls, on whichever thread.
    fsync_ns: u64,
    /// The part of `fsync_ns` the appending thread itself was blocked
    /// for (inline fsyncs).
    sync_blocked_ns: u64,
    /// Reused extent buffer (taken for the duration of an append).
    extent: Vec<u8>,
    /// On-disk segments, oldest first; the last entry is the one open
    /// for appending.
    segments: Vec<SegmentInfo>,
    /// Absolute record index of the first record in `segments[0]` —
    /// how many records precede the on-disk log (0 for a full log).
    base_records: u64,
    /// Set on the first failed write or fsync; fail-stop from then on.
    poisoned: Option<StorageError>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("segments", &self.segments)
            .field("base_records", &self.base_records)
            .field("records_logged", &self.records_logged)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Wal {
    /// Opens (creating if needed) the log in `config.dir`, recovering
    /// all decodable records and truncating a torn tail.
    ///
    /// `base` is the `(base segment, base records)` coordinate pair
    /// from a durable checkpoint, for a log whose replayed prefix was
    /// reclaimed; `None` means the log is expected from genesis
    /// (segment 1, record 0). Segments below the base are deleted —
    /// they are leftovers of a reclaim that crashed between checkpoint
    /// commit and segment deletion. The returned log holds the
    /// on-disk records; their absolute indices start at the base.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failure, [`WalError::Corrupt`]
    /// if a non-final segment fails to decode, and
    /// [`WalError::MissingPrefix`] if the directory's first segment is
    /// above the expected base (a retained log opened without its
    /// checkpoint).
    pub fn open(config: WalConfig, base: Option<(u64, u64)>) -> Result<(Self, WalLog), WalError> {
        let (mut log, mut frame) = (WalLog::default(), ReadingArena::default());
        let mut collect = |path: &Path, bytes: Vec<u8>| {
            // Sized once a segment from the frame heads, not doubled
            // into.
            let (readings, values) = count_readings(&bytes);
            log.keys.reserve(readings);
            log.readings.reserve(readings, values);
            scan_segment(path, &bytes, &mut frame, &mut |sensor, seq, run| {
                log.push_run(sensor, seq, run);
            })
        };
        let wal = Self::open_with(config, base, &mut collect)?;
        Ok((wal, log))
    }

    /// [`Wal::open`], handing each segment's bytes to `scan` as they are
    /// read instead of collecting the log: `scan` verifies the segment's
    /// frames one at a time, hands each one's run on, and returns what
    /// [`scan_segment`] does, so a reopen holds one segment's bytes at a
    /// time. Every storage call stays on the calling thread, in the
    /// order [`Wal::open`] makes them: a segment's scan result is in
    /// before the next one is read, or the log truncated.
    pub(crate) fn open_with(
        config: WalConfig,
        base: Option<(u64, u64)>,
        scan: &mut impl FnMut(&Path, Vec<u8>) -> Result<Scanned, WalError>,
    ) -> Result<Self, WalError> {
        let vfs = Arc::clone(&config.vfs);
        vfs.create_dir_all(&config.dir)
            .map_err(|e| io_err(&config.dir, e))?;
        let (base_segment, base_records) = base.unwrap_or((1, 0));
        let names = vfs.list(&config.dir).map_err(|e| io_err(&config.dir, e))?;
        let index = |name: &String| {
            name.strip_prefix("wal-")?
                .strip_suffix(".seg")?
                .parse()
                .ok()
        };
        let mut indices: Vec<u64> = names.iter().filter_map(index).collect();
        indices.sort_unstable();
        // Segments below the base are leftovers of an interrupted
        // reclaim: the checkpoint superseding them committed (that is
        // where the base came from), so finish their deletion.
        for &idx in indices.iter().filter(|&&i| i < base_segment) {
            let path = config.dir.join(segment_name(idx));
            vfs.remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
        indices.retain(|&i| i >= base_segment);
        if let Some(&first_segment) = indices.first().filter(|&&first| first > base_segment) {
            return Err(WalError::MissingPrefix {
                first_segment,
                expected: base_segment,
            });
        }
        if indices.is_empty() {
            indices.push(base_segment);
            let path = config.dir.join(segment_name(base_segment));
            drop(vfs.create(&path).map_err(|e| io_err(&path, e))?);
        }

        let mut segments = Vec::with_capacity(indices.len());
        let last = indices.len() - 1;
        for (i, &idx) in indices.iter().enumerate() {
            let path = config.dir.join(segment_name(idx));
            let bytes = vfs.read(&path).map_err(|e| io_err(&path, e))?;
            let len = bytes.len() as u64;
            let (records, failed) = scan(&path, bytes)?;
            let seg_bytes = match failed {
                None => len,
                Some((offset, reason)) => {
                    if i == last {
                        // Torn tail: keep the clean prefix, drop the rest.
                        vfs.truncate(&path, offset).map_err(|e| io_err(&path, e))?;
                        offset
                    } else {
                        return Err(WalError::Corrupt {
                            segment: path,
                            offset,
                            reason,
                        });
                    }
                }
            };
            segments.push(SegmentInfo {
                index: idx,
                bytes: seg_bytes,
                records,
            });
        }

        // sentinet-allow(expect-used): segments is non-empty by construction above
        let active = *segments.last().expect("at least one segment");
        let segment_path = config.dir.join(segment_name(active.index));
        let file = vfs
            .open_append(&segment_path)
            .map_err(|e| io_err(&segment_path, e))?;
        let records_logged = base_records + segments.iter().map(|s| s.records).sum::<u64>();
        Ok(Self {
            config,
            file,
            segment_path,
            appended_this_process: 0,
            records_logged,
            // Everything recovered was read back from disk, so the
            // whole recovered prefix counts as covered.
            synced_records: records_logged,
            in_flight: None,
            handle_segment: None,
            encode_ns: 0,
            append_ns: 0,
            fsync_ns: 0,
            sync_blocked_ns: 0,
            extent: Vec::new(),
            segments,
            base_records,
            poisoned: None,
        })
    }

    /// Total records ever logged (reclaimed + on disk + appended) —
    /// the absolute cursor checkpoints reference.
    pub fn records_logged(&self) -> u64 {
        self.records_logged
    }

    /// Absolute record index of the first on-disk record (0 unless a
    /// prefix was reclaimed).
    pub fn base_records(&self) -> u64 {
        self.base_records
    }

    /// Absolute record cursor covered by a completed fsync — the
    /// pipelined protocol releases acks only up to this watermark.
    /// Under [`FsyncPolicy::Never`] the policy opts out of crash
    /// durability entirely, so the watermark tracks
    /// [`Wal::records_logged`].
    pub fn synced_records(&self) -> u64 {
        match self.config.fsync {
            FsyncPolicy::Never => self.records_logged,
            FsyncPolicy::Always | FsyncPolicy::Batch(_) => self.synced_records,
        }
    }

    /// The configured fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.config.fsync
    }

    /// Adopts `to` as the log's base cursor. Only legal while the log
    /// holds no records beyond its current base — how a migration
    /// destination starts its accounting at the source's cut cursor,
    /// so the restore-point checkpoints it writes later carry cursors
    /// in the same coordinate system as the shipped snapshot. Returns
    /// `false` (and changes nothing) if records exist on disk or `to`
    /// would move the cursor backwards.
    pub fn advance_base(&mut self, to: u64) -> bool {
        if self.records_logged != self.base_records || to < self.base_records {
            return false;
        }
        self.base_records = to;
        self.records_logged = to;
        self.synced_records = to;
        true
    }

    /// Appends since the last covering fsync (0 means every logged
    /// record is durable).
    pub fn unsynced_records(&self) -> u64 {
        self.records_logged - self.synced_records()
    }

    /// Bytes currently on disk across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// On-disk segments, oldest first (the last is open for appends).
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.segments
    }

    /// The storage error that poisoned the log, if any. A poisoned log
    /// rejects every append with the same error and never acks.
    pub fn poisoned(&self) -> Option<&StorageError> {
        self.poisoned.as_ref()
    }

    /// Whether a reading with `values` values fits a frame at all: the
    /// value count travels as a `u16`, and the payload must fit
    /// [`MAX_PAYLOAD`]. An unframable reading is refused before it is
    /// logged, never written as a frame nobody can read back.
    pub fn framable(values: usize) -> bool {
        values <= usize::from(u16::MAX) && DATA_PAYLOAD_HEAD as usize + 8 * values <= MAX_PAYLOAD
    }

    /// A planner positioned where the next append would start: the
    /// active segment as it is filled now.
    pub fn planner(&self) -> RunPlanner {
        RunPlanner {
            segment_max: self.config.segment_max_bytes,
            filled: self.active().bytes,
            ..RunPlanner::default()
        }
    }

    fn poison(&mut self, op: VfsOp, e: &std::io::Error) -> WalError {
        let err = StorageError::new(op, &self.segment_path, e);
        self.poisoned = Some(err.clone());
        WalError::Storage(err)
    }

    /// Appends one record durably (per the fsync policy): an extent of
    /// one through [`Wal::append_many`], so there is a single encode /
    /// roll / fsync-policy / chaos-coordinate path.
    ///
    /// # Errors
    ///
    /// As [`Wal::append_many`].
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_many(std::slice::from_ref(record))
    }

    /// Appends a batch of records as one contiguous extent, framed the
    /// way [`RunPlanner`] cuts it: each run of one sensor's consecutive
    /// sequence numbers and one value count is one CRC-framed log-run
    /// payload, a lone record one `Data` payload. The part of the
    /// extent that fits the active segment reaches the file in a single
    /// write and the fsync policy is charged once per write rather than
    /// once per record —
    /// the group-commit fast path: one fsync covers every record
    /// admitted in the flush interval.
    ///
    /// A frame never spans a segment roll. The `crash_after` chaos
    /// coordinate fires after the write that logs this process's Nth
    /// record.
    ///
    /// # Errors
    ///
    /// [`WalError::Storage`] on write or fsync failure; the log is
    /// poisoned and records at or past the failed write must never be
    /// acknowledged. [`WalError::Unframable`] if a record does not fit
    /// a frame; nothing at or past it is written. Either way, records
    /// of earlier writes in the same call are counted in
    /// [`Wal::records_logged`].
    pub fn append_many(&mut self, records: &[WalRecord]) -> Result<(), WalError> {
        self.append_extent(records, PolicySync::Inline)
    }

    /// [`Wal::append_many`], with the policy fsync either run inline
    /// or left for the caller to overlap (see [`PolicySync`]).
    pub(crate) fn append_extent<V: AsRef<[f64]>>(
        &mut self,
        records: &[WalRecord<V>],
        policy_sync: PolicySync,
    ) -> Result<(), WalError> {
        if let Some(e) = &self.poisoned {
            return Err(WalError::Storage(e.clone()));
        }
        // Nothing at or past a record no frame can hold is written.
        let refused = records
            .iter()
            .position(|r| !Self::framable(r.values.as_ref().len()));
        let all = records;
        let records = &all[..refused.unwrap_or(all.len())];
        let mut extent = std::mem::take(&mut self.extent);
        extent.clear();
        let mut plan = self.planner();
        let mut clock = std::time::Instant::now();
        // `records[..written]` are in the file, `records[written..framed]`
        // framed in `extent`, `records[framed..i]` the open frame.
        let (mut written, mut framed) = (0, 0);
        for (i, r) in records.iter().enumerate() {
            let placement = plan.push(r.sensor, r.seq, r.time, r.values.as_ref().len());
            if placement == Placement::Joined {
                continue;
            }
            encode_run(&records[framed..i], &mut extent);
            framed = i;
            if placement == Placement::Rolled {
                // The extent so far fills the active segment: write it,
                // seal, and carry on in the fresh one.
                self.write_extent(&mut extent, framed - written, policy_sync, clock)?;
                written = framed;
                self.roll_segment()?;
                clock = std::time::Instant::now();
            }
        }
        encode_run(&records[framed..], &mut extent);
        self.write_extent(&mut extent, records.len() - written, policy_sync, clock)?;
        self.extent = extent;
        match refused.map(|i| &all[i]) {
            None => Ok(()),
            Some(r) => Err(WalError::Unframable {
                sensor: r.sensor,
                seq: r.seq,
                values: r.values.as_ref().len(),
            }),
        }
    }

    /// Writes the `count` records framed in `extent` to the active
    /// segment in one call, then settles what follows a write: the
    /// bookkeeping, the inline policy fsync, the chaos abort. `encoding`
    /// is when the caller started cutting and encoding the extent; the
    /// time since is its encode stage.
    fn write_extent(
        &mut self,
        extent: &mut Vec<u8>,
        count: usize,
        policy_sync: PolicySync,
        encoding: std::time::Instant,
    ) -> Result<(), WalError> {
        let start = std::time::Instant::now();
        self.encode_ns = self
            .encode_ns
            .saturating_add((start - encoding).as_nanos() as u64);
        if count == 0 {
            return Ok(());
        }
        let result = self.file.append(extent);
        self.append_ns = self
            .append_ns
            .saturating_add(start.elapsed().as_nanos() as u64);
        if let Err(e) = result {
            // The write may have torn mid-frame; recovery's torn-tail
            // truncation keeps the clean frame prefix.
            return Err(self.poison(VfsOp::Append, &e));
        }
        let len = extent.len() as u64;
        extent.clear();
        let active = self.active_mut();
        active.bytes += len;
        active.records += count as u64;
        self.records_logged += count as u64;
        self.appended_this_process += count as u64;
        if policy_sync == PolicySync::Inline && self.policy_sync_due() {
            self.sync()?;
        }
        if self
            .config
            .crash_after
            .is_some_and(|at| self.appended_this_process >= at)
        {
            // Chaos coordinate: die as if `kill -9`, mid-everything.
            std::process::abort();
        }
        Ok(())
    }

    /// Forces all buffered appends to stable storage.
    ///
    /// # Errors
    ///
    /// [`WalError::Storage`] on fsync failure (the log is poisoned).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Some(e) = &self.poisoned {
            return Err(WalError::Storage(e.clone()));
        }
        if let Err(e) = self.fsync_timed() {
            return Err(self.poison(VfsOp::Fsync, &e));
        }
        self.synced_records = self.records_logged;
        Ok(())
    }

    /// Whether the fsync policy wants a sync now: `always` as soon as
    /// one record is uncovered, `batch:N` once N are. A record is
    /// covered by a completed fsync or by the one in flight.
    fn policy_sync_due(&self) -> bool {
        let covered = self.synced_records.max(self.in_flight.unwrap_or(0));
        let uncovered = self.records_logged - covered;
        match self.config.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::Always => uncovered > 0,
            FsyncPolicy::Batch(n) => uncovered >= u64::from(n),
        }
    }

    /// Whether a caller that defers policy fsyncs
    /// ([`PolicySync::Deferred`]) should start one now: the policy
    /// wants it, none is in flight, and the log is healthy.
    pub(crate) fn sync_due(&self) -> bool {
        self.in_flight.is_none() && self.poisoned.is_none() && self.policy_sync_due()
    }

    /// Whether an overlapped sync is in flight.
    pub(crate) fn sync_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Starts an overlapped sync covering every record logged so far:
    /// captures the cursor *now*, before the fsync runs, and marks the
    /// sync in flight. The caller runs [`SyncDone::run`] on its sync
    /// handle — on any thread, while this log keeps appending — and
    /// reports back through [`Wal::complete_sync`]. `None` when there
    /// is nothing to cover, a sync is already in flight, the log is
    /// poisoned, or the policy is `never`.
    ///
    /// A [`Vfs`] without [`Vfs::open_sync`] cannot overlap: the sync
    /// runs inline instead and `None` comes back, with the watermark
    /// already advanced (or the log poisoned).
    pub(crate) fn begin_sync(&mut self) -> Option<SyncStart> {
        if self.in_flight.is_some() || self.poisoned.is_some() || self.unsynced_records() == 0 {
            return None;
        }
        let segment = self.active().index;
        let handle = if self.handle_segment == Some(segment) {
            None
        } else {
            match self.config.vfs.open_sync(&self.segment_path) {
                Ok(handle) => Some(handle),
                Err(_) => {
                    // A failure poisons the log; callers see that.
                    let _ = self.sync();
                    return None;
                }
            }
        };
        self.handle_segment = Some(segment);
        self.in_flight = Some(self.records_logged);
        Some(SyncStart {
            ticket: Some(SyncTicket {
                cursor: self.records_logged,
                segment,
            }),
            handle,
            restore: None,
        })
    }

    /// Lands the outcome of the sync [`Wal::begin_sync`] started. On
    /// success the watermark rises to the ticket's cursor — never to
    /// the current one — unless an inline sync (a roll, a checkpoint, a
    /// forced flush) already carried it further. Failure poisons the
    /// log exactly as an inline fsync failure does.
    pub(crate) fn complete_sync(&mut self, ticket: SyncTicket, done: SyncDone) {
        self.in_flight = None;
        self.fsync_ns = self.fsync_ns.saturating_add(done.ns);
        if self.poisoned.is_some() {
            return;
        }
        match done.result {
            Ok(()) => self.synced_records = self.synced_records.max(ticket.cursor),
            Err(e) => {
                let path = self.config.dir.join(segment_name(ticket.segment));
                self.poisoned = Some(StorageError::new(VfsOp::Fsync, &path, &e));
            }
        }
    }

    fn active(&self) -> SegmentInfo {
        // sentinet-allow(expect-used): segments is non-empty from open to drop
        *self.segments.last().expect("active segment")
    }

    fn active_mut(&mut self) -> &mut SegmentInfo {
        // sentinet-allow(expect-used): segments is non-empty from open to drop
        self.segments.last_mut().expect("active segment")
    }

    /// `file.fsync` with wall time charged to the fsync stage, and to
    /// this thread's share of it.
    fn fsync_timed(&mut self) -> std::io::Result<()> {
        let start = std::time::Instant::now();
        let result = self.file.fsync();
        let ns = start.elapsed().as_nanos() as u64;
        self.fsync_ns = self.fsync_ns.saturating_add(ns);
        self.sync_blocked_ns = self.sync_blocked_ns.saturating_add(ns);
        result
    }

    /// Wall time spent cutting extents into frames and encoding them
    /// (CRC included) since open — what an append costs before its
    /// write call.
    pub fn encode_ns(&self) -> u64 {
        self.encode_ns
    }

    /// Wall time spent inside write calls since open.
    pub fn append_ns(&self) -> u64 {
        self.append_ns
    }

    /// Wall time spent inside fsync calls since open, inline and
    /// overlapped alike.
    pub fn fsync_ns(&self) -> u64 {
        self.fsync_ns
    }

    /// The part of [`Wal::fsync_ns`] the appending thread was blocked
    /// for: inline fsyncs only, not the overlapped ones a syncer ran.
    pub fn sync_blocked_ns(&self) -> u64 {
        self.sync_blocked_ns
    }

    /// Seals the active segment (fsyncing it) and opens the next one.
    /// Public so retention can seal a lone oversized segment, making
    /// it reclaimable by the next checkpoint.
    ///
    /// # Errors
    ///
    /// [`WalError::Storage`] on fsync/create failure (the log is
    /// poisoned).
    pub fn roll_segment(&mut self) -> Result<(), WalError> {
        if let Some(e) = &self.poisoned {
            return Err(WalError::Storage(e.clone()));
        }
        if let Err(e) = self.fsync_timed() {
            return Err(self.poison(VfsOp::Fsync, &e));
        }
        let next = self.active().index + 1;
        self.segment_path = self.config.dir.join(segment_name(next));
        let vfs = Arc::clone(&self.config.vfs);
        match vfs.create(&self.segment_path) {
            Ok(file) => self.file = file,
            Err(e) => return Err(self.poison(VfsOp::Create, &e)),
        }
        self.segments.push(SegmentInfo {
            index: next,
            bytes: 0,
            records: 0,
        });
        // The seal fsync covered the old segment; every earlier
        // segment was covered by its own seal.
        self.synced_records = self.records_logged;
        Ok(())
    }

    /// Plans which sealed segments a durable checkpoint at `cursor`
    /// would allow deleting, oldest first, until the log fits in
    /// `budget` bytes (the active segment is never deleted, and no
    /// segment holding records at or above the cursor ever is). The
    /// plan's base coordinates must be committed in the checkpoint
    /// *before* [`Wal::execute_reclaim`] runs, so a crash between the
    /// two leaves only deletable leftovers.
    pub fn plan_reclaim(&self, cursor: u64, budget: u64) -> ReclaimPlan {
        let mut plan = ReclaimPlan {
            delete: Vec::new(),
            base_segment: self.segments[0].index,
            base_records: self.base_records,
        };
        let mut total = self.total_bytes();
        let mut first_record = self.base_records;
        for seg in &self.segments[..self.segments.len() - 1] {
            if total <= budget {
                break;
            }
            let end = first_record + seg.records;
            if end > cursor {
                break;
            }
            plan.delete.push(seg.index);
            total -= seg.bytes;
            first_record = end;
            plan.base_segment = seg.index + 1;
            plan.base_records = end;
        }
        plan
    }

    /// Deletes the planned segments. Call only after the checkpoint
    /// carrying the plan's base coordinates has rename-committed: the
    /// log's bookkeeping adopts the new base unconditionally (the
    /// logical truncation is already durable), and a file that fails
    /// to delete is reported but becomes a leftover the next
    /// [`Wal::open`] removes.
    ///
    /// # Errors
    ///
    /// The first deletion failure, as a typed [`StorageError`] (the
    /// log is *not* poisoned — appends remain safe).
    pub fn execute_reclaim(&mut self, plan: &ReclaimPlan) -> Result<(), StorageError> {
        self.segments.retain(|s| !plan.delete.contains(&s.index));
        self.base_records = plan.base_records;
        let vfs = Arc::clone(&self.config.vfs);
        let mut first_err = None;
        for &idx in &plan.delete {
            let path = self.config.dir.join(segment_name(idx));
            if let Err(e) = vfs.remove_file(&path) {
                first_err.get_or_insert(StorageError::new(VfsOp::Remove, &path, &e));
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, FaultSpec, FaultyVfs, StorageFault};
    use std::fs;

    /// Exact on-disk footprint of `record` logged on its own (frame
    /// header + `Data` payload + CRC trailer). Inside a run of an
    /// extent it costs less; [`RunPlanner`] prices those.
    fn framed_len(record: &WalRecord) -> u64 {
        DATA_FRAME_HEAD + 8 * record.values.len() as u64
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sentinet-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(sensor: u16, seq: u64, time: u64, v: f64) -> WalRecord {
        WalRecord {
            sensor: SensorId(sensor),
            seq,
            time,
            values: vec![v, v + 1.0],
        }
    }

    #[test]
    fn append_then_reopen_recovers_everything() {
        let dir = tmpdir("roundtrip");
        let originals: Vec<WalRecord> = (0..50)
            .map(|i| rec(1, i, 300 * (i + 1), i as f64))
            .collect();
        {
            let (mut wal, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
            assert!(recovered.is_empty());
            for r in &originals {
                wal.append(r).unwrap();
            }
            assert_eq!(wal.total_bytes(), 50 * framed_len(&originals[0]));
        }
        let (wal, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.to_records(), originals);
        assert_eq!(wal.records_logged(), 50);
        assert_eq!(wal.base_records(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_many_matches_per_record_appends_byte_for_byte() {
        // No two neighbours share a sensor, so every run is a run of
        // one: the extent is the `Data` frames per-record appends
        // write, and any log an older binary wrote stays readable.
        let records: Vec<WalRecord> = (0..30)
            .map(|i| rec((i % 3) as u16, i, 300 * (i + 1), i as f64))
            .collect();
        let dir_one = tmpdir("many-one");
        let dir_batch = tmpdir("many-batch");
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&dir_one), None).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&dir_batch), None).unwrap();
            wal.append_many(&records).unwrap();
            assert_eq!(wal.records_logged(), 30);
        }
        let a = fs::read(dir_one.join(segment_name(1))).unwrap();
        let b = fs::read(dir_batch.join(segment_name(1))).unwrap();
        assert_eq!(a, b, "batched extent changed the on-disk bytes");
        fs::remove_dir_all(&dir_one).unwrap();
        fs::remove_dir_all(&dir_batch).unwrap();
    }

    /// Three consecutive two-value readings of sensor 1 from `first`
    /// (below 27): one extent, one 77-byte log-run frame — envelope 8,
    /// head 15, and 2 + 16 a reading: every step, the first one's from
    /// 0 included, is a two-byte varint while the time stays below
    /// 8 192 s.
    fn run3(first: u64) -> Vec<WalRecord> {
        (first..first + 3)
            .map(|i| rec(1, i, 300 * (i + 1), i as f64))
            .collect()
    }
    const RUN3_FRAME: u64 = 77;

    #[test]
    fn a_run_is_one_batch_frame_and_a_lone_record_one_data_frame() {
        let dir = tmpdir("frame-kinds");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).unwrap();
        let mut records = run3(0);
        records.push(rec(2, 0, 300, 7.0)); // another sensor: alone
        records.push(rec(1, 4, 1500, 8.0)); // a seq gap on both sides: alone
        records.extend(run3(6)); // and a run again
        wal.append_many(&records).unwrap();
        assert_eq!(wal.records_logged(), 8);
        assert_eq!(wal.total_bytes(), 2 * RUN3_FRAME + 2 * 45);
        drop(wal);
        let bytes = fs::read(dir.join(segment_name(1))).unwrap();
        // A lone reading is a wire `Data` frame, byte for byte; a run is
        // the log's own: its head, then a step and the values a reading.
        let mut want = Vec::new();
        for (run, tag) in [
            (&records[..3], 16),
            (&records[3..4], 2),
            (&records[4..5], 2),
            (&records[5..], 16),
        ] {
            assert_eq!(bytes[want.len() + 4], tag);
            match run {
                [r] => want.extend(crate::frame::encode_frame(&crate::frame::Message::Data {
                    sensor: r.sensor,
                    seq: r.seq,
                    time: r.time,
                    values: r.values.clone(),
                })),
                _ => frame_with(&mut want, |out| {
                    out.push(16);
                    out.extend_from_slice(&run[0].sensor.0.to_le_bytes());
                    out.extend_from_slice(&run[0].seq.to_le_bytes());
                    out.extend_from_slice(&(run.len() as u16).to_le_bytes());
                    out.extend_from_slice(&2u16.to_le_bytes());
                    let mut prev = 0;
                    for r in run {
                        // Steps of 300 s zig-zag to 600: 0xD8 0x04.
                        let step = r.time - prev;
                        assert!((64..8192).contains(&step), "a two-byte varint");
                        let zz = 2 * step;
                        out.extend_from_slice(&[zz as u8 | 0x80, (zz >> 7) as u8]);
                        prev = r.time;
                        for v in &r.values {
                            out.extend_from_slice(&v.to_bits().to_le_bytes());
                        }
                    }
                }),
            }
        }
        assert_eq!(bytes, want);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.to_records(), records);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_scan_sizes_its_output_from_the_frame_heads() {
        let dir = tmpdir("presized");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).unwrap();
        let mut records: Vec<WalRecord> = (0..900).map(|i| rec(1, i, 300 * (i + 1), 0.5)).collect();
        records.extend((0..100).map(|i| rec((i % 2) as u16 + 2, i / 2, 300, 0.5)));
        wal.append_many(&records).unwrap();
        drop(wal);
        let bytes = fs::read(dir.join(segment_name(1))).unwrap();
        assert_eq!(count_readings(&bytes), (1000, 2000));
        // A tear inside a payload ends the walk at that frame; garbage
        // counts for no more than the bytes could back.
        assert_eq!(count_readings(&bytes[..bytes.len() - 10]), (999, 1998));
        assert_eq!(
            count_readings(&bytes[..100]),
            (0, 0),
            "inside the run frame"
        );
        let (readings, values) = count_readings(&[0xFF; 64]);
        assert!(readings <= 7 && values <= 8);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.to_records(), records);
        // 900 readings in run frames, 100 alone: the heads state every
        // reading and every value.
        assert_eq!(
            recovered.keys.capacity(),
            1000,
            "sized once, not doubled into"
        );
        assert_eq!(recovered.readings.marks.capacity(), 1000);
        assert_eq!(recovered.readings.values.capacity(), 2000);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_roll_never_splits_a_frame() {
        // One 40-record run against segments far smaller than its
        // frame: the run is cut where each segment fills, every
        // segment scans clean on its own (no frame straddles a roll),
        // and none exceeds the cap.
        let records: Vec<WalRecord> = (0..40).map(|i| rec(2, i, 300 * (i + 1), 0.5)).collect();
        let dir = tmpdir("many-roll");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 200;
        let segments = {
            let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
            wal.append_many(&records).unwrap();
            wal.segments().to_vec()
        };
        // 8 + 15 + 9 * (2 + 16) = 185 <= 200 < 203: nine records a
        // frame, a frame a segment. From 8 192 s on, the first reading's
        // step from 0 takes three bytes: 186 for the fourth frame, and
        // 8 + 15 + 3 + 16 + 3 * 18 = 96 for the last four records.
        assert_eq!(segments.len(), 5);
        assert!(segments[..3]
            .iter()
            .all(|s| (s.records, s.bytes) == (9, 185)));
        assert_eq!((segments[3].records, segments[3].bytes), (9, 186));
        assert_eq!((segments[4].records, segments[4].bytes), (4, 96));
        for seg in &segments {
            let path = dir.join(segment_name(seg.index));
            let (mut frame, mut out) = (ReadingArena::default(), 0);
            let mut count = |_, _, run: &ReadingArena| out += run.len() as u64;
            let scan = scan_segment(&path, &fs::read(&path).unwrap(), &mut frame, &mut count);
            assert!(matches!(scan, Ok((_, None))), "segment {}", seg.index);
            assert_eq!(out, seg.records);
        }
        let (wal, recovered) = Wal::open(config, None).unwrap();
        assert_eq!(recovered.to_records(), records);
        assert_eq!(wal.segments(), segments);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_overlong_lone_frame_still_enters_an_empty_segment() {
        let dir = tmpdir("overlong");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 40; // below any record's 45 bytes
        let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
        wal.append_many(&run3(0)).unwrap();
        assert_eq!(
            wal.segments()
                .iter()
                .map(|s| (s.index, s.records, s.bytes))
                .collect::<Vec<_>>(),
            vec![(1, 1, 45), (2, 1, 45), (3, 1, 45)]
        );
        drop(wal);
        let (_, recovered) = Wal::open(config, None).unwrap();
        assert_eq!(recovered.to_records(), run3(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unframable_record_is_refused_not_written_wrapped() {
        let dir = tmpdir("unframable");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).unwrap();
        let mut records = run3(0);
        records.push(WalRecord {
            sensor: SensorId(1),
            seq: 3,
            time: 1200,
            values: vec![0.0; 70_000],
        });
        records.push(rec(1, 4, 1500, 1.0));
        let err = wal.append_many(&records).unwrap_err();
        assert!(
            matches!(
                err,
                WalError::Unframable {
                    seq: 3,
                    values: 70_000,
                    ..
                }
            ),
            "{err}"
        );
        assert!(
            wal.poisoned().is_none(),
            "a refusal is not a storage failure"
        );
        assert_eq!(wal.records_logged(), 3, "the records before it are logged");
        wal.append(&rec(1, 4, 1500, 1.0)).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synced_watermark_lags_until_the_covering_fsync() {
        let dir = tmpdir("synced");
        let mut config = WalConfig::new(&dir);
        config.fsync = FsyncPolicy::Batch(8);
        let (mut wal, _) = Wal::open(config, None).unwrap();
        wal.append_many(
            &(0..5)
                .map(|i| rec(1, i, 300 * (i + 1), 1.0))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(wal.records_logged(), 5);
        assert_eq!(wal.synced_records(), 0, "no fsync has covered the extent");
        assert_eq!(wal.unsynced_records(), 5);
        // The next extent crosses the batch threshold: one fsync
        // covers both extents.
        wal.append_many(
            &(5..9)
                .map(|i| rec(1, i, 300 * (i + 1), 1.0))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(wal.synced_records(), 9);
        // An explicit sync advances the watermark to the cursor.
        wal.append(&rec(1, 9, 3000, 1.0)).unwrap();
        assert_eq!(wal.synced_records(), 9);
        wal.sync().unwrap();
        assert_eq!(wal.synced_records(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn never_policy_watermark_tracks_the_cursor() {
        let dir = tmpdir("synced-never");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).unwrap();
        wal.append_many(
            &(0..4)
                .map(|i| rec(1, i, 300 * (i + 1), 1.0))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        // `fsync: never` opts out of durability; the protocol treats
        // every logged record as ackable.
        assert_eq!(wal.synced_records(), 4);
        assert_eq!(wal.unsynced_records(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn recs(seqs: std::ops::Range<u64>) -> Vec<WalRecord> {
        seqs.map(|i| rec(1, i, 300 * (i + 1), 1.0)).collect()
    }

    #[test]
    fn overlapped_sync_covers_only_the_cursor_captured_before_it_started() {
        let dir = tmpdir("overlap");
        let vfs = Arc::new(FaultyVfs::new(FaultPlan::new()));
        let mut config = WalConfig::new(&dir);
        config.fsync = FsyncPolicy::Batch(4);
        config.vfs = vfs.clone();
        let (mut wal, _) = Wal::open(config, None).unwrap();
        wal.append_extent(&recs(0..4), PolicySync::Deferred)
            .unwrap();
        assert_eq!(
            vfs.op_count(VfsOp::Fsync),
            0,
            "a deferred append leaves the policy fsync to the caller"
        );
        assert!(wal.sync_due());
        let opens = vfs.op_count(VfsOp::Create);
        let first = wal.begin_sync().expect("a sync is due");
        let mut handle = first
            .handle
            .expect("a segment's first sync carries its handle");
        assert_eq!(
            vfs.op_count(VfsOp::Create),
            opens,
            "opening the sync handle is not an operation coordinate"
        );
        let ticket = first.ticket.expect("a wal sync always has its ticket");
        assert_eq!(ticket.cursor, 4);
        assert!(wal.begin_sync().is_none(), "at most one sync in flight");
        // Appended while the fsync runs: this sync does not cover it,
        // and the policy does not ask for a second one beside it.
        wal.append_extent(&recs(4..10), PolicySync::Deferred)
            .unwrap();
        assert!(!wal.sync_due());
        wal.complete_sync(ticket, SyncDone::run(handle.as_mut()));
        assert_eq!(vfs.op_count(VfsOp::Fsync), 1);
        assert_eq!(wal.synced_records(), 4, "the cursor read before the fsync");

        // The next sync starts at once and reuses the handle. An inline
        // sync that overtakes it wins; its late completion is a no-op.
        assert!(wal.sync_due(), "six uncovered records against batch:4");
        let second = wal.begin_sync().expect("due again");
        assert!(second.handle.is_none(), "one handle per segment");
        let ticket = second.ticket.expect("ticket");
        assert_eq!(ticket.cursor, 10);
        wal.append(&rec(1, 10, 3300, 1.0)).unwrap();
        assert_eq!(wal.synced_records(), 4, "one uncovered record: not due");
        wal.sync().unwrap();
        assert_eq!(wal.synced_records(), 11);
        wal.complete_sync(ticket, SyncDone::run(handle.as_mut()));
        assert_eq!(wal.synced_records(), 11);
        assert!(wal.sync_blocked_ns() > 0 && wal.fsync_ns() > wal.sync_blocked_ns());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapped_sync_failure_poisons_and_a_roll_hands_out_a_new_handle() {
        let dir = tmpdir("overlap-roll");
        let vfs = Arc::new(FaultyVfs::new(FaultPlan::new().with_fault(FaultSpec {
            path: segment_name(2),
            op: VfsOp::Fsync,
            nth: 1,
            kind: StorageFault::FsyncFail,
            count: 1,
        })));
        let mut config = WalConfig::new(&dir);
        config.fsync = FsyncPolicy::Always;
        config.segment_max_bytes = 2 * framed_len(&rec(1, 0, 300, 1.0));
        config.vfs = vfs.clone();
        let (mut wal, _) = Wal::open(config, None).unwrap();
        wal.append_extent(&recs(0..2), PolicySync::Deferred)
            .unwrap();
        let first = wal.begin_sync().expect("always: due");
        let mut old_handle = first.handle.expect("handle on segment 1");
        // The third record rolls: the seal fsyncs segment 1 inline and
        // covers the ticket before its own fsync returns.
        wal.append_extent(&recs(2..3), PolicySync::Deferred)
            .unwrap();
        assert_eq!(wal.segments().len(), 2);
        assert_eq!(wal.synced_records(), 2);
        wal.complete_sync(
            first.ticket.expect("ticket"),
            SyncDone::run(old_handle.as_mut()),
        );
        assert_eq!(wal.synced_records(), 2);

        let second = wal.begin_sync().expect("record 2 is uncovered");
        let mut new_handle = second.handle.expect("a new segment, a new handle");
        wal.complete_sync(
            second.ticket.expect("ticket"),
            SyncDone::run(new_handle.as_mut()),
        );
        let err = wal.poisoned().expect("the failed fsync poisons the log");
        assert_eq!(err.op, VfsOp::Fsync);
        assert!(err.path.ends_with(segment_name(2)), "{err}");
        assert_eq!(wal.synced_records(), 2, "a failed fsync covers nothing");
        assert!(wal.begin_sync().is_none());
        assert!(matches!(
            wal.append_extent(&recs(3..4), PolicySync::Deferred),
            Err(WalError::Storage(_))
        ));
        assert_eq!(vfs.injected().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A [`Vfs`] that predates `open_sync` (the trait's default).
    #[derive(Debug)]
    struct NoSyncHandle(FaultyVfs);

    impl Vfs for NoSyncHandle {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.0.create_dir_all(dir)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
            self.0.list(dir)
        }
        fn create(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
            self.0.create(path)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
            self.0.open_append(path)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.0.read(path)
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.0.write_file(path, bytes)
        }
        fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
            self.0.truncate(path, len)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.0.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.0.remove_file(path)
        }
        fn available_space(&self, path: &Path) -> Option<u64> {
            self.0.available_space(path)
        }
    }

    #[test]
    fn without_a_sync_handle_a_due_sync_runs_inline() {
        let dir = tmpdir("overlap-unsupported");
        let vfs = Arc::new(NoSyncHandle(FaultyVfs::new(FaultPlan::new())));
        let mut config = WalConfig::new(&dir);
        config.fsync = FsyncPolicy::Always;
        config.vfs = vfs.clone();
        let (mut wal, _) = Wal::open(config, None).unwrap();
        wal.append_extent(&recs(0..3), PolicySync::Deferred)
            .unwrap();
        assert_eq!(wal.synced_records(), 0);
        assert!(wal.begin_sync().is_none(), "nothing to hand a syncer");
        assert_eq!(wal.synced_records(), 3, "the sync ran inline instead");
        assert_eq!(vfs.0.op_count(VfsOp::Fsync), 1);
        assert!(!wal.sync_in_flight());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn never_policy_starts_no_overlapped_sync() {
        let dir = tmpdir("overlap-never");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).unwrap();
        wal.append_extent(&recs(0..3), PolicySync::Deferred)
            .unwrap();
        assert!(!wal.sync_due());
        assert!(wal.begin_sync().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_extent_append_poisons_the_log() {
        let dir = tmpdir("many-poison");
        let mut config = WalConfig::new(&dir);
        config.fsync = FsyncPolicy::Always;
        config.vfs = Arc::new(FaultyVfs::new(FaultPlan::new().with_fault(FaultSpec {
            path: ".seg".into(),
            op: VfsOp::Fsync,
            nth: 1,
            kind: StorageFault::FsyncFail,
            count: 1,
        })));
        let (mut wal, _) = Wal::open(config, None).unwrap();
        let records: Vec<WalRecord> = (0..3).map(|i| rec(1, i, 300 * (i + 1), 1.0)).collect();
        let err = wal.append_many(&records).unwrap_err();
        assert!(matches!(err, WalError::Storage(_)), "{err:?}");
        assert!(wal.poisoned().is_some());
        assert_eq!(wal.synced_records(), 0, "a failed fsync covers nothing");
        assert!(matches!(
            wal.append_many(&records),
            Err(WalError::Storage(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_recover_in_order() {
        let dir = tmpdir("roll");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 64; // force frequent rolls
        let originals: Vec<WalRecord> = (0..40).map(|i| rec(2, i, 300 * (i + 1), 0.5)).collect();
        {
            let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
            for r in &originals {
                wal.append(r).unwrap();
            }
            assert!(wal.segments().len() > 1);
        }
        let segs = fs::read_dir(&dir).unwrap().count();
        assert!(segs > 1, "expected multiple segments, got {segs}");
        let (_, recovered) = Wal::open(config, None).unwrap();
        assert_eq!(recovered.to_records(), originals);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_clean_prefix() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).unwrap();
            for i in 0..10 {
                wal.append(&rec(1, i, 300 * (i + 1), 1.0)).unwrap();
            }
        }
        let seg = dir.join(segment_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap(); // tear mid-record
        drop(f);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.len(), 9);
        // Appending after truncation continues cleanly.
        let (mut wal, _) = Wal::open(WalConfig::new(&dir), None).unwrap();
        wal.append(&rec(1, 9, 3000, 1.0)).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_at_exact_roll_boundary_recovers() {
        let dir = tmpdir("torn-boundary");
        let mut config = WalConfig::new(&dir);
        // Exactly two batch frames per segment: the fifth run opens
        // segment 3 at byte 0, right on the roll boundary.
        config.segment_max_bytes = 2 * RUN3_FRAME;
        let originals: Vec<WalRecord> = (0..5).flat_map(|run| run3(3 * run)).collect();
        {
            let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
            for run in originals.chunks(3) {
                wal.append_many(run).unwrap();
            }
            assert_eq!(
                wal.segments()
                    .iter()
                    .map(|s| (s.index, s.records))
                    .collect::<Vec<_>>(),
                vec![(1, 6), (2, 6), (3, 3)]
            );
        }
        assert_eq!(
            fs::metadata(dir.join(segment_name(1))).unwrap().len(),
            2 * RUN3_FRAME,
            "sealed segment filled to the exact boundary"
        );
        // Tear the frame that sits on the boundary: segment 3's only
        // frame loses its tail, and all three of its records with it.
        let seg3 = dir.join(segment_name(3));
        let f = fs::OpenOptions::new().write(true).open(&seg3).unwrap();
        f.set_len(RUN3_FRAME - 5).unwrap();
        drop(f);
        let (wal, recovered) = Wal::open(config.clone(), None).unwrap();
        assert_eq!(
            recovered.to_records(),
            originals[..12],
            "boundary prefix intact"
        );
        assert_eq!(wal.records_logged(), 12);
        assert_eq!(fs::metadata(&seg3).unwrap().len(), 0, "tail truncated");
        drop(wal);
        // The re-delivered run lands back in segment 3 and the log
        // recovers to the original contents.
        let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
        wal.append_many(&originals[12..]).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(config, None).unwrap();
        assert_eq!(recovered.to_records(), originals);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_earlier_segment_is_a_hard_error() {
        let dir = tmpdir("corrupt");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 64;
        {
            let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
            for i in 0..40 {
                wal.append(&rec(1, i, 300 * (i + 1), 1.0)).unwrap();
            }
        }
        // Flip a byte in the first segment's first record payload.
        let seg = dir.join(segment_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        bytes[6] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            Wal::open(config, None),
            Err(WalError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_poisons_the_log() {
        let dir = tmpdir("fsyncgate");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: segment_name(1),
            op: crate::vfs::VfsOp::Fsync,
            nth: 3,
            kind: StorageFault::FsyncFail,
            count: 1,
        });
        let mut config = WalConfig::new(&dir);
        config.fsync = FsyncPolicy::Always;
        config.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut wal, _) = Wal::open(config, None).unwrap();
        wal.append(&rec(1, 0, 300, 1.0)).unwrap();
        wal.append(&rec(1, 1, 600, 2.0)).unwrap();
        let err = wal.append(&rec(1, 2, 900, 3.0)).expect_err("fsync fault");
        assert!(matches!(&err, WalError::Storage(e) if e.op == crate::vfs::VfsOp::Fsync));
        assert!(wal.poisoned().is_some());
        // Fail-stop: the fault was transient (count=1) but the log
        // stays poisoned — no append, sync, or roll ever succeeds.
        assert!(matches!(
            wal.append(&rec(1, 3, 1200, 4.0)),
            Err(WalError::Storage(_))
        ));
        assert!(matches!(wal.sync(), Err(WalError::Storage(_))));
        assert!(matches!(wal.roll_segment(), Err(WalError::Storage(_))));
        drop(wal);
        // Reopen with clean storage: the two acked records are a
        // prefix of recovery. The third append's bytes reached the
        // file (only its flush promise broke) so it survives too —
        // durable-but-unacked, exactly what the retry protocol covers.
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.len(), 3, "acked prefix plus the unacked tail");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_poisons_and_recovery_truncates() {
        let dir = tmpdir("torn-append");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: segment_name(1),
            op: crate::vfs::VfsOp::Append,
            nth: 3,
            kind: StorageFault::TornWrite { bytes: 7 },
            count: 1,
        });
        let mut config = WalConfig::new(&dir);
        config.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut wal, _) = Wal::open(config, None).unwrap();
        wal.append(&rec(1, 0, 300, 1.0)).unwrap();
        wal.append(&rec(1, 1, 600, 2.0)).unwrap();
        assert!(matches!(
            wal.append(&rec(1, 2, 900, 3.0)),
            Err(WalError::Storage(_))
        ));
        drop(wal);
        let (_, recovered) = Wal::open(WalConfig::new(&dir), None).unwrap();
        assert_eq!(recovered.len(), 2, "torn frame truncated away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reclaim_deletes_only_sealed_segments_below_cursor() {
        let dir = tmpdir("reclaim");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 2 * RUN3_FRAME;
        let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
        for run in 0..7 {
            wal.append_many(&run3(3 * run)).unwrap();
        }
        // Segments: 1:[0,6) 2:[6,12) 3:[12,18) 4:[18,21), two frames
        // of three records in each sealed one.
        assert_eq!(wal.segments().len(), 4);

        // A cursor inside segment 2 — inside its first frame, even:
        // cursors count records, not frames — only frees segment 1,
        // whatever the budget.
        for cursor in [6, 8, 11] {
            let plan = wal.plan_reclaim(cursor, 0);
            assert_eq!(plan.delete, vec![1], "cursor {cursor}");
            assert_eq!((plan.base_segment, plan.base_records), (2, 6));
        }

        // Cursor at 21 with a two-segment budget frees 1 and 2; the
        // active segment is untouchable even with budget 0.
        let plan = wal.plan_reclaim(21, 3 * RUN3_FRAME);
        assert_eq!(plan.delete, vec![1, 2]);
        let all = wal.plan_reclaim(21, 0);
        assert_eq!(all.delete, vec![1, 2, 3]);
        assert_eq!((all.base_segment, all.base_records), (4, 18));

        wal.execute_reclaim(&plan).unwrap();
        assert_eq!(wal.base_records(), 12);
        assert_eq!(wal.total_bytes(), 3 * RUN3_FRAME);
        assert!(!dir.join(segment_name(1)).exists());
        assert!(!dir.join(segment_name(2)).exists());

        // Reopen against the committed base: tail records only,
        // absolute cursor preserved.
        drop(wal);
        let (wal, recovered) = Wal::open(config.clone(), Some((3, 12))).unwrap();
        assert_eq!(recovered.len(), 9);
        assert_eq!(recovered.to_records()[0].seq, 12);
        assert_eq!(wal.records_logged(), 21);
        assert_eq!(wal.base_records(), 12);

        // Opening the retained log without its checkpoint is loud.
        drop(wal);
        assert!(matches!(
            Wal::open(config, None),
            Err(WalError::MissingPrefix {
                first_segment: 3,
                expected: 1
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_deletes_leftover_segments_below_base() {
        let dir = tmpdir("leftover");
        let mut config = WalConfig::new(&dir);
        config.segment_max_bytes = 2 * RUN3_FRAME;
        let (mut wal, _) = Wal::open(config.clone(), None).unwrap();
        for run in 0..5 {
            wal.append_many(&run3(3 * run)).unwrap();
        }
        drop(wal);
        // Simulate a crash between checkpoint commit (base = segment
        // 2, record 6) and segment deletion: segment 1 is still there.
        assert!(dir.join(segment_name(1)).exists());
        let (wal, recovered) = Wal::open(config, Some((2, 6))).unwrap();
        assert!(!dir.join(segment_name(1)).exists(), "leftover deleted");
        assert_eq!(recovered.len(), 9);
        assert_eq!(recovered.to_records()[0].seq, 6);
        assert_eq!(wal.records_logged(), 15);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_parse() {
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("batch:8"), Ok(FsyncPolicy::Batch(8)));
        assert!(FsyncPolicy::parse("batch:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
