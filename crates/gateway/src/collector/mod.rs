//! The durable collector: WAL-backed admission into the detection
//! pipeline.
//!
//! Every delivered frame passes through one fixed sequence of gates:
//!
//! ```text
//! frame → seq dedup → WAL append → ack → reorder buffer → sanitizer
//!       → core::Pipeline
//! ```
//!
//! The WAL append happens *before* the ack, so an acknowledged record
//! is durable; everything after the ack (reordering, late/shed drops,
//! sanitization) is a pure deterministic function of the admitted
//! record sequence. Crash recovery exploits exactly that: on open the
//! WAL's records are replayed through the identical admission path, so
//! the rebuilt pipeline is bit-for-bit the state the crashed process
//! would have reached — a `kill -9` at any point resumes to a
//! [`PipelineReport`] identical to an uninterrupted run.
//!
//! Periodic checkpoints are *restore points*: a checkpoint records the
//! WAL cursor plus a full [`CollectorSnapshot`] (pipeline, reorder
//! buffer, sanitizer, dedup state, liveness accounting) at that
//! cursor. While the full log is present, replay re-derives the
//! snapshot when it passes the cursor and fails loudly on mismatch, so
//! silent WAL corruption (or a non-deterministic code change) cannot
//! masquerade as a clean recovery. Once **checkpoint-gated retention**
//! (`WalConfig::retain_bytes`) reclaims sealed segments below the
//! cursor, recovery instead restores the snapshot and replays only the
//! surviving tail — byte-equal to a full-log replay, because the
//! snapshot is the state the deleted prefix would have rebuilt.
//!
//! Storage failures are **fail-stop** (`DESIGN.md` §13): the first
//! failed write or fsync poisons the WAL, [`Collector::deliver`] stops
//! acknowledging (returning [`DeliverOutcome::Rejected`] so the server
//! NACKs), and the typed [`StorageError`] surfaces in
//! [`GatewayReport::storage`]. Restarting on healthy storage replays
//! the acked prefix bit-identically.
//!
//! Liveness: sensors that fall silent do not stall anything — the
//! window barrier is driven by whatever data does arrive. When a
//! sensor's last admission falls a configurable deadline behind the
//! reorder watermark it is declared silent and surfaced in
//! [`LivenessStatus`] (the paper's missing-packet semantics: its
//! absence from the window is itself the signal), recovering
//! automatically if it reports again.

mod admission;
mod checkpoint;
mod migration;

pub use admission::{BatchOutcome, DeliverOutcome, RejectCause, StageTimings};
pub(crate) use checkpoint::RestorePoint;
pub use checkpoint::CHECKPOINT_FILE;

use crate::frame::ReadingArena;
use crate::reorder::{AdmitOutcome, ReorderBuffer, ReorderConfig};
use crate::snapshot::{
    encode_collector, merge_snapshot, split_snapshot, write_collector, CollectorSnapshot,
};
use crate::vfs::StorageError;
use crate::wal::{
    PolicySync, SyncDone, SyncStart, SyncTicket, Wal, WalConfig, WalError, WalLog, WalRecord,
};
use checkpoint::{read_checkpoint, read_fence, write_fence};
use migration::read_retired;
use sentinet_core::{Pipeline, PipelineConfig, PipelineReport, RecoveryPlan};
use sentinet_sim::{
    IngestError, IngestReport, Payload, Reading, Sanitizer, SensorId, Timestamp, Trace, TraceRecord,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

/// Full gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Detection-pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Sensor sampling period in seconds.
    pub sample_period: u64,
    /// Write-ahead log configuration.
    pub wal: WalConfig,
    /// Reorder buffer tuning.
    pub reorder: ReorderConfig,
    /// Declare a sensor silent once its last admission falls this far
    /// behind the watermark (`None` disables liveness tracking).
    pub silence_deadline: Option<Timestamp>,
    /// Write a checkpoint every N WAL records (0 disables).
    pub checkpoint_every: u64,
    /// Record the released stream as a [`Trace`] from the very first
    /// record — including recovery replay, which happens inside
    /// [`Collector::open`] before [`record_released_trace`]
    /// (`Collector::record_released_trace`) could be called.
    pub record_released: bool,
    /// Owner epoch this collector claims over its WAL directory. `0`
    /// disables fencing entirely (standalone collectors pay nothing).
    /// With a non-zero epoch, [`Collector::open`] refuses a directory
    /// whose persisted fence token names a newer epoch, commits its
    /// own token otherwise, and the deliver path fail-stops with
    /// [`RejectCause::Fenced`] once a newer committed epoch is
    /// observed — on disk or via the wire handshake.
    pub epoch: u64,
    /// Whether the deliver-path fence check runs. Production is always
    /// [`FenceCheck::Enforced`]; see [`FenceCheck::Skip`] for the
    /// mutation seam.
    pub fence: FenceCheck,
    /// Whether a migration cut actually ships the moved sub-range.
    /// Production is always [`CutCheck::Enforced`]; see
    /// [`CutCheck::Skip`] for the mutation seam.
    pub cut: CutCheck,
}

/// Whether a fenced collector actually checks for a newer committed
/// epoch on the deliver path.
///
/// The shipped rule is [`FenceCheck::Enforced`]. [`FenceCheck::Skip`]
/// deliberately re-creates the split-brain the fence exists to prevent
/// — a partitioned-but-alive owner keeps appending to a WAL its
/// successor now owns — so the nemesis campaign can prove it *detects*
/// the violation (a mutation-style self-test mirroring
/// [`AckDiscipline::Eager`](crate::protocol::AckDiscipline)). Production
/// code must never use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceCheck {
    /// Check the persisted fence token (and any wire-observed epoch)
    /// before every append; fail-stop on a newer committed epoch.
    Enforced,
    /// Never check — the deliberately broken mode the nemesis
    /// campaign's mutation self-test must catch.
    Skip,
}

/// Whether [`Collector::export_range`] actually stages the moved
/// sub-range's state into the migration outbox.
///
/// The shipped rule is [`CutCheck::Enforced`]. [`CutCheck::Skip`]
/// deliberately re-creates the bug the durable-cut step exists to
/// prevent — the source retires the range and rebases onto the outside
/// half, but ships an *empty* inside snapshot, so every reading acked
/// below the cut cursor silently vanishes from the fleet — so the
/// nemesis migration campaign can prove it *detects* the loss (a
/// mutation-style self-test mirroring [`FenceCheck::Skip`]).
/// Production code must never use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutCheck {
    /// Stage the real inside half of the snapshot before the rebase —
    /// the shipped cut-then-ship rule.
    Enforced,
    /// Ship an empty inside snapshot while still retiring the range
    /// and rebasing (the deliberately broken mode the migration
    /// campaign's mutation self-test must catch).
    Skip,
}

impl GatewayConfig {
    /// Defaults around a WAL directory: paper-default pipeline, 300 s
    /// sampling, 30 min watermark, checkpoint every 256 records.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            sample_period: 300,
            wal: WalConfig::new(wal_dir),
            reorder: ReorderConfig::default(),
            silence_deadline: Some(3600),
            checkpoint_every: 256,
            record_released: false,
            epoch: 0,
            fence: FenceCheck::Enforced,
            cut: CutCheck::Enforced,
        }
    }
}

/// A gateway-level failure.
#[derive(Debug)]
pub enum GatewayError {
    /// The write-ahead log failed.
    Wal(WalError),
    /// The checkpoint file exists but cannot be parsed.
    CheckpointMalformed(String),
    /// Replay reached the checkpoint cursor with different collector
    /// state than the checkpoint recorded.
    CheckpointMismatch {
        /// WAL cursor the checkpoint was taken at.
        cursor: u64,
    },
    /// The checkpoint cursor lies beyond the recovered WAL — the log
    /// lost durable records the checkpoint had seen (e.g. power loss
    /// under `fsync=never`).
    CheckpointAhead {
        /// WAL cursor the checkpoint was taken at.
        cursor: u64,
        /// Records actually recovered from the WAL.
        recovered: u64,
    },
    /// The WAL's replayed prefix was reclaimed by retention but the
    /// checkpoint that justified the reclaim is gone — the log alone
    /// can no longer rebuild collector state.
    CheckpointMissing {
        /// Lowest WAL segment present on disk.
        first_segment: u64,
    },
    /// The WAL directory's persisted fence token names a newer owner
    /// epoch than this collector was configured with: a successor has
    /// already committed ownership, so opening would split-brain.
    Fenced {
        /// Epoch committed in the fence token.
        persisted: u64,
        /// Epoch this collector was configured with.
        configured: u64,
    },
    /// A live migration step (range export, snapshot install, range
    /// import) could not be made durable: the cut never commits
    /// halfway, so the caller aborts or retries instead of proceeding
    /// on a collector whose on-disk restore point disagrees with the
    /// shipped snapshot.
    MigrationCut(String),
    /// Filesystem error outside the WAL itself.
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Wal(e) => write!(f, "{e}"),
            GatewayError::CheckpointMalformed(reason) => {
                write!(f, "malformed gateway checkpoint: {reason}")
            }
            GatewayError::CheckpointMismatch { cursor } => write!(
                f,
                "checkpoint mismatch at wal cursor {cursor}: replay diverged from checkpointed state"
            ),
            GatewayError::CheckpointAhead { cursor, recovered } => write!(
                f,
                "checkpoint cursor {cursor} beyond recovered wal ({recovered} records); \
                 log lost durable data (consider fsync=always)"
            ),
            GatewayError::CheckpointMissing { first_segment } => write!(
                f,
                "wal starts at retained segment {first_segment} but its checkpoint is missing; \
                 cannot rebuild the reclaimed prefix"
            ),
            GatewayError::Fenced {
                persisted,
                configured,
            } => write!(
                f,
                "wal directory fenced at epoch {persisted}; this collector's epoch {configured} is stale"
            ),
            GatewayError::MigrationCut(reason) => {
                write!(f, "migration cut failed: {reason}")
            }
            GatewayError::Io(path, e) => write!(f, "gateway io error at {}: {e}", path.display()),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<WalError> for GatewayError {
    fn from(e: WalError) -> Self {
        GatewayError::Wal(e)
    }
}

/// Per-sensor sequence-number deduplication window.
///
/// Public so the protocol model checker (`xtask protocol-check`) can
/// drive the *real* dedup/watermark arithmetic as its specification
/// oracle rather than re-implementing it.
#[derive(Debug, Default)]
pub struct SeqTracker {
    /// Lowest sequence number not yet seen.
    next: u64,
    /// Seen sequence numbers above `next` (out-of-order arrivals).
    above: BTreeSet<u64>,
}

impl SeqTracker {
    /// Whether `seq` has not been seen yet (no state change).
    pub fn is_new(&self, seq: u64) -> bool {
        seq >= self.next && !self.above.contains(&seq)
    }

    /// Records `seq`; returns `true` if it was new.
    pub fn observe(&mut self, seq: u64) -> bool {
        if !self.is_new(seq) {
            return false;
        }
        // `u64::MAX` has no successor: `next` stops below it, and the
        // seq itself (which admission refuses) would wait in `above`.
        if seq == self.next && seq < u64::MAX {
            self.next += 1;
            while self.next < u64::MAX && self.above.remove(&self.next) {
                self.next += 1;
            }
        } else {
            self.above.insert(seq);
        }
        true
    }

    /// Records the `count` consecutive seqs from `first` — in one step
    /// when they continue the watermark with nothing seen above it.
    fn observe_run(&mut self, first: u64, count: u64) {
        match first.checked_add(count) {
            Some(end) if first == self.next && self.above.is_empty() => self.next = end,
            _ => (0..count).for_each(|i| {
                self.observe(first + i);
            }),
        }
    }

    /// Highest seq such that every seq at or below it has been seen —
    /// the cumulative-ack watermark (`None` before anything arrived).
    pub fn watermark(&self) -> Option<u64> {
        self.next.checked_sub(1)
    }
}

/// What recovery found on open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Records replayed from the WAL (only the tail above the restore
    /// point, when one was used).
    pub replayed: u64,
    /// WAL cursor of the checkpoint that was verified bit-exactly
    /// during full-log replay, if one existed.
    pub verified_cursor: Option<u64>,
    /// WAL cursor of the restore-point snapshot state was rebuilt
    /// from, when retention had reclaimed the replay prefix.
    pub restored_from: Option<u64>,
    /// Whether a pre-warmed checkpoint image (staged from a heartbeat
    /// before adoption) matched the on-disk checkpoint byte-for-byte
    /// — the standby adopted from a snapshot it had already validated.
    pub prewarmed: bool,
}

/// Current silence accounting (the gateway's degraded-mode surface,
/// alongside the engine's `DegradedStatus`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessStatus {
    /// Sensors currently past their silence deadline, with the stream
    /// time each was last heard from.
    pub silent: Vec<(SensorId, Timestamp)>,
    /// Silence episodes declared over the whole run, including ones
    /// that later recovered.
    pub episodes: usize,
}

impl LivenessStatus {
    /// Whether every sensor is currently reporting.
    pub fn is_live(&self) -> bool {
        self.silent.is_empty()
    }
}

impl fmt::Display for LivenessStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "liveness: silent sensors [")?;
        for (i, (s, last)) in self.silent.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} (last heard t={last})", s.0)?;
        }
        write!(f, "], {} episode(s) total", self.episodes)
    }
}

/// Storage-health accounting: the fail-stop error (if any) plus the
/// retention and shedding counters. Everything here is *about* the
/// disk, so it is excluded from checkpoints and resets on restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageStatus {
    /// The storage failure that poisoned the WAL, if any. While set,
    /// every delivery is rejected (fail-stop; restart to recover).
    pub error: Option<StorageError>,
    /// Deliveries NACKed because the retention budget was exhausted
    /// with nothing reclaimable.
    pub budget_shed: usize,
    /// Deliveries NACKed because the WAL was already poisoned.
    pub storage_rejects: usize,
    /// Checkpoint writes that failed to commit (the previous
    /// checkpoint survives; retention pauses until one commits).
    pub checkpoint_failures: usize,
    /// Reclaims whose segment deletion failed after the checkpoint
    /// committed (the files become leftovers the next open removes).
    pub reclaim_failures: usize,
    /// WAL segments deleted by checkpoint-gated retention.
    pub reclaimed_segments: usize,
    /// Deliveries NACKed because a newer committed owner epoch fenced
    /// this collector (the expected fail-stop of a stale owner after
    /// failover — accounted separately from storage poisoning).
    pub fence_rejects: usize,
    /// The newer epoch that fenced this collector, if any.
    pub fenced_by: Option<u64>,
    /// Deliveries NACKed because the reading cannot be framed (more
    /// values than a frame's count field states, or seq `u64::MAX`). A
    /// property of the reading, not of the disk — like fencing it
    /// leaves [`StorageStatus::is_clean`] alone — and local to this
    /// report: the fleet counters (`report_codec`) do not carry it.
    pub unframable_rejects: usize,
}

impl StorageStatus {
    /// Whether storage is healthy and nothing was shed.
    pub fn is_clean(&self) -> bool {
        self.error.is_none()
            && self.budget_shed == 0
            && self.storage_rejects == 0
            && self.checkpoint_failures == 0
            && self.reclaim_failures == 0
    }
}

/// Everything a finished gateway run produced.
#[derive(Debug, Clone)]
pub struct GatewayReport {
    /// The detection pipeline's report — bit-comparable across runs.
    pub pipeline: PipelineReport,
    /// Ingest accounting: sanitizer rejections plus transport-layer
    /// duplicate/late/shed counts.
    pub ingest: IngestReport,
    /// Silence accounting.
    pub liveness: LivenessStatus,
    /// Storage health: poisoning error and retention counters.
    pub storage: StorageStatus,
    /// Recommended per-sensor recovery actions.
    pub plan: RecoveryPlan,
    /// The complete released stream (present when recording was on —
    /// see [`GatewayConfig::record_released`]). Unlike
    /// [`Collector::released_trace`] mid-run, this includes the
    /// records the final flush released.
    pub released: Option<Trace>,
    /// Client-side transport counters (attempts, retransmits,
    /// timeouts, NACKs, reconnects), filled in by harnesses that own
    /// the uplink end of the run — `None` for server-only runs. Kept
    /// out of checkpoints: it describes the wire, not the state.
    pub uplink: Option<crate::client::UplinkStats>,
}

/// The durable collector. Create with [`Collector::open`], feed with
/// [`deliver`](Collector::deliver), close with
/// [`finish`](Collector::finish).
pub struct Collector {
    config: GatewayConfig,
    wal: Wal,
    reorder: ReorderBuffer,
    down: Downstream,
    seqs: BTreeMap<SensorId, SeqTracker>,
    seq_duplicates: usize,
    liveness: Liveness,
    budget_shed: usize,
    storage_rejects: usize,
    checkpoint_failures: usize,
    reclaim_failures: usize,
    reclaimed_segments: usize,
    /// Newest owner epoch observed (persisted fence token or wire
    /// handshake). Above `config.epoch` ⇒ this collector is fenced.
    observed_epoch: u64,
    fence_rejects: usize,
    unframable_rejects: usize,
    /// Half-open sensor ranges migrated away from this collector
    /// ([`Collector::export_range`]); deliveries inside any of them
    /// NACK with [`RejectCause::Fenced`]. Mirrors the persisted
    /// retired-ranges file, sorted by range start.
    retired: Vec<(u16, u16)>,
    /// WAL cursor of the last committed checkpoint (0: none yet) —
    /// what heartbeats advertise so standbys can pre-warm.
    last_checkpoint_cursor: u64,
    /// Wall time spent in batch admission (dedup/budget probes plus
    /// reorder/sanitize/pipeline), for the bench stage breakdown.
    admission_ns: u64,
    /// Wall time this thread spent staging and committing restore
    /// points, after their WAL sync (see [`StageTimings::checkpoint_ns`]).
    checkpoint_ns: u64,
    /// Wall time the syncer spent committing restore points (see
    /// [`StageTimings::checkpoint_overlapped_ns`]).
    checkpoint_overlapped_ns: u64,
    /// The restore point staged at the last `checkpoint_every` tick of
    /// a deferred-sync delivery, waiting to ride the next overlapped
    /// sync. A newer tick supersedes it.
    restore_staged: Option<Arc<RestorePoint>>,
    /// The one restore point handed to the syncer and not yet landed.
    restore_in_flight: Option<Arc<RestorePoint>>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("wal", &self.wal)
            .field("accepted", &self.down.accepted)
            .finish()
    }
}

/// Everything behind the reorder buffer — sanitizer, window pipeline,
/// what they accepted and refused: the consumer of the released stream.
struct Downstream {
    sanitizer: Sanitizer,
    pipeline: Pipeline,
    accepted: usize,
    rejected: Vec<IngestError>,
    trace_log: Option<Vec<TraceRecord>>,
}

/// Silence accounting: when each sensor was last heard, who is silent,
/// how many silences were declared — and, under a deadline, a queue
/// that lets a watermark advance visit only the sensors it may silence.
struct Liveness {
    deadline: Option<Timestamp>,
    heard: BTreeMap<SensorId, Timestamp>,
    /// A time for every heard sensor not silent, earliest on top, none
    /// above its sensor's latest heard time.
    due: BinaryHeap<Reverse<(Timestamp, SensorId)>>,
    silent: BTreeSet<SensorId>,
    episodes: usize,
}

/// A parsed checkpoint file: header coordinates plus the file's text,
/// whose tail from `body_at` is the snapshot body (kept as text so
/// full-log replay can verify it byte-exactly).
struct CheckpointData {
    cursor: u64,
    base_segment: u64,
    base_records: u64,
    text: String,
    body_at: usize,
}

impl Collector {
    /// Opens the collector over its WAL directory, rebuilding the
    /// state the previous process died with.
    ///
    /// While the full log is on disk, every record is replayed through
    /// the admission path and the latest checkpoint is *verified*
    /// byte-exactly in passing. Once retention has reclaimed the
    /// prefix below the checkpoint cursor, the checkpoint's
    /// [`CollectorSnapshot`] is restored instead and only the
    /// surviving tail is replayed — the result is byte-equal either
    /// way.
    ///
    /// # Errors
    ///
    /// Any [`GatewayError`]; corruption, checkpoint divergence, a
    /// retained log whose checkpoint is missing, and a fence token
    /// naming a newer epoch ([`GatewayError::Fenced`]) are loud
    /// failures, never silent data loss.
    pub fn open(config: GatewayConfig) -> Result<(Self, RecoveryInfo), GatewayError> {
        Self::open_prewarmed(config, None)
    }

    /// [`Collector::open`] with an optional pre-warmed checkpoint
    /// image: the raw bytes of the partition's checkpoint file, staged
    /// by a standby from heartbeat advertisements before adoption. The
    /// on-disk checkpoint stays authoritative — the cached image is
    /// compared against it and [`RecoveryInfo::prewarmed`] records
    /// whether the standby's staged snapshot was already current.
    ///
    /// # Errors
    ///
    /// As [`Collector::open`].
    pub fn open_prewarmed(
        config: GatewayConfig,
        prewarm: Option<&[u8]>,
    ) -> Result<(Self, RecoveryInfo), GatewayError> {
        // Fence gate first: a directory committed to a newer epoch
        // must never be opened by a stale owner, and a newly adopting
        // owner commits its claim before any append can happen.
        // `FenceCheck::Skip` bypasses the gate entirely — the mutation
        // build must be able to resurrect a stale owner to prove the
        // nemesis campaign catches the resulting split-brain.
        if config.epoch > 0 && config.fence == FenceCheck::Enforced {
            let persisted = read_fence(&config.wal)?;
            if persisted > config.epoch {
                return Err(GatewayError::Fenced {
                    persisted,
                    configured: config.epoch,
                });
            }
            if persisted < config.epoch {
                write_fence(&config.wal, config.epoch)?;
            }
        }
        let prewarmed = match prewarm {
            Some(cached) => config
                .wal
                .vfs
                .read(&config.wal.dir.join(CHECKPOINT_FILE))
                .map(|disk| disk == cached)
                .unwrap_or(false),
            None => false,
        };
        let checkpoint = read_checkpoint(&config.wal)?;
        let checkpoint_cursor = checkpoint.as_ref().map_or(0, |c| c.cursor);
        let retired = read_retired(&config.wal)?;
        let base = checkpoint
            .as_ref()
            .map(|c| (c.base_segment, c.base_records));
        let (wal, records) = match Wal::open(config.wal.clone(), base) {
            Ok(opened) => opened,
            Err(WalError::MissingPrefix { first_segment, .. }) if checkpoint.is_none() => {
                return Err(GatewayError::CheckpointMissing { first_segment })
            }
            Err(e) => return Err(e.into()),
        };
        let base_records = wal.base_records();
        let recovered = base_records + records.len() as u64;
        if let Some(ck) = &checkpoint {
            if ck.cursor > recovered {
                return Err(GatewayError::CheckpointAhead {
                    cursor: ck.cursor,
                    recovered,
                });
            }
            if ck.cursor < ck.base_records {
                return Err(GatewayError::CheckpointMalformed(format!(
                    "cursor {} below base {}",
                    ck.cursor, ck.base_records
                )));
            }
        }

        if let Some(ck) = checkpoint.as_ref().filter(|c| c.base_records > 0) {
            // Restore mode: the prefix below the cursor was reclaimed;
            // rebuild state from the snapshot, replay only the tail.
            let snap = ck
                .snapshot()
                .map_err(checkpoint::malformed(CHECKPOINT_FILE))?;
            // Counters excluded from the snapshot (retransmissions,
            // storage health, the released-trace log) start fresh.
            let mut collector = Self::fresh(config, wal);
            collector.rebase(snap)?;
            collector.retired = retired;
            collector.last_checkpoint_cursor = checkpoint_cursor;
            let skip = (ck.cursor - base_records) as usize;
            let replayed = (records.len() - skip) as u64;
            for run in records.runs(skip, None) {
                collector.replay(&records, run);
            }
            let info = RecoveryInfo {
                replayed,
                verified_cursor: None,
                restored_from: Some(ck.cursor),
                prewarmed,
            };
            return Ok((collector, info));
        }

        // Full-log mode: replay everything, verifying the checkpoint
        // snapshot byte-exactly as the cursor goes by.
        let mut collector = Self::fresh(config, wal);
        collector.retired = retired;
        collector.last_checkpoint_cursor = checkpoint_cursor;
        let mut verified_cursor = None;
        let replayed = records.len() as u64;
        let cut = checkpoint.as_ref().map(|ck| ck.cursor as usize);
        for run in records.runs(0, cut) {
            let end = run.end as u64;
            collector.replay(&records, run);
            if let Some(ck) = checkpoint.as_ref().filter(|ck| ck.cursor == end) {
                let now = encode_collector(&collector.snapshot());
                if now != ck.body() {
                    return Err(GatewayError::CheckpointMismatch { cursor: ck.cursor });
                }
                verified_cursor = Some(ck.cursor);
            }
        }
        let info = RecoveryInfo {
            replayed,
            verified_cursor,
            restored_from: None,
            prewarmed,
        };
        Ok((collector, info))
    }

    /// Replays one logged run: seen by the dedup tracker, then admitted
    /// through the live path's run admission.
    fn replay(&mut self, log: &WalLog, run: std::ops::Range<usize>) {
        let (sensor, first_seq) = log.keys[run.start];
        let tracker = self.seqs.entry(sensor).or_default();
        tracker.observe_run(first_seq, run.len() as u64);
        self.admit_run(sensor, log.readings.range(run));
    }

    /// A collector with empty state over an opened WAL.
    fn fresh(config: GatewayConfig, wal: Wal) -> Self {
        let deadline = config.silence_deadline;
        let down = Downstream {
            sanitizer: Sanitizer::new(),
            pipeline: Pipeline::new(config.pipeline.clone(), config.sample_period),
            accepted: 0,
            rejected: Vec::new(),
            trace_log: config.record_released.then(Vec::new),
        };
        Self {
            reorder: ReorderBuffer::new(config.reorder.clone()),
            config,
            wal,
            down,
            seqs: BTreeMap::new(),
            seq_duplicates: 0,
            liveness: Liveness::restore(deadline, Vec::new(), Vec::new(), 0),
            budget_shed: 0,
            storage_rejects: 0,
            checkpoint_failures: 0,
            reclaim_failures: 0,
            reclaimed_segments: 0,
            observed_epoch: 0,
            fence_rejects: 0,
            unframable_rejects: 0,
            retired: Vec::new(),
            last_checkpoint_cursor: 0,
            admission_ns: 0,
            checkpoint_ns: 0,
            checkpoint_overlapped_ns: 0,
            restore_staged: None,
            restore_in_flight: None,
        }
    }

    /// The replay-deterministic image of this collector (everything a
    /// checkpoint must carry to act as a restore point).
    ///
    /// Public as the federation handoff export hook: a controller
    /// transfers this snapshot (already durable inside the v2
    /// checkpoint) to a standby, which rebuilds the dead collector's
    /// state via [`Collector::open`] on the same WAL directory —
    /// snapshot restore plus WAL-tail replay, the identical admission
    /// path.
    pub fn snapshot(&self) -> CollectorSnapshot {
        CollectorSnapshot {
            pipeline: self.down.pipeline.snapshot(),
            reorder: self.reorder.snapshot(),
            sanitizer: self.down.sanitizer.snapshot(),
            seqs: self
                .seqs
                .iter()
                .map(|(&s, t)| (s, t.next, t.above.iter().copied().collect()))
                .collect(),
            accepted: self.down.accepted,
            rejected: self.down.rejected.clone(),
            last_heard: self.liveness.heard.iter().map(|(&s, &t)| (s, t)).collect(),
            silent: self.liveness.silent.iter().copied().collect(),
            episodes: self.liveness.episodes,
        }
    }

    /// Starts recording the released (post-reorder, pre-sanitize
    /// accepted) stream as a [`Trace`], for re-running through the
    /// sharded engine. Call before any records are delivered.
    pub fn record_released_trace(&mut self) {
        self.down.trace_log = Some(Vec::new());
    }

    /// Ingest accounting so far (transport counters merged in).
    pub fn ingest_report(&self) -> IngestReport {
        let stats = self.reorder.stats();
        IngestReport {
            accepted: self.down.accepted,
            rejected: self.down.rejected.clone(),
            duplicates: self.seq_duplicates + stats.duplicates,
            late: stats.late,
            shed: stats.shed,
        }
    }

    /// Current silence accounting.
    pub fn liveness(&self) -> LivenessStatus {
        let Liveness { heard, silent, .. } = &self.liveness;
        LivenessStatus {
            silent: silent
                .iter()
                .map(|s| (*s, heard.get(s).copied().unwrap_or(0)))
                .collect(),
            episodes: self.liveness.episodes,
        }
    }

    /// Current storage health: fail-stop error plus retention and
    /// shedding counters.
    pub fn storage_status(&self) -> StorageStatus {
        StorageStatus {
            error: self.wal.poisoned().cloned(),
            budget_shed: self.budget_shed,
            storage_rejects: self.storage_rejects,
            checkpoint_failures: self.checkpoint_failures,
            reclaim_failures: self.reclaim_failures,
            reclaimed_segments: self.reclaimed_segments,
            fence_rejects: self.fence_rejects,
            fenced_by: (self.config.epoch > 0 && self.observed_epoch > self.config.epoch)
                .then_some(self.observed_epoch),
            unframable_rejects: self.unframable_rejects,
        }
    }

    /// The released trace recorded since
    /// [`record_released_trace`](Collector::record_released_trace).
    pub fn released_trace(&self) -> Option<Trace> {
        self.down
            .trace_log
            .as_ref()
            .map(|records| Trace::from_records(records.clone()))
    }

    /// Absolute WAL cursor: records ever logged, including any
    /// reclaimed prefix (the checkpoint cursor domain).
    pub fn wal_records(&self) -> u64 {
        self.wal.records_logged()
    }

    /// Bytes the WAL currently occupies on disk (what
    /// `--wal-retain-bytes` bounds).
    pub fn wal_footprint(&self) -> u64 {
        self.wal.total_bytes()
    }

    /// End of stream: flushes the reorder buffer and the final window,
    /// lands or runs any restore point still on its way, syncs the
    /// WAL, and produces the run's report.
    ///
    /// Never fails on storage: a poisoned WAL (including a final sync
    /// that fails) is reported through [`GatewayReport::storage`]
    /// instead, so the operator always gets the run's accounting.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures only.
    pub fn finish(mut self) -> Result<GatewayReport, GatewayError> {
        let down = &mut self.down;
        self.reorder
            .release_all(|time, sensor, values| down.take(time, sensor, values));
        for outcome in self.down.pipeline.finalize() {
            self.down.pipeline.recycle_outcome(outcome);
        }
        self.flush_restore_points()?;
        if self.wal.poisoned().is_none() {
            // A failure here poisons the WAL; it is surfaced via the
            // storage status rather than aborting the report.
            let _ = self.wal.sync();
        }
        let ingest = self.ingest_report();
        let liveness = self.liveness();
        let storage = self.storage_status();
        let pipeline = self.down.pipeline.report();
        let plan = RecoveryPlan::from_report(&pipeline);
        let released = self.down.trace_log.take().map(Trace::from_records);
        Ok(GatewayReport {
            pipeline,
            ingest,
            liveness,
            storage,
            plan,
            released,
            uplink: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::checkpoint::CHECKPOINT_TMP;
    use super::*;
    use crate::vfs::{FaultPlan, FaultyVfs};
    use crate::wal::FsyncPolicy;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::Arc;

    pub(super) fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sentinet-collector-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    pub(super) fn config(dir: &PathBuf) -> GatewayConfig {
        let mut c = GatewayConfig::new(dir);
        c.reorder.watermark_delay = 600;
        c.checkpoint_every = 16;
        c
    }

    /// A small deterministic two-sensor stream.
    pub(super) fn stream(n: u64) -> Vec<(SensorId, u64, Timestamp, Vec<f64>)> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = 300 * (i + 1);
            for s in 0..2u16 {
                let v = 20.0 + (i % 7) as f64 + s as f64;
                out.push((SensorId(s), i, t, vec![v, v + 30.0]));
            }
        }
        out
    }

    /// Runs the whole stream on a fresh dir and returns the report.
    pub(super) fn baseline(
        name: &str,
        records: &[(SensorId, u64, Timestamp, Vec<f64>)],
    ) -> GatewayReport {
        let dir = tmpdir(name);
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in records.iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let report = c.finish().unwrap();
        fs::remove_dir_all(&dir).unwrap();
        report
    }

    #[test]
    fn seq_tracker_dedups_and_advances() {
        let mut t = SeqTracker::default();
        assert!(t.is_new(0));
        assert!(t.observe(0));
        assert!(t.observe(2));
        assert!(!t.is_new(0));
        assert!(!t.is_new(2));
        assert!(!t.observe(0));
        assert!(!t.observe(2));
        assert!(t.is_new(1));
        assert!(t.observe(1));
        assert!(!t.observe(1));
        assert!(t.observe(3));
        assert_eq!(t.next, 4);
        assert!(t.above.is_empty());
    }

    #[test]
    fn restart_resumes_bit_identically() {
        let dir_b = tmpdir("resume-b");
        let records = stream(120);
        let baseline = baseline("resume-a", &records);

        // Interrupted run: drop the collector cold mid-stream (the
        // in-process analogue of kill -9), reopen, keep going — with
        // a retransmitted overlap to exercise recovered dedup state.
        let (mut c, _) = Collector::open(config(&dir_b)).unwrap();
        for (s, seq, t, v) in records[..150].iter().cloned() {
            c.deliver(s, seq, t, v).unwrap();
        }
        drop(c); // no finish(), no flush: simulated crash
        let (mut c2, info) = Collector::open(config(&dir_b)).unwrap();
        assert_eq!(info.replayed, 150);
        assert!(info.verified_cursor.is_some(), "checkpoint verified");
        assert_eq!(info.restored_from, None, "full log still present");
        for (s, seq, t, v) in records[140..].iter().cloned() {
            c2.deliver(s, seq, t, v).unwrap();
        }
        let resumed = c2.finish().unwrap();

        assert_eq!(
            format!("{}", baseline.pipeline),
            format!("{}", resumed.pipeline)
        );
        assert_eq!(baseline.ingest.accepted, resumed.ingest.accepted);
        assert_eq!(resumed.ingest.duplicates, 10, "overlap re-acked");
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn seeded_fault_sweep_always_recovers_to_baseline() {
        // Kill-anywhere property: whatever a seeded fault schedule
        // does to a run, restarting on healthy storage and
        // redelivering the stream converges to the clean baseline.
        let records = stream(30);
        let expect = baseline("sweep-base", &records);
        for seed in 0..12u64 {
            let dir = tmpdir(&format!("sweep-{seed}"));
            let plan = FaultPlan::seeded(seed, &[".seg", CHECKPOINT_FILE, CHECKPOINT_TMP], 3);
            let mut cfg = config(&dir);
            cfg.wal.fsync = FsyncPolicy::Batch(4);
            cfg.wal.segment_max_bytes = 512;
            cfg.wal.vfs = Arc::new(FaultyVfs::new(plan));
            if let Ok((mut c, _)) = Collector::open(cfg) {
                for (s, seq, t, v) in records.iter().cloned() {
                    if c.deliver(s, seq, t, v).is_err() {
                        break; // treat as a crash
                    }
                }
                drop(c); // crash without finish
            }
            let (mut c, _) = Collector::open(config(&dir))
                .unwrap_or_else(|e| panic!("seed {seed}: clean reopen failed: {e}"));
            for (s, seq, t, v) in records.iter().cloned() {
                let out = c.deliver(s, seq, t, v).unwrap();
                assert!(
                    matches!(out, DeliverOutcome::Accepted | DeliverOutcome::Duplicate),
                    "seed {seed}: healthy storage must ack ({out:?})"
                );
            }
            let report = c.finish().unwrap();
            assert_eq!(
                format!("{}", expect.pipeline),
                format!("{}", report.pipeline),
                "seed {seed}: recovery diverged from baseline"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Pre-warm: a standby that cached the latest checkpoint bytes
    /// opens with `RecoveryInfo::prewarmed` set; stale or absent cache
    /// bytes fall back to a cold open with the same end state.
    #[test]
    fn prewarmed_open_matches_cold_open() {
        let dir = tmpdir("prewarm");
        let mut cfg = config(&dir);
        cfg.checkpoint_every = 4;
        let (mut c, _) = Collector::open(cfg).unwrap();
        let records = stream(8);
        for (s, seq, t, v) in records.iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        drop(c);
        let snapshot = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();

        let (cold, cold_rec) = Collector::open(config(&dir)).unwrap();
        assert!(!cold_rec.prewarmed);
        let cold_cursor = cold.checkpoint_cursor();
        drop(cold);

        let (warm, warm_rec) = Collector::open_prewarmed(config(&dir), Some(&snapshot)).unwrap();
        assert!(warm_rec.prewarmed, "matching cache bytes count as warm");
        assert_eq!(warm_rec.replayed, cold_rec.replayed);
        assert_eq!(warm.checkpoint_cursor(), cold_cursor);
        drop(warm);

        let (_, stale_rec) =
            Collector::open_prewarmed(config(&dir), Some(b"sentinet-checkpoint stale")).unwrap();
        assert!(!stale_rec.prewarmed, "stale cache bytes are a cold open");
        fs::remove_dir_all(&dir).unwrap();
    }
}
