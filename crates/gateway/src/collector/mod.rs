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
//! cursor — the buffered readings the log still holds named by their
//! log position, the rest copied by value. While the full log is present, replay re-derives the
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
mod replay;

pub use admission::{BatchOutcome, DeliverOutcome, RejectCause, StageTimings};
pub(crate) use checkpoint::RestorePoint;
pub use checkpoint::CHECKPOINT_FILE;

use crate::frame::ReadingArena;
use crate::reorder::{AdmitOutcome, ByPosition, ReorderBuffer, ReorderConfig, ReorderSnapshot};
use crate::snapshot::{
    encode_collector, merge_snapshot, split_snapshot, write_collector, CollectorSnapshot,
};
use crate::vfs::StorageError;
use crate::wal::{
    PolicySync, SyncDone, SyncStart, SyncTicket, Wal, WalConfig, WalError, WalRecord,
};
use checkpoint::{read_checkpoint, read_fence, write_fence};
use migration::read_retired;
use replay::{Check, Replay};
use sentinet_core::{Pipeline, PipelineConfig, PipelineReport, RecoveryPlan};
use sentinet_sim::{IngestError, IngestReport, Sanitizer, SensorId, Timestamp};
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
    /// Owner epoch this collector claims over its WAL directory. `0`
    /// disables fencing entirely (standalone collectors pay nothing).
    /// With a non-zero epoch, [`Collector::open`] refuses a directory
    /// whose persisted fence token names a newer epoch, commits its
    /// own token otherwise, and the deliver path fail-stops with
    /// [`RejectCause::Fenced`] once a newer committed epoch is
    /// observed — on disk or via the wire handshake.
    pub epoch: u64,
    /// The bug a checker's must-fail self-test plants; `None` runs the
    /// shipped code, and nothing but those self-tests sets it.
    pub mutant: Option<Mutant>,
}

/// A deliberately broken rule, planted so a checker can prove it
/// *detects* the violation: a checker that stays green under its own
/// mutant proves nothing. Each variant is read at the one branch it
/// breaks, and no flag, option or environment variable selects one
/// (the `mutant-seam` lint keeps every other library file from naming
/// one). Production code must never set it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Never check the fence token, on open or on the deliver path: a
    /// partitioned-but-alive owner keeps appending to a WAL its
    /// successor now owns (split-brain; the nemesis campaign).
    SkipFence,
    /// [`Collector::export_range`] retires the range and rebases onto
    /// the outside half but ships an *empty* inside snapshot, so every
    /// reading acked below the cut vanishes (the migration campaign).
    SkipCut,
    /// Release an `AckUpTo` on admission, before a completed fsync
    /// covers its WAL extent (I2 of `xtask protocol-check`).
    EagerAck,
    /// Credit a completed overlapped fsync with the WAL cursor read
    /// *after* it returned, covering batches appended while it ran (I2).
    LateCapture,
    /// The syncer writes and renames a restore point before the fsync
    /// covering its cursor has completed (I6).
    CommitBeforeSync,
    /// A restore point names by log position buffered readings below
    /// its base too — readings its own reclaim deletes (I6).
    NameBelowBase,
    /// Admit a reading stamped past the stream horizon, so one bad
    /// clock turns every other sensor's later readings late
    /// (`run_admission`'s non-interference property).
    SkipHorizon,
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
            epoch: 0,
            mutant: None,
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
                self.observe(first.wrapping_add(i));
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
}

/// Current silence accounting (the gateway's degraded-mode surface).
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
    /// report: the fleet counters (`controller::report`) do not carry it.
    pub unframable_rejects: usize,
    /// Deliveries NACKed as stamped past the stream horizon
    /// ([`RejectCause::Horizon`]): like `unframable_rejects`, a
    /// property of the reading, local to this report.
    pub horizon_rejects: usize,
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
    state: State,
    seq_duplicates: usize,
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
    horizon_rejects: usize,
    /// Per sensor, the last time refused past the stream horizon since
    /// the clock last jumped (`admission::witnessed`).
    witnesses: BTreeMap<SensorId, Timestamp>,
    /// Half-open sensor ranges migrated away from this collector
    /// ([`Collector::export_range`]); deliveries inside any of them
    /// NACK with [`RejectCause::Fenced`]. Mirrors the persisted
    /// retired-ranges file, sorted by range start.
    retired: Vec<(u16, u16)>,
    /// WAL cursor of the last committed checkpoint (0: none yet) —
    /// what heartbeat replies advertise.
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
            .field("accepted", &self.state.down.accepted)
            .finish()
    }
}

/// What replay rebuilds and a restore point's [`CollectorSnapshot`]
/// carries: the intake in front of the release and the consumer behind
/// it.
struct State {
    intake: Intake,
    down: Downstream,
}

/// Everything up to the release: the dedup trackers, the reorder buffer
/// and the silence accounting — what a reopen's replay worker runs.
struct Intake {
    seqs: BTreeMap<SensorId, SeqTracker>,
    reorder: ReorderBuffer,
    liveness: Liveness,
}

/// [`Intake`]'s half of a [`CollectorSnapshot`]
/// ([`Downstream::snapshot`] completes it).
struct IntakeSnapshot {
    reorder: ReorderSnapshot,
    seqs: Vec<(SensorId, u64, Vec<u64>)>,
    last_heard: Vec<(SensorId, Timestamp)>,
    silent: Vec<SensorId>,
    episodes: usize,
}

/// Everything behind the reorder buffer — sanitizer, window pipeline,
/// what they accepted and refused: the consumer of the released stream.
struct Downstream {
    sanitizer: Sanitizer,
    pipeline: Pipeline,
    accepted: usize,
    rejected: Vec<IngestError>,
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
    /// Once 256 KiB of log have been read, the rest of the replay runs on
    /// two threads: a scoped worker scans the segments this thread reads
    /// and lends it, and dedups, re-sequences and tracks liveness, while
    /// this thread sanitizes and runs the pipeline on the readings it
    /// releases, in batches. Every storage call stays on this thread,
    /// and the worker is joined before `open` returns.
    ///
    /// # Errors
    ///
    /// Any [`GatewayError`]; corruption, checkpoint divergence, a
    /// retained log whose checkpoint is missing, and a fence token
    /// naming a newer epoch ([`GatewayError::Fenced`]) are loud
    /// failures, never silent data loss.
    pub fn open(config: GatewayConfig) -> Result<(Self, RecoveryInfo), GatewayError> {
        // Fence gate first: a directory committed to a newer epoch
        // must never be opened by a stale owner, and a newly adopting
        // owner commits its claim before any append can happen.
        // `Mutant::SkipFence` bypasses the gate entirely — it must be
        // able to resurrect a stale owner to prove the nemesis campaign
        // catches the resulting split-brain.
        if config.epoch > 0 && config.mutant != Some(Mutant::SkipFence) {
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
        let checkpoint = read_checkpoint(&config.wal)?;
        let retired = read_retired(&config.wal)?;
        let base = checkpoint
            .as_ref()
            .map(|c| (c.base_segment, c.base_records));
        // Restore mode (the prefix below the cursor was reclaimed)
        // replays from the snapshot at the cursor, refilling on the way
        // there the readings it names by position; full-log mode replays
        // everything, verifying the snapshot where the cursor falls.
        let restore = checkpoint.as_ref().filter(|c| c.base_records > 0);
        let mut named = None;
        let mut state = match restore {
            Some(ck) => ck
                .snapshot()
                .map_err(checkpoint::malformed(CHECKPOINT_FILE))
                .and_then(|mut snap| {
                    named = snap.reorder.by_position.take();
                    State::restore(&config, snap, ck.cursor)
                }),
            None => Ok(State::new(&config)),
        };
        let from = restore.map_or(0, |ck| ck.cursor);
        let check = match (restore, &named) {
            (Some(ck), Some(named)) => Some(Check::Refill(named, ck.cursor)),
            (Some(_), None) => None,
            (None, _) => checkpoint.as_ref().map(Check::Verify),
        };
        // Every refusal waits for the scan: its errors come first.
        let replay = Replay {
            at: base.map_or(0, |(_, records)| records),
            from,
            check,
        };
        let opened = match &mut state {
            Ok(state) => replay.run(config.wal.clone(), base, state),
            Err(_) => replay.discard(config.wal.clone(), base),
        };
        let (wal, verdict) = match opened {
            Ok(opened) => opened,
            Err(WalError::MissingPrefix { first_segment, .. }) if checkpoint.is_none() => {
                return Err(GatewayError::CheckpointMissing { first_segment })
            }
            Err(e) => return Err(e.into()),
        };
        let recovered = wal.records_logged();
        let cursor = checkpoint.as_ref().map_or(0, |c| c.cursor);
        if cursor > recovered {
            return Err(GatewayError::CheckpointAhead { cursor, recovered });
        }
        if let Some(base) = restore.map(|ck| ck.base_records).filter(|&b| cursor < b) {
            let below = format!("cursor {cursor} below base {base}");
            return Err(GatewayError::CheckpointMalformed(below));
        }
        let state = state?;
        let verified = verdict.is_some() && restore.is_none();
        if let Some(Err(refused)) = verdict {
            return Err(refused);
        }
        let info = RecoveryInfo {
            replayed: recovered - from,
            verified_cursor: verified.then_some(cursor),
            restored_from: restore.map(|_| cursor),
        };
        // What no snapshot carries (storage health, timings) starts fresh.
        let collector = Self {
            config,
            wal,
            state,
            seq_duplicates: 0,
            budget_shed: 0,
            storage_rejects: 0,
            checkpoint_failures: 0,
            reclaim_failures: 0,
            reclaimed_segments: 0,
            observed_epoch: 0,
            fence_rejects: 0,
            unframable_rejects: 0,
            horizon_rejects: 0,
            witnesses: BTreeMap::new(),
            retired,
            last_checkpoint_cursor: cursor,
            admission_ns: 0,
            checkpoint_ns: 0,
            checkpoint_overlapped_ns: 0,
            restore_staged: None,
            restore_in_flight: None,
        };
        Ok((collector, info))
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
        self.state.snapshot()
    }

    /// Ingest accounting so far (transport counters merged in).
    pub fn ingest_report(&self) -> IngestReport {
        let stats = self.state.intake.reorder.stats();
        IngestReport {
            accepted: self.state.down.accepted,
            rejected: self.state.down.rejected.clone(),
            duplicates: self.seq_duplicates + stats.duplicates,
            late: stats.late,
            shed: stats.shed,
        }
    }

    /// Current silence accounting.
    pub fn liveness(&self) -> LivenessStatus {
        let Liveness { heard, silent, .. } = &self.state.intake.liveness;
        LivenessStatus {
            silent: silent
                .iter()
                .map(|s| (*s, heard.get(s).copied().unwrap_or(0)))
                .collect(),
            episodes: self.state.intake.liveness.episodes,
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
            horizon_rejects: self.horizon_rejects,
        }
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
        let State { intake, down } = &mut self.state;
        let release = |time, sensor, values: &[f64]| down.take(time, sensor, values);
        intake.reorder.release_all(release);
        for outcome in down.pipeline.finalize() {
            down.pipeline.recycle_outcome(outcome);
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
        let pipeline = self.state.down.pipeline.report();
        let plan = RecoveryPlan::from_report(&pipeline);
        Ok(GatewayReport {
            pipeline,
            ingest,
            liveness,
            storage,
            plan,
            uplink: None,
        })
    }
}

impl State {
    /// Empty state for a fresh collector.
    fn new(config: &GatewayConfig) -> Self {
        Self {
            intake: Intake {
                seqs: BTreeMap::new(),
                reorder: ReorderBuffer::new(config.reorder.clone()),
                liveness: Liveness::restore(config.silence_deadline, Vec::new(), Vec::new(), 0),
            },
            down: Downstream {
                sanitizer: Sanitizer::new(),
                pipeline: Pipeline::new(config.pipeline.clone(), config.sample_period),
                accepted: 0,
                rejected: Vec::new(),
            },
        }
    }

    /// The state `snap` describes, taken at log index `cursor`,
    /// accounting ledger (accepted count, rejection log, silence
    /// episodes) included: rebasing onto a split half keeps the ledger
    /// where the split left it. Readings named by position are the
    /// caller's to refill; a snapshot still naming any is refused.
    fn restore(
        config: &GatewayConfig,
        snap: CollectorSnapshot,
        cursor: u64,
    ) -> Result<Self, GatewayError> {
        if snap.reorder.by_position.is_some() {
            let named = "a snapshot naming readings by log position restores only over its own log";
            return Err(GatewayError::CheckpointMalformed(named.into()));
        }
        let pipeline =
            Pipeline::from_snapshot(config.pipeline.clone(), config.sample_period, snap.pipeline)
                .map_err(|e| GatewayError::CheckpointMalformed(e.to_string()))?;
        let deadline = config.silence_deadline;
        let seqs = snap.seqs.into_iter().map(|(sensor, next, above)| {
            let above = above.into_iter().collect();
            (sensor, SeqTracker { next, above })
        });
        let mut reorder = ReorderBuffer::from_snapshot(config.reorder.clone(), snap.reorder);
        reorder.restored_at(cursor);
        Ok(Self {
            intake: Intake {
                seqs: seqs.collect(),
                reorder,
                liveness: Liveness::restore(deadline, snap.last_heard, snap.silent, snap.episodes),
            },
            down: Downstream {
                sanitizer: Sanitizer::from_snapshot(snap.sanitizer),
                pipeline,
                accepted: snap.accepted,
                rejected: snap.rejected,
            },
        })
    }

    /// See [`Collector::snapshot`].
    fn snapshot(&self) -> CollectorSnapshot {
        self.down.snapshot(self.intake.snapshot())
    }

    /// The snapshot a restore point with base `base` carries
    /// ([`ReorderBuffer::restore_point`]).
    fn restore_point(&self, base: u64) -> CollectorSnapshot {
        self.down.snapshot(self.intake.restore_point(base))
    }
}

impl Intake {
    /// This half of [`Collector::snapshot`].
    fn snapshot(&self) -> IntakeSnapshot {
        self.with_reorder(self.reorder.snapshot())
    }

    /// This half of [`State::restore_point`].
    fn restore_point(&self, base: u64) -> IntakeSnapshot {
        self.with_reorder(self.reorder.restore_point(base))
    }

    fn with_reorder(&self, reorder: ReorderSnapshot) -> IntakeSnapshot {
        let Liveness {
            heard,
            silent,
            episodes,
            ..
        } = &self.liveness;
        IntakeSnapshot {
            reorder,
            seqs: self
                .seqs
                .iter()
                .map(|(&s, t)| (s, t.next, t.above.iter().copied().collect()))
                .collect(),
            last_heard: heard.iter().map(|(&s, &t)| (s, t)).collect(),
            silent: silent.iter().copied().collect(),
            episodes: *episodes,
        }
    }
}

impl Downstream {
    /// [`Collector::snapshot`]: the intake's half completed with this
    /// one's.
    fn snapshot(&self, intake: IntakeSnapshot) -> CollectorSnapshot {
        let IntakeSnapshot {
            reorder,
            seqs,
            last_heard,
            silent,
            episodes,
        } = intake;
        CollectorSnapshot {
            pipeline: self.pipeline.snapshot(),
            reorder,
            sanitizer: self.sanitizer.snapshot(),
            seqs,
            accepted: self.accepted,
            rejected: self.rejected.clone(),
            last_heard,
            silent,
            episodes,
        }
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
}
