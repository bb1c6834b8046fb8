//! Checkpoints, retention and the fence token: the rename-committed
//! files beside the WAL that make a cursor a restore point and an
//! epoch a durable ownership claim.
//!
//! A restore point is one job in three parts — *stage* (reclaim plan
//! and snapshot value, on the admitting thread), *commit* (encode, tmp
//! write, rename, wherever the covering WAL fsync ran), *land* (the
//! advertised cursor moves, segments are deleted, failures counted,
//! on the admitting thread again). [`Collector::write_checkpoint`]
//! runs the three back to back for every synchronous caller; the
//! server stages at the `checkpoint_every` tick and lets its syncer
//! thread commit behind the next overlapped sync.

use super::*;
use crate::snapshot::read_collector;
use crate::wal::ReclaimPlan;
use sentinet_core::checkpoint::{CheckpointError, Fields, Reader};
use std::sync::{Arc, Mutex, TryLockError};

/// Marker line opening a gateway checkpoint file.
const CHECKPOINT_MAGIC: &str = "sentinet-gateway-checkpoint v2";
/// Checkpoint file name inside the WAL directory. Public so tests and
/// fault plans can name it.
pub const CHECKPOINT_FILE: &str = "checkpoint.ck";
/// Scratch name the checkpoint is written under before rename-commit.
pub(super) const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Marker line opening the fence-token file.
const FENCE_MAGIC: &str = "sentinet-fence v1";
/// Fence-token file name inside the WAL directory: the committed
/// owner epoch, persisted beside the WAL so a stale owner sharing the
/// directory observes its successor.
const FENCE_FILE: &str = "fence.tk";
/// Scratch name the fence token is written under before rename-commit.
const FENCE_TMP: &str = "fence.tmp";

impl Collector {
    /// WAL cursor of the last committed checkpoint (0: none yet) —
    /// advertised in heartbeat replies.
    pub fn checkpoint_cursor(&self) -> u64 {
        self.last_checkpoint_cursor
    }

    /// Tries to bring the on-disk WAL under `target` bytes so one more
    /// record fits the retention budget: seals a lone active segment
    /// (sealed segments are the unit of reclaim), then checkpoints at
    /// the current cursor, which reclaims every sealed segment below
    /// it. Storage failures poison the WAL and are left for the caller
    /// to observe.
    pub(super) fn reclaim_for_budget(&mut self, target: u64) -> Result<(), GatewayError> {
        if self.wal.segments().len() == 1 && self.wal.segments()[0].records > 0 {
            match self.wal.roll_segment() {
                Ok(()) => {}
                Err(WalError::Storage(_)) => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
        self.write_checkpoint(self.wal.records_logged(), target)
            .map(|_| ())
    }

    /// Writes a restore-point checkpoint at `cursor` and reclaims WAL
    /// segments down to `reclaim_budget` bytes: the three parts of a
    /// restore point — stage, commit, land — back to back on the
    /// calling thread. The order is the crash-safety argument
    /// (`DESIGN.md` §13.4):
    ///
    /// 1. fsync the WAL — the checkpoint may only reference durable
    ///    records;
    /// 2. write the checkpoint *carrying the planned post-reclaim
    ///    base* to a tmp file; rename-commit it;
    /// 3. only then delete the planned segments.
    ///
    /// A crash (or failure) before the rename leaves the previous
    /// checkpoint intact and deletes nothing; a crash between rename
    /// and deletion leaves leftover segments below the committed base,
    /// which the next open removes.
    ///
    /// At most one restore point exists between stage and landing, so
    /// the one the syncer holds is landed first and one merely staged
    /// is dropped: a pre-cut snapshot renamed after a migration rebase,
    /// or an older base renamed over a newer one whose reclaim already
    /// ran, could not be recovered from.
    ///
    /// Failures are absorbed into counters, not propagated: a failed
    /// sync poisons the WAL (deliveries start rejecting), and a failed
    /// commit keeps the previous checkpoint authoritative. Returns
    /// whether the checkpoint rename-committed — the periodic cadence
    /// ignores it, but a migration cut must fail loudly instead of
    /// leaving a restore point that disagrees with the shipped
    /// snapshot.
    pub(super) fn write_checkpoint(
        &mut self,
        cursor: u64,
        reclaim_budget: u64,
    ) -> Result<bool, GatewayError> {
        self.restore_staged = None;
        self.flush_restore_points()?;
        let rp = self.stage_restore_point(cursor, reclaim_budget);
        self.commit_now(rp)
    }

    /// Stage: the only part of a restore point that needs the live
    /// state — the reclaim plan and the snapshot *value* at exactly
    /// `cursor`, on the admitting thread. No IO. The snapshot names by
    /// log position the buffered readings logged at or above the plan's
    /// base, which the log keeps as long as this restore point is the
    /// committed one; it copies the rest by value.
    pub(super) fn stage_restore_point(&mut self, cursor: u64, budget: u64) -> Arc<RestorePoint> {
        let start = std::time::Instant::now();
        let plan = self.wal.plan_reclaim(cursor, budget);
        let mutant = self.config.mutant;
        let base = match mutant {
            Some(Mutant::NameBelowBase) => 0,
            _ => plan.base_records,
        };
        let rp = Arc::new(RestorePoint {
            cursor,
            plan,
            mutant,
            commit: Mutex::new(Commit {
                snapshot: Some(self.state.restore_point(base)),
                committed: None,
                overlapped_ns: 0,
            }),
        });
        self.charge_checkpoint(start);
        rp
    }

    /// Commit and land `rp` on the calling thread, whatever is left of
    /// it: the covering WAL sync unless the commit already ran, the
    /// remaining commit steps (waiting out one the syncer is in), the
    /// landing.
    fn commit_now(&mut self, rp: Arc<RestorePoint>) -> Result<bool, GatewayError> {
        // Skip the force when the synced watermark already covers the
        // cursor (always true under `FsyncPolicy::Never`, and after a
        // policy fsync covered the extent) — the sync would be a no-op
        // and its fsync pure overhead on the group-commit hot path.
        let mut start = std::time::Instant::now();
        if rp.committed().is_none() && self.wal.unsynced_records() > 0 {
            self.charge_checkpoint(start);
            match self.wal.sync() {
                Ok(()) => {}
                Err(WalError::Storage(_)) => return Ok(false),
                Err(e) => return Err(e.into()),
            }
            start = std::time::Instant::now();
        }
        while !rp.step(&self.config.wal, false) {}
        self.charge_checkpoint(start);
        Ok(self.land(&rp))
    }

    /// Adds the time since `start` to this thread's restore-point
    /// stage — waiting for a step the syncer is in included.
    fn charge_checkpoint(&mut self, start: std::time::Instant) {
        self.checkpoint_ns = self
            .checkpoint_ns
            .saturating_add(start.elapsed().as_nanos() as u64);
    }

    /// Land: the commit has its outcome. The cursor heartbeats
    /// advertise moves and the planned segments are deleted — strictly
    /// after the rename — or the failure is counted.
    fn land(&mut self, rp: &RestorePoint) -> bool {
        let (committed, overlapped_ns) = rp.result();
        self.checkpoint_overlapped_ns = self.checkpoint_overlapped_ns.saturating_add(overlapped_ns);
        if committed != Some(true) {
            self.checkpoint_failures += 1;
            return false;
        }
        self.last_checkpoint_cursor = rp.cursor;
        if !rp.plan.is_empty() {
            match self.wal.execute_reclaim(&rp.plan) {
                Ok(()) => self.reclaimed_segments += rp.plan.delete.len(),
                Err(_) => self.reclaim_failures += 1,
            }
        }
        true
    }

    /// The second completion of a sync that carried a restore point:
    /// lands the one in flight if its commit has an outcome (a
    /// synchronous writer may have landed it already).
    pub(crate) fn land_restore_point(&mut self) {
        let done = |rp: &mut Arc<RestorePoint>| rp.committed().is_some();
        if let Some(rp) = self.restore_in_flight.take_if(done) {
            self.land(&rp);
        }
    }

    /// Lands the restore point in flight — running what the syncer has
    /// not got to — and then runs the staged one, on the calling
    /// thread: what `Fin`, a clean shutdown and [`Collector::finish`]
    /// do, so that a finished run leaves the last tick's
    /// `checkpoint.ck` and no `checkpoint.tmp`.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures only.
    pub(crate) fn flush_restore_points(&mut self) -> Result<(), GatewayError> {
        if let Some(rp) = self.restore_in_flight.take() {
            self.commit_now(rp)?;
        }
        if let Some(rp) = self.restore_staged.take() {
            self.commit_now(rp)?;
        }
        Ok(())
    }
}

/// A restore point between its stage and its landing, shared between
/// the collector that staged it and the syncer that commits it —
/// encode, write `checkpoint.tmp`, rename it over `checkpoint.ck` —
/// once the covering WAL fsync has succeeded. Every commit step runs
/// under the lock and is skipped once there is an outcome, so a
/// synchronous writer that needs it landed *now* waits out the step in
/// progress and runs the rest itself, and nobody renames twice.
pub(crate) struct RestorePoint {
    cursor: u64,
    /// The reclaim to run once the rename has landed; its base is the
    /// one the checkpoint names.
    plan: ReclaimPlan,
    /// The staging collector's [`GatewayConfig::mutant`], for the
    /// syncer's commit gate.
    pub(crate) mutant: Option<Mutant>,
    commit: Mutex<Commit>,
}

struct Commit {
    /// Taken by the write step; the rename step finds it gone.
    snapshot: Option<CollectorSnapshot>,
    /// Whether the rename happened; `None` until there is an outcome.
    committed: Option<bool>,
    /// Wall time of the steps run beside admission.
    overlapped_ns: u64,
}

impl RestorePoint {
    /// Runs the next commit step, if any is left — build the text and
    /// write the tmp file, then rename it: the two storage operations
    /// of every sidecar commit — and returns whether the commit has
    /// its outcome. `overlapped` charges the time to
    /// [`StageTimings::checkpoint_overlapped_ns`]. A lock poisoned by a
    /// panicking step reads as a failed commit.
    pub(crate) fn step(&self, wal: &WalConfig, overlapped: bool) -> bool {
        let Ok(mut commit) = self.commit.lock() else {
            return true;
        };
        if commit.committed.is_some() {
            return true;
        }
        let start = std::time::Instant::now();
        let tmp = wal.dir.join(CHECKPOINT_TMP);
        commit.committed = match commit.snapshot.take() {
            Some(snap) => {
                let (base_segment, base_records) = (self.plan.base_segment, self.plan.base_records);
                let mut text = String::new();
                checkpoint_text(&mut text, self.cursor, base_segment, base_records, &snap);
                let written = wal.vfs.write_file(&tmp, text.as_bytes());
                written.err().map(|_| false)
            }
            None => Some(wal.vfs.rename(&tmp, &wal.dir.join(CHECKPOINT_FILE)).is_ok()),
        };
        if overlapped {
            commit.overlapped_ns += start.elapsed().as_nanos() as u64;
        }
        commit.committed.is_some()
    }

    /// Whether the write step has run (for the step harness).
    pub(crate) fn written(&self) -> bool {
        self.commit.lock().map_or(true, |c| c.snapshot.is_none())
    }

    /// Whether the rename happened; `None` while there is no outcome.
    pub(crate) fn committed(&self) -> Option<bool> {
        self.result().0
    }

    /// Whether the commit has its outcome; `false`, without waiting,
    /// while the syncer is in a step.
    pub(crate) fn settled(&self) -> bool {
        match self.commit.try_lock() {
            Ok(commit) => commit.committed.is_some(),
            Err(e) => matches!(e, TryLockError::Poisoned(_)),
        }
    }

    /// [`RestorePoint::committed`] and the time the overlapped steps
    /// took.
    fn result(&self) -> (Option<bool>, u64) {
        self.commit
            .lock()
            .map_or((Some(false), 0), |c| (c.committed, c.overlapped_ns))
    }
}

/// Appends the checkpoint file's bytes to `out`: magic, the three
/// header coordinates, then the snapshot body — one buffer, written
/// once, handed to [`commit_sidecar`] as is.
pub(super) fn checkpoint_text(
    out: &mut String,
    cursor: u64,
    base_segment: u64,
    base_records: u64,
    snap: &CollectorSnapshot,
) {
    // `fmt::Write for String` never fails.
    let _ = writeln!(
        out,
        "{CHECKPOINT_MAGIC}\ncursor {cursor}\nbase-segment {base_segment}\nbase {base_records}"
    );
    let _ = write_collector(out, snap);
}

/// Rename-commits `text` as sidecar file `name` in the WAL directory
/// through the configured [`Vfs`](crate::vfs::Vfs): one whole-file
/// write to `tmp`, one rename over `name` — the only two storage
/// operations of every sidecar commit (checkpoint, fence token,
/// retired ranges, outbox), so fault plans aim at the same
/// coordinates whichever file is being written.
pub(super) fn commit_sidecar(
    config: &WalConfig,
    tmp: &str,
    name: &str,
    text: &str,
) -> Result<(), GatewayError> {
    let tmp = config.dir.join(tmp);
    let path = config.dir.join(name);
    config
        .vfs
        .write_file(&tmp, text.as_bytes())
        .map_err(|e| GatewayError::Io(tmp.clone(), e))?;
    config
        .vfs
        .rename(&tmp, &path)
        .map_err(|e| GatewayError::Io(path, e))
}

/// Reads sidecar file `name` whole. `Ok(None)` when the file does not
/// exist.
pub(super) fn read_sidecar(config: &WalConfig, name: &str) -> Result<Option<String>, GatewayError> {
    let path = config.dir.join(name);
    match config.vfs.read(&path) {
        Ok(bytes) => String::from_utf8(bytes)
            .map(Some)
            .map_err(|_| GatewayError::CheckpointMalformed(format!("{name} is not utf-8"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(GatewayError::Io(path, e)),
    }
}

/// [`read_sidecar`] for the two token files (fence, retired ranges),
/// where *any* read failure means "never written": the read may have
/// raced a successor's rename-commit, in which case the next read
/// observes the committed file.
pub(super) fn read_token(config: &WalConfig, name: &str) -> Result<Option<String>, GatewayError> {
    match read_sidecar(config, name) {
        Err(GatewayError::Io(..)) => Ok(None),
        other => other,
    }
}

/// Names the sidecar file a reader error came from.
pub(super) fn malformed(name: &str) -> impl Fn(CheckpointError) -> GatewayError + '_ {
    move |e| GatewayError::CheckpointMalformed(format!("{name}: {e}"))
}

/// The persisted fence token's epoch; a missing or unreadable token
/// reads as epoch 0 (the directory was never fenced).
pub(super) fn read_fence(config: &WalConfig) -> Result<u64, GatewayError> {
    match read_token(config, FENCE_FILE)? {
        Some(text) => parse_fence(&text).map_err(malformed(FENCE_FILE)),
        None => Ok(0),
    }
}

fn parse_fence(text: &str) -> Result<u64, CheckpointError> {
    let mut r = Reader::new(text);
    r.marker(FENCE_MAGIC)?;
    let epoch = r.single("epoch", Fields::num)?;
    r.finish()?;
    Ok(epoch)
}

/// Commits `epoch` as the directory's fence token. A failure here is
/// an open-time error: without a committed token the single-writer
/// guarantee cannot be made.
pub(super) fn write_fence(config: &WalConfig, epoch: u64) -> Result<(), GatewayError> {
    config
        .vfs
        .create_dir_all(&config.dir)
        .map_err(|e| GatewayError::Io(config.dir.clone(), e))?;
    let text = format!("{FENCE_MAGIC}\nepoch {epoch}\n");
    commit_sidecar(config, FENCE_TMP, FENCE_FILE, &text)
}

/// Reads and parses the checkpoint file, if present.
pub(super) fn read_checkpoint(config: &WalConfig) -> Result<Option<CheckpointData>, GatewayError> {
    match read_sidecar(config, CHECKPOINT_FILE)? {
        Some(text) => parse_checkpoint(text)
            .map(Some)
            .map_err(malformed(CHECKPOINT_FILE)),
        None => Ok(None),
    }
}

fn parse_checkpoint(text: String) -> Result<CheckpointData, CheckpointError> {
    let mut r = Reader::new(&text);
    r.marker(CHECKPOINT_MAGIC)?;
    let cursor = r.single("cursor", Fields::num)?;
    let base_segment = r.single("base-segment", Fields::num)?;
    if base_segment == 0 {
        return r.fail("base-segment must be at least 1");
    }
    let base_records = r.single("base", Fields::num)?;
    let body_at = text.len() - r.rest().len();
    Ok(CheckpointData {
        cursor,
        base_segment,
        base_records,
        text,
        body_at,
    })
}

impl CheckpointData {
    /// The snapshot body as written.
    pub(super) fn body(&self) -> &str {
        &self.text[self.body_at..]
    }

    /// Decodes the snapshot body with a reader that has walked the
    /// header first, so a malformed line is numbered as the file's. A
    /// redo cursor must fall in `[base, cursor)`: the log keeps nothing
    /// below the base, and names nothing at or above the cursor.
    pub(super) fn snapshot(&self) -> Result<CollectorSnapshot, CheckpointError> {
        let mut r = Reader::new(&self.text);
        while r.rest().len() > self.text.len() - self.body_at {
            r.fields();
        }
        let snap = read_collector(&mut r)?;
        r.finish()?;
        if let Some(named) = &snap.reorder.by_position {
            if !(self.base_records..self.cursor).contains(&named.redo) {
                return Err(CheckpointError::Invalid(format!(
                    "redo cursor {} outside [base {}, cursor {})",
                    named.redo, self.base_records, self.cursor
                )));
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{baseline, config, stream, tmpdir};
    use super::*;
    use crate::vfs::{FaultPlan, FaultSpec, FaultyVfs, StorageFault, VfsOp};
    use crate::wal::FsyncPolicy;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    /// Runs `stream(4)` through a collector configured by `tweak` on a
    /// fault-free `FaultyVfs` and returns the total fsync count.
    fn fsyncs_for(name: &str, tweak: impl Fn(&mut GatewayConfig)) -> u64 {
        let dir = tmpdir(name);
        let vfs = Arc::new(FaultyVfs::new(FaultPlan::new()));
        let mut cfg = config(&dir);
        cfg.wal.vfs = vfs.clone();
        tweak(&mut cfg);
        let expect_checkpoint = cfg.checkpoint_every != 0;
        let (mut c, _) = Collector::open(cfg).unwrap();
        for (s, seq, t, v) in stream(4) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        c.finish().unwrap();
        assert_eq!(
            dir.join(CHECKPOINT_FILE).exists(),
            expect_checkpoint,
            "checkpoint cadence must behave as configured"
        );
        fs::remove_dir_all(&dir).unwrap();
        vfs.op_count(VfsOp::Fsync)
    }

    /// The checkpoint fast path: when the synced watermark already
    /// covers the cursor (`Wal::unsynced_records() == 0`, as under
    /// `FsyncPolicy::Always`), `write_checkpoint` performs zero fsync
    /// calls — a per-record checkpoint cadence costs exactly as many
    /// fsyncs as no checkpoints at all. Under a lazy policy the same
    /// cadence forces syncs, which pins that the counter would have
    /// caught a regression in the fast path.
    #[test]
    fn checkpoint_adds_no_fsync_when_watermark_covers_cursor() {
        let eager_every = fsyncs_for("ckpt-eager-every", |c| {
            c.wal.fsync = FsyncPolicy::Always;
            c.checkpoint_every = 1;
        });
        let eager_finish_only = fsyncs_for("ckpt-eager-finish", |c| {
            c.wal.fsync = FsyncPolicy::Always;
            // No checkpoints at all: the baseline fsync count.
            c.checkpoint_every = 0;
        });
        assert_eq!(
            eager_every, eager_finish_only,
            "checkpoints on the fast path must not add fsyncs"
        );

        let lazy_every = fsyncs_for("ckpt-lazy-every", |c| {
            c.wal.fsync = FsyncPolicy::Batch(1_000);
            c.checkpoint_every = 1;
        });
        let lazy_finish_only = fsyncs_for("ckpt-lazy-finish", |c| {
            c.wal.fsync = FsyncPolicy::Batch(1_000);
            c.checkpoint_every = 0;
        });
        assert!(
            lazy_every > lazy_finish_only,
            "a lazy policy must show checkpoint-forced syncs \
             ({lazy_every} vs {lazy_finish_only}); otherwise this test \
             could not detect fast-path regressions"
        );
    }

    #[test]
    fn tampered_checkpoint_fails_loudly() {
        let dir = tmpdir("tamper");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(40) {
            c.deliver(s, seq, t, v).unwrap();
        }
        drop(c);
        // Corrupt the checkpoint snapshot body.
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("sensor 0", "sensor 9")).unwrap();
        assert!(matches!(
            Collector::open(config(&dir)),
            Err(GatewayError::CheckpointMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log of `stream(100)` in `name`'s directory whose prefix
    /// retention reclaimed below a restore point.
    fn retained(name: &str) -> (PathBuf, GatewayConfig) {
        let dir = tmpdir(name);
        let frame = 21 + 8 * 2 + 8;
        let mut cfg = config(&dir);
        cfg.wal.segment_max_bytes = 16 * frame;
        cfg.wal.retain_bytes = Some(4 * 16 * frame);
        let (mut c, _) = Collector::open(cfg.clone()).unwrap();
        for (s, seq, t, v) in stream(100) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        assert!(c.storage_status().reclaimed_segments > 0, "a restore point");
        drop(c);
        (dir, cfg)
    }

    /// A full log of `stream(40)` — 80 lone frames, 16 a segment, a
    /// checkpoint every `every` readings — in `name`'s directory.
    fn segmented(name: &str, every: u64) -> (PathBuf, GatewayConfig) {
        let dir = tmpdir(name);
        let mut cfg = config(&dir);
        cfg.checkpoint_every = every;
        cfg.wal.segment_max_bytes = 16 * (21 + 8 * 2 + 8);
        let (mut c, _) = Collector::open(cfg.clone()).unwrap();
        for (s, seq, t, v) in stream(40) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        drop(c);
        (dir, cfg)
    }

    /// The WAL segments in `dir`, oldest first.
    fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        paths.sort();
        paths
    }

    /// Cuts `path` to its first `len` bytes.
    fn cut(path: &Path, len: u64) {
        let file = fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(len).unwrap();
    }

    /// Flips one byte in the middle of `path`.
    fn flip(path: &Path) {
        let mut bytes = fs::read(path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        fs::write(path, bytes).unwrap();
    }

    /// Replaces the checkpoint body's reorder line with garbage.
    fn break_body(dir: &Path) {
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("\nreorder ", "\nreorder x", 1)).unwrap();
    }

    #[test]
    fn a_checkpoint_beyond_the_recovered_full_log_is_refused() {
        let (dir, cfg) = segmented("ahead-full", 16);
        // Power loss under `fsync=never`: the checkpoint at cursor 80
        // saw readings the log no longer holds.
        let paths = segments(&dir);
        assert_eq!(paths.len(), 5);
        for path in &paths[1..] {
            fs::remove_file(path).unwrap();
        }
        cut(&paths[0], 10 * 45);
        match Collector::open(cfg) {
            Err(GatewayError::CheckpointAhead { cursor, recovered }) => {
                assert_eq!((cursor, recovered), (80, 10));
            }
            other => panic!("expected CheckpointAhead, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_restore_point_beyond_the_recovered_retained_log_is_refused() {
        let (dir, cfg) = retained("ahead-retained");
        for path in segments(&dir) {
            cut(&path, 0);
        }
        // Only the reclaimed prefix is left to count, and a restore
        // point whose body is unreadable still refuses as ahead first.
        for damaged in [false, true] {
            if damaged {
                break_body(&dir);
            }
            match Collector::open(cfg.clone()) {
                Err(GatewayError::CheckpointAhead { cursor, recovered }) => {
                    assert!(
                        0 < recovered && recovered < cursor,
                        "{recovered} < {cursor}"
                    );
                }
                other => panic!("expected CheckpointAhead, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_retained_log_without_its_checkpoint_is_refused() {
        let (dir, cfg) = retained("missing");
        let first = segments(&dir)[0].clone();
        fs::remove_file(dir.join(CHECKPOINT_FILE)).unwrap();
        match Collector::open(cfg) {
            Err(GatewayError::CheckpointMissing { first_segment }) => {
                assert!(first_segment > 1);
                assert!(first.ends_with(format!("wal-{first_segment:08}.seg")));
            }
            other => panic!("expected CheckpointMissing, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_segment_before_the_last_is_refused() {
        let (dir, cfg) = segmented("corrupt-earlier", 16);
        let second = segments(&dir)[1].clone();
        flip(&second);
        match Collector::open(cfg) {
            Err(GatewayError::Wal(WalError::Corrupt { segment, .. })) => {
                assert_eq!(segment, second);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory with several defects refuses with the scan's error
    /// first, whatever the checkpoint's body says.
    #[test]
    fn a_corrupt_earlier_segment_outranks_a_bad_checkpoint_body() {
        // Full log: the body no longer matches the replay at cursor 48,
        // the end of the third segment; the fourth is corrupt.
        let (dir, cfg) = segmented("corrupt-and-tampered", 48);
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&format!("{CHECKPOINT_MAGIC}\ncursor 48\n")));
        fs::write(&path, text.replace("sensor 0", "sensor 9")).unwrap();
        assert!(matches!(
            Collector::open(cfg.clone()),
            Err(GatewayError::CheckpointMismatch { cursor: 48 })
        ));
        flip(&segments(&dir)[3]);
        assert!(matches!(
            Collector::open(cfg),
            Err(GatewayError::Wal(WalError::Corrupt { .. }))
        ));
        fs::remove_dir_all(&dir).unwrap();
        // Retained log: the restore point's body does not decode.
        let (dir, cfg) = retained("corrupt-and-malformed");
        break_body(&dir);
        flip(&segments(&dir)[0]);
        assert!(matches!(
            Collector::open(cfg),
            Err(GatewayError::Wal(WalError::Corrupt { .. }))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint cursor need not fall on a frame boundary: a full
    /// log replays the frame holding it up to the cursor, checks the
    /// snapshot there, and replays the rest.
    #[test]
    fn a_checkpoint_inside_a_batch_frame_is_verified_there() {
        let readings = |sensor: u16| -> Vec<(Timestamp, Vec<f64>)> {
            let of = |(s, _, t, v): (SensorId, u64, Timestamp, Vec<f64>)| {
                (s.0 == sensor).then_some((t, v))
            };
            stream(40).into_iter().filter_map(of).collect()
        };
        // Two batch frames of 40 readings, no checkpoint of their own.
        let dir = tmpdir("mid-frame");
        let mut cfg = config(&dir);
        cfg.checkpoint_every = 0;
        let (mut c, _) = Collector::open(cfg.clone()).unwrap();
        for sensor in [0, 1] {
            let out = c
                .deliver_batch(SensorId(sensor), 0, &readings(sensor))
                .unwrap();
            assert_eq!(out.accepted, 40);
        }
        drop(c);
        // The same readings one frame each, cut off at cursor 20 — the
        // middle of the first batch frame — where a checkpoint lands.
        let lone = tmpdir("mid-frame-lone");
        let mut lone_cfg = config(&lone);
        lone_cfg.checkpoint_every = 20;
        let (mut c, _) = Collector::open(lone_cfg).unwrap();
        for (seq, (t, v)) in readings(0).into_iter().take(20).enumerate() {
            let out = c.deliver(SensorId(0), seq as u64, t, v).unwrap();
            assert_eq!(out, DeliverOutcome::Accepted);
        }
        drop(c);
        let text = fs::read_to_string(lone.join(CHECKPOINT_FILE)).unwrap();
        assert!(text.starts_with(&format!("{CHECKPOINT_MAGIC}\ncursor 20\n")));
        fs::write(dir.join(CHECKPOINT_FILE), &text).unwrap();
        let (_, info) = Collector::open(cfg.clone()).unwrap();
        assert_eq!((info.replayed, info.verified_cursor), (80, Some(20)));
        fs::write(
            dir.join(CHECKPOINT_FILE),
            text.replace("sensor 0", "sensor 9"),
        )
        .unwrap();
        assert!(matches!(
            Collector::open(cfg),
            Err(GatewayError::CheckpointMismatch { cursor: 20 })
        ));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&lone).unwrap();
    }

    #[test]
    fn retention_keeps_wal_under_budget_and_restores_byte_equal() {
        let records = stream(150);
        let expect = baseline("retain-base", &records);

        let dir = tmpdir("retain");
        let frame = 21 + 8 * 2 + 8; // framed_len of a 2-value record
        let budget = 4 * 16 * frame;
        let mut cfg = config(&dir);
        cfg.wal.segment_max_bytes = 16 * frame;
        cfg.wal.retain_bytes = Some(budget);
        let (mut c, _) = Collector::open(cfg.clone()).unwrap();
        for (s, seq, t, v) in records[..200].iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
            assert!(c.wal_footprint() <= budget, "soak holds the budget");
        }
        let status = c.storage_status();
        assert!(status.reclaimed_segments > 0, "retention reclaimed");
        assert_eq!(status.budget_shed, 0, "nothing shed under this budget");
        drop(c); // crash

        // The prefix is gone, so recovery must restore the snapshot.
        let (mut c2, info) = Collector::open(cfg.clone()).unwrap();
        let restored = info.restored_from.expect("restore point used");
        assert!(restored > 0 && info.replayed < 200);
        for (s, seq, t, v) in records[190..].iter().cloned() {
            let out = c2.deliver(s, seq, t, v).unwrap();
            assert!(matches!(
                out,
                DeliverOutcome::Accepted | DeliverOutcome::Duplicate
            ));
            assert!(c2.wal_footprint() <= budget);
        }
        let resumed = c2.finish().unwrap();
        assert_eq!(
            format!("{}", expect.pipeline),
            format!("{}", resumed.pipeline),
            "retained run byte-equal to the unretained one"
        );
        assert_eq!(expect.ingest.accepted, resumed.ingest.accepted);
        assert_eq!(resumed.ingest.duplicates, 10, "overlap re-acked");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_checkpoint_commit_and_delete_recovers() {
        let records = stream(120);
        let expect = baseline("leftover-base", &records);

        // Every segment deletion fails: on-disk state is exactly a
        // crash between checkpoint rename-commit and the deletes.
        let dir = tmpdir("leftover");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: ".seg".into(),
            op: VfsOp::Remove,
            nth: 1,
            kind: StorageFault::Enospc,
            count: u32::MAX,
        });
        let frame = 21 + 8 * 2 + 8;
        let mut cfg = config(&dir);
        cfg.wal.segment_max_bytes = 16 * frame;
        cfg.wal.retain_bytes = Some(4 * 16 * frame);
        let mut faulty = cfg.clone();
        faulty.wal.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut c, _) = Collector::open(faulty).unwrap();
        for (s, seq, t, v) in records[..200].iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let status = c.storage_status();
        assert!(status.reclaim_failures > 0, "deletes failed");
        assert_eq!(status.reclaimed_segments, 0);
        assert!(status.error.is_none(), "delete failure does not poison");
        drop(c); // crash with leftover segments on disk

        // Recovery deletes the leftovers below the committed base and
        // continues bit-identically on healthy storage.
        assert!(dir.join("wal-00000001.seg").exists(), "leftover present");
        let (mut c2, info) = Collector::open(cfg).unwrap();
        assert!(!dir.join("wal-00000001.seg").exists(), "leftover removed");
        assert!(info.restored_from.is_some());
        for (s, seq, t, v) in records[190..].iter().cloned() {
            c2.deliver(s, seq, t, v).unwrap();
        }
        let resumed = c2.finish().unwrap();
        assert_eq!(
            format!("{}", expect.pipeline),
            format!("{}", resumed.pipeline)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A malformed restore point is reported at the file's line, not
    /// at the line of the snapshot body behind the four header lines.
    #[test]
    fn a_malformed_restore_point_names_the_files_line() {
        let dir = tmpdir("ckpt-line");
        let frame = 21 + 8 * 2 + 8;
        let mut cfg = config(&dir);
        cfg.wal.segment_max_bytes = 16 * frame;
        cfg.wal.retain_bytes = Some(4 * 16 * frame);
        let (mut c, _) = Collector::open(cfg.clone()).unwrap();
        for (s, seq, t, v) in stream(100) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        assert!(c.storage_status().reclaimed_segments > 0, "a restore point");
        drop(c);
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path).unwrap();
        let line = 1 + text
            .lines()
            .position(|l| l.starts_with("reorder "))
            .expect("the body's reorder line");
        assert!(line > 5, "behind the header and the body's marker");
        fs::write(&path, text.replacen("\nreorder ", "\nreorder x", 1)).unwrap();
        match Collector::open(cfg) {
            Err(GatewayError::CheckpointMalformed(why)) => {
                assert!(why.contains(&format!("at line {line}:")), "{why}")
            }
            other => panic!("expected a malformed restore point, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Epoch fencing, happy path: a successor at a newer epoch commits
    /// its fence token on open; the superseded collector then refuses
    /// to reopen (`GatewayError::Fenced`) — the single-writer claim is
    /// durable before the successor ever appends.
    #[test]
    fn stale_epoch_cannot_reopen_fenced_wal() {
        let dir = tmpdir("fence-reopen");
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        let (mut c, _) = Collector::open(cfg).unwrap();
        for (s, seq, t, v) in stream(4) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        drop(c); // crash without finish; epoch-1 token stays committed

        // Failover: a successor adopts the dir at epoch 2.
        let mut cfg = config(&dir);
        cfg.epoch = 2;
        let (c2, rec) = Collector::open(cfg).unwrap();
        assert_eq!(rec.replayed, 8);
        assert_eq!(c2.epoch(), 2);
        drop(c2);

        // The partitioned-away epoch-1 owner heals and tries to come
        // back: it must fail-stop at open, not race the successor.
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        match Collector::open(cfg) {
            Err(GatewayError::Fenced {
                persisted,
                configured,
            }) => {
                assert_eq!((persisted, configured), (2, 1));
            }
            other => panic!("stale reopen must be fenced, got {other:?}"),
        }
        // An unfenced (epoch 0) open still works — standalone
        // single-collector deployments never see fencing.
        let (mut c3, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(4) {
            assert_eq!(c3.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Duplicate);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
