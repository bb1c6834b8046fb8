//! Checkpoints, retention and the fence token: the rename-committed
//! files beside the WAL that make a cursor a restore point and an
//! epoch a durable ownership claim.

use super::*;
use sentinet_core::checkpoint::{CheckpointError, Fields, Reader};

/// Marker line opening a gateway checkpoint file.
const CHECKPOINT_MAGIC: &str = "sentinet-gateway-checkpoint v2";
/// Checkpoint file name inside the WAL directory. Public so pre-warm
/// caches (federation standbys staging the owner's latest snapshot)
/// can read the same bytes [`Collector::open_prewarmed`] will compare.
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
    /// advertised in heartbeat replies so standbys can pre-warm from
    /// the freshest snapshot.
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
    /// segments down to `reclaim_budget` bytes. The commit order is
    /// the crash-safety argument (`DESIGN.md` §13):
    ///
    /// 1. fsync the WAL — the checkpoint may only reference durable
    ///    records;
    /// 2. plan the reclaim and write the checkpoint *carrying the
    ///    post-reclaim base* to a tmp file; rename-commit it;
    /// 3. only then delete the planned segments.
    ///
    /// A crash (or failure) before the rename leaves the previous
    /// checkpoint intact and deletes nothing; a crash between rename
    /// and deletion leaves leftover segments below the committed base,
    /// which the next open removes.
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
        // Skip the force when the synced watermark already covers the
        // cursor (always true under `FsyncPolicy::Never`, and after a
        // policy fsync covered the extent) — the sync would be a no-op
        // and its fsync pure overhead on the group-commit hot path.
        if self.wal.unsynced_records() > 0 {
            match self.wal.sync() {
                Ok(()) => {}
                Err(WalError::Storage(_)) => return Ok(false),
                Err(e) => return Err(e.into()),
            }
        }
        let start = std::time::Instant::now();
        let plan = self.wal.plan_reclaim(cursor, reclaim_budget);
        let mut text = String::new();
        checkpoint_text(
            &mut text,
            cursor,
            plan.base_segment,
            plan.base_records,
            &self.snapshot(),
        );
        let committed = commit_sidecar(&self.config.wal, CHECKPOINT_TMP, CHECKPOINT_FILE, &text);
        self.checkpoint_ns = self
            .checkpoint_ns
            .saturating_add(start.elapsed().as_nanos() as u64);
        if committed.is_err() {
            self.checkpoint_failures += 1;
            return Ok(false);
        }
        self.last_checkpoint_cursor = cursor;
        if !plan.is_empty() {
            match self.wal.execute_reclaim(&plan) {
                Ok(()) => self.reclaimed_segments += plan.delete.len(),
                Err(_) => self.reclaim_failures += 1,
            }
        }
        Ok(true)
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
        Some(text) => parse_checkpoint(&text)
            .map(Some)
            .map_err(malformed(CHECKPOINT_FILE)),
        None => Ok(None),
    }
}

fn parse_checkpoint(text: &str) -> Result<CheckpointData, CheckpointError> {
    let mut r = Reader::new(text);
    r.marker(CHECKPOINT_MAGIC)?;
    let cursor = r.single("cursor", Fields::num)?;
    let base_segment = r.single("base-segment", Fields::num)?;
    if base_segment == 0 {
        return r.fail("base-segment must be at least 1");
    }
    Ok(CheckpointData {
        cursor,
        base_segment,
        base_records: r.single("base", Fields::num)?,
        body: r.rest().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{baseline, config, stream, tmpdir};
    use super::*;
    use crate::vfs::{FaultPlan, FaultSpec, FaultyVfs, StorageFault, VfsOp};
    use crate::wal::FsyncPolicy;
    use std::fs;
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
