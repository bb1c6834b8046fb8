//! Live range migration: the cut/adopt/commit handoff primitives and
//! the retired-ranges and outbox files that make each step durable
//! and idempotent.

use super::checkpoint::{
    checkpoint_text, commit_sidecar, malformed, read_sidecar, read_token, CHECKPOINT_TMP,
};
use super::*;
use crate::snapshot::read_collector;
use sentinet_core::checkpoint::{CheckpointError, Fields, Reader};

/// Marker line opening the retired-ranges file.
const RETIRED_MAGIC: &str = "sentinet-retired v1";
/// Retired-ranges file name inside the WAL directory: the sensor
/// ranges migrated away from this collector, persisted beside the
/// fence token so a restarted source keeps NACKing the moved range.
const RETIRED_FILE: &str = "retired.tk";
/// Scratch name the retired-ranges file is written under before
/// rename-commit.
const RETIRED_TMP: &str = "retired.tmp";
/// Marker line opening a migration outbox file.
const OUTBOX_MAGIC: &str = "sentinet-outbox v1";

impl Collector {
    /// The source half of a live range migration: cuts this
    /// collector's state at the current WAL cursor and splits off
    /// `range` for transfer. Three rename-committed steps, each
    /// idempotent so an interrupted cut can be re-driven:
    ///
    /// 1. persist `range` into the retired-ranges file — from here on
    ///    every delivery inside the range NACKs
    ///    [`RejectCause::Fenced`], so no acked reading can postdate
    ///    the cut;
    /// 2. stage the split-off half of the state snapshot in a
    ///    migration *outbox* file, so the shipped payload survives a
    ///    crash between the cut and the transfer;
    /// 3. rebase the live collector onto the remaining half and
    ///    commit a restore-point checkpoint at the cut cursor with
    ///    the whole pre-cut log reclaimed — every later open (and the
    ///    final report replay) rebuilds the post-cut state only.
    ///
    /// Returns the split-off snapshot and the cut cursor. Calling
    /// again with the same range (after a crash mid-cut) resumes: the
    /// staged outbox payload is returned and the remaining steps
    /// re-run.
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] on an empty range,
    /// [`GatewayError::Wal`] on a poisoned log, and any step that
    /// cannot be made durable fails loudly — the collector never
    /// proceeds on a half-committed cut.
    pub fn export_range(
        &mut self,
        range: std::ops::Range<u16>,
    ) -> Result<(CollectorSnapshot, u64), GatewayError> {
        if range.start >= range.end {
            return Err(GatewayError::MigrationCut(format!(
                "empty migration range [{}, {})",
                range.start, range.end
            )));
        }
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        self.sync_wal()?;
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        let key = (range.start, range.end);
        if !self.retired.contains(&key) {
            self.retired.push(key);
            self.retired.sort_unstable();
            self.write_retired()?;
        }
        let (inside, cursor) = match self.read_outbox(key)? {
            // Resuming an interrupted cut: the shipped payload is
            // already committed; only re-run the rebase below.
            Some(staged) => staged,
            None => {
                let cursor = self.wal.records_logged();
                let inside = match self.config.cut {
                    CutCheck::Enforced => split_snapshot(&self.snapshot(), range.clone()).0,
                    // Mutation seam: retire and rebase as usual but
                    // ship nothing — the acked inside readings vanish.
                    CutCheck::Skip => split_snapshot(&self.snapshot(), range.end..range.end).0,
                };
                self.write_outbox(key, cursor, &inside)?;
                (inside, cursor)
            }
        };
        let (_, outside) = split_snapshot(&self.snapshot(), range);
        self.rebase(outside)?;
        self.seal_rebased_checkpoint()?;
        Ok((inside, cursor))
    }

    /// Adopts a migrated sub-range into the live state: merges the
    /// shipped snapshot (per-sensor state replaces, the accounting
    /// ledger stays where the split left it), commits a restore-point
    /// checkpoint so a restart rebuilds the adopted state, and
    /// un-retires `range` if this collector had exported it — the
    /// source's abort path. Idempotent under retry.
    ///
    /// Only sound while the adopter shares the exporter's pipeline
    /// lineage (a fresh destination restores via
    /// [`Collector::install_snapshot`] instead, which keeps the
    /// shipped global model) and no window barrier has advanced past
    /// the cut — the federation aborts a migration before routing
    /// anything new to the moved range.
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] when a step cannot be made
    /// durable; the staged snapshot stays authoritative elsewhere.
    pub fn import_range(
        &mut self,
        range: std::ops::Range<u16>,
        inside: &CollectorSnapshot,
    ) -> Result<(), GatewayError> {
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        self.sync_wal()?;
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        let merged = merge_snapshot(&self.snapshot(), inside);
        self.rebase(merged)?;
        self.seal_rebased_checkpoint()?;
        let key = (range.start, range.end);
        if self.retired.contains(&key) {
            self.retired.retain(|k| k != &key);
            self.write_retired()?;
            self.clear_outbox(range);
        }
        Ok(())
    }

    /// Adopts a shipped sub-range as this collector's state — the
    /// destination half of a live migration, driven by a
    /// `MigrateAccept` frame. A pristine destination (nothing ever
    /// logged or admitted) takes the snapshot wholesale, shipped
    /// pipeline lineage included, and starts its WAL accounting at the
    /// source's cut `cursor` so the restore-point checkpoint it
    /// commits speaks the same cursor coordinates as the shipped
    /// payload. A destination that already holds state — a retried
    /// adoption after a crash-restart, or the source taking its own
    /// range back — merges through [`Collector::import_range`], which
    /// is sound there because both sides share one lineage. Idempotent
    /// under retry either way.
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] when the restore point cannot be
    /// made durable; the source's staged outbox copy stays
    /// authoritative.
    pub fn adopt_range(
        &mut self,
        range: std::ops::Range<u16>,
        cursor: u64,
        inside: &CollectorSnapshot,
    ) -> Result<(), GatewayError> {
        let pristine = self.wal.records_logged() == self.wal.base_records()
            && self.seqs.is_empty()
            && self.down.accepted == 0
            && self.down.rejected.is_empty();
        if !pristine {
            return self.import_range(range, inside);
        }
        if !self.wal.advance_base(cursor.max(1)) {
            return Err(GatewayError::MigrationCut(format!(
                "cannot adopt cut cursor {cursor} below existing base {}",
                self.wal.base_records()
            )));
        }
        self.rebase(inside.clone())?;
        self.seal_rebased_checkpoint()
    }

    /// Stages a migrated sub-range snapshot into a fresh WAL directory
    /// as a restore-point checkpoint, so [`Collector::open`] — live
    /// adoption and every later report replay alike — rebuilds the
    /// shipped state through the identical restore-plus-tail path a
    /// retention-reclaimed log uses. `base` is the WAL cursor the
    /// destination's accounting starts at (conventionally the source's
    /// cut cursor; clamped to at least 1 so the checkpoint is
    /// unambiguously a restore point).
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] if the directory already holds a
    /// checkpoint or WAL segments — installing over live state would
    /// silently discard it — and [`GatewayError::Io`] on filesystem
    /// failure.
    pub fn install_snapshot(
        config: &GatewayConfig,
        snap: &CollectorSnapshot,
        base: u64,
    ) -> Result<(), GatewayError> {
        let base = base.max(1);
        let vfs = &config.wal.vfs;
        let dir = &config.wal.dir;
        vfs.create_dir_all(dir)
            .map_err(|e| GatewayError::Io(dir.clone(), e))?;
        let names = vfs
            .list(dir)
            .map_err(|e| GatewayError::Io(dir.clone(), e))?;
        if names
            .iter()
            .any(|n| n == CHECKPOINT_FILE || (n.starts_with("wal-") && n.ends_with(".seg")))
        {
            return Err(GatewayError::MigrationCut(format!(
                "destination {} already holds collector state",
                dir.display()
            )));
        }
        let mut text = String::new();
        checkpoint_text(&mut text, base, 1, base, snap);
        commit_sidecar(&config.wal, CHECKPOINT_TMP, CHECKPOINT_FILE, &text)
    }

    /// Drops the staged outbox payload for `range` — called once the
    /// destination has durably adopted the shipped snapshot
    /// (`MigrateDone`). Best-effort: a leftover outbox for a retired
    /// range is inert.
    pub fn clear_outbox(&self, range: std::ops::Range<u16>) {
        let _ = self.config.wal.vfs.remove_file(
            &self
                .config
                .wal
                .dir
                .join(outbox_name((range.start, range.end), "ck")),
        );
    }

    /// Half-open sensor ranges this collector has migrated away —
    /// deliveries inside them NACK as fenced.
    pub fn retired_ranges(&self) -> &[(u16, u16)] {
        &self.retired
    }

    /// Whether `sensor` falls in a retired (migrated-away) range.
    pub(super) fn is_retired(&self, sensor: SensorId) -> bool {
        self.retired
            .iter()
            .any(|&(a, b)| a <= sensor.0 && sensor.0 < b)
    }

    /// Replaces the live per-sensor machinery with `snap`, keeping the
    /// WAL handle and the process-local transport counters. The
    /// snapshot carries the accounting ledger (accepted count,
    /// rejection log, silence episodes), so rebasing onto a split half
    /// follows the split's keep-the-ledger-outside convention.
    pub(super) fn rebase(&mut self, snap: CollectorSnapshot) -> Result<(), GatewayError> {
        let pipeline = Pipeline::from_snapshot(
            self.config.pipeline.clone(),
            self.config.sample_period,
            snap.pipeline,
        )
        .map_err(|e| GatewayError::CheckpointMalformed(e.to_string()))?;
        self.down.pipeline = pipeline;
        self.reorder = ReorderBuffer::from_snapshot(self.config.reorder.clone(), snap.reorder);
        self.down.sanitizer = Sanitizer::from_snapshot(snap.sanitizer);
        self.seqs = snap
            .seqs
            .into_iter()
            .map(|(sensor, next, above)| {
                (
                    sensor,
                    SeqTracker {
                        next,
                        above: above.into_iter().collect(),
                    },
                )
            })
            .collect();
        self.down.accepted = snap.accepted;
        self.down.rejected = snap.rejected;
        let deadline = self.config.silence_deadline;
        self.liveness = Liveness::restore(deadline, snap.last_heard, snap.silent, snap.episodes);
        Ok(())
    }

    /// Commits a restore-point checkpoint of the just-rebased state at
    /// the current WAL cursor with every earlier record reclaimed: the
    /// pre-cut log contains the moved range, so it must never replay
    /// again.
    fn seal_rebased_checkpoint(&mut self) -> Result<(), GatewayError> {
        let cursor = self.wal.records_logged();
        if self.wal.segments().last().is_some_and(|s| s.records > 0) {
            self.wal.roll_segment()?;
        }
        if !self.write_checkpoint(cursor, 0)? {
            return Err(GatewayError::MigrationCut(format!(
                "restore-point checkpoint at cursor {cursor} failed to commit"
            )));
        }
        if self.wal.base_records() != cursor {
            return Err(GatewayError::MigrationCut(format!(
                "pre-cut log below cursor {cursor} is not reclaimable (base {})",
                self.wal.base_records()
            )));
        }
        Ok(())
    }

    /// Reads the staged outbox payload for `key`, if a cut already
    /// committed one.
    fn read_outbox(
        &self,
        key: (u16, u16),
    ) -> Result<Option<(CollectorSnapshot, u64)>, GatewayError> {
        let name = outbox_name(key, "ck");
        match read_sidecar(&self.config.wal, &name)? {
            Some(text) => parse_outbox(&text).map(Some).map_err(malformed(&name)),
            None => Ok(None),
        }
    }

    /// Rename-commits the staged outbox payload for `key`.
    fn write_outbox(
        &self,
        key: (u16, u16),
        cursor: u64,
        snap: &CollectorSnapshot,
    ) -> Result<(), GatewayError> {
        let mut text = format!("{OUTBOX_MAGIC}\ncursor {cursor}\n");
        // `fmt::Write for String` never fails.
        let _ = write_collector(&mut text, snap);
        commit_sidecar(
            &self.config.wal,
            &outbox_name(key, "tmp"),
            &outbox_name(key, "ck"),
            &text,
        )
    }

    /// Rename-commits the in-memory retired set to the retired-ranges
    /// file beside the fence token.
    fn write_retired(&self) -> Result<(), GatewayError> {
        let mut text = String::from(RETIRED_MAGIC);
        text.push('\n');
        for (a, b) in &self.retired {
            // `fmt::Write for String` never fails.
            let _ = writeln!(text, "range {a} {b}");
        }
        let wal = &self.config.wal;
        wal.vfs
            .create_dir_all(&wal.dir)
            .map_err(|e| GatewayError::Io(wal.dir.clone(), e))?;
        commit_sidecar(wal, RETIRED_TMP, RETIRED_FILE, &text)
    }
}

/// File name of the staged outbox payload (`ext` = `ck`) or its
/// scratch copy (`ext` = `tmp`) for one exported range.
// sentinet-allow(codec-alloc): a file name built once per cut, not codec text
fn outbox_name(key: (u16, u16), ext: &str) -> String {
    format!("outbox-{}-{}.{ext}", key.0, key.1)
}

/// The persisted retired ranges; a missing or unreadable file reads
/// as empty — the directory never exported a range.
pub(super) fn read_retired(config: &WalConfig) -> Result<Vec<(u16, u16)>, GatewayError> {
    match read_token(config, RETIRED_FILE)? {
        Some(text) => parse_retired(&text).map_err(malformed(RETIRED_FILE)),
        None => Ok(Vec::new()),
    }
}

fn parse_retired(text: &str) -> Result<Vec<(u16, u16)>, CheckpointError> {
    let mut r = Reader::new(text);
    r.marker(RETIRED_MAGIC)?;
    let mut ranges = Vec::new();
    while let Some(mut f) = r.tagged_if("range") {
        let (a, b) = (f.num()?, f.num()?);
        f.end()?;
        if a >= b {
            return f.fail(format!("empty range [{a}, {b})"));
        }
        ranges.push((a, b));
    }
    r.finish()?;
    Ok(ranges)
}

fn parse_outbox(text: &str) -> Result<(CollectorSnapshot, u64), CheckpointError> {
    let mut r = Reader::new(text);
    r.marker(OUTBOX_MAGIC)?;
    let cursor = r.single("cursor", Fields::num)?;
    let snap = read_collector(&mut r)?;
    r.finish()?;
    Ok((snap, cursor))
}

#[cfg(test)]
mod tests {
    use super::super::tests::{config, stream, tmpdir};
    use super::*;
    use std::fs;

    /// The migration cut, source side: exporting a range retires it
    /// (deliveries NACK as fenced, batch and single alike) while the
    /// surviving range keeps ingesting.
    #[test]
    fn export_range_retires_and_nacks_the_moved_range() {
        let dir = tmpdir("migrate-export");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (inside, cursor) = c.export_range(1..2).unwrap();
        assert_eq!(cursor, 40, "the cut sits at the current WAL cursor");
        assert_eq!(inside.seqs.len(), 1, "sensor 1 travels");
        assert_eq!(c.retired_ranges(), &[(1, 2)]);
        assert_eq!(
            c.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Rejected(RejectCause::Fenced),
            "the moved range must NACK at the source"
        );
        let out = c
            .deliver_batch(SensorId(1), 21, &[(6600, vec![21.0, 51.0])])
            .unwrap();
        assert_eq!(out.nack, Some((21, RejectCause::Fenced)));
        assert_eq!(
            c.deliver(SensorId(0), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted,
            "the surviving range keeps ingesting"
        );
        assert_eq!(c.storage_status().fence_rejects, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A restart after the cut restores the post-cut (outside-only)
    /// state bit-exactly and keeps NACKing the retired range — the
    /// pre-cut log never replays the moved sensors back to life.
    #[test]
    fn export_survives_restart_with_outside_only_state() {
        let dir = tmpdir("migrate-restart");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (_, cursor) = c.export_range(1..2).unwrap();
        let outside = encode_collector(&c.snapshot());
        drop(c); // crash without finish

        let (mut c2, info) = Collector::open(config(&dir)).unwrap();
        assert_eq!(
            info.restored_from,
            Some(cursor),
            "restore mode after the cut"
        );
        assert_eq!(info.replayed, 0);
        assert_eq!(encode_collector(&c2.snapshot()), outside);
        assert_eq!(
            c2.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Rejected(RejectCause::Fenced),
            "retirement survives the restart"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The outbox body is decoded by the reader that read its two
    /// header lines, so a malformed line carries the file's number.
    #[test]
    fn a_malformed_outbox_names_the_files_line() {
        let dir = tmpdir("migrate-outbox-line");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            c.deliver(s, seq, t, v).unwrap();
        }
        c.export_range(1..2).unwrap();
        let path = dir.join(outbox_name((1, 2), "ck"));
        let text = fs::read_to_string(&path).unwrap();
        let line = 1 + text
            .lines()
            .position(|l| l.starts_with("reorder "))
            .expect("the body's reorder line");
        fs::write(&path, text.replacen("\nreorder ", "\nreorder x", 1)).unwrap();
        match c.export_range(1..2) {
            Err(GatewayError::CheckpointMalformed(why)) => {
                assert!(why.contains(&format!("at line {line}:")), "{why}")
            }
            other => panic!("expected a malformed outbox, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-driving an interrupted cut returns the staged payload: the
    /// second call yields byte-identical snapshot and cursor, and the
    /// live state is unchanged.
    #[test]
    fn export_range_is_idempotent_under_retry() {
        let dir = tmpdir("migrate-retry");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (first, cursor) = c.export_range(1..2).unwrap();
        let outside = encode_collector(&c.snapshot());
        let (again, cursor_again) = c.export_range(1..2).unwrap();
        assert_eq!(cursor_again, cursor);
        assert_eq!(encode_collector(&again), encode_collector(&first));
        assert_eq!(encode_collector(&c.snapshot()), outside);
        assert_eq!(c.retired_ranges(), &[(1, 2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The migration landing, destination side: installing the shipped
    /// snapshot into a fresh directory and opening it rebuilds the
    /// moved range's state — dedup history included, so a retransmitted
    /// pre-cut record re-acks as a duplicate instead of double-counting.
    #[test]
    fn install_snapshot_restores_the_moved_range_on_a_fresh_dir() {
        let src = tmpdir("migrate-src");
        let dst = tmpdir("migrate-dst");
        let (mut c, _) = Collector::open(config(&src)).unwrap();
        let records = stream(20);
        for (s, seq, t, v) in records.iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (inside, cursor) = c.export_range(1..2).unwrap();
        drop(c);

        Collector::install_snapshot(&config(&dst), &inside, cursor).unwrap();
        let (mut d, info) = Collector::open(config(&dst)).unwrap();
        assert_eq!(info.restored_from, Some(cursor));
        assert_eq!(encode_collector(&d.snapshot()), encode_collector(&inside));
        // A pre-cut retransmission: the shipped dedup state absorbs it.
        let (s, seq, t, v) = records
            .iter()
            .find(|(s, _, _, _)| *s == SensorId(1))
            .cloned()
            .unwrap();
        assert_eq!(d.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Duplicate);
        // The tail above the cut lands normally.
        assert_eq!(
            d.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted
        );
        // Installing over existing state must refuse loudly.
        match Collector::install_snapshot(&config(&dst), &inside, cursor) {
            Err(GatewayError::MigrationCut(_)) => {}
            other => panic!("install over live state must fail, got {other:?}"),
        }
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&dst).unwrap();
    }

    /// The abort path: importing the staged payload back un-retires
    /// the range and restores the pre-cut state bit-exactly, and the
    /// range accepts deliveries again.
    #[test]
    fn import_range_reverses_an_export() {
        let dir = tmpdir("migrate-abort");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let before = encode_collector(&c.snapshot());
        let (inside, _) = c.export_range(1..2).unwrap();
        c.import_range(1..2, &inside).unwrap();
        assert_eq!(encode_collector(&c.snapshot()), before);
        assert!(c.retired_ranges().is_empty());
        assert!(!dir.join("outbox-1-2.ck").exists(), "outbox cleared");
        assert_eq!(
            c.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted
        );
        // The abort survives a restart too.
        drop(c);
        let (c2, _) = Collector::open(config(&dir)).unwrap();
        assert!(c2.retired_ranges().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The cut mutation seam: under [`CutCheck::Skip`] the export
    /// still retires the range and rebases onto the outside half, but
    /// the shipped snapshot is empty — the admitted inside readings
    /// vanish. The nemesis migration campaign must catch exactly this.
    #[test]
    fn cut_check_skip_ships_an_empty_inside_snapshot() {
        let dir = tmpdir("migrate-cut-skip");
        let mut cfg = config(&dir);
        cfg.cut = CutCheck::Skip;
        let (mut c, _) = Collector::open(cfg).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (inside, cursor) = c.export_range(1..2).unwrap();
        assert_eq!(cursor, 40, "the cut coordinate is unchanged");
        assert!(inside.seqs.is_empty(), "the moved state was dropped");
        assert_eq!(inside.accepted, 0);
        assert_eq!(c.retired_ranges(), &[(1, 2)], "the range still retires");
        assert_eq!(
            c.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Rejected(RejectCause::Fenced),
            "the source still NACKs the moved range"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
