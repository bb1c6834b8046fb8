//! Admission: the deliver path from sequence dedup through the WAL
//! append to reorder → sanitize → pipeline, plus the fence gate, the
//! group-commit sync and liveness accounting that ride on it.
//!
//! The unit of work is the run: its readings arrive borrowed from the
//! arena they were decoded into, the WAL encoder reads the fresh prefix
//! in place, and the reorder buffer takes it as one run, copying onto
//! its slabs and lending released slices to the sanitizer and window.
//! The dedup tracker and liveness see the run once. A stop-and-wait
//! `deliver` is a run of one, and recovery replays the log by runs.

use super::*;
use std::collections::btree_map::Entry;

/// Why a delivered frame was refused (the server sends a NACK).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// The WAL is poisoned by a storage failure; nothing can be made
    /// durable until the process restarts on healthy storage.
    Storage,
    /// The WAL retention budget is exhausted and nothing below the
    /// checkpoint cursor is reclaimable — counted load shedding.
    WalBudget,
    /// A newer committed owner epoch was observed (in the persisted
    /// fence token or via the wire handshake): this collector is a
    /// stale owner and fail-stops instead of racing its successor.
    Fenced,
    /// The reading does not fit a WAL frame ([`Wal::framable`]): it
    /// carries more values than the frame's count field can state —
    /// or its sequence number is `u64::MAX`, which has no successor
    /// for the dedup tracker to step to. Logging it would write a
    /// record no reopen could decode (or count), so it is refused
    /// before the append — and would be again on retry.
    Unframable,
}

/// What the server should tell the client about a delivered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// New record, now durable: ack it.
    Accepted,
    /// Retransmission of an already-durable record: re-ack it.
    Duplicate,
    /// The record could not be made durable: NACK it, never ack. The
    /// client's retry protocol redelivers after restart/recovery.
    Rejected(RejectCause),
}

/// Per-stage wall time accumulated by the collector's ingest path —
/// the bench's stage breakdown. All fields are nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Batch admission: dedup/budget probes plus
    /// reorder/sanitize/pipeline for accepted readings.
    pub admission_ns: u64,
    /// Cutting the batch's WAL extent into frames and encoding them,
    /// CRC included — what an append costs before its write call.
    pub wal_encode_ns: u64,
    /// Inside WAL write calls.
    pub wal_append_ns: u64,
    /// Inside WAL fsync calls, wherever they ran: inline on the
    /// admitting thread, or overlapped on the server's syncer thread.
    pub fsync_ns: u64,
    /// The part of `fsync_ns` the admitting thread itself was blocked
    /// for (inline fsyncs) — what the fsync costs the ingest path once
    /// the server overlaps the rest.
    pub sync_blocked_ns: u64,
    /// Inside restore points on the admitting thread, after their WAL
    /// sync (which `sync_blocked_ns` already holds): plan the reclaim
    /// and snapshot the collector — and, for a synchronous writer,
    /// encode, write and rename-commit the file. Disjoint from
    /// `admission_ns` — the admission clock is stopped around a budget
    /// reclaim.
    pub checkpoint_ns: u64,
    /// Inside the restore-point commits the server's syncer thread ran
    /// beside admission: encode, tmp write (its fsync included),
    /// rename. Counted when the restore point lands.
    pub checkpoint_overlapped_ns: u64,
}

/// Per-batch admission accounting from [`Collector::deliver_batch`].
///
/// The ack-release rule of the pipelined protocol lives in the two
/// cursor fields: `ack_up_to` is the cumulative watermark the client
/// may be told about, but only once the WAL's synced cursor
/// ([`Collector::synced_cursor`]) has reached `ack_cursor` — i.e. once
/// a completed fsync covers every record this batch appended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Readings newly admitted (appended to the WAL this call).
    pub accepted: usize,
    /// Readings that were retransmissions of already-logged records.
    pub duplicates: usize,
    /// Readings refused — everything from the `nack` coordinate on.
    pub rejected: usize,
    /// Cumulative ack watermark for the sensor after this batch:
    /// every seq at or below it is logged.
    pub ack_up_to: Option<u64>,
    /// WAL cursor a completed fsync must cover before `ack_up_to` may
    /// be released to the client.
    pub ack_cursor: u64,
    /// First refused seq and why (the selective-NACK coordinate; the
    /// client retransmits from here).
    pub nack: Option<(u64, RejectCause)>,
}

impl Collector {
    /// Handles one delivered `Data` frame — a batch of one through the
    /// same admission run as [`Collector::deliver_batch`]. `Accepted`
    /// and `Duplicate` both mean "durable per the fsync policy, send
    /// the ack"; `Rejected` means the record could not be made durable
    /// and must be NACKed, never acked.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures. Storage failures are
    /// *not* errors here: they surface as
    /// [`DeliverOutcome::Rejected`]`(`[`RejectCause::Storage`]`)` so
    /// the serving loop keeps running (NACKing) while the operator
    /// reads the typed [`StorageError`] from the report.
    pub fn deliver(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: Vec<f64>,
    ) -> Result<DeliverOutcome, GatewayError> {
        // Untimed: `admission_ns` is the *batch* stage of the bench
        // breakdown, and stop-and-wait callers deliver per reading —
        // clock reads would be a per-reading cost.
        let out = self.deliver_run(
            sensor,
            seq,
            std::iter::once((time, values.as_slice())),
            false,
            PolicySync::Inline,
        )?;
        Ok(match out.nack {
            Some((_, cause)) => DeliverOutcome::Rejected(cause),
            None if out.duplicates > 0 => DeliverOutcome::Duplicate,
            None => DeliverOutcome::Accepted,
        })
    }

    /// Handles one delivered `DataBatch` frame: dedup, budget
    /// projection, and reorder/sanitize/pipeline admission run per
    /// reading, but the WAL append is one contiguous extent
    /// ([`Wal::append_many`]) and the fsync policy is charged per
    /// batch — the group-commit fast path.
    ///
    /// Admission stops at the first refused reading (budget exhaustion
    /// or storage failure): the surviving prefix is logged and
    /// admitted, the refusal coordinate comes back in
    /// [`BatchOutcome::nack`], and the suffix is left for the client
    /// to retransmit. Nothing in the batch may be acked until
    /// [`Collector::synced_cursor`] reaches [`BatchOutcome::ack_cursor`].
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures only, exactly like
    /// [`Collector::deliver`].
    pub fn deliver_batch(
        &mut self,
        sensor: SensorId,
        first_seq: u64,
        readings: &[(Timestamp, Vec<f64>)],
    ) -> Result<BatchOutcome, GatewayError> {
        let run = readings
            .iter()
            .map(|(time, values)| (*time, values.as_slice()));
        self.deliver_run(sensor, first_seq, run, true, PolicySync::Inline)
    }

    /// [`Collector::deliver_batch`] for the protocol core, on the arena
    /// the frame was decoded into — and with the policy fsync left for
    /// the driver to overlap with later batches
    /// ([`Collector::sync_due`], [`Collector::begin_sync`],
    /// [`Collector::complete_sync`]); the ack waits for
    /// [`Collector::synced_cursor`] either way.
    pub(crate) fn deliver_arena(
        &mut self,
        sensor: SensorId,
        first_seq: u64,
        readings: &ReadingArena,
    ) -> Result<BatchOutcome, GatewayError> {
        let run = readings.iter();
        self.deliver_run(sensor, first_seq, run, true, PolicySync::Deferred)
    }

    /// The one admission path: `readings` arrive under consecutive
    /// seqs from `first_seq`, borrowed — nothing here owns or copies a
    /// reading's values. `timed` charges the two admission passes to
    /// [`StageTimings::admission_ns`]; `policy_sync` says whether the
    /// append runs the policy fsync itself.
    fn deliver_run<'a>(
        &mut self,
        sensor: SensorId,
        first_seq: u64,
        readings: impl ExactSizeIterator<Item = (Timestamp, &'a [f64])>,
        timed: bool,
        policy_sync: PolicySync,
    ) -> Result<BatchOutcome, GatewayError> {
        let total = readings.len();
        let mut out = BatchOutcome {
            accepted: 0,
            duplicates: 0,
            rejected: 0,
            ack_up_to: None,
            ack_cursor: self.wal.records_logged(),
            nack: None,
        };
        if self.fence_breached() || self.is_retired(sensor) {
            self.fence_rejects += total;
            out.rejected = total;
            out.nack = Some((first_seq, RejectCause::Fenced));
            return Ok(out);
        }
        if self.wal.poisoned().is_some() {
            self.storage_rejects += total;
            out.rejected = total;
            out.nack = Some((first_seq, RejectCause::Storage));
            return Ok(out);
        }
        // Pass 1: per-reading dedup probe and cumulative budget
        // projection, collecting the admissible fresh prefix. Probes
        // are non-mutating — a refused reading must leave no trace, or
        // replay (which sees only durable records) would diverge from
        // the live run.
        let mut fresh: Vec<WalRecord<&[f64]>> = Vec::with_capacity(total);
        // The budget is projected by the planner the append itself
        // runs, over the same readings: a run costs what its frame
        // will, not the sum of its readings logged alone.
        let mut plan = self.wal.planner();
        let mut reclaimed = false;
        let mut pass_start = timed.then(std::time::Instant::now);
        // The run is one sensor's: its tracker is looked up once, and
        // again only after the (at most one) reclaim borrowed `self`.
        let mut tracker = self.state.intake.seqs.get(&sensor);
        for (i, (time, values)) in readings.enumerate() {
            // Saturating: a batch that runs off the end of the seq
            // space is refused at `u64::MAX`, the first seq without a
            // successor, with the prefix in front of it kept.
            let seq = first_seq.saturating_add(i as u64);
            if seq == u64::MAX {
                self.unframable_rejects += total - i;
                out.rejected = total - i;
                out.nack = Some((seq, RejectCause::Unframable));
                break;
            }
            if !tracker.is_none_or(|t| t.is_new(seq)) {
                self.seq_duplicates += 1;
                out.duplicates += 1;
                continue;
            }
            let record = WalRecord {
                sensor,
                seq,
                time,
                values,
            };
            if !Wal::framable(record.values.len()) {
                self.unframable_rejects += total - i;
                out.rejected = total - i;
                out.nack = Some((seq, RejectCause::Unframable));
                break;
            }
            if let Some(budget) = self.config.wal.retain_bytes {
                let mut next = plan.with(sensor, seq, time, record.values.len());
                if self.wal.total_bytes() + next.bytes() > budget && !reclaimed {
                    // One reclaim attempt per run, before anything is
                    // appended (the checkpoint it writes covers only
                    // records already durable). Its fsync and
                    // checkpoint are stages of their own.
                    self.charge_admission(pass_start);
                    self.reclaim_for_budget(budget.saturating_sub(next.bytes()))?;
                    reclaimed = true;
                    pass_start = timed.then(std::time::Instant::now);
                    tracker = self.state.intake.seqs.get(&sensor);
                    // The reclaim may have sealed the active segment:
                    // cut the prefix again against the log as it is now.
                    plan = self.wal.planner();
                    for r in &fresh {
                        plan.push(r.sensor, r.seq, r.time, r.values.len());
                    }
                    next = plan.with(sensor, seq, time, record.values.len());
                }
                if self.wal.poisoned().is_some() {
                    self.storage_rejects += total - i;
                    out.rejected = total - i;
                    out.nack = Some((seq, RejectCause::Storage));
                    break;
                }
                if self.wal.total_bytes() + next.bytes() > budget {
                    self.budget_shed += total - i;
                    out.rejected = total - i;
                    out.nack = Some((seq, RejectCause::WalBudget));
                    break;
                }
                plan = next;
            }
            fresh.push(record);
        }
        self.charge_admission(pass_start);
        // Pass 2: one contiguous WAL extent for the whole fresh
        // prefix, then per-reading admission. Only after the append
        // may sequence numbers be marked seen: the records are durable
        // (or will be truncated as a torn tail, in which case they
        // were never acked either).
        if !fresh.is_empty() {
            let logged_before = self.wal.records_logged();
            match self.wal.append_extent(&fresh, policy_sync) {
                Ok(()) => {}
                Err(WalError::Storage(_)) => {
                    // Part of the extent may be on disk, but nothing
                    // was observed or admitted: the whole run is
                    // unacked and the client retransmits it after
                    // restart (dedup absorbs any durable prefix).
                    self.storage_rejects += fresh.len();
                    out.rejected += fresh.len();
                    // The fresh prefix precedes any budget-refused
                    // suffix, so its first seq is the NACK coordinate.
                    out.nack = Some((fresh[0].seq, RejectCause::Storage));
                    return Ok(out);
                }
                Err(e) => return Err(e.into()),
            }
            out.accepted = fresh.len();
            let pass_start = timed.then(std::time::Instant::now);
            let tracker = self.state.intake.seqs.entry(sensor).or_default();
            let (first, count) = (fresh[0].seq, fresh.len() as u64);
            if fresh[fresh.len() - 1].seq - first + 1 == count {
                tracker.observe_run(first, count);
            } else {
                for record in &fresh {
                    tracker.observe(record.seq);
                }
            }
            let State { intake, down } = &mut self.state;
            let release = |time, sensor, values: &[f64]| down.take(time, sensor, values);
            let run = fresh.iter().map(|r| (r.time, r.values));
            intake.admit_run(sensor, Some(logged_before), run, release);
            self.charge_admission(pass_start);
            let logged = self.wal.records_logged();
            let every = self.config.checkpoint_every;
            if every > 0 && logged_before / every < logged / every {
                let budget = self.config.wal.retain_bytes.unwrap_or(u64::MAX);
                if policy_sync == PolicySync::Inline {
                    self.write_checkpoint(logged, budget)?;
                } else {
                    // Staged only: its commit rides the driver's next
                    // overlapped sync, as the policy fsync does. (Its
                    // plan is empty — admission has just held the log
                    // to the budget, and a plan deletes only while the
                    // log is over it: reclaim is the budget tick's.)
                    self.restore_staged = Some(self.stage_restore_point(logged, budget));
                }
            }
        }
        out.ack_cursor = self.wal.records_logged();
        let seqs = &self.state.intake.seqs;
        out.ack_up_to = seqs.get(&sensor).and_then(|t| t.watermark());
        Ok(out)
    }

    /// Adds the time since `start` (when the run is timed at all) to
    /// the admission stage.
    fn charge_admission(&mut self, start: Option<std::time::Instant>) {
        if let Some(start) = start {
            self.admission_ns = self
                .admission_ns
                .saturating_add(start.elapsed().as_nanos() as u64);
        }
    }

    /// Whether a newer committed owner epoch fences this collector's
    /// appends. Unfenced collectors (`epoch == 0`) and the
    /// [`Mutant::SkipFence`] mutant pay nothing; fenced collectors
    /// re-read the persisted token so a successor's rename-committed
    /// claim is observed before the next append, with a wire-observed
    /// epoch ([`Collector::observe_epoch`]) short-circuiting the read.
    fn fence_breached(&mut self) -> bool {
        if self.config.epoch == 0 || self.config.mutant == Some(Mutant::SkipFence) {
            return false;
        }
        if self.observed_epoch > self.config.epoch {
            return true;
        }
        if let Ok(persisted) = read_fence(&self.config.wal) {
            if persisted > self.observed_epoch {
                self.observed_epoch = persisted;
            }
        }
        self.observed_epoch > self.config.epoch
    }

    /// Records an owner epoch observed on the wire (a `Hello` or
    /// `Heartbeat` carrying a newer epoch than ours). Once a newer
    /// epoch is observed every delivery fail-stops with
    /// [`RejectCause::Fenced`].
    pub fn observe_epoch(&mut self, epoch: u64) {
        if epoch > self.observed_epoch {
            self.observed_epoch = epoch;
        }
    }

    /// The owner epoch this collector was configured with (0:
    /// unfenced).
    pub fn epoch(&self) -> u64 {
        self.config.epoch
    }

    /// Absolute WAL cursor covered by a completed fsync — the ack
    /// gate for [`BatchOutcome::ack_cursor`].
    pub fn synced_cursor(&self) -> u64 {
        self.wal.synced_records()
    }

    /// Records appended but not yet covered by an fsync.
    pub fn unsynced_records(&self) -> u64 {
        self.wal.unsynced_records()
    }

    /// Server-side per-stage wall time accumulated so far (batch
    /// admission, WAL writes, fsyncs) — the bench's ingest stage
    /// breakdown. Transport stages (decode, ack) are counted by the
    /// [`Server`](crate::server::Server) instead.
    pub fn stage_timings(&self) -> StageTimings {
        StageTimings {
            admission_ns: self.admission_ns,
            wal_encode_ns: self.wal.encode_ns(),
            wal_append_ns: self.wal.append_ns(),
            fsync_ns: self.wal.fsync_ns(),
            sync_blocked_ns: self.wal.sync_blocked_ns(),
            checkpoint_ns: self.checkpoint_ns,
            checkpoint_overlapped_ns: self.checkpoint_overlapped_ns,
        }
    }

    /// Whether an overlapped sync should be started now: the syncer is
    /// idle, and the fsync policy wants one (see [`Wal::sync_due`]) or
    /// a staged restore point is waiting for one to ride.
    pub fn sync_due(&self) -> bool {
        let staged = self.restore_staged.is_some() && self.restore_in_flight.is_none();
        self.syncer_idle() && self.wal.poisoned().is_none() && (staged || self.wal.sync_due())
    }

    /// The one rule for when a sync may start: the syncer is idle — no
    /// sync in flight, and no dispatched restore point whose commit
    /// (which the syncer runs after its fsync) has no outcome yet.
    pub fn syncer_idle(&self) -> bool {
        let restore = self.restore_in_flight.as_ref();
        !self.wal.sync_in_flight() && restore.is_none_or(|rp| rp.settled())
    }

    /// Whether an overlapped sync is in flight.
    pub(crate) fn sync_in_flight(&self) -> bool {
        self.wal.sync_in_flight()
    }

    /// Starts an overlapped sync covering every record logged so far
    /// (see [`Wal::begin_sync`]) if the syncer is idle, and attaches the
    /// staged restore point unless one is still in flight. With nothing
    /// left to sync the restore point goes alone: a completed fsync
    /// covers its cursor.
    pub(crate) fn begin_sync(&mut self) -> Option<SyncStart> {
        if !self.syncer_idle() {
            return None;
        }
        let mut start = self.wal.begin_sync();
        if self.wal.poisoned().is_none() && self.restore_in_flight.is_none() {
            if let Some(rp) = self.restore_staged.take() {
                start.get_or_insert_with(SyncStart::default).restore = Some(Arc::clone(&rp));
                self.restore_in_flight = Some(rp);
            }
        }
        start
    }

    /// The bug planted for a checker's self-test, if any (see
    /// [`GatewayConfig::mutant`]).
    pub(crate) fn mutant(&self) -> Option<Mutant> {
        self.config.mutant
    }

    /// Where this collector's WAL and its sidecar files live — what a
    /// [`RestorePoint`] commit step is run against.
    pub(crate) fn wal_config(&self) -> &WalConfig {
        &self.config.wal
    }

    /// Lands an overlapped sync's outcome: the synced cursor rises to
    /// the ticket's cursor, or the WAL is poisoned.
    pub(crate) fn complete_sync(&mut self, ticket: SyncTicket, done: SyncDone) {
        self.wal.complete_sync(ticket, done);
    }

    /// Forces the group-commit fsync: after `Ok`, every logged record
    /// is covered and every queued ack may be released. A storage
    /// failure poisons the WAL (callers NACK from then on).
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures only; fsync failure
    /// is absorbed into the poisoned state like delivery does.
    pub fn sync_wal(&mut self) -> Result<(), GatewayError> {
        if self.wal.poisoned().is_some() || self.wal.unsynced_records() == 0 {
            return Ok(());
        }
        match self.wal.sync() {
            Ok(()) => Ok(()),
            Err(WalError::Storage(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

impl Intake {
    /// Offers one sensor's logged run to the reorder buffer, hands
    /// `release` what it frees in order, its values borrowed from the
    /// reorder slabs, and brings liveness up to date once. That leaves
    /// the state an admission, drain and liveness update a reading
    /// would: once one of its readings is admitted the sensor cannot
    /// fall silent within the run, and the others' silence only grows
    /// with the watermark. A refused reading leading the run updates
    /// first, as it would alone: after a restore, that may silence the
    /// run's own sensor. The live path releases into [`Downstream::take`],
    /// a reopen's replay into a batch for it. `logged` is the log index
    /// of the run's first reading.
    pub(super) fn admit_run<'a>(
        &mut self,
        sensor: SensorId,
        logged: Option<u64>,
        run: impl IntoIterator<Item = (Timestamp, &'a [f64])>,
        mut release: impl FnMut(Timestamp, SensorId, &[f64]),
    ) {
        let before = self.reorder.watermark();
        let (mut led_by_refusal, mut newest) = (None, None);
        let outcome = |time, outcome| {
            let admitted = outcome == AdmitOutcome::Admitted;
            led_by_refusal.get_or_insert(!admitted);
            if admitted {
                newest = newest.max(Some(time));
            }
        };
        self.reorder
            .offer_run(sensor, logged, run, outcome, &mut release);
        self.reorder.release_ready(&mut release);
        if led_by_refusal == Some(true) {
            self.liveness.update(before);
        }
        if let Some(time) = newest {
            self.liveness.heard(sensor, time);
        }
        if led_by_refusal.is_some() {
            self.liveness.update(self.reorder.watermark());
        }
    }
}

impl Downstream {
    /// Sanitizes one released reading where it lies and pushes it into
    /// the window.
    pub(super) fn take(&mut self, time: Timestamp, sensor: SensorId, values: &[f64]) {
        match self.sanitizer.check(time, sensor, values) {
            Ok(()) => {
                self.accepted += 1;
                for outcome in self.pipeline.push_values(time, sensor, values) {
                    self.pipeline.recycle_outcome(outcome);
                }
            }
            Err(e) => self.rejected.push(e),
        }
    }
}

impl Liveness {
    /// Liveness under `deadline` from a snapshot's parts, every heard
    /// sensor queued (a sensor listed twice keeps the time listed last).
    pub(super) fn restore(
        deadline: Option<Timestamp>,
        heard: Vec<(SensorId, Timestamp)>,
        silent: Vec<SensorId>,
        episodes: usize,
    ) -> Self {
        let heard: BTreeMap<_, _> = heard.into_iter().collect();
        let due = heard.iter().filter(|_| deadline.is_some());
        Self {
            deadline,
            due: due.map(|(&s, &t)| Reverse((t, s))).collect(),
            heard,
            silent: silent.into_iter().collect(),
            episodes,
        }
    }

    /// `sensor` was admitted at `time`: heard then at the latest, and
    /// no longer silent (the episode stays counted). A sensor new or
    /// silent until now is queued at its latest time.
    fn heard(&mut self, sensor: SensorId, time: Timestamp) {
        let (latest, new) = match self.heard.entry(sensor) {
            Entry::Vacant(entry) => (*entry.insert(time), true),
            Entry::Occupied(mut entry) => {
                let last = entry.get_mut();
                *last = time.max(*last);
                (*last, false)
            }
        };
        if (self.silent.remove(&sensor) || new) && self.deadline.is_some() {
            self.due.push(Reverse((latest, sensor)));
        }
    }

    /// Declares silent, counting an episode each, the sensors last heard
    /// more than the deadline before `watermark`. Only the queued times
    /// the watermark has carried past the deadline are visited: a
    /// sensor heard since is queued again at its latest time, one not
    /// is silenced.
    fn update(&mut self, watermark: Option<Timestamp>) {
        let (Some(deadline), Some(watermark)) = (self.deadline, watermark) else {
            return;
        };
        let limit = watermark.saturating_sub(deadline);
        while let Some(&Reverse((queued, sensor))) = self.due.peek() {
            if queued >= limit {
                break;
            }
            self.due.pop();
            match self.heard.get(&sensor) {
                Some(&latest) if latest >= limit => self.due.push(Reverse((latest, sensor))),
                _ => self.episodes += usize::from(self.silent.insert(sensor)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{baseline, config, stream, tmpdir};
    use super::*;
    use crate::seeded::{Replay, TestRng};
    use crate::vfs::{FaultPlan, FaultSpec, FaultyVfs, StorageFault, VfsOp};
    use crate::wal::FsyncPolicy;
    use std::fs;
    use std::sync::Arc;

    #[test]
    fn duplicate_delivery_is_reacked_not_reprocessed() {
        let dir = tmpdir("dup");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        // Redeliver a prefix: all duplicates, all re-acked.
        for (s, seq, t, v) in stream(5) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Duplicate);
        }
        let report = c.finish().unwrap();
        assert_eq!(report.ingest.duplicates, 10);
        assert_eq!(report.ingest.accepted, 40);
        assert!(report.ingest.rejected.is_empty());
        assert!(report.storage.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn silence_deadline_surfaces_silent_sensor() {
        let dir = tmpdir("silence");
        let mut cfg = config(&dir);
        cfg.silence_deadline = Some(900);
        cfg.reorder.watermark_delay = 0;
        let (mut c, _) = Collector::open(cfg).unwrap();
        // Sensor 1 stops reporting at t=600; sensor 0 keeps going.
        let mut seq = [0u64; 2];
        for i in 1..=20u64 {
            let t = 300 * i;
            c.deliver(SensorId(0), seq[0], t, vec![20.0, 50.0]).unwrap();
            seq[0] += 1;
            if t <= 600 {
                c.deliver(SensorId(1), seq[1], t, vec![21.0, 51.0]).unwrap();
                seq[1] += 1;
            }
        }
        let live = c.liveness();
        assert_eq!(live.silent, vec![(SensorId(1), 600)]);
        assert_eq!(live.episodes, 1);
        // It comes back: silence clears but the episode stays counted.
        c.deliver(SensorId(1), seq[1], 6300, vec![21.0, 51.0])
            .unwrap();
        let live = c.liveness();
        assert!(live.is_live());
        assert_eq!(live.episodes, 1);
        let report = c.finish().unwrap();
        assert!(report.liveness.is_live());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failure_stops_acking_and_restart_replays_bit_identically() {
        let records = stream(40);
        let expect = baseline("fsync-base", &records);

        let dir = tmpdir("fsync-fault");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: ".seg".into(),
            op: VfsOp::Fsync,
            nth: 30,
            kind: StorageFault::FsyncFail,
            count: 1,
        });
        let mut cfg = config(&dir);
        cfg.wal.fsync = FsyncPolicy::Always;
        cfg.wal.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut c, _) = Collector::open(cfg).unwrap();
        let mut acked = 0usize;
        let mut rejected = 0usize;
        for (s, seq, t, v) in records.iter().cloned() {
            match c.deliver(s, seq, t, v).unwrap() {
                DeliverOutcome::Accepted => {
                    assert_eq!(rejected, 0, "no ack may follow a storage failure");
                    acked += 1;
                }
                DeliverOutcome::Duplicate => unreachable!("stream has no duplicates"),
                DeliverOutcome::Rejected(cause) => {
                    assert_eq!(cause, RejectCause::Storage);
                    rejected += 1;
                }
            }
        }
        assert!(acked > 0 && rejected > 0, "fault hit mid-stream");
        let status = c.storage_status();
        let err = status.error.expect("wal poisoned");
        assert_eq!(err.op, VfsOp::Fsync, "typed error names the fsync");
        assert_eq!(status.storage_rejects, rejected);
        let report = c.finish().unwrap();
        assert!(report.storage.error.is_some(), "report carries the error");

        // Restart on healthy storage: the acked prefix replays, and
        // redelivering the whole stream converges to the clean run.
        let (mut c2, info) = Collector::open(config(&dir)).unwrap();
        assert!(info.replayed >= acked as u64, "every acked record survived");
        for (s, seq, t, v) in records.iter().cloned() {
            assert!(matches!(
                c2.deliver(s, seq, t, v).unwrap(),
                DeliverOutcome::Accepted | DeliverOutcome::Duplicate
            ));
        }
        let resumed = c2.finish().unwrap();
        assert_eq!(
            format!("{}", expect.pipeline),
            format!("{}", resumed.pipeline)
        );
        assert_eq!(expect.ingest.accepted, resumed.ingest.accepted);
        assert!(resumed.storage.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_exhaustion_sheds_with_counted_nacks() {
        // Checkpoints never commit (rename always fails), so retention
        // can never reclaim: once the budget fills, deliveries are
        // NACKed as WalBudget, not silently dropped and never acked.
        let dir = tmpdir("shed");
        let plan = FaultPlan::new().with_fault(FaultSpec {
            path: CHECKPOINT_FILE.into(),
            op: VfsOp::Rename,
            nth: 1,
            kind: StorageFault::Enospc,
            count: u32::MAX,
        });
        let frame: u64 = 21 + 8 * 2 + 8;
        let mut cfg = config(&dir);
        cfg.wal.retain_bytes = Some(3 * frame);
        cfg.wal.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut c, _) = Collector::open(cfg).unwrap();
        let mut acked = 0usize;
        let mut shed = 0usize;
        for (s, seq, t, v) in stream(10) {
            match c.deliver(s, seq, t, v).unwrap() {
                DeliverOutcome::Accepted => acked += 1,
                DeliverOutcome::Rejected(RejectCause::WalBudget) => shed += 1,
                other => unreachable!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(acked, 3, "budget holds exactly three frames");
        assert_eq!(shed, 17);
        let status = c.storage_status();
        assert_eq!(status.budget_shed, 17);
        assert!(status.checkpoint_failures > 0, "commit failures counted");
        assert!(status.error.is_none(), "shedding is not poisoning");
        let report = c.finish().unwrap();
        assert_eq!(report.storage.budget_shed, 17);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A reading wider than a frame's `u16` value count used to be
    /// accepted, logged with the count wrapped, and then taken for a
    /// torn tail on reopen — truncating it *and every acked record
    /// behind it*. It is refused up front instead, with its own cause.
    #[test]
    fn an_unframable_reading_is_refused_before_it_can_poison_the_tail() {
        let dir = tmpdir("unframable");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        assert_eq!(
            c.deliver(SensorId(0), 0, 300, vec![1.0; 70_000]).unwrap(),
            DeliverOutcome::Rejected(RejectCause::Unframable)
        );
        assert_eq!(c.wal_records(), 0, "refused before the append");
        // The widest reading a frame can state is fine, and so is
        // whatever is delivered after the refusal.
        let widest = vec![2.0; usize::from(u16::MAX)];
        assert_eq!(
            c.deliver(SensorId(0), 0, 300, widest.clone()).unwrap(),
            DeliverOutcome::Accepted
        );
        assert_eq!(
            c.deliver(SensorId(1), 0, 300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted
        );
        let status = c.storage_status();
        assert_eq!(status.unframable_rejects, 1);
        assert!(status.is_clean(), "nothing is wrong with the disk");
        drop(c);
        let (wal, records) = Wal::open(config(&dir).wal, None).unwrap();
        assert_eq!(
            wal.records_logged(),
            2,
            "both acked records survive a reopen"
        );
        assert_eq!(records.to_records()[0].values, widest);
        drop(wal);
        let (_, info) = Collector::open(config(&dir)).unwrap();
        assert_eq!(info.replayed, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The same width in the middle of a batch: the fresh prefix in
    /// front of it is logged and acked, the NACK names the reading, and
    /// the suffix is the client's to retransmit.
    #[test]
    fn an_unframable_reading_mid_batch_keeps_the_prefix() {
        let dir = tmpdir("unframable-batch");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        let readings: Vec<(Timestamp, Vec<f64>)> = vec![
            (300, vec![20.0, 50.0]),
            (600, vec![1.0; 70_000]),
            (900, vec![21.0, 51.0]),
        ];
        let out = c.deliver_batch(SensorId(3), 0, &readings).unwrap();
        assert_eq!((out.accepted, out.rejected), (1, 2));
        assert_eq!(out.nack, Some((1, RejectCause::Unframable)));
        assert_eq!(out.ack_up_to, Some(0), "the prefix is acked");
        assert_eq!(out.ack_cursor, 1);
        assert_eq!(c.storage_status().unframable_rejects, 2);
        let report = c.finish().unwrap();
        assert_eq!(report.storage.unframable_rejects, 2);
        let (_, info) = Collector::open(config(&dir)).unwrap();
        assert_eq!(info.replayed, 1, "the logged prefix replays");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch within its length of `u64::MAX` used to overflow
    /// `first_seq + i` (a panic in a debug build, seqs wrapped to 0…
    /// in release). It is refused at `u64::MAX` — the first seq the
    /// tracker has no successor for — before the append, and the fresh
    /// reading in front of it is logged and acked.
    #[test]
    fn a_batch_running_off_the_seq_space_keeps_its_prefix() {
        let dir = tmpdir("seq-overflow");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        let readings: Vec<(Timestamp, Vec<f64>)> = (1..=3u64)
            .map(|i| (300 * i, vec![20.0 + i as f64, 50.0]))
            .collect();
        let out = c
            .deliver_batch(SensorId(0), u64::MAX - 1, &readings)
            .unwrap();
        assert_eq!((out.accepted, out.rejected), (1, 2));
        assert_eq!(out.nack, Some((u64::MAX, RejectCause::Unframable)));
        assert_eq!(out.ack_cursor, 1, "the prefix is logged");
        assert_eq!(c.wal_records(), 1, "nothing at or past the refusal is");
        assert_eq!(c.storage_status().unframable_rejects, 2);
        drop(c);
        let (_, records) = Wal::open(config(&dir).wal, None).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records.to_records()[0].seq,
            u64::MAX - 1,
            "under its own seq"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The same refusal for a lone stop-and-wait `deliver`, and the
    /// tracker stays total if such a seq ever reaches it (a log written
    /// by an older binary).
    #[test]
    fn the_last_seq_is_refused_before_the_append() {
        let dir = tmpdir("seq-max");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        assert_eq!(
            c.deliver(SensorId(0), u64::MAX, 300, vec![20.0, 50.0])
                .unwrap(),
            DeliverOutcome::Rejected(RejectCause::Unframable)
        );
        assert_eq!(c.wal_records(), 0);
        assert!(c.storage_status().is_clean());
        let mut t = SeqTracker::default();
        for seq in [u64::MAX, u64::MAX - 1] {
            assert!(t.observe(seq) && !t.is_new(seq));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The retention budget is projected by the planner the append
    /// runs: a batch is priced as the frame it will be, so a budget
    /// that could not hold the readings framed one by one admits them.
    #[test]
    fn the_budget_prices_a_batch_as_its_frame() {
        let dir = tmpdir("budget-frame");
        let mut cfg = config(&dir);
        // Eight two-value readings: 8 * 45 = 360 bytes logged alone,
        // 8 + 15 + 8 * (2 + 16) = 167 as one run frame (every 300 s step
        // a two-byte varint).
        cfg.wal.retain_bytes = Some(167);
        cfg.checkpoint_every = 0;
        let (mut c, _) = Collector::open(cfg).unwrap();
        let readings: Vec<(Timestamp, Vec<f64>)> =
            (1..=9u64).map(|i| (300 * i, vec![20.0, 50.0])).collect();
        let out = c.deliver_batch(SensorId(0), 0, &readings).unwrap();
        assert_eq!((out.accepted, out.rejected), (8, 1));
        assert_eq!(out.nack, Some((8, RejectCause::WalBudget)));
        assert_eq!(c.wal_footprint(), 167, "projected bytes are written bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Epoch fencing, live path: a collector that *observes* a newer
    /// epoch on the wire (Hello/Heartbeat from a newer-epoch peer)
    /// fail-stops its deliver path with typed `Fenced` rejects and
    /// counts them; the WAL gains no interleaved appends.
    #[test]
    fn wire_observed_newer_epoch_fences_deliveries() {
        let dir = tmpdir("fence-wire");
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        let (mut c, _) = Collector::open(cfg).unwrap();
        assert_eq!(
            c.deliver(SensorId(0), 0, 300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted
        );
        c.observe_epoch(2); // a successor announced itself
        for seq in 1..4u64 {
            assert_eq!(
                c.deliver(SensorId(0), seq, 300 * (seq + 1), vec![21.0, 51.0])
                    .unwrap(),
                DeliverOutcome::Rejected(RejectCause::Fenced)
            );
        }
        let readings: Vec<(Timestamp, Vec<f64>)> =
            vec![(1500, vec![22.0, 52.0]), (1800, vec![23.0, 53.0])];
        let out = c.deliver_batch(SensorId(0), 4, &readings).unwrap();
        assert_eq!(out.nack, Some((4, RejectCause::Fenced)));
        assert_eq!(out.rejected, 2);
        let status = c.storage_status();
        assert_eq!(status.fence_rejects, 5);
        assert_eq!(status.fenced_by, Some(2));
        assert!(
            status.is_clean(),
            "fencing is an orderly fail-stop, not storage degradation"
        );
        drop(c);
        // No interleaved appends: an unfenced reopen replays only the
        // single record accepted before the newer epoch was observed.
        let (_, rec) = Collector::open(config(&dir)).unwrap();
        assert_eq!(rec.replayed, 1, "a fenced collector must not append");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The silence scan [`Liveness`] replaced, verbatim but for its
    /// owner: every heard sensor probed whenever the watermark moves.
    #[derive(Default)]
    struct FullScan {
        last_heard: BTreeMap<SensorId, Timestamp>,
        silent: BTreeSet<SensorId>,
        liveness_watermark: Option<Timestamp>,
        episodes: usize,
    }

    impl FullScan {
        fn heard(&mut self, sensor: SensorId, time: Timestamp) {
            let heard = self.last_heard.entry(sensor).or_insert(time);
            if time > *heard {
                *heard = time;
            }
            self.silent.remove(&sensor);
        }

        fn update_liveness(
            &mut self,
            deadline: Timestamp,
            watermark: Timestamp,
            touched: SensorId,
        ) {
            if self.liveness_watermark == Some(watermark) {
                if let Some(&heard) = self.last_heard.get(&touched) {
                    if watermark > heard.saturating_add(deadline) && self.silent.insert(touched) {
                        self.episodes += 1;
                    }
                }
                return;
            }
            self.liveness_watermark = Some(watermark);
            for (&sensor, &heard) in &self.last_heard {
                if watermark > heard.saturating_add(deadline) && self.silent.insert(sensor) {
                    self.episodes += 1;
                }
            }
        }
    }

    /// [`Liveness`] against the full scan on seeded admissions,
    /// refusals, watermark advances (small, and far past every
    /// deadline) and restores — from its own parts or from parts a
    /// scan would not have left (a silent sensor dropped, a live one
    /// listed silent): after every step, the same silent sensors, last
    /// heard times and episode count.
    #[test]
    fn an_ordered_visit_declares_what_a_full_scan_declares() {
        const PERIOD: u64 = 300;
        let case = |seed: u64| -> Result<(), String> {
            let mut rng = TestRng::new(seed);
            let deadline = PERIOD * rng.usize_in(0, 6) as u64;
            let sensors = rng.usize_in(1, 40) as u16;
            let mut ordered = Liveness::restore(Some(deadline), Vec::new(), Vec::new(), 0);
            let mut oracle = FullScan::default();
            let mut watermark = rng.usize_in(0, 20) as u64 * PERIOD;
            for step in 0..rng.usize_in(10, 200) {
                let touched = SensorId(rng.usize_in(0, usize::from(sensors)) as u16);
                match rng.usize_in(0, 12) {
                    0 => {
                        let mut silent: Vec<SensorId> = ordered.silent.iter().copied().collect();
                        match rng.usize_in(0, 3) {
                            0 if !silent.is_empty() => {
                                silent.remove(rng.usize_in(0, silent.len()));
                            }
                            1 => silent.push(touched),
                            _ => {}
                        }
                        silent.sort();
                        silent.dedup();
                        let heard: Vec<_> = ordered.heard.iter().map(|(&s, &t)| (s, t)).collect();
                        oracle = FullScan {
                            last_heard: heard.iter().copied().collect(),
                            silent: silent.iter().copied().collect(),
                            liveness_watermark: None,
                            episodes: ordered.episodes,
                        };
                        ordered =
                            Liveness::restore(Some(deadline), heard, silent, ordered.episodes);
                    }
                    1..=6 => {
                        let time = watermark + PERIOD * rng.usize_in(0, 4) as u64;
                        ordered.heard(touched, time);
                        oracle.heard(touched, time);
                    }
                    _ => {}
                }
                watermark += match rng.usize_in(0, 10) {
                    0 => deadline + PERIOD * rng.usize_in(1, 30) as u64,
                    1..=5 => PERIOD * rng.usize_in(0, 2) as u64,
                    _ => 0,
                };
                ordered.update(Some(watermark));
                oracle.update_liveness(deadline, watermark, touched);
                if (&ordered.silent, ordered.episodes, &ordered.heard)
                    != (&oracle.silent, oracle.episodes, &oracle.last_heard)
                {
                    return Err(format!(
                        "step {step}: silent {:?} / {} episode(s), full scan {:?} / {}",
                        ordered.silent, ordered.episodes, oracle.silent, oracle.episodes
                    ));
                }
            }
            Ok(())
        };
        let replay = Replay {
            var: "LIVENESS_SEED",
            package: "sentinet-gateway",
            target: "--lib",
            test: "an_ordered_visit_declares_what_a_full_scan_declares",
        };
        replay.for_each_seed(1_000, case);
    }

    /// `Mutant::SkipFence` is the fence's mutant: with the check
    /// disabled, a stale collector reopens and appends straight past a
    /// newer committed epoch — exactly the split-brain the nemesis
    /// campaign must catch (see `xtask nemesis`).
    #[test]
    fn fence_check_skip_admits_split_brain() {
        let dir = tmpdir("fence-skip");
        let mut cfg = config(&dir);
        cfg.epoch = 2;
        let (c, _) = Collector::open(cfg).unwrap();
        drop(c);
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        cfg.mutant = Some(Mutant::SkipFence);
        let (mut zombie, _) = Collector::open(cfg).expect("skip must admit the stale epoch");
        zombie.observe_epoch(2);
        assert_eq!(
            zombie
                .deliver(SensorId(0), 0, 300, vec![20.0, 50.0])
                .unwrap(),
            DeliverOutcome::Accepted,
            "the broken build appends where the shipped one fail-stops"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
