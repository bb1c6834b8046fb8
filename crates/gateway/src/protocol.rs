//! The sans-IO protocol core: the one implementation of the gateway's
//! v1/v2 wire protocol and of the loop rule around it, shared by its
//! two drivers.
//!
//! [`Core`] consumes one decoded [`Message`] (a batch in the arena it
//! was decoded into: [`Core::on_batch`]) for a connection id, a
//! queue-dry tick, a sync-completed notice, or a connection-closed
//! notice, and emits an ordered list of [`Reply`]s. It owns
//! everything protocol-shaped — the pending-ack queue and its ack-after-durable release rule, version
//! negotiation, the epoch-fence observation on `Hello`/`Heartbeat`,
//! the NACK rules and the three migration arms — and touches no
//! socket, thread or clock. The loop rule is stated once too: a sync
//! starts only while [`Collector::syncer_idle`], a dry queue flushes by
//! `Core::on_queue_dry`, and a sync job runs by `Syncer`.
//! [`Server`](crate::server::Server) is threads and sockets around
//! them, [`StepServer`](crate::harness::StepServer) single steps for
//! the protocol model checker. An invariant `xtask protocol-check`
//! proves therefore holds for the loop that ships, because both run
//! this code. So do the checker's must-fail self-tests: the three
//! mutants that break this file ([`Mutant::EagerAck`],
//! [`Mutant::LateCapture`], [`Mutant::CommitBeforeSync`]) are read from
//! the collector's [`GatewayConfig::mutant`](crate::GatewayConfig::mutant)
//! at the branch each one breaks, and neither driver has a seam of its
//! own.
//!
//! This is the only non-test gateway code that constructs an
//! `Ack`/`AckUpTo` (the `ack-ordering` lint enforces it).

use crate::collector::{Collector, DeliverOutcome, GatewayError, Mutant, RestorePoint};
use crate::frame::{Message, ReadingArena, PROTOCOL_V1, PROTOCOL_VERSION};
use crate::snapshot::{decode_collector, encode_collector};
use crate::vfs::VFile;
use crate::wal::{SyncDone, SyncStart, SyncTicket, WalConfig};
use sentinet_sim::SensorId;
use std::sync::Arc;

/// An `AckUpTo` the collector has admitted but whose WAL extent is not
/// yet covered by a completed fsync. Released only once
/// [`Collector::synced_cursor`] reaches `cursor` — the
/// ack-after-durable rule, batched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedAck {
    /// Connection the ack belongs to.
    pub conn: usize,
    /// Acknowledged sensor.
    pub sensor: SensorId,
    /// Cumulative watermark to report.
    pub seq: u64,
    /// WAL cursor a completed fsync must cover first.
    pub cursor: u64,
}

/// One frame the driver must send, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Destination connection.
    pub conn: usize,
    /// The message to encode as one frame.
    pub message: Message,
    /// Drop the connection after writing (a refused `Hello`).
    pub close: bool,
}

impl Reply {
    fn keep(conn: usize, message: Message) -> Self {
        Self {
            conn,
            message,
            close: false,
        }
    }
}

/// The protocol state machine. See the module docs.
#[derive(Debug)]
pub struct Core {
    pending: Vec<QueuedAck>,
    credit_window: u32,
    version_rejects: u64,
}

impl Core {
    /// A core granting `credit_window` batches in every v2 `HelloAck`.
    pub fn new(credit_window: u32) -> Self {
        Self {
            pending: Vec::new(),
            credit_window,
            version_rejects: 0,
        }
    }

    /// Acks admitted but not yet released (awaiting fsync coverage).
    pub fn pending_acks(&self) -> &[QueuedAck] {
        &self.pending
    }

    /// Hellos refused for carrying a version this core does not speak
    /// (answered with `HelloReject`, then dropped — a typed outcome,
    /// not corrupt-frame noise).
    pub fn version_rejects(&self) -> u64 {
        self.version_rejects
    }

    /// Connection `conn` is gone (EOF, I/O error or a corrupt frame):
    /// its queued acks are dropped. The client's retransmit protocol
    /// re-delivers whatever lost its ack and the seq dedup absorbs it.
    pub fn on_closed(&mut self, conn: usize) {
        self.pending.retain(|p| p.conn != conn);
    }

    /// The group commit, inline: one fsync covers every batch admitted
    /// since the last one, and the acks it unblocks are released
    /// together. `Fin` runs it, and `Core::on_queue_dry` when no
    /// fsync can start.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures; a storage failure
    /// poisons the WAL and is absorbed (deliveries NACK from then on).
    pub fn commit(
        &mut self,
        collector: &mut Collector,
        out: &mut Vec<Reply>,
    ) -> Result<(), GatewayError> {
        if !self.pending.is_empty() {
            collector.sync_wal()?;
            self.release_ready(collector, out);
        }
        Ok(())
    }

    /// The event queue ran dry, the group commit's flush interval:
    /// queued acks behind an idle syncer start an overlapped sync
    /// whatever the policy, its job returned for the driver's
    /// [`Syncer`]; only a log that cannot start an fsync (poisoned, or
    /// a vfs without sync handles) commits inline; a busy syncer takes
    /// the flush later. Fails as [`Core::commit`] does.
    pub(crate) fn on_queue_dry(
        &mut self,
        collector: &mut Collector,
        out: &mut Vec<Reply>,
    ) -> Result<Option<SyncStart>, GatewayError> {
        if self.pending.is_empty() || !collector.syncer_idle() {
            return Ok(None);
        }
        let job = collector.begin_sync();
        if job.as_ref().is_none_or(|job| job.ticket.is_none()) {
            self.commit(collector, out)?;
        }
        Ok(job)
    }

    /// An overlapped sync completed: its outcome lands on the WAL (the
    /// synced cursor rises to the cursor `ticket` captured before the
    /// fsync started, or the log is poisoned) and every ack it covers
    /// is released.
    pub(crate) fn on_synced(
        &mut self,
        collector: &mut Collector,
        mut ticket: SyncTicket,
        done: SyncDone,
        out: &mut Vec<Reply>,
    ) {
        if collector.mutant() == Some(Mutant::LateCapture) {
            ticket.cursor = collector.wal_records();
        }
        collector.complete_sync(ticket, done);
        self.release_ready(collector, out);
    }

    /// Handles one message from `conn`, appending the replies to `out`
    /// in the order they must reach the wire. Returns `true` on `Fin`:
    /// the run is over once the replies are written. Replies emitted
    /// before an error are still valid to send.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage collector failures — fatal to
    /// the run.
    pub fn on_message(
        &mut self,
        collector: &mut Collector,
        conn: usize,
        message: Message,
        out: &mut Vec<Reply>,
    ) -> Result<bool, GatewayError> {
        match message {
            Message::Data {
                sensor,
                seq,
                time,
                values,
            } => {
                // v1 stop-and-wait: deliver() made the record durable
                // under the fsync policy before returning, so the ack
                // needs no release gate. Accepted and Duplicate both
                // mean durable; a refusal (poisoned storage, budget
                // shedding, fencing) must never be acked — NACK so the
                // client fails fast instead of timing out.
                let reply = match collector.deliver(sensor, seq, time, values)? {
                    DeliverOutcome::Accepted | DeliverOutcome::Duplicate => {
                        Message::Ack { sensor, seq }
                    }
                    DeliverOutcome::Rejected(_) => Message::Nack { sensor, seq },
                };
                out.push(Reply::keep(conn, reply));
            }
            // A batch that did not come through a reader's arena.
            Message::DataBatch {
                sensor,
                first_seq,
                readings,
            } => {
                let mut arena = ReadingArena::default();
                readings.iter().for_each(|(t, v)| arena.push(*t, v));
                self.on_batch(collector, conn, sensor, first_seq, &arena, out)?;
            }
            Message::Fin => {
                // End of stream: flush the group commit so every
                // queued ack is released before the FinAck, and leave
                // no restore point half-way behind it.
                self.commit(collector, out)?;
                collector.flush_restore_points()?;
                out.push(Reply::keep(conn, Message::FinAck));
                return Ok(true);
            }
            Message::Hello { version, epoch } => {
                // The hello's epoch is a fence observation: a
                // controller speaking for a newer owner epoch proves a
                // successor committed — this collector is stale and
                // must fail-stop before its next append.
                if epoch > 0 {
                    collector.observe_epoch(epoch);
                }
                match version {
                    // Legacy stop-and-wait: no reply, exactly as
                    // version 1 of the server behaved.
                    PROTOCOL_V1 => {}
                    PROTOCOL_VERSION => out.push(Reply::keep(
                        conn,
                        Message::HelloAck {
                            version: PROTOCOL_VERSION,
                            credits: self.credit_window,
                        },
                    )),
                    // An unknown version gets a typed reject naming the
                    // highest version spoken here, and the connection is
                    // dropped.
                    _ => {
                        self.version_rejects += 1;
                        self.on_closed(conn);
                        out.push(Reply {
                            conn,
                            message: Message::HelloReject {
                                supported: PROTOCOL_VERSION,
                            },
                            close: true,
                        });
                    }
                }
            }
            Message::Heartbeat { epoch } => {
                // Liveness probe: reply with our epoch and the last
                // committed checkpoint cursor. A newer carried epoch
                // fences us.
                if epoch > 0 {
                    collector.observe_epoch(epoch);
                }
                out.push(Reply::keep(
                    conn,
                    Message::HeartbeatAck {
                        epoch: collector.epoch(),
                        checkpoint_cursor: collector.checkpoint_cursor(),
                    },
                ));
            }
            Message::MigrateOffer { start, end } => {
                // Source side of a live migration: cut the range at
                // the current cursor and stage it for transfer. The
                // cut fsyncs the log before choosing its cursor, so
                // acks queued behind the group commit become
                // releasable — let none of them trail the
                // MigrateAccept.
                let cut = collector.export_range(start..end);
                self.release_ready(collector, out);
                match cut {
                    Ok((inside, cursor)) => out.push(Reply::keep(
                        conn,
                        Message::MigrateAccept {
                            start,
                            end,
                            cursor,
                            snapshot: encode_collector(&inside).into_bytes(),
                        },
                    )),
                    // A cut that cannot be made durable is answered
                    // with silence: the controller's deadline aborts
                    // the migration while this collector keeps serving
                    // (or fail-stops on its poisoned WAL) — never a
                    // half-cut.
                    Err(GatewayError::MigrationCut(_) | GatewayError::Wal(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            Message::MigrateAccept {
                start,
                end,
                cursor,
                snapshot,
            } => {
                // Destination side: adopt the shipped range and
                // confirm only once the restore point is durable. An
                // undecodable or unadoptable payload gets silence —
                // the controller's deadline aborts and the source's
                // staged copy stays authoritative.
                let adopted = String::from_utf8(snapshot)
                    .ok()
                    .and_then(|text| decode_collector(&text).ok())
                    .map(|snap| collector.adopt_range(start..end, cursor, &snap));
                match adopted {
                    Some(Ok(())) => {
                        out.push(Reply::keep(
                            conn,
                            Message::MigrateDone { start, end, cursor },
                        ));
                    }
                    Some(Err(GatewayError::MigrationCut(_) | GatewayError::Wal(_))) | None => {}
                    Some(Err(e)) => return Err(e),
                }
            }
            Message::MigrateDone { start, end, cursor } => {
                // The range is durable at its new home, so the staged
                // outbox copy is no longer needed. Echoed back as the
                // acknowledgment.
                collector.clear_outbox(start..end);
                out.push(Reply::keep(
                    conn,
                    Message::MigrateDone { start, end, cursor },
                ));
            }
            Message::Ack { .. }
            | Message::AckUpTo { .. }
            | Message::FinAck
            | Message::Nack { .. }
            | Message::HelloAck { .. }
            | Message::HelloReject { .. }
            | Message::HeartbeatAck { .. } => {
                // Server-bound streams should not carry replies;
                // ignore rather than kill the connection.
            }
        }
        Ok(false)
    }

    /// Handles one `DataBatch` frame from `conn`, its readings in the
    /// arena they were decoded into. Admission is per reading,
    /// durability per batch: the cumulative ack is queued against the
    /// WAL cursor the batch ended on. The NACK (first refused seq) goes
    /// out immediately — refusal needs no durability. Fails as
    /// [`Core::on_message`] does.
    pub fn on_batch(
        &mut self,
        collector: &mut Collector,
        conn: usize,
        sensor: SensorId,
        first_seq: u64,
        readings: &ReadingArena,
        out: &mut Vec<Reply>,
    ) -> Result<(), GatewayError> {
        let batch = collector.deliver_arena(sensor, first_seq, readings)?;
        if let Some((seq, _)) = batch.nack {
            out.push(Reply::keep(conn, Message::Nack { sensor, seq }));
        }
        if let Some(seq) = batch.ack_up_to {
            self.pending.push(QueuedAck {
                conn,
                sensor,
                seq,
                cursor: batch.ack_cursor,
            });
            // A sync inside admission (segment roll, budget reclaim)
            // may already cover this batch, as one does a
            // duplicate-only batch; release what can go now. The rest
            // waits for the driver's overlapped policy sync or the
            // queue-dry flush.
            self.release_ready(collector, out);
        }
        Ok(())
    }

    /// Emits every queued `AckUpTo` whose WAL cursor a completed fsync
    /// now covers, in queue order; the rest stay queued.
    fn release_ready(&mut self, collector: &Collector, out: &mut Vec<Reply>) {
        let synced = collector.synced_cursor();
        let eager = collector.mutant() == Some(Mutant::EagerAck);
        self.pending.retain(|p| {
            if p.cursor > synced && !eager {
                return true;
            }
            let ack = Message::AckUpTo {
                sensor: p.sensor,
                seq: p.seq,
            };
            out.push(Reply::keep(p.conn, ack));
            false
        });
    }
}

/// A dispatched restore point's next step, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreStep {
    /// The syncer encodes the checkpoint and writes `checkpoint.tmp`.
    Write,
    /// The syncer renames it over `checkpoint.ck`.
    Rename,
    /// The event loop lands it on the collector.
    Land,
}

/// The syncer's one job routine, over what [`Collector::begin_sync`]
/// hands out: the job's fsync runs first and is reported on its own —
/// no ack waits on a commit — and the restore point riding it is
/// written and renamed only after that fsync succeeded; the loop lands
/// it. The server's syncer thread runs a job's steps back to back,
/// [`StepServer`](crate::harness::StepServer) one at a time.
#[derive(Default)]
pub(crate) struct Syncer {
    /// The sync handle on the active WAL segment.
    handle: Option<Box<dyn VFile>>,
    /// The job's fsync, until it has run.
    ticket: Option<SyncTicket>,
    /// The restore point riding the job, until landed.
    restore: Option<Arc<RestorePoint>>,
}

impl Syncer {
    /// Takes the next job (the first of every segment has a handle).
    pub(crate) fn take(&mut self, job: SyncStart) {
        self.handle = job.handle.or(self.handle.take());
        self.ticket = job.ticket;
        self.restore = job.restore.or(self.restore.take());
    }

    /// Runs the job's fsync, if it has one left, for
    /// [`Core::on_synced`]. Nothing is committed past a cursor whose
    /// fsync failed.
    pub(crate) fn fsync(&mut self) -> Option<(SyncTicket, SyncDone)> {
        let ticket = self.ticket.take()?;
        let done = match self.handle.as_mut() {
            Some(file) => SyncDone::run(file.as_mut()),
            None => SyncDone::failed("sync job without a handle"),
        };
        if !done.is_ok() {
            self.restore = None;
        }
        Some((ticket, done))
    }

    /// The restore point's next step; none while its fsync has not run
    /// (unless [`Mutant::CommitBeforeSync`] is planted).
    pub(crate) fn restore_step(&self) -> Option<RestoreStep> {
        let rp = self.restore.as_ref()?;
        let waits = rp.mutant != Some(Mutant::CommitBeforeSync);
        Some(match (rp.committed(), rp.written()) {
            (Some(_), _) => RestoreStep::Land,
            _ if self.ticket.is_some() && waits => return None,
            (None, false) => RestoreStep::Write,
            (None, true) => RestoreStep::Rename,
        })
    }

    /// Runs [`Syncer::restore_step`] and returns it: a commit step
    /// here, or `Land`, which hands the restore point to the loop.
    pub(crate) fn step_restore(&mut self, wal: &WalConfig) -> Option<RestoreStep> {
        let step = self.restore_step()?;
        match step {
            RestoreStep::Land => self.restore = None,
            _ => _ = self.restore.as_ref()?.step(wal, true),
        }
        Some(step)
    }
}
