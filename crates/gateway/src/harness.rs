//! Deterministic single-step server harness — the injectable seam the
//! protocol model checker (`cargo run -p xtask -- protocol-check`)
//! drives.
//!
//! [`Server`](crate::server::Server) is built around threads, sockets
//! and wall-clock timeouts, none of which an exhaustive state-space
//! explorer can schedule. [`StepServer`] drives the same
//! [`protocol::Core`](crate::protocol::Core) with every
//! nondeterministic edge lifted out: the caller owns the "network" (it
//! feeds raw frame bytes per connection and collects typed reply
//! messages), the caller decides when the queue runs dry
//! ([`StepServer::queue_dry`]), when the inline group commit fires
//! ([`StepServer::commit`]) and when an overlapped sync starts and when
//! it completes ([`StepServer::start_sync`],
//! [`StepServer::complete_sync`] — the server's syncer thread, with the
//! fsync itself held back until the schedule says it returned), when
//! the restore point that rode it is written, renamed and landed
//! ([`StepServer::step_restore`]), and every step decodes exactly one
//! message. It is **not** a model of
//! the server: the protocol is the shipped core, and admission, durability and ack release run through
//! the real [`Collector`] (real [`SeqTracker`](crate::collector::SeqTracker)
//! dedup, real [`Wal`](crate::wal::Wal) appends over whatever
//! [`Vfs`](crate::vfs::Vfs) the collector was opened with, real
//! [`FrameBuffer`] decoding), so an invariant the checker proves holds
//! for the code that runs in production.

use crate::collector::{Collector, GatewayError, RestorePoint};
use crate::frame::{Frame, FrameBuffer, FrameError, Message};
use crate::protocol::{AckDiscipline, Core, QueuedAck, Reply};
use crate::vfs::VFile;
use crate::wal::{SyncDone, SyncTicket};
use std::sync::Arc;

/// What one [`StepServer::step`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepEvent {
    /// No complete frame was buffered on the connection.
    Idle,
    /// One message was consumed; replies (with their destination
    /// connections) in the order the socket server would write them.
    Replies(Vec<(usize, Message)>),
    /// The connection's byte stream is corrupt — connection-fatal,
    /// its queued acks are discarded exactly as the server drops a
    /// `BadFrame` connection.
    BadFrame(FrameError),
}

/// The step of a dispatched restore point that
/// [`StepServer::step_restore`] runs next, in the order the syncer
/// thread and the event loop take them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreStep {
    /// The syncer encodes the checkpoint and writes `checkpoint.tmp`.
    Write,
    /// The syncer renames it over `checkpoint.ck`.
    Rename,
    /// The event loop lands it on the collector.
    Land,
}

/// The single-stepped driver of the protocol core over a real
/// [`Collector`]. See the module docs for what it is (a seam) and is
/// not (a model).
pub struct StepServer {
    collector: Collector,
    conns: Vec<Option<FrameBuffer>>,
    core: Core,
    /// The syncer's handle on the active WAL segment.
    sync_handle: Option<Box<dyn VFile>>,
    /// The overlapped sync that has started and not yet completed.
    in_flight: Option<SyncTicket>,
    /// The restore point the last started sync carried, until landed.
    restore: Option<Arc<RestorePoint>>,
    /// Mutation seam: whether a restore point's commit waits for its
    /// covering fsync (see [`StepServer::commit_restore_unsynced`]).
    restore_waits: bool,
}

impl StepServer {
    /// Wraps an opened collector; `credit_window` is granted in every
    /// v2 `HelloAck`.
    pub fn new(collector: Collector, credit_window: u32, discipline: AckDiscipline) -> Self {
        Self {
            collector,
            conns: Vec::new(),
            core: Core::new(credit_window, discipline),
            sync_handle: None,
            in_flight: None,
            restore: None,
            restore_waits: true,
        }
    }

    /// Opens a new connection; returns its id.
    pub fn connect(&mut self) -> usize {
        self.conns.push(Some(FrameBuffer::new()));
        self.conns.len() - 1
    }

    /// Closes `conn`: its buffered bytes and queued acks are dropped,
    /// as on the server's `Closed`/`BadFrame` events. The client's
    /// retransmit protocol re-delivers whatever lost its ack.
    pub fn disconnect(&mut self, conn: usize) {
        if let Some(slot) = self.conns.get_mut(conn) {
            *slot = None;
        }
        self.core.on_closed(conn);
    }

    /// Appends raw frame bytes to `conn`'s receive stream (the
    /// "network delivers a packet" edge). Bytes for a closed
    /// connection are discarded.
    pub fn feed(&mut self, conn: usize, bytes: &[u8]) {
        if let Some(Some(fb)) = self.conns.get_mut(conn) {
            fb.feed(bytes);
        }
    }

    /// Decodes at most one message from `conn` and hands it to the
    /// core, exactly as the server does with one queued event.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage collector failures, exactly as
    /// [`Server::run`](crate::server::Server::run) would abort.
    pub fn step(&mut self, conn: usize) -> Result<StepEvent, GatewayError> {
        let frame = match self.conns.get_mut(conn) {
            Some(Some(fb)) => match fb.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(StepEvent::Idle),
                Err(e) => {
                    self.disconnect(conn);
                    return Ok(StepEvent::BadFrame(e));
                }
            },
            _ => return Ok(StepEvent::Idle),
        };
        let mut replies = Vec::new();
        let (core, collector) = (&mut self.core, &mut self.collector);
        match frame {
            Frame::Batch(sensor, seq, arena) => {
                core.on_batch(collector, conn, sensor, seq, &arena, &mut replies)?
            }
            Frame::Message(msg) => {
                core.on_message(collector, conn, msg, &mut replies)?;
            }
        }
        Ok(StepEvent::Replies(self.route(replies)))
    }

    /// The inline group commit (what `Fin` runs); the caller (the model
    /// checker's schedule) decides when it fires.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures; a storage failure
    /// poisons the WAL and is absorbed, exactly like the server.
    pub fn commit(&mut self) -> Result<Vec<(usize, Message)>, GatewayError> {
        let mut replies = Vec::new();
        self.core.on_queue_dry(&mut self.collector, &mut replies)?;
        Ok(self.route(replies))
    }

    /// What the server does when its queue runs dry: queued acks behind
    /// an idle syncer start an overlapped sync
    /// ([`StepServer::start_sync`]) whatever the fsync policy, and only
    /// a log that cannot start one is committed inline
    /// ([`StepServer::commit`]). A busy syncer takes the flush later.
    ///
    /// # Errors
    ///
    /// As [`StepServer::commit`].
    pub fn queue_dry(&mut self) -> Result<Vec<(usize, Message)>, GatewayError> {
        let busy = self.sync_in_flight()
            || matches!(
                self.restore_step_ready(),
                Some(RestoreStep::Write | RestoreStep::Rename)
            );
        if self.core.pending_acks().is_empty() || busy || self.start_sync() {
            return Ok(Vec::new());
        }
        self.commit()
    }

    /// An overlapped sync starts: the WAL cursor it will cover is
    /// captured now, and nothing touches the disk until
    /// [`StepServer::complete_sync`]. Returns `false` (and does
    /// nothing) when there is nothing to cover, a sync is already in
    /// flight, or the WAL is poisoned. The server starts one only when
    /// the fsync policy is due; the checker may start one at any point
    /// with unsynced records, which covers every point the policy
    /// could pick. A staged restore point rides the sync as its tail
    /// (or goes alone when nothing is unsynced); like the one syncer
    /// thread, the harness takes no new job while a commit is unrun.
    pub fn start_sync(&mut self) -> bool {
        if matches!(
            self.restore_step_ready(),
            Some(RestoreStep::Write | RestoreStep::Rename)
        ) {
            return false;
        }
        let Some(start) = self.collector.begin_sync() else {
            return false;
        };
        if start.handle.is_some() {
            self.sync_handle = start.handle;
        }
        self.in_flight = start.ticket;
        if start.restore.is_some() {
            self.restore = start.restore;
        }
        true
    }

    /// What [`StepServer::step_restore`] would do: `None` — nothing
    /// (no restore point dispatched, or its covering fsync has not
    /// completed).
    pub fn restore_step_ready(&self) -> Option<RestoreStep> {
        let rp = self.restore.as_ref()?;
        if rp.committed().is_some() {
            return Some(RestoreStep::Land);
        }
        if self.in_flight.is_some() && self.restore_waits {
            return None;
        }
        Some(if rp.written() {
            RestoreStep::Rename
        } else {
            RestoreStep::Write
        })
    }

    /// The dispatched restore point's next step, one of the three the
    /// syncer thread and the event loop run in this order: write the
    /// tmp file, rename it over the checkpoint, land it on the
    /// collector. A synchronous writer may have run the rest already,
    /// in which case the step left is the (empty) landing.
    pub fn step_restore(&mut self) {
        match (self.restore_step_ready(), &self.restore) {
            (Some(RestoreStep::Land), _) => {
                self.collector.land_restore_point();
                self.restore = None;
            }
            (Some(_), Some(rp)) => {
                rp.step(self.collector.wal_config(), true);
            }
            _ => {}
        }
    }

    /// Mutation seam for the model checker's self-test: from now on a
    /// restore point is committed without waiting for the fsync that
    /// covers its cursor. Lives here so that no production
    /// configuration can select it.
    pub fn commit_restore_unsynced(&mut self) {
        self.restore_waits = false;
    }

    /// Mutation seam for the model checker's self-test: from now on a
    /// restore point names by log position buffered readings below its
    /// base too — readings its own reclaim deletes.
    pub fn name_below_base(&mut self) {
        self.collector.name_below_base();
    }

    /// Whether a started sync has not completed yet.
    pub fn sync_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// The sync in flight completes: its fsync runs on the sync handle
    /// (through whatever [`Vfs`](crate::vfs::Vfs) the collector was
    /// opened with, so a fault plan can fail it), the outcome lands on
    /// the WAL, and the acks it covers are released. Returns no
    /// replies when no sync is in flight.
    pub fn complete_sync(&mut self) -> Vec<(usize, Message)> {
        let (Some(ticket), Some(handle)) = (self.in_flight.take(), self.sync_handle.as_mut())
        else {
            return Vec::new();
        };
        let done = SyncDone::run(handle.as_mut());
        if !done.is_ok() {
            // Nothing is committed past a cursor whose fsync failed.
            self.restore = None;
        }
        let mut replies = Vec::new();
        self.core
            .on_synced(&mut self.collector, ticket, done, &mut replies);
        self.route(replies)
    }

    /// Hands replies to the caller's "network", dropping the
    /// connection behind any reply that closes it.
    fn route(&mut self, replies: Vec<Reply>) -> Vec<(usize, Message)> {
        for reply in replies.iter().filter(|r| r.close) {
            self.disconnect(reply.conn);
        }
        replies.into_iter().map(|r| (r.conn, r.message)).collect()
    }

    /// Acks admitted but not yet released (awaiting fsync coverage).
    pub fn pending_acks(&self) -> &[QueuedAck] {
        self.core.pending_acks()
    }

    /// Hellos refused for an unknown protocol version.
    pub fn version_rejects(&self) -> u64 {
        self.core.version_rejects()
    }

    /// The underlying collector (for invariant probes).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }
}
