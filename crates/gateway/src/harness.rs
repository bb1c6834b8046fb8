//! Deterministic single-step server harness — the injectable seam the
//! protocol model checker (`cargo run -p xtask -- protocol-check`)
//! drives.
//!
//! [`Server`](crate::server::Server) is built around threads, sockets
//! and wall-clock timeouts, none of which an exhaustive state-space
//! explorer can schedule. [`StepServer`] runs the same core, loop rule
//! and sync job (see [`protocol`](crate::protocol)) with every
//! nondeterministic edge lifted out: the caller owns the "network"
//! (raw frame bytes in, typed replies out, one message a step) and
//! decides when the queue runs dry, when the inline group commit fires,
//! when a sync starts and when each step of its job runs. It is **not**
//! a model of the server: admission, durability and ack release run
//! through the real [`Collector`] (real
//! [`SeqTracker`](crate::collector::SeqTracker) dedup, real
//! [`Wal`](crate::wal::Wal) appends over whatever
//! [`Vfs`](crate::vfs::Vfs) the collector was opened with, real
//! [`FrameBuffer`] decoding), so an invariant the checker proves holds
//! for the code that runs in production. Nor does it carry a seam of
//! its own: a self-test plants its bug in the collector's
//! [`GatewayConfig::mutant`](crate::GatewayConfig::mutant), which the
//! server reads at the same branches.

use crate::collector::{Collector, GatewayError};
use crate::frame::{Frame, FrameBuffer, FrameError, Message};
use crate::protocol::{Core, QueuedAck, Reply, RestoreStep, Syncer};

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

/// The single-stepped driver of the protocol core over a real
/// [`Collector`]. See the module docs for what it is (a seam) and is
/// not (a model).
pub struct StepServer {
    collector: Collector,
    conns: Vec<Option<FrameBuffer>>,
    core: Core,
    /// The sync job, run one step at a time.
    syncer: Syncer,
}

impl StepServer {
    /// Wraps an opened collector; `credit_window` is granted in every
    /// v2 `HelloAck`.
    pub fn new(collector: Collector, credit_window: u32) -> Self {
        Self {
            collector,
            conns: Vec::new(),
            core: Core::new(credit_window),
            syncer: Syncer::default(),
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
        self.core.commit(&mut self.collector, &mut replies)?;
        Ok(self.route(replies))
    }

    /// The queue runs dry: [`Core::on_queue_dry`], the rule the server
    /// follows on every dry tick.
    ///
    /// # Errors
    ///
    /// As [`StepServer::commit`].
    pub fn queue_dry(&mut self) -> Result<Vec<(usize, Message)>, GatewayError> {
        let mut replies = Vec::new();
        if let Some(job) = self.core.on_queue_dry(&mut self.collector, &mut replies)? {
            self.syncer.take(job);
        }
        Ok(self.route(replies))
    }

    /// An overlapped sync starts, its cursor captured now; nothing
    /// touches the disk until [`StepServer::complete_sync`]. `false`
    /// when [`Collector::begin_sync`] has no job to give. The server
    /// starts one when the policy is due; the checker may start one
    /// whenever records are unsynced, which covers every such point.
    pub fn start_sync(&mut self) -> bool {
        let job = self.collector.begin_sync();
        job.map(|job| self.syncer.take(job)).is_some()
    }

    /// What [`StepServer::step_restore`] would do: `None` — nothing
    /// (no restore point dispatched, or its covering fsync has not
    /// completed).
    pub fn restore_step_ready(&self) -> Option<RestoreStep> {
        self.syncer.restore_step()
    }

    /// The dispatched restore point's next step: tmp written, renamed
    /// over the checkpoint, landed — or only the (empty) landing, when
    /// a synchronous writer ran the rest.
    pub fn step_restore(&mut self) {
        let wal = self.collector.wal_config();
        if self.syncer.step_restore(wal) == Some(RestoreStep::Land) {
            self.collector.land_restore_point();
        }
    }

    /// Whether a started sync has not completed yet.
    pub fn sync_in_flight(&self) -> bool {
        self.collector.sync_in_flight()
    }

    /// The sync in flight completes: its fsync runs on the sync handle
    /// (through whatever [`Vfs`](crate::vfs::Vfs) the collector was
    /// opened with, so a fault plan can fail it), the outcome lands on
    /// the WAL, and the acks it covers are released. Returns no
    /// replies when no sync is in flight.
    pub fn complete_sync(&mut self) -> Vec<(usize, Message)> {
        let Some((ticket, done)) = self.syncer.fsync() else {
            return Vec::new();
        };
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

    /// The underlying collector (for invariant probes).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }
}
