//! Exhaustive protocol/durability model checker for the pipelined
//! (protocol v2) uplink.
//!
//! The pipelined protocol replaced stop-and-wait with a concurrent
//! state machine — credit windows, cumulative `AckUpTo` acks, a
//! group-commit WAL whose fsync watermark gates ack release — and its
//! correctness is otherwise covered only by *sampled* proptests. This
//! module closes the gap the way the shard-schedule checker
//! ([`crate::model_check`]) does for the engine: every place the real
//! system leaves an order to the scheduler becomes an explicit choice
//! point of a depth-first [`Schedule`], and every complete assignment
//! of choices is executed against the **real** implementation.
//!
//! Nothing protocol-critical is re-implemented. Episodes drive
//! [`StepServer`] — the gateway's injectable step seam — so batch
//! admission is the real `Collector::deliver_batch`, dedup is the real
//! `SeqTracker`, appends are the real `Wal::append_many` running over
//! a [`FaultyVfs`] on a real scratch directory, and frame decoding is
//! the real `FrameBuffer` fed the exact bytes `encode_frame` put on
//! the wire. The checker's own client/network model is only the part
//! the server cannot see: per-sensor batch queues under the granted
//! credit window, in-order per-connection delivery, retransmit on
//! timeout, reconnect-and-requeue on connection loss. A mirror
//! [`SeqTracker`] per sensor doubles as the formal spec of the ack
//! arithmetic and is cross-checked against every cumulative ack the
//! server queues.
//!
//! Five bounded sub-spaces are explored exhaustively (every schedule
//! up to the per-episode choice budget; remaining choices resolve to
//! the first enabled action, so every episode still runs to
//! completion):
//!
//! 1. **interleave** — 2 sensors × 3 batches × credit window 2, plus a
//!    retransmit-timeout budget: all delivery/commit orders.
//! 2. **reconnect** — a connection death (frames in flight on both
//!    directions are lost, queued acks dropped, client requeues) at
//!    every schedule point.
//! 3. **crash** — at every point where the WAL holds unsynced bytes
//!    (an overlapped sync in flight included), the process is killed
//!    and the on-disk segment truncated at every frame boundary past
//!    the fsync watermark plus a torn tear inside each frame (a batch
//!    is logged as one frame, so a tear costs every reading in it);
//!    the collector is reopened and the episode resumes with clients
//!    retransmitting.
//! 4. **poison** — the first WAL fsync fails ([`StorageFault::FsyncFail`]
//!    via the fault plan) — the inline one of a group commit or the
//!    overlapped one, when its completion is delivered — poisoning the
//!    log; the server must NACK from then on and never release another
//!    ack.
//! 5. **restore** — a restore point every batch, two frames a segment
//!    and a four-frame retention budget. The restore point a batch
//!    stages rides the next sync as its tail, and the job's steps are
//!    schedule points of their own: **sync-start** with the tail
//!    attached, **sync-complete** (the covering fsync), then
//!    **restore-step** three times — `checkpoint.tmp` written, renamed
//!    over `checkpoint.ck`, landed on the collector. Batches, a
//!    reconnect, inline commits, the budget tick (a synchronous writer
//!    that lands the job wherever it stands and then reclaims segments
//!    under a restore point of its own) and a crash are explored
//!    between every two of them; the crash also decides whether a
//!    written-but-unrenamed `checkpoint.tmp` survives.
//!
//! In every space the server's overlapped group commit is two schedule
//! points, not one: **sync-start** captures the WAL cursor the sync
//! will cover, **sync-complete** runs the fsync on the syncer's handle
//! and lands the outcome. Batches admitted, connections lost, inline
//! commits, a crash and a poisoning are all explored *between* the two.
//! The checker keeps its own durable cursor — advanced only by what a
//! completed fsync was started to cover — so a synced cursor that runs
//! ahead of it is caught even though the WAL itself believes it.
//!
//! Checked invariants (each with the episode trace printed on
//! violation — exploration is deterministic, so the trace plus the
//! choice vector *is* the seed-free reproducer):
//!
//! * **I1 credit** — a client never has more batches in flight than
//!   the `HelloAck` granted.
//! * **I2 ack-durability** — every released `AckUpTo` covers only
//!   records a completed fsync covers, and the WAL's synced cursor
//!   never claims more than that (this is the invariant
//!   [`AckDiscipline::Eager`] and [`AckDiscipline::LateCapture`]
//!   deliberately break).
//! * **I3 ack-coherence** — every queued cumulative ack equals the
//!   mirror `SeqTracker` watermark, and its WAL cursor equals the
//!   records logged.
//! * **I4 crash-durability** — after a crash + truncation anywhere at
//!   or past the fsync watermark, replay recovers exactly the readings
//!   of the frames that survived whole: nothing a client was acked is
//!   lost (the watermark never falls inside a frame), and no
//!   `(sensor, seq)` is ever logged twice (retransmissions of the torn
//!   tail are absorbed by dedup). The mirror sizes each frame with the
//!   wire codec — a run of fresh consecutive readings is one
//!   `DataBatch` frame, a lone one a `Data` frame — so the real log
//!   is also held to "logged as it travels", byte for byte.
//! * **I5 poisoned-never-acks** — after storage poisons the WAL, no
//!   further ack is released (subsumed by I2, asserted directly too).
//! * **I6 restore-durability** — whatever a crash leaves behind,
//!   `Collector::open` succeeds — never `CheckpointAhead`,
//!   `CheckpointMissing`, `CheckpointMismatch` or a missing segment at
//!   or above the committed base — and rebuilds exactly the mirror
//!   log: its length and every sensor's set of seen sequence numbers.
//!   Two mutants must trip it: the step seam committing a restore
//!   point before its covering fsync
//!   ([`StepServer::commit_restore_unsynced`]), and a crash model that
//!   admits the disk a delete-before-rename implementation could leave
//!   (the last reclaim's segments gone, `checkpoint.ck` one version
//!   behind).
//! * **Completion** — every fault-free episode ends with every reading
//!   durable, every batch acked, and the final on-disk log containing
//!   each reading exactly once (verified by re-opening the real WAL
//!   and walking its records).

use crate::model_check::Schedule;
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    AckDiscipline, Collector, FaultPlan, FaultSpec, FaultyVfs, FsyncPolicy, GatewayConfig, Message,
    QueuedAck, RestoreStep, SeqTracker, StepEvent, StepServer, StorageFault, VfsOp, Wal,
    PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sensors per episode.
const SENSORS: usize = 2;
/// Batches each sensor must deliver.
const BATCHES: u64 = 3;
/// Readings per batch.
const READINGS_PER_BATCH: u64 = 2;
/// Credit window the server grants (and the client honors).
const CREDITS: u32 = 2;
/// Sequence numbers 0..TOTAL_SEQS per sensor.
const TOTAL_SEQS: u64 = BATCHES * READINGS_PER_BATCH;

/// How deep the exhaustive frontier goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small budgets for unit tests (hundreds of episodes, < 1 s).
    Quick,
    /// CI budgets (tens of thousands of transitions).
    Full,
}

/// One bounded sub-space of the model.
#[derive(Clone, Copy)]
struct SpaceCfg {
    name: &'static str,
    /// Nondeterministic choices resolved by the schedule per episode;
    /// choices past the budget take the first enabled action.
    choice_budget: usize,
    /// Where the budgeted window starts, in branch points from the
    /// start of the episode: the space is explored once per entry,
    /// each time with every earlier choice taking the first enabled
    /// action. `&[0]` is the one window at the start.
    windows: &'static [usize],
    /// Retransmit-timeout actions allowed per episode.
    timeout_budget: u32,
    /// Connection-death actions allowed per episode.
    reset_budget: u32,
    /// Crash-and-recover actions allowed per episode.
    crash_budget: u32,
    /// Fail the first WAL fsync (poisoning the log).
    poison: bool,
    /// Restore points, small segments and a retention budget on.
    restore: bool,
    /// The deliberately broken restore-point order to catch, if any.
    mutation: Option<RestoreMutation>,
    discipline: AckDiscipline,
}

/// The two restore-point orders I6 must reject (self-tests; neither
/// is reachable through any production configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreMutation {
    /// The step seam writes and renames a restore point before the
    /// fsync covering its cursor has completed.
    CommitBeforeSync,
    /// Segments are deleted before the checkpoint naming the new base
    /// is renamed: emulated in the crash model, by killing the process
    /// inside a reclaim with `checkpoint.ck` as it was before it.
    DeleteBeforeRename,
}

/// A violated invariant plus everything needed to reproduce it: the
/// exploration is deterministic, so the choice vector is a seed-free
/// coordinate of the failing schedule and the trace is the full
/// episode history.
#[derive(Debug)]
pub struct Violation {
    /// Which sub-space the episode belonged to.
    pub space: &'static str,
    /// Which invariant broke (I1..I5, completion, or harness).
    pub invariant: &'static str,
    /// What exactly was observed.
    pub detail: String,
    /// The schedule coordinate (choice index at each branch point).
    pub choices: Vec<usize>,
    /// Every transition of the failing episode, in order.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "protocol-check: invariant {} violated in space '{}'",
            self.invariant, self.space
        )?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  schedule choices: {:?}", self.choices)?;
        writeln!(f, "  counterexample trace ({} steps):", self.trace.len())?;
        for (i, line) in self.trace.iter().enumerate() {
            writeln!(f, "    {i:3}. {line}")?;
        }
        Ok(())
    }
}

/// Exploration totals for one sub-space.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpaceReport {
    /// Complete episodes executed (= schedules explored).
    pub episodes: u64,
    /// Transitions (actions) executed across all episodes.
    pub transitions: u64,
}

/// Exploration totals across all sub-spaces.
#[derive(Debug, Default)]
pub struct ProtocolReport {
    /// Per-space totals, in exploration order.
    pub spaces: Vec<(&'static str, SpaceReport)>,
}

impl ProtocolReport {
    /// Total episodes across spaces.
    pub fn episodes(&self) -> u64 {
        self.spaces.iter().map(|(_, r)| r.episodes).sum()
    }

    /// Total transitions (explored states) across spaces.
    pub fn transitions(&self) -> u64 {
        self.spaces.iter().map(|(_, r)| r.transitions).sum()
    }
}

/// Budgeted facade over [`Schedule`]: after the first `skip` branch
/// points of an episode, the next `budget` are schedule-controlled
/// (exhaustively explored); the rest take the first enabled action so
/// the episode always completes.
struct Chooser<'a> {
    schedule: &'a mut Schedule,
    skip: usize,
    budget: usize,
    used: usize,
}

impl Chooser<'_> {
    fn pick(&mut self, width: usize) -> usize {
        if width <= 1 || self.used >= self.skip + self.budget {
            return 0;
        }
        self.used += 1;
        if self.used <= self.skip {
            return 0;
        }
        self.schedule.choose(width)
    }
}

/// One batch the client model owns end to end.
#[derive(Clone)]
struct Batch {
    first_seq: u64,
    readings: Vec<(u64, Vec<f64>)>,
    /// NACKs this batch has received (two = the client gives up).
    nacks: u32,
}

impl Batch {
    fn last_seq(&self) -> u64 {
        self.first_seq + self.readings.len() as u64 - 1
    }
}

/// The client-side model: everything the server cannot observe.
struct Client {
    sensor: SensorId,
    conn: usize,
    credits: u32,
    to_send: VecDeque<Batch>,
    inflight: VecDeque<Batch>,
    /// Highest cumulative ack received.
    acked: Option<u64>,
    gave_up: bool,
}

#[derive(Clone, Copy, Debug)]
enum Action {
    /// Client consumes the front server→client message.
    DeliverAck(usize),
    /// Server consumes the front client→server frame.
    Deliver(usize),
    /// Client puts its next batch on the wire (consumes a credit).
    Send(usize),
    /// The queue runs dry: group commit + ack release.
    Commit,
    /// An overlapped sync starts: the cursor it covers is captured.
    SyncStart,
    /// The overlapped sync's fsync returns; covered acks are released.
    SyncComplete,
    /// The dispatched restore point's next step: tmp written, renamed,
    /// landed.
    RestoreStep,
    /// Client retransmits its oldest unacked batch.
    Timeout(usize),
    /// The connection dies; in-flight frames both ways are lost.
    Reset(usize),
    /// `kill -9` + disk truncation anywhere past the fsync watermark.
    Crash,
}

type EpisodeError = (&'static str, String);

struct Episode<'a> {
    cfg: &'a SpaceCfg,
    gw_cfg: GatewayConfig,
    /// The storage under `gw_cfg`, for its operation counters.
    vfs: Arc<FaultyVfs>,
    server: Option<StepServer>,
    clients: Vec<Client>,
    /// In-order client→server wire, one per sensor (TCP semantics).
    c2s: Vec<VecDeque<Batch>>,
    /// In-order server→client wire, one per sensor.
    s2c: Vec<VecDeque<Message>>,
    /// Mirror spec: the real dedup arithmetic, advanced in lockstep.
    trackers: Vec<SeqTracker>,
    /// Mirror of the WAL append order.
    logged: Vec<(u16, u64)>,
    /// Mirror of the WAL's frames, in log order: how many records each
    /// holds and its byte length (crash offsets).
    frames: Vec<(usize, u64)>,
    /// Mirror of durability: records a *completed* fsync was started
    /// to cover. The WAL's synced cursor must never exceed it.
    durable: usize,
    /// Mirror-log length when the sync in flight started.
    sync_cursor: Option<usize>,
    timeouts_left: u32,
    resets_left: u32,
    crashes_left: u32,
    /// Set once a commit observes the WAL poisoned.
    poisoned: bool,
    trace: Vec<String>,
    transitions: u64,
}

fn gateway_config(dir: &Path, space: &SpaceCfg) -> (GatewayConfig, Arc<FaultyVfs>) {
    let mut plan = FaultPlan::new();
    if space.poison {
        plan = plan.with_fault(FaultSpec {
            path: ".seg".into(),
            op: VfsOp::Fsync,
            nth: 1,
            kind: StorageFault::FsyncFail,
            count: 1,
        });
    }
    let mut cfg = GatewayConfig::new(dir);
    // Checkpoints off: crash recovery must come from the log alone,
    // and the checkpoint fsync would blur the Batch-policy watermark.
    cfg.checkpoint_every = 0;
    // A batch threshold no episode reaches: the *only* fsyncs are the
    // explicit group commits, so the synced cursor moves exactly when
    // the schedule says Commit — the Durable/Eager distinction (and
    // every crash window) stays observable.
    cfg.wal.fsync = FsyncPolicy::Batch(1_000_000);
    cfg.wal.segment_max_bytes = 1 << 30;
    if space.restore {
        // Every batch is one frame of this size: two to a segment, a
        // budget of four, so the fifth frame of an episode meets a
        // budget tick with a segment to reclaim.
        let frame = encode_frame(&Message::DataBatch {
            sensor: SensorId(0),
            first_seq: 0,
            readings: vec![(300, vec![0.0]); READINGS_PER_BATCH as usize],
        })
        .len() as u64;
        cfg.checkpoint_every = READINGS_PER_BATCH;
        cfg.wal.segment_max_bytes = 2 * frame;
        cfg.wal.retain_bytes = Some(4 * frame);
    }
    let vfs = Arc::new(FaultyVfs::new(plan));
    cfg.wal.vfs = vfs.clone();
    (cfg, vfs)
}

fn harness_err(detail: String) -> EpisodeError {
    ("harness", detail)
}

impl<'a> Episode<'a> {
    fn new(cfg: &'a SpaceCfg, dir: &Path) -> Result<Self, EpisodeError> {
        let _ = std::fs::remove_dir_all(dir);
        let (gw_cfg, vfs) = gateway_config(dir, cfg);
        let (collector, _) = Collector::open(gw_cfg.clone())
            .map_err(|e| harness_err(format!("fresh open failed: {e}")))?;
        let server = Self::serve(cfg, collector);
        let clients = (0..SENSORS)
            .map(|s| {
                let mut to_send = VecDeque::new();
                for b in 0..BATCHES {
                    let first_seq = b * READINGS_PER_BATCH;
                    let readings = (0..READINGS_PER_BATCH)
                        .map(|r| {
                            let seq = first_seq + r;
                            ((seq + 1) * 300, vec![s as f64 * 100.0 + seq as f64])
                        })
                        .collect();
                    to_send.push_back(Batch {
                        first_seq,
                        readings,
                        nacks: 0,
                    });
                }
                Client {
                    sensor: SensorId(s as u16),
                    conn: usize::MAX,
                    credits: CREDITS,
                    to_send,
                    inflight: VecDeque::new(),
                    acked: None,
                    gave_up: false,
                }
            })
            .collect();
        let mut ep = Self {
            cfg,
            gw_cfg,
            vfs,
            server: Some(server),
            clients,
            c2s: (0..SENSORS).map(|_| VecDeque::new()).collect(),
            s2c: (0..SENSORS).map(|_| VecDeque::new()).collect(),
            trackers: (0..SENSORS).map(|_| SeqTracker::default()).collect(),
            logged: Vec::new(),
            frames: Vec::new(),
            durable: 0,
            sync_cursor: None,
            timeouts_left: cfg.timeout_budget,
            resets_left: cfg.reset_budget,
            crashes_left: cfg.crash_budget,
            poisoned: false,
            trace: Vec::new(),
            transitions: 0,
        };
        for s in 0..SENSORS {
            ep.handshake(s)?;
        }
        Ok(ep)
    }

    fn serve(cfg: &SpaceCfg, collector: Collector) -> StepServer {
        let mut server = StepServer::new(collector, CREDITS, cfg.discipline);
        if cfg.mutation == Some(RestoreMutation::CommitBeforeSync) {
            server.commit_restore_unsynced();
        }
        server
    }

    fn server_mut(&mut self) -> &mut StepServer {
        // Only Crash takes the server out, and it puts a new one back
        // before returning.
        self.server.as_mut().expect("server alive")
    }

    fn handshake(&mut self, s: usize) -> Result<(), EpisodeError> {
        let server = self.server.as_mut().expect("server alive");
        let conn = server.connect();
        server.feed(
            conn,
            &encode_frame(&Message::Hello {
                version: PROTOCOL_VERSION,
                epoch: 0,
            }),
        );
        let event = server
            .step(conn)
            .map_err(|e| harness_err(format!("handshake step failed: {e}")))?;
        match event {
            StepEvent::Replies(replies) => match replies.as_slice() {
                [(c, Message::HelloAck { credits, .. })] if *c == conn => {
                    self.clients[s].conn = conn;
                    self.clients[s].credits = *credits;
                    Ok(())
                }
                other => Err(harness_err(format!(
                    "handshake: unexpected replies {other:?}"
                ))),
            },
            other => Err(harness_err(format!(
                "handshake: unexpected event {other:?}"
            ))),
        }
    }

    /// Enabled actions in deterministic priority order; index 0 is the
    /// past-budget default, so draining (acks, wires, sends) comes
    /// before the adversarial moves. In the restore space the syncer's
    /// work comes before even that: left alone, every batch's restore
    /// point is committed and landed before the next batch is sent.
    fn enabled(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.cfg.restore {
            self.push_syncer_actions(&mut actions);
        }
        for s in 0..SENSORS {
            if !self.s2c[s].is_empty() {
                actions.push(Action::DeliverAck(s));
            }
        }
        for s in 0..SENSORS {
            if !self.c2s[s].is_empty() {
                actions.push(Action::Deliver(s));
            }
        }
        for (s, client) in self.clients.iter().enumerate() {
            if !client.gave_up
                && !client.to_send.is_empty()
                && (client.inflight.len() as u32) < client.credits
            {
                actions.push(Action::Send(s));
            }
        }
        let server = self.server.as_ref().expect("server alive");
        if !server.pending_acks().is_empty() && !self.poisoned {
            actions.push(Action::Commit);
        }
        if !self.cfg.restore {
            self.push_syncer_actions(&mut actions);
        }
        if self.timeouts_left > 0 {
            for (s, client) in self.clients.iter().enumerate() {
                if !client.inflight.is_empty() {
                    actions.push(Action::Timeout(s));
                }
            }
        }
        if self.resets_left > 0 {
            for (s, client) in self.clients.iter().enumerate() {
                if !client.inflight.is_empty() || !self.c2s[s].is_empty() || !self.s2c[s].is_empty()
                {
                    actions.push(Action::Reset(s));
                }
            }
        }
        if self.crashes_left > 0
            && (server.collector().unsynced_records() > 0 || server.restore_step_ready().is_some())
        {
            actions.push(Action::Crash);
        }
        actions
    }

    /// The syncer thread's schedule points: the sync in flight
    /// completes or the next one starts, and the dispatched restore
    /// point takes its next step.
    fn push_syncer_actions(&self, actions: &mut Vec<Action>) {
        let server = self.server.as_ref().expect("server alive");
        if server.restore_step_ready().is_some() {
            actions.push(Action::RestoreStep);
        }
        if server.sync_in_flight() {
            actions.push(Action::SyncComplete);
        } else if (server.collector().unsynced_records() > 0 || server.collector().sync_due())
            && !matches!(
                server.restore_step_ready(),
                Some(RestoreStep::Write | RestoreStep::Rename)
            )
            && !self.poisoned
        {
            actions.push(Action::SyncStart);
        }
    }

    fn sensor_of_conn(&self, conn: usize) -> Option<usize> {
        self.clients.iter().position(|c| c.conn == conn)
    }

    /// Multiset difference: entries of `prev` absent from `now` (the
    /// released acks) and entries of `now` absent from `prev` (the
    /// newly queued acks).
    fn pending_diff(prev: &[QueuedAck], now: &[QueuedAck]) -> (Vec<QueuedAck>, Vec<QueuedAck>) {
        let mut released: Vec<QueuedAck> = prev.to_vec();
        let mut added: Vec<QueuedAck> = Vec::new();
        for qa in now {
            if let Some(i) = released.iter().position(|p| p == qa) {
                released.remove(i);
            } else {
                added.push(*qa);
            }
        }
        (released, added)
    }

    /// I2/I5 on every released ack, I3 on every newly queued ack.
    ///
    /// Releases are audited from the emitted replies, not the queue
    /// diff: an ack queued and released inside the same step (the
    /// eager-mutation path, or a duplicate-only batch after a commit)
    /// never shows up in the pending queue at all.
    fn audit_pending(
        &mut self,
        prev: &[QueuedAck],
        replies: &[(usize, Message)],
        context: &str,
    ) -> Result<(), EpisodeError> {
        let server = self.server.as_ref().expect("server alive");
        let claimed = server.collector().synced_cursor();
        let synced = self.durable as u64;
        if claimed > synced {
            return Err((
                "I2 ack-durability",
                format!(
                    "{context}: the WAL's synced cursor is {claimed} but completed fsyncs cover only {synced} record(s)"
                ),
            ));
        }
        let now = server.pending_acks().to_vec();
        let (mut released, added) = Self::pending_diff(prev, &now);
        for (conn, msg) in replies {
            let Message::AckUpTo { sensor, seq } = msg else {
                continue;
            };
            let cursor = match released
                .iter()
                .position(|p| p.conn == *conn && p.sensor == *sensor && p.seq == *seq)
            {
                Some(i) => released.remove(i).cursor,
                // Queued and released within this very step: its
                // cursor is the wal cursor at queue time, which is the
                // records now logged (cross-checked by I3 below).
                None => self.logged.len() as u64,
            };
            if self.poisoned {
                return Err((
                    "I5 poisoned-never-acks",
                    format!(
                        "{context}: released AckUpTo({sensor}, seq {seq}) after the WAL was poisoned"
                    ),
                ));
            }
            if cursor > synced {
                return Err((
                    "I2 ack-durability",
                    format!(
                        "{context}: released AckUpTo({sensor}, seq {seq}) with wal cursor {cursor} > synced cursor {synced} — acked data is not yet durable"
                    ),
                ));
            }
        }
        if !released.is_empty() {
            return Err(harness_err(format!(
                "{context}: {} queued ack(s) vanished without being written: {released:?}",
                released.len()
            )));
        }
        for qa in &added {
            let s = qa.sensor.0 as usize;
            let want_seq = self.trackers[s].watermark();
            if want_seq != Some(qa.seq) {
                return Err((
                    "I3 ack-coherence",
                    format!(
                        "{context}: queued AckUpTo({}, seq {}) but the mirror SeqTracker watermark is {want_seq:?}",
                        qa.sensor, qa.seq
                    ),
                ));
            }
            let want_cursor = self.logged.len() as u64;
            if qa.cursor != want_cursor {
                return Err((
                    "I3 ack-coherence",
                    format!(
                        "{context}: queued ack for {} carries wal cursor {} but the mirror log holds {want_cursor} records",
                        qa.sensor, qa.cursor
                    ),
                ));
            }
        }
        Ok(())
    }

    fn route_replies(&mut self, replies: Vec<(usize, Message)>) -> Result<(), EpisodeError> {
        for (conn, msg) in replies {
            match self.sensor_of_conn(conn) {
                Some(s) => self.s2c[s].push_back(msg),
                None => {
                    // A reply addressed to a dead connection is lost
                    // on the floor, exactly as a closed socket.
                }
            }
        }
        Ok(())
    }

    fn apply(&mut self, action: Action, ch: &mut Chooser<'_>) -> Result<(), EpisodeError> {
        match action {
            Action::Send(s) => self.do_send(s),
            Action::Deliver(s) => self.do_deliver(s),
            Action::DeliverAck(s) => self.do_deliver_ack(s),
            Action::Commit => self.do_commit(),
            Action::SyncStart => self.do_sync_start(),
            Action::SyncComplete => self.do_sync_complete(),
            Action::RestoreStep => self.do_restore_step(),
            Action::Timeout(s) => self.do_timeout(s),
            Action::Reset(s) => self.do_reset(s),
            Action::Crash => self.do_crash(ch),
        }
    }

    fn do_send(&mut self, s: usize) -> Result<(), EpisodeError> {
        let client = &mut self.clients[s];
        let batch = client.to_send.pop_front().expect("send enabled");
        client.inflight.push_back(batch.clone());
        if client.inflight.len() as u32 > client.credits {
            return Err((
                "I1 credit",
                format!(
                    "sensor{s}: {} batches in flight exceeds the granted window of {}",
                    client.inflight.len(),
                    client.credits
                ),
            ));
        }
        self.trace.push(format!(
            "send sensor{s} seqs {}..={}",
            batch.first_seq,
            batch.last_seq()
        ));
        self.c2s[s].push_back(batch);
        Ok(())
    }

    /// Closes the mirror's open run — the readings just below `end` —
    /// as one frame, sized by the wire codec.
    fn log_frame(&mut self, sensor: SensorId, end: u64, run: &mut Vec<(u64, Vec<f64>)>) {
        let first_seq = end - run.len() as u64;
        let message = match run.len() {
            0 => return,
            1 => {
                let (time, values) = run.remove(0);
                Message::Data {
                    sensor,
                    seq: first_seq,
                    time,
                    values,
                }
            }
            _ => Message::DataBatch {
                sensor,
                first_seq,
                readings: std::mem::take(run),
            },
        };
        let records = (end - first_seq) as usize;
        self.frames
            .push((records, encode_frame(&message).len() as u64));
    }

    fn do_deliver(&mut self, s: usize) -> Result<(), EpisodeError> {
        let batch = self.c2s[s].pop_front().expect("deliver enabled");
        let sensor = self.clients[s].sensor;
        let logged_before = self.logged.len();
        // Advance the mirror spec exactly as deliver_batch will: each
        // unseen seq is appended then observed, and each run of unseen
        // consecutive seqs is logged as the one frame the wire codec
        // gives it; the poisoned WAL appends nothing.
        if !self.poisoned {
            let mut run: Vec<(u64, Vec<f64>)> = Vec::new();
            for (i, reading) in batch.readings.iter().enumerate() {
                let seq = batch.first_seq + i as u64;
                if self.trackers[s].is_new(seq) {
                    self.trackers[s].observe(seq);
                    self.logged.push((sensor.0, seq));
                    run.push(reading.clone());
                    continue;
                }
                self.log_frame(sensor, seq, &mut run);
            }
            self.log_frame(
                sensor,
                batch.first_seq + batch.readings.len() as u64,
                &mut run,
            );
        }
        let conn = self.clients[s].conn;
        let bytes = encode_frame(&Message::DataBatch {
            sensor,
            first_seq: batch.first_seq,
            readings: batch.readings.clone(),
        });
        let prev = self.server_mut().pending_acks().to_vec();
        let fsyncs = self.vfs.op_count(VfsOp::Fsync);
        let before = self.disk_before_reclaim();
        self.server_mut().feed(conn, &bytes);
        let event = self
            .server_mut()
            .step(conn)
            .map_err(|e| harness_err(format!("deliver step failed: {e}")))?;
        if self.vfs.op_count(VfsOp::Fsync) > fsyncs {
            // A segment seal or a budget tick: either fsync ran before
            // the step's one frame was appended and covers the rest.
            self.durable = self.durable.max(logged_before);
        }
        if let Some((segments, checkpoint)) = before {
            let now = self.segments_on_disk();
            if segments.iter().any(|name| !now.contains(name)) {
                return self.crash_inside_reclaim(checkpoint);
            }
        }
        let replies = match event {
            StepEvent::Replies(replies) => replies,
            other => {
                return Err(harness_err(format!(
                    "deliver sensor{s}: unexpected event {other:?}"
                )))
            }
        };
        self.trace.push(format!(
            "deliver sensor{s} seqs {}..={} -> {}",
            batch.first_seq,
            batch.last_seq(),
            summarize(&replies)
        ));
        self.audit_pending(&prev, &replies, &format!("deliver sensor{s}"))?;
        self.route_replies(replies)
    }

    fn do_deliver_ack(&mut self, s: usize) -> Result<(), EpisodeError> {
        let msg = self.s2c[s].pop_front().expect("deliver-ack enabled");
        match msg {
            Message::AckUpTo { sensor, seq } => {
                if sensor.0 as usize != s {
                    return Err(harness_err(format!(
                        "sensor{s} received an ack for {sensor}"
                    )));
                }
                let client = &mut self.clients[s];
                client.acked = Some(client.acked.map_or(seq, |a| a.max(seq)));
                while client.inflight.front().is_some_and(|b| b.last_seq() <= seq) {
                    client.inflight.pop_front();
                }
                self.trace.push(format!("sensor{s} takes AckUpTo {seq}"));
                Ok(())
            }
            Message::Nack { seq, .. } => {
                if !self.cfg.poison {
                    return Err(harness_err(format!(
                        "sensor{s} NACKed at seq {seq} in a space without storage faults"
                    )));
                }
                let client = &mut self.clients[s];
                // Everything from the refused batch on is unacked:
                // requeue it in order ahead of the unsent tail.
                let mut requeued = 0usize;
                while client.inflight.back().is_some_and(|b| b.last_seq() >= seq) {
                    let mut batch = client.inflight.pop_back().expect("non-empty");
                    batch.nacks += 1;
                    if batch.nacks >= 2 {
                        client.gave_up = true;
                    }
                    client.to_send.push_front(batch);
                    requeued += 1;
                }
                if client.gave_up {
                    client.to_send.clear();
                    client.inflight.clear();
                    self.trace
                        .push(format!("sensor{s} takes Nack {seq}; gives up"));
                } else {
                    self.trace.push(format!(
                        "sensor{s} takes Nack {seq}; requeued {requeued} batch(es)"
                    ));
                }
                Ok(())
            }
            other => Err(harness_err(format!(
                "sensor{s}: unexpected server message {other:?}"
            ))),
        }
    }

    fn do_commit(&mut self) -> Result<(), EpisodeError> {
        let prev = self.server_mut().pending_acks().to_vec();
        let replies = self
            .server_mut()
            .commit()
            .map_err(|e| harness_err(format!("commit failed: {e}")))?;
        let server = self.server.as_ref().expect("server alive");
        let storage_error = server.collector().storage_status().error.is_some();
        let synced = server.collector().synced_cursor();
        if storage_error && !self.poisoned {
            // The failed fsync made nothing new durable, so any ack
            // this commit emitted trips I5 in the audit below.
            self.poisoned = true;
            self.trace.push(format!(
                "commit: fsync failed, wal poisoned (synced={synced})"
            ));
        } else {
            // The inline fsync ran after every append so far.
            self.durable = self.logged.len();
            self.trace.push(format!(
                "commit: synced cursor -> {synced}, released {}",
                summarize(&replies)
            ));
        }
        self.audit_pending(&prev, &replies, "commit")?;
        if !self.poisoned && !self.server_mut().pending_acks().is_empty() {
            return Err(harness_err(
                "commit left queued acks behind on a healthy wal".into(),
            ));
        }
        self.route_replies(replies)
    }

    fn do_sync_start(&mut self) -> Result<(), EpisodeError> {
        if !self.server_mut().start_sync() {
            return Err(harness_err(
                "sync-start enabled but the wal refused to start a sync".into(),
            ));
        }
        if !self.server_mut().sync_in_flight() {
            self.trace
                .push("sync-start: a restore point alone, its cursor already covered".into());
            return Ok(());
        }
        self.sync_cursor = Some(self.logged.len());
        self.trace.push(format!(
            "sync-start: will cover {} record(s)",
            self.logged.len()
        ));
        Ok(())
    }

    fn do_restore_step(&mut self) -> Result<(), EpisodeError> {
        let step = self.server_mut().restore_step_ready();
        self.server_mut().step_restore();
        let cursor = self.server_mut().collector().checkpoint_cursor();
        self.trace.push(format!(
            "restore-step: {} (advertised cursor {cursor})",
            match step {
                Some(RestoreStep::Write) => "checkpoint.tmp written",
                Some(RestoreStep::Rename) => "renamed over checkpoint.ck",
                Some(RestoreStep::Land) => "landed",
                None => return Err(harness_err("restore-step enabled with none ready".into())),
            }
        ));
        if step != Some(RestoreStep::Rename) {
            return Ok(());
        }
        // Just renamed: the restore point on disk must not reference a
        // record no completed fsync covers — a crash now could lose it.
        let text = std::fs::read_to_string(self.gw_cfg.wal.dir.join("checkpoint.ck"))
            .map_err(|e| harness_err(format!("reading the renamed checkpoint failed: {e}")))?;
        let renamed: Option<usize> = text
            .lines()
            .nth(1)
            .and_then(|line| line.strip_prefix("cursor ")?.parse().ok());
        match renamed {
            Some(at) if at <= self.durable => Ok(()),
            Some(at) => Err((
                "I6 restore-durability",
                format!(
                    "renamed a restore point at cursor {at} while completed fsyncs cover only {} record(s)",
                    self.durable
                ),
            )),
            None => Err(harness_err("checkpoint.ck has no cursor line".into())),
        }
    }

    /// The `wal-*.seg` files on disk, sorted.
    fn segments_on_disk(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.gw_cfg.wal.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".seg"))
            .collect();
        names.sort();
        names
    }

    /// Under [`RestoreMutation::DeleteBeforeRename`], the segments and
    /// the `checkpoint.ck` bytes a step is about to start from.
    fn disk_before_reclaim(&self) -> Option<(Vec<String>, Option<Vec<u8>>)> {
        (self.cfg.mutation == Some(RestoreMutation::DeleteBeforeRename)).then(|| {
            let checkpoint = std::fs::read(self.gw_cfg.wal.dir.join("checkpoint.ck")).ok();
            (self.segments_on_disk(), checkpoint)
        })
    }

    /// The mutant's crash: the step just taken deleted segments, and a
    /// delete-before-rename implementation dies right there — with
    /// `checkpoint.ck` still as it was before the step.
    fn crash_inside_reclaim(&mut self, checkpoint: Option<Vec<u8>>) -> Result<(), EpisodeError> {
        drop(self.server.take());
        let path = self.gw_cfg.wal.dir.join("checkpoint.ck");
        let restored = match checkpoint {
            Some(bytes) => std::fs::write(&path, bytes),
            None => std::fs::remove_file(&path),
        };
        restored.map_err(|e| harness_err(format!("rolling checkpoint.ck back failed: {e}")))?;
        self.trace.push(
            "crash: inside the reclaim, segments deleted, checkpoint.ck not yet renamed".into(),
        );
        match Collector::open(self.gw_cfg.clone()) {
            Err(e) => Err(("I6 restore-durability", format!("reopen failed: {e}"))),
            Ok(_) => Err(harness_err(
                "the delete-before-rename crash state reopened cleanly".into(),
            )),
        }
    }

    fn do_sync_complete(&mut self) -> Result<(), EpisodeError> {
        let cursor = self.sync_cursor.take().expect("sync-complete enabled");
        let prev = self.server_mut().pending_acks().to_vec();
        let replies = self.server_mut().complete_sync();
        let server = self.server.as_ref().expect("server alive");
        let storage_error = server.collector().storage_status().error.is_some();
        if storage_error && !self.poisoned {
            self.poisoned = true;
            self.trace
                .push("sync-complete: fsync failed, wal poisoned".into());
        } else if self.poisoned {
            // An inline commit failed while this sync was in flight:
            // the log is fail-stop and this outcome changes nothing.
            self.trace
                .push("sync-complete: wal already poisoned".into());
        } else {
            // The fsync covers what was logged when it *started*.
            self.durable = self.durable.max(cursor);
            self.trace.push(format!(
                "sync-complete: covers {cursor} record(s), released {}",
                summarize(&replies)
            ));
        }
        self.audit_pending(&prev, &replies, "sync-complete")?;
        self.route_replies(replies)
    }

    fn do_timeout(&mut self, s: usize) -> Result<(), EpisodeError> {
        self.timeouts_left -= 1;
        let batch = self.clients[s]
            .inflight
            .front()
            .expect("timeout enabled")
            .clone();
        self.trace.push(format!(
            "timeout sensor{s}: retransmit seqs {}..={}",
            batch.first_seq,
            batch.last_seq()
        ));
        self.c2s[s].push_back(batch);
        Ok(())
    }

    fn do_reset(&mut self, s: usize) -> Result<(), EpisodeError> {
        self.resets_left -= 1;
        let lost_c2s = self.c2s[s].len();
        let lost_s2c = self.s2c[s].len();
        self.c2s[s].clear();
        self.s2c[s].clear();
        let conn = self.clients[s].conn;
        // Queued acks for this connection are purged, not released —
        // that is the server's Closed-event semantics, not an I2 event.
        self.server_mut().disconnect(conn);
        let client = &mut self.clients[s];
        let requeued = client.inflight.len();
        while let Some(batch) = client.inflight.pop_back() {
            client.to_send.push_front(batch);
        }
        self.trace.push(format!(
            "reset sensor{s}: lost {lost_c2s} inbound + {lost_s2c} outbound frame(s), requeued {requeued} batch(es)"
        ));
        self.handshake(s)
    }

    fn do_crash(&mut self, ch: &mut Chooser<'_>) -> Result<(), EpisodeError> {
        self.crashes_left -= 1;
        // The sync in flight dies with the process: whatever part of
        // it reached the disk is one of the truncation points below.
        drop(self.server.take());
        self.sync_cursor = None;
        let synced = self.durable;
        let total = self.logged.len();
        // Only the active segment can lose bytes — a seal fsyncs the
        // segment it closes — so the unsynced frames are its tail.
        let active = self
            .segments_on_disk()
            .pop()
            .map(|name| self.gw_cfg.wal.dir.join(name))
            .ok_or_else(|| harness_err("crash: no wal segment on disk".into()))?;
        let active_len = std::fs::metadata(&active)
            .map_err(|e| harness_err(format!("crash: stat of the active segment failed: {e}")))?
            .len();
        let logged_bytes: u64 = self.frames.iter().map(|&(_, len)| len).sum();
        // Candidate truncation points: the fsync watermark itself,
        // every later frame boundary, a torn tear inside each unsynced
        // frame, and "nothing lost" (all appends reached the platter
        // before the power cut). `(byte offset in the active segment,
        // records that survive, torn)`; a tear leaves what the frames
        // before it hold.
        let mut candidates: Vec<(u64, usize, bool)> = Vec::new();
        let (mut offset, mut records) = (active_len.wrapping_sub(logged_bytes), 0usize);
        for &(held, len) in &self.frames {
            if records >= synced {
                candidates.push((offset, records, false));
                candidates.push((offset + len / 2, records, true));
            } else if records + held > synced {
                return Err((
                    "I4 crash-durability",
                    format!(
                        "the fsync watermark {synced} falls inside the frame holding records {records}..{}: a tear there would lose covered data",
                        records + held
                    ),
                ));
            }
            offset = offset.wrapping_add(len);
            records += held;
        }
        candidates.push((offset, total, false));
        let (offset, survivors, torn) = candidates[ch.pick(candidates.len())];
        if offset > active_len {
            return Err(harness_err(format!(
                "crash: unsynced frames reach back past the active segment ({offset} of {active_len} bytes)"
            )));
        }
        // A restore point killed between its tmp write and its rename
        // leaves the tmp file behind — or not, if the directory entry
        // never reached the disk.
        let tmp = self.gw_cfg.wal.dir.join("checkpoint.tmp");
        if tmp.exists() && ch.pick(2) == 1 {
            std::fs::remove_file(&tmp)
                .map_err(|e| harness_err(format!("crash: dropping checkpoint.tmp failed: {e}")))?;
            self.trace.push("crash: checkpoint.tmp is lost".into());
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&active)
            .map_err(|e| harness_err(format!("crash truncation open failed: {e}")))?;
        file.set_len(offset)
            .map_err(|e| harness_err(format!("crash truncation failed: {e}")))?;
        drop(file);
        self.trace.push(format!(
            "crash: truncate wal to {offset} bytes ({survivors} of {total} records survive{})",
            if torn { ", torn tail" } else { "" }
        ));
        // The process died: wires and the mirror's unsurvived suffix
        // are gone; clients will retransmit everything unacked.
        self.logged.truncate(survivors);
        let mut kept = 0;
        self.frames.retain(|&(held, _)| {
            kept += held;
            kept <= survivors
        });
        // Everything recovery reads back counts as covered.
        self.durable = survivors;
        self.trackers = (0..SENSORS).map(|_| SeqTracker::default()).collect();
        for &(sid, seq) in &self.logged {
            self.trackers[sid as usize].observe(seq);
        }
        for s in 0..SENSORS {
            self.c2s[s].clear();
            self.s2c[s].clear();
        }
        let (collector, recovery) = Collector::open(self.gw_cfg.clone()).map_err(|e| {
            (
                if self.cfg.restore {
                    "I6 restore-durability"
                } else {
                    "I4 crash-durability"
                },
                format!("recovery after truncation to {offset} bytes failed: {e}"),
            )
        })?;
        if self.cfg.restore {
            self.audit_restored(&collector)?;
        } else if recovery.replayed != survivors as u64 {
            return Err((
                "I4 crash-durability",
                format!(
                    "replay recovered {} records but the frames that survived the crash whole hold {survivors}",
                    recovery.replayed
                ),
            ));
        }
        if collector.synced_cursor() != survivors as u64 {
            return Err((
                "I4 crash-durability",
                format!(
                    "reopened synced cursor {} != {survivors} recovered records",
                    collector.synced_cursor()
                ),
            ));
        }
        self.trace
            .push(format!("recover: replayed {} record(s)", recovery.replayed));
        self.server = Some(Self::serve(self.cfg, collector));
        for s in 0..SENSORS {
            // Nothing a client was acked may have fallen out of the log.
            if let Some(acked) = self.clients[s].acked {
                let watermark = self.trackers[s].watermark();
                if watermark.is_none_or(|w| w < acked) {
                    return Err((
                        "I4 crash-durability",
                        format!(
                            "sensor{s} was acked up to {acked} but replay only recovered through {watermark:?}"
                        ),
                    ));
                }
            }
            let client = &mut self.clients[s];
            while let Some(batch) = client.inflight.pop_back() {
                client.to_send.push_front(batch);
            }
            self.handshake(s)?;
        }
        Ok(())
    }

    /// I6: a collector reopened over a reclaimed log holds exactly the
    /// mirror log — as many records, and for every sensor the same set
    /// of seen sequence numbers (so nothing is lost, and nothing is
    /// logged twice: the count is the sum of the sets).
    fn audit_restored(&self, collector: &Collector) -> Result<(), EpisodeError> {
        if collector.wal_records() != self.logged.len() as u64 {
            return Err((
                "I6 restore-durability",
                format!(
                    "the reopened collector counts {} records, the mirror log holds {}",
                    collector.wal_records(),
                    self.logged.len()
                ),
            ));
        }
        let seqs = collector.snapshot().seqs;
        for (s, tracker) in self.trackers.iter().enumerate() {
            let restored = seqs.iter().find(|(sensor, ..)| sensor.0 as usize == s);
            for seq in 0..TOTAL_SEQS {
                let seen =
                    restored.is_some_and(|(_, next, above)| seq < *next || above.contains(&seq));
                if seen == tracker.is_new(seq) {
                    return Err((
                        "I6 restore-durability",
                        format!(
                            "sensor{s} seq {seq}: the reopened collector has {}seen it, the mirror log says otherwise",
                            if seen { "" } else { "not " }
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// End-of-episode checks once no action is enabled.
    fn finish(&mut self) -> Result<(), EpisodeError> {
        let fault_free = !self.cfg.poison;
        if fault_free {
            for (s, client) in self.clients.iter().enumerate() {
                if client.gave_up {
                    return Err((
                        "completion",
                        format!("sensor{s} gave up without a storage fault"),
                    ));
                }
                if client.acked != Some(TOTAL_SEQS - 1) {
                    return Err((
                        "completion",
                        format!(
                            "quiescent but sensor{s} is only acked through {:?} (want {})",
                            client.acked,
                            TOTAL_SEQS - 1
                        ),
                    ));
                }
                if !client.inflight.is_empty() || !client.to_send.is_empty() {
                    return Err((
                        "completion",
                        format!(
                            "quiescent but sensor{s} still holds {} in flight / {} unsent",
                            client.inflight.len(),
                            client.to_send.len()
                        ),
                    ));
                }
            }
        } else if self.poisoned {
            let server = self.server.as_ref().expect("server alive");
            if server.collector().storage_status().error.is_none() {
                return Err(harness_err(
                    "poison flag set but the collector reports healthy storage".into(),
                ));
            }
        }
        drop(self.server.take());
        if self.cfg.restore {
            // Retention has reclaimed the log's prefix: the oracle is
            // the collector a reopen rebuilds.
            let (collector, _) = Collector::open(self.gw_cfg.clone())
                .map_err(|e| ("I6 restore-durability", format!("final reopen failed: {e}")))?;
            return self.audit_restored(&collector);
        }
        // Final oracle: reopen the real log from disk and compare it
        // record-for-record against the mirror.
        let (wal, records) = Wal::open(self.gw_cfg.wal.clone(), None)
            .map_err(|e| harness_err(format!("final wal reopen failed: {e}")))?;
        drop(wal);
        let on_disk: Vec<(u16, u64)> = records.iter().map(|r| (r.sensor.0, r.seq)).collect();
        if on_disk != self.logged {
            return Err((
                "I4 crash-durability",
                format!(
                    "on-disk log {:?} diverged from the mirror {:?}",
                    on_disk, self.logged
                ),
            ));
        }
        let mut seen = BTreeSet::new();
        for key in &on_disk {
            if !seen.insert(*key) {
                return Err((
                    "I4 crash-durability",
                    format!("(sensor{}, seq {}) logged twice", key.0, key.1),
                ));
            }
        }
        if fault_free && on_disk.len() as u64 != SENSORS as u64 * TOTAL_SEQS {
            return Err((
                "completion",
                format!(
                    "final log holds {} records, want {}",
                    on_disk.len(),
                    SENSORS as u64 * TOTAL_SEQS
                ),
            ));
        }
        Ok(())
    }

    fn run(&mut self, ch: &mut Chooser<'_>) -> Result<(), EpisodeError> {
        loop {
            let actions = self.enabled();
            if actions.is_empty() {
                return Ok(());
            }
            let action = actions[ch.pick(actions.len())];
            self.transitions += 1;
            self.apply(action, ch)?;
        }
    }
}

fn summarize(replies: &[(usize, Message)]) -> String {
    if replies.is_empty() {
        return "[]".into();
    }
    let parts: Vec<String> = replies
        .iter()
        .map(|(conn, msg)| match msg {
            Message::AckUpTo { sensor, seq } => format!("AckUpTo({sensor},{seq})@{conn}"),
            Message::Nack { sensor, seq } => format!("Nack({sensor},{seq})@{conn}"),
            other => format!("{other:?}@{conn}"),
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

fn scratch_dir(tag: &str, space: &str) -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    let base = if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    };
    base.join(format!(
        "sentinet-protocheck-{}-{tag}-{space}",
        std::process::id()
    ))
}

fn explore_space(cfg: &SpaceCfg, tag: &str) -> Result<SpaceReport, Box<Violation>> {
    let mut report = SpaceReport::default();
    for &skip in cfg.windows {
        explore_window(cfg, tag, skip, &mut report)?;
    }
    Ok(report)
}

fn explore_window(
    cfg: &SpaceCfg,
    tag: &str,
    skip: usize,
    report: &mut SpaceReport,
) -> Result<(), Box<Violation>> {
    let dir = scratch_dir(tag, cfg.name);
    let mut schedule = Schedule::new();
    let result = loop {
        let episode = Episode::new(cfg, &dir);
        let outcome = match episode {
            Ok(mut ep) => {
                let mut ch = Chooser {
                    schedule: &mut schedule,
                    skip,
                    budget: cfg.choice_budget,
                    used: 0,
                };
                let run = ep.run(&mut ch);
                report.transitions += ep.transitions;
                match run.and_then(|()| ep.finish()) {
                    Ok(()) => Ok(()),
                    Err(e) => Err((e, ep.trace)),
                }
            }
            Err(e) => Err((e, Vec::new())),
        };
        report.episodes += 1;
        if let Err(((invariant, detail), trace)) = outcome {
            break Err(Box::new(Violation {
                space: cfg.name,
                invariant,
                detail,
                choices: schedule.choices().to_vec(),
                trace,
            }));
        }
        if !schedule.advance() {
            break Ok(());
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn spaces(scale: Scale) -> Vec<SpaceCfg> {
    let (interleave, reconnect, crash, poison) = match scale {
        Scale::Quick => (3, 3, 3, 3),
        Scale::Full => (6, 5, 5, 5),
    };
    vec![
        SpaceCfg {
            name: "interleave",
            choice_budget: interleave,
            windows: &[0],
            timeout_budget: 1,
            reset_budget: 0,
            crash_budget: 0,
            poison: false,
            restore: false,
            mutation: None,
            discipline: AckDiscipline::Durable,
        },
        SpaceCfg {
            name: "reconnect",
            choice_budget: reconnect,
            windows: &[0],
            timeout_budget: 0,
            reset_budget: 1,
            crash_budget: 0,
            poison: false,
            restore: false,
            mutation: None,
            discipline: AckDiscipline::Durable,
        },
        SpaceCfg {
            name: "crash",
            choice_budget: crash,
            windows: &[0],
            timeout_budget: 0,
            reset_budget: 0,
            crash_budget: 1,
            poison: false,
            restore: false,
            mutation: None,
            discipline: AckDiscipline::Durable,
        },
        SpaceCfg {
            name: "poison",
            choice_budget: poison,
            windows: &[0],
            timeout_budget: 0,
            reset_budget: 0,
            crash_budget: 0,
            poison: true,
            restore: false,
            mutation: None,
            discipline: AckDiscipline::Durable,
        },
        restore_space("restore", scale, None),
    ]
}

fn restore_space(name: &'static str, scale: Scale, mutation: Option<RestoreMutation>) -> SpaceCfg {
    SpaceCfg {
        name,
        choice_budget: match scale {
            Scale::Quick => 3,
            Scale::Full => 5,
        },
        // The job's steps run first by default (see `enabled`), so the
        // unexplored prefix of each window is a stream whose every
        // batch has had its restore point landed; the windows slide
        // over it, overlapping, to put a crash, a batch, a reconnect
        // and a commit between every two steps of every job.
        windows: match scale {
            Scale::Quick => &[0, 4],
            Scale::Full => &[0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39],
        },
        timeout_budget: 0,
        reset_budget: 1,
        crash_budget: 1,
        poison: false,
        restore: true,
        mutation,
        discipline: AckDiscipline::Durable,
    }
}

/// Explores every sub-space under the shipped (durable) ack
/// discipline.
///
/// # Errors
///
/// The first [`Violation`] found, with its full counterexample trace.
pub fn check(scale: Scale) -> Result<ProtocolReport, Box<Violation>> {
    let mut report = ProtocolReport::default();
    for cfg in spaces(scale) {
        let space = explore_space(&cfg, "durable")?;
        report.spaces.push((cfg.name, space));
    }
    Ok(report)
}

/// Mutation self-test: re-explores the interleave space with a
/// deliberately broken `discipline` — [`AckDiscipline::Eager`] (ack
/// released before the covering fsync) or [`AckDiscipline::LateCapture`]
/// (an overlapped fsync credited with the cursor read after it
/// returned). The checker MUST catch each — a clean pass here means
/// the checker itself is broken.
///
/// # Errors
///
/// The expected outcome: the I2 violation with its trace.
pub fn check_mutation(
    scale: Scale,
    discipline: AckDiscipline,
) -> Result<ProtocolReport, Box<Violation>> {
    let cfg = SpaceCfg {
        name: match discipline {
            AckDiscipline::Eager => "interleave-eager",
            AckDiscipline::LateCapture => "interleave-late-capture",
            AckDiscipline::Durable => "interleave",
        },
        choice_budget: match scale {
            Scale::Quick => 3,
            Scale::Full => 6,
        },
        windows: &[0],
        timeout_budget: 1,
        reset_budget: 0,
        crash_budget: 0,
        poison: false,
        restore: false,
        mutation: None,
        discipline,
    };
    explore_alone(&cfg)
}

/// Mutation self-test of I6: re-explores the restore space under a
/// deliberately broken restore-point order. The checker MUST catch
/// each.
///
/// # Errors
///
/// The expected outcome: the I6 violation with its trace.
pub fn check_restore_mutation(
    scale: Scale,
    mutation: RestoreMutation,
) -> Result<ProtocolReport, Box<Violation>> {
    let name = match mutation {
        RestoreMutation::CommitBeforeSync => "restore-commit-before-sync",
        RestoreMutation::DeleteBeforeRename => "restore-delete-before-rename",
    };
    explore_alone(&restore_space(name, scale, Some(mutation)))
}

fn explore_alone(cfg: &SpaceCfg) -> Result<ProtocolReport, Box<Violation>> {
    let mut report = ProtocolReport::default();
    let space = explore_space(cfg, cfg.name)?;
    report.spaces.push((cfg.name, space));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_discipline_passes_quick_exploration() {
        let report = match check(Scale::Quick) {
            Ok(report) => report,
            Err(v) => panic!("unexpected violation:\n{v}"),
        };
        assert_eq!(report.spaces.len(), 5);
        assert!(
            report.episodes() > 50,
            "quick exploration too shallow: {} episodes",
            report.episodes()
        );
        for (name, space) in &report.spaces {
            assert!(space.episodes > 0, "space {name} explored nothing");
        }
    }

    /// The violation `discipline` must produce, with its trace.
    fn caught(scale: Scale, discipline: AckDiscipline) -> Box<Violation> {
        let v = match check_mutation(scale, discipline) {
            Ok(report) => panic!(
                "checker failed to catch the {discipline:?} mutation across {} episodes",
                report.episodes()
            ),
            Err(v) => v,
        };
        assert_eq!(v.invariant, "I2 ack-durability");
        assert!(!v.trace.is_empty(), "violation carries no trace");
        let rendered = v.to_string();
        assert!(
            rendered.contains("counterexample trace"),
            "display must include the replayable trace:\n{rendered}"
        );
        v
    }

    #[test]
    fn eager_ack_mutation_is_caught_with_a_trace() {
        caught(Scale::Quick, AckDiscipline::Eager);
    }

    #[test]
    fn both_restore_point_mutations_trip_i6() {
        for mutation in [
            RestoreMutation::CommitBeforeSync,
            RestoreMutation::DeleteBeforeRename,
        ] {
            let v = match check_restore_mutation(Scale::Quick, mutation) {
                Ok(report) => panic!(
                    "checker failed to catch {mutation:?} across {} episodes",
                    report.episodes()
                ),
                Err(v) => v,
            };
            assert_eq!(v.invariant, "I6 restore-durability", "{v}");
        }
    }

    #[test]
    fn late_capture_mutation_is_caught_with_a_trace() {
        // A batch must be admitted between a sync's start and its
        // completion: six scheduled choices deep, so the full budget.
        let v = caught(Scale::Full, AckDiscipline::LateCapture);
        let at = |prefix: &str| v.trace.iter().position(|l| l.starts_with(prefix));
        let started = at("sync-start").expect("a sync started");
        assert!(
            v.trace[started..].iter().any(|l| l.starts_with("deliver")),
            "no batch admitted while the sync was in flight:\n{v}"
        );
        assert_eq!(at("sync-complete"), Some(v.trace.len() - 1), "{v}");
    }
}
