//! The federation engine: routes readings per-partition, watches
//! liveness on the stream clock, and commits every partition-map
//! transition. This file is the map's single commit path — the
//! `partition-map-mutation` lint rejects `commit_owner` /
//! `commit_health` calls anywhere else in library code.
//!
//! Failure model, mirroring the gateway's fail-stop discipline:
//!
//! - A link error or a storage-NACK streak marks the partition
//!   `Suspect` and fences the link. Readings keep routing; they
//!   buffer in the partition's routed log.
//! - The controller clock is the maximum routed stream time (every
//!   record advances it, whoever owns it), so a partition with no
//!   live peers still ages. Once a suspect partition's last-acked
//!   time trails the clock by more than the silence deadline it is
//!   declared `Dead` and failover begins.
//! - Failover starts a standby at the next epoch on the dead owner's
//!   WAL directory: `Collector::open` restores the checkpoint-v2
//!   snapshot and replays the WAL tail through the identical
//!   admission path. The controller then redelivers its whole routed
//!   log for the partition; WAL-append-gated dedup absorbs the
//!   durable prefix and appends only the lost tail, in routed order —
//!   which is what makes the merged report byte-identical to an
//!   uninterrupted run.
//! - When every attempt (capped exponential backoff) fails, the
//!   partition is committed `Orphaned`: its readings NACK and are
//!   counted, never silently dropped.

use crate::partition::{PartitionHealth, PartitionId, PartitionMap, SensorRange};
use crate::report::{FederationEvent, FleetReport, PartitionStatus, ReportCounters};
use sentinet_gateway::{Collector, UplinkStats};
use sentinet_gateway::{GatewayConfig, GatewayReport, RecoveryInfo};
use sentinet_sim::{SensorId, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// A link to a partition's owner died (connection loss, exhausted
/// retries, drilled kill …). The partition turns `Suspect`.
#[derive(Debug)]
pub struct LinkDown(pub String);

impl fmt::Display for LinkDown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A backend operation (start, finish, merge) failed.
#[derive(Debug)]
pub struct BackendError(pub String);

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// What a link did with one reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkReply {
    /// Durably admitted (the in-process link's deliver).
    Acked,
    /// Accepted into a pipelined window; durable only after the next
    /// successful [`PartitionLink::flush`].
    Pipelined,
    /// The collector refused it (storage poisoned or budget shed) —
    /// fail-stop NACK, counted by the caller.
    Nacked,
}

/// One uplink to one partition's owning collector.
pub trait PartitionLink {
    /// Delivers one reading under the controller-assigned sequence
    /// number.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable.
    fn send(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<LinkReply, LinkDown>;

    /// Drains any pipelined window; on success everything previously
    /// [`LinkReply::Pipelined`] is durable.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable.
    fn flush(&mut self) -> Result<(), LinkDown>;

    /// Wire counters accumulated by this link (zeros for in-process
    /// links, which have no wire).
    fn stats(&self) -> UplinkStats {
        UplinkStats::default()
    }

    /// Source half of a live range migration (`MigrateOffer` →
    /// `MigrateAccept` on the wire): the owner durably retires
    /// `start..end`, stages the split-off snapshot, and returns the
    /// cut's WAL cursor with the encoded snapshot payload. Safe to
    /// retry — an interrupted cut resumes from its staged outbox.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable or the cut cannot
    /// be made durable.
    fn migrate_cut(&mut self, start: u16, end: u16) -> Result<(u64, Vec<u8>), LinkDown>;

    /// Destination half of a live range migration (`MigrateAccept` →
    /// `MigrateDone` on the wire): the owner durably adopts the
    /// shipped snapshot for `start..end` at the source's cut
    /// `cursor`.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable or the adoption
    /// cannot be made durable.
    fn migrate_adopt(
        &mut self,
        start: u16,
        end: u16,
        cursor: u64,
        snapshot: &[u8],
    ) -> Result<(), LinkDown>;

    /// Tells the source its shipped payload is durably adopted, so
    /// the staged outbox copy may be dropped (`MigrateDone` on the
    /// wire). Best-effort: a leftover outbox is inert.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable.
    fn migrate_done(&mut self, start: u16, end: u16, cursor: u64) -> Result<(), LinkDown>;
}

/// Starts, fences, closes and merges partition owners. Implementations
/// decide what a "collector" is — an in-process [`Collector`]
/// (`InProcessBackend`) or a spawned `sentinet serve` child
/// (`ProcessBackend`).
pub trait PartitionBackend {
    /// The link type this backend hands out.
    type Link: PartitionLink;

    /// Starts (epoch 1) or adopts (epoch > 1) the owner of `p`.
    /// Adoption opens the dead owner's WAL directory, restoring its
    /// checkpoint snapshot and replaying the tail.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when no owner/standby can start.
    fn start(&mut self, p: PartitionId, epoch: u64) -> Result<Self::Link, BackendError>;

    /// Forcibly retires a link whose owner is presumed dead or
    /// wedged. Must be idempotent with the owner already gone.
    fn fence(&mut self, p: PartitionId, link: Self::Link);

    /// Gracefully closes a healthy owner.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the close handshake fails (the data is
    /// already durable; callers record the event and move on).
    fn finish(&mut self, p: PartitionId, link: Self::Link) -> Result<(), BackendError>;

    /// Rebuilds `p`'s final report by replaying its WAL through the
    /// identical admission path.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the replay fails.
    fn merge_report(&mut self, p: PartitionId) -> Result<GatewayReport, BackendError>;
}

/// First handoff retry delay; each further retry doubles it, up to
/// [`BACKOFF_CAP`]. Both stay small: drills compress time.
const BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Handoff retry delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Consecutive storage NACKs before a partition turns suspect.
const STORAGE_STRIKES: u32 = 3;

/// Federation tuning.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Declare a suspect partition dead once its last-acked stream
    /// time trails the controller clock by more than this (stream
    /// seconds — one sensor sampling period is 300).
    pub silence_deadline: Timestamp,
    /// Flush pipelined links every N routed readings per partition.
    pub flush_every: usize,
    /// Suspicion hysteresis: consecutive missed deliveries (link
    /// errors) before `Ok → Suspect` commits. 1 (the default, and the
    /// pre-hysteresis behaviour) suspects on the first miss; higher
    /// values let a single torn connection or delay spike heal in
    /// place — the recovery is counted as a flap, not a failover.
    pub suspect_after: u32,
    /// Attempts at each handoff step (a standby start, a migration cut
    /// or adopt) before the partition orphans or the migration aborts.
    pub handoff_attempts: u32,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            silence_deadline: 3600,
            flush_every: 32,
            suspect_after: 1,
            handoff_attempts: 4,
        }
    }
}

/// A federation-level failure (routing or merging — owner failures
/// are handled, not returned).
#[derive(Debug)]
pub enum FederationError {
    /// A reading's sensor falls outside every partition range.
    Unroutable {
        /// The offending sensor.
        sensor: SensorId,
    },
    /// An initial (epoch 1) owner could not start.
    Bootstrap {
        /// The partition.
        partition: PartitionId,
        /// The backend's complaint.
        detail: String,
    },
    /// A partition's WAL replay failed during the final merge.
    Merge {
        /// The partition.
        partition: PartitionId,
        /// The backend's complaint.
        detail: String,
    },
    /// A migration schedule is ill-formed (mid-flight failures are
    /// absorbed into events, never returned).
    Migration {
        /// The source partition.
        partition: PartitionId,
        /// What is wrong with the schedule.
        detail: String,
    },
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::Unroutable { sensor } => {
                write!(f, "sensor {sensor} falls outside every partition range")
            }
            FederationError::Bootstrap { partition, detail } => {
                write!(f, "partition {partition} failed to start: {detail}")
            }
            FederationError::Merge { partition, detail } => {
                write!(f, "partition {partition} failed to merge: {detail}")
            }
            FederationError::Migration { partition, detail } => {
                write!(f, "partition {partition} migration schedule: {detail}")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// Replays the WAL in `dir` through the identical admission path and
/// returns the rebuilt report — the shared merge primitive for every
/// backend. Checkpointing is disabled (offline replay must not
/// rewrite the log) and storage faults/budgets are cleared: the merge
/// reads what the owners wrote, it does not re-run their chaos.
///
/// # Errors
///
/// [`BackendError`] when the WAL cannot be opened or replayed.
pub fn replay_report(
    template: &GatewayConfig,
    dir: &Path,
) -> Result<(GatewayReport, RecoveryInfo), BackendError> {
    let mut config = template.clone();
    config.wal = sentinet_gateway::WalConfig::new(dir);
    config.wal.segment_max_bytes = template.wal.segment_max_bytes;
    config.checkpoint_every = 0;
    let (collector, info) = Collector::open(config).map_err(|e| BackendError(e.to_string()))?;
    let report = collector
        .finish()
        .map_err(|e| BackendError(e.to_string()))?;
    Ok((report, info))
}

/// Adds a retired link's wire counters to its partition's total across
/// every epoch.
fn add_wire(total: &mut UplinkStats, s: UplinkStats) {
    total.frames_sent += s.frames_sent;
    total.retransmits += s.retransmits;
    total.timeouts += s.timeouts;
    total.nacks += s.nacks;
    total.reconnects += s.reconnects;
    total.acked += s.acked;
}

/// What a scheduled live migration moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigrationKind {
    /// Split the source's range at `at`: the source keeps
    /// `[start, at)`, a new partition appended to the map adopts
    /// `[at, end)` on a fresh collector.
    Split {
        /// The split point (strictly inside the source's range).
        at: SensorId,
    },
    /// Move the source's whole range into its adjacent partition's
    /// live collector (the left neighbour when one exists, else the
    /// right). The source ends the run owning an empty range.
    Rebalance,
}

/// One scheduled migration, armed until the source's routed count
/// reaches its trigger coordinate. Triggering on the routed count —
/// not wall time or ack progress — is what keeps the cut coordinate
/// fault-independent: a drilled and an uninterrupted run cut at the
/// identical stream position, so their diagnoses stay byte-identical.
#[derive(Debug, Clone)]
struct PendingMigration {
    source: PartitionId,
    kind: MigrationKind,
    after_routed: usize,
}

/// A sensor range on the move between two partitions.
#[derive(Debug, Clone, Copy)]
struct RangeMove {
    source: PartitionId,
    dest: PartitionId,
    range: SensorRange,
}

/// One reading in a partition's routed log, with its controller-
/// assigned per-sensor sequence number (a property of the log, never
/// reassigned across epochs — redelivery replays the same numbers).
#[derive(Debug, Clone)]
struct Routed {
    sensor: SensorId,
    seq: u64,
    time: Timestamp,
    values: Vec<f64>,
}

struct PartitionState<L> {
    link: Option<L>,
    routed: Vec<Routed>,
    /// Next routed index to hand to the link.
    sent: usize,
    /// Routed prefix known durable on the owner.
    acked: usize,
    /// Pipelined-but-unflushed readings on the current link.
    unflushed: usize,
    /// Next per-sensor sequence number for new routed readings.
    seq_next: BTreeMap<SensorId, u64>,
    /// Stream time of the last durable reading.
    progress: Option<Timestamp>,
    strikes: u32,
    /// Consecutive missed deliveries short of the suspicion threshold.
    miss_streak: u32,
    /// Miss streaks that healed in place before reaching the
    /// threshold (suspicion hysteresis absorbed them).
    flaps: u32,
    orphan_nacks: u64,
    failovers: u32,
    redelivered: u64,
    /// Wire counters of every epoch's retired link.
    wire: UplinkStats,
}

impl<L: PartitionLink> PartitionState<L> {
    fn new() -> Self {
        Self {
            link: None,
            routed: Vec::new(),
            sent: 0,
            acked: 0,
            unflushed: 0,
            seq_next: BTreeMap::new(),
            progress: None,
            strikes: 0,
            miss_streak: 0,
            flaps: 0,
            orphan_nacks: 0,
            failovers: 0,
            redelivered: 0,
            wire: UplinkStats::default(),
        }
    }

    /// Drains the link's pipelined window, if anything sent is still
    /// unflushed; on success everything sent is durable.
    fn flush(&mut self) -> Result<(), String> {
        if self.acked < self.sent {
            if let Some(link) = self.link.as_mut() {
                link.flush().map_err(|e| e.to_string())?;
                self.acked = self.sent;
                self.unflushed = 0;
                self.progress = Some(self.routed[self.acked - 1].time);
            }
        }
        Ok(())
    }

    /// The link delivered again: a miss streak short of the suspicion
    /// threshold healed in place — a flap, not a failover.
    fn heal(&mut self) {
        if self.miss_streak > 0 {
            self.miss_streak = 0;
            self.flaps += 1;
        }
    }
}

/// The controller: partition map + per-partition state + backend.
pub struct Federation<B: PartitionBackend> {
    map: PartitionMap,
    config: FederationConfig,
    backend: B,
    states: Vec<PartitionState<B::Link>>,
    /// Max routed stream time — the liveness clock.
    clock: Timestamp,
    events: Vec<FederationEvent>,
    /// Scheduled migrations not yet triggered.
    pending_migrations: Vec<PendingMigration>,
    migrations_started: u64,
    migrations_completed: u64,
    migrations_aborted: u64,
}

impl<B: PartitionBackend> Federation<B> {
    /// Starts every partition's epoch-1 owner.
    ///
    /// # Errors
    ///
    /// [`FederationError::Bootstrap`] when any initial owner refuses
    /// to start (bootstrap is not retried — there is nothing to fail
    /// over *from* yet).
    pub fn new(
        map: PartitionMap,
        config: FederationConfig,
        backend: B,
    ) -> Result<Self, FederationError> {
        let mut fed = Self {
            map,
            config,
            backend,
            states: Vec::new(),
            clock: 0,
            events: Vec::new(),
            pending_migrations: Vec::new(),
            migrations_started: 0,
            migrations_completed: 0,
            migrations_aborted: 0,
        };
        for p in 0..fed.map.len() {
            let link = fed
                .backend
                .start(p, 1)
                .map_err(|e| FederationError::Bootstrap {
                    partition: p,
                    detail: e.to_string(),
                })?;
            fed.map.commit_owner(p, 1);
            let mut state = PartitionState::new();
            state.link = Some(link);
            fed.states.push(state);
        }
        Ok(fed)
    }

    /// The current liveness clock (max routed stream time).
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Read access to the backend (drills inspect adoption
    /// [`RecoveryInfo`] through this).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The current health of partition `p`.
    pub fn health(&self, p: PartitionId) -> PartitionHealth {
        self.map.health(p)
    }

    /// The federation event log so far.
    pub fn events(&self) -> &[FederationEvent] {
        &self.events
    }

    /// Routes one reading to its partition's owner. Readings for
    /// suspect partitions buffer (redelivery covers them after
    /// failover); readings for orphaned partitions NACK and are
    /// counted.
    ///
    /// # Errors
    ///
    /// [`FederationError::Unroutable`] when no partition owns the
    /// sensor. Owner failures are absorbed into the health machine,
    /// never returned.
    pub fn route(
        &mut self,
        sensor: SensorId,
        time: Timestamp,
        values: &[f64],
    ) -> Result<(), FederationError> {
        self.clock = self.clock.max(time);
        let p = self
            .map
            .partition_of(sensor)
            .ok_or(FederationError::Unroutable { sensor })?;
        let state = &mut self.states[p];
        let seq = {
            let next = state.seq_next.entry(sensor).or_insert(0);
            let seq = *next;
            *next += 1;
            seq
        };
        state.routed.push(Routed {
            sensor,
            seq,
            time,
            values: values.to_vec(),
        });
        match self.map.health(p) {
            PartitionHealth::Ok => match self.drive(p) {
                Err(reason) => self.miss(p, reason),
                Ok(()) => self.states[p].heal(),
            },
            PartitionHealth::Orphaned => self.states[p].orphan_nacks += 1,
            // Suspect readings buffer; Dead/HandingOff never outlive
            // the failover call that commits them.
            _ => {}
        }
        self.maybe_migrate();
        self.check_liveness();
        Ok(())
    }

    /// Schedules a split of partition `p` at `at`, triggered once `p`
    /// has routed `after_routed` readings. The migration itself runs
    /// synchronously inside [`Federation::route`] — the stream holds
    /// while the sub-range quiesces, the cut ships and the new owner
    /// adopts — so the cut always lands at the same stream coordinate
    /// whatever faults an episode injects.
    ///
    /// # Errors
    ///
    /// [`FederationError::Migration`] when `p` does not exist or `at`
    /// is not strictly inside `p`'s current range.
    pub fn schedule_split(
        &mut self,
        p: PartitionId,
        at: SensorId,
        after_routed: usize,
    ) -> Result<(), FederationError> {
        if p >= self.map.len() {
            return Err(FederationError::Migration {
                partition: p,
                detail: format!("no such partition (map holds {})", self.map.len()),
            });
        }
        let range = self.map.range(p);
        if at.0 <= range.start || at.0 >= range.end {
            return Err(FederationError::Migration {
                partition: p,
                detail: format!("split point {at} not strictly inside {range}"),
            });
        }
        self.pending_migrations.push(PendingMigration {
            source: p,
            kind: MigrationKind::Split { at },
            after_routed,
        });
        Ok(())
    }

    /// Schedules a whole-range move of partition `p` into its adjacent
    /// partition, triggered once `p` has routed `after_routed`
    /// readings. `p` may not exist yet — a schedule may name a
    /// partition a scheduled split will create — so validation happens
    /// at trigger time (an unresolvable move aborts with an event,
    /// never an error).
    pub fn schedule_rebalance(&mut self, p: PartitionId, after_routed: usize) {
        self.pending_migrations.push(PendingMigration {
            source: p,
            kind: MigrationKind::Rebalance,
            after_routed,
        });
    }

    /// Migration totals so far: `(started, completed, aborted)`.
    pub fn migration_totals(&self) -> (u64, u64, u64) {
        (
            self.migrations_started,
            self.migrations_completed,
            self.migrations_aborted,
        )
    }

    /// Fires every scheduled migration whose source has reached its
    /// trigger coordinate. Loops so a migration that grows the map can
    /// arm another schedule in the same route call.
    fn maybe_migrate(&mut self) {
        loop {
            let Some(i) = self.pending_migrations.iter().position(|m| {
                m.source < self.states.len() && self.states[m.source].routed.len() >= m.after_routed
            }) else {
                return;
            };
            let m = self.pending_migrations.remove(i);
            match m.kind {
                MigrationKind::Split { at } => self.run_split(m.source, at),
                MigrationKind::Rebalance => self.run_rebalance(m.source),
            }
        }
    }

    /// Delivers the routed backlog of `p` over its current link.
    /// Returns `Err(reason)` on link loss or a NACK streak; NACK
    /// stalls short of the streak threshold return `Ok` and retry on
    /// the next route.
    fn drive(&mut self, p: PartitionId) -> Result<(), String> {
        let flush_every = self.config.flush_every.max(1);
        let state = &mut self.states[p];
        // The link is borrowed afresh for every reading: a pipelined
        // window that fills is flushed through `PartitionState::flush`,
        // which needs the whole state.
        loop {
            let Some(link) = state.link.as_mut() else {
                return Err("no link to a partition marked ok".into());
            };
            let Some(r) = state.routed.get(state.sent) else {
                return Ok(());
            };
            match link.send(r.sensor, r.seq, r.time, &r.values) {
                Ok(LinkReply::Acked) => {
                    state.sent += 1;
                    state.acked = state.sent;
                    state.progress = Some(r.time);
                    state.strikes = 0;
                }
                Ok(LinkReply::Pipelined) => {
                    state.sent += 1;
                    state.unflushed += 1;
                    state.strikes = 0;
                    if state.unflushed >= flush_every {
                        state.flush()?;
                    }
                }
                Ok(LinkReply::Nacked) => {
                    state.strikes += 1;
                    if state.strikes >= STORAGE_STRIKES {
                        return Err(format!(
                            "storage NACK streak ({} consecutive)",
                            state.strikes
                        ));
                    }
                    // Leave the reading queued; the next route retries
                    // and the streak either clears or trips.
                    return Ok(());
                }
                Err(down) => return Err(down.to_string()),
            }
        }
    }

    /// Records one missed delivery on `p`: commits `Ok → Suspect`
    /// only once [`FederationConfig::suspect_after`] consecutive
    /// misses accumulate (hysteresis — a single torn connection no
    /// longer triggers fencing churn).
    fn miss(&mut self, p: PartitionId, reason: String) {
        let threshold = self.config.suspect_after.max(1);
        let state = &mut self.states[p];
        state.miss_streak += 1;
        if state.miss_streak >= threshold {
            state.miss_streak = 0;
            self.suspect(p, reason);
        }
    }

    /// Retires `p`'s link: anything it pipelined but never flushed is
    /// no longer known durable, its wire counters join the partition's
    /// total, and the backend fences it.
    fn retire_link(&mut self, p: PartitionId) {
        let state = &mut self.states[p];
        state.sent = state.acked;
        state.unflushed = 0;
        if let Some(link) = state.link.take() {
            add_wire(&mut state.wire, link.stats());
            self.backend.fence(p, link);
        }
    }

    /// Commits `Ok → Suspect` and retires the link.
    fn suspect(&mut self, p: PartitionId, reason: String) {
        if self.map.health(p) != PartitionHealth::Ok {
            return;
        }
        self.map.commit_health(p, PartitionHealth::Suspect);
        self.events.push(FederationEvent::Suspect {
            partition: p,
            at: self.clock,
            reason,
        });
        self.retire_link(p);
    }

    /// Declares `p` dead, with its last durable time on the record,
    /// and fails it over.
    fn declare_dead(&mut self, p: PartitionId) {
        self.events.push(FederationEvent::Dead {
            partition: p,
            at: self.clock,
            last_acked: self.states[p].progress,
            deadline: self.config.silence_deadline,
        });
        self.map.commit_health(p, PartitionHealth::Dead);
        self.failover(p);
    }

    /// Declares suspect partitions dead once the clock outruns their
    /// progress by more than the silence deadline.
    fn check_liveness(&mut self) {
        for p in 0..self.map.len() {
            if self.map.health(p) != PartitionHealth::Suspect {
                continue;
            }
            let last = self.states[p].progress;
            let silent_for = self.clock.saturating_sub(last.unwrap_or(0));
            if silent_for > self.config.silence_deadline {
                self.declare_dead(p);
            }
        }
    }

    /// One rung of a start ladder: the capped exponential backoff
    /// before every retry, the `HandoffAttempt` record, then the
    /// backend start of `p` at `epoch`. `None` when the start failed.
    fn start_rung(&mut self, p: PartitionId, attempt: u32, epoch: u64) -> Option<B::Link> {
        if attempt > 1 {
            let doubled = BACKOFF_BASE.saturating_mul(1 << (attempt - 2).min(20));
            std::thread::sleep(doubled.min(BACKOFF_CAP));
        }
        self.events.push(FederationEvent::HandoffAttempt {
            partition: p,
            attempt,
            epoch,
        });
        self.backend.start(p, epoch).ok()
    }

    /// Commits `p` `Orphaned` after `attempts` failed handoff attempts,
    /// with `nacked` unacked readings NACKed on the spot.
    fn orphan(&mut self, p: PartitionId, attempts: u32, nacked: u64) {
        self.map.commit_health(p, PartitionHealth::Orphaned);
        self.events.push(FederationEvent::Orphaned {
            partition: p,
            at: self.clock,
            attempts,
            nacked,
        });
    }

    /// Adopts partition `p` on a standby: `Dead → HandingOff`, then
    /// climb the start ladder one epoch past the committed owner,
    /// redelivering the whole routed log on each adopted link (dedup
    /// absorbs the durable prefix). Exhaustion commits `Orphaned`.
    fn failover(&mut self, p: PartitionId) {
        self.map.commit_health(p, PartitionHealth::HandingOff);
        let attempts = self.config.handoff_attempts.max(1);
        for attempt in 1..=attempts {
            let epoch = self.map.epoch(p) + 1;
            let Some(link) = self.start_rung(p, attempt, epoch) else {
                continue;
            };
            self.map.commit_owner(p, epoch);
            let state = &mut self.states[p];
            state.link = Some(link);
            state.sent = 0;
            state.acked = 0;
            state.unflushed = 0;
            state.strikes = 0;
            let backlog = state.routed.len() as u64;
            if self.drive(p).is_ok() {
                let state = &mut self.states[p];
                state.redelivered += backlog;
                state.failovers += 1;
                self.map.commit_health(p, PartitionHealth::Ok);
                self.events.push(FederationEvent::FailedOver {
                    partition: p,
                    at: self.clock,
                    epoch,
                    redelivered: backlog,
                });
                return;
            }
            let state = &mut self.states[p];
            state.redelivered += state.sent as u64;
            self.retire_link(p);
        }
        let state = &mut self.states[p];
        let unacked = (state.routed.len() - state.acked) as u64;
        state.orphan_nacks += unacked;
        self.orphan(p, attempts, unacked);
    }

    /// Settles partition `p` until its whole routed log is durably
    /// acked, driving faults through the ordinary suspect → dead →
    /// failover ladder (`stall_reason` labels a NACK stall with no
    /// more routes coming). Returns whether `p` ended healthy with
    /// nothing outstanding; `false` means it orphaned (or a failover
    /// left it terminal).
    fn settle(&mut self, p: PartitionId, stall_reason: &str) -> bool {
        // Each loop iteration either returns or commits a health
        // transition; Orphaned is terminal, so this terminates after
        // at most a handful of failovers.
        loop {
            match self.map.health(p) {
                PartitionHealth::Ok => {
                    // Drive, then drain any pipelined window so the
                    // whole backlog is durable.
                    if let Err(reason) = self.drive(p).and_then(|()| self.states[p].flush()) {
                        // Hysteresis applies here too: the loop
                        // re-drives until the streak either heals or
                        // trips the threshold, so `miss` cannot stall.
                        self.miss(p, reason);
                        continue;
                    }
                    if self.states[p].acked < self.states[p].routed.len() {
                        // A NACK stall with no more routes coming:
                        // settle it through the failover machine.
                        self.miss(p, stall_reason.to_string());
                        continue;
                    }
                    self.states[p].heal();
                    return true;
                }
                PartitionHealth::Suspect => self.declare_dead(p),
                PartitionHealth::Orphaned => return false,
                // failover() never returns in these states.
                PartitionHealth::Dead | PartitionHealth::HandingOff => return false,
            }
        }
    }

    /// Retires `p`'s current link and drives a fresh failover — the
    /// in-migration recovery step when a cut or adopt call dies under
    /// an injected fault. Returns whether `p` came back `Ok`.
    fn revive(&mut self, p: PartitionId) -> bool {
        self.retire_link(p);
        self.declare_dead(p);
        self.map.health(p) == PartitionHealth::Ok
    }

    /// Drives the source-side cut for `range` on partition `p`,
    /// reviving `p` through the failover machine between attempts
    /// (`export_range` resumes an interrupted cut idempotently, so a
    /// crash mid-cut retries to the identical staged payload). `p` is
    /// committed `HandingOff` for the duration and back to `Ok` on
    /// success.
    fn cut_range(&mut self, p: PartitionId, range: SensorRange) -> Option<(u64, Vec<u8>)> {
        self.map.commit_health(p, PartitionHealth::HandingOff);
        for _ in 0..self.config.handoff_attempts.max(1) {
            let Some(link) = self.states[p].link.as_mut() else {
                break;
            };
            match link.migrate_cut(range.start, range.end) {
                Ok(staged) => {
                    self.map.commit_health(p, PartitionHealth::Ok);
                    return Some(staged);
                }
                Err(_) => {
                    if !self.revive(p) {
                        return None;
                    }
                    // revive committed `Ok`; restate the handoff so
                    // the health history reads true while we retry.
                    self.map.commit_health(p, PartitionHealth::HandingOff);
                }
            }
        }
        // Exhausted with the source still alive: hand it back to
        // ordinary routing before the caller aborts the migration.
        if self.map.health(p) == PartitionHealth::HandingOff {
            self.map.commit_health(p, PartitionHealth::Ok);
        }
        None
    }

    /// Removes every routed reading of the moving range from the
    /// source's log, then cuts the range there. The drain that precedes
    /// every cut guarantees the removed entries are durably acked, and
    /// the cut retires the range on the source — leaving them in the
    /// log would make a later failover redeliver readings the source
    /// now NACKs as fenced, wedging the partition in a NACK-streak loop.
    ///
    /// The range's sequence counters go to the destination with a
    /// landed cut: a moved sensor's numbers continue where the source's
    /// stopped. A failed cut hands them back and records the abort.
    fn cut_over(&mut self, m: RangeMove) -> Option<(u64, Vec<u8>)> {
        let state = &mut self.states[m.source];
        state.routed.retain(|r| !m.range.contains(r.sensor));
        state.sent = state.routed.len();
        state.acked = state.routed.len();
        state.unflushed = 0;
        let mut moved = state.seq_next.split_off(&SensorId(m.range.start));
        state
            .seq_next
            .append(&mut moved.split_off(&SensorId(m.range.end)));
        let staged = self.cut_range(m.source, m.range);
        let owner = if staged.is_some() { m.dest } else { m.source };
        self.states[owner].seq_next.append(&mut moved);
        if staged.is_none() {
            self.abort_migration(m, "source exhausted every cut attempt");
        }
        staged
    }

    /// Counts and records a migration that did not complete.
    fn abort_migration(&mut self, m: RangeMove, reason: &str) {
        self.migrations_aborted += 1;
        self.events.push(FederationEvent::MigrationAborted {
            source: m.source,
            dest: m.dest,
            range: m.range,
            at: self.clock,
            reason: reason.into(),
        });
    }

    /// The abort past the durable cut: no destination adopted the
    /// payload, so `orphaned` — the partition holding the moved range
    /// — orphans first; its readings NACK and are counted.
    fn orphan_and_abort(&mut self, m: RangeMove, orphaned: PartitionId, attempts: u32) {
        self.orphan(orphaned, attempts, 0);
        self.abort_migration(m, "destination exhausted every adopt attempt after the cut");
    }

    /// Opens a migration: records `MigrationStarted`, then, if the
    /// range is `movable`, settles each partition in `drain`. Returns
    /// whether the cut may go ahead; if not, the abort is recorded with
    /// `why`.
    fn open_migration(
        &mut self,
        m: RangeMove,
        movable: bool,
        drain: &[PartitionId],
        why: &str,
    ) -> bool {
        self.events.push(FederationEvent::MigrationStarted {
            source: m.source,
            dest: m.dest,
            range: m.range,
            at: self.clock,
        });
        self.migrations_started += 1;
        let drained = movable
            && drain
                .iter()
                .all(|&q| self.settle(q, "unacked backlog at migration drain"));
        if !drained {
            self.abort_migration(m, why);
        }
        drained
    }

    /// Closes a committed migration: tells the source its staged
    /// outbox copy may go (best-effort — the destination holds the
    /// payload durably), then counts and records the completion.
    fn close_migration(&mut self, m: RangeMove, cursor: u64, epoch: u64) {
        if let Some(link) = self.states[m.source].link.as_mut() {
            let _ = link.migrate_done(m.range.start, m.range.end, cursor);
        }
        self.migrations_completed += 1;
        self.events.push(FederationEvent::MigrationCompleted {
            source: m.source,
            dest: m.dest,
            range: m.range,
            at: self.clock,
            cursor,
            epoch,
        });
    }

    /// Runs a triggered split migration: quiesce the moving sub-range
    /// on the source, cut a durable checkpoint-v2 snapshot at a WAL
    /// cursor, start a fresh collector for the new partition and ship
    /// the snapshot into it, committing the new owner epoch only once
    /// the adoption is durable. Failures before the durable cut roll
    /// back (the map transfer restores the source's range); failures
    /// after it roll forward or orphan the moved range — acked
    /// readings are never silently dropped either way.
    fn run_split(&mut self, p: PartitionId, at: SensorId) {
        let end = self.map.range(p).end;
        // `split_at` appends: the new partition's id is today's length.
        let m = RangeMove {
            source: p,
            dest: self.map.len(),
            range: SensorRange { start: at.0, end },
        };
        if !self.open_migration(m, true, &[p], "source could not drain its backlog") {
            return;
        }
        let q = match self.map.split_at(p, at) {
            Ok(q) => q,
            Err(e) => {
                self.abort_migration(m, &e.to_string());
                return;
            }
        };
        self.states.push(PartitionState::new());
        self.map.commit_health(q, PartitionHealth::HandingOff);
        let Some((cursor, snapshot)) = self.cut_over(m) else {
            // Pre-adopt abort: give the range back to the source.
            // If a cut attempt partially committed before the source
            // orphaned, the range NACKs there — counted, never silent.
            // sentinet-allow(unwrap-used): q was split off p above,
            // so the halves are adjacent by construction.
            self.map.transfer(q, p).unwrap();
            self.map.commit_health(q, PartitionHealth::Ok);
            return;
        };
        // Fresh-destination ladder: attempt k starts the new owner at
        // epoch k, so a half-adopted attempt can never race its
        // successor for the new partition's WAL directory.
        let attempts = self.config.handoff_attempts.max(1);
        let adopted = (1..=attempts).find_map(|attempt| {
            let epoch = u64::from(attempt);
            let mut link = self.start_rung(q, attempt, epoch)?;
            match link.migrate_adopt(at.0, end, cursor, &snapshot) {
                Ok(()) => Some((link, epoch)),
                Err(_) => {
                    self.backend.fence(q, link);
                    None
                }
            }
        });
        let Some((link, epoch)) = adopted else {
            // Roll-forward failed past the durable cut: the moved
            // range orphans — its readings NACK and are counted.
            self.orphan_and_abort(m, q, attempts);
            return;
        };
        self.map.commit_owner(q, epoch);
        self.states[q].link = Some(link);
        self.map.commit_health(q, PartitionHealth::Ok);
        self.close_migration(m, cursor, epoch);
    }

    /// Runs a triggered rebalance migration: move the source's whole
    /// range into its adjacent partition's live collector. Both sides
    /// drain first, the cut ships through the same durable outbox as
    /// a split, and the destination merges the snapshot into its live
    /// lineage (`import_range` under the adopt call). The source ends
    /// the run owning an empty range.
    fn run_rebalance(&mut self, p: PartitionId) {
        let range = self.map.range(p);
        // The left-adjacent partition when one exists, else the right
        // — deterministic, so every run picks the same destination.
        let dest = (0..self.map.len())
            .find(|&d| d != p && self.map.range(d).end == range.start)
            .or_else(|| {
                (0..self.map.len()).find(|&d| d != p && self.map.range(d).start == range.end)
            });
        let m = RangeMove {
            source: p,
            dest: dest.unwrap_or(p), // no neighbour: the abort names p twice
            range,
        };
        let Some(d) = dest else {
            self.abort_migration(m, "no adjacent partition to rebalance into");
            return;
        };
        let why = "source or destination could not drain its backlog";
        if !self.open_migration(m, !range.is_empty(), &[p, d], why) {
            return;
        }
        let Some((cursor, snapshot)) = self.cut_over(m) else {
            return;
        };
        // Live-destination ladder: the adopt merges into d's running
        // collector; a failure revives d through the ordinary
        // failover machine (escalating its epoch) and retries.
        let attempts = self.config.handoff_attempts.max(1);
        let mut adopted = false;
        for _ in 0..attempts {
            if self.map.health(d) != PartitionHealth::Ok {
                break;
            }
            let Some(link) = self.states[d].link.as_mut() else {
                break;
            };
            match link.migrate_adopt(range.start, range.end, cursor, &snapshot) {
                Ok(()) => {
                    adopted = true;
                    break;
                }
                Err(_) => {
                    if !self.revive(d) {
                        break;
                    }
                }
            }
        }
        if !adopted {
            // Past the durable cut with no adopter: the moved range
            // orphans at the source — NACKed and counted, not lost
            // (the staged outbox still holds the payload).
            self.orphan_and_abort(m, p, attempts);
            return;
        }
        // sentinet-allow(unwrap-used): adjacency was how `d` was
        // chosen, and neither range moved since.
        self.map.transfer(p, d).unwrap();
        self.close_migration(m, cursor, self.map.epoch(d));
    }

    /// Ends the stream: settles every partition (draining backlogs,
    /// failing suspects over immediately — the stream clock has
    /// stopped, waiting on the deadline would wait forever), closes
    /// healthy owners, then merges every partition's WAL replay into
    /// the [`FleetReport`].
    ///
    /// # Errors
    ///
    /// [`FederationError::Merge`] when a partition's replay fails.
    pub fn finish(mut self) -> Result<FleetReport, FederationError> {
        for p in 0..self.map.len() {
            self.settle(p, "unacked backlog at end of stream");
            let state = &mut self.states[p];
            if let Some(link) = state.link.take() {
                add_wire(&mut state.wire, link.stats());
                if self.map.health(p) == PartitionHealth::Ok {
                    if let Err(e) = self.backend.finish(p, link) {
                        self.events.push(FederationEvent::FinishFailed {
                            partition: p,
                            detail: e.to_string(),
                        });
                    }
                } else {
                    self.backend.fence(p, link);
                }
            }
        }

        let mut partitions = Vec::with_capacity(self.map.len());
        let mut counters = ReportCounters::default();
        for p in 0..self.map.len() {
            let report = self
                .backend
                .merge_report(p)
                .map_err(|e| FederationError::Merge {
                    partition: p,
                    detail: e.to_string(),
                })?;
            let mut c = ReportCounters::from_report(&report);
            let wire = self.states[p].wire;
            c.frames_sent += wire.frames_sent;
            c.retransmits += wire.retransmits;
            c.timeouts += wire.timeouts;
            c.nacks += wire.nacks;
            c.reconnects += wire.reconnects;
            c.uplink_acked += wire.acked;
            let state = &self.states[p];
            c.flaps += u64::from(state.flaps);
            counters.merge(&c);
            partitions.push(PartitionStatus {
                partition: p,
                range: self.map.range(p),
                health: self.map.health(p),
                epoch: self.map.epoch(p),
                failovers: state.failovers,
                orphan_nacks: state.orphan_nacks,
                redelivered: state.redelivered,
                acked: state.acked as u64,
                routed: state.routed.len() as u64,
                flaps: state.flaps,
                report,
            });
        }
        counters.migrations_started = self.migrations_started;
        counters.migrations_completed = self.migrations_completed;
        counters.migrations_aborted = self.migrations_aborted;
        Ok(FleetReport {
            partitions,
            counters,
            events: self.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_partitions_wire_counters_sum_every_retired_link_field_by_field() {
        let link = |n| UplinkStats {
            frames_sent: n,
            retransmits: n + 1,
            timeouts: n + 2,
            nacks: n + 3,
            reconnects: n + 4,
            acked: n + 5,
        };
        let mut total = UplinkStats::default();
        add_wire(&mut total, link(10));
        add_wire(&mut total, link(100));
        assert_eq!(
            total,
            UplinkStats {
                frames_sent: 110,
                retransmits: 112,
                timeouts: 114,
                nacks: 116,
                reconnects: 118,
                acked: 120,
            }
        );
    }
}
