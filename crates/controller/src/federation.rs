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
use crate::report::{FederationEvent, FleetReport, PartitionStatus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_gateway::{backoff_delay, GatewayConfig, GatewayReport, RecoveryInfo};
use sentinet_gateway::{Collector, ReportCounters, UplinkStats};
use sentinet_sim::{SensorId, Timestamp};
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
    /// Durably admitted (v1 stop-and-wait, or in-process deliver).
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

    /// One liveness/pre-warm probe: the owner's committed fence epoch
    /// and last checkpointed WAL cursor, or `None` when the owner is
    /// unreachable (a missed beat, never an error). The default (no
    /// heartbeat channel) reports nothing.
    fn heartbeat(&mut self) -> Option<(u64, u64)> {
        None
    }

    /// Source half of a live range migration (`MigrateOffer` →
    /// `MigrateAccept` on the wire): the owner durably retires
    /// `start..end`, stages the split-off snapshot, and returns the
    /// cut's WAL cursor with the encoded snapshot payload. Safe to
    /// retry — an interrupted cut resumes from its staged outbox.
    /// The default has no migration channel.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable or the cut cannot
    /// be made durable.
    fn migrate_cut(&mut self, _start: u16, _end: u16) -> Result<(u64, Vec<u8>), LinkDown> {
        Err(LinkDown("link has no migration channel".into()))
    }

    /// Destination half of a live range migration (`MigrateAccept` →
    /// `MigrateDone` on the wire): the owner durably adopts the
    /// shipped snapshot for `start..end` at the source's cut
    /// `cursor`. The default has no migration channel.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable or the adoption
    /// cannot be made durable.
    fn migrate_adopt(
        &mut self,
        _start: u16,
        _end: u16,
        _cursor: u64,
        _snapshot: &[u8],
    ) -> Result<(), LinkDown> {
        Err(LinkDown("link has no migration channel".into()))
    }

    /// Tells the source its shipped payload is durably adopted, so
    /// the staged outbox copy may be dropped (`MigrateDone` on the
    /// wire). Best-effort: a leftover outbox is inert.
    ///
    /// # Errors
    ///
    /// [`LinkDown`] when the owner is unreachable.
    fn migrate_done(&mut self, _start: u16, _end: u16, _cursor: u64) -> Result<(), LinkDown> {
        Err(LinkDown("link has no migration channel".into()))
    }
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

    /// A heartbeat advertised `checkpoint_cursor` for `p`: stage the
    /// owner's latest checkpoint snapshot so a standby can adopt warm
    /// instead of cold. Default: no staging (adoption stays cold).
    fn prewarm(&mut self, _p: PartitionId, _checkpoint_cursor: u64) {}
}

/// Retry policy for standby adoption: capped exponential backoff with
/// optional seeded jitter (defaults keep it deterministic and fast —
/// drills compress time; production deployments raise the caps).
#[derive(Debug, Clone)]
pub struct HandoffPolicy {
    /// Adoption attempts before orphaning the partition.
    pub max_attempts: u32,
    /// First retry delay.
    pub backoff_base: Duration,
    /// Delay ceiling.
    pub backoff_cap: Duration,
    /// Jitter ceiling as a percentage of the delay (0 = none).
    pub jitter_pct: u32,
    /// Seed for the jitter RNG.
    pub jitter_seed: u64,
}

impl Default for HandoffPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            jitter_pct: 0,
            jitter_seed: 11,
        }
    }
}

/// Federation tuning.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Declare a suspect partition dead once its last-acked stream
    /// time trails the controller clock by more than this (stream
    /// seconds — one sensor sampling period is 300).
    pub silence_deadline: Timestamp,
    /// Consecutive storage NACKs before a partition turns suspect.
    pub storage_strikes: u32,
    /// Flush pipelined links every N routed readings per partition.
    pub flush_every: usize,
    /// Suspicion hysteresis: consecutive missed deliveries (link
    /// errors) before `Ok → Suspect` commits. 1 (the default, and the
    /// pre-hysteresis behaviour) suspects on the first miss; higher
    /// values let a single torn connection or delay spike heal in
    /// place — the recovery is counted as a flap, not a failover.
    pub suspect_after: u32,
    /// Drive the link's heartbeat channel every N routed readings per
    /// partition (0 disables). Each answered beat hands the owner's
    /// checkpoint cursor to [`PartitionBackend::prewarm`] so standbys
    /// stage the latest snapshot before any failover needs it.
    pub heartbeat_every: usize,
    /// Standby adoption retry policy.
    pub handoff: HandoffPolicy,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            silence_deadline: 3600,
            storage_strikes: 3,
            flush_every: 32,
            suspect_after: 1,
            heartbeat_every: 0,
            handoff: HandoffPolicy::default(),
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

/// Accumulated wire counters for one partition, across every epoch's
/// link.
#[derive(Debug, Default, Clone, Copy)]
struct WireTotals {
    frames_sent: u64,
    retransmits: u64,
    timeouts: u64,
    nacks: u64,
    reconnects: u64,
    acked: u64,
}

impl WireTotals {
    fn add(&mut self, s: UplinkStats) {
        self.frames_sent += s.frames_sent;
        self.retransmits += s.retransmits;
        self.timeouts += s.timeouts;
        self.nacks += s.nacks;
        self.reconnects += s.reconnects;
        self.acked += s.acked;
    }
}

/// What a scheduled live migration moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
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
    seq_next: std::collections::BTreeMap<SensorId, u64>,
    /// Stream time of the last durable reading.
    progress: Option<Timestamp>,
    strikes: u32,
    /// Consecutive missed deliveries short of the suspicion threshold.
    miss_streak: u32,
    /// Miss streaks that healed in place before reaching the
    /// threshold (suspicion hysteresis absorbed them).
    flaps: u32,
    /// Routed readings since the last heartbeat probe.
    since_heartbeat: usize,
    orphan_nacks: u64,
    failovers: u32,
    redelivered: u64,
    wire: WireTotals,
}

impl<L> PartitionState<L> {
    fn new() -> Self {
        Self {
            link: None,
            routed: Vec::new(),
            sent: 0,
            acked: 0,
            unflushed: 0,
            seq_next: std::collections::BTreeMap::new(),
            progress: None,
            strikes: 0,
            miss_streak: 0,
            flaps: 0,
            since_heartbeat: 0,
            orphan_nacks: 0,
            failovers: 0,
            redelivered: 0,
            wire: WireTotals::default(),
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
    rng: StdRng,
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
        let seed = config.handoff.jitter_seed;
        let mut fed = Self {
            map,
            config,
            backend,
            states: Vec::new(),
            clock: 0,
            events: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
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
            PartitionHealth::Ok => {
                if let Err(reason) = self.drive(p) {
                    self.miss(p, reason);
                } else {
                    let state = &mut self.states[p];
                    if state.miss_streak > 0 {
                        // The link healed short of the suspicion
                        // threshold: a flap, not a failover.
                        state.miss_streak = 0;
                        state.flaps += 1;
                    }
                    self.heartbeat(p);
                }
            }
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
        let strikes_cap = self.config.storage_strikes.max(1);
        let state = &mut self.states[p];
        let Some(link) = state.link.as_mut() else {
            return Err("no link to a partition marked ok".into());
        };
        while state.sent < state.routed.len() {
            let r = &state.routed[state.sent];
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
                        link.flush().map_err(|e| e.to_string())?;
                        state.acked = state.sent;
                        state.unflushed = 0;
                        state.progress = Some(state.routed[state.acked - 1].time);
                    }
                }
                Ok(LinkReply::Nacked) => {
                    state.strikes += 1;
                    if state.strikes >= strikes_cap {
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
        Ok(())
    }

    /// Like [`Self::drive`], then drains any pipelined window so the
    /// whole backlog is durable.
    fn drive_and_flush(&mut self, p: PartitionId) -> Result<(), String> {
        self.drive(p)?;
        let state = &mut self.states[p];
        if state.acked < state.sent {
            if let Some(link) = state.link.as_mut() {
                link.flush().map_err(|e| e.to_string())?;
                state.acked = state.sent;
                state.unflushed = 0;
                state.progress = Some(state.routed[state.acked - 1].time);
            }
        }
        Ok(())
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

    /// Drives the heartbeat cadence for `p`: every
    /// [`FederationConfig::heartbeat_every`] routed readings, probe
    /// the link and stage the advertised checkpoint cursor with the
    /// backend so standbys pre-warm before any failover needs them.
    fn heartbeat(&mut self, p: PartitionId) {
        let every = self.config.heartbeat_every;
        if every == 0 {
            return;
        }
        let state = &mut self.states[p];
        state.since_heartbeat += 1;
        if state.since_heartbeat < every {
            return;
        }
        state.since_heartbeat = 0;
        if let Some(link) = state.link.as_mut() {
            if let Some((_epoch, cursor)) = link.heartbeat() {
                self.backend.prewarm(p, cursor);
            }
        }
    }

    /// Commits `Ok → Suspect` and fences the link. Anything the link
    /// pipelined but never flushed is no longer known durable.
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
        let state = &mut self.states[p];
        state.sent = state.acked;
        state.unflushed = 0;
        if let Some(link) = state.link.take() {
            state.wire.add(link.stats());
            self.backend.fence(p, link);
        }
    }

    /// Declares suspect partitions dead once the clock outruns their
    /// progress by more than the silence deadline, and fails them
    /// over.
    fn check_liveness(&mut self) {
        for p in 0..self.map.len() {
            if self.map.health(p) != PartitionHealth::Suspect {
                continue;
            }
            let last = self.states[p].progress;
            let silent_for = self.clock.saturating_sub(last.unwrap_or(0));
            if silent_for > self.config.silence_deadline {
                self.events.push(FederationEvent::Dead {
                    partition: p,
                    at: self.clock,
                    last_acked: last,
                    deadline: self.config.silence_deadline,
                });
                self.map.commit_health(p, PartitionHealth::Dead);
                self.failover(p);
            }
        }
    }

    /// Adopts partition `p` on a standby: `Dead → HandingOff`, then
    /// retry `backend.start` under capped exponential backoff,
    /// redelivering the whole routed log on each adopted link (dedup
    /// absorbs the durable prefix). Exhaustion commits `Orphaned`.
    fn failover(&mut self, p: PartitionId) {
        self.map.commit_health(p, PartitionHealth::HandingOff);
        let policy = self.config.handoff.clone();
        for attempt in 1..=policy.max_attempts.max(1) {
            if attempt > 1 {
                let delay = backoff_delay(
                    &mut self.rng,
                    policy.backoff_base,
                    policy.backoff_cap,
                    policy.jitter_pct,
                    attempt - 1,
                );
                std::thread::sleep(delay);
            }
            let epoch = self.map.epoch(p) + 1;
            self.events.push(FederationEvent::HandoffAttempt {
                partition: p,
                attempt,
                epoch,
            });
            let link = match self.backend.start(p, epoch) {
                Ok(link) => link,
                Err(_) => continue,
            };
            self.map.commit_owner(p, epoch);
            let state = &mut self.states[p];
            state.link = Some(link);
            state.sent = 0;
            state.acked = 0;
            state.unflushed = 0;
            state.strikes = 0;
            let backlog = state.routed.len() as u64;
            match self.drive(p) {
                Ok(()) => {
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
                Err(_) => {
                    let state = &mut self.states[p];
                    state.redelivered += state.sent as u64;
                    state.sent = state.acked;
                    state.unflushed = 0;
                    if let Some(link) = state.link.take() {
                        state.wire.add(link.stats());
                        self.backend.fence(p, link);
                    }
                }
            }
        }
        self.map.commit_health(p, PartitionHealth::Orphaned);
        let state = &mut self.states[p];
        let unacked = (state.routed.len() - state.acked) as u64;
        state.orphan_nacks += unacked;
        self.events.push(FederationEvent::Orphaned {
            partition: p,
            at: self.clock,
            attempts: policy.max_attempts.max(1),
            nacked: unacked,
        });
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
                    if let Err(reason) = self.drive_and_flush(p) {
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
                    let state = &mut self.states[p];
                    if state.miss_streak > 0 {
                        state.miss_streak = 0;
                        state.flaps += 1;
                    }
                    return true;
                }
                PartitionHealth::Suspect => {
                    let last = self.states[p].progress;
                    self.events.push(FederationEvent::Dead {
                        partition: p,
                        at: self.clock,
                        last_acked: last,
                        deadline: self.config.silence_deadline,
                    });
                    self.map.commit_health(p, PartitionHealth::Dead);
                    self.failover(p);
                }
                PartitionHealth::Orphaned => return false,
                // failover() never returns in these states.
                PartitionHealth::Dead | PartitionHealth::HandingOff => return false,
            }
        }
    }

    /// Fences `p`'s current link and drives a fresh failover — the
    /// in-migration recovery step when a cut or adopt call dies under
    /// an injected fault. Returns whether `p` came back `Ok`.
    fn revive(&mut self, p: PartitionId) -> bool {
        let state = &mut self.states[p];
        state.sent = state.acked;
        state.unflushed = 0;
        let last = state.progress;
        if let Some(link) = state.link.take() {
            state.wire.add(link.stats());
            self.backend.fence(p, link);
        }
        self.events.push(FederationEvent::Dead {
            partition: p,
            at: self.clock,
            last_acked: last,
            deadline: self.config.silence_deadline,
        });
        self.map.commit_health(p, PartitionHealth::Dead);
        self.failover(p);
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
        let attempts = self.config.handoff.max_attempts.max(1);
        for _ in 0..attempts {
            let state = &mut self.states[p];
            let Some(link) = state.link.as_mut() else {
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

    /// Removes every routed reading for `range` from `p`'s log, along
    /// with the range's sequence allocators (returned for the new
    /// owner). The drain that precedes every cut guarantees the
    /// removed entries are durably acked, and the cut retires the
    /// range on the source — leaving them in the log would make a
    /// later failover redeliver readings the source now NACKs as
    /// fenced, wedging the partition in a NACK-streak loop.
    fn prune_routed(&mut self, p: PartitionId, range: SensorRange) -> Vec<(SensorId, u64)> {
        let state = &mut self.states[p];
        state
            .routed
            .retain(|r| !(range.start <= r.sensor.0 && r.sensor.0 < range.end));
        state.sent = state.routed.len();
        state.acked = state.routed.len();
        state.unflushed = 0;
        let moved: Vec<(SensorId, u64)> = state
            .seq_next
            .iter()
            .filter(|(s, _)| range.start <= s.0 && s.0 < range.end)
            .map(|(s, n)| (*s, *n))
            .collect();
        for (s, _) in &moved {
            state.seq_next.remove(s);
        }
        moved
    }

    /// Counts and records a migration that did not complete.
    fn abort_migration(
        &mut self,
        source: PartitionId,
        dest: PartitionId,
        range: SensorRange,
        reason: &str,
    ) {
        self.migrations_aborted += 1;
        self.events.push(FederationEvent::MigrationAborted {
            source,
            dest,
            range,
            at: self.clock,
            reason: reason.into(),
        });
    }

    /// The abort past the durable cut: no destination adopted the
    /// payload, so `orphaned` — the partition holding the moved range
    /// — orphans first; its readings NACK and are counted.
    fn orphan_and_abort(
        &mut self,
        orphaned: PartitionId,
        attempts: u32,
        source: PartitionId,
        dest: PartitionId,
        range: SensorRange,
    ) {
        self.map.commit_health(orphaned, PartitionHealth::Orphaned);
        self.events.push(FederationEvent::Orphaned {
            partition: orphaned,
            at: self.clock,
            attempts,
            nacked: 0,
        });
        let reason = "destination exhausted every adopt attempt after the cut";
        self.abort_migration(source, dest, range, reason);
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
        let range = self.map.range(p);
        let moved_range = SensorRange {
            start: at.0,
            end: range.end,
        };
        let dest_would_be = self.map.len();
        self.events.push(FederationEvent::MigrationStarted {
            source: p,
            dest: dest_would_be,
            range: moved_range,
            at: self.clock,
        });
        self.migrations_started += 1;
        if !self.settle(p, "unacked backlog at migration drain") {
            self.abort_migration(
                p,
                dest_would_be,
                moved_range,
                "source could not drain its backlog",
            );
            return;
        }
        let q = match self.map.split_at(p, at) {
            Ok(q) => q,
            Err(e) => {
                self.abort_migration(p, dest_would_be, moved_range, &e.to_string());
                return;
            }
        };
        self.states.push(PartitionState::new());
        self.map.commit_health(q, PartitionHealth::HandingOff);
        let moved_seqs = self.prune_routed(p, moved_range);
        let Some((cursor, snapshot)) = self.cut_range(p, moved_range) else {
            // Pre-adopt abort: give the range back to the source.
            // If a cut attempt partially committed before the source
            // orphaned, the range NACKs there — counted, never silent.
            // sentinet-allow(unwrap-used): q was split off p above,
            // so the halves are adjacent by construction.
            self.map.transfer(q, p).unwrap();
            self.map.commit_health(q, PartitionHealth::Ok);
            let state = &mut self.states[p];
            for (s, n) in moved_seqs {
                state.seq_next.insert(s, n);
            }
            self.abort_migration(p, q, moved_range, "source exhausted every cut attempt");
            return;
        };
        for (s, n) in moved_seqs {
            self.states[q].seq_next.insert(s, n);
        }
        // Fresh-destination ladder: attempt k starts the new owner at
        // epoch k, so a half-adopted attempt can never race its
        // successor for the new partition's WAL directory.
        let policy = self.config.handoff.clone();
        let attempts = policy.max_attempts.max(1);
        let mut adopted = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                let delay = backoff_delay(
                    &mut self.rng,
                    policy.backoff_base,
                    policy.backoff_cap,
                    policy.jitter_pct,
                    attempt - 1,
                );
                std::thread::sleep(delay);
            }
            let epoch = u64::from(attempt);
            self.events.push(FederationEvent::HandoffAttempt {
                partition: q,
                attempt,
                epoch,
            });
            let mut link = match self.backend.start(q, epoch) {
                Ok(link) => link,
                Err(_) => continue,
            };
            match link.migrate_adopt(moved_range.start, moved_range.end, cursor, &snapshot) {
                Ok(()) => {
                    adopted = Some((link, epoch));
                    break;
                }
                Err(_) => self.backend.fence(q, link),
            }
        }
        let Some((link, epoch)) = adopted else {
            // Roll-forward failed past the durable cut: the moved
            // range orphans — its readings NACK and are counted.
            self.orphan_and_abort(q, attempts, p, q, moved_range);
            return;
        };
        self.map.commit_owner(q, epoch);
        self.states[q].link = Some(link);
        self.map.commit_health(q, PartitionHealth::Ok);
        if let Some(link) = self.states[p].link.as_mut() {
            // Best-effort: the destination holds the payload durably,
            // so the source's staged outbox copy may be dropped.
            let _ = link.migrate_done(moved_range.start, moved_range.end, cursor);
        }
        self.migrations_completed += 1;
        self.events.push(FederationEvent::MigrationCompleted {
            source: p,
            dest: q,
            range: moved_range,
            at: self.clock,
            cursor,
            epoch,
        });
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
        let Some(d) = dest else {
            self.abort_migration(p, p, range, "no adjacent partition to rebalance into");
            return;
        };
        self.events.push(FederationEvent::MigrationStarted {
            source: p,
            dest: d,
            range,
            at: self.clock,
        });
        self.migrations_started += 1;
        if range.is_empty()
            || !self.settle(p, "unacked backlog at migration drain")
            || !self.settle(d, "unacked backlog at migration drain")
        {
            self.abort_migration(
                p,
                d,
                range,
                "source or destination could not drain its backlog",
            );
            return;
        }
        let moved_seqs = self.prune_routed(p, range);
        let Some((cursor, snapshot)) = self.cut_range(p, range) else {
            let state = &mut self.states[p];
            for (s, n) in moved_seqs {
                state.seq_next.insert(s, n);
            }
            self.abort_migration(p, d, range, "source exhausted every cut attempt");
            return;
        };
        for (s, n) in moved_seqs {
            self.states[d].seq_next.insert(s, n);
        }
        // Live-destination ladder: the adopt merges into d's running
        // collector; a failure revives d through the ordinary
        // failover machine (escalating its epoch) and retries.
        let attempts = self.config.handoff.max_attempts.max(1);
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
            self.orphan_and_abort(p, attempts, p, d, range);
            return;
        }
        // sentinet-allow(unwrap-used): adjacency was how `d` was
        // chosen, and neither range moved since.
        self.map.transfer(p, d).unwrap();
        if let Some(link) = self.states[p].link.as_mut() {
            let _ = link.migrate_done(range.start, range.end, cursor);
        }
        self.migrations_completed += 1;
        self.events.push(FederationEvent::MigrationCompleted {
            source: p,
            dest: d,
            range,
            at: self.clock,
            cursor,
            epoch: self.map.epoch(d),
        });
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
                state.wire.add(link.stats());
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
