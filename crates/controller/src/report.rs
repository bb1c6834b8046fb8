//! Fleet-wide reporting: per-partition status plus merged counters.
//!
//! The same stdout/stderr split the CLI enforces for a single
//! collector applies fleet-wide: [`FleetReport::render_diagnosis`] is
//! the byte-comparable stdout half (identical across an uninterrupted
//! run and a crash-plus-failover run over the same trace), while
//! [`FleetReport::render_accounting`] carries epochs, failover counts
//! and merged wire counters — facts about *this* run, not the data.

use crate::partition::{PartitionHealth, PartitionId, SensorRange};
use sentinet_gateway::GatewayReport;
use sentinet_sim::Timestamp;
use std::fmt;

/// One federation lifecycle event, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationEvent {
    /// A partition's owner stopped acking.
    Suspect {
        /// The partition.
        partition: PartitionId,
        /// Stream time when the suspicion was raised.
        at: Timestamp,
        /// What went wrong (transport loss, NACK streak, …).
        reason: String,
    },
    /// The silence deadline elapsed; the owner is declared dead.
    Dead {
        /// The partition.
        partition: PartitionId,
        /// Stream time of the declaration.
        at: Timestamp,
        /// Stream time of the last acked reading (`None`: never acked).
        last_acked: Option<Timestamp>,
        /// The configured silence deadline, for the record.
        deadline: Timestamp,
    },
    /// A handoff attempt is starting.
    HandoffAttempt {
        /// The partition.
        partition: PartitionId,
        /// 1-based attempt number.
        attempt: u32,
        /// The epoch the standby would own.
        epoch: u64,
    },
    /// A standby adopted the partition's WAL and caught up.
    FailedOver {
        /// The partition.
        partition: PartitionId,
        /// Stream time when the handoff completed.
        at: Timestamp,
        /// The new owner epoch.
        epoch: u64,
        /// Readings redelivered through the admission path (the
        /// durable prefix deduplicates; the tail appends).
        redelivered: u64,
    },
    /// Every handoff attempt failed; the partition is orphaned.
    Orphaned {
        /// The partition.
        partition: PartitionId,
        /// Stream time of the declaration.
        at: Timestamp,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// Unacked readings NACKed at declaration time (later
        /// readings for the partition NACK one by one).
        nacked: u64,
    },
    /// The graceful close of a healthy partition failed (its data is
    /// already durable; the event is bookkeeping, not loss).
    FinishFailed {
        /// The partition.
        partition: PartitionId,
        /// The backend's complaint.
        detail: String,
    },
    /// A live range migration began: the moved sub-range quiesces on
    /// the source while the handoff runs.
    MigrationStarted {
        /// The source partition.
        source: PartitionId,
        /// The destination partition.
        dest: PartitionId,
        /// The sensor range on the move.
        range: SensorRange,
        /// Stream time when the migration was triggered.
        at: Timestamp,
    },
    /// A live range migration committed: the destination durably owns
    /// the moved range and the map epoch advanced.
    MigrationCompleted {
        /// The source partition.
        source: PartitionId,
        /// The destination partition.
        dest: PartitionId,
        /// The sensor range that moved.
        range: SensorRange,
        /// Stream time of the commit.
        at: Timestamp,
        /// Source WAL cursor the cut was taken at.
        cursor: u64,
        /// The epoch the destination owns the range under.
        epoch: u64,
    },
    /// A live range migration rolled back before the cut committed:
    /// the source keeps the range, nothing moved.
    MigrationAborted {
        /// The source partition.
        source: PartitionId,
        /// The destination partition that was to adopt.
        dest: PartitionId,
        /// The sensor range that stayed put.
        range: SensorRange,
        /// Stream time of the rollback.
        at: Timestamp,
        /// Why the migration could not proceed.
        reason: String,
    },
}

impl fmt::Display for FederationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationEvent::Suspect { partition, at, reason } => {
                write!(f, "partition {partition} suspect at t={at}: {reason}")
            }
            FederationEvent::Dead { partition, at, last_acked, deadline } => match last_acked {
                Some(t) => write!(
                    f,
                    "partition {partition} dead at t={at} (last acked t={t}, silence deadline {deadline})"
                ),
                None => write!(
                    f,
                    "partition {partition} dead at t={at} (never acked, silence deadline {deadline})"
                ),
            },
            FederationEvent::HandoffAttempt { partition, attempt, epoch } => {
                write!(f, "partition {partition} handoff attempt {attempt} (epoch {epoch})")
            }
            FederationEvent::FailedOver { partition, at, epoch, redelivered } => write!(
                f,
                "partition {partition} failed over to epoch {epoch} at t={at} (redelivered {redelivered} reading(s))"
            ),
            FederationEvent::Orphaned { partition, at, attempts, nacked } => write!(
                f,
                "partition {partition} orphaned at t={at} after {attempts} attempt(s): {nacked} unacked reading(s) NACKed"
            ),
            FederationEvent::FinishFailed { partition, detail } => {
                write!(f, "partition {partition} finish failed: {detail}")
            }
            FederationEvent::MigrationStarted { source, dest, range, at } => write!(
                f,
                "migration of sensors {range} from partition {source} to {dest} started at t={at}"
            ),
            FederationEvent::MigrationCompleted { source, dest, range, at, cursor, epoch } => write!(
                f,
                "migration of sensors {range} from partition {source} to {dest} completed at t={at} (cut cursor {cursor}, epoch {epoch})"
            ),
            FederationEvent::MigrationAborted { source, dest, range, at, reason } => write!(
                f,
                "migration of sensors {range} from partition {source} to {dest} aborted at t={at}: {reason}"
            ),
        }
    }
}

/// Final status of one partition.
#[derive(Debug)]
pub struct PartitionStatus {
    /// The partition.
    pub partition: PartitionId,
    /// Its sensor range.
    pub range: SensorRange,
    /// Health at the end of the run.
    pub health: PartitionHealth,
    /// Owner epoch at the end of the run (1 = never failed over).
    pub epoch: u64,
    /// Completed failovers.
    pub failovers: u32,
    /// Readings NACKed because the partition was orphaned.
    pub orphan_nacks: u64,
    /// Readings re-sent through the admission path during handoffs.
    pub redelivered: u64,
    /// Routed readings known durable on the owner when the stream
    /// ended. The no-acked-loss invariant compares this against the
    /// merged report's admission count: every acked reading must
    /// survive into the replay.
    pub acked: u64,
    /// Total readings routed to the partition.
    pub routed: u64,
    /// Miss streaks that healed in place before reaching the
    /// suspicion threshold (hysteresis absorbed them — no failover).
    pub flaps: u32,
    /// The partition's merged report, rebuilt by replaying its WAL
    /// through the identical admission path.
    pub report: GatewayReport,
}

/// The mergeable accounting of one gateway run.
///
/// Everything here is additive across collectors (the `poisoned` flag
/// merges as a count: how many collectors reported a poisoned WAL), so
/// a fleet-wide roll-up is `merge` over the parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCounters {
    /// Readings admitted through the full path.
    pub accepted: u64,
    /// Sanitizer rejections.
    pub sanitizer_rejects: u64,
    /// Transport-level duplicates absorbed.
    pub duplicates: u64,
    /// Readings refused as late by the reorder buffer.
    pub late: u64,
    /// Readings shed by bounded reorder occupancy.
    pub shed: u64,
    /// Readings NACKed on an exhausted WAL budget.
    pub budget_shed: u64,
    /// Readings NACKed while the WAL was poisoned.
    pub storage_rejects: u64,
    /// Checkpoint writes that failed.
    pub checkpoint_failures: u64,
    /// Reclaims whose deletion failed.
    pub reclaim_failures: u64,
    /// WAL segments reclaimed by retention.
    pub reclaimed_segments: u64,
    /// Collectors whose WAL ended the run poisoned.
    pub poisoned: u64,
    /// Sensors silent at end of run.
    pub silent_sensors: u64,
    /// Silence episodes over the whole run.
    pub silence_episodes: u64,
    /// Uplink frames written, retransmissions included.
    pub frames_sent: u64,
    /// Uplink frames re-sent.
    pub retransmits: u64,
    /// Uplink ack waits that hit the deadline.
    pub timeouts: u64,
    /// NACKs the uplink received.
    pub nacks: u64,
    /// Uplink reconnections after a failure.
    pub reconnects: u64,
    /// Uplink frames/batches fully acknowledged.
    pub uplink_acked: u64,
    /// Deliveries NACKed by epoch fencing — a stale owner fail-stopped
    /// instead of racing its successor.
    pub fence_rejects: u64,
    /// Suspect streaks that recovered before the hysteresis threshold
    /// — transient link blips that did *not* trigger fencing churn.
    /// Counted by the federation tier.
    pub flaps: u64,
    /// Live range migrations the controller began.
    pub migrations_started: u64,
    /// Migrations that committed the new owner.
    pub migrations_completed: u64,
    /// Migrations rolled back before the cut committed.
    pub migrations_aborted: u64,
}

impl ReportCounters {
    /// Extracts the mergeable counters of one finished run; the
    /// federation-tier counters start at zero.
    pub fn from_report(report: &GatewayReport) -> Self {
        let uplink = report.uplink.unwrap_or_default();
        Self {
            accepted: report.ingest.accepted as u64,
            sanitizer_rejects: report.ingest.rejected.len() as u64,
            duplicates: report.ingest.duplicates as u64,
            late: report.ingest.late as u64,
            shed: report.ingest.shed as u64,
            budget_shed: report.storage.budget_shed as u64,
            storage_rejects: report.storage.storage_rejects as u64,
            checkpoint_failures: report.storage.checkpoint_failures as u64,
            reclaim_failures: report.storage.reclaim_failures as u64,
            reclaimed_segments: report.storage.reclaimed_segments as u64,
            poisoned: u64::from(report.storage.error.is_some()),
            silent_sensors: report.liveness.silent.len() as u64,
            silence_episodes: report.liveness.episodes as u64,
            frames_sent: uplink.frames_sent,
            retransmits: uplink.retransmits,
            timeouts: uplink.timeouts,
            nacks: uplink.nacks,
            reconnects: uplink.reconnects,
            uplink_acked: uplink.acked,
            fence_rejects: report.storage.fence_rejects as u64,
            ..Self::default()
        }
    }

    /// Adds `other` into `self`, saturating — the fleet roll-up.
    pub fn merge(&mut self, other: &Self) {
        let (a, b) = (*self, other);
        // A struct literal without `..`: a counter not summed here
        // does not compile.
        *self = Self {
            accepted: a.accepted.saturating_add(b.accepted),
            sanitizer_rejects: a.sanitizer_rejects.saturating_add(b.sanitizer_rejects),
            duplicates: a.duplicates.saturating_add(b.duplicates),
            late: a.late.saturating_add(b.late),
            shed: a.shed.saturating_add(b.shed),
            budget_shed: a.budget_shed.saturating_add(b.budget_shed),
            storage_rejects: a.storage_rejects.saturating_add(b.storage_rejects),
            checkpoint_failures: a.checkpoint_failures.saturating_add(b.checkpoint_failures),
            reclaim_failures: a.reclaim_failures.saturating_add(b.reclaim_failures),
            reclaimed_segments: a.reclaimed_segments.saturating_add(b.reclaimed_segments),
            poisoned: a.poisoned.saturating_add(b.poisoned),
            silent_sensors: a.silent_sensors.saturating_add(b.silent_sensors),
            silence_episodes: a.silence_episodes.saturating_add(b.silence_episodes),
            frames_sent: a.frames_sent.saturating_add(b.frames_sent),
            retransmits: a.retransmits.saturating_add(b.retransmits),
            timeouts: a.timeouts.saturating_add(b.timeouts),
            nacks: a.nacks.saturating_add(b.nacks),
            reconnects: a.reconnects.saturating_add(b.reconnects),
            uplink_acked: a.uplink_acked.saturating_add(b.uplink_acked),
            fence_rejects: a.fence_rejects.saturating_add(b.fence_rejects),
            flaps: a.flaps.saturating_add(b.flaps),
            migrations_started: a.migrations_started.saturating_add(b.migrations_started),
            migrations_completed: a
                .migrations_completed
                .saturating_add(b.migrations_completed),
            migrations_aborted: a.migrations_aborted.saturating_add(b.migrations_aborted),
        };
    }
}

impl fmt::Display for ReportCounters {
    /// One human-oriented summary line (the stderr roll-up format).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accepted, {} duplicate(s), {} late, {} shed, {} budget-shed, \
             {} storage-reject(s), {} silence episode(s)",
            self.accepted,
            self.duplicates,
            self.late,
            self.shed,
            self.budget_shed,
            self.storage_rejects,
            self.silence_episodes
        )
    }
}

/// The fleet-wide merge of every partition's report.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-partition status, in partition order.
    pub partitions: Vec<PartitionStatus>,
    /// Every partition's counters summed.
    pub counters: ReportCounters,
    /// The federation event log, in commit order.
    pub events: Vec<FederationEvent>,
}

impl FleetReport {
    /// Whether any partition ended degraded: orphaned, or with a
    /// storage layer that poisoned / shed / failed to checkpoint.
    pub fn degraded(&self) -> bool {
        self.partitions
            .iter()
            .any(|p| p.health == PartitionHealth::Orphaned || !p.report.storage.is_clean())
    }

    /// Whether the run warrants the scripting exit code 3: a sensor
    /// diagnosis was flagged, a network-wide attack was called, or
    /// the fleet itself is degraded.
    pub fn flagged(&self) -> bool {
        self.degraded()
            || self.partitions.iter().any(|p| {
                p.report.pipeline.flagged().count() > 0
                    || p.report.pipeline.network_attack.is_some()
            })
    }

    /// The byte-comparable diagnosis (stdout half): fleet summary
    /// line, one health line per partition, then each partition's
    /// pipeline report and recovery plan in the exact format the CLI
    /// prints for a single collector. Epochs and failover counts are
    /// deliberately absent — they describe the run, not the data, and
    /// would break byte-identity between a drilled and an
    /// uninterrupted run.
    pub fn render_diagnosis(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fleet: {} partition(s)\n", self.partitions.len()));
        for p in &self.partitions {
            out.push_str(&format!(
                "partition {} [sensors {}]: {}\n",
                p.partition, p.range, p.health
            ));
        }
        for p in &self.partitions {
            out.push_str(&format!(
                "\n=== partition {} [sensors {}] ===\n",
                p.partition, p.range
            ));
            out.push_str(&format!("{}", p.report.pipeline));
            out.push_str("\nrecovery plan:\n");
            for (id, action) in &p.report.plan.actions {
                out.push_str(&format!("  {id}: {action:?}\n"));
            }
        }
        out
    }

    /// The accounting half (stderr): merged counters plus the
    /// per-partition run facts the diagnosis deliberately omits.
    pub fn render_accounting(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fleet counters: {}\n", self.counters));
        for p in &self.partitions {
            out.push_str(&format!(
                "partition {}: epoch {}, {} failover(s), {} redelivered, {} orphan-nack(s)\n",
                p.partition, p.epoch, p.failovers, p.redelivered, p.orphan_nacks
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReportCounters {
        ReportCounters {
            accepted: 240,
            sanitizer_rejects: 3,
            duplicates: 7,
            late: 1,
            shed: 2,
            budget_shed: 4,
            storage_rejects: 5,
            checkpoint_failures: 0,
            reclaim_failures: 0,
            reclaimed_segments: 6,
            poisoned: 1,
            silent_sensors: 2,
            silence_episodes: 3,
            frames_sent: 260,
            retransmits: 11,
            timeouts: 8,
            nacks: 5,
            reconnects: 3,
            uplink_acked: 240,
            fence_rejects: 2,
            flaps: 1,
            migrations_started: 4,
            migrations_completed: 3,
            migrations_aborted: 1,
        }
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.accepted, 480);
        assert_eq!(a.poisoned, 2);
        assert_eq!(a.uplink_acked, 480);
        assert_eq!(a.migrations_started, 8);
        assert_eq!(a.migrations_completed, 6);
        assert_eq!(a.migrations_aborted, 2);
    }
}
