//! `sentinet-controller` — the fault-tolerant tier above many
//! collectors.
//!
//! The paper's pipeline assumes one collector sees the whole field;
//! scaling past that means many collector processes and a controller
//! that survives any one of them dying. This crate supplies that
//! tier, std-only like the gateway:
//!
//! - **Partitioning** ([`partition`]): a [`PartitionMap`] of
//!   contiguous sensor ranges, each owned by one collector at an
//!   epoch, with a five-state health machine
//!   (`Ok → Suspect → Dead → HandingOff → Ok | Orphaned`). All map
//!   mutation funnels through one commit path in [`federation`],
//!   pinned by the `partition-map-mutation` xtask lint.
//! - **Failover** ([`federation`]): the controller clock is the
//!   maximum routed stream time; a suspect partition whose acks trail
//!   the clock past the silence deadline is declared dead, and a
//!   standby adopts its WAL directory — checkpoint-v2 snapshot
//!   restore plus WAL-tail replay through the identical admission
//!   path — then the controller redelivers its routed log (dedup
//!   absorbs the durable prefix). Exhausted retries commit
//!   `Orphaned`: readings NACK and are counted, never dropped.
//! - **Migration** ([`federation`]): live, epoch-fenced range
//!   rebalancing — a contiguous sensor sub-range drains on its source,
//!   cuts a checkpoint-v2 snapshot at a WAL cursor, and a destination
//!   adopts it durably before the map commits; a kill at any protocol
//!   step either rolls back (source keeps the range) or rolls forward
//!   (destination owns it), never both and never neither.
//! - **Drills** ([`chaos`]): replayable [`DrillPlan`]s kill, hang,
//!   partition or poison collectors at chosen admitted-record
//!   coordinates, against in-process collectors ([`inproc`]) or real
//!   spawned `sentinet serve` children fenced by SIGKILL ([`process`]),
//!   fed one reading a v2 frame in the order the controller routes.
//! - **Merging** ([`report`]): every partition's WAL replays into a
//!   [`FleetReport`] whose diagnosis half is byte-identical between a
//!   drilled run and an uninterrupted one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod federation;
pub mod inproc;
pub mod nemesis;
pub mod partition;
pub mod process;
pub mod report;

pub use chaos::{CollectorFault, DrillFault, DrillPlan, NetDrill, NetFault};
pub use federation::{
    replay_report, BackendError, Federation, FederationConfig, FederationError, LinkDown,
    LinkReply, PartitionBackend, PartitionLink,
};
pub use inproc::{InProcessBackend, InProcessLink, Zombie};
pub use nemesis::{run_campaign, CampaignSummary, NemesisConfig, NemesisFailure, NemesisViolation};
pub use partition::{PartitionHealth, PartitionId, PartitionMap, PartitionMapError, SensorRange};
pub use process::{ProcessBackend, ProcessConfig, ProcessLink};
pub use report::{FederationEvent, FleetReport, PartitionStatus, ReportCounters};
