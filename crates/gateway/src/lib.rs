//! `sentinet-gateway` — the durable streaming front end that turns the
//! detection pipeline into a long-running service.
//!
//! The paper's collector ingests live, lossy mote traffic; this crate
//! supplies that operating mode for `sentinet` (which otherwise
//! processes offline CSV traces). Three guarantees, std-only (no async
//! runtime — plain threads, bounded channels, socket timeouts):
//!
//! 1. **Reliable transport** ([`frame`], [`client`], [`server`]):
//!    length-prefixed CRC-framed messages over TCP or Unix sockets;
//!    per-sensor sequence numbers; a stop-and-wait client with capped
//!    exponential backoff, seeded jitter, and reconnection; server-side
//!    dedup plus a watermark reorder buffer ([`reorder`]) so bounded
//!    network reordering is repaired rather than rejected; bounded
//!    queues with explicit, counted drop-oldest load shedding. A
//!    version-negotiated pipelined mode (protocol v2) batches many
//!    readings per frame under a server-granted credit window with
//!    cumulative `AckUpTo` acks, closing the per-reading round-trip
//!    gap while the stop-and-wait v1 path stays wire-compatible.
//! 2. **Durability** ([`wal`], [`collector`]): every admitted record
//!    is appended to a segmented CRC-framed write-ahead log before it
//!    is acknowledged; on restart the log replays through the
//!    identical admission path (verified against periodic
//!    `core::checkpoint` fingerprints), so `kill -9` at any point
//!    resumes to a bit-identical `PipelineReport`.
//! 3. **Liveness** ([`collector`]): a silent sensor never stalls the
//!    window barrier — it is declared missing after a stream-time
//!    deadline and surfaced in [`LivenessStatus`].
//!
//! [`netsim`] drives all of it from seeded BurstLoss-shaped delivery
//! schedules, in-process or over a real socket.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod collector;
pub mod crc;
pub mod frame;
pub mod harness;
mod net;
pub mod netsim;
pub mod protocol;
pub mod reorder;
pub mod report_codec;
pub mod server;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use client::{
    backoff_delay, probe_heartbeat, probe_migrate_adopt, probe_migrate_cut, probe_migrate_done,
    PipelinedConfig, PipelinedUplink, SensorUplink, UplinkConfig, UplinkError, UplinkStats,
};
pub use collector::{
    BatchOutcome, Collector, CutCheck, DeliverOutcome, FenceCheck, GatewayConfig, GatewayError,
    GatewayReport, LivenessStatus, RecoveryInfo, RejectCause, SeqTracker, StageTimings,
    StorageStatus, CHECKPOINT_FILE,
};
pub use frame::{
    Frame, FrameBuffer, FrameError, Message, ReadingArena, MAX_BATCH_READINGS, MAX_PAYLOAD,
    PROTOCOL_V1, PROTOCOL_VERSION,
};
pub use harness::{RestoreStep, StepEvent, StepServer};
pub use netsim::{
    deliver_schedule, delivery_schedule, drive_uplink, trace_to_raw, Emission, NetsimConfig,
};
pub use protocol::{AckDiscipline, QueuedAck};
pub use reorder::{
    AdmitOutcome, ReorderBuffer, ReorderConfig, ReorderSnapshot, ReorderStats, RETAINED_VALUES,
};
pub use report_codec::{CountersError, ReportCounters, COUNTERS_MAGIC};
pub use server::{Server, ServerConfig, ServerStats};
pub use snapshot::{
    decode_collector, encode_collector, merge_snapshot, split_snapshot, CollectorSnapshot,
};
pub use vfs::{
    FaultPlan, FaultSpec, FaultyVfs, RealVfs, StorageError, StorageFault, VFile, Vfs, VfsOp,
};
pub use wal::{
    FsyncPolicy, Placement, ReclaimPlan, RunPlanner, SegmentInfo, Wal, WalConfig, WalError, WalLog,
    WalRecord,
};
