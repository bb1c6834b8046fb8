//! Whole-process backend: each partition owner is a spawned
//! `sentinet serve` child, reached over the real socket transport as
//! a pipelined v2 uplink. Each frame carries one reading, so frames
//! leave in the order the controller routes them and the child's
//! reorder window never sees one sensor's readings overtake
//! another's; the credit window and
//! [`FederationConfig::flush_every`](crate::FederationConfig::flush_every)
//! keep the link pipelined. Fencing is a real SIGKILL;
//! the drill coordinates SIGKILL the child mid-stream, which is what
//! the federation integration tests use to prove that kill + failover
//! reproduces the uninterrupted run byte for byte.

use crate::federation::{
    replay_report, BackendError, LinkDown, LinkReply, PartitionBackend, PartitionLink,
};
use crate::partition::PartitionId;
use sentinet_gateway::{
    probe_migrate_adopt, probe_migrate_cut, probe_migrate_done, GatewayConfig, GatewayReport,
    PipelinedConfig, PipelinedUplink, UplinkConfig, UplinkStats,
};
use sentinet_sim::{SensorId, Timestamp};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Configuration for [`ProcessBackend`].
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// The `sentinet` binary to spawn (tests use
    /// `env!("CARGO_BIN_EXE_sentinet")`; the CLI uses
    /// `std::env::current_exe()`).
    pub binary: PathBuf,
    /// Root for per-partition WAL directories (`wal_root/p{N}`).
    pub wal_root: PathBuf,
    /// Adoptions (epoch > 1 starts) allowed before partitions orphan;
    /// each adoption spends one.
    pub standbys: usize,
    /// Extra flags appended to `serve --wal-dir … --bind 127.0.0.1:0`
    /// — fsync policy, pipeline shape, … Must match `replay` on every
    /// report-shaping knob.
    pub serve_flags: Vec<String>,
    /// Uplink template; `connect` is overwritten per child.
    pub uplink: UplinkConfig,
    /// SIGKILL coordinates: `(partition, after)` kills the epoch-1
    /// owner of `partition` once `after` readings have been handed to
    /// its uplink. A coordinate leaves the list when its owner starts,
    /// so each fires at most once; adopted owners are never re-killed.
    pub kills: Vec<(PartitionId, u64)>,
    /// Gateway config template for the final WAL replay merge.
    pub replay: GatewayConfig,
}

/// Backend spawning one `sentinet serve` child per partition owner.
pub struct ProcessBackend {
    config: ProcessConfig,
}

impl ProcessBackend {
    /// A backend over `config`.
    pub fn new(config: ProcessConfig) -> Self {
        Self { config }
    }

    fn partition_dir(&self, p: PartitionId) -> PathBuf {
        self.config.wal_root.join(format!("p{p}"))
    }
}

/// A `sentinet serve` child, killed and reaped when dropped: whatever
/// path drops its link — a fence, or an error that drops the whole
/// federation — leaves no child running.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        // Once reaped, `kill` signals nothing (the pid may be reused).
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Link to one `sentinet serve` child.
pub struct ProcessLink {
    child: Serve,
    // Held open for the child's lifetime: dropping the pipe would
    // EPIPE the child's final report print.
    _stdout: BufReader<ChildStdout>,
    uplink: PipelinedUplink,
    addr: String,
    ack_timeout: std::time::Duration,
    kill_after: Option<u64>,
    handed: u64,
}

impl ProcessLink {
    /// Counts one step handed to the child. The SIGKILL drill fires on
    /// the step its coordinate reaches, a send or a migration step
    /// alike.
    fn hand_step(&mut self) {
        if self.kill_after == Some(self.handed) {
            self.kill_after = None;
            let _ = self.child.0.kill();
            let _ = self.child.0.wait();
        }
        self.handed += 1;
    }
}

impl PartitionLink for ProcessLink {
    fn send(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<LinkReply, LinkDown> {
        // The send below (or a later flush) exhausts its retries
        // against a drilled dead endpoint and reports the link down.
        self.hand_step();
        self.uplink
            .send_at(sensor, seq, time, values)
            .map(|()| LinkReply::Pipelined)
            .map_err(|e| LinkDown(e.to_string()))
    }

    fn flush(&mut self) -> Result<(), LinkDown> {
        self.uplink.flush().map_err(|e| LinkDown(e.to_string()))
    }

    fn stats(&self) -> UplinkStats {
        self.uplink.stats()
    }

    fn migrate_cut(&mut self, start: u16, end: u16) -> Result<(u64, Vec<u8>), LinkDown> {
        // A kill coordinate reached between two sends lands on the cut
        // — the kill-source-mid-handoff drill.
        self.hand_step();
        // Migration steps ride dedicated probe connections: the
        // uplink's data socket may have frames in flight, and a dead
        // child simply times the probe out.
        probe_migrate_cut(&self.addr, start, end, self.ack_timeout)
            .ok_or_else(|| LinkDown("migrate cut probe got no durable answer".into()))
    }

    fn migrate_adopt(
        &mut self,
        start: u16,
        end: u16,
        cursor: u64,
        snapshot: &[u8],
    ) -> Result<(), LinkDown> {
        // A kill coordinate of 0 on a freshly adopted destination
        // fires here — the kill-destination-mid-adopt drill.
        self.hand_step();
        probe_migrate_adopt(
            &self.addr,
            start,
            end,
            cursor,
            snapshot.to_vec(),
            self.ack_timeout,
        )
        .ok_or_else(|| LinkDown("migrate adopt probe got no durable answer".into()))
    }

    fn migrate_done(&mut self, start: u16, end: u16, cursor: u64) -> Result<(), LinkDown> {
        probe_migrate_done(&self.addr, start, end, cursor, self.ack_timeout)
            .ok_or_else(|| LinkDown("migrate done probe got no answer".into()))
    }
}

impl PartitionBackend for ProcessBackend {
    type Link = ProcessLink;

    fn start(&mut self, p: PartitionId, epoch: u64) -> Result<ProcessLink, BackendError> {
        if epoch > 1 {
            if self.config.standbys == 0 {
                return Err(BackendError(format!(
                    "no standby available to adopt partition {p}"
                )));
            }
            self.config.standbys -= 1;
        }
        let dir = self.partition_dir(p);
        let mut cmd = Command::new(&self.config.binary);
        cmd.arg("serve")
            .arg("--wal-dir")
            .arg(&dir)
            .args(["--bind", "127.0.0.1:0"])
            // The child fail-stops on a stale epoch and fences the
            // WAL for this owner generation.
            .args(["--epoch", &epoch.to_string()])
            .args(&self.config.serve_flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map(Serve)
            .map_err(|e| BackendError(format!("spawn {}: {e}", self.config.binary.display())))?;
        let stdout = child
            .0
            .stdout
            .take()
            .ok_or_else(|| BackendError("child stdout not captured".into()))?;
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| BackendError(format!("reading child banner: {e}")))?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            return Err(BackendError(format!(
                "child did not announce its address (got {line:?})"
            )));
        };
        let addr = addr.to_string();
        let mut transport = self.config.uplink.clone();
        transport.connect = addr.clone();
        // The uplink announces the owner epoch in its Hello, so a
        // zombie collector holding a superseded epoch NACKs instead of
        // accepting writes behind the new owner's back.
        transport.epoch = epoch;
        let ack_timeout = transport.ack_timeout;
        let mut pc = PipelinedConfig::new("");
        pc.transport = transport;
        // One reading a frame: arrival order is routed order.
        pc.batch_size = 1;
        let uplink = PipelinedUplink::new(pc);
        let kill_after = if epoch == 1 {
            self.config
                .kills
                .iter()
                .position(|&(kp, _)| kp == p)
                .map(|i| self.config.kills.swap_remove(i).1)
        } else {
            None
        };
        Ok(ProcessLink {
            child,
            _stdout: stdout,
            uplink,
            addr,
            ack_timeout,
            kill_after,
            handed: 0,
        })
    }

    fn fence(&mut self, _p: PartitionId, link: ProcessLink) {
        drop(link);
    }

    fn finish(&mut self, _p: PartitionId, mut link: ProcessLink) -> Result<(), BackendError> {
        if let Err(e) = link.uplink.finish() {
            return Err(BackendError(format!("close handshake failed: {e}")));
        }
        // The child prints its report (exit 3 when flagged) and
        // exits; either way the WAL is complete for the merge.
        link.child
            .0
            .wait()
            .map(|_| ())
            .map_err(|e| BackendError(format!("waiting for child: {e}")))
    }

    fn merge_report(&mut self, p: PartitionId) -> Result<GatewayReport, BackendError> {
        let dir = self.partition_dir(p);
        replay_report(&self.config.replay, &dir).map(|(report, _)| report)
    }
}
