//! In-process backend: each partition owner is a [`Collector`] in
//! this process, one WAL directory per partition under a common
//! root. This is the deterministic drill harness — no sockets, no
//! wall-clock timeouts — and the reference implementation of the
//! handoff contract: adoption is nothing but `Collector::open` on the
//! dead owner's WAL directory (checkpoint-v2 snapshot restore plus
//! WAL-tail replay through the identical admission path).
//!
//! The drill plan carries all three fault families — process faults
//! ([`CollectorFault`]), network shaping ([`NetFault`] windows on
//! epoch-1 links) and disk faults (a gateway `FaultPlan` wrapped around
//! an owner's storage) — and a partition's share is taken out of it in
//! one step when its epoch-1 owner starts. Two extra seams exist purely
//! for the nemesis campaign's invariants:
//!
//! - **Zombie stash**: `fence` normally drops the link (a crash), but
//!   with the stash enabled a still-live collector is parked instead,
//!   tagged with the epoch it owned. After the run the campaign pokes
//!   each zombie with a fresh append — epoch fencing must reject it,
//!   or the fleet split-brained.
//! - **Pipelined mode**: links buffer readings and flush them as
//!   coalesced `deliver_batch` calls with an explicit `sync_wal` —
//!   batch admission and group commit without the wire — so one
//!   campaign covers both delivery disciplines.
//!
//! The link calls the [`Collector`] directly rather than through the
//! gateway's `protocol::Core`, on purpose: its replies carry what the
//! wire drops (the typed reject cause, the error text behind a
//! `LinkDown`), and it has no connections, credits or frames. It
//! shares the collector's single admission path, not the wire
//! protocol; the socket backend is what exercises the core.

use crate::chaos::{CollectorFault, DrillFault, DrillPlan, NetDrill, NetFault};
use crate::federation::{
    replay_report, BackendError, LinkDown, LinkReply, PartitionBackend, PartitionLink,
};
use crate::partition::PartitionId;
use sentinet_gateway::{
    decode_collector, encode_collector, Collector, CutCheck, DeliverOutcome, FaultPlan, FaultyVfs,
    FenceCheck, GatewayConfig, RecoveryInfo,
};
use sentinet_sim::{SensorId, Timestamp};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A fenced-but-alive collector, parked by the zombie stash: the
/// in-process stand-in for a partitioned old owner that never heard it
/// was deposed. The nemesis campaign delivers a fresh reading through
/// it after the run; epoch fencing must NACK the append.
pub struct Zombie {
    /// The partition it used to own.
    pub partition: PartitionId,
    /// The epoch it owned the partition at.
    pub epoch: u64,
    /// The still-live collector, WAL handles and all.
    pub collector: Collector,
}

/// Backend running every partition owner as an in-process
/// [`Collector`].
pub struct InProcessBackend {
    template: GatewayConfig,
    wal_root: PathBuf,
    standbys: usize,
    /// The faults not yet armed: a partition's leave at its epoch-1
    /// start.
    drill: DrillPlan,
    fence: FenceCheck,
    cut: CutCheck,
    pipelined: bool,
    zombies: Option<Arc<Mutex<Vec<Zombie>>>>,
    recoveries: Vec<Option<RecoveryInfo>>,
}

impl InProcessBackend {
    /// A backend over `partitions` WAL directories
    /// (`wal_root/p{N}`), cloned from `template` (its `wal.dir` is
    /// ignored). `standbys` bounds how many adoptions (epoch > 1
    /// starts) can ever succeed; `drill` breaks epoch-1 owners at the
    /// planned coordinates.
    pub fn new(
        template: GatewayConfig,
        wal_root: impl Into<PathBuf>,
        partitions: usize,
        standbys: usize,
        drill: DrillPlan,
    ) -> Self {
        Self {
            template,
            wal_root: wal_root.into(),
            standbys,
            drill,
            fence: FenceCheck::Enforced,
            cut: CutCheck::Enforced,
            pipelined: false,
            zombies: None,
            recoveries: (0..partitions).map(|_| None).collect(),
        }
    }

    /// Sets the deliver-path fence-check mode stamped into every
    /// owner's config. [`FenceCheck::Skip`] is the mutation seam: the
    /// nemesis self-test flips it to prove the campaign catches the
    /// split-brain fencing prevents.
    #[must_use]
    pub fn with_fence(mut self, fence: FenceCheck) -> Self {
        self.fence = fence;
        self
    }

    /// Sets the migration-cut mode stamped into every owner's
    /// config. [`CutCheck::Skip`] is the mutation seam: the nemesis
    /// self-test flips it to prove the migration campaign catches a
    /// cut that ships an empty snapshot (acked readings vanishing in
    /// the handoff).
    #[must_use]
    pub fn with_cut(mut self, cut: CutCheck) -> Self {
        self.cut = cut;
        self
    }

    /// Switches links to the pipelined mode: readings buffer on the
    /// link and flush as coalesced batches, mirroring protocol v2.
    #[must_use]
    pub fn with_pipelined(mut self, pipelined: bool) -> Self {
        self.pipelined = pipelined;
        self
    }

    /// Enables the zombie stash and returns its shared handle. The
    /// handle outlives the backend (which `Federation::finish`
    /// consumes), so the campaign can probe stashed collectors after
    /// the run.
    pub fn zombie_stash(&mut self) -> Arc<Mutex<Vec<Zombie>>> {
        self.zombies.get_or_insert_with(Arc::default).clone()
    }

    /// The [`RecoveryInfo`] of the most recent `start` for `p` —
    /// drills assert an adoption actually restored from a checkpoint
    /// snapshot.
    pub fn recovery(&self, p: PartitionId) -> Option<&RecoveryInfo> {
        self.recoveries.get(p).and_then(Option::as_ref)
    }

    fn partition_dir(&self, p: PartitionId) -> PathBuf {
        self.wal_root.join(format!("p{p}"))
    }
}

/// Link to an in-process collector, with the drill's kill/hang
/// coordinate and any network-shaping windows armed.
pub struct InProcessLink {
    collector: Option<Collector>,
    epoch: u64,
    armed: Option<DrillFault>,
    /// Shaping windows; a window's `span` counts down the sends it has
    /// left.
    net: Vec<NetDrill>,
    /// Readings admitted (durable) through this link.
    delivered: u64,
    /// Readings handled (attempted) — the net-window clock.
    handled: u64,
    /// A drilled `Hang` fired: the collector holds its resources but
    /// answers nothing until fenced.
    wedged: bool,
    pipelined: bool,
    /// The pipelined window: readings accepted but not yet durable.
    window: Vec<(SensorId, u64, Timestamp, Vec<f64>)>,
    /// The most recent reading, for `NetFault::Delay` retransmits.
    last: Option<(SensorId, u64, Timestamp, Vec<f64>)>,
    /// An ack-path fault deferred to the next flush (pipelined mode
    /// has no per-reading ack to lose or duplicate).
    flush_fault: Option<NetFault>,
}

impl InProcessLink {
    /// Delivers one reading straight through the collector (the v1
    /// stop-and-wait shape).
    fn deliver_one(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<LinkReply, LinkDown> {
        let Some(collector) = self.collector.as_mut() else {
            return Err(LinkDown("collector process is gone".into()));
        };
        match collector.deliver(sensor, seq, time, values.to_vec()) {
            Ok(DeliverOutcome::Accepted) | Ok(DeliverOutcome::Duplicate) => {
                self.delivered += 1;
                Ok(LinkReply::Acked)
            }
            Ok(DeliverOutcome::Rejected(_)) => Ok(LinkReply::Nacked),
            Err(e) => Err(LinkDown(e.to_string())),
        }
    }

    /// The gate every link step passes, in order:
    /// 1. a pending drilled kill/hang fires once its admitted-records
    ///    coordinate is reached (`drilled` steps only), so a fault armed
    ///    between two sends lands on whichever step runs next — a cut
    ///    or adopt included;
    /// 2. a wedged collector refuses;
    /// 3. the step consumes one unit of any open shaping window and is
    ///    counted;
    /// 4. a `Partition` window loses the request (`lost` names it);
    /// 5. a gone collector refuses.
    ///
    /// Returns the step's shaping and the live collector.
    fn gate(
        &mut self,
        drilled: bool,
        lost: &str,
    ) -> Result<(Option<NetFault>, &mut Collector), LinkDown> {
        let delivered = self.delivered;
        if let Some(f) = self
            .armed
            .filter(|f| drilled && delivered >= f.after_records)
        {
            self.armed = None;
            match f.fault {
                // Process death: in-memory state gone, WAL stays.
                CollectorFault::Kill => self.collector = None,
                // Wedged: alive but mute until fenced.
                CollectorFault::Hang => self.wedged = true,
            }
            return Err(LinkDown(format!(
                "drill {:?} after {} admitted reading(s)",
                f.fault, f.after_records
            )));
        }
        if self.wedged {
            return Err(LinkDown("collector is wedged".into()));
        }
        let handled = self.handled;
        let shaped = self.net.iter_mut().find_map(|d| {
            if handled >= d.after_records && d.span > 0 {
                d.span -= 1;
                Some(d.fault)
            } else {
                None
            }
        });
        self.handled += 1;
        if shaped == Some(NetFault::Partition) {
            return Err(LinkDown(format!("net partition: {lost} lost")));
        }
        match self.collector.as_mut() {
            Some(collector) => Ok((shaped, collector)),
            None => Err(LinkDown("collector process is gone".into())),
        }
    }
}

impl PartitionLink for InProcessLink {
    fn send(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<LinkReply, LinkDown> {
        // A partition window loses the send in the network; the
        // collector itself stays alive — the canonical zombie-writer
        // setup.
        let (shaped, _) = self.gate(true, "send")?;
        if self.pipelined {
            match shaped {
                // No per-reading ack exists to lose or duplicate in
                // the credit-window mode; the fault shapes the next
                // cumulative ack instead.
                Some(f @ (NetFault::AckLoss | NetFault::Duplicate)) => {
                    self.flush_fault = Some(f);
                }
                Some(NetFault::Delay) => {
                    // A stale retransmit of the previous reading lands
                    // in the window ahead of the current one.
                    if let Some(stale) = self.last.clone() {
                        self.window.push(stale);
                    }
                }
                _ => {}
            }
            let r = (sensor, seq, time, values.to_vec());
            self.last = Some(r.clone());
            self.window.push(r);
            return Ok(LinkReply::Pipelined);
        }
        if shaped == Some(NetFault::Delay) {
            // Stale retransmit first; dedup absorbs it.
            if let Some((s, q, t, v)) = self.last.clone() {
                let _ = self.deliver_one(s, q, t, &v)?;
            }
        }
        let reply = self.deliver_one(sensor, seq, time, values)?;
        if reply == LinkReply::Acked {
            self.last = Some((sensor, seq, time, values.to_vec()));
            match shaped {
                Some(NetFault::Duplicate) => {
                    // The same frame arrives twice; the second copy
                    // must dedup.
                    let _ = self.deliver_one(sensor, seq, time, values)?;
                }
                Some(NetFault::AckLoss) => {
                    // Durably admitted, but the ack never comes back:
                    // the controller must assume loss and redeliver.
                    return Err(LinkDown("ack lost after durable admit".into()));
                }
                _ => {}
            }
        }
        Ok(reply)
    }

    fn flush(&mut self) -> Result<(), LinkDown> {
        if !self.pipelined {
            return Ok(());
        }
        if self.wedged {
            return Err(LinkDown("collector is wedged".into()));
        }
        let fault = self.flush_fault.take();
        if self.window.is_empty() {
            return Ok(());
        }
        let window = std::mem::take(&mut self.window);
        let Some(collector) = self.collector.as_mut() else {
            return Err(LinkDown("collector process is gone".into()));
        };
        let passes = if fault == Some(NetFault::Duplicate) {
            2
        } else {
            1
        };
        for _ in 0..passes {
            // Coalesce consecutive same-sensor sequence runs into
            // batch deliveries — the shape a v2 credit window drains
            // in.
            let mut i = 0;
            while i < window.len() {
                let sensor = window[i].0;
                let first_seq = window[i].1;
                let mut j = i + 1;
                while j < window.len()
                    && window[j].0 == sensor
                    && window[j].1 == first_seq + (j - i) as u64
                {
                    j += 1;
                }
                let readings: Vec<(Timestamp, Vec<f64>)> =
                    window[i..j].iter().map(|r| (r.2, r.3.clone())).collect();
                let out = collector
                    .deliver_batch(sensor, first_seq, &readings)
                    .map_err(|e| LinkDown(e.to_string()))?;
                if let Some((seq, cause)) = out.nack {
                    return Err(LinkDown(format!(
                        "batch NACK at sensor {sensor} seq {seq}: {cause:?}"
                    )));
                }
                i = j;
            }
        }
        collector.sync_wal().map_err(|e| LinkDown(e.to_string()))?;
        self.delivered += window.len() as u64;
        if fault == Some(NetFault::AckLoss) {
            // Everything above is durable, but the cumulative AckUpTo
            // was lost in flight; the controller must treat the whole
            // window as unacked.
            return Err(LinkDown("cumulative ack lost after durable flush".into()));
        }
        Ok(())
    }

    fn migrate_cut(&mut self, start: u16, end: u16) -> Result<(u64, Vec<u8>), LinkDown> {
        // Drills and shaping windows apply to migration steps exactly
        // as to sends: a kill armed between two sends lands here, a
        // partition window swallows the offer before the cut runs —
        // request lost, never half-cut.
        let (_, collector) = self.gate(true, "migrate offer")?;
        match collector.export_range(start..end) {
            Ok((inside, cursor)) => Ok((cursor, encode_collector(&inside).into_bytes())),
            Err(e) => Err(LinkDown(e.to_string())),
        }
    }

    fn migrate_adopt(
        &mut self,
        start: u16,
        end: u16,
        cursor: u64,
        snapshot: &[u8],
    ) -> Result<(), LinkDown> {
        let (_, collector) = self.gate(true, "migrate accept")?;
        let text = String::from_utf8(snapshot.to_vec()).map_err(|e| LinkDown(e.to_string()))?;
        let snap = decode_collector(&text).map_err(|e| LinkDown(e.to_string()))?;
        collector
            .adopt_range(start..end, cursor, &snap)
            .map_err(|e| LinkDown(e.to_string()))
    }

    fn migrate_done(&mut self, start: u16, end: u16, _cursor: u64) -> Result<(), LinkDown> {
        // The best-effort cleanup never fires an armed drill: that
        // waits for the next send, cut or adopt.
        let (_, collector) = self.gate(false, "migrate done")?;
        collector.clear_outbox(start..end);
        Ok(())
    }
}

impl PartitionBackend for InProcessBackend {
    type Link = InProcessLink;

    fn start(&mut self, p: PartitionId, epoch: u64) -> Result<InProcessLink, BackendError> {
        if epoch > 1 {
            if self.standbys == 0 {
                return Err(BackendError(format!(
                    "no standby available to adopt partition {p}"
                )));
            }
            self.standbys -= 1;
        }
        // Migration-created partitions arrive with ids past the
        // initial layout; grow the recovery list to match.
        if self.recoveries.len() <= p {
            self.recoveries.resize(p + 1, None);
        }
        // The first process fault fires, every window opens, and the
        // disk specs, in plan order, are one storage plan.
        let mut armed = DrillPlan::new();
        if epoch == 1 {
            armed = self.drill.arm(p);
            armed.net.iter_mut().for_each(|d| d.span = d.span.max(1));
        }
        let mut config = self.template.clone();
        config.wal.dir = self.partition_dir(p);
        config.wal.vfs = if armed.disk.is_empty() {
            Arc::new(sentinet_gateway::RealVfs)
        } else {
            let faults = armed.disk.into_iter().map(|(_, spec)| spec).collect();
            Arc::new(FaultyVfs::new(FaultPlan { faults }))
        };
        config.epoch = epoch;
        config.fence = self.fence;
        config.cut = self.cut;
        let (collector, info) = Collector::open(config).map_err(|e| BackendError(e.to_string()))?;
        self.recoveries[p] = Some(info);
        Ok(InProcessLink {
            collector: Some(collector),
            epoch,
            armed: armed.faults.first().copied(),
            net: armed.net,
            delivered: 0,
            handled: 0,
            wedged: false,
            pipelined: self.pipelined,
            window: Vec::new(),
            last: None,
            flush_fault: None,
        })
    }

    fn fence(&mut self, p: PartitionId, link: InProcessLink) {
        if let Some(stash) = &self.zombies {
            if let Some(collector) = link.collector {
                // Park the live collector instead of crashing it: a
                // partitioned old owner that never heard it was
                // deposed, for the campaign's split-brain probe.
                // sentinet-allow(unwrap-used): a poisoned stash mutex
                // means a panicking drill thread; propagating the
                // panic is the only honest outcome.
                stash.lock().unwrap().push(Zombie {
                    partition: p,
                    epoch: link.epoch,
                    collector,
                });
                return;
            }
        }
        // Dropping an unfinished collector is exactly a crash: its
        // WAL keeps everything appended so far.
        drop(link);
    }

    fn finish(&mut self, _p: PartitionId, link: InProcessLink) -> Result<(), BackendError> {
        match link.collector {
            Some(collector) => collector
                .finish()
                .map(|_| ())
                .map_err(|e| BackendError(e.to_string())),
            None => Ok(()),
        }
    }

    fn merge_report(
        &mut self,
        p: PartitionId,
    ) -> Result<sentinet_gateway::GatewayReport, BackendError> {
        let dir = self.partition_dir(p);
        replay_report(&self.template, &dir).map(|(report, _)| report)
    }
}
