//! Deterministic fleet drills, in the mould of the storage `FaultPlan`:
//! a [`DrillPlan`] is plain replayable data naming which partition's
//! owner breaks, when, and how — process, network and disk faults in
//! one value. The same plan replayed over the same trace produces the
//! same federation events, which is what lets the drill tests assert
//! exact failover behaviour.

use crate::partition::PartitionId;
use sentinet_gateway::{FaultSpec, StorageFault, VfsOp};

/// How a drilled collector process misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectorFault {
    /// The collector process dies outright (SIGKILL shape): its link
    /// drops and its in-memory state is gone; only the WAL survives.
    Kill,
    /// The collector wedges: it stops acking but holds its resources
    /// until the controller fences it.
    Hang,
}

/// One fault at a chosen coordinate: break `partition`'s owning
/// collector once it has admitted `after_records` readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrillFault {
    /// Partition whose epoch-1 owner is drilled.
    pub partition: PartitionId,
    /// Admitted-record count at which the fault fires.
    pub after_records: u64,
    /// The failure mode.
    pub fault: CollectorFault,
}

/// How a controller↔collector link misbehaves — the network family of
/// a plan, beside [`CollectorFault`] (the process family) and
/// [`DrillPlan::disk`] (the disk family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Symmetric partition: sends fail while the collector stays
    /// alive — the canonical zombie-writer setup. After the controller
    /// fails the partition over, the old owner is exactly the stale
    /// process epoch fencing must stop.
    Partition,
    /// Asymmetric one-way loss: the reading reaches the collector and
    /// is durably admitted, but the ack never makes it back. The
    /// controller must treat it as lost and redeliver; dedup absorbs
    /// the duplicate.
    AckLoss,
    /// Duplicate delivery: the same reading arrives twice (a retry
    /// storm shape); sequence dedup must absorb the copy.
    Duplicate,
    /// Delayed duplicate: a stale retransmit of the previous reading
    /// lands just before the current one — the reorder/dedup path must
    /// absorb it without perturbing the report.
    Delay,
    /// Rogue clock: a copy of the current reading, stamped 2⁴⁰ s ahead,
    /// lands just before it — one mis-clocked mote. The stream horizon
    /// must refuse the copy; the link swallows that NACK, so the report
    /// must not move.
    RogueClock,
}

/// One network fault window on `partition`'s epoch-1 link: starting at
/// the `after_records`th handled reading, the next `span` sends are
/// shaped by `fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetDrill {
    /// Partition whose epoch-1 link is shaped.
    pub partition: PartitionId,
    /// Handled-reading count at which the window opens.
    pub after_records: u64,
    /// How many sends the window covers (at least 1).
    pub span: u64,
    /// The shaping applied inside the window.
    pub fault: NetFault,
}

/// A replayable set of fleet faults. Every entry targets one
/// partition's epoch-1 owner and leaves the plan when that owner
/// starts ([`DrillPlan::arm`]), so each fires at most once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrillPlan {
    /// Process faults; a partition's first one fires.
    pub faults: Vec<DrillFault>,
    /// Network fault windows on epoch-1 links.
    pub net: Vec<NetDrill>,
    /// Storage faults: a partition's specs, in plan order, are the
    /// `FaultPlan` its epoch-1 owner's WAL runs over.
    pub disk: Vec<(PartitionId, FaultSpec)>,
}

impl DrillPlan {
    /// An empty plan (no faults; the fleet runs undisturbed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.net.is_empty() && self.disk.is_empty()
    }

    /// Adds one fault (builder style).
    #[must_use]
    pub fn with_fault(mut self, fault: DrillFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds one network fault window (builder style).
    #[must_use]
    pub fn with_net(mut self, net: NetDrill) -> Self {
        self.net.push(net);
        self
    }

    /// Adds one storage fault on `partition`'s epoch-1 owner (builder
    /// style).
    #[must_use]
    pub fn with_disk(mut self, partition: PartitionId, spec: FaultSpec) -> Self {
        self.disk.push((partition, spec));
        self
    }

    /// Takes partition `p`'s share out of the plan, as a plan of its
    /// own: every entry naming `p`, in plan order. A partition id starts
    /// at epoch 1 once, so arming it at that start fires each of its
    /// faults at most once; a second arm finds nothing.
    pub fn arm(&mut self, p: PartitionId) -> DrillPlan {
        DrillPlan {
            faults: self.faults.extract_if(.., |f| f.partition == p).collect(),
            net: self.net.extract_if(.., |d| d.partition == p).collect(),
            disk: self.disk.extract_if(.., |(q, _)| *q == p).collect(),
        }
    }
}

/// The disk fault that poisons an owner's storage: `ENOSPC` on its
/// `(after_records + 1)`th WAL append. The collector fail-stops and
/// NACKs every later reading, so the failover runs on a storage NACK
/// streak rather than a dead link.
pub fn poison(after_records: u64) -> FaultSpec {
    FaultSpec {
        path: String::new(),
        op: VfsOp::Append,
        nth: after_records + 1,
        kind: StorageFault::Enospc,
        count: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_faults() {
        let plan = DrillPlan::new().with_fault(DrillFault {
            partition: 1,
            after_records: 7,
            fault: CollectorFault::Kill,
        });
        assert!(!plan.is_empty());
        assert_eq!(plan.faults[0].after_records, 7);
    }

    #[test]
    fn arming_a_partition_takes_its_entries_once() {
        let kill = |partition, after_records| DrillFault {
            partition,
            after_records,
            fault: CollectorFault::Kill,
        };
        let window = |partition, after_records| NetDrill {
            partition,
            after_records,
            span: 2,
            fault: NetFault::AckLoss,
        };
        let fsync = |nth| FaultSpec {
            path: String::new(),
            op: VfsOp::Fsync,
            nth,
            kind: StorageFault::FsyncFail,
            count: 1,
        };
        let mut plan = DrillPlan::new()
            .with_fault(kill(1, 5))
            .with_fault(kill(0, 7))
            .with_fault(kill(0, 9))
            .with_net(window(0, 3))
            .with_net(window(1, 4))
            .with_disk(0, poison(15))
            .with_disk(1, fsync(4))
            .with_disk(0, fsync(10_000));
        let p0 = DrillPlan::new()
            .with_fault(kill(0, 7))
            .with_fault(kill(0, 9))
            .with_net(window(0, 3))
            .with_disk(0, poison(15))
            .with_disk(0, fsync(10_000));
        assert_eq!(plan.arm(0), p0, "p0's entries, in plan order");
        let p1 = DrillPlan::new()
            .with_fault(kill(1, 5))
            .with_net(window(1, 4))
            .with_disk(1, fsync(4));
        assert_eq!(plan, p1, "p1's entries stay");
        assert!(plan.arm(0).is_empty(), "a second arm is empty");
    }
}
