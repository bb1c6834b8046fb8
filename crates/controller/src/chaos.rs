//! Deterministic collector-fault drills, in the mould of the storage
//! `FaultPlan`: a plan is plain replayable data naming which collector to break, when, and
//! how. The same plan replayed over the same trace produces the same
//! federation events, which is what lets the drill tests assert exact
//! failover behaviour.

use crate::partition::PartitionId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a drilled collector misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectorFault {
    /// The collector process dies outright (SIGKILL shape): its link
    /// drops and its in-memory state is gone; only the WAL survives.
    Kill,
    /// The collector wedges: it stops acking but holds its resources
    /// until the controller fences it.
    Hang,
    /// The collector's storage poisons (injected `ENOSPC` on a WAL
    /// append): it fail-stops and NACKs every subsequent reading.
    Poison,
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

/// How a controller↔collector link misbehaves — the network half of a
/// nemesis plan, distinct from [`CollectorFault`] (the process half)
/// and the gateway's `FaultPlan` (the disk half).
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

/// A replayable set of collector faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrillPlan {
    /// The faults, in no particular order; each fires at most once.
    pub faults: Vec<DrillFault>,
    /// Network fault windows on epoch-1 links.
    pub net: Vec<NetDrill>,
}

impl DrillPlan {
    /// An empty plan (no faults; the fleet runs undisturbed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.net.is_empty()
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

    /// A seeded random plan: `num_faults` faults spread over
    /// `partitions` partitions, each firing within the first
    /// `max_records` admitted readings. Same seed, same plan.
    pub fn seeded(seed: u64, partitions: usize, max_records: u64, num_faults: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        for _ in 0..num_faults {
            let partition = rng.gen_range(0..partitions.max(1));
            let after_records = rng.gen_range(1..max_records.max(2));
            let fault = match rng.gen_range(0..3u32) {
                0 => CollectorFault::Kill,
                1 => CollectorFault::Hang,
                _ => CollectorFault::Poison,
            };
            plan.faults.push(DrillFault {
                partition,
                after_records,
                fault,
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_replayable() {
        let a = DrillPlan::seeded(42, 3, 100, 5);
        let b = DrillPlan::seeded(42, 3, 100, 5);
        assert_eq!(a, b, "same seed must reproduce the same plan");
        assert_eq!(a.faults.len(), 5);
        for f in &a.faults {
            assert!(f.partition < 3);
            assert!((1..100).contains(&f.after_records));
        }
        let c = DrillPlan::seeded(43, 3, 100, 5);
        assert_ne!(a, c, "different seeds should disagree somewhere");
    }

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
}
