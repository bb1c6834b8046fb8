//! Live-migration drills: online sensor-range splits and rebalances
//! against real in-process [`Collector`]s, with kills injected at the
//! cut and adopt protocol steps, proving the handoff contract:
//!
//! - a migration moves a contiguous range between live owners without
//!   stopping ingest and without losing or double-counting one acked
//!   reading;
//! - a kill at any protocol step either rolls the migration back
//!   (source keeps the range) or rolls it forward (destination owns
//!   it), and the merged fleet diagnosis stays byte-identical to an
//!   uninterrupted run of the same migration schedule;
//! - an unmovable migration aborts loudly — counted and evented,
//!   never half-applied.

use sentinet_controller::{
    CollectorFault, DrillFault, DrillPlan, Federation, FederationConfig, FederationError,
    FederationEvent, InProcessBackend, NetDrill, NetFault, PartitionHealth, PartitionMap,
    SensorRange,
};
use sentinet_gateway::GatewayConfig;
use sentinet_sim::SensorId;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmproot(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-migration-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic fleet stream: four sensors, 90 sampling ticks.
fn stream() -> Vec<(SensorId, u64, Vec<f64>)> {
    let mut out = Vec::new();
    for i in 0..90u64 {
        let t = 300 * (i + 1);
        for s in 0..4u16 {
            let v = 20.0 + (i % 7) as f64 + f64::from(s);
            out.push((SensorId(s), t, vec![v, v + 30.0]));
        }
    }
    out
}

fn template() -> GatewayConfig {
    let mut config = GatewayConfig::new("overwritten-per-partition");
    config.checkpoint_every = 8;
    config
}

/// Runs the stream through a two-partition fleet with `schedule`
/// applied before the first reading routes.
fn run_fleet(
    root: &std::path::Path,
    standbys: usize,
    drill: DrillPlan,
    schedule: impl FnOnce(&mut Federation<InProcessBackend>),
) -> sentinet_controller::FleetReport {
    let map = PartitionMap::split_even(4, 2).expect("non-degenerate");
    let backend = InProcessBackend::new(template(), root, 2, standbys, drill);
    let mut fed = Federation::new(map, FederationConfig::default(), backend).expect("bootstrap");
    schedule(&mut fed);
    for (sensor, time, values) in stream() {
        fed.route(sensor, time, &values).expect("route");
    }
    fed.finish().expect("finish")
}

/// Total readings per original partition (two sensors, 90 ticks).
const PER_PARTITION: u64 = 180;

#[test]
fn live_split_moves_the_range_without_losing_an_acked_reading() {
    let root = tmproot("split");
    let fleet = run_fleet(&root, 1, DrillPlan::new(), |fed| {
        fed.schedule_split(0, SensorId(1), 30).expect("valid split");
    });

    assert_eq!(fleet.partitions.len(), 3, "the split grew the fleet");
    assert_eq!(
        fleet.partitions[0].range,
        SensorRange { start: 0, end: 1 },
        "the source keeps the left half"
    );
    assert_eq!(
        fleet.partitions[2].range,
        SensorRange { start: 1, end: 2 },
        "the new partition owns the moved half"
    );
    assert_eq!(fleet.partitions[2].health, PartitionHealth::Ok);
    assert_eq!(fleet.partitions[2].epoch, 1);
    assert!(fleet
        .events
        .iter()
        .any(|e| matches!(e, FederationEvent::MigrationStarted { .. })));
    assert!(fleet
        .events
        .iter()
        .any(|e| matches!(e, FederationEvent::MigrationCompleted { .. })));
    assert_eq!(fleet.counters.migrations_started, 1);
    assert_eq!(fleet.counters.migrations_completed, 1);
    assert_eq!(fleet.counters.migrations_aborted, 0);
    // Conservation: across the cut, every reading of the original
    // partition is admitted exactly once — pre-cut on the source's
    // kept ledger, post-cut on whichever side owns its sensor.
    let moved = (fleet.partitions[0].report.ingest.accepted
        + fleet.partitions[2].report.ingest.accepted) as u64;
    assert_eq!(moved, PER_PARTITION, "no acked reading lost or doubled");
    assert!(
        fleet.partitions[2].report.ingest.accepted > 0,
        "ingest continued on the new owner after the handoff"
    );
    assert_eq!(
        fleet.partitions[1].report.ingest.accepted as u64, PER_PARTITION,
        "the bystander partition is untouched"
    );
    assert!(!fleet.degraded());
}

#[test]
fn kill_source_at_the_cut_matches_the_uninterrupted_migration_run() {
    let base = run_fleet(&tmproot("split-base"), 1, DrillPlan::new(), |fed| {
        fed.schedule_split(0, SensorId(1), 30).expect("valid split");
    });
    // The kill coordinate equals the migration trigger: the fault is
    // armed when the cut runs, so it lands on the cut itself — the
    // kill-source-mid-handoff drill.
    let drill = DrillPlan::new().with_fault(DrillFault {
        partition: 0,
        after_records: 30,
        fault: CollectorFault::Kill,
    });
    let fleet = run_fleet(&tmproot("split-kill"), 1, drill, |fed| {
        fed.schedule_split(0, SensorId(1), 30).expect("valid split");
    });

    assert_eq!(
        fleet.render_diagnosis(),
        base.render_diagnosis(),
        "kill at the cut + failover must reproduce the uninterrupted \
         migration diagnosis byte for byte"
    );
    assert_eq!(
        fleet.partitions[0].epoch, 2,
        "the source failed over mid-handoff"
    );
    assert_eq!(fleet.partitions[2].epoch, 1);
    assert_eq!(fleet.counters.migrations_completed, 1);
    assert_eq!(fleet.counters.migrations_aborted, 0);
    // The retried cut lands at the identical WAL coordinate.
    let cursor_of = |f: &sentinet_controller::FleetReport| {
        f.events.iter().find_map(|e| match e {
            FederationEvent::MigrationCompleted { cursor, .. } => Some(*cursor),
            _ => None,
        })
    };
    assert_eq!(cursor_of(&fleet), cursor_of(&base));
    assert!(!fleet.degraded());
}

#[test]
fn a_lost_first_adopt_climbs_the_fresh_ladder_to_epoch_2() {
    let split = |fed: &mut Federation<InProcessBackend>| {
        fed.schedule_split(0, SensorId(1), 30).expect("valid split");
    };
    let base = run_fleet(&tmproot("ladder-base"), 1, DrillPlan::new(), split);
    // Partition 2 is the split's new partition: a one-step network
    // partition on its epoch-1 link loses the very first adopt.
    let drill = DrillPlan::new().with_net(NetDrill {
        partition: 2,
        after_records: 0,
        span: 1,
        fault: NetFault::Partition,
    });
    let fleet = run_fleet(&tmproot("ladder-lost-adopt"), 1, drill, split);

    let rungs: Vec<(u32, u64)> = fleet
        .events
        .iter()
        .filter_map(|e| match e {
            FederationEvent::HandoffAttempt {
                partition: 2,
                attempt,
                epoch,
            } => Some((*attempt, *epoch)),
            _ => None,
        })
        .collect();
    assert_eq!(rungs, [(1, 1), (2, 2)], "attempt k starts epoch k");
    let completed_at = fleet.events.iter().find_map(|e| match e {
        FederationEvent::MigrationCompleted { dest: 2, epoch, .. } => Some(*epoch),
        _ => None,
    });
    assert_eq!(completed_at, Some(2), "the second rung adopted");
    assert_eq!(fleet.partitions[2].epoch, 2);
    assert_eq!(fleet.counters.migrations_completed, 1);
    assert_eq!(fleet.counters.migrations_aborted, 0);
    assert_eq!(
        fleet.render_diagnosis(),
        base.render_diagnosis(),
        "a lost adopt + retry must reproduce the undrilled migration diagnosis"
    );
    assert!(!fleet.degraded());
}

#[test]
fn rebalance_merges_the_range_into_the_adjacent_partition() {
    let root = tmproot("rebalance");
    let fleet = run_fleet(&root, 1, DrillPlan::new(), |fed| {
        fed.schedule_rebalance(1, 30);
    });

    assert_eq!(fleet.partitions.len(), 2);
    assert_eq!(
        fleet.partitions[0].range,
        SensorRange { start: 0, end: 4 },
        "the destination absorbed the moved range"
    );
    assert!(
        fleet.partitions[1].range.is_empty(),
        "the source ends the run owning nothing (got {})",
        fleet.partitions[1].range
    );
    assert_eq!(fleet.counters.migrations_completed, 1);
    let total = (fleet.partitions[0].report.ingest.accepted
        + fleet.partitions[1].report.ingest.accepted) as u64;
    assert_eq!(total, 2 * PER_PARTITION, "no acked reading lost or doubled");
    assert!(!fleet.degraded());
}

#[test]
fn kill_destination_at_the_adopt_matches_the_uninterrupted_run() {
    let base = run_fleet(&tmproot("rebalance-base"), 1, DrillPlan::new(), |fed| {
        fed.schedule_rebalance(1, 30);
    });
    // Partition 0 is the rebalance destination; its kill coordinate
    // equals its delivered count at trigger time, so the fault lands
    // on the adopt call — the kill-destination-mid-adopt drill.
    let drill = DrillPlan::new().with_fault(DrillFault {
        partition: 0,
        after_records: 30,
        fault: CollectorFault::Kill,
    });
    let fleet = run_fleet(&tmproot("rebalance-kill"), 1, drill, |fed| {
        fed.schedule_rebalance(1, 30);
    });

    assert_eq!(
        fleet.render_diagnosis(),
        base.render_diagnosis(),
        "kill at the adopt + failover must reproduce the uninterrupted \
         migration diagnosis byte for byte"
    );
    assert_eq!(
        fleet.partitions[0].epoch, 2,
        "the destination failed over mid-adopt"
    );
    assert_eq!(fleet.counters.migrations_completed, 1);
    assert!(!fleet.degraded());
}

#[test]
fn unsettleable_source_aborts_the_migration_and_keeps_the_map() {
    // Kill the source well before the trigger with no standby: by the
    // time the migration fires, the source cannot drain — the split
    // must abort, visibly, leaving the map exactly as it was.
    let drill = DrillPlan::new().with_fault(DrillFault {
        partition: 0,
        after_records: 20,
        fault: CollectorFault::Kill,
    });
    let fleet = run_fleet(&tmproot("abort"), 0, drill, |fed| {
        fed.schedule_split(0, SensorId(1), 30).expect("valid split");
    });

    assert_eq!(fleet.partitions.len(), 2, "the aborted split grew nothing");
    assert_eq!(fleet.partitions[0].range, SensorRange { start: 0, end: 2 });
    assert_eq!(fleet.counters.migrations_started, 1);
    assert_eq!(fleet.counters.migrations_completed, 0);
    assert_eq!(fleet.counters.migrations_aborted, 1);
    assert!(fleet
        .events
        .iter()
        .any(|e| matches!(e, FederationEvent::MigrationAborted { .. })));
    assert_eq!(fleet.partitions[0].health, PartitionHealth::Orphaned);
    // Fail-stop accounting still holds around the abort.
    assert_eq!(fleet.partitions[0].report.ingest.accepted, 20);
    assert!(fleet.degraded());
}

#[test]
fn degenerate_split_schedules_are_rejected_up_front() {
    let map = PartitionMap::split_even(4, 2).expect("non-degenerate");
    let backend = InProcessBackend::new(template(), tmproot("validate"), 2, 0, DrillPlan::new());
    let mut fed = Federation::new(map, FederationConfig::default(), backend).expect("bootstrap");
    for (p, at) in [
        (5, SensorId(1)),
        (0, SensorId(0)),
        (0, SensorId(2)),
        (0, SensorId(9)),
    ] {
        let err = fed.schedule_split(p, at, 0).expect_err("degenerate");
        assert!(
            matches!(err, FederationError::Migration { .. }),
            "schedule_split({p}, {at}) must fail typed (got {err})"
        );
    }
}
