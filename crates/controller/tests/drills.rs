//! In-process federation drills: deterministic kill / hang / poison
//! faults against real [`Collector`]s, one WAL directory per
//! partition, proving the handoff contract end to end:
//!
//! - failover rebuilds the dead owner's state from its checkpoint
//!   snapshot plus WAL-tail replay, and the merged fleet diagnosis is
//!   byte-identical to an uninterrupted baseline run;
//! - with no standby, the partition orphans fail-stop: every acked
//!   reading survives exactly once and every unacked reading is
//!   counted as a NACK, never silently dropped;
//! - drill plans replay to identical event logs.

use sentinet_controller::chaos::poison;
use sentinet_controller::{
    CollectorFault, DrillFault, DrillPlan, Federation, FederationConfig, FederationEvent,
    InProcessBackend, NetDrill, NetFault, PartitionHealth, PartitionMap,
};
use sentinet_gateway::{FaultSpec, GatewayConfig, StorageFault, VfsOp};
use sentinet_sim::SensorId;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmproot(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-fed-drill-{name}-{}-{}",
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

/// Gateway template shared by every drill: checkpoints every 8
/// records so adoptions genuinely restore from a snapshot.
fn template() -> GatewayConfig {
    let mut config = GatewayConfig::new("overwritten-per-partition");
    config.checkpoint_every = 8;
    config
}

/// Runs the whole stream through a two-partition fleet and returns
/// the finished report plus the adoption recovery info for p0.
fn run_fleet(
    root: &std::path::Path,
    standbys: usize,
    drill: DrillPlan,
) -> (
    sentinet_controller::FleetReport,
    Option<sentinet_gateway::RecoveryInfo>,
) {
    run_fleet_with(root, standbys, drill, template())
}

fn run_fleet_with(
    root: &std::path::Path,
    standbys: usize,
    drill: DrillPlan,
    template: GatewayConfig,
) -> (
    sentinet_controller::FleetReport,
    Option<sentinet_gateway::RecoveryInfo>,
) {
    let map = PartitionMap::split_even(4, 2).expect("non-degenerate");
    let backend = InProcessBackend::new(template, root, 2, standbys, drill);
    let mut fed = Federation::new(map, FederationConfig::default(), backend).expect("bootstrap");
    for (sensor, time, values) in stream() {
        fed.route(sensor, time, &values).expect("route");
    }
    let recovery = fed.backend().recovery(0).cloned();
    let report = fed.finish().expect("finish");
    (report, recovery)
}

fn baseline() -> sentinet_controller::FleetReport {
    let root = tmproot("baseline");
    run_fleet(&root, 0, DrillPlan::new()).0
}

#[test]
fn kill_failover_diagnosis_is_byte_identical_to_baseline() {
    let base = baseline();
    let root = tmproot("kill");
    let drill = DrillPlan::new().with_fault(DrillFault {
        partition: 0,
        after_records: 20,
        fault: CollectorFault::Kill,
    });
    let (fleet, recovery) = run_fleet(&root, 1, drill);

    assert_eq!(
        fleet.render_diagnosis(),
        base.render_diagnosis(),
        "kill + failover must reproduce the uninterrupted diagnosis byte for byte"
    );
    let kinds: Vec<&str> = fleet
        .events
        .iter()
        .map(|e| match e {
            FederationEvent::Suspect { .. } => "suspect",
            FederationEvent::Dead { .. } => "dead",
            FederationEvent::HandoffAttempt { .. } => "attempt",
            FederationEvent::FailedOver { .. } => "failed-over",
            other => panic!("unexpected event {other}"),
        })
        .collect();
    assert_eq!(kinds, ["suspect", "dead", "attempt", "failed-over"]);
    let p0 = &fleet.partitions[0];
    assert_eq!(p0.health, PartitionHealth::Ok);
    assert_eq!(p0.epoch, 2, "the standby owns epoch 2");
    assert_eq!(p0.failovers, 1);
    assert_eq!(p0.orphan_nacks, 0);
    assert!(p0.redelivered > 0, "the routed log was redelivered");
    // With the full log still present, adoption replays it and
    // verifies the dead owner's checkpoint snapshot bit-exactly
    // (checkpoint_every = 8, 20 admitted records → a checkpoint
    // existed). The reclaimed-prefix restore path gets its own drill
    // below.
    let info = recovery.expect("p0 was adopted");
    assert!(
        info.replayed > 0,
        "adoption must replay the WAL tail (got {info:?})"
    );
    assert!(
        info.verified_cursor.is_some(),
        "adoption must verify the checkpoint snapshot (got {info:?})"
    );
    assert!(!fleet.degraded(), "a successful failover is not degraded");
}

#[test]
fn dead_is_declared_within_the_silence_deadline() {
    let root = tmproot("deadline");
    let drill = DrillPlan::new().with_fault(DrillFault {
        partition: 0,
        after_records: 20,
        fault: CollectorFault::Kill,
    });
    let (fleet, _) = run_fleet(&root, 1, drill);
    let (suspect_at, dead_at, last, deadline) =
        fleet
            .events
            .iter()
            .fold((None, None, None, 0), |acc, e| match *e {
                FederationEvent::Suspect { at, .. } => (Some(at), acc.1, acc.2, acc.3),
                FederationEvent::Dead {
                    at,
                    last_acked,
                    deadline,
                    ..
                } => (acc.0, Some(at), last_acked, deadline),
                _ => acc,
            });
    let suspect_at = suspect_at.expect("suspect event");
    let dead_at = dead_at.expect("dead event");
    let last = last.expect("the drilled owner acked before dying");
    assert!(
        dead_at.saturating_sub(last) > deadline,
        "death needs an elapsed deadline"
    );
    // Detection is prompt: within one sampling tick past the deadline.
    assert!(
        dead_at.saturating_sub(last) <= deadline + 300,
        "death declared late: last acked t={last}, dead at t={dead_at}, deadline {deadline}"
    );
    assert!(suspect_at <= dead_at);
}

#[test]
fn hang_and_poison_failovers_match_the_baseline() {
    let base = baseline();
    let hang = DrillFault {
        partition: 0,
        after_records: 15,
        fault: CollectorFault::Hang,
    };
    for (name, drill) in [
        ("hang", DrillPlan::new().with_fault(hang)),
        ("poison", DrillPlan::new().with_disk(0, poison(15))),
    ] {
        let root = tmproot(name);
        let (fleet, _) = run_fleet(&root, 1, drill);
        assert_eq!(
            fleet.render_diagnosis(),
            base.render_diagnosis(),
            "{name} + failover must reproduce the uninterrupted diagnosis"
        );
        assert_eq!(fleet.partitions[0].epoch, 2, "{name}: standby owns epoch 2");
        assert!(!fleet.degraded());
    }
}

/// A poison and a second disk fault on one owner are one storage plan:
/// an fsync failure at an occurrence the stream never reaches leaves
/// the poison (ENOSPC on append 16) to fire, and the owner fails over.
#[test]
fn a_poison_beside_another_disk_fault_still_fires() {
    let base = baseline();
    let unreached = FaultSpec {
        path: String::new(),
        op: VfsOp::Fsync,
        nth: 10_000,
        kind: StorageFault::FsyncFail,
        count: 1,
    };
    let drill = DrillPlan::new()
        .with_disk(0, poison(15))
        .with_disk(0, unreached);
    let (fleet, _) = run_fleet(&tmproot("poison-disk"), 1, drill);
    assert_eq!(
        fleet.partitions[0].epoch, 2,
        "the poison fired: p0 failed over"
    );
    assert_eq!(fleet.render_diagnosis(), base.render_diagnosis());
    assert!(!fleet.degraded());
}

#[test]
fn orphaned_partition_nacks_and_loses_no_acked_reading() {
    let root = tmproot("orphan");
    let drill = DrillPlan::new().with_fault(DrillFault {
        partition: 0,
        after_records: 20,
        fault: CollectorFault::Kill,
    });
    // No standby: the handoff must exhaust its attempts and orphan.
    let (fleet, _) = run_fleet(&root, 0, drill);

    let p0 = &fleet.partitions[0];
    assert_eq!(p0.health, PartitionHealth::Orphaned);
    assert!(
        fleet
            .events
            .iter()
            .any(|e| matches!(e, FederationEvent::Orphaned { .. })),
        "the orphan condition must be visible in the event log"
    );
    assert!(
        fleet.degraded() && fleet.flagged(),
        "orphaning is a degraded, flagged state"
    );

    // Fail-stop, not lossy: exactly the 20 acked readings survive in
    // the WAL — none lost, none double-counted — and every other
    // routed reading for the partition is accounted as a NACK.
    let per_partition = stream().iter().filter(|(s, _, _)| s.0 < 2).count();
    assert_eq!(
        p0.report.ingest.accepted, 20,
        "every acked reading survives exactly once"
    );
    assert_eq!(
        p0.report.ingest.duplicates, 0,
        "no acked reading is double-counted"
    );
    assert_eq!(
        p0.orphan_nacks,
        per_partition as u64 - 20,
        "every unacked reading is NACKed, not dropped"
    );

    // The healthy partition is untouched.
    let p1 = &fleet.partitions[1];
    assert_eq!(p1.health, PartitionHealth::Ok);
    assert_eq!(p1.report.ingest.accepted, per_partition);
}

#[test]
fn reclaimed_wal_forces_a_true_snapshot_restore_on_adoption() {
    // Small segments under a retention budget: by the kill coordinate
    // the checkpointed prefix has been reclaimed, so the adopting
    // standby cannot cold-replay — it must rebuild state from the
    // checkpoint-v2 snapshot and replay only the surviving tail. The
    // budget is generous enough that nothing is ever shed, so the
    // diagnosis still matches the uninterrupted baseline byte for
    // byte.
    let mut config = template();
    config.wal.segment_max_bytes = 256;
    config.wal.retain_bytes = Some(2048);
    let base = {
        let root = tmproot("retain-base");
        run_fleet_with(&root, 0, DrillPlan::new(), config.clone()).0
    };
    let root = tmproot("retain-kill");
    let drill = DrillPlan::new().with_fault(DrillFault {
        partition: 0,
        after_records: 120,
        fault: CollectorFault::Kill,
    });
    let (fleet, recovery) = run_fleet_with(&root, 1, drill, config);
    let info = recovery.expect("p0 was adopted");
    assert!(
        info.restored_from.is_some(),
        "a reclaimed log must force a snapshot restore (got {info:?})"
    );
    assert_eq!(fleet.render_diagnosis(), base.render_diagnosis());
    assert_eq!(fleet.partitions[0].epoch, 2);
    for p in &fleet.partitions {
        assert_eq!(p.report.storage.budget_shed, 0, "the drill must not shed");
    }
}

/// Runs the stream through a two-partition fleet under an explicit
/// federation config (the hysteresis drills need `suspect_after`).
fn run_fleet_config(
    root: &std::path::Path,
    standbys: usize,
    drill: DrillPlan,
    config: FederationConfig,
) -> sentinet_controller::FleetReport {
    let map = PartitionMap::split_even(4, 2).expect("non-degenerate");
    let backend = InProcessBackend::new(template(), root, 2, standbys, drill);
    let mut fed = Federation::new(map, config, backend).expect("bootstrap");
    for (sensor, time, values) in stream() {
        fed.route(sensor, time, &values).expect("route");
    }
    fed.finish().expect("finish")
}

#[test]
fn sub_threshold_miss_heals_as_a_counted_flap_not_a_failover() {
    let base = baseline();
    let root = tmproot("flap");
    // One lost send on p0's link: under suspect_after = 2 the retry
    // heals in place — no suspicion, no fencing, no failover.
    let drill = DrillPlan::new().with_net(NetDrill {
        partition: 0,
        after_records: 10,
        span: 1,
        fault: NetFault::Partition,
    });
    let config = FederationConfig {
        suspect_after: 2,
        ..FederationConfig::default()
    };
    // Zero standbys: any failover would orphan and fail the asserts.
    let fleet = run_fleet_config(&root, 0, drill, config);

    assert!(
        fleet.events.is_empty(),
        "a flap must not reach the health machine (got {:?})",
        fleet.events
    );
    let p0 = &fleet.partitions[0];
    assert_eq!(p0.health, PartitionHealth::Ok);
    assert_eq!(p0.epoch, 1, "no failover happened");
    assert_eq!(p0.failovers, 0);
    assert_eq!(p0.flaps, 1, "the healed miss streak is counted");
    assert_eq!(fleet.counters.flaps, 1, "flaps surface in fleet counters");
    assert_eq!(fleet.partitions[1].flaps, 0);
    assert_eq!(
        fleet.render_diagnosis(),
        base.render_diagnosis(),
        "a flap must not perturb the diagnosis"
    );
    assert_eq!(p0.acked, p0.routed, "everything still lands durably");
}

#[test]
fn default_threshold_still_suspects_on_the_first_miss() {
    // suspect_after defaults to 1 — the pre-hysteresis behaviour:
    // the same single lost send commits suspicion and fails over.
    let root = tmproot("flap-default");
    let drill = DrillPlan::new().with_net(NetDrill {
        partition: 0,
        after_records: 10,
        span: 1,
        fault: NetFault::Partition,
    });
    let fleet = run_fleet_config(&root, 1, drill, FederationConfig::default());
    let p0 = &fleet.partitions[0];
    assert_eq!(p0.epoch, 2, "the first miss fails over under the default");
    assert_eq!(p0.failovers, 1);
    assert_eq!(p0.flaps, 0);
    assert_eq!(fleet.counters.flaps, 0);
}

#[test]
fn drill_plans_replay_to_identical_runs() {
    let plan = DrillPlan::new()
        .with_fault(DrillFault {
            partition: 1,
            after_records: 33,
            fault: CollectorFault::Hang,
        })
        .with_disk(0, poison(25));
    assert!(!plan.is_empty());
    let (a, _) = run_fleet(&tmproot("seed-a"), 2, plan.clone());
    let (b, _) = run_fleet(&tmproot("seed-b"), 2, plan);
    assert_eq!(a.events, b.events, "same plan, same events");
    assert_eq!(a.render_diagnosis(), b.render_diagnosis());
    assert_eq!(a.render_accounting(), b.render_accounting());
}
