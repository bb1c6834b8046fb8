//! `federate`: a 40-sensor field routed reading by reading through an
//! in-process four-collector federation, with scheduled live
//! migrations holding the stream while a range changes hands.

use crate::host::{dir_bytes, discard};
use crate::ingest::{gateway_config, Retention, FSYNC};
use crate::inputs::{field, Field};
use crate::report::{EndToEnd, Metric};
use crate::Ctx;
use sentinet_controller::{
    replay_report, DrillPlan, Federation, FederationConfig, FleetReport, InProcessBackend,
    PartitionMap,
};
use sentinet_core::{Diagnosis, RecoveryAction};
use sentinet_gateway::{FsyncPolicy, GatewayConfig};
use sentinet_sim::{RawRecord, SensorId};
use std::path::Path;
use std::time::Instant;

pub const SENSORS: u16 = 40;
pub const DAYS: u64 = 5;
pub const PARTITIONS: usize = 4;
/// Scheduled handoffs per rep: two splits, each followed by a
/// rebalance of the split-off half back into its neighbour.
pub const MIGRATIONS: u64 = 4;

/// The per-partition collector template: exactly the collector the
/// ingest workloads run, so the federation's numbers sit on the same
/// ladder as theirs.
pub fn template(sample_period: u64, fsync: FsyncPolicy) -> GatewayConfig {
    gateway_config(
        Path::new("overwritten-per-partition"),
        sample_period,
        fsync,
        Retention::Off,
    )
}

/// The diagnosis half of a fleet report with the partition layout
/// taken out: per sensor, in sensor order, what was diagnosed, when its
/// tracks opened and closed, and what the recovery plan says. A
/// migration changes which collector holds a sensor, never what is
/// concluded about it.
pub type FleetDiagnosis = Vec<(
    SensorId,
    Diagnosis,
    Vec<(u64, Option<u64>)>,
    Option<RecoveryAction>,
)>;

pub fn fleet_diagnosis(fleet: &FleetReport) -> FleetDiagnosis {
    let mut out: FleetDiagnosis = fleet
        .partitions
        .iter()
        .flat_map(|p| {
            p.report.pipeline.sensors.iter().map(|s| {
                let action = p
                    .report
                    .plan
                    .actions
                    .iter()
                    .find(|(id, _)| *id == s.sensor)
                    .map(|(_, a)| a.clone());
                (s.sensor, s.diagnosis.clone(), s.tracks.clone(), action)
            })
        })
        .collect();
    out.sort_by_key(|(s, ..)| *s);
    out
}

pub struct Prepared {
    pub field: Field,
    /// What a migration-free run of the same stream concludes.
    pub reference: FleetDiagnosis,
}

pub fn prepare(ctx: &Ctx, seed: u64) -> Prepared {
    let field = field(SENSORS, DAYS, seed, None);
    let root = ctx.scratch.fresh("fleet-reference");
    // The reference is about what is concluded, not about durability:
    // without fsyncs the set-up does not price the disk.
    let run = route_all(&root, &field, &field.records, FsyncPolicy::Never, 0, false);
    discard(&root);
    Prepared {
        field,
        reference: fleet_diagnosis(&run.fleet),
    }
}

/// Schedules `migrations` handoffs spread evenly over the stream: for
/// each pair, split partition `k` at its sensor midpoint, then move
/// the split-off half (a new partition) back. Trigger points count
/// readings routed to the source partition.
fn schedule(
    fed: &mut Federation<InProcessBackend>,
    mids: &[SensorId],
    readings: usize,
    migrations: u64,
) {
    let per_partition = readings / PARTITIONS;
    let slots = migrations as usize + 1;
    for m in 0..migrations {
        let pair = (m / 2) as usize;
        if m % 2 == 0 {
            // The k-th handoff fires (k+1)/(migrations+1) of the way
            // through the source partition's share of the stream.
            fed.schedule_split(pair, mids[pair], per_partition * (m as usize + 1) / slots)
                .expect("split point inside the partition");
        } else {
            // The split-off partition counts from its own first
            // reading and carries half the sensors: half the readings
            // of one gap between handoffs.
            fed.schedule_rebalance(PARTITIONS + pair, per_partition / 2 / slots);
        }
    }
}

/// What one routed run produced.
pub struct Routed {
    /// First `route` to the return of `finish()`.
    pub wall_s: f64,
    /// The `finish()` call alone.
    pub finish_s: f64,
    pub fleet: FleetReport,
    /// Milliseconds of each `route` call across which a migration
    /// completed.
    pub pauses_ms: Vec<f64>,
    /// Nanoseconds of every `route` call, when asked for.
    pub route_ns: Vec<u32>,
}

/// Routes `records` through a fresh in-process fleet under `root`. One
/// clock read per reading: a call's duration is the gap between
/// consecutive reads, so the routing loop costs the run one `Instant`
/// per reading and nothing else.
pub fn route_all(
    root: &Path,
    field: &Field,
    records: &[RawRecord],
    fsync: FsyncPolicy,
    migrations: u64,
    keep_calls: bool,
) -> Routed {
    let backend = InProcessBackend::new(
        template(field.sample_period, fsync),
        root,
        PARTITIONS,
        0,
        DrillPlan::new(),
    )
    .with_pipelined(true);
    let map =
        PartitionMap::split_even(field.sensors, PARTITIONS).expect("non-degenerate partition map");
    let mids: Vec<SensorId> = (0..PARTITIONS)
        .map(|p| {
            let range = map.range(p);
            SensorId(range.start + range.len() / 2)
        })
        .collect();
    let mut fed =
        Federation::new(map, FederationConfig::default(), backend).expect("bootstrap fleet");
    schedule(&mut fed, &mids, records.len(), migrations);
    let mut pauses_ms = Vec::new();
    let mut route_ns = Vec::with_capacity(if keep_calls { records.len() } else { 0 });
    let mut completed = 0;
    let start = Instant::now();
    let mut last = start;
    for r in records {
        fed.route(r.sensor, r.time, &r.values)
            .expect("routable sensor");
        let now = Instant::now();
        let took = now - last;
        last = now;
        if keep_calls {
            route_ns.push(took.as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        let done = fed.migration_totals().1;
        if done != completed {
            completed = done;
            pauses_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    let fleet = fed.finish().expect("finish fleet");
    let end = Instant::now();
    Routed {
        wall_s: (end - start).as_secs_f64(),
        finish_s: (end - last).as_secs_f64(),
        fleet,
        pauses_ms,
        route_ns,
    }
}

/// Readings the fleet refused, dropped or never admitted.
pub fn failed_readings(fleet: &FleetReport, sent: usize) -> u64 {
    let c = &fleet.counters;
    let orphaned: u64 = fleet.partitions.iter().map(|p| p.orphan_nacks).sum();
    let refused = c.nacks
        + c.sanitizer_rejects
        + c.late
        + c.shed
        + c.budget_shed
        + c.storage_rejects
        + orphaned;
    refused + (sent as u64).saturating_sub(c.accepted)
}

/// The output checks of one federated rep; empty when all hold.
pub fn check(run: &Routed, prep: &Prepared, migrations: u64) -> Vec<String> {
    let mut why = Vec::new();
    let c = &run.fleet.counters;
    if fleet_diagnosis(&run.fleet) != prep.reference {
        why.push("fleet diagnosis differs from the migration-free run".into());
    }
    if c.migrations_completed != migrations || c.migrations_aborted != 0 {
        why.push(format!(
            "{} of {migrations} migrations completed, {} aborted",
            c.migrations_completed, c.migrations_aborted
        ));
    }
    if c.accepted != prep.field.records.len() as u64 {
        why.push(format!(
            "fleet accepted {} of {} readings",
            c.accepted,
            prep.field.records.len()
        ));
    }
    if run.fleet.degraded() {
        why.push("fleet finished degraded".into());
    }
    why
}

/// Restart-to-serving for the fleet: replay every partition directory
/// the run left behind, one after another.
pub fn reopen_fleet(root: &Path, sample_period: u64, partitions: usize) -> f64 {
    let template = template(sample_period, FSYNC);
    let start = Instant::now();
    for p in 0..partitions {
        replay_report(&template, &root.join(format!("p{p}"))).expect("replay partition");
    }
    start.elapsed().as_secs_f64()
}

pub fn fleet_bytes(root: &Path, partitions: usize) -> u64 {
    (0..partitions)
        .map(|p| dir_bytes(&root.join(format!("p{p}"))))
        .sum()
}

pub fn run(ctx: &Ctx) -> EndToEnd {
    let (prep, setup_s) = ctx.setup(|| prepare(ctx, ctx.seed));
    let f = &prep.field;
    let sent = f.records.len();
    let mut e = EndToEnd {
        readings_per_rep: sent as u64,
        trace_windows: f.windows,
        setup_s,
        ..EndToEnd::default()
    };
    let mut pauses = Vec::new();
    let mut finish = Vec::new();
    let mut recovery = Vec::new();
    ctx.reps(|rep| {
        let root = ctx.scratch.fresh("fleet");
        let run = route_all(&root, f, &f.records, FSYNC, MIGRATIONS, false);
        e.rep_wall_s.push(run.wall_s);
        finish.push(run.finish_s);
        let partitions = run.fleet.partitions.len();
        e.durable_bytes = fleet_bytes(&root, partitions);
        recovery.push(reopen_fleet(&root, f.sample_period, partitions));
        let why = check(&run, &prep, MIGRATIONS);
        pauses.extend(run.pauses_ms.iter().copied());
        e.tally.add_rep(
            sent as u64,
            failed_readings(&run.fleet, sent),
            why.is_empty(),
        );
        e.failures
            .extend(why.into_iter().map(|w| format!("rep {rep}: {w}")));
        discard(&root);
    });
    // How long the stream holds for one handoff: information, like
    // everything this workload times (see the README).
    if !pauses.is_empty() {
        e.info
            .push(Metric::samples("migration_pause_ms", "ms", &pauses));
    }
    e.recovery_s = Some(recovery);
    e.info
        .push(Metric::samples("federation.finish_s", "s", &finish));
    e
}
