//! `ingest-saturate` and `ingest-retain`: one pipelined v2 uplink
//! pushing a long narrow trace through the loopback server into the
//! durable collector as fast as the credit window allows, then a
//! reopen of the same directory.

use crate::host::{dir_bytes, discard};
use crate::inputs::{field, Field};
use crate::report::{EndToEnd, Metric};
use crate::span::Tracer;
use crate::Ctx;
use sentinet_core::PipelineReport;
use sentinet_gateway::{
    Collector, FsyncPolicy, GatewayConfig, GatewayReport, PipelinedConfig, PipelinedUplink,
    RecoveryInfo, Server, ServerConfig, ServerStats, StageTimings, UplinkStats,
};
use sentinet_sim::RawRecord;
use std::path::Path;
use std::time::{Duration, Instant};

pub const SENSORS: u16 = 10;
pub const DAYS: u64 = 56;
/// Readings per `DataBatch` frame and batches in flight, closed loop.
pub const BATCH: usize = 256;
pub const WINDOW: usize = 32;
/// The production-shaped durability policy every ingest workload uses.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Batch(64);
/// `ingest-retain`'s byte budget, sized to span several segments.
pub const RETAIN_BYTES: u64 = 64 * 1024;
pub const RETAIN_SEGMENT: u64 = 16 * 1024;
/// How long the benchmark's clients wait for an ack before they
/// retransmit. The uplink's default (500 ms) is tuned for a field
/// link; on a shared host a disk stall of that length happens, and it
/// should show as one slow rep, not as a retransmission storm. With
/// this patience a retransmit means the protocol lost something.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// Whether checkpoint-gated retention runs beside the appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    Off,
    On,
}

/// The collector configuration of the ingest workloads. Reorder and
/// checkpoint cadence follow the repo's own `sentinet-bench` ingest
/// rows: 256-reading batches arrive one sensor at a time, so the
/// watermark must span that skew and the buffer that burst, and a
/// restore point per 32 batches keeps the rows about the protocol, not
/// checkpoint IO.
pub fn gateway_config(
    dir: &Path,
    sample_period: u64,
    fsync: FsyncPolicy,
    retention: Retention,
) -> GatewayConfig {
    let mut config = GatewayConfig::new(dir);
    config.sample_period = sample_period;
    config.wal.fsync = fsync;
    if retention == Retention::On {
        config.wal.retain_bytes = Some(RETAIN_BYTES);
        config.wal.segment_max_bytes = RETAIN_SEGMENT;
    }
    config.reorder.watermark_delay = 2 * BATCH as u64 * sample_period;
    config.reorder.per_sensor_capacity = 4 * BATCH;
    config.checkpoint_every = 32 * BATCH as u64;
    config
}

pub struct Prepared {
    pub field: Field,
    /// The report of the same records fed one by one, in trace order,
    /// straight into an in-process collector.
    pub reference: PipelineReport,
}

pub fn prepare(ctx: &Ctx, seed: u64) -> Prepared {
    let field = field(SENSORS, DAYS, seed, None);
    let dir = ctx.scratch.fresh("reference");
    let config = gateway_config(
        &dir,
        field.sample_period,
        FsyncPolicy::Never,
        Retention::Off,
    );
    let reference = in_process_reference(config, &field.records);
    discard(&dir);
    Prepared { field, reference }
}

/// The v1 admission path, one `deliver` per record: an independent
/// route to the report the socket run must reproduce.
pub fn in_process_reference(config: GatewayConfig, records: &[RawRecord]) -> PipelineReport {
    let (mut collector, _) = Collector::open(config).expect("open reference collector");
    let mut seqs = std::collections::BTreeMap::new();
    for r in records {
        let seq = seqs.entry(r.sensor).or_insert(0u64);
        collector
            .deliver(r.sensor, *seq, r.time, r.values.clone())
            .expect("reference delivery");
        *seq += 1;
    }
    collector
        .finish()
        .expect("finish reference collector")
        .pipeline
}

/// What one socket run produced.
pub struct Served {
    pub wall_s: f64,
    pub report: GatewayReport,
    pub server: ServerStats,
    pub uplink: UplinkStats,
    pub stages: StageTimings,
}

/// One closed-loop run: clock from just before the first connect to
/// the return of `finish()`.
pub fn serve_closed_loop(config: GatewayConfig, records: &[RawRecord]) -> Served {
    let (mut collector, _) = Collector::open(config).expect("open collector");
    let server = Server::start(ServerConfig {
        credit_window: WINDOW as u32,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.addr().to_string();
    let start = Instant::now();
    let (server_stats, uplink) = std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            let mut config = PipelinedConfig::new(addr);
            config.transport.ack_timeout = ACK_TIMEOUT;
            config.batch_size = BATCH;
            config.max_inflight = WINDOW;
            let mut uplink = PipelinedUplink::new(config);
            for r in records {
                uplink
                    .send(r.sensor, r.time, &r.values)
                    .expect("durable send over loopback");
            }
            uplink.finish().expect("fin/finack")
        });
        let stats = server.run(&mut collector).expect("serve loopback stream");
        (stats, client.join().expect("uplink client thread"))
    });
    let stages = collector.stage_timings();
    let report = collector.finish().expect("finish collector");
    Served {
        wall_s: start.elapsed().as_secs_f64(),
        report,
        server: server_stats,
        uplink,
        stages,
    }
}

/// Readings the collector itself refused or dropped.
pub fn refused_readings(report: &GatewayReport) -> u64 {
    (report.ingest.rejected.len()
        + report.ingest.late
        + report.ingest.shed
        + report.storage.budget_shed
        + report.storage.storage_rejects) as u64
}

/// Readings that did not end up durably admitted and acknowledged.
pub fn failed_readings(report: &GatewayReport, uplink: &UplinkStats, sent: usize) -> u64 {
    // The v2 uplink counts acknowledged batches, not readings; a batch
    // it sent and never saw acknowledged is charged in full.
    let batches = uplink.frames_sent.saturating_sub(uplink.retransmits);
    let unacked = (batches.saturating_sub(uplink.acked) as usize * BATCH).min(sent);
    refused_readings(report) + uplink.nacks + unacked as u64
}

/// The checks every ingest report must pass, whoever drove it; empty
/// when all hold.
pub fn check_report(
    report: &GatewayReport,
    sent: usize,
    reference: &PipelineReport,
) -> Vec<String> {
    let mut why = Vec::new();
    if report.ingest.accepted != sent {
        why.push(format!(
            "accepted {} of {sent} readings",
            report.ingest.accepted
        ));
    }
    if !report.storage.is_clean() {
        why.push(format!("storage not clean: {:?}", report.storage));
    }
    if report.pipeline != *reference {
        why.push("pipeline report differs from the in-process reference".into());
    }
    why
}

/// The output checks of one closed-loop run; empty when all hold.
pub fn check_served(
    report: &GatewayReport,
    uplink: &UplinkStats,
    sent: usize,
    reference: &PipelineReport,
) -> Vec<String> {
    let mut why = check_report(report, sent, reference);
    if uplink.retransmits + uplink.timeouts > 0 {
        why.push(format!(
            "client retransmitted {} and timed out {} time(s)",
            uplink.retransmits, uplink.timeouts
        ));
    }
    why
}

/// Reopens `config`'s directory: the timed `Collector::open`, then the
/// reopened collector's own report.
pub fn reopen(config: GatewayConfig) -> (f64, RecoveryInfo, GatewayReport) {
    let start = Instant::now();
    let (collector, info) = Collector::open(config).expect("reopen collector");
    let seconds = start.elapsed().as_secs_f64();
    (
        seconds,
        info,
        collector.finish().expect("finish reopened collector"),
    )
}

pub fn run(ctx: &Ctx, retention: Retention) -> EndToEnd {
    let (prep, setup_s) = ctx.setup(|| prepare(ctx, ctx.seed));
    let f = &prep.field;
    let sent = f.records.len();
    let mut e = EndToEnd {
        readings_per_rep: sent as u64,
        trace_windows: f.windows,
        setup_s,
        ..EndToEnd::default()
    };
    let mut replayed = Vec::new();
    let mut recovery = Vec::new();
    ctx.reps(|rep| {
        let dir = ctx.scratch.fresh("ingest");
        let config = gateway_config(&dir, f.sample_period, FSYNC, retention);
        let served = serve_closed_loop(config.clone(), &f.records);
        e.rep_wall_s.push(served.wall_s);
        e.durable_bytes = dir_bytes(&dir);
        let (seconds, info, again) = reopen(config);
        recovery.push(seconds);
        replayed.push(info.replayed as f64);
        let mut why = check_served(&served.report, &served.uplink, sent, &prep.reference);
        if again.pipeline != served.report.pipeline {
            why.push("reopened collector reports differently".into());
        }
        if retention == Retention::On && info.restored_from.is_none() {
            why.push("reopen under retention did not restore from a checkpoint".into());
        }
        e.tally.add_rep(
            sent as u64,
            failed_readings(&served.report, &served.uplink, sent),
            why.is_empty(),
        );
        e.failures
            .extend(why.into_iter().map(|w| format!("rep {rep}: {w}")));
        discard(&dir);
    });
    e.recovery_s = Some(recovery);
    e.info
        .push(Metric::samples("recovery.replayed", "records", &replayed));
    e
}

/// One traced closed-loop rep. The server and the client run inside
/// the program, so from outside there are three calls to put spans
/// around — the serve, the finish and the reopen — and the program's
/// own public stage counters ride along as counts.
pub fn traced_rep(
    ctx: &Ctx,
    prep: &Prepared,
    retention: Retention,
    tracer: &mut Tracer,
    rep: u32,
) -> (Served, Vec<String>) {
    let f = &prep.field;
    let dir = ctx.scratch.fresh("ingest-traced");
    let config = gateway_config(&dir, f.sample_period, FSYNC, retention);
    let root = tracer.open("rep", None, rep);
    let span = tracer.open("server.serve", Some(root), rep);
    let served = serve_closed_loop(config.clone(), &f.records);
    tracer.close(span, f.records.len() as u64);
    record_stages(tracer, &served);
    let open = tracer.open("rep.reopen", Some(root), rep);
    let (_, _, again) = reopen(config);
    tracer.close(open, 1);
    tracer.close(root, 1);
    let mut why = check_served(
        &served.report,
        &served.uplink,
        f.records.len(),
        &prep.reference,
    );
    if again.pipeline != served.report.pipeline {
        why.push("reopened collector reports differently".into());
    }
    discard(&dir);
    let why = why.into_iter().map(|w| format!("rep {rep}: {w}")).collect();
    (served, why)
}

/// The program's public stage clocks of one served run, as counts.
pub fn record_stages(tracer: &mut Tracer, served: &Served) {
    tracer.count("server.decode_ns", served.server.decode_ns);
    tracer.count("server.ack_ns", served.server.ack_ns);
    tracer.count("collector.admission_ns", served.stages.admission_ns);
    tracer.count("collector.wal_append_ns", served.stages.wal_append_ns);
    tracer.count("collector.fsync_ns", served.stages.fsync_ns);
    tracer.count("client.retransmits", served.uplink.retransmits);
    tracer.count("client.timeouts", served.uplink.timeouts);
    tracer.count("client.nacks", served.uplink.nacks);
}
