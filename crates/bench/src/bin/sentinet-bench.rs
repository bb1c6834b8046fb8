//! `sentinet-bench` — headline throughput table for the sharded
//! engine, written as machine-readable JSON.
//!
//! Usage: `cargo run --release -p sentinet-bench --bin sentinet-bench
//! -- [out.json]` (default `BENCH_engine.json` in the current
//! directory).
//!
//! For each network size (10/100/1000 sensors) the harness times the
//! serial `sentinet_core::Pipeline` and the `sentinet_engine::Engine`
//! at 1/2/4/8 shards over the same fixed-seed GDI-like trace, and
//! reports windows/sec and delivered readings/sec (best of
//! `REPS` runs, so transient noise doesn't pollute the table). The
//! host core count is recorded alongside the numbers: shard speedups
//! are only physically possible when `host_cpus > 1`, so a single-core
//! run honestly shows the coordination overhead instead.
//!
//! Trailing `ingest` rows time traces through the durable gateway —
//! real loopback TCP, WAL append before every ack — under both wire
//! protocols: `batch: "off"` rows use the stop-and-wait v1 uplink
//! (one Data frame, one ack per reading), `batch: "256x32"` rows use
//! the pipelined v2 uplink (256-reading `DataBatch` frames, a
//! 32-batch credit window, cumulative `AckUpTo` acks released only
//! after the covering group fsync). Each protocol is swept over
//! `fsync: never` / `batch:64` and a `--wal-retain-bytes`-style
//! budget (checkpoint-gated segment reclaim), so both the cost of
//! durability and the recovery of pipelining are measured, not
//! guessed. A final `ingest_stages` object breaks the pipelined
//! `batch:64` run down by stage (decode / admission / WAL encode /
//! WAL append / fsync / checkpoint / ack wall time, plus `other_s` for the
//! uninstrumented remainder); the stages sum to `total_s` — the wall time of the rep
//! they came from — and `bench-check` rejects documents where they
//! drift more than 10% apart. `fsync_s` is the time the server's event
//! loop was *blocked* in fsync calls (forced flushes, segment seals);
//! the policy fsyncs its syncer thread overlaps with admission are
//! reported beside it as `fsync_overlapped_s`, outside the sum.
//! `checkpoint_s` is what is left of each periodic restore point on
//! that loop — the reclaim plan and the snapshot; its encode, write
//! and rename-commit run on the syncer too and are reported as
//! `checkpoint_overlapped_s`, outside the sum as well.
//! `wal_encode_s` is cutting each batch's WAL extent into frames and
//! encoding them, CRC included; `wal_append_s` is the write calls.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_engine::Engine;
use sentinet_gateway::{
    trace_to_raw, Collector, FsyncPolicy, GatewayConfig, PipelinedConfig, PipelinedUplink,
    SensorUplink, Server, ServerConfig, StageTimings, UplinkConfig, UplinkStats,
};
use sentinet_sim::{gdi, simulate, RawRecord, SensorId, Trace, DAY_S};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;
/// WAL budget for the retention-on ingest row, with segments sized so
/// the budget spans several sealed segments.
const RETAIN_BUDGET: u64 = 64 * 1024;
const RETAIN_SEGMENT: u64 = 16 * 1024;

/// Pipelined-protocol shape for the batched ingest rows.
const PIPE_BATCH: usize = 256;
const PIPE_WINDOW: usize = 32;

struct Row {
    sensors: u16,
    days: u64,
    mode: String,
    /// `Some` only for ingest rows: the WAL fsync policy under test.
    fsync: Option<String>,
    /// `Some` only for ingest rows: `"off"` or the byte budget of
    /// checkpoint-gated WAL retention.
    retention: Option<String>,
    /// `Some` only for ingest rows: `"off"` for the stop-and-wait v1
    /// uplink, `"<batch>x<window>"` for the pipelined v2 uplink.
    batch: Option<String>,
    shards: usize,
    readings: usize,
    windows: u64,
    seconds: f64,
}

/// Per-stage wall time (seconds) from one ingest run. `other_s` is the
/// uninstrumented remainder (socket waits, thread handoff, pipeline
/// flush) so the stages sum to `total_s`, the wall time of the same
/// rep the breakdown was taken from — `bench-check` enforces that sum.
#[derive(Clone, Copy, Default)]
struct Stages {
    decode_s: f64,
    admission_s: f64,
    /// Cutting and encoding WAL extents (CRC included), before the
    /// write call.
    wal_encode_s: f64,
    wal_append_s: f64,
    /// Event loop blocked inside inline fsyncs (additive).
    fsync_s: f64,
    /// Syncer thread inside overlapped fsyncs (information only: it
    /// runs beside the other stages, so it is not part of the sum).
    fsync_overlapped_s: f64,
    /// Event loop inside restore points, after their WAL sync.
    checkpoint_s: f64,
    /// Syncer thread inside restore-point commits (information only).
    checkpoint_overlapped_s: f64,
    ack_s: f64,
    other_s: f64,
    total_s: f64,
}

fn wide_trace(num_sensors: u16, days: u64, seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.num_sensors = num_sensors;
    cfg.duration = days * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    (trace, cfg.sample_period)
}

/// Best-of-`REPS` wall time for `f`, which returns the window count.
fn time_best<F: FnMut() -> u64>(mut f: F) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut windows = 0;
    for _ in 0..REPS {
        let start = Instant::now();
        windows = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (windows, best)
}

/// Best-of-`REPS` wall time for the full durable ingest path: a real
/// loopback TCP server, an uplink delivering every record in order,
/// WAL append before each ack, and the final pipeline flush + sync.
/// The clock covers first connect through `finish()`. `pipelined`
/// selects the v2 batched/credit-windowed uplink over stop-and-wait;
/// the returned [`Stages`] breakdown comes from the fastest rep.
fn time_ingest(
    records: &[RawRecord],
    sample_period: u64,
    fsync: FsyncPolicy,
    retain: Option<u64>,
    pipelined: bool,
) -> (u64, f64, Stages) {
    let mut best = f64::INFINITY;
    let mut windows = 0;
    let mut stages = Stages::default();
    for rep in 0..REPS {
        let dir = std::env::temp_dir().join(format!(
            "sentinet-bench-ingest-{}-{fsync}-{}-{}-{rep}",
            std::process::id(),
            retain.map_or(0, |b| b),
            if pipelined { "pipe" } else { "saw" },
        ));
        // sentinet-allow(io-outside-vfs): bench scratch-dir cleanup, not
        // gateway-durable state.
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(&dir);
        config.wal.fsync = fsync;
        if let Some(budget) = retain {
            config.wal.retain_bytes = Some(budget);
            config.wal.segment_max_bytes = RETAIN_SEGMENT;
        }
        if pipelined {
            // Batching delivers each sensor in bursts spanning
            // `PIPE_BATCH × sample_period` stream-seconds; the reorder
            // watermark must cover that skew and the buffer must hold
            // the burst, or same-era readings of other sensors drop
            // as late.
            config.reorder.watermark_delay = 2 * PIPE_BATCH as u64 * sample_period;
            config.reorder.per_sensor_capacity = 4 * PIPE_BATCH;
            // A per-record checkpoint cadence sized for stop-and-wait
            // becomes one full snapshot per batch at 256-reading
            // frames; scale it to one restore point per 32 batches
            // (every ~15ms of wall time at the measured rate) so the
            // rows measure the protocol, not checkpoint IO.
            config.checkpoint_every = 32 * PIPE_BATCH as u64;
        }
        let (mut collector, _) = Collector::open(config).expect("open gateway collector");
        let server = Server::start(ServerConfig {
            credit_window: PIPE_WINDOW as u32,
            ..ServerConfig::default()
        })
        .expect("bind loopback server");
        let addr = server.addr().to_string();
        let client_records = records.to_vec();
        let start = Instant::now();
        // sentinet-allow(thread-spawn): the bench client must run concurrently
        // with the server it is timing; all I/O goes through the gateway's
        // own uplink.
        let client = std::thread::spawn(move || -> UplinkStats {
            if pipelined {
                let mut config = PipelinedConfig::new(addr);
                config.batch_size = PIPE_BATCH;
                config.max_inflight = PIPE_WINDOW;
                let mut uplink = PipelinedUplink::new(config);
                for r in &client_records {
                    uplink
                        .send(r.sensor, r.time, &r.values)
                        .expect("durable send over loopback");
                }
                uplink.finish().expect("fin/finack")
            } else {
                let mut uplink = SensorUplink::new(UplinkConfig::new(addr));
                let mut seqs: BTreeMap<SensorId, u64> = BTreeMap::new();
                for r in &client_records {
                    let seq = seqs.entry(r.sensor).or_insert(0);
                    uplink
                        .send_at(r.sensor, *seq, r.time, &r.values)
                        .expect("durable send over loopback");
                    *seq += 1;
                }
                let stats = uplink.stats();
                uplink.finish().expect("fin/finack");
                stats
            }
        });
        let server_stats = server.run(&mut collector).expect("serve loopback stream");
        let uplink_stats = client.join().expect("uplink client thread");
        let timings: StageTimings = collector.stage_timings();
        let mut report = collector.finish().expect("finish gateway run");
        report.uplink = Some(uplink_stats);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < best {
            best = elapsed;
            let ns = |n: u64| n as f64 / 1e9;
            let instrumented = ns(server_stats.decode_ns)
                + ns(timings.admission_ns)
                + ns(timings.wal_encode_ns)
                + ns(timings.wal_append_ns)
                + ns(timings.sync_blocked_ns)
                + ns(timings.checkpoint_ns)
                + ns(server_stats.ack_ns);
            stages = Stages {
                decode_s: ns(server_stats.decode_ns),
                admission_s: ns(timings.admission_ns),
                wal_encode_s: ns(timings.wal_encode_ns),
                wal_append_s: ns(timings.wal_append_ns),
                fsync_s: ns(timings.sync_blocked_ns),
                fsync_overlapped_s: ns(timings.fsync_ns - timings.sync_blocked_ns),
                checkpoint_s: ns(timings.checkpoint_ns),
                checkpoint_overlapped_s: ns(timings.checkpoint_overlapped_ns),
                ack_s: ns(server_stats.ack_ns),
                other_s: (elapsed - instrumented).max(0.0),
                total_s: elapsed,
            };
        }
        assert_eq!(
            report.ingest.accepted,
            records.len(),
            "ingest bench must accept every delivered record (uplink {:?})",
            report.uplink,
        );
        windows = report.pipeline.windows_processed;
        // sentinet-allow(io-outside-vfs): bench scratch-dir cleanup, not
        // gateway-durable state.
        let _ = std::fs::remove_dir_all(&dir);
    }
    (windows, best, stages)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".into());
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rows: Vec<Row> = Vec::new();

    // Fewer days for the wider networks keeps total runtime bounded
    // while every cell still processes thousands of windows.
    for &(sensors, days) in &[(10u16, 7u64), (100, 2), (1000, 1)] {
        let (trace, period) = wide_trace(sensors, days, 42);
        let delivered = trace.delivered().count();
        eprintln!("— {sensors} sensors, {days} day(s), {delivered} delivered readings");

        let (windows, seconds) = time_best(|| {
            let mut p = Pipeline::new(PipelineConfig::default(), period);
            p.process_trace(&trace);
            p.windows_processed()
        });
        eprintln!(
            "  serial: {:.3}s ({:.0} readings/s)",
            seconds,
            delivered as f64 / seconds
        );
        rows.push(Row {
            sensors,
            days,
            mode: "serial".into(),
            fsync: None,
            retention: None,
            batch: None,
            shards: 0,
            readings: delivered,
            windows,
            seconds,
        });

        for shards in SHARD_COUNTS {
            let engine = Engine::new(PipelineConfig::default(), period, shards);
            let (windows, seconds) = time_best(|| {
                engine
                    .process_trace(&trace)
                    .expect("healthy run")
                    .windows_processed()
            });
            eprintln!(
                "  engine x{shards}: {:.3}s ({:.0} readings/s)",
                seconds,
                delivered as f64 / seconds
            );
            rows.push(Row {
                sensors,
                days,
                mode: "engine".into(),
                fsync: None,
                retention: None,
                batch: None,
                shards,
                readings: delivered,
                windows,
                seconds,
            });
        }
    }

    // Durable-ingest rows through the full gateway (loopback TCP +
    // WAL), once per (protocol, fsync policy). The stop-and-wait rows
    // reuse the smallest sweep trace; the pipelined rows use a longer
    // trace of the same 10-sensor network so each timed run lasts long
    // enough to measure at several hundred k readings/sec. The speedup
    // column is honest overhead: the throughput ratio to the serial
    // in-process pipeline at the same network size.
    let (saw_trace, saw_period) = wide_trace(10, 7, 42);
    let saw_records = trace_to_raw(&saw_trace);
    let (pipe_trace, pipe_period) = wide_trace(10, 56, 42);
    let pipe_records = trace_to_raw(&pipe_trace);
    let batch_label = format!("{PIPE_BATCH}x{PIPE_WINDOW}");
    let mut pipe_stages: Option<Stages> = None;
    for (pipelined, fsync, retain) in [
        (false, FsyncPolicy::Never, None),
        (false, FsyncPolicy::Batch(64), None),
        (false, FsyncPolicy::Batch(64), Some(RETAIN_BUDGET)),
        (true, FsyncPolicy::Never, None),
        (true, FsyncPolicy::Batch(64), None),
        (true, FsyncPolicy::Batch(64), Some(RETAIN_BUDGET)),
    ] {
        let (records, period, days) = if pipelined {
            (&pipe_records, pipe_period, 56)
        } else {
            (&saw_records, saw_period, 7)
        };
        let (windows, seconds, stages) = time_ingest(records, period, fsync, retain, pipelined);
        let retention = retain.map_or_else(|| "off".to_string(), |b| b.to_string());
        let batch = if pipelined {
            batch_label.clone()
        } else {
            "off".to_string()
        };
        eprintln!(
            "  ingest batch={batch} fsync={fsync} retention={retention}: {:.3}s ({:.0} readings/s)",
            seconds,
            records.len() as f64 / seconds
        );
        if pipelined && fsync == FsyncPolicy::Batch(64) && retain.is_none() {
            // The stage breakdown row: pipelined group commit with the
            // production-shaped fsync policy and no retention churn.
            pipe_stages = Some(stages);
        }
        rows.push(Row {
            sensors: 10,
            days,
            mode: "ingest".into(),
            fsync: Some(fsync.to_string()),
            retention: Some(retention),
            batch: Some(batch),
            shards: 0,
            readings: records.len(),
            windows,
            seconds,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    json.push_str(
        "  \"note\": \"best-of-reps wall time per cell; serial = sentinet_core::Pipeline, \
         engine = sentinet_engine::Engine (bit-for-bit equivalent output; at 1 shard it runs \
         the serial Pipeline itself); shard speedup \
         over serial requires host_cpus > 1; ingest = durable gateway over loopback TCP \
         (WAL append before each ack) at the named fsync policy; batch = off for the \
         stop-and-wait v1 uplink, <batch>x<window> for the pipelined v2 uplink (DataBatch \
         frames under a credit window, cumulative AckUpTo released only after the covering \
         group fsync); retention = checkpoint-gated WAL reclaim under the named byte \
         budget (off = retain everything; pipelined rows checkpoint once per 32 batches); speedup_vs_serial = readings/sec ratio to the \
         serial row at the same sensor count; ingest_stages = per-stage wall seconds from \
         the fastest pipelined fsync=batch:64 rep (other_s = uninstrumented remainder, so \
         the stages sum to total_s, the wall time of that rep; fsync_s = event loop blocked \
         in inline fsyncs, fsync_overlapped_s = the syncer thread's policy fsyncs running \
         beside admission, not part of the sum; checkpoint_s = event loop inside the periodic \
         restore point after its WAL sync: reclaim plan and snapshot, \
         checkpoint_overlapped_s = the syncer thread's encode, write and rename of it, not \
         part of the sum; wal_encode_s = \
         cutting each batch's WAL extent into frames and encoding them, CRC included, \
         wal_append_s = the write calls)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let serial = rows
            .iter()
            .find(|s| s.sensors == r.sensors && s.mode == "serial")
            .expect("serial row exists for every network size");
        let fsync = r
            .fsync
            .as_ref()
            .map(|p| format!("\"fsync\": \"{p}\", "))
            .unwrap_or_default();
        let retention = r
            .retention
            .as_ref()
            .map(|p| format!("\"retention\": \"{p}\", "))
            .unwrap_or_default();
        let batch = r
            .batch
            .as_ref()
            .map(|p| format!("\"batch\": \"{p}\", "))
            .unwrap_or_default();
        let _ = write!(
            json,
            "    {{\"sensors\": {}, \"days\": {}, \"mode\": \"{}\", {fsync}{retention}{batch}\"shards\": {}, \
             \"readings\": {}, \"windows\": {}, \"seconds\": {:.6}, \
             \"readings_per_sec\": {:.1}, \"windows_per_sec\": {:.1}, \
             \"speedup_vs_serial\": {:.3}}}",
            r.sensors,
            r.days,
            r.mode,
            r.shards,
            r.readings,
            r.windows,
            r.seconds,
            r.readings as f64 / r.seconds,
            r.windows as f64 / r.seconds,
            (r.readings as f64 / r.seconds) / (serial.readings as f64 / serial.seconds),
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let stages = pipe_stages.expect("pipelined batch:64 row always runs");
    let _ = writeln!(
        json,
        "  \"ingest_stages\": {{\"decode_s\": {:.6}, \"admission_s\": {:.6}, \
         \"wal_encode_s\": {:.6}, \"wal_append_s\": {:.6}, \"fsync_s\": {:.6}, \
         \"fsync_overlapped_s\": {:.6}, \
         \"checkpoint_s\": {:.6}, \"checkpoint_overlapped_s\": {:.6}, \"ack_s\": {:.6}, \
         \"other_s\": {:.6}, \"total_s\": {:.6}}}",
        stages.decode_s,
        stages.admission_s,
        stages.wal_encode_s,
        stages.wal_append_s,
        stages.fsync_s,
        stages.fsync_overlapped_s,
        stages.checkpoint_s,
        stages.checkpoint_overlapped_s,
        stages.ack_s,
        stages.other_s,
        stages.total_s,
    );
    json.push_str("}\n");

    // sentinet-allow(io-outside-vfs): the benchmark report is a
    // terminal-program deliverable, not gateway-durable state.
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");
}
